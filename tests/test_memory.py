"""Transient memory of the stream path, measured with tracemalloc.

tracemalloc counts the bytes numpy allocates for array data exactly, so
unlike RSS these bounds do not depend on the allocator or the machine.
Each bound is a multiple of the data the step produces or reads: the
clicks' (and the stream's) bytes for generation, the heralds for the
time-bin generation whatever its noise, the index's bytes for
first-click extraction and the pulse join, the trigger list's bytes for
the opportunity count, the largest chunk's stream bytes for taking the
sorted columns and for a save above the clicks it holds, whatever the
chunk count, and one ``BLOCK_ROWS`` block's bytes for a load above the
clicks it returns, whatever the stream's length.  The generated run's
bounds hold on the serial and on the pooled schedule.  Buffers that numpy's sorts take from plain malloc are
not counted.
"""

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qfcsim import parallel
from qfcsim.artifacts import BLOCK_ROWS
from qfcsim.config import PRESETS, ExperimentConfig
from qfcsim.counting import (CoincidenceWindow, count_summary, first_clicks, opportunities,
                             pair_delays)
from qfcsim.sources import (START_CHANNEL, TRIGGER_CHANNEL, EventStream, generate_hbt_stream,
                            generate_mzi_stream)

from test_counting import stream_of

IDEAL_G2 = Path(__file__).resolve().parent.parent / "src" / "qfcsim" / "presets" / "ideal_g2.cfg"

#: bytes per stream event: int16 channel, int64 pulse, float64 time
EVENT_BYTES = 2 + 8 + 8


def _index_bytes(clicks):
    return sum(column.nbytes for column in (clicks.trigger_pulses, clicks.start_pulses,
                                            clicks.start_times, clicks.stop_pulses,
                                            clicks.stop_times))


def _click_bytes(stream):
    return sum(pulses.nbytes + times.nbytes
               for chunk in stream.chunks for pulses, times in chunk.values())


def _largest_chunk_bytes(stream):
    return EVENT_BYTES * max(sum(len(pulses) for pulses, _ in chunk.values())
                             for chunk in stream.chunks)


def _traced_peak(step):
    """``step()``'s result and its traced peak above the memory held before it."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = step()
    return result, tracemalloc.get_traced_memory()[1] - before


@pytest.fixture(scope="module", params=[1, 2], ids=["serial", "pooled"])
def dense_clicks(request):
    """The ``ideal_g2`` clicks at 2M pulses (every pulse heralds, about 1.5
    clicks per pulse) and their generation peak, under tracing.

    The run has four chunks.  Reporting one usable CPU runs them serially;
    reporting two runs them on the thread pool, two at a time.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    cfg = ExperimentConfig.from_file(IDEAL_G2)
    cfg.n_pulses = 2_000_000

    def generate():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parallel, "usable_cpus", lambda: request.param)
            return generate_hbt_stream(cfg)

    clicks, peak = _traced_peak(generate)
    yield clicks, peak
    if started:
        tracemalloc.stop()


def test_generation_peak(dense_clicks):
    """Nothing is sorted or joined: generation peaks at the clicks it keeps
    (16 bytes each) plus the chunks in flight, 1.12 times the clicks'
    bytes serial and 1.11-1.25 pooled, as the chunks in flight interleave,
    below the stream's own bytes pooled."""
    clicks, peak = dense_clicks
    nbytes = _click_bytes(clicks)
    assert nbytes == 16 * len(clicks)
    assert peak <= 2.0 * EVENT_BYTES * len(clicks)
    assert peak <= 1.5 * nbytes


def test_sorted_blocks_peak(dense_clicks):
    """The sorted columns are taken one ``sorted_blocks`` block at a time,
    each dropped before the next is built: the peak is one chunk's sorted
    block and the sort that builds it, measured at 2.00 times the largest
    chunk's stream bytes.  The bound of 2.2 is below the run's own stream
    bytes (3.8 chunks), so taking all columns at once would fail it."""
    clicks = dense_clicks[0]
    n_events = len(clicks)

    def take():
        n_rows = 0
        for block in clicks.sorted_blocks():
            n_rows += len(block[0])
            del block
        return n_rows

    n_rows, peak = _traced_peak(take)
    assert n_rows == n_events and len(clicks) == n_events
    assert peak <= 2.2 * _largest_chunk_bytes(clicks)


def test_stream_save_peak(dense_clicks):
    """The whole save of the generated run (four chunks) adds the text of
    one ``BLOCK_ROWS`` block to taking its sorted columns: measured at 2.01
    times the largest chunk's stream bytes, under the same bound of 2.2.
    Only the memory counts, so the text goes to ``os.devnull``."""
    clicks = dense_clicks[0]
    n_events = len(clicks)
    _, peak = _traced_peak(lambda: clicks.save(os.devnull))
    assert len(clicks) == n_events
    assert peak <= 2.2 * _largest_chunk_bytes(clicks)


def test_first_clicks_peak(dense_clicks):
    """The extraction peaks at the index it returns plus half its uint32
    trigger list: trigger times or an int64 trigger copy would each add
    twice the list's bytes (here every pulse triggers, so the list is 30% of
    the index)."""
    clicks, peak = _traced_peak(lambda: first_clicks(dense_clicks[0]))
    trigger = clicks.trigger_pulses
    assert trigger.dtype == np.uint32
    assert peak <= _index_bytes(clicks) + 0.5 * trigger.nbytes


def test_join_peak(dense_clicks):
    """``pair_delays`` joins one block of start entries at a time and keeps
    only one offset's delays, so for one offset and for the whole window of
    offsets -5 .. 5 alike it peaks at a fraction of the index (0.21 for the
    window).  A join of the whole start list at once, with its widened keys,
    stop indices and matched pulse and start-time gathers, held about 0.75
    of it."""
    clicks = first_clicks(dense_clicks[0])
    window = CoincidenceWindow(1e-9)
    for offset in range(-5, 6):
        _, peak = _traced_peak(lambda: count_summary(clicks, window, offset))
        assert peak <= 0.25 * _index_bytes(clicks), offset
    _, peak = _traced_peak(lambda: pair_delays(clicks, 0, 5, window))
    assert peak <= 0.25 * _index_bytes(clicks)


def test_opportunities_peak(dense_clicks):
    clicks = first_clicks(dense_clicks[0])
    _, peak = _traced_peak(lambda: opportunities(clicks, 3))
    # the lag differences of one block, far below the uint32 list itself
    assert clicks.trigger_pulses.dtype == np.uint32
    assert peak <= 0.1 * clicks.trigger_pulses.nbytes


def _block_stream(n_chunks):
    """A stream of ``n_chunks`` chunks of four ``BLOCK_ROWS`` blocks of rows
    each, every chunk split by channel."""
    rows = 4 * BLOCK_ROWS
    pulses = np.arange(n_chunks * rows, dtype=np.int64) * 3
    channels, times = pulses % 3 + 1, pulses * 12195.0 + 1 / 3
    chunks = [stream_of(channels[part], pulses[part], times[part], n_pulses=0).chunks[0]
              for part in (slice(lo, lo + rows) for lo in range(0, len(pulses), rows))]
    return EventStream(chunks, n_pulses=3 * len(pulses), seed=1, rep_period=12195e-12)


@pytest.mark.parametrize("n_chunks", [2, 8])
def test_stream_save_peak_per_chunk(n_chunks, tmp_path):
    """A save sorts and writes one chunk at a time: above the clicks it
    holds, it peaks at one chunk's sorted block plus the text of one of its
    ``BLOCK_ROWS`` blocks, measured at 3.75 times one chunk's stream bytes
    at either chunk count.  The bound of 5 is below the 8-chunk stream's
    own columns, so a save whose peak grew with the stream would fail it."""
    stream = _block_stream(n_chunks)
    chunk_bytes = 4 * BLOCK_ROWS * EVENT_BYTES
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        _, peak = _traced_peak(lambda: stream.save(tmp_path / "events.csv"))
    finally:
        if started:
            tracemalloc.stop()
    assert len(stream) == 4 * n_chunks * BLOCK_ROWS
    assert peak <= 5 * chunk_bytes


def test_stream_load_peak(tmp_path):
    """A load holds the clicks it returns, 16 bytes each, plus one block's
    lines, their parse and its split by channel: measured at 9.6 blocks'
    bytes above the clicks.  The bound of 12 is below the 16-block file's
    own columns, so a load whose peak grew with the file would fail it."""
    path = tmp_path / "events.csv"
    _block_stream(4).save(path)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        stream, peak = _traced_peak(lambda: EventStream.load(path))
    finally:
        if started:
            tracemalloc.stop()
    assert len(stream) == 16 * BLOCK_ROWS and len(stream.chunks) == 16
    assert peak - _click_bytes(stream) <= 12 * BLOCK_ROWS * EVENT_BYTES


def test_timebin_generation_peak_does_not_grow_with_noise():
    """Each herald keeps only its earliest start click, so with 50 detected
    noise photons per herald the time-bin stream holds at most one start
    click per herald, and generation peaks at a fixed number of bytes per
    herald whatever the noise: measured at 49 with no noise and 80 with it.
    One candidate click per noise photon peaked at 1,645."""
    cfg = PRESETS["calibrated_tomo"](seed=5)
    cfg.mean_pairs, cfg.det1_efficiency, cfg.n_pulses = 3.0, 1.0, 50_000
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        generate_mzi_stream(cfg)  # the first run's one-off allocations are not the run's
        peaks = {}
        for lam in (0.0, 50.0):
            cfg.noise_coeff = 2.0 * lam / (cfg.pump_power * cfg.det2_efficiency)
            stream, peak = _traced_peak(lambda: generate_mzi_stream(cfg))
            trigger = stream.first_event_times(TRIGGER_CHANNEL, times=False)
            start = stream.first_event_times(START_CHANNEL, times=False)
            assert len(start) == sum(len(chunk[START_CHANNEL][0]) for chunk in stream.chunks)
            assert np.all(np.isin(start, trigger))
            peaks[lam] = peak / len(trigger)
    finally:
        if started:
            tracemalloc.stop()
    assert len(start) > 0.99 * len(trigger)  # at 50 noise photons nearly every herald clicks
    assert max(peaks.values()) <= 100.0, peaks
    assert peaks[50.0] <= 2.0 * peaks[0.0], peaks
