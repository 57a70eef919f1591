"""Transient memory of the stream path, measured with tracemalloc.

tracemalloc counts the bytes numpy allocates for array data exactly, so
unlike RSS these bounds do not depend on the allocator or the machine.
Each bound is a multiple of the data the step produces or reads: the
clicks' (and the stream's) bytes for generation, one chunk's stream bytes
for building the stream above the stream itself, the index's bytes for
first-click extraction and the pulse join, the trigger list's bytes for
the opportunity count, and one ``BLOCK_ROWS`` block's bytes for the stream
save, whatever the stream's length.  Every bound holds on the serial and on
the pooled schedule.  Buffers that numpy's sorts take from plain malloc are
not counted.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qfcsim import parallel
from qfcsim.artifacts import BLOCK_ROWS
from qfcsim.config import ExperimentConfig
from qfcsim.counting import (CoincidenceWindow, count_summary, first_clicks, opportunities,
                             pair_delays)
from qfcsim.sources import EventStream, generate_hbt_stream

IDEAL_G2 = Path(__file__).resolve().parent.parent / "configs" / "ideal_g2.cfg"

#: bytes per stream event: int16 channel, int64 pulse, float64 time
EVENT_BYTES = 2 + 8 + 8


def _index_bytes(clicks):
    return sum(column.nbytes for column in (clicks.trigger_pulses, clicks.start_pulses,
                                            clicks.start_times, clicks.stop_pulses,
                                            clicks.stop_times))


def _traced_peak(step):
    """``step()``'s result and its traced peak above the memory held before it."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = step()
    return result, tracemalloc.get_traced_memory()[1] - before


@pytest.fixture(scope="module", params=[1, 2], ids=["serial", "pooled"])
def dense_clicks(request):
    """The ``ideal_g2`` clicks at 2M pulses (every pulse heralds, about 1.5
    clicks per pulse) and their generation peak, under tracing, and a
    function that generates them again on the same schedule.

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
    yield clicks, peak, generate
    if started:
        tracemalloc.stop()


def test_generation_peak(dense_clicks):
    """Nothing is sorted or joined: generation peaks at the clicks it keeps
    (16 bytes each) plus the chunks in flight, 1.23 times the clicks'
    bytes serial and 1.43 pooled, below the stream's own bytes pooled."""
    clicks, peak, _ = dense_clicks
    nbytes = sum(pulses.nbytes + times.nbytes
                 for chunk in clicks.chunks for pulses, times in chunk.values())
    assert nbytes == 16 * len(clicks)
    assert peak <= 2.0 * EVENT_BYTES * len(clicks)
    assert peak <= 1.5 * nbytes


def test_to_stream_peak(dense_clicks):
    """The stream's columns are allocated once, and one chunk at a time is
    sorted into them: above the stream, the peak is that chunk's own
    times, their concatenation and its channels, one chunk's stream bytes
    (measured at 1.00 times), however many chunks the run has."""
    clicks = dense_clicks[2]()
    chunk_events = max(sum(len(pulses) for pulses, _ in chunk.values())
                       for chunk in clicks.chunks)
    n_events = len(clicks)
    stream, peak = _traced_peak(clicks.to_stream)
    assert len(stream) == n_events and len(clicks) == 0
    assert peak - EVENT_BYTES * n_events <= 1.1 * EVENT_BYTES * chunk_events


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


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "pooled"])
def test_stream_save_peak(cpus, monkeypatch, tmp_path):
    """A save holds a few blocks and their text at once, never the table:
    the bound of 20 blocks' bytes is below the 16-block table's own text
    (about 24), so a save whose peak grew with the table would fail it."""
    n = 16 * BLOCK_ROWS
    pulses = np.arange(n, dtype=np.int64) * 3
    stream = EventStream(pulses % 3 + 1, pulses, pulses * 12195.0 + 1 / 3, n_pulses=3 * n,
                         seed=1, rep_period=12195e-12)
    block_bytes = BLOCK_ROWS * (2 + 8 + 8)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        _, peak = _traced_peak(lambda: stream.save(tmp_path / "events.csv"))
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 20 * block_bytes
