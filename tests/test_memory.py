"""Transient memory of the stream path, measured with tracemalloc.

tracemalloc counts the bytes numpy allocates for array data exactly, so
unlike RSS these bounds do not depend on the allocator or the machine.
Each bound is a multiple of the data the step produces or reads: the
stream's bytes for generation, the index's bytes for first-click
extraction and the pulse join, the trigger list's bytes for the
opportunity count, and one ``BLOCK_ROWS`` block's bytes for the stream
save, whatever the stream's length.  Every bound holds
on the serial and on the pooled schedule.  Buffers that numpy's sorts take
from plain malloc are not counted.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qfcsim import parallel
from qfcsim.artifacts import BLOCK_ROWS
from qfcsim.config import ExperimentConfig
from qfcsim.counting import CoincidenceWindow, count_summary, first_clicks, opportunities
from qfcsim.sources import EventStream, generate_hbt_stream

IDEAL_G2 = Path(__file__).resolve().parent.parent / "configs" / "ideal_g2.cfg"


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
def dense_stream(request):
    """The ``ideal_g2`` stream at 2M pulses (every pulse heralds, about 1.5
    events per pulse), its generation peak, and its bytes, under tracing.

    The stream has four chunks.  Reporting one usable CPU runs them
    serially; reporting two runs them on the thread pool, two at a time.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    cfg = ExperimentConfig.from_file(IDEAL_G2)
    cfg.n_pulses = 2_000_000
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "usable_cpus", lambda: request.param)
        stream, peak = _traced_peak(lambda: generate_hbt_stream(cfg))
    nbytes = sum(column.nbytes for column in (stream.channels, stream.pulse_indices,
                                              stream.timestamps_ps))
    yield stream, peak, nbytes
    if started:
        tracemalloc.stop()


def test_generation_peak(dense_stream):
    _, peak, nbytes = dense_stream
    assert peak <= 2.0 * nbytes


def test_first_clicks_peak(dense_stream):
    """The extraction peaks at the index it returns plus half its uint32
    trigger list: trigger times or an int64 trigger copy would each add
    twice the list's bytes (here every pulse triggers, so the list is 30% of
    the index)."""
    stream = dense_stream[0]
    clicks, peak = _traced_peak(lambda: first_clicks(stream))
    trigger = clicks.trigger_pulses
    assert trigger.dtype == np.uint32
    assert peak <= _index_bytes(clicks) + 0.5 * trigger.nbytes


def test_join_peak(dense_stream):
    """``count_summary`` joins one block of start entries at a time and
    keeps only the delays, so at every offset it peaks at a fraction of the
    index.  A join of the whole start list at once, with its widened keys,
    stop indices and matched pulse and start-time gathers, held about 0.75
    of it."""
    clicks = first_clicks(dense_stream[0])
    window = CoincidenceWindow(1e-9)
    for offset in range(-5, 6):
        _, peak = _traced_peak(lambda: count_summary(clicks, window, offset))
        assert peak <= 0.25 * _index_bytes(clicks), offset


def test_opportunities_peak(dense_stream):
    clicks = first_clicks(dense_stream[0])
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
