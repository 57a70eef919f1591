"""Transient memory of the stream path, measured with tracemalloc.

tracemalloc counts the bytes numpy allocates for array data exactly, so
unlike RSS these bounds do not depend on the allocator or the machine.
Each bound is a multiple of the data the step produces or reads: the
stream's bytes for generation and first-click extraction, and the trigger
list's bytes for the opportunity count.  Every bound holds on the serial
and on the pooled schedule of generation.  Buffers that numpy's sorts take
from plain malloc are not counted.
"""

import tracemalloc
from pathlib import Path

import pytest

from qfcsim import parallel
from qfcsim.config import ExperimentConfig
from qfcsim.counting import first_clicks, opportunities
from qfcsim.sources import generate_hbt_stream

IDEAL_G2 = Path(__file__).resolve().parent.parent / "configs" / "ideal_g2.cfg"


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
    stream, _, nbytes = dense_stream
    _, peak = _traced_peak(lambda: first_clicks(stream))
    assert peak <= 1.1 * nbytes


def test_opportunities_peak(dense_stream):
    clicks = first_clicks(dense_stream[0])
    _, peak = _traced_peak(lambda: opportunities(clicks, 3))
    assert peak <= 2.5 * clicks.trigger_pulses.nbytes
