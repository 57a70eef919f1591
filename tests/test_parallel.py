"""The pooled schedule: same output as the serial one, clean failures.

The serial schedule is forced by reporting one usable CPU, the pooled one
by reporting two, so every check runs on any machine.  After each pooled
call no extra thread may be left running.
"""

import threading
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from qfcsim import artifacts, parallel, sources
from qfcsim.cli import main
from qfcsim.config import PRESETS, SOURCE_KINDS
from qfcsim.parallel import MIN_TASKS, ordered_map, pool_size
from qfcsim.sources import generate_hbt_stream, generate_mzi_stream

from test_artifacts import _reference
from test_counting import columns_of
from test_experiments import _long_delay_mzi_config

SERIAL, POOLED = 1, 2


class TaskError(Exception):
    pass


def _thread(task):
    return task, threading.get_ident()


def _fail(task):
    if task == 2:
        raise TaskError(task)
    return task


@pytest.fixture()
def cpus(monkeypatch):
    """Sets the CPU count the pool rule sees; checks that the pooled calls
    of the test left no thread behind."""
    threads = threading.active_count()
    yield lambda n: monkeypatch.setattr(parallel, "usable_cpus", lambda: n)
    assert threading.active_count() == threads


def test_pool_rule_reads_only_task_count_and_cpus(cpus):
    cpus(2)
    assert pool_size(MIN_TASKS - 1) == 1
    assert pool_size(MIN_TASKS) == 2
    cpus(8)
    assert pool_size(5) == 5
    assert pool_size(10**9) == 8
    cpus(1)
    assert pool_size(10**9) == 1


def test_ordered_map_keeps_task_order(cpus):
    cpus(POOLED)
    results = list(ordered_map(_thread, range(9)))
    assert [task for task, _ in results] == list(range(9))
    assert threading.get_ident() not in {thread for _, thread in results}


@pytest.mark.parametrize("n_cpus", [SERIAL, POOLED])
def test_task_exception_keeps_its_type(cpus, n_cpus):
    cpus(n_cpus)
    with pytest.raises(TaskError):
        list(ordered_map(_fail, range(6)))


def _hbt_config(kind):
    cfg = PRESETS["calibrated_g2"](seed=41)
    cfg.source_kind, cfg.mean_pairs, cfg.n_pulses = kind, 0.3, 20_000
    return cfg


def _mzi_config(kind):
    cfg = PRESETS["calibrated_tomo"](seed=42)
    cfg.source_kind, cfg.n_pulses = kind, 20_000
    return cfg


def _streams_on_both_schedules(cpus, monkeypatch, generate, cfg):
    """The streams generated on the serial and the pooled schedule, and the
    threads that ran each schedule's chunks."""
    ran_on = []
    inner = sources._generate

    def spy(config, chunk_events):
        def body(*args):
            ran_on[-1].add(threading.get_ident())
            return chunk_events(*args)
        return inner(config, body)

    monkeypatch.setattr(sources, "_generate", spy)
    streams = []
    for n in (SERIAL, POOLED):
        cpus(n)
        ran_on.append(set())
        streams.append(generate(cfg))
    return streams, ran_on


def _assert_same_stream(got, want):
    """Asserts that two streams sort into the same columns, and returns them."""
    assert (got.n_pulses, got.seed, got.rep_period) == (want.n_pulses, want.seed,
                                                         want.rep_period)
    columns = columns_of(want)
    for column, want_column in zip(columns_of(got), columns):
        assert_array_equal(column, want_column, strict=True)
    return columns


@pytest.mark.parametrize("generate, cfg", [
    *((generate_hbt_stream, _hbt_config(kind)) for kind in SOURCE_KINDS),
    *((generate_mzi_stream, _mzi_config(kind)) for kind in ("spdc", "spdc_thermal",
                                                            "single_photon")),
], ids=lambda value: getattr(value, "__name__", None) or value.source_kind)
def test_stream_does_not_depend_on_schedule(cpus, monkeypatch, generate, cfg):
    # 4,000-pulse chunks: five chunks, the last one partial
    monkeypatch.setattr(sources, "CHUNK_PULSES", 4_000)
    (serial, pooled), (serial_threads, pooled_threads) = _streams_on_both_schedules(
        cpus, monkeypatch, generate, cfg)
    assert len(serial) > 0
    _assert_same_stream(pooled, serial)
    assert serial_threads == {threading.get_ident()}
    assert threading.get_ident() not in pooled_threads


def test_overlapping_chunks_do_not_depend_on_schedule(cpus, monkeypatch):
    # the joined chunks leave time order, so the pooled run carries clicks across chunks too
    monkeypatch.setattr(sources, "CHUNK_PULSES", 100)
    (serial, pooled), _ = _streams_on_both_schedules(
        cpus, monkeypatch, generate_mzi_stream, _long_delay_mzi_config())
    chunk = _assert_same_stream(pooled, serial)[1] // 100
    assert np.any(chunk[1:] < chunk[:-1])


def test_table_bytes_do_not_depend_on_schedule(cpus, monkeypatch, tmp_path):
    # tables are formatted in the calling process whatever the CPU count
    monkeypatch.setattr(artifacts, "BLOCK_ROWS", 16)
    rows = np.arange(16 * MIN_TASKS + 5)
    columns = ((rows % 3 + 1).astype(np.int16), rows * 7919 - 2**40,
               np.resize(np.array([-0.0, 1e16, 5e-324, 0.30000000000000004]), len(rows)))
    texts = []
    for n in (SERIAL, POOLED):
        cpus(n)
        path = tmp_path / f"table{n}.csv"
        artifacts.write_table(path, "a,b,c", [columns])
        texts.append(path.read_bytes())
    assert texts[0] == texts[1] == _reference("a,b,c", columns).encode()


def test_pooled_save_stream_equals_serial(cpus, monkeypatch, tmp_path, capsys):
    # 40,000-pulse chunks and 1,000-row blocks: the generation of 200,000
    # pulses is pooled, and its stream of about 9,000 rows written in 9 blocks
    monkeypatch.setattr(sources, "CHUNK_PULSES", 40_000)
    monkeypatch.setattr(artifacts, "BLOCK_ROWS", 1_000)
    cfg = replace(PRESETS["calibrated_g2"](seed=43), n_pulses=200_000)
    path = tmp_path / "g2.cfg"
    cfg.to_file(path)
    args = ["g2", "--config", str(path), "--out", str(tmp_path / "out"), "--save-stream"]
    texts = []
    for n in (SERIAL, POOLED):
        cpus(n)
        assert main(args) == 0
        texts.append((tmp_path / "out" / "events.csv").read_bytes())
    assert texts[0].count(b"\n") > 4 * 1_000
    assert texts[0] == texts[1]
