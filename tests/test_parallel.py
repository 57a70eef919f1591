"""The pooled schedule: same output as the serial one, clean failures.

The serial schedule is forced by reporting one usable CPU, the pooled one
by reporting two, so every check runs on any machine.  After each pooled
call no worker process and no extra thread may be left running.
"""

import multiprocessing
import os
import threading
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from qfcsim import artifacts, parallel, sources
from qfcsim.cli import main
from qfcsim.config import SOURCE_KINDS, calibrated_g2_config, calibrated_tomo_config
from qfcsim.parallel import MIN_TASKS, ordered_map, pool_size
from qfcsim.sources import generate_hbt_stream, generate_mzi_stream

from test_artifacts import _reference
from test_experiments import _long_delay_mzi_config

SERIAL, POOLED = 1, 2
TEST_PID = os.getpid()
_format_rows = artifacts._format_rows


class TaskError(Exception):
    pass


def _pid(task):
    return task, os.getpid()


def _fail(task):
    if task == 2:
        raise TaskError(task)
    return task


def _die_in_worker(columns):
    """Formats the rows in this process; a forked worker exits at once."""
    if os.getpid() != TEST_PID:
        os._exit(1)
    return _format_rows(columns)


@pytest.fixture()
def cpus(monkeypatch):
    """Sets the CPU count the pool rule sees; checks that the pooled calls
    of the test left no worker process or thread behind."""
    threads = threading.active_count()
    yield lambda n: monkeypatch.setattr(parallel, "usable_cpus", lambda: n)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def test_pool_rule_reads_only_task_count_and_cpus(cpus, monkeypatch):
    cpus(2)
    assert pool_size(MIN_TASKS - 1) == 1
    assert pool_size(MIN_TASKS) == pool_size(MIN_TASKS, processes=True) == 2
    cpus(8)
    assert pool_size(5) == 5
    assert pool_size(10**9) == 8
    cpus(1)
    assert pool_size(10**9) == 1
    cpus(8)
    monkeypatch.setattr(parallel.sys, "platform", "darwin")
    assert pool_size(10) == 8
    assert pool_size(10, processes=True) == 1


@pytest.mark.parametrize("processes", [False, True])
def test_ordered_map_keeps_task_order(cpus, processes):
    cpus(POOLED)
    results = list(ordered_map(_pid, range(9), processes=processes))
    assert [task for task, _ in results] == list(range(9))
    # processes are forked workers; threads share this process
    assert all((pid != os.getpid()) == processes for _, pid in results)


@pytest.mark.parametrize("processes", [False, True])
@pytest.mark.parametrize("n_cpus", [SERIAL, POOLED])
def test_task_exception_keeps_its_type(cpus, processes, n_cpus):
    cpus(n_cpus)
    with pytest.raises(TaskError):
        list(ordered_map(_fail, range(6), processes=processes))


def _hbt_config(kind):
    cfg = calibrated_g2_config(seed=41)
    cfg.source_kind, cfg.mean_pairs, cfg.n_pulses = kind, 0.3, 20_000
    return cfg


def _mzi_config(kind):
    cfg = calibrated_tomo_config(seed=42)
    cfg.source_kind, cfg.n_pulses = kind, 20_000
    return cfg


def _streams_on_both_schedules(cpus, monkeypatch, generate, cfg):
    """The stream of the clicks generated on the serial and the pooled
    schedule, and the threads that ran each schedule's chunks."""
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
        streams.append(generate(cfg).to_stream())
    return streams, ran_on


def _assert_same_stream(got, want):
    for name in ("channels", "pulse_indices", "timestamps_ps"):
        assert_array_equal(getattr(got, name), getattr(want, name), strict=True)
    assert (got.n_pulses, got.seed, got.rep_period) == (want.n_pulses, want.seed,
                                                         want.rep_period)


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
    # the joined chunks leave time order, so the pooled run takes the re-sort too
    monkeypatch.setattr(sources, "CHUNK_PULSES", 100)
    (serial, pooled), _ = _streams_on_both_schedules(
        cpus, monkeypatch, generate_mzi_stream, _long_delay_mzi_config())
    chunk = serial.pulse_indices // 100
    assert np.any(chunk[1:] < chunk[:-1])
    _assert_same_stream(pooled, serial)


def test_table_bytes_do_not_depend_on_schedule(cpus, monkeypatch, tmp_path):
    monkeypatch.setattr(artifacts, "BLOCK_ROWS", 16)
    rows = np.arange(16 * MIN_TASKS + 5)
    columns = ((rows % 3 + 1).astype(np.int16), rows * 7919 - 2**40,
               np.resize(np.array([-0.0, 1e16, 5e-324, 0.30000000000000004]), len(rows)))
    texts = []
    for n in (SERIAL, POOLED):
        cpus(n)
        path = tmp_path / f"table{n}.csv"
        artifacts.write_table(path, "a,b,c", columns)
        texts.append(path.read_bytes())
    assert texts[0] == texts[1] == _reference("a,b,c", columns).encode()


def _pooled_g2_args(tmp_path, monkeypatch):
    # 1,000-row blocks: the stream of about 9,000 rows is written in 9 blocks
    monkeypatch.setattr(artifacts, "BLOCK_ROWS", 1_000)
    cfg = replace(calibrated_g2_config(seed=43), n_pulses=200_000)
    path = tmp_path / "g2.cfg"
    cfg.to_file(path)
    return ["g2", "--config", str(path), "--out", str(tmp_path / "out"), "--save-stream"]


def test_pooled_save_stream_equals_serial(cpus, monkeypatch, tmp_path, capsys):
    args = _pooled_g2_args(tmp_path, monkeypatch)
    texts = []
    for n in (SERIAL, POOLED):
        cpus(n)
        assert main(args) == 0
        texts.append((tmp_path / "out" / "events.csv").read_bytes())
    assert texts[0].count(b"\n") > 4 * 1_000
    assert texts[0] == texts[1]


def test_failing_pooled_save_stream_exits_1(cpus, monkeypatch, tmp_path, capsys):
    args = _pooled_g2_args(tmp_path, monkeypatch)
    cpus(POOLED)
    # a worker that dies breaks the pool: a failure of the system, not of
    # the numbers, although BrokenProcessPool is a RuntimeError
    monkeypatch.setattr(artifacts, "_format_rows", _die_in_worker)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("system failure: a pool worker died: ")
    assert err.count("\n") == 1
