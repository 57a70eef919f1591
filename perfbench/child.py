"""One qfcsim CLI command in a fresh interpreter, timed from outside the package.

Usage: python3 perfbench/child.py STATS_JSON TRACE(0|1) -- CLI_ARGS...

Imports ``qfcsim.cli`` from the checkout's ``src`` tree, parses the config
named by ``--config`` (if any), then runs ``qfcsim.cli.main`` on CLI_ARGS.
With TRACE=1 the public functions are wrapped under the names their
callers look them up by, and every call is kept as a span
``[name, parent_index, start, end, attrs]`` in memory.  Everything is
written to STATS_JSON once the command has returned.  All times are
``time.monotonic()``, the same clock the parent reads, so the parent can
subtract its own spawn time from ``ready``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _stream_attrs(args, kwargs, result):
    return {"pulses": int(args[0].n_pulses), "events": len(result)}


def _file_attrs(args, kwargs, result):
    # EventStream.save(self, path) and EventStream.load(cls, path)
    return {"bytes": os.path.getsize(args[1])}


def _mle_attrs(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


# (owner, attribute, span name, attrs).  The owner is the namespace the
# caller resolves the name in, so ``count_summary`` appears once per module
# that imports it.
TARGETS = [
    ("qfcsim.cli", "run_efficiency_sweep", "experiments.run", None),
    ("qfcsim.cli", "run_g2_experiment", "experiments.run", None),
    ("qfcsim.cli", "run_tomography_experiment", "experiments.run", None),
    ("qfcsim.cli", "run_mzi_histogram", "experiments.run", None),
    ("qfcsim.cli", "write_sweep", "experiments.write", None),
    ("qfcsim.cli", "write_g2", "experiments.write", None),
    ("qfcsim.cli", "write_tomography", "experiments.write", None),
    ("qfcsim.cli", "count_summary", "counting.count_summary", None),
    ("qfcsim.cli", "delay_histogram", "counting.delay_histogram", None),
    ("qfcsim.cli", "mle_reconstruct", "tomography.mle_reconstruct", _mle_attrs),
    ("qfcsim.cli", "chsh_assessment", "metrics.chsh_assessment", None),
    ("qfcsim.experiments", "generate_hbt_stream", "sources.generate_hbt_stream", _stream_attrs),
    ("qfcsim.experiments", "generate_mzi_stream", "sources.generate_mzi_stream", _stream_attrs),
    ("qfcsim.experiments", "count_summary", "counting.count_summary", None),
    ("qfcsim.experiments", "g2_at_offset", "counting.g2_at_offset", None),
    ("qfcsim.experiments", "delay_histogram", "counting.delay_histogram", None),
    ("qfcsim.experiments", "select_window", "counting.select_window", None),
    ("qfcsim.experiments", "mle_reconstruct", "tomography.mle_reconstruct", _mle_attrs),
    ("qfcsim.experiments", "simulate_counts", "tomography.simulate_counts", None),
    ("qfcsim.experiments", "chsh_assessment", "metrics.chsh_assessment", None),
    ("qfcsim.experiments", "fit_efficiency_curve", "conversion.fit_efficiency_curve", None),
    ("qfcsim.counting", "count_summary", "counting.count_summary", None),
    ("qfcsim.counting", "pair_delays", "counting.pair_delays", None),
    ("qfcsim.sources:EventStream", "first_event_times", "sources.first_event_times", None),
    ("qfcsim.sources:EventStream", "save", "sources.stream_save", _file_attrs),
    ("qfcsim.sources:EventStream", "load", "sources.stream_load", _file_attrs),
    ("qfcsim.config:ExperimentConfig", "from_file", "config.from_file", None),
]


class Tracer:
    """Spans of one single-threaded process, nested by a call stack."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.monotonic(), None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.monotonic()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self):
        for owner_path, attr, name, attrs in TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    # wrap the function under the classmethod so ``cls``
                    # arrives as args[0] and ``path`` as args[1]
                    setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, attrs)))
                    continue
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, attrs))


def main(argv: list[str]) -> int:
    stats_path, trace = argv[0], argv[1] == "1"
    cli_args = argv[argv.index("--") + 1:]

    sys.path.insert(0, str(SRC))
    import qfcsim.cli as cli
    from qfcsim.config import ExperimentConfig
    if "--config" in cli_args:
        ExperimentConfig.from_file(cli_args[cli_args.index("--config") + 1])
    ready = time.monotonic()

    tracer = Tracer() if trace else None
    main_fn = cli.main
    if tracer is not None:
        tracer.install()
        main_fn = tracer.wrap(main_fn, "cli.main")
    code = main_fn(cli_args)
    end = time.monotonic()

    stats = {
        "ready": ready,
        "end": end,
        "exit": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
