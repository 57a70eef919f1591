"""Command-line front end.

Subcommands: ``sweep`` (pump-power efficiency curve), ``g2`` (heralded
intensity correlation), ``tomo`` (two-qubit tomography of the converted
state), and ``analyze`` (re-analysis of saved event streams or count
records).  Exit status is 0 on success, 1 on system failures (say, an
unwritable output), 2 on bad input or a run beyond memory, 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .artifacts import write_pairs
from .config import ConfigError, check_range, load_config, parse_scalar
# count_summary, delay_histogram, chsh_assessment and mle_reconstruct are
# unused here, but perfbench/child.py traces them under these names
from .counting import CoincidenceWindow, count_summary, delay_histogram, first_clicks
from .experiments import (analyze_g2, g2_report, reconstruct, run_efficiency_sweep,
                          run_g2_experiment, run_mzi_histogram,
                          run_tomography_experiment, tomography_report,
                          write_g2, write_sweep, write_tomography)
from .metrics import chsh_assessment
from .sources import EventStream
from .tomography import IncompleteSettingsError, load_records, mle_reconstruct, save_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfcsim",
        description="Simulate and analyze a frequency-conversion quantum interface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_seed=True):
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", default="out", help="output directory")
        if needs_seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")

    p_sweep = sub.add_parser("sweep", help="pump-power efficiency sweep and fit")
    add_common(p_sweep, needs_seed=False)

    p_g2 = sub.add_parser("g2", help="heralded g2 measurement")
    add_common(p_g2)
    p_g2.add_argument("--save-stream", action="store_true",
                      help="also write the raw event stream")

    p_tomo = sub.add_parser("tomo", help="two-qubit tomography of the converted state")
    add_common(p_tomo)
    p_tomo.add_argument("--subtract-bg", action="store_true",
                        help="subtract the pump-noise floor of the state before MLE")
    p_tomo.add_argument("--timebin-histogram", action="store_true",
                        help="also simulate and write the arrival-time histogram")

    p_an = sub.add_parser("analyze", help="re-analyze saved streams or count records")
    p_an.add_argument("--stream", help="event stream file to analyze")
    p_an.add_argument("--counts", help="count-record file to reconstruct from")
    p_an.add_argument("--out", default="out", help="output directory")
    p_an.add_argument("--bin-width", help="histogram bin width in s of a stream "
                      "(default 50ps)")
    p_an.add_argument("--window", help="coincidence window width in s of a stream "
                      "(default 1ns)")
    p_an.add_argument("--bg-rate", help="subtract a flat background of this rate "
                      "in Hz (e.g. 0.2Hz) from count records")
    return parser


def _flag_value(flag: str, text: str, unit: str, rule: str = "> 0") -> float:
    """Parse a flag value with an optional suffix of base unit ``unit`` that
    keeps the range ``rule``."""
    value = parse_scalar(text, unit)
    check_range(flag, value, rule)
    return value


def _cmd_sweep(args) -> list[Path]:
    config = load_config(args.config)
    return write_sweep(run_efficiency_sweep(config), args.out)


def _cmd_g2(args) -> list[Path]:
    config = load_config(args.config, args.seed)
    result = run_g2_experiment(config)
    paths = write_g2(result, args.out)
    if args.save_stream:
        stream_path = Path(args.out) / "events.csv"
        result.stream.save(stream_path)
        paths.append(stream_path)
    return paths


def _cmd_tomo(args) -> list[Path]:
    config = load_config(args.config, args.seed)
    result = run_tomography_experiment(config, subtract_bg=args.subtract_bg)
    paths = write_tomography(result, args.out)
    if args.timebin_histogram:
        hist = run_mzi_histogram(config)
        hist_path = Path(args.out) / "timebin_histogram.csv"
        hist.save(hist_path)
        paths.append(hist_path)
    return paths


def _cmd_analyze(args) -> list[Path]:
    if bool(args.stream) == bool(args.counts):
        raise ConfigError("analyze needs exactly one of --stream or --counts")
    mode, other = (("--stream", {"--bg-rate": args.bg_rate}) if args.stream else
                   ("--counts", {"--window": args.window, "--bin-width": args.bin_width}))
    for flag, value in other.items():
        if value is not None:
            raise ConfigError(f"analyze {mode} takes no {flag}")
    # --out is made once every flag and input has passed, so a refused one leaves no directory
    outdir = Path(args.out)
    if args.stream:
        bin_width = _flag_value("--bin-width", "50ps" if args.bin_width is None
                                else args.bin_width, "s")
        window = CoincidenceWindow(_flag_value("--window", "1ns" if args.window is None
                                               else args.window, "s"))
        try:
            result = analyze_g2(first_clicks(EventStream.load(args.stream)), window, bin_width)
        except KeyError as exc:
            raise ConfigError(f"stream header lacks {exc}") from exc
        except (OSError, ValueError) as exc:
            # a stream whose delays overflow the histogram is bad input too
            raise ConfigError(f"cannot analyze stream file: {exc}") from exc
        outdir.mkdir(parents=True, exist_ok=True)
        hist_path = outdir / "histogram.csv"
        result.histogram.save(hist_path)
        summary_path = outdir / "count_summary.txt"
        write_pairs(summary_path, g2_report(result))
        return [hist_path, summary_path]

    bg_rate = (None if args.bg_rate is None
               else _flag_value("--bg-rate", args.bg_rate, "Hz", ">= 0"))
    try:
        settings, counts, durations = load_records(args.counts)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read count records: {exc}") from exc
    with np.errstate(over="ignore"):  # a floor beyond float is inf, and exceeds every count
        floor = None if bg_rate is None else bg_rate * durations
    result = reconstruct(settings, counts, durations, floor)
    outdir.mkdir(parents=True, exist_ok=True)
    report_path = outdir / "tomography.json"
    save_report(tomography_report(result), report_path)
    return [report_path]


_COMMANDS = {
    "sweep": _cmd_sweep,
    "g2": _cmd_g2,
    "tomo": _cmd_tomo,
    "analyze": _cmd_analyze,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        paths = _COMMANDS[args.command](args)
    except (ConfigError, IncompleteSettingsError, MemoryError) as exc:
        # so are a count file whose settings cannot determine a state and a run beyond memory
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"system failure: {exc}", file=sys.stderr)
        return 1
    print(*paths, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
