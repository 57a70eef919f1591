"""Write the CLI artifact set of the presets and print one sha256 line per file.

Usage: python3 tools/artifact_manifest.py OUT [PRESET ...]

Runs each command of the set in a fresh interpreter on the ``src`` tree
next to this script, with the preset's file under ``src/qfcsim/presets/``
at that file's seed, and writes into ``OUT/<preset>/<step>/``.  For every
preset the set is ``sweep``; for a ``*_g2`` preset also ``g2
--save-stream`` and ``analyze --stream`` on its stream; for a ``*_tomo``
preset also ``tomo``, ``tomo --subtract-bg --timebin-histogram``, and
``analyze --counts`` on the raw counts without and with ``--bg-rate 0.2Hz``.
The seven preset files give 55 files.  The output is two ``#`` lines (the
file count, and the python and numpy versions with the core type of the
OpenBLAS that numpy loaded, which picks the kernels the tomography fit's
products run on), then ``sha256  path`` per
file, sorted by the path relative to OUT, so the manifests of two
checkouts compare with ``diff``.  With no PRESET, every preset file runs,
and the output is ``tests/golden_artifacts.sha256`` line for line.  Each
command's peak RSS goes to stderr as ``peak_rss_mb=X  <preset>/<step>``,
taken from the rusage ``os.wait4`` reports for that command.  No command
forks a worker, so that is the command's own peak.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
PRESET_DIR = ROOT / "src" / "qfcsim" / "presets"
# the files qfcsim.config.PRESETS is read from, listed without importing it
PRESETS = tuple(sorted(path.stem for path in PRESET_DIR.glob("*.cfg")))
NUMBERS = "zero one two three four five six seven eight nine ten".split()


def preset_commands(preset: str, out: Path) -> list[list[str]]:
    """CLI argument lists of one preset, in run order."""
    cfg = str(PRESET_DIR / f"{preset}.cfg")
    commands = [["sweep", "--config", cfg, "--out", str(out / "sweep")]]
    if preset.endswith("_g2"):
        commands += [
            ["g2", "--config", cfg, "--out", str(out / "g2"), "--save-stream"],
            ["analyze", "--stream", str(out / "g2" / "events.csv"),
             "--out", str(out / "analyze_stream")],
        ]
    else:
        counts = str(out / "tomo" / "tomo_counts.csv")
        commands += [
            ["tomo", "--config", cfg, "--out", str(out / "tomo")],
            ["tomo", "--config", cfg, "--out", str(out / "tomo_bg"),
             "--subtract-bg", "--timebin-histogram"],
            ["analyze", "--counts", counts, "--out", str(out / "analyze_counts")],
            ["analyze", "--counts", counts, "--out", str(out / "analyze_counts_bg"),
             "--bg-rate", "0.2Hz"],
        ]
    return commands


def run_command(args: list[str], env: dict) -> tuple[int, str, float]:
    """Run one CLI command; return its exit code, its stderr, and its peak RSS
    in MB, read from the rusage that ``os.wait4`` reports for that child."""
    proc = subprocess.Popen([sys.executable, "-m", "qfcsim.cli", *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    with proc.stderr:
        stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    # the child is reaped here, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stderr, usage.ru_maxrss / 1024.0


def blas_core() -> str:
    """Core type of the OpenBLAS in ``numpy.libs`` as numpy loaded it (an
    ``OPENBLAS_CORETYPE`` override included), or ``unknown`` where no such
    library or symbol is found."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    try:
        library = ctypes.CDLL(str(next(libs.glob("libscipy_openblas*"))))
        corename = library.scipy_openblas_get_corename64_
    except (StopIteration, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    if not argv or argv[0].startswith("-"):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out, presets = Path(argv[0]).resolve(), argv[1:] or list(PRESETS)
    unknown = sorted(set(presets) - set(PRESETS))
    if unknown:
        print(f"unknown preset(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    for preset in presets:
        for args in preset_commands(preset, out / preset):
            code, stderr, peak_mb = run_command(args, env)
            if code != 0:
                print(f"exit {code}: {' '.join(args)}\n{stderr}", file=sys.stderr)
                return 1
            step = Path(args[args.index("--out") + 1]).name
            print(f"peak_rss_mb={peak_mb:.1f}  {preset}/{step}", file=sys.stderr)
    files = sorted(p for p in out.rglob("*") if p.is_file())
    count = NUMBERS[len(PRESETS)] if len(PRESETS) < len(NUMBERS) else len(PRESETS)
    scope = (f"all {count} presets" if set(presets) == set(PRESETS)
             else f"the presets {', '.join(presets)}")
    print(f"# sha256  path of the {len(files)} files that tools/artifact_manifest.py "
          f"writes for {scope}")
    print(f"# made under python {platform.python_version()}, numpy {numpy.__version__}, "
          f"OpenBLAS core {blas_core()}")
    for path in files:
        print(f"{sha256(path)}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
