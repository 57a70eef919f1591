"""The preset CLI artifacts against their recorded sha256 listing.

``golden_artifacts.sha256`` holds the ``sha256  path`` lines that
``tools/artifact_manifest.py`` prints for all seven presets, each at its
config seed, and the python and numpy versions they were made under.  A
change that moves a value updates the listing in the same commit.  numpy
does not promise the same Generator streams across versions (NEP 19), so a
mismatch names those versions beside the files that moved.
"""

import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LISTING = Path(__file__).with_name("golden_artifacts.sha256")
# ideal_g2 takes longer than the other six together; the tool still covers it
PRESETS = ("coherent_g2", "thermal_g2", "calibrated_g2",
           "ideal_tomo", "calibrated_tomo", "source_only_tomo")


def _hashes(lines):
    return {path: digest for digest, path in
            (line.split("  ", 1) for line in lines if line and not line.startswith("#"))}


def test_preset_artifacts_match_golden_listing():
    lines = LISTING.read_text(encoding="utf-8").splitlines()
    made_under = next(line for line in lines if line.startswith("# made under"))
    want = {path: digest for path, digest in _hashes(lines).items()
            if path.split("/", 1)[0] in PRESETS}
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "artifact_manifest.py"), out, *PRESETS],
            capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = _hashes(proc.stdout.splitlines())
    moved = sorted(path for path in want.keys() | got.keys() if want.get(path) != got.get(path))
    assert not moved, (
        f"{len(moved)} artifact(s) differ from {LISTING.name}: {', '.join(moved)}. "
        f"The listing was {made_under[2:]}; this run used python "
        f"{platform.python_version()}, numpy {np.__version__}.")


def test_analyze_stream_listing_equals_the_g2_run():
    # analyze --stream at its default 1 ns window and 50 ps bins writes the
    # report of the run that saved the stream; reads the listing, runs nothing
    hashes = _hashes(LISTING.read_text(encoding="utf-8").splitlines())
    presets = sorted({path.split("/", 1)[0] for path in hashes
                      if path.split("/", 1)[0].endswith("_g2")})
    assert presets == ["calibrated_g2", "coherent_g2", "ideal_g2", "thermal_g2"]
    for preset in presets:
        for analyzed, run in (("count_summary.txt", "g2_summary.txt"),
                              ("histogram.csv", "g2_histogram.csv")):
            assert hashes[f"{preset}/analyze_stream/{analyzed}"] == \
                hashes[f"{preset}/g2/{run}"], (preset, analyzed)
