"""Measure heralded g2(0) for the converted photon and two classical stand-ins.

A heralded single photon should never produce a same-pulse coincidence
behind the splitter, Poissonian light sits at g2 = 1, and single-mode
thermal light bunches toward 2.  The calibrated device run lands at 0.17:
clearly nonclassical, but lifted off zero by pump-induced noise photons.

Each run is a full Monte Carlo click stream; pass --pulses to trade
accuracy against runtime.
"""

import argparse
import time

from qfcsim.config import PRESETS
from qfcsim.experiments import run_g2_experiment
from qfcsim.sources import expected_hbt_rates


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pulses", type=int, default=None,
                    help="override the pulse count of every preset")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()

    presets = [
        ("heralded single photon", "ideal_g2"),
        ("coherent (Poissonian)", "coherent_g2"),
        ("single-mode thermal", "thermal_g2"),
        ("calibrated device", "calibrated_g2"),
    ]
    print("source                    g2(0)      +-       analytic   pulses    time")
    for label, name in presets:
        cfg = PRESETS[name](seed=args.seed)
        if args.pulses is not None:
            cfg.n_pulses = args.pulses
        t0 = time.time()
        result = run_g2_experiment(cfg)
        dt = time.time() - t0
        oracle = expected_hbt_rates(cfg).g2
        print(f"{label:<24}  {result.value:8.4f}  {result.std_error:7.4f}  "
              f"{oracle:9.4f}  {cfg.n_pulses:>8}  {dt:5.1f}s")

    # sidebands of the calibrated run (the last) show the accidental level is flat
    print()
    print("calibrated run, g2 at neighbouring pulse offsets "
          "(uncorrelated level):")
    for offset in sorted(result.sidebands):
        print(f"  offset {offset:+d}: {result.sidebands[offset]:.4f}")


if __name__ == "__main__":
    main()
