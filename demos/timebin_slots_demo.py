"""Arrival-time structure of the decoded time-bin qubit.

Encoding sends each photon down a short or long path, decoding does the
same again, so photons arrive in three slots: early (short/short),
central (the two indistinguishable short/long orderings), and late
(long/long).  The central slot carries the interference and holds half
the events; post-selecting a 200 ps window around it keeps those while
paying the detector-jitter tails.
"""

import numpy as np

from qfcsim.config import ExperimentConfig
from qfcsim.experiments import run_mzi_histogram

cfg = ExperimentConfig(
    source_kind="single_photon",
    pump_power=(np.pi / 2.0) ** 2 / 3.6,   # drive at the efficiency peak
    eff_peak=1.0, extra_transmittance=1.0,
    noise_coeff=0.0, pump_linewidth=0.0,
    det1_efficiency=1.0, det1_dark=0.0,
    det2_efficiency=1.0, det2_dark=0.0,
    n_pulses=1_000_000, seed=7,
)

hist = run_mzi_histogram(cfg)
delay_ps = cfg.mzi_delay * 1e12

print(f"delay between bins: {delay_ps:.0f} ps, detector jitter "
      f"{cfg.jitter_sigma*1e12:.0f} ps rms, {cfg.n_pulses} pulses")
print()
print("slot      center     counts    fraction")
total = 0
areas = {}
for name, center in (("early", -delay_ps), ("central", 0.0), ("late", delay_ps)):
    sel = np.abs(hist.centers_ps - center) <= 450.0
    n = int(hist.counts[sel].sum())
    areas[name] = n
    total += n
for name, center in (("early", -delay_ps), ("central", 0.0), ("late", delay_ps)):
    print(f"{name:<8} {center:+7.0f} ps  {areas[name]:>8}    {areas[name]/total:.4f}")
print(f"(expect 1:2:1, i.e. fractions 0.25 / 0.50 / 0.25)")

kept = run_mzi_histogram(cfg, postselect=True)
print()
print(f"post-selecting the 200 ps window around the central slot:")
print(f"  kept {kept.mass} events, "
      f"{kept.mass / areas['central']:.3f} of the central slot")
outermost = float(np.max(np.abs(kept.centers_ps[kept.counts > 0])))
print(f"  outermost surviving bin center: {outermost:.0f} ps")
