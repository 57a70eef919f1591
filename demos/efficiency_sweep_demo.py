"""Walk the conversion efficiency curve and refit the power law.

The device converts with efficiency peak*sin^2(sqrt(coeff*P)), so driving
the pump past the first maximum actually reduces the converted signal.
This script tabulates the curve, marks the optimum, and shows that a
least-squares refit of the sampled table recovers the generating
parameters to machine-level accuracy.
"""

import math

import numpy as np

from qfcsim.config import ExperimentConfig
from qfcsim.conversion import (
    EfficiencyModel,
    conversion_efficiency,
    pump_dephasing_factor,
)
from qfcsim.experiments import run_efficiency_sweep

PEAK = 0.62
COEFF = 3.6  # per W

model = EfficiencyModel(peak=PEAK, coeff=COEFF)
print("external conversion efficiency vs pump power")
print(f"  model: eta(P) = {PEAK} * sin^2(sqrt({COEFF} * P/W))")
print()
print("   P [mW]    eta")
for p_mw in (0, 100, 200, 300, 400, 500, 600, 685, 700, 800, 1000):
    eta = conversion_efficiency(p_mw * 1e-3, model)
    print(f"  {p_mw:7.0f}  {eta:.4f}")

p_opt = model.peak_power_w
print()
print(f"first maximum at P = (pi/2)^2/{COEFF} = {p_opt*1e3:.1f} mW, "
      f"eta = {conversion_efficiency(p_opt, model):.4f}")
print(f"the 700 mW operating point sits just past it: "
      f"eta = {conversion_efficiency(0.7, model):.4f}")

sweep = run_efficiency_sweep(ExperimentConfig(pump_power=0.7))
fit = sweep.fit
print()
print(f"refit of the {len(sweep.powers_w)}-point table:")
print(f"  peak  = {fit.peak:.12f}   (true {PEAK})")
print(f"  coeff = {fit.coeff:.12f}  (true {COEFF} per W)")
print(f"  residual = {fit.residual:.3e}")

# a noisy refit for good measure
rng = np.random.default_rng(5)
noisy = [(p, max(0.0, conversion_efficiency(p, model) + rng.normal(0, 0.01)))
         for p in np.linspace(0.0, 1.1, 45)]
from qfcsim.conversion import fit_efficiency_curve
nfit = fit_efficiency_curve(noisy)
print(f"with 1% gaussian noise on 45 samples: peak = {nfit.peak:.4f}, "
      f"coeff = {nfit.coeff:.4f}")

print()
print("pump coherence carried through conversion:")
for delay_ns in (0.5, 1.0, 2.0):
    f = pump_dephasing_factor(150e3, delay_ns * 1e-9)
    print(f"  150 kHz linewidth, {delay_ns:.1f} ns path imbalance: "
          f"off-diagonal factor {f:.6f}")
tau = 1.0 / (2.0 * math.pi * 150e3)
print(f"  (1/e point would be at {tau*1e6:.2f} us, far beyond any "
      f"interferometer here)")
