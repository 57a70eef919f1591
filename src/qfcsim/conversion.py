"""Pump-side models of the frequency-conversion interface.

For a fixed classical pump, sum/difference-frequency mixing couples the
signal mode and the converted mode exactly like a beamsplitter: a photon
stays in its band with probability cos^2(theta) and hops to the other band
with probability sin^2(theta), where theta = sqrt(coeff * P) grows with the
pump power P.  The pipeline applies that physics in closed form, as the
pump-power efficiency law here and as the chain efficiency with which
each photon survives in ``sources``: a factor of the correlation run's
closed-form click law, and one draw per herald in the time-bin run; the
tests check the law against the exponentiated mixing generator.

This module carries that law, its curve fit, and pump phase diffusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def conversion_efficiency(pump_power_w, peak: float, coeff: float) -> float | np.ndarray:
    """External conversion efficiency peak * sin^2(sqrt(coeff * P)) at pump
    power P in W (a float for one power, an array for an array): the mixing
    unitary at theta = sqrt(coeff * P) sends |1, 0> to |0, 1> with
    probability sin^2(theta), and ``peak`` scales it to the external value.
    """
    if not 0.0 <= peak <= 1.0:
        raise ValueError(f"peak efficiency must lie in [0, 1], got {peak}")
    if not (math.isfinite(coeff) and coeff > 0.0):
        raise ValueError(f"coeff must be positive and finite, got {coeff}")
    powers = np.asarray(pump_power_w, dtype=float)
    bad = powers[~(np.isfinite(powers) & (powers >= 0.0))]
    if bad.size:
        raise ValueError(f"pump power must be finite and >= 0, got {bad[0]}")
    transfer = np.sin(np.sqrt(coeff * powers))
    effs = peak * (transfer * transfer)
    return float(effs) if effs.ndim == 0 else effs


@dataclass(frozen=True)
class EfficiencyFit:
    """Result of fitting the pump-power law to sampled (power, efficiency) data.

    ``residual`` is the sum of squared residuals at the optimum.  When every
    sampled efficiency is zero the curvature coefficient drops out of the
    model, so ``coeff`` is NaN and ``coeff_identifiable`` is False.
    ``converged`` is False when the Gauss-Newton polish ran out of steps.
    """

    peak: float
    coeff: float
    residual: float
    coeff_identifiable: bool = True
    converged: bool = True

    @property
    def peak_power_w(self) -> float:
        """Pump power of the fitted law's first maximum, (pi/2)^2 / coeff;
        NaN when coeff is not identifiable."""
        return (math.pi / 2.0) ** 2 / self.coeff


def fit_efficiency_curve(samples) -> EfficiencyFit:
    """Least-squares fit of peak * sin^2(sqrt(coeff * P)) to (P, eta) samples.

    The model is linear in peak, so every coeff has a closed-form best peak
    (clipped to [0, 2]), which leaves a profile loss in coeff alone
    (variable projection).  That loss is multimodal, so it is scanned on a
    log grid over 0.05-20x the quarter-period guess, and the best grid point
    is polished by Gauss-Newton steps in (peak, coeff).  Powers are
    interpreted in the unit the caller fitted in; the returned coeff is the
    inverse of that unit.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or not np.isfinite(arr).all():
        raise ValueError("samples must be finite pairs of (power, efficiency)")
    powers, effs = arr[:, 0], arr[:, 1]
    if np.any(powers < 0.0):
        raise ValueError("powers must be >= 0")
    if len(np.unique(powers)) < 3:
        raise ValueError("need at least three distinct powers to fit")

    if np.max(np.abs(effs)) < 1e-14:
        return EfficiencyFit(0.0, math.nan, 0.0, coeff_identifiable=False)

    # Starting guess: the argmax of the data sits near the quarter period.
    p_top = powers[int(np.argmax(effs))]
    coeff_guess = (math.pi / 2.0) ** 2 / p_top if p_top > 0 else 1.0
    grid = coeff_guess * np.geomspace(0.05, 20.0, 401)
    shapes = np.sin(np.sqrt(np.outer(grid, powers))) ** 2
    peaks = np.clip(shapes @ effs / np.sum(shapes ** 2, axis=1), 0.0, 2.0)
    losses = np.sum((peaks[:, None] * shapes - effs) ** 2, axis=1)
    best = int(np.argmin(losses))
    peak, coeff, loss = float(peaks[best]), float(grid[best]), float(losses[best])

    for _ in range(100):
        root = np.sqrt(coeff * powers)
        shape = np.sin(root) ** 2
        resid = peak * shape - effs
        # d(resid)/d(peak) and d(resid)/d(coeff)
        jac = np.column_stack([shape, peak * powers * np.sinc(2.0 * root / math.pi)])
        step = np.linalg.lstsq(jac, -resid, rcond=None)[0]
        if not 0.0 <= peak + step[0] <= 2.0:
            # the peak is held at its bound: move coeff alone
            step = np.r_[0.0, np.linalg.lstsq(jac[:, 1:], -resid, rcond=None)[0]]
        trial_peak, trial_coeff = float(peak + step[0]), max(float(coeff + step[1]), 1e-12)
        trial_loss = float(np.sum((trial_peak * np.sin(np.sqrt(trial_coeff * powers)) ** 2
                                   - effs) ** 2))
        if not trial_loss < loss:
            return EfficiencyFit(peak, coeff, loss)
        peak, coeff, loss = trial_peak, trial_coeff, trial_loss
    return EfficiencyFit(peak, coeff, loss, converged=False)


def pump_dephasing_factor(linewidth_hz: float, delay_s: float) -> float:
    """Coherence multiplier exp(-2 pi linewidth delay) between paths that a
    pump of the given linewidth (Hz) reaches ``delay_s`` seconds apart.

    Equals 1 for a monochromatic pump and 1/e when the delay matches the
    pump coherence time 1/(2 pi linewidth).
    """
    return math.exp(-TWO_PI * linewidth_hz * delay_s)
