"""Two-qubit state tomography from waveplate-projected coincidence counts.

Each arm carries a quarter-wave plate, a half-wave plate, and a horizontal
polarizer, so a setting projects onto a separable state determined by the
four plate angles.  The standard schedule measures H, V, D, R on each arm
(16 settings).  Reconstruction is iterative maximum likelihood.  Because
those 16 projectors do not sum to a multiple of the identity, the iteration
runs in a transformed frame where they do form a proper measurement, then
maps back; this keeps the true state a fixed point of the update.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .qubits import (KET_H, check_density_matrix, half_wave_plate,
                     quarter_wave_plate)

#: per-arm analysis schedule as (label, qwp, hwp) angles in radians
ARM_SCHEDULE = (
    ("H", 0.0, 0.0),
    ("V", 0.0, math.pi / 4.0),
    ("D", math.pi / 4.0, math.pi / 8.0),
    ("R", 0.0, math.pi / 8.0),
)


def analysis_ket(qwp_angle: float, hwp_angle: float) -> np.ndarray:
    """Polarization state transmitted into the detector for given plate angles.

    The photon crosses the quarter-wave plate, then the half-wave plate,
    then a polarizer passing |H>; the projected state is the preimage of
    |H> under the plate unitaries.
    """
    plates = half_wave_plate(hwp_angle) @ quarter_wave_plate(qwp_angle)
    return plates.conj().T @ KET_H


@dataclass(frozen=True)
class MeasurementSetting:
    """One projective two-arm setting; angles in radians."""

    qwp_a: float
    hwp_a: float
    qwp_b: float
    hwp_b: float
    label: str = ""
    projector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ket = np.kron(analysis_ket(self.qwp_a, self.hwp_a),
                      analysis_ket(self.qwp_b, self.hwp_b))
        proj = np.outer(ket, ket.conj())
        object.__setattr__(self, "projector", proj)


def standard_settings() -> list[MeasurementSetting]:
    """The 16 settings of the H/V/D/R-per-arm schedule, A-arm outermost."""
    settings = []
    for la, qa, ha in ARM_SCHEDULE:
        for lb, qb, hb in ARM_SCHEDULE:
            settings.append(MeasurementSetting(qa, ha, qb, hb, label=la + lb))
    return settings


@dataclass(frozen=True)
class CountRecord:
    """Observed counts for one setting over one accumulation duration."""

    setting: MeasurementSetting
    count: int
    duration_s: float

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if self.duration_s <= 0.0:
            raise ValueError("duration must be > 0")


def simulate_counts(rho: np.ndarray, settings: list[MeasurementSetting],
                    n_per_setting: float, bg_rate: float, duration_s: float,
                    rng: np.random.Generator) -> list[CountRecord]:
    """Poisson counts with mean n Tr[Pi rho] + bg_rate * duration per setting."""
    rho = check_density_matrix(rho, dim=4)
    if n_per_setting <= 0.0:
        raise ValueError("n_per_setting must be > 0")
    if bg_rate < 0.0:
        raise ValueError("bg_rate must be >= 0")
    if duration_s <= 0.0:
        raise ValueError("duration must be > 0")
    records = []
    for setting in settings:
        mean = n_per_setting * float(np.real(np.trace(setting.projector @ rho)))
        mean = max(mean, 0.0) + bg_rate * duration_s
        records.append(CountRecord(setting, int(rng.poisson(mean)), duration_s))
    return records


def subtract_background(records: list[CountRecord], bg_rate: float) -> list[CountRecord]:
    """Remove a flat accidental floor: count -> max(0, count - round(rate * t))."""
    if bg_rate < 0.0:
        raise ValueError("bg_rate must be >= 0")
    out = []
    for rec in records:
        floor = int(round(bg_rate * rec.duration_s))
        out.append(CountRecord(rec.setting, max(0, rec.count - floor), rec.duration_s))
    return out


@dataclass(frozen=True)
class MleResult:
    rho: np.ndarray
    iterations: int
    converged: bool
    log_likelihood: float
    min_step_gain: float


def _projector_stack(settings: list[MeasurementSetting]) -> np.ndarray:
    stack = np.stack([s.projector for s in settings])
    flat = stack.reshape(len(settings), -1)
    if np.linalg.matrix_rank(flat, tol=1e-10) < stack.shape[1] ** 2:
        raise ValueError("settings are not informationally complete")
    return stack


def _inv_sqrt(matrix: np.ndarray) -> np.ndarray:
    eigval, eigvec = np.linalg.eigh(matrix)
    if eigval.min() <= 0.0:
        raise ValueError("projector sum is singular")
    return (eigvec / np.sqrt(eigval)) @ eigvec.conj().T


def mle_reconstruct(records: list[CountRecord] | None = None,
                    settings: list[MeasurementSetting] | None = None,
                    counts=None, tol: float = 1e-12, state_tol: float = 1e-11,
                    max_iter: int = 100_000) -> MleResult:
    """Iterative maximum-likelihood state reconstruction.

    Accepts either a list of count records or parallel ``settings`` and
    ``counts`` (counts may be unrounded expected values).  The multiplicative
    update runs in the frame where the projectors sum to the identity, which
    makes each step a proper expectation-maximization move; if a step ever
    fails to raise the log-likelihood it is damped toward the identity until
    it does, so the likelihood is nondecreasing throughout.  Iteration stops
    once the per-step likelihood gain falls to ``tol`` (absolute, with
    frequencies summing to 1) and the state moves by less than ``state_tol``
    per step; near the optimum the likelihood flattens out quadratically,
    so the state-change condition is what sets the final precision.
    """
    if records is not None:
        if settings is not None or counts is not None:
            raise ValueError("pass either records or settings+counts, not both")
        settings = [r.setting for r in records]
        counts = [r.count for r in records]
    if settings is None or counts is None:
        raise ValueError("need settings and counts")
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1 or len(counts) != len(settings):
        raise ValueError("counts and settings lengths differ")
    if np.any(counts < 0.0):
        raise ValueError("counts must be >= 0")
    total = counts.sum()
    if total <= 0.0:
        raise ValueError("all counts are zero")

    freqs = counts / total
    projectors = _projector_stack(settings)
    dim = projectors.shape[1]
    g_inv_sqrt = _inv_sqrt(projectors.sum(axis=0))
    povm = np.einsum("ab,ibc,cd->iad", g_inv_sqrt, projectors, g_inv_sqrt)
    povm = 0.5 * (povm + np.conj(np.transpose(povm, (0, 2, 1))))

    active = freqs > 0.0
    f_active = freqs[active]

    def log_likelihood(probs: np.ndarray) -> float:
        return float(np.sum(f_active * np.log(probs[active])))

    def probabilities(state: np.ndarray) -> np.ndarray:
        return np.clip(np.real(np.einsum("iab,ba->i", povm, state)), 1e-300, None)

    eye = np.eye(dim, dtype=complex)
    slack = 1e-13

    def em_step(state, state_probs, state_ll):
        # Likelihood comparisons carry a one-ulp slack: near the optimum the
        # surface is flat to rounding and a strict test would reject steps
        # that still move the state toward the fixed point.
        floor = state_ll - slack * max(1.0, abs(state_ll))
        update = np.einsum("i,iab->ab", freqs / state_probs, povm)
        candidate = update @ state @ update
        candidate = 0.5 * (candidate + candidate.conj().T)
        candidate /= np.real(np.trace(candidate))
        cand_probs = probabilities(candidate)
        cand_ll = log_likelihood(cand_probs)
        if cand_ll < floor:
            # Damp toward the identity until the step stops losing likelihood.
            eps = 0.5
            for _ in range(60):
                damped = eye + eps * (update - eye)
                candidate = damped @ state @ damped.conj().T
                candidate = 0.5 * (candidate + candidate.conj().T)
                candidate /= np.real(np.trace(candidate))
                cand_probs = probabilities(candidate)
                cand_ll = log_likelihood(cand_probs)
                if cand_ll >= floor:
                    break
                eps *= 0.5
            else:
                return state, state_probs, state_ll
        return candidate, cand_probs, cand_ll

    def project(state):
        state = 0.5 * (state + state.conj().T)
        eigval, eigvec = np.linalg.eigh(state)
        eigval = np.clip(eigval, 0.0, None)
        total = eigval.sum()
        if total <= 0.0:
            return None
        return (eigvec * (eigval / total)) @ eigvec.conj().T

    sigma = eye / dim
    probs = probabilities(sigma)
    ll = log_likelihood(probs)

    iterations = 0
    converged = False
    min_gain = math.inf

    def record(prev_ll, new_ll):
        nonlocal iterations, min_gain
        iterations += 1
        gain = new_ll - prev_ll
        min_gain = min(min_gain, gain)
        if not gain >= -slack * max(1.0, abs(new_ll)):
            raise RuntimeError("likelihood decreased")
        return gain

    span = 1
    while iterations < max_iter and not converged:
        # One extrapolation cycle: two blocks of ``span`` plain updates, then
        # a squared secant jump through the three block endpoints.  Small
        # state eigenvalues make the plain update contract arbitrarily
        # slowly; spacing the snapshots keeps the secant direction above
        # float noise, and doubling the spacing sharpens it as the iterate
        # closes in.
        snapshots = [sigma]
        for _ in range(2):
            for _ in range(span):
                s_next, p_next, l_next = em_step(sigma, probs, ll)
                gain = record(ll, l_next)
                step = float(np.max(np.abs(s_next - sigma)))
                sigma, probs, ll = s_next, p_next, l_next
                if gain <= tol and step <= state_tol:
                    converged = True
                    break
                if iterations >= max_iter:
                    break
            snapshots.append(sigma)
            if converged or iterations >= max_iter:
                break
        if converged or iterations >= max_iter or len(snapshots) < 3:
            break
        s0, s1, s2 = snapshots
        delta = s1 - s0
        curv = (s2 - s1) - delta
        denom = float(np.linalg.norm(curv))
        if denom > 0.0:
            alpha = -float(np.linalg.norm(delta)) / denom
            for factor in (1.0, 0.5, 0.25):
                a = alpha * factor
                if a >= -1.0:
                    break
                cand = project(s0 - 2.0 * a * delta + a * a * curv)
                if cand is None:
                    continue
                cand_probs = probabilities(cand)
                cand_ll = log_likelihood(cand_probs)
                if cand_ll >= ll - slack * max(1.0, abs(ll)):
                    record(ll, cand_ll)
                    sigma, probs, ll = cand, cand_probs, cand_ll
                    break
        span = min(span * 2, 512)

    rho = g_inv_sqrt @ sigma @ g_inv_sqrt
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.real(np.trace(rho))
    return MleResult(rho=rho, iterations=iterations, converged=converged,
                     log_likelihood=ll, min_step_gain=min_gain)


# ---------------------------------------------------------------------------
# Count-record files: one line per setting,
# qwp_a_deg,hwp_a_deg,qwp_b_deg,hwp_b_deg,count,duration_s
# ---------------------------------------------------------------------------

RECORD_HEADER = "qwp_a_deg,hwp_a_deg,qwp_b_deg,hwp_b_deg,count,duration_s"


def save_records(records: list[CountRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(RECORD_HEADER + "\n")
        for rec in records:
            s = rec.setting
            fh.write(f"{math.degrees(s.qwp_a)!r},{math.degrees(s.hwp_a)!r},"
                     f"{math.degrees(s.qwp_b)!r},{math.degrees(s.hwp_b)!r},"
                     f"{rec.count},{rec.duration_s!r}\n")


def load_records(path) -> list[CountRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line == RECORD_HEADER:
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise ValueError(f"line {lineno}: expected 6 fields, got {len(parts)}")
            qa, ha, qb, hb, count, duration = parts
            setting = MeasurementSetting(
                math.radians(float(qa)), math.radians(float(ha)),
                math.radians(float(qb)), math.radians(float(hb)))
            records.append(CountRecord(setting, int(count), float(duration)))
    return records


def density_matrix_to_json(rho: np.ndarray) -> list[list[list[float]]]:
    """Row-major nesting of [re, im] pairs for report files."""
    return [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in rho]


def density_matrix_from_json(data) -> np.ndarray:
    rho = np.array([[complex(re, im) for re, im in row] for row in data])
    return check_density_matrix(rho)


def save_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
