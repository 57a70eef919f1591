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

from .artifacts import read_table, write_table
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


class IncompleteSettingsError(ValueError):
    """The measurement settings do not determine a two-qubit state."""


def _projector_stack(settings: list[MeasurementSetting]) -> np.ndarray:
    if not settings:
        raise IncompleteSettingsError("no measurement settings")
    stack = np.stack([s.projector for s in settings])
    flat = stack.reshape(len(settings), -1)
    if np.linalg.matrix_rank(flat, tol=1e-10) < stack.shape[1] ** 2:
        raise IncompleteSettingsError("settings are not informationally complete")
    return stack


def _inv_sqrt(matrix: np.ndarray) -> np.ndarray:
    eigval, eigvec = np.linalg.eigh(matrix)
    if eigval.min() <= 0.0:
        raise ValueError("projector sum is singular")
    return (eigvec / np.sqrt(eigval)) @ eigvec.conj().T


def _dagger(matrix: np.ndarray) -> np.ndarray:
    return matrix.conj().swapaxes(-1, -2)


def mle_reconstruct(records: list[CountRecord] | None = None,
                    settings: list[MeasurementSetting] | None = None,
                    counts=None, tol: float = 1e-12, state_tol: float = 1e-11,
                    max_iter: int = 100_000) -> MleResult:
    """Maximum-likelihood state of one count set: the one-row call of
    :func:`mle_reconstruct_batch`.  Accepts either a list of count records or
    parallel ``settings`` and ``counts`` (counts may be unrounded expected
    values)."""
    if records is not None:
        if settings is not None or counts is not None:
            raise ValueError("pass either records or settings+counts, not both")
        settings, counts = [r.setting for r in records], [r.count for r in records]
    if settings is None or counts is None:
        raise ValueError("need settings and counts")
    if np.ndim(counts) != 1:
        raise ValueError("counts and settings lengths differ")
    return mle_reconstruct_batch(settings, [counts], tol=tol, state_tol=state_tol,
                                 max_iter=max_iter)[0]


def mle_reconstruct_batch(settings: list[MeasurementSetting], counts,
                          tol: float = 1e-12, state_tol: float = 1e-11,
                          max_iter: int = 100_000) -> list[MleResult]:
    """Iterative maximum-likelihood states of the count rows ``counts``
    (shape ``(R, n)``), one result per row in row order.

    The multiplicative update runs in the frame where the projectors sum to
    the identity, which makes each step a proper expectation-maximization
    move; if a step ever fails to raise the log-likelihood it is damped
    toward the identity until it does, so the likelihood is nondecreasing
    throughout.  Iteration stops once the per-step likelihood gain falls to
    ``tol`` (absolute, with frequencies summing to 1) and the state moves by
    less than ``state_tol`` per step; near the optimum the likelihood
    flattens out quadratically, so the state-change condition is what sets
    the final precision.  All rows iterate as one ``(R, d, d)`` stack on a
    data-independent extrapolation schedule, and a row leaves the stack as
    soon as it stops.  Only stacked matrix products, elementwise operations
    and reductions over a row's own axes touch the data, so each row's
    result is the one it would get alone.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or counts.shape[1] != len(settings):
        raise ValueError("counts and settings lengths differ")
    projectors = _projector_stack(settings)
    if np.any(counts < 0.0):
        raise ValueError("counts must be >= 0")
    totals = counts.sum(axis=1)
    if np.any(totals <= 0.0):
        raise ValueError("all counts are zero")

    dim = projectors.shape[1]
    g_inv_sqrt = _inv_sqrt(projectors.sum(axis=0))
    povm = np.einsum("ab,ibc,cd->iad", g_inv_sqrt, projectors, g_inv_sqrt)
    povm = 0.5 * (povm + _dagger(povm))
    # Row i of ``povm_rows`` is element i flattened; since each element is
    # Hermitian, Tr[E_i s] is the flattened state dotted with its conjugate.
    povm_rows = povm.reshape(len(settings), dim * dim)
    povm_dual = np.ascontiguousarray(povm_rows.conj().T)

    def log_likelihood(probs, freqs):
        # zero frequencies contribute 0 * log(>= 1e-300) = 0
        return (freqs * np.log(probs)).sum(axis=-1)

    def probabilities(states):
        flat = states.reshape(len(states), 1, dim * dim)
        return np.maximum((flat @ povm_dual)[:, 0].real, 1e-300)

    def normalized(states):
        states = 0.5 * (states + _dagger(states))
        return states / states.trace(axis1=1, axis2=2).real[:, None, None]

    eye = np.eye(dim, dtype=complex)
    slack = 1e-13

    def em_step(states, state_probs, state_ll, freqs):
        # Likelihood comparisons carry a one-ulp slack: near the optimum the
        # surface is flat to rounding and a strict test would reject steps
        # that still move the state toward the fixed point.
        floor = state_ll - slack * np.maximum(1.0, np.abs(state_ll))
        update = ((freqs / state_probs)[:, None, :] @ povm_rows).reshape(states.shape)
        cand = normalized(update @ states @ update)
        cand_probs = probabilities(cand)
        cand_ll = log_likelihood(cand_probs, freqs)
        lost = cand_ll < floor
        if lost.any():
            # Damp the rows that lost likelihood toward the identity until
            # they stop losing it; a row that never does keeps its state.
            todo, eps = np.flatnonzero(lost), 0.5
            for _ in range(60):
                damped = eye + eps * (update[todo] - eye)
                c = normalized(damped @ states[todo] @ _dagger(damped))
                p = probabilities(c)
                l = log_likelihood(p, freqs[todo])
                ok = l >= floor[todo]
                cand[todo[ok]], cand_probs[todo[ok]], cand_ll[todo[ok]] = c[ok], p[ok], l[ok]
                todo = todo[~ok]
                if not todo.size:
                    break
                eps *= 0.5
            cand[todo], cand_probs[todo], cand_ll[todo] = states[todo], state_probs[todo], state_ll[todo]
        return cand, cand_probs, cand_ll

    results: list[MleResult | None] = [None] * len(counts)
    rows = np.arange(len(counts))
    freqs = counts / totals[:, None]
    sigma = np.tile(eye / dim, (len(rows), 1, 1))
    probs = probabilities(sigma)
    ll = log_likelihood(probs, freqs)
    iterations = np.zeros(len(rows), dtype=int)
    min_gain = np.full(len(rows), math.inf)
    snapshots: list[np.ndarray] = []

    def record(idx, prev_ll, new_ll):
        iterations[idx] += 1
        gain = new_ll - prev_ll
        min_gain[idx] = np.minimum(min_gain[idx], gain)
        if not (gain >= -slack * np.maximum(1.0, np.abs(new_ll))).all():
            raise RuntimeError("likelihood decreased")
        return gain

    def retire(done, converged):
        """Write out the rows flagged ``done`` and drop them from the stack."""
        nonlocal rows, freqs, sigma, probs, ll, iterations, min_gain
        if not done.any():
            return
        rhos = normalized(g_inv_sqrt @ sigma[done] @ g_inv_sqrt)
        for rho, k in zip(rhos, np.flatnonzero(done)):
            results[rows[k]] = MleResult(
                rho=rho, iterations=int(iterations[k]), converged=bool(converged[k]),
                log_likelihood=float(ll[k]), min_step_gain=float(min_gain[k]))
        keep = ~done
        rows, freqs, sigma, probs, ll, iterations, min_gain = (
            a[keep] for a in (rows, freqs, sigma, probs, ll, iterations, min_gain))
        snapshots[:] = [s[keep] for s in snapshots]

    span = 1
    while True:
        retire(iterations >= max_iter, np.zeros(len(rows), dtype=bool))
        if not rows.size:
            return results
        # One extrapolation cycle: two blocks of ``span`` plain updates, then
        # a squared secant jump through the three block endpoints.  Small
        # state eigenvalues make the plain update contract arbitrarily
        # slowly; spacing the snapshots keeps the secant direction above
        # float noise, and doubling the spacing sharpens it as the iterate
        # closes in.
        snapshots[:] = [sigma]
        for _ in range(2):
            for _ in range(span):
                s_next, p_next, l_next = em_step(sigma, probs, ll, freqs)
                gain = record(slice(None), ll, l_next)
                step = abs(s_next - sigma).max(axis=(1, 2))
                sigma, probs, ll = s_next, p_next, l_next
                converged = (gain <= tol) & (step <= state_tol)
                retire(converged | (iterations >= max_iter), converged)
                if not rows.size:
                    return results
            snapshots.append(sigma)
        s0, s1, s2 = snapshots
        delta = s1 - s0
        curv = (s2 - s1) - delta
        denom = np.linalg.norm(curv, axis=(1, 2))
        alpha = -np.linalg.norm(delta, axis=(1, 2)) / np.where(denom > 0.0, denom, 1.0)
        pending = denom > 0.0
        for factor in (1.0, 0.5, 0.25):
            a = alpha * factor
            pending &= a < -1.0
            idx = np.flatnonzero(pending)
            if not idx.size:
                break
            a = a[idx, None, None]
            # Project the jump onto the density matrices: clip the spectrum
            # at zero and renormalize; an all-negative spectrum is invalid.
            jump = s0[idx] - 2.0 * a * delta[idx] + a * a * curv[idx]
            eigval, eigvec = np.linalg.eigh(0.5 * (jump + _dagger(jump)))
            eigval = np.clip(eigval, 0.0, None)
            total = eigval.sum(axis=-1)
            valid = total > 0.0
            weights = eigval / np.where(valid, total, 1.0)[:, None]
            cand = (eigvec * weights[:, None, :]) @ _dagger(eigvec)
            cand_probs = probabilities(cand)
            cand_ll = log_likelihood(cand_probs, freqs[idx])
            take = valid & (cand_ll >= ll[idx] - slack * np.maximum(1.0, np.abs(ll[idx])))
            idx, cand, cand_probs, cand_ll = idx[take], cand[take], cand_probs[take], cand_ll[take]
            record(idx, ll[idx], cand_ll)
            sigma[idx], probs[idx], ll[idx] = cand, cand_probs, cand_ll
            pending[idx] = False
        span = min(span * 2, 512)


# ---------------------------------------------------------------------------
# Count-record files: the RECORD_HEADER line, then one row per setting
# ---------------------------------------------------------------------------

_RECORD_DTYPE = np.dtype([("qwp_a_deg", np.float64), ("hwp_a_deg", np.float64),
                          ("qwp_b_deg", np.float64), ("hwp_b_deg", np.float64),
                          ("count", np.int64), ("duration_s", np.float64)])
RECORD_HEADER = ",".join(_RECORD_DTYPE.names)


def save_records(records: list[CountRecord], path) -> None:
    angles = [[math.degrees(getattr(r.setting, attr)) for r in records]
              for attr in ("qwp_a", "hwp_a", "qwp_b", "hwp_b")]
    counts = np.array([r.count for r in records], dtype=np.int64)
    write_table(path, RECORD_HEADER, (*angles, counts, [r.duration_s for r in records]))


def load_records(path) -> list[CountRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        columns = read_table(fh, _RECORD_DTYPE, skip=RECORD_HEADER)
    return [CountRecord(MeasurementSetting(*map(math.radians, angles)), count, duration)
            for *angles, count, duration in zip(*(col.tolist() for col in columns))]


def density_matrix_to_json(rho: np.ndarray) -> list[list[list[float]]]:
    """Row-major nesting of [re, im] pairs for report files."""
    return [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in rho]


def save_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
