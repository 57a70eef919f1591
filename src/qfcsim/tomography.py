"""Two-qubit state tomography from waveplate-projected coincidence counts.

Each arm carries a quarter-wave plate, a half-wave plate, and a horizontal
polarizer, so a setting projects onto a separable state determined by the
four plate angles.  The standard schedule measures H, V, D, R on each arm
(16 settings).  Reconstruction is maximum likelihood by accelerated
projected gradient with adaptive restart (Shang, Zhang, Ng and Ng, PRA 95,
062336 (2017)), projecting onto the density matrices through their spectra
(Smolin, Gambetta and Smith, PRL 108, 070502 (2012)).  Because those 16
projectors do not sum to a multiple of the identity, the fit runs in a
transformed frame where they do form a proper measurement, then maps back;
there the outcome probabilities of every state sum to 1.
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
        if not np.isfinite([self.qwp_a, self.hwp_a, self.qwp_b, self.hwp_b]).all():
            raise ValueError("setting angles must be finite")
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
        if not (math.isfinite(self.duration_s) and self.duration_s > 0.0):
            raise ValueError(f"duration must be finite and > 0, got {self.duration_s}")


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


class IncompleteSettingsError(ValueError):
    """The measurement settings do not determine a two-qubit state."""


#: A fit stops once a step changes the cost (negative log-likelihood per
#: count) by at most COST_TOL and no entry of the state by more than STATE_TOL.
COST_TOL = 1e-12
STATE_TOL = 1e-11
#: step halvings allowed per iteration before a row stops unconverged
_MAX_HALVINGS = 60


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


def _project_to_states(stack: np.ndarray) -> np.ndarray:
    """Nearest density matrices in Frobenius norm to a ``(R, d, d)`` stack of
    Hermitian matrices: each keeps its eigenvectors, and its spectrum is
    projected onto the probability simplex (Smolin, Gambetta and Smith,
    PRL 108, 070502 (2012))."""
    eigval, eigvec = np.linalg.eigh(stack)
    desc = eigval[:, ::-1]
    excess = np.cumsum(desc, axis=1) - 1.0
    kept = (desc * np.arange(1, desc.shape[1] + 1) > excess).sum(axis=1)
    shift = excess[np.arange(len(kept)), kept - 1] / kept
    weights = np.maximum(eigval - shift[:, None], 0.0)
    return (eigvec * weights[:, None, :]) @ _dagger(eigvec)


def mle_reconstruct(settings: list[MeasurementSetting], counts,
                    max_iter: int = 100_000) -> MleResult:
    """Maximum-likelihood state of one count set (counts may be unrounded
    expected values): the one-row call of :func:`mle_reconstruct_batch`."""
    if np.ndim(counts) != 1:
        raise ValueError("counts and settings lengths differ")
    return mle_reconstruct_batch(settings, [counts], max_iter=max_iter)[0]


def mle_reconstruct_batch(settings: list[MeasurementSetting], counts,
                          max_iter: int = 100_000) -> list[MleResult]:
    """Maximum-likelihood states of the count rows ``counts`` (shape
    ``(R, n)``), one result per row in row order.

    The fit runs in the frame where the projectors sum to the identity, so
    the states to search are {sigma >= 0, Tr sigma = 1} and the outcome
    probabilities sum to 1.  It minimizes the cost -sum f_i log p_i (f the
    row's frequencies) by accelerated projected gradient with adaptive
    restart (Shang, Zhang, Ng and Ng, PRA 95, 062336 (2017)).  Each row has
    its own step length, which starts at 1 and is halved until the
    quadratic upper bound of the cost holds at the projected step; a row
    whose bound still fails after ``_MAX_HALVINGS`` halvings stops
    unconverged.  Iteration stops once a step changes the cost by at most
    ``COST_TOL`` and the state by at most ``STATE_TOL``.  All rows iterate
    as one ``(R, d, d)`` stack, and a row leaves the stack as soon as it
    stops.  Only stacked matrix products, elementwise operations and
    reductions over a row's own axes touch the data, so each row's result
    is the one it would get alone.
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

    def probabilities(states):
        flat = states.reshape(len(states), 1, dim * dim)
        return (flat @ povm_dual)[:, 0].real

    def cost(probs, freqs):
        # an observed outcome at p <= 0 costs +inf; unobserved ones cost 0
        with np.errstate(divide="ignore"):
            logs = np.log(np.where(freqs > 0.0, np.maximum(probs, 0.0), 1.0))
        return -(freqs * logs).sum(axis=-1)

    def inner(a, b):
        return (a.conj() * b).real.reshape(len(a), -1).sum(axis=1)

    results: list[MleResult | None] = [None] * len(counts)
    rows = np.arange(len(counts))
    freqs = counts / totals[:, None]
    sigma = np.tile(np.eye(dim, dtype=complex) / dim, (len(rows), 1, 1))
    momentum = sigma.copy()
    sigma_cost = cost(probabilities(sigma), freqs)
    theta, step = np.ones(len(rows)), np.ones(len(rows))
    iterations = np.zeros(len(rows), dtype=int)

    def retire(done, converged):
        """Write out the rows flagged ``done`` and drop them from the stack."""
        nonlocal rows, freqs, sigma, momentum, sigma_cost, theta, step, iterations
        if not done.any():
            return
        rhos = g_inv_sqrt @ sigma[done] @ g_inv_sqrt
        rhos = 0.5 * (rhos + _dagger(rhos))
        rhos /= rhos.trace(axis1=1, axis2=2).real[:, None, None]
        for rho, k in zip(rhos, np.flatnonzero(done)):
            results[rows[k]] = MleResult(rho=rho, iterations=int(iterations[k]),
                                         converged=bool(converged[k]),
                                         log_likelihood=float(-sigma_cost[k]))
        keep = ~done
        rows, freqs, sigma, momentum, sigma_cost, theta, step, iterations = (
            a[keep] for a in (rows, freqs, sigma, momentum, sigma_cost, theta, step, iterations))

    retire(iterations >= max_iter, np.zeros(len(rows), dtype=bool))
    while rows.size:
        # A momentum point that gives an observed outcome p <= 0 has no
        # finite cost; such rows restart from their current iterate.
        probs = probabilities(momentum)
        lost = ((probs <= 0.0) & (freqs > 0.0)).any(axis=1)
        momentum[lost], theta[lost] = sigma[lost], 1.0
        probs[lost] = probabilities(sigma[lost])
        grad = -((freqs / np.where(freqs > 0.0, probs, 1.0))[:, None, :]
                 @ povm_rows).reshape(sigma.shape)
        momentum_cost = cost(probs, freqs)
        # The bound carries a rounding slack: near the optimum the cost is
        # flat to rounding, and a strict test would keep halving the step.
        slack = 1e-13 * np.maximum(1.0, np.abs(momentum_cost))
        new, new_cost = sigma.copy(), sigma_cost.copy()
        stalled = np.ones(len(rows), dtype=bool)
        for _ in range(_MAX_HALVINGS):
            todo = np.flatnonzero(stalled)
            cand = _project_to_states(momentum[todo] - step[todo, None, None] * grad[todo])
            cand_cost = cost(probabilities(cand), freqs[todo])
            move = cand - momentum[todo]
            ok = cand_cost <= (momentum_cost[todo] + inner(grad[todo], move)
                               + inner(move, move) / (2.0 * step[todo]) + slack[todo])
            new[todo[ok]], new_cost[todo[ok]] = cand[ok], cand_cost[ok]
            stalled[todo[ok]] = False
            if not stalled.any():
                break
            step[stalled] *= 0.5
        # Restart the momentum once it points against the gradient step.
        restart = inner(momentum - new, new - sigma) > 0.0
        theta[restart] = 1.0
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        momentum = new + ((theta - 1.0) / theta_next)[:, None, None] * (new - sigma)
        converged = ((np.abs(new_cost - sigma_cost) <= COST_TOL)
                     & (abs(new - sigma).max(axis=(1, 2)) <= STATE_TOL) & ~stalled)
        sigma, sigma_cost, theta = new, new_cost, theta_next
        iterations += 1
        retire(converged | stalled | (iterations >= max_iter), converged)
    return results


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
