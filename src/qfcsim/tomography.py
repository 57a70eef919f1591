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
there the outcome probabilities of every state sum to 1.  A fit starts from
the projected linear-inversion estimate or from I/d; a full-rank estimate
matches every frequency, so it is the optimum and the fit stops at once.
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


def simulate_counts(rho: np.ndarray, settings: list[MeasurementSetting],
                    n_per_setting: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson counts with mean n Tr[Pi rho], drawn in setting order."""
    rho = check_density_matrix(rho, dim=4)
    if n_per_setting <= 0.0:
        raise ValueError("n_per_setting must be > 0")
    means = [max(n_per_setting * float(np.real(np.trace(s.projector @ rho))), 0.0)
             for s in settings]
    return rng.poisson(means)


def subtract_background(counts, floor) -> np.ndarray:
    """Remove a flat accidental floor of ``floor`` counts (one value, or one per
    setting): count -> max(0, count - round(floor)), on each row of ``counts``
    when it holds one row per fit."""
    floor = np.asarray(floor, dtype=float)
    if not np.all(floor >= 0.0):
        raise ValueError("floor must be >= 0")
    # a floor beyond int64, inf included, exceeds every count and must not reach the cast
    fits = floor < 2.0**63
    kept = np.asarray(counts, dtype=np.int64) - np.where(fits, floor, 0.0).round().astype(np.int64)
    return np.where(fits, np.maximum(kept, 0), 0)


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
    restart (Shang, Zhang, Ng and Ng, PRA 95, 062336 (2017)).  Each row
    starts from its linear-inversion estimate projected onto the states.  On
    d^2 informationally complete settings, like the standard 16 (James,
    Kwiat, Munro and White, PRA 64, 052312 (2001)), that estimate matches
    every frequency; a full-rank one is the optimum, where the gradient -I
    only shifts the spectrum, which the projection undoes: the row converges
    on iteration 1.  A row starts from I/d instead when I/d gives every
    observed outcome a larger share p_i / f_i than the projected start gives
    its least-served one: p_i <= 0 costs infinity, and a p_i far below f_i
    forces a tiny first step.  Step lengths start at 1 and only shrink: they
    halve until the quadratic upper bound of the cost holds at the projected
    step, and a row whose bound still fails after ``_MAX_HALVINGS`` halvings
    stops unconverged.  Rows iterate as one ``(R, d, d)`` stack that each
    leaves once it stops; only the rows whose bound fails retry.  Only
    stacked matrix products, elementwise operations and reductions over a
    row's own axes touch the data, so each row gets the result it would get
    alone, as ``experiments.reconstruct`` needs for its row 0.
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
        # an observed outcome at p <= 0 costs +inf (log 0, under the errstate
        # that the iteration runs in); unobserved ones cost 0
        logs = np.log(np.where(freqs > 0.0, np.maximum(probs, 0.0), 1.0))
        return -(freqs * logs).sum(axis=-1)

    def inner(a, b):
        return (a.conj() * b).real.reshape(len(a), -1).sum(axis=1)

    def try_step(todo):
        """The projected steps of the rows ``todo`` (an index array or a
        slice), their costs, and whether each meets the quadratic bound."""
        start, slope, length = momentum[todo], grad[todo], step[todo]
        cand = _project_to_states(start - length[:, None, None] * slope)
        cand_cost = cost(probabilities(cand), freqs[todo])
        move = cand - start
        ok = cand_cost <= (momentum_cost[todo] + inner(slope, move)
                           + inner(move, move) / (2.0 * length) + slack[todo])
        return cand, cand_cost, ok

    results: list[MleResult | None] = [None] * len(counts)
    rows = np.arange(len(counts))
    freqs = counts / totals[:, None]
    linear = (freqs[:, None, :] @ np.linalg.pinv(povm_rows.conj()).T).reshape(-1, dim, dim)
    sigma = _project_to_states(0.5 * (linear + _dagger(linear)))
    observed = np.where(freqs > 0.0, freqs, np.nan)
    blind = (np.nanmin(probabilities(sigma) / observed, axis=1)
             < np.nanmin(povm.trace(axis1=1, axis2=2).real / dim / observed, axis=1))
    sigma[blind] = np.eye(dim) / dim
    momentum = sigma.copy()
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

    with np.errstate(divide="ignore"):
        sigma_cost = cost(probabilities(sigma), freqs)
        retire(iterations >= max_iter, np.zeros(len(rows), dtype=bool))
        while rows.size:
            # A momentum point that gives an observed outcome p <= 0 has no
            # finite cost; such rows restart from their current iterate.
            probs = probabilities(momentum)
            lost = ((probs <= 0.0) & (freqs > 0.0)).any(axis=1)
            if lost.any():
                momentum[lost], theta[lost] = sigma[lost], 1.0
                probs[lost] = probabilities(sigma[lost])
            grad = -((freqs / np.where(freqs > 0.0, probs, 1.0))[:, None, :]
                     @ povm_rows).reshape(sigma.shape)
            momentum_cost = cost(probs, freqs)
            # The bound carries a rounding slack: near the optimum the cost is
            # flat to rounding, and a strict test would keep halving the step.
            slack = 1e-13 * np.maximum(1.0, np.abs(momentum_cost))
            # Every row first tries its current step; only the rows whose
            # bound fails go on halving it, and a row whose bound never holds
            # keeps its iterate.
            new, new_cost, ok = try_step(slice(None))
            stalled = ~ok
            if stalled.any():
                new[stalled], new_cost[stalled] = sigma[stalled], sigma_cost[stalled]
            for _ in range(_MAX_HALVINGS - 1):
                if not stalled.any():
                    break
                step[stalled] *= 0.5
                todo = np.flatnonzero(stalled)
                cand, cand_cost, ok = try_step(todo)
                new[todo[ok]], new_cost[todo[ok]] = cand[ok], cand_cost[ok]
                stalled[todo[ok]] = False
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


def save_records(settings: list[MeasurementSetting], counts, durations_s, path) -> None:
    angles = [[math.degrees(getattr(s, attr)) for s in settings]
              for attr in ("qwp_a", "hwp_a", "qwp_b", "hwp_b")]
    write_table(path, RECORD_HEADER, [(*angles, np.asarray(counts, dtype=np.int64), durations_s)])


def load_records(path) -> tuple[list[MeasurementSetting], np.ndarray, np.ndarray]:
    """The settings, counts and durations of a count file; ValueError on a
    negative count or on a duration that is not finite and > 0."""
    with open(path, "r", encoding="utf-8") as fh:
        *angles, counts, durations = read_table(fh, _RECORD_DTYPE, skip=RECORD_HEADER)
    if np.any(counts < 0):
        raise ValueError("count must be >= 0")
    if not np.all(np.isfinite(durations) & (durations > 0.0)):
        raise ValueError("durations must be finite and > 0")
    settings = [MeasurementSetting(*map(math.radians, row))
                for row in zip(*(col.tolist() for col in angles))]
    return settings, counts, durations


def density_matrix_to_json(rho: np.ndarray) -> list[list[list[float]]]:
    """Row-major nesting of [re, im] pairs for report files."""
    return [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in rho]


def save_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
