"""Entanglement and nonlocality figures of merit for two-qubit states."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .qubits import PAULIS, PHI_PLUS, SIGMA_Y, check_density_matrix

#: fidelity above which no separable two-qubit state can lie (1/sqrt(2))
WITNESS_THRESHOLD = 1.0 / math.sqrt(2.0)


def fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """Overlap <target| rho |target> with a pure target state given as a ket."""
    rho = check_density_matrix(rho)
    target = np.asarray(target, dtype=complex)
    norm = np.vdot(target, target).real
    if abs(norm - 1.0) > 1e-8:
        raise ValueError("target ket must be normalized")
    if target.shape != rho.shape[:1]:
        raise ValueError(f"target must be a ket of dimension {rho.shape[0]}")
    return _overlap(rho, target)


def _overlap(rho: np.ndarray, target: np.ndarray) -> float:
    """``fidelity`` of a checked state and a complex normalized ket."""
    return float(np.real(np.vdot(target, rho @ target)))


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence from the spin-flipped spectrum.

    With rho = W W^dagger, the square roots l_i of the eigenvalues of
    rho (sy x sy) rho* (sy x sy) are the singular values of W^T (sy x sy) W,
    exact to rounding even at 0; sorted descending, C = max(0, l1 - l2 - l3 - l4).
    """
    rho = check_density_matrix(rho, dim=4)
    eigval, eigvec = np.linalg.eigh(rho)
    w = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
    lam = np.linalg.svd(w.T @ np.kron(SIGMA_Y, SIGMA_Y) @ w, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit with bias x, in bits."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("argument must lie in [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def eof_of_concurrence(c: float) -> float:
    """Entanglement of formation in ebits of a two-qubit state with concurrence c."""
    return binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)


#: sigma_i x sigma_j for i, j over X, Y, Z, row-major
_PAULI_PAIRS = [np.kron(si, sj) for si in PAULIS for sj in PAULIS]


class ChshResult(NamedTuple):
    s_max: float
    witness_fidelity: float
    witness_violated: bool


def chsh_assessment(rho: np.ndarray) -> ChshResult:
    """Largest CHSH value over measurement settings, plus the fidelity witness.

    s_max = 2 sqrt(m1 + m2) where m1, m2 are the two largest eigenvalues of
    T^T T, for the Pauli correlations T_ij = Tr[rho (sigma_i x sigma_j)];
    the state admits settings violating the classical bound 2 exactly when
    s_max > 2.  The fidelity witness flags entanglement whenever the
    overlap with the maximally entangled target exceeds 1/sqrt(2); the two
    tests can disagree, and both are reported.  ``rho`` is checked once.
    """
    rho = check_density_matrix(rho, dim=4)
    t = np.array([np.trace(rho @ pair).real for pair in _PAULI_PAIRS]).reshape(3, 3)
    eigs = np.linalg.eigvalsh(t.T @ t)
    s_max = 2.0 * math.sqrt(float(eigs[-1] + eigs[-2]))
    f = _overlap(rho, PHI_PLUS)  # a complex128 ket, as fidelity takes it
    return ChshResult(s_max=s_max, witness_fidelity=f,
                      witness_violated=bool(f > WITNESS_THRESHOLD))
