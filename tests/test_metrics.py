"""Entanglement metrics against closed forms and a brute-force CHSH search.

For weight-w mixtures of the maximally entangled state with white noise the
closed forms are concurrence max(0, (3w-1)/2) and CHSH maximum 2 sqrt(2) w;
the settings-search oracle below maximizes S directly over measurement
directions and must agree with the eigenvalue formula.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from qfcsim import metrics
from qfcsim.experiments import _metrics_of
from qfcsim.metrics import (
    WITNESS_THRESHOLD,
    binary_entropy,
    chsh_assessment,
    concurrence,
    eof_of_concurrence,
    fidelity,
)
from qfcsim.qubits import (KET_H, KET_V, PAULIS, PHI_PLUS, PSI_MINUS, SIGMA_Y, density,
                           entangled_pair_state)

EOF_AT_HALF_CONCURRENCE = 0.35457890266526954


def _random_state(rng, rank=4):
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_unitary(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _pauli_correlations(rho):
    """T_ij = Tr[rho (sigma_i x sigma_j)] over X, Y, Z, one trace per entry."""
    return np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in PAULIS]
                     for si in PAULIS])


def _chsh_by_search(rho):
    """Maximize S over measurement directions, independent of eigenvalues.

    For fixed analyzer directions b, b' on the stop side the optimal start
    directions are known in closed form, leaving a 4-angle search over the
    two unit vectors: S = |T(b+b')| + |T(b-b')|.
    """
    t = _pauli_correlations(rho)

    def neg_s(angles):
        tb, pb, tc, pc = angles
        b = np.array([math.sin(tb) * math.cos(pb), math.sin(tb) * math.sin(pb), math.cos(tb)])
        c = np.array([math.sin(tc) * math.cos(pc), math.sin(tc) * math.sin(pc), math.cos(tc)])
        return -(np.linalg.norm(t @ (b + c)) + np.linalg.norm(t @ (b - c)))

    rng = np.random.default_rng(4242)
    best = 0.0
    for _ in range(12):
        x0 = rng.uniform(0.0, math.pi, size=4)
        res = minimize(neg_s, x0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        best = max(best, -res.fun)
    return best


def test_fidelity_pure_states():
    rho = density(PHI_PLUS)
    assert abs(fidelity(rho, PHI_PLUS) - 1.0) < 1e-12
    assert abs(fidelity(rho, PSI_MINUS)) < 1e-12
    assert abs(fidelity(np.eye(4) / 4.0, PHI_PLUS) - 0.25) < 1e-12
    # a projector has unit norm too, but the target must be a ket
    with pytest.raises(ValueError, match="ket of dimension 4"):
        fidelity(rho, density(PHI_PLUS))


def test_concurrence_closed_form_on_noise_mixtures():
    for w in np.linspace(0.0, 1.0, 21):
        rho = entangled_pair_state(float(w))
        expected = max(0.0, (3.0 * w - 1.0) / 2.0)
        assert abs(concurrence(rho) - expected) < 1e-12


def test_concurrence_extremes():
    assert abs(concurrence(density(PHI_PLUS)) - 1.0) < 1e-12
    assert abs(concurrence(density(PSI_MINUS)) - 1.0) < 1e-12
    assert concurrence(np.eye(4) / 4.0) == 0.0
    assert concurrence(density(np.kron(KET_H, KET_H))) < 1e-12


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(2718)
    for _ in range(40):
        rho = _random_state(rng)
        u = np.kron(_random_unitary(rng), _random_unitary(rng))
        rotated = u @ rho @ u.conj().T
        assert abs(concurrence(rotated) - concurrence(rho)) < 1e-9


def test_concurrence_resolves_rank_deficient_states():
    # 0.8 |Phi+><Phi+| + 0.2 |HV><HV| has concurrence 0.8 and three zero
    # spin-flipped values; a one-ulp edit of any entry, kept Hermitian, may
    # move it only at rounding level
    rho = 0.8 * density(PHI_PLUS) + 0.2 * density(np.kron(KET_H, KET_V))
    base = concurrence(rho)
    assert abs(base - 0.8) < 1e-12
    moves = []
    for i, j in zip(*np.triu_indices(4)):
        re, im = rho[i, j].real, rho[i, j].imag
        edits = [complex(np.nextafter(re, d), im) for d in (-1.0, 2.0)]
        if i != j:
            edits += [complex(re, np.nextafter(im, d)) for d in (-1.0, 2.0)]
        for value in edits:
            edited = rho.copy()
            edited[i, j], edited[j, i] = value, np.conj(value)
            moves.append(abs(concurrence(edited) - base))
    assert max(moves) <= 1e-12


def test_concurrence_matches_the_eigenvalue_form():
    # The textbook form takes square roots of the eigenvalues of rho rho~,
    # which resolves a small root l only to about eps / l; a 4% white-noise
    # floor keeps every root of these full-rank states away from 0.
    flip = np.kron(SIGMA_Y, SIGMA_Y)
    rng = np.random.default_rng(1618)
    worst, entangled = 0.0, 0
    for _ in range(500):
        rho = 0.96 * _random_state(rng) + 0.04 * np.eye(4) / 4.0
        eigs = np.linalg.eigvals(rho @ flip @ rho.conj() @ flip).real
        lam = np.sort(np.sqrt(np.clip(eigs, 0.0, None)))[::-1]
        c = concurrence(rho)
        worst = max(worst, abs(c - max(0.0, lam[0] - lam[1] - lam[2] - lam[3])))
        entangled += c > 0.0
    assert worst <= 1e-12
    assert entangled >= 250


def test_binary_entropy_and_eof():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-12
    assert abs(eof_of_concurrence(concurrence(density(PHI_PLUS))) - 1.0) < 1e-12
    assert eof_of_concurrence(concurrence(np.eye(4) / 4.0)) == 0.0
    # frozen value at concurrence 1/2 (the calibrated conversion point)
    rho = entangled_pair_state(2.0 / 3.0)
    assert abs(concurrence(rho) - 0.5) < 1e-12
    assert abs(eof_of_concurrence(concurrence(rho)) - EOF_AT_HALF_CONCURRENCE) < 1e-12


def test_eof_monotone_in_weight():
    values = [eof_of_concurrence(concurrence(entangled_pair_state(float(w))))
              for w in np.linspace(1.0 / 3.0, 1.0, 15)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_tabled_metrics_equal_the_direct_formulas(monkeypatch):
    # chsh_assessment looks its Pauli products up in a table built once,
    # and the tomography scores derive the EoF from the concurrence they
    # already hold; both must match the direct formulas bit for bit.  A
    # scored state is checked twice, by concurrence and chsh_assessment.
    checks = []
    check = metrics.check_density_matrix
    monkeypatch.setattr(metrics, "check_density_matrix",
                        lambda rho, dim=None: checks.append(dim) or check(rho, dim))
    rng = np.random.default_rng(57)
    for k in range(300):
        rho = _random_state(rng, rank=1 + k % 4)
        direct = _pauli_correlations(rho)
        c = concurrence(rho)
        eof = binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)
        assert eof_of_concurrence(concurrence(rho)) == eof
        checks.clear()
        fid, conc, scored_eof, chsh = _metrics_of(rho)
        assert len(checks) == 2
        assert np.array_equal([fid, conc, scored_eof], [fidelity(rho, PHI_PLUS), c, eof])
        eigs = np.linalg.eigvalsh(direct.T @ direct)
        assert chsh.s_max == 2.0 * math.sqrt(float(eigs[-1] + eigs[-2]))
        assert chsh == chsh_assessment(rho)


def test_chsh_closed_forms():
    res = chsh_assessment(density(PHI_PLUS))
    assert abs(res.s_max - 2.0 * math.sqrt(2.0)) < 1e-12
    assert res.witness_violated
    # product state sits exactly at the classical bound
    res = chsh_assessment(density(np.kron(KET_H, KET_H)))
    assert abs(res.s_max - 2.0) < 1e-12
    assert not res.witness_violated
    # noise mixtures scale linearly: s_max = 2 sqrt(2) w
    for w in (0.5, 2.0 / 3.0, 0.9):
        res = chsh_assessment(entangled_pair_state(w))
        assert abs(res.s_max - 2.0 * math.sqrt(2.0) * w) < 1e-12


def test_chsh_matches_direct_settings_search():
    rng = np.random.default_rng(1618)
    states = [density(PHI_PLUS), entangled_pair_state(2.0 / 3.0)]
    states += [_random_state(rng) for _ in range(4)]
    for rho in states:
        formula = chsh_assessment(rho).s_max
        searched = _chsh_by_search(rho)
        assert searched <= formula + 1e-9
        assert searched >= formula - 1e-6


def test_witness_threshold_boundary():
    assert abs(WITNESS_THRESHOLD - 1.0 / math.sqrt(2.0)) < 1e-15
    # weight tuned to straddle F = 1/sqrt(2): F = (1 + 3w)/4
    w_at_threshold = (4.0 / math.sqrt(2.0) - 1.0) / 3.0
    above = chsh_assessment(entangled_pair_state(w_at_threshold + 1e-3))
    below = chsh_assessment(entangled_pair_state(w_at_threshold - 1e-3))
    assert above.witness_violated
    assert not below.witness_violated


def test_witness_and_chsh_can_disagree():
    # for weights between (4/sqrt(2) - 1)/3 ~ 0.61 and 1/sqrt(2) ~ 0.71 the
    # fidelity witness flags entanglement while no settings violate CHSH
    rho = entangled_pair_state(2.0 / 3.0)
    res = chsh_assessment(rho)
    assert res.witness_violated
    assert res.s_max < 2.0
