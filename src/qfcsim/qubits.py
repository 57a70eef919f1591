"""Polarization and time-bin qubit algebra.

Single photons carry one qubit either in polarization (|H>, |V>) or in a
pair of time bins (|S> = short/early, |L> = long/late) produced by an
unbalanced interferometer.  Both live in C^2 and share index order
(H, V) ~ (S, L).  Two-photon states are 4x4 density matrices with qubit A
(kept, untouched) as the first tensor factor and qubit B (encoded,
converted, decoded) as the second.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ConfigError, ExperimentConfig
from .conversion import pump_dephasing_factor

KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_D = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
KET_R = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

PHI_PLUS = (np.kron(KET_H, KET_H) + np.kron(KET_V, KET_V)) / math.sqrt(2.0)
PHI_MINUS = (np.kron(KET_H, KET_H) - np.kron(KET_V, KET_V)) / math.sqrt(2.0)
PSI_MINUS = (np.kron(KET_H, KET_V) - np.kron(KET_V, KET_H)) / math.sqrt(2.0)


def density(ket: np.ndarray) -> np.ndarray:
    """Outer product |k><k| normalized to unit trace."""
    ket = np.asarray(ket, dtype=complex)
    norm = np.vdot(ket, ket).real
    if norm <= 0.0:
        raise ValueError("cannot normalize a zero vector")
    return np.outer(ket, ket.conj()) / norm


def check_density_matrix(rho: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Validate Hermiticity and unit trace, each to 1e-8 absolute, and
    positivity (no eigenvalue below -1e-8); return as complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {rho.shape[0]}")
    if not np.allclose(rho, rho.conj().T, rtol=0.0, atol=1e-8):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise ValueError(f"density matrix trace is {np.trace(rho).real}, not 1")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -1e-8:
        raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")
    return rho


def partial_trace_b(rho: np.ndarray) -> np.ndarray:
    """Trace out the second qubit of a two-qubit state."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("ikjk->ij", r)


def rotation(angle: float) -> np.ndarray:
    """Real rotation of the polarization plane by ``angle`` radians."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def retarder(angle: float, retardance: float) -> np.ndarray:
    """Waveplate with fast axis at ``angle`` and the given retardance.

    Jones convention: the slow axis picks up exp(-i retardance) relative to
    the fast axis, so a quarter-wave plate at 45 degrees sends |H> to the
    circular state (|H> + i|V>)/sqrt(2) up to a global phase.
    """
    return rotation(angle) @ np.diag([1.0, np.exp(-1j * retardance)]) @ rotation(-angle)


def half_wave_plate(angle: float) -> np.ndarray:
    return retarder(angle, math.pi)


def quarter_wave_plate(angle: float) -> np.ndarray:
    return retarder(angle, math.pi / 2.0)


def dephase_timebin(rho: np.ndarray, coherence: float) -> np.ndarray:
    """Scale the S-L coherences of qubit B by ``coherence`` in [0, 1]."""
    if not 0.0 <= coherence <= 1.0:
        raise ValueError("coherence must lie in [0, 1]")
    out = np.asarray(rho, dtype=complex).copy()
    bins = np.array([0, 1, 0, 1])
    mask = bins[:, None] != bins[None, :]
    out[mask] *= coherence
    return out


def convert_timebin_qubit(rho: np.ndarray, efficiency: float, coherence: float,
                          noise_mean: float) -> np.ndarray:
    """Send qubit B through the frequency converter.

    Both time bins see the same pump, so conversion is bin-symmetric: with
    transmission ``efficiency`` the qubit survives untouched apart from
    pump phase diffusion, which multiplies the S-L coherence by
    ``coherence``.  Pump-induced noise photons (mean ``noise_mean`` per
    gate) are unpolarized, uncorrelated with qubit A, and land in either
    bin with equal weight; conditioned on one photon in the converted band,
    the output mixes signal and noise with weights eta : nu.
    """
    rho = check_density_matrix(rho, dim=4)
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError("efficiency must lie in [0, 1]")
    if not noise_mean >= 0.0:
        raise ValueError("noise_mean must be >= 0")
    total = efficiency + noise_mean
    if total <= 0.0:
        raise ValueError("no photons survive: efficiency and noise_mean both zero")
    signal = dephase_timebin(rho, coherence)
    noise = np.kron(partial_trace_b(rho), np.eye(2, dtype=complex) / 2.0)
    return (efficiency * signal + noise_mean * noise) / total


def timebin_to_pol(rho: np.ndarray, phase: float) -> tuple[np.ndarray, float]:
    """Decode qubit B from time bins back to polarization.

    The decoder delays the short bin in its long arm and recombines on a
    polarization merger, so the short bin exits horizontal and the long bin
    vertical with the long arm's extra ``phase`` (radians, relative to the
    short arm): the conditional map is K = diag(1, e^{i phase})/sqrt(2) on
    qubit B.  Post-selecting the middle arrival time succeeds with
    probability exactly 1/2 (K+K = 1/2) for any input.  Returns the
    conditional state and the success probability.
    """
    rho = check_density_matrix(rho, dim=4)
    kraus = np.diag([1.0, np.exp(1j * phase)]).astype(complex) / math.sqrt(2.0)
    op = np.kron(np.eye(2, dtype=complex), kraus)
    unnormalized = op @ rho @ op.conj().T
    prob = float(np.trace(unnormalized).real)
    return unnormalized / prob, prob


def entangled_pair_state(werner_weight: float) -> np.ndarray:
    """Pair-source polarization state: weighted maximally entangled + white noise.

    weight 1 returns the maximally entangled target exactly; weight 0 the
    maximally mixed state.  Fidelity to the target is (1 + 3 w)/4.
    """
    if not 0.0 <= werner_weight <= 1.0:
        raise ValueError("werner_weight must lie in [0, 1]")
    return werner_weight * density(PHI_PLUS) \
        + (1.0 - werner_weight) * np.eye(4, dtype=complex) / 4.0


def noise_weight(config: ExperimentConfig) -> float:
    """Weight w = nu / (s + nu) of the white noise I/4 in ``end_to_end_state``, with
    s the chain efficiency and nu the pump noise, or 0 with the interface off.  An
    s + nu of 0 (no photon), inf or subnormal (an imprecise state) is refused."""
    total = config.chain_efficiency() + config.noise_mean()
    if config.interface and not np.finfo(float).tiny <= total < math.inf:
        raise ConfigError(f"chain efficiency plus pump noise is {total!r}, not a normal float > 0")
    return config.noise_mean() / total if config.interface else 0.0


def end_to_end_state(config: ExperimentConfig) -> np.ndarray:
    """Two-qubit state after encode, convert, and decode of qubit B.

    Starts from the configured pair source, encodes B into time bins,
    applies the conversion chain (transmission, pump phase diffusion,
    pump-induced noise), and decodes back to polarization.  The encoder
    routes |H> and |V> through the short and long arms, so conditioned on
    the photon surviving its merger the encoding is the relabeling
    |H> -> |S>, |V> -> |L> and leaves the matrix unchanged.  With
    ``config.interface`` off the source state is returned unchanged.
    """
    rho = entangled_pair_state(config.werner_weight)
    if not config.interface:
        return rho
    coherence = pump_dephasing_factor(config.pump_linewidth, config.mzi_delay)
    rho = convert_timebin_qubit(
        rho,
        efficiency=config.chain_efficiency(),
        coherence=coherence,
        noise_mean=config.noise_mean(),
    )
    rho, _ = timebin_to_pol(rho, config.mzi_phase)
    return rho
