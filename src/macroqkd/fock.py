"""Exact Fock-space oracle for small two-mode squeezed coherent pulses.

This module reproduces the pulse physics with no Gaussian approximation,
at photon numbers small enough for an explicit state vector. It is the
independent reference the Gaussian engine's moment formulas are checked
against.

The two-mode squeeze operator applied to a coherent state is built from
its normal-ordered (disentangled) form

    S2(r e^{i theta}) = exp(Gam a+ b+) exp(-g (n_a + n_b + 1)) exp(-Gam* a b)

with Gam = e^{i theta} tanh r and g = ln cosh r. Acting on |alpha_V,
alpha_H> the rightmost factor is an eigen-action, the middle is diagonal
in photon number, and the left factor only couples downward in photon
number, so every retained amplitude is exact; truncation shows up purely
as missing norm, which is tracked explicitly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .photostats import Basis

MAX_CUTOFF = 80
DEFAULT_TRUNCATION_BOUND = 1e-8


@dataclass(frozen=True, eq=False)
class FockState:
    """Two-mode state vector, amplitudes indexed (n_V, n_H) up to cutoff."""

    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 0 < self.cutoff <= MAX_CUTOFF:
            raise ValueError(f"cutoff must be in 1..{MAX_CUTOFF} (got {self.cutoff})")
        amps = np.array(self.amplitudes, dtype=complex)
        shape = (self.cutoff + 1, self.cutoff + 1)
        if amps.shape != shape:
            raise ValueError(f"amplitudes have shape {amps.shape}, expected {shape}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_deficit(self) -> float:
        """Probability weight lost to truncation, 1 - sum |c|^2."""
        return max(0.0, 1.0 - float(np.sum(np.abs(self.amplitudes) ** 2)))

    def check_truncation(self, bound: float = DEFAULT_TRUNCATION_BOUND) -> None:
        if self.norm_deficit > bound:
            raise ValueError(
                f"truncation bound violated: norm deficit {self.norm_deficit:.3e} > {bound:.1e}"
            )


def _log_factorials(size: int) -> np.ndarray:
    """log(k!) for k = 0..size."""
    return np.array([math.lgamma(k + 1.0) for k in range(size + 1)])


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Fock amplitudes of a single-mode coherent state."""
    n = np.arange(cutoff + 1)
    if alpha == 0:
        out = np.zeros(cutoff + 1, dtype=complex)
        out[0] = 1.0
        return out
    log_mag = -abs(alpha) ** 2 / 2 + n * math.log(abs(alpha)) - 0.5 * _log_factorials(cutoff)
    return np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))


def build_state_exact(
    alpha_v: complex,
    alpha_h: complex,
    r: float,
    theta: float,
    cutoff: int,
    truncation_bound: float | None = DEFAULT_TRUNCATION_BOUND,
) -> FockState:
    """Two-mode squeezed coherent state S2(r e^{i theta}) |alpha_V, alpha_H>.

    Pass ``truncation_bound=None`` to skip the norm-deficit gate (the deficit
    stays available on the returned state).
    """
    if r < 0:
        raise ValueError(f"squeeze parameter r must be >= 0 (got {r})")
    gam = np.exp(1j * theta) * math.tanh(r)
    g = math.log(math.cosh(r))
    c = np.outer(coherent_amplitudes(alpha_v, cutoff), coherent_amplitudes(alpha_h, cutoff))
    c = c * np.exp(-np.conj(gam) * complex(alpha_v) * complex(alpha_h))
    n = np.arange(cutoff + 1)
    c = c * np.exp(-g * (n[:, None] + n[None, :] + 1.0))
    out = np.zeros_like(c)
    log_fact = _log_factorials(cutoff)
    # exp(Gam a+ b+): out[n,m] = sum_k Gam^k/k! sqrt(n!/(n-k)!) sqrt(m!/(m-k)!) c[n-k,m-k]
    for k in range(cutoff + 1):
        w = np.exp(0.5 * (log_fact[k:] - log_fact[: cutoff + 1 - k]))
        coef = gam**k / math.factorial(k)
        out[k:, k:] += coef * w[:, None] * w[None, :] * c[: cutoff + 1 - k, : cutoff + 1 - k]
    state = FockState(cutoff, out)
    if truncation_bound is not None:
        state.check_truncation(truncation_bound)
    return state


@functools.lru_cache(maxsize=2 * MAX_CUTOFF + 1)
def _rotation_block(total: int, phi: float) -> np.ndarray:
    """exp(phi G) on the block of total photon number N = ``total``, with
    rows and columns ordered by n_V = 0..N and G = a_V^dag a_H - a_H^dag a_V.

    G is real, antisymmetric and tridiagonal on the block. With
    D = diag(i^k) it equals D (-i S) D^-1 for the real symmetric tridiagonal
    S sharing its off-diagonal, so one eigendecomposition S = V diag(lam) V^T
    gives the real (Wigner-d) matrix exp(phi G) = D V exp(-i phi lam) V^T D^-1.
    """
    k = np.arange(total)
    off = np.sqrt((k + 1.0) * (total - k))
    lam, v = np.linalg.eigh(np.diag(off, -1) + np.diag(off, 1))
    d = np.array([1, 1j, -1, -1j])[np.arange(total + 1) % 4]
    m = (v * np.exp(-1j * phi * lam)) @ v.T
    return (d[:, None] * m * np.conj(d)[None, :]).real


def rotate_exact(amplitudes: np.ndarray, phi: float) -> np.ndarray:
    """Polarization rotation of a two-mode Fock state (matches the Gaussian
    engine's convention: coherent (alpha, 0) -> (alpha cos phi, -alpha sin phi)).

    The rotation conserves total photon number N, so each N-block is
    rotated exactly on its own. The output spans twice the cutoff, which
    holds every block that carries weight in full; amplitudes beyond the
    input cutoff count as zero, so the result is exact up to the build's
    own deficit.
    """
    cut = amplitudes.shape[0] - 1
    out = np.zeros((2 * cut + 1, 2 * cut + 1), dtype=complex)
    for total in range(2 * cut + 1):
        lo, hi = max(0, total - cut), min(total, cut)
        nv_in = np.arange(lo, hi + 1)
        nv_out = np.arange(total + 1)
        block = _rotation_block(total, phi)[:, lo : hi + 1]
        out[nv_out, total - nv_out] = block @ amplitudes[nv_in, total - nv_in]
    return out


def _thinning_kernel(size: int, transmission: float) -> np.ndarray:
    """Binomial loss kernel B[k, n] = C(n, k) T^k (1-T)^(n-k), k <= n."""
    if transmission == 1.0:
        return np.eye(size + 1)
    if transmission == 0.0:
        out = np.zeros((size + 1, size + 1))
        out[0, :] = 1.0
        return out
    n = np.arange(size + 1)
    k_grid, n_grid = np.meshgrid(n, n, indexing="ij")
    kept = k_grid <= n_grid
    lost = np.where(kept, n_grid - k_grid, 0)
    log_fact = _log_factorials(size)
    log_b = (
        log_fact[n_grid]
        - log_fact[k_grid]
        - log_fact[lost]
        + k_grid * math.log(transmission)
        + lost * math.log1p(-transmission)
    )
    return np.where(kept, np.exp(log_b), 0.0)


@functools.lru_cache(maxsize=32)
def _joint_number_distribution(state: FockState, basis: Basis) -> np.ndarray:
    # memoized per state object: the DIAG rotation dominates the oracle cost
    # and validation reuses each state for several loss/basis combinations
    if Basis(basis) is Basis.VH:
        return np.abs(state.amplitudes) ** 2
    return np.abs(rotate_exact(state.amplitudes, math.pi / 4)) ** 2


def _difference_distribution(joint: np.ndarray) -> dict[int, float]:
    size = joint.shape[0] - 1
    n = np.arange(size + 1)
    diff = (n[:, None] - n[None, :]).ravel()
    probs = np.bincount(diff + size, weights=joint.ravel(), minlength=2 * size + 1)
    return {int(d) - size: float(p) for d, p in enumerate(probs) if p > 0.0}


def exact_diff_distribution(
    state: FockState,
    basis: Basis,
    truncation_bound: float | None = DEFAULT_TRUNCATION_BOUND,
) -> dict[int, float]:
    """Exact probability distribution of the difference number n.

    For DIAG the pi/4 beamsplitter transform is applied exactly in Fock
    space first. Probabilities sum to 1 minus the truncation deficit.
    States beyond ``truncation_bound`` are rejected; pass None to override.
    """
    if truncation_bound is not None:
        state.check_truncation(truncation_bound)
    return _difference_distribution(_joint_number_distribution(state, basis))


def exact_loss_distribution(
    state: FockState,
    eta: float,
    basis: Basis,
    truncation_bound: float | None = DEFAULT_TRUNCATION_BOUND,
) -> dict[int, float]:
    """Difference-number distribution after a non-polarizing loss of eta.

    Beamsplitting each mode against a vacuum ancilla and tracing the
    ancillas leaves a photon-counting POVM that is diagonal in photon
    number: binomial thinning with success probability 1 - eta applied to
    the joint number distribution. That thinning is evaluated here in
    closed form, so no explicit ancilla dimension is needed.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1] (got {eta})")
    if truncation_bound is not None:
        state.check_truncation(truncation_bound)
    joint = _joint_number_distribution(state, basis)
    kernel = _thinning_kernel(joint.shape[0] - 1, 1.0 - eta)
    return _difference_distribution(kernel @ joint @ kernel.T)


def distribution_moments(dist: dict[int, float]) -> tuple[float, float]:
    """Mean and variance of an integer-valued distribution, normalized by
    its retained probability mass."""
    values = np.array(list(dist.keys()), dtype=float)
    probs = np.array(list(dist.values()), dtype=float)
    total = float(probs.sum())
    if total <= 0.0:
        raise ValueError("distribution carries no probability mass")
    mean = float((values * probs).sum() / total)
    var = float((values**2 * probs).sum() / total - mean**2)
    return mean, var
