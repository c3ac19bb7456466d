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
    n = np.arange(cutoff + 1)
    # exp(-g (n_V + n_H + 1)) split between the modes, and each mode's
    # amplitudes divided by sqrt(n!) so the exp(Gam a+ b+) sum below needs
    # no per-k ladder weights; sqrt(n! m!) is put back at the end.
    sqrt_fact = np.exp(0.5 * _log_factorials(cutoff))
    mode = np.exp(-g * (n + 0.5)) / sqrt_fact
    c = np.outer(
        coherent_amplitudes(alpha_v, cutoff) * mode, coherent_amplitudes(alpha_h, cutoff) * mode
    )
    c *= np.exp(-np.conj(gam) * complex(alpha_v) * complex(alpha_h))
    # exp(Gam a+ b+): out[n,m] = sqrt(n! m!) sum_k Gam^k/k! c[n-k,m-k]
    out = np.zeros_like(c)
    for k in range(cutoff + 1):
        out[k:, k:] += gam**k / math.factorial(k) * c[: cutoff + 1 - k, : cutoff + 1 - k]
    out *= np.outer(sqrt_fact, sqrt_fact)
    state = FockState(cutoff, out)
    if truncation_bound is not None:
        state.check_truncation(truncation_bound)
    return state


@functools.lru_cache(maxsize=2 * MAX_CUTOFF + 1)
def _rotation_block(total: int, phi: float) -> np.ndarray:
    """exp(phi G) on the block of total photon number N = ``total``, with
    rows and columns ordered by n_V = 0..N and G = a_V^dag a_H - a_H^dag a_V.

    The block is the real Wigner-d matrix M_N[k, j] = <k, N-k| U |j, N-j>,
    built from M_{N-1} by the four-term recurrence (Risbo, J. Geodesy 70,
    383 (1996)): with c = cos phi and s = sin phi, U maps a_H^dag to
    s a_V^dag + c a_H^dag and a_V^dag to c a_V^dag - s a_H^dag, and
    |j, N-j> is (N-j)/N of a_H^dag plus j/N of a_V^dag acting on N-1
    photons, so

        N M_N[k, j] = sqrt((N-j) k) s M[k-1, j] + sqrt((N-j)(N-k)) c M[k, j]
                    + sqrt(j k) c M[k-1, j-1] - sqrt(j (N-k)) s M[k, j-1]

    with M = M_{N-1}, zero outside its range. Every coefficient is at most
    one, so the recurrence is stable, and each block costs O(N^2).
    """
    if total == 0:
        block = np.ones((1, 1))
    else:
        c, s = math.cos(phi), math.sin(phi)
        prev = np.zeros((total + 2, total + 2))
        prev[1:-1, 1:-1] = _rotation_block(total - 1, phi)
        root_j = np.sqrt(np.arange(total + 1.0))
        root_rest = root_j[::-1]
        from_h = prev[:, 1:] * root_rest  # M[., j] weighted by sqrt(N-j)
        from_v = prev[:, :-1] * root_j  # M[., j-1] weighted by sqrt(j)
        block = root_j[:, None] * (s * from_h[:-1] + c * from_v[:-1])
        block += root_rest[:, None] * (c * from_h[1:] - s * from_v[1:])
        block /= total
    block.setflags(write=False)
    return block


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
    if cut == 0:  # the vacuum block is unchanged, and a zero stride is no slice
        return np.array(amplitudes, dtype=complex)
    size = 2 * cut + 1
    out = np.zeros((size, size), dtype=complex)
    # (len, 2) real views: the real blocks act on re and im without an upcast
    src = np.ascontiguousarray(amplitudes, dtype=complex).reshape(-1).view(float).reshape(-1, 2)
    dst = out.reshape(-1).view(float).reshape(-1, 2)
    # In the raveled arrays, the N-block's (n_V, N - n_V) entries sit a row
    # stride minus one apart: n_V * cut + N in the input, n_V * (size - 1) + N
    # in the output.
    for total in range(size):
        lo, hi = max(0, total - cut), min(total, cut)
        block = _rotation_block(total, phi)[:, lo : hi + 1]
        block_in = src[lo * cut + total : hi * cut + total + 1 : cut]
        dst[total : total * size + 1 : size - 1] = block @ block_in
    return out


@functools.lru_cache(maxsize=4)
def _thinning_kernel(transmission: float) -> np.ndarray:
    """Binomial loss kernel B[k, n] = C(n, k) T^k (1-T)^(n-k) for k, n up to
    2 * MAX_CUTOFF, the size of a rotated state; zero for k > n.

    Column n is built from column n - 1 by B[k, n] = (1-T) B[k, n-1] +
    T B[k-1, n-1]: every term is nonnegative, so the recurrence is stable
    (a few ulps per entry, unless its terms passed through the subnormal
    range, below 1e-250 or so). B[k, n] does not depend on the matrix size,
    so one kernel per transmission serves every cutoff by slicing.
    """
    size = 2 * MAX_CUTOFF
    out = np.zeros((size + 1, size + 1))
    out[0, 0] = 1.0
    for n in range(1, size + 1):
        out[:, n] = (1.0 - transmission) * out[:, n - 1]
        out[1:, n] += transmission * out[:-1, n - 1]
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=32)
def _joint_number_distribution(state: FockState, basis: Basis) -> np.ndarray:
    # memoized per state object: the DIAG rotation dominates the oracle cost
    # and validation reuses each state for several loss/basis combinations
    if Basis(basis) is Basis.VH:
        return np.abs(state.amplitudes) ** 2
    return np.abs(rotate_exact(state.amplitudes, math.pi / 4)) ** 2


def exact_diff_distribution(
    state: FockState,
    basis: Basis,
    truncation_bound: float | None = DEFAULT_TRUNCATION_BOUND,
) -> dict[int, float]:
    """Exact probability distribution of the difference number n: the
    lossless case of ``exact_loss_distribution``."""
    return exact_loss_distribution(state, 0.0, basis, truncation_bound)


def exact_loss_distribution(
    state: FockState,
    eta: float,
    basis: Basis,
    truncation_bound: float | None = DEFAULT_TRUNCATION_BOUND,
) -> dict[int, float]:
    """Exact probability distribution of the difference number n after a
    non-polarizing loss of eta; zero-probability values are omitted.

    For DIAG the pi/4 beamsplitter transform is applied exactly in Fock
    space first. Beamsplitting each mode against a vacuum ancilla and
    tracing the ancillas leaves a photon-counting POVM that is diagonal in
    photon number: binomial thinning with success probability 1 - eta
    applied to the joint number distribution, evaluated here in closed form
    so no explicit ancilla dimension is needed. Probabilities sum to 1
    minus the truncation deficit. States beyond ``truncation_bound`` are
    rejected; pass None to override.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1] (got {eta})")
    if truncation_bound is not None:
        state.check_truncation(truncation_bound)
    joint = _joint_number_distribution(state, basis)
    size = joint.shape[0] - 1
    if eta > 0.0:
        kernel = _thinning_kernel(1.0 - eta)[: size + 1, : size + 1]
        joint = kernel @ joint @ kernel.T
    n = np.arange(size + 1)
    probs = np.bincount(np.subtract.outer(n, n).ravel() + size, weights=joint.ravel())
    (kept,) = np.nonzero(probs > 0.0)
    return dict(zip((kept - size).tolist(), probs[kept].tolist()))


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
