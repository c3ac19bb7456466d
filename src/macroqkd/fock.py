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
as missing norm, which is tracked explicitly. The seed amplitudes are an
outer product u (x) v, so the exp(Gam a+ b+) sum is one matrix product
(U diag w) V^T of lower-triangular Toeplitz matrices U[n, k] = u[n-k] and
V[m, k] = v[m-k] with weights w[k] = Gam^k / k!.

In the +45/-45 basis this pulse needs no rotation in Fock space. The
50:50 polarization rotation takes a_V+ a_H+ to (a_+^2 - a_-^2)/2 (Braunstein
& van Loock, Rev. Mod. Phys. 77, 513 (2005), sec. II), so two-mode
squeezing becomes opposite single-mode squeezers and the pulse is the
product S(r e^{i theta})|(alpha_V + alpha_H)/sqrt2> (x) S(r e^{i (theta +
pi)})|(alpha_H - alpha_V)/sqrt2>. ``diag_number_marginals`` builds each
factor from the single-mode disentangled squeeze, in O(cutoff^2), only as
far as a Chernoff bound on its own number tail needs, and the difference
distribution is the correlation of the two number distributions.
``rotate_exact`` remains the general DIAG path for any ``FockState``.

The module owns its truncation policy: no public function takes a cutoff or
a bound. The same Chernoff bound, ``_tail_cutoff``, sizes each V/H mode
of ``build_state_exact`` (capped at MAX_CUTOFF) and each +45/-45 factor
(capped at 2 MAX_CUTOFF), and every state is refused whose norm deficit
exceeds TRUNCATION_BOUND: ``FockState`` checks its own at construction,
so the distributions re-check nothing.

Every distribution here is an array of probabilities of the difference
number n = -size..size at index n + size (``exact_loss_distribution``,
``product_loss_distribution``); ``difference_moments`` reads its mean and
variance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .photostats import Basis

MAX_CUTOFF = 81
# Largest norm deficit any oracle state may carry: 1 - sum |c|^2 of a FockState,
# 1 - sum p_+ sum p_- of the +45/-45 marginals
TRUNCATION_BOUND = 1e-8
# Photon-number mass a mode may leave beyond the size its build is given
_TAIL_MASS = 1e-18


@dataclass(frozen=True, eq=False)
class FockState:
    """Two-mode state vector, amplitudes indexed (n_V, n_H) up to ``cutoff``.

    Construction refuses a state whose norm deficit exceeds
    TRUNCATION_BOUND, so every FockState has passed the truncation gate.
    """

    amplitudes: np.ndarray
    norm_deficit: float = field(init=False)  # probability lost to truncation, 1 - sum |c|^2

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[0] != amps.shape[1]:
            raise ValueError(f"amplitudes must be square (got shape {amps.shape})")
        if not 0 < amps.shape[0] - 1 <= MAX_CUTOFF:
            raise ValueError(f"cutoff must be in 1..{MAX_CUTOFF} (got {amps.shape[0] - 1})")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "norm_deficit", _gated_deficit(float(np.sum(np.abs(amps) ** 2))))

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[0] - 1


def _check_pulse(alpha_v: complex, alpha_h: complex, r: float, theta: float) -> None:
    for name, value in (("alpha_V", alpha_v), ("alpha_H", alpha_h), ("r", r), ("theta", theta)):
        z = complex(value)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"{name} must be finite (got {value})")
    if r < 0:
        raise ValueError(f"squeeze parameter r must be >= 0 (got {r})")


def _gated_deficit(mass: float) -> float:
    """1 - mass, clamped at zero, refused above TRUNCATION_BOUND. A non-finite
    mass gives NaN, which is refused too (max(0.0, nan) would be 0.0)."""
    deficit = max(0.0, 1.0 - mass) if math.isfinite(mass) else math.nan
    if not deficit <= TRUNCATION_BOUND:
        raise ValueError(
            f"truncation bound violated: norm deficit {deficit:.3e} > {TRUNCATION_BOUND:.1e}"
        )
    return deficit


_LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(2 * MAX_CUTOFF + 1)])
_LOG_FACTORIALS.setflags(write=False)


def _log_factorials(size: int) -> np.ndarray:
    """log(k!) for k = 0..size, size up to 2 * MAX_CUTOFF."""
    if size > 2 * MAX_CUTOFF:
        raise ValueError(f"cutoff must be at most {2 * MAX_CUTOFF} (got {size})")
    return _LOG_FACTORIALS[: size + 1]


def _coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Fock amplitudes of a single-mode coherent state."""
    n = np.arange(cutoff + 1)
    if alpha == 0:
        out = np.zeros(cutoff + 1, dtype=complex)
        out[0] = 1.0
        return out
    log_mag = -abs(alpha) ** 2 / 2 + n * math.log(abs(alpha)) - 0.5 * _log_factorials(cutoff)
    return np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))


def build_state_exact(alpha_v: complex, alpha_h: complex, r: float, theta: float) -> FockState:
    """Two-mode squeezed coherent state S2(r e^{i theta}) |alpha_V, alpha_H>,
    built up to ``_state_cutoff`` photons per mode."""
    _check_pulse(alpha_v, alpha_h, r, theta)
    cutoff = _state_cutoff(alpha_v, alpha_h, r, theta)
    return FockState(_two_mode_amplitudes(alpha_v, alpha_h, r, theta, cutoff))


def _state_cutoff(alpha_v: complex, alpha_h: complex, r: float, theta: float) -> int:
    """The larger ``_tail_cutoff`` of the two modes, capped at MAX_CUTOFF. Each is
    displaced thermal with variance cosh(2r)/2, <a_V> = alpha_V cosh r +
    e^{i theta} alpha_H* sinh r and V, H swapped for <a_H>."""
    var, pump = math.cosh(2.0 * r) / 2, np.exp(1j * theta) * math.sinh(r)
    return max(
        _tail_cutoff(a * math.cosh(r) + pump * np.conj(b), var, var, MAX_CUTOFF)
        for a, b in ((alpha_v, alpha_h), (alpha_h, alpha_v))
    )


def _two_mode_amplitudes(
    alpha_v: complex, alpha_h: complex, r: float, theta: float, cutoff: int
) -> np.ndarray:
    """Amplitudes of S2(r e^{i theta}) |alpha_V, alpha_H> for n_V, n_H up to cutoff.

    exp(-Gam* a b) and exp(-g (n_V + n_H + 1)) leave the seed's amplitudes
    an outer product u (x) v, and exp(Gam a+ b+) then gives

        out[n, m] = sqrt(n! m!) sum_k Gam^k / k! u[n-k] v[m-k],

    one matrix product (U diag w) V^T with U[n, k] = u[n-k], V[m, k] =
    v[m-k] and w[k] = Gam^k / k!.
    """
    gam = np.exp(1j * theta) * math.tanh(r)
    g = math.log(math.cosh(r))
    n = np.arange(cutoff + 1)
    # exp(-g (n_V + n_H + 1)) split between the modes, and each mode's
    # amplitudes divided by sqrt(n!); sqrt(n! m!) goes back in as the row
    # weights of U and V.
    sqrt_fact = np.exp(0.5 * _log_factorials(cutoff))
    mode = np.exp(-g * (n + 0.5)) / sqrt_fact
    u = _coherent_amplitudes(alpha_v, cutoff) * mode
    u *= np.exp(-np.conj(gam) * complex(alpha_v) * complex(alpha_h))
    v = _coherent_amplitudes(alpha_h, cutoff) * mode
    w = np.cumprod(np.concatenate(([1.0], gam / np.arange(1.0, cutoff + 1))))
    rows_u = sqrt_fact[:, None] * _lower_toeplitz(u) * w
    return rows_u @ (sqrt_fact[:, None] * _lower_toeplitz(v)).T


def _lower_toeplitz(x: np.ndarray) -> np.ndarray:
    """Read-only view T[n, k] = x[n - k], zero for k > n."""
    size = x.shape[0]
    padded = np.concatenate((np.zeros(size - 1, dtype=x.dtype), x))
    step = padded.strides[0]
    # T[n, k] = padded[size - 1 + n - k]: a row steps forward, a column back
    return np.lib.stride_tricks.as_strided(
        padded[size - 1 :], (size, size), (step, -step), writeable=False
    )


def _squeezed_coherent_amplitudes(beta: complex, r: float, phi: float, cutoff: int) -> np.ndarray:
    """Fock amplitudes of the single-mode state S(r e^{i phi}) |beta>, from

        S(r e^{i phi}) = exp(Gam/2 a+^2) exp(-g (n + 1/2)) exp(-Gam*/2 a^2),

    the one-mode analogue of ``_two_mode_amplitudes``' disentangled form, with
    Gam = e^{i phi} tanh r and g = ln cosh r. Every retained amplitude is exact.
    """
    gam = np.exp(1j * phi) * math.tanh(r)
    n = np.arange(cutoff + 1)
    sqrt_fact = np.exp(0.5 * _log_factorials(cutoff))
    c = _coherent_amplitudes(beta, cutoff) * np.exp(-math.log(math.cosh(r)) * (n + 0.5)) / sqrt_fact
    c *= np.exp(-np.conj(gam) / 2 * complex(beta) ** 2)
    # exp(Gam/2 a+^2): out[n] = sqrt(n!) sum_k w[2k] c[n-2k], a convolution
    # with w[2k] = (Gam/2)^k / k! and zero at odd indices
    w = np.zeros(cutoff + 1, dtype=complex)
    w[::2] = np.cumprod(np.concatenate(([1.0], gam / 2 / np.arange(1.0, cutoff // 2 + 1))))
    # Scaling index j of w and c by 4^j (exact), and output n back, keeps products normal
    scale = np.ldexp(1.0, 2 * n)
    return np.convolve(w * scale, c * scale)[: cutoff + 1] / scale * sqrt_fact


def diag_number_marginals(
    alpha_v: complex, alpha_h: complex, r: float, theta: float
) -> tuple[np.ndarray, float]:
    """Photon-number distributions of the +45 and -45 modes of
    S2(r e^{i theta}) |alpha_V, alpha_H>, rows (+45, -45), each over
    0..2 MAX_CUTOFF (the span ``rotate_exact`` produces), and the product's
    norm deficit 1 - sum p_+ sum p_-.

    The modes are independent single-mode squeezed coherent states (module
    docstring), so no rotation is needed. Each is built only up to
    ``_tail_cutoff``, which leaves at most ``_TAIL_MASS`` beyond it, and
    padded with zeros. A deficit above TRUNCATION_BOUND is refused.
    """
    _check_pulse(alpha_v, alpha_h, r, theta)
    alpha_v, alpha_h = complex(alpha_v), complex(alpha_h)
    marginals = np.zeros((2, 2 * MAX_CUTOFF + 1))
    factors = (
        ((alpha_v + alpha_h) / math.sqrt(2.0), theta),
        ((alpha_h - alpha_v) / math.sqrt(2.0), theta + math.pi),
    )
    squeezed = (math.exp(2.0 * r) / 2, math.exp(-2.0 * r) / 2)  # variances along phi/2, across
    for row, (beta, phi) in zip(marginals, factors):
        mean = beta * math.cosh(r) + beta.conjugate() * np.exp(1j * phi) * math.sinh(r)
        cutoff = _tail_cutoff(mean * np.exp(-0.5j * phi), *squeezed, 2 * MAX_CUTOFF)
        row[: cutoff + 1] = np.abs(_squeezed_coherent_amplitudes(beta, r, phi, cutoff)) ** 2
    marginals.setflags(write=False)
    return marginals, _gated_deficit(float(marginals[0].sum() * marginals[1].sum()))


# Chernoff parameters z = (1 - kappa) / (1 + kappa) with kappa = -lam / (2 v_max)
# span (1, (2 v_max + 1) / (2 v_max - 1)), where the generating function is finite
_CHERNOFF_LAM = np.linspace(0.01, 0.99, 99)


def _tail_cutoff(mean: complex, var_along: float, var_across: float, cap: int) -> int:
    """Smallest size s beyond which a single-mode Gaussian state provably keeps
    at most ``_TAIL_MASS``, capped at ``cap``: the Chernoff bound
    P(n > s) <= E[z^n] / z^(s+1), minimized over a fixed grid of z > 1.

    The state has mean <a> = ``mean`` and, in quadratures x = (a + a+)/sqrt2
    (vacuum variance 1/2), variance ``var_along`` on the real axis and
    ``var_across`` on the imaginary. This one bound sizes every oracle build.
    Integrating its Wigner function against (1 + kappa) exp(-kappa |x|^2),
    the Weyl symbol of z^n with kappa = (1 - z)/(1 + z), gives

        E[z^n] = (1 + kappa) prod_j (1 + 2 kappa v_j)^{-1/2}
                 exp(-kappa d_j^2 / (1 + 2 kappa v_j))

    over the two axes j, with variances v_j and mean components d_j.
    """
    kappa = -_CHERNOFF_LAM / (2.0 * max(var_along, var_across))
    z = (1.0 - kappa) / (1.0 + kappa)
    along = 1.0 + 2.0 * kappa * var_along
    across = 1.0 + 2.0 * kappa * var_across
    log_pgf = (
        np.log1p(kappa)
        - 0.5 * np.log(along * across)
        - 2.0 * kappa * (mean.real**2 / along + mean.imag**2 / across)
    )
    bound = np.ceil((log_pgf - math.log(_TAIL_MASS)) / np.log(z)) - 1.0
    return int(min(cap, bound.min()))


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


def exact_diff_distribution(state: FockState, basis: Basis) -> np.ndarray:
    """Exact probabilities of the difference number n: the lossless case of
    ``exact_loss_distribution``."""
    return exact_loss_distribution(state, 0.0, basis)


def exact_loss_distribution(state: FockState, eta: float, basis: Basis) -> np.ndarray:
    """Exact probabilities of the difference number n = -size..size, at
    index n + size, after a non-polarizing loss of eta.

    For DIAG the pi/4 beamsplitter transform is applied exactly in Fock
    space first. Beamsplitting each mode against a vacuum ancilla and
    tracing the ancillas leaves a photon-counting POVM that is diagonal in
    photon number: binomial thinning with success probability 1 - eta
    applied to the joint number distribution, evaluated here in closed form
    so no explicit ancilla dimension is needed. Probabilities sum to 1
    minus the state's norm deficit.
    """
    _check_eta(eta)
    amps = state.amplitudes if Basis(basis) is Basis.VH else rotate_exact(state.amplitudes, math.pi / 4)
    joint = np.abs(amps) ** 2
    size = joint.shape[0] - 1
    if eta > 0.0:
        kernel = _thinning_kernel(1.0 - eta)[: size + 1, : size + 1]
        joint = kernel @ joint @ kernel.T
    n = np.arange(size + 1)
    return np.bincount(np.subtract.outer(n, n).ravel() + size, weights=joint.ravel())


def product_loss_distribution(marginals: np.ndarray, eta: float) -> np.ndarray:
    """Exact probabilities of n = n_0 - n_1 = -size..size, at index n + size,
    for independent modes with number distributions ``marginals`` (rows 0
    and 1 over 0..size, as from ``diag_number_marginals``) after a
    non-polarizing loss of eta.

    Loss thins each mode on its own, and the difference of independent
    counts has the correlation of their distributions as its law.
    """
    _check_eta(eta)
    size = marginals.shape[1] - 1
    if eta > 0.0:
        marginals = marginals @ _thinning_kernel(1.0 - eta)[: size + 1, : size + 1].T
    return np.convolve(marginals[0], marginals[1][::-1])


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1] (got {eta})")


def difference_moments(probs: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the difference number from probabilities indexed
    by n + size, as from ``exact_loss_distribution`` and
    ``product_loss_distribution``, normalized by their retained mass."""
    total = float(probs.sum())
    if total <= 0.0:
        raise ValueError("distribution carries no probability mass")
    size = (probs.shape[0] - 1) // 2
    values = np.arange(-size, size + 1.0)
    mean = float((values * probs).sum() / total)
    var = float((values**2 * probs).sum() / total - mean**2)
    return mean, var
