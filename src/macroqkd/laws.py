"""Closed forms of the pulse's law and their numerics: pure functions of
floats and arrays, which import nothing else from the package.

- The source: ``solve_gain_squeeze`` (the gain equation's r) and
  ``_pulse_law`` (N, V_match, V_mis, N_T of the seed squeezed by r), which
  ``photostats.source_law`` reads and ``macroqkd.validate`` certifies.
- Thinning and read noise: ``_thinned_law``, the law of every pulse a
  session or a figure measures, and ``_cell_laws`` of it per cell.
- Normal tails: ``_erfc``, ``_flip_probabilities`` (Bob's bit-flip law),
  ``_normal_density`` (fig1) and ``_sign_thresholds`` (a session's draws).
- Dual-basis Eve's outcome law ``_dual_basis_law``, by the Gauss-Legendre
  rule ``_gauss_legendre`` and its recurrences.
- The disclosure draw ``_hypergeometric``.
"""

from __future__ import annotations

import functools
import heapq
import math
from itertools import count

import numpy as np


def solve_gain_squeeze(params: SourceParams) -> float:
    """Squeeze parameter r with N_T,amp(r) = gain_G * N_T,seed, in closed form.

    With x = 2r, a = n_s + 1 and b = 2|alpha_V||alpha_H| = sqrt(n_s^2 - N^2),
    the gain equation a cosh x + b sinh x = c for c = n_total_amp + 1 is
    the quadratic (a + b) y^2 - 2c y + (a - b) = 0 in y = e^x, where
    a^2 - b^2 = 2 n_s + 1 + N^2. Its larger root is written in ratios to c,
    so no square overflows, and the sums that can pass the float range
    (2 n_s, n_s + N, c + c root, a + b) are taken at a power-of-two scale,
    which changes no rounding.
    """
    n_s, n = params.n_total_seed, params.bit_amplitude_N
    c = params.n_total_amp + 1.0
    root = math.sqrt(1.0 - (n_s + 0.5) / c / c * 2.0 - (n / c) ** 2)
    half_a_plus_b = 0.5 * n_s + 0.5 + 2.0 * math.sqrt(0.25 * n_s - 0.25 * n) * math.sqrt(0.25 * n_s + 0.25 * n)
    return 0.5 * math.log(0.5 * c * (1.0 + root) / half_a_plus_b)


def _pulse_law(n_s, n, r):
    """(N, V_match, V_mis, N_T) of the seed of n_s photons and difference N
    squeezed by r. V_match = n_s (squeezing conserves n_V - n_H); V_mis =
    ((2 n_s + 1) cosh 4r + 2 b sinh 4r - 1) / 2 is summed in terms below it,
    with b = sqrt(n_s^2 - N^2) and 2 b h s taken at power-of-two scales
    that change no rounding, so it reads inf only past the float range."""
    b = 4.0 * math.sqrt(0.25 * n_s - 0.25 * n) * math.sqrt(0.25 * n_s + 0.25 * n)
    h, s, a = math.cosh(2.0 * r), math.sinh(2.0 * r), n_s + 0.5
    return n, n_s, a * h * h + a * s * s + b * h * s * 2.0 - 0.5, (n_s + 1.0) * h + b * s - 1.0


def _thinned_law(law, t, noise_variance=0.0):
    """(t N, launch-basis variance, other-basis variance) of Alice's pulse
    of ``source_law`` ``law`` after transmission t, read noise added: binomial
    thinning of both counts makes the mean +-t N in the launch basis (0 in the
    other) and the variance t^2 V + t (1 - t) N_T. Arrays of t broadcast."""
    n, v_match, v_mis, n_total = law
    shot = t * (1.0 - t) * n_total
    return t * n, t * t * v_match + shot + noise_variance, t * t * v_mis + shot + noise_variance


def _erfc(x: np.ndarray) -> np.ndarray:
    """``math.erfc`` elementwise: NumPy has none, and SciPy is not loaded."""
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _flip_probabilities(mean: np.ndarray, total_var: np.ndarray) -> np.ndarray:
    """0.5 erfc(|mean| / sqrt(2 total_var)) elementwise: exactly 0.5 at zero
    mean and 0 at zero variance otherwise. z is taken at half scale, which
    changes no rounding, so a variance past half the float range stays finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = 0.5 * np.abs(mean) / np.sqrt(0.5 * total_var)
    p = 0.5 * _erfc(z)
    p[total_var <= 0.0] = 0.0
    p[mean == 0.0] = 0.5
    return p


def _normal_density(grid: np.ndarray, mean: float, sigma: float) -> np.ndarray:
    """Normal(mean, sigma^2) probability density at each grid value; a
    distance past the float range reads inf, and its density 0."""
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * ((grid - mean) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))


def _cell_laws(law: tuple, t: float, noise_variance: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Normal laws (mean, variance) [bit, basis, measured basis] of Alice's
    pulses thinned to transmission t (``_thinned_law``), read noise added."""
    magnitude, launch, other = _thinned_law(law, t, noise_variance)
    match = np.eye(2, dtype=bool)[None].repeat(2, 0)  # the measured basis is the launch basis
    return np.where(match, magnitude, 0.0) * [[[-1.0]], [[1.0]]], np.where(match, launch, other)


def _sign_thresholds(mean: np.ndarray, variance: np.ndarray) -> np.ndarray:
    """53-bit thresholds of normal laws: the outcome mean + sqrt(variance)
    Phi^-1(((w >> 11) + 0.5) 2^-53) of a raw word w is >= 0 exactly when
    w >> 11 >= threshold."""
    # the lowest `opposed` uniforms read 0 when mean >= 0, else the top ones read 1
    opposed = _flip_probabilities(mean, variance) * 2.0**53
    thresholds = np.where(mean >= 0.0, np.ceil(opposed - 0.5), 2.0**53 - np.floor(opposed + 0.5))
    return thresholds.astype(np.uint64)


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and (1 - x^2) P_n'(x) = n (P_{n-1}(x) - x P_n(x)) by the
    three-term recurrence (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}."""
    prev, p = np.ones_like(x), x
    for j, step in zip(count(1.0), np.multiply.outer(np.arange(3.0, 2 * n, 2.0), x)):  # (2j + 1) x
        step *= p
        step -= j * prev
        step /= j + 1.0
        prev, p = p, step
    return p, n * (prev - x * p)


def _legendre_near_one(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_legendre`` at x = 1 - t, by the same recurrence on the differences
    E_j = P_j - P_{j-1}: (j + 1) E_{j+1} = j E_j - (2j + 1) t P_j. As x -> 1
    every P_j is near 1, and the plain recurrence's rounding errors in
    P_j - P_{j-1} grow about j-fold; here the small E_j keep their own
    relative precision."""
    p, e = 1.0 - t, -t
    for j, step in zip(count(1.0), np.multiply.outer(np.arange(3.0, 2 * n, 2.0), t)):  # (2j + 1) t
        step *= p
        e *= j
        e -= step
        e /= j + 1.0
        p += e
    return p, n * (t * p - e)


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes on [-1, 1] and half-weights 1 / ((1 - x^2) P_n'(x)^2)
    of the n-point Gauss-Legendre rule, in two recurrence passes over x >= 0
    (Davis & Rabinowitz, Methods of Numerical Integration, 2nd ed. (1984)).

    The first pass takes one Halley step from Tricomi's estimate, with P_n''
    from Legendre's equation (1 - x^2) P'' = 2x P' - n(n + 1) P. The second
    takes one Newton step to the root r = x + d: below |x| = 1/2 with
    ``_legendre``, from 1/2 on with ``_legendre_near_one`` at t = 1 - x,
    which is exact there. A weight's relative error is 2|x| / (1 - x^2)
    times its node's, so the weights are taken at r itself, with
    1 - r^2 = (1 - x^2) - (2x + d) d. (1 - x^2) P_n' has derivative
    -n(n + 1) P_n, so from x to r it moves by about -n(n + 1) P_n d / 2,
    which after the Halley step is below rounding: the slope is not moved.
    At 80 nodes every node is within 1 ulp of the correctly rounded root;
    at every n up to 320 every node is within 0.6 * 2^-53 of its root, a
    few of its own ulps for the smallest. At 80 and 320 nodes the weights
    are within 2e-15 and 6e-15 relative of 50-digit ones. No LAPACK routine
    runs."""
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    x = (x - x[::-1]) / 2.0  # exactly odd, so an odd rule's middle node is 0
    y, c = x[n // 2 :], n * (n + 1.0)  # the nonnegative half, ascending; the rule mirrors it
    s = (1.0 - y) * (1.0 + y)
    p, q = _legendre(n, y)
    slope = q / s
    y = y - 2.0 * p * slope / (2.0 * slope * slope - p * (2.0 * y * slope - c * p) / s)
    s, m = (1.0 - y) * (1.0 + y), int(np.count_nonzero(y < 0.5))
    (p, q), (p_near, q_near) = _legendre(n, y[:m]), _legendre_near_one(n, 1.0 - y[m:])
    p, q = np.concatenate((p, p_near)), np.concatenate((q, q_near))
    d = -p * s / q
    w = (s - (2.0 * y + d) * d) / q**2
    y = y + d
    x, weights = np.concatenate((-y[::-1][: n // 2], y)), np.concatenate((w[::-1][: n // 2], w))
    x.setflags(write=False)
    weights.setflags(write=False)
    return x, weights


def _dual_basis_law(arms: np.ndarray, nodes: int = 80) -> np.ndarray:
    """Probabilities of dual-basis Eve's outcomes (V/H,0), (V/H,1), (DIAG,0),
    (DIAG,1) from independent arm laws arms[..., arm basis, (mean, sigma)]:
    she trusts the arm of smaller magnitude and reads its sign.

    The arms are independent by a symmetry. Alice's pulses are invariant
    under the antiunitary K P_H: complex conjugation in the Fock basis
    composed with a_H -> -a_H. The seed (alpha_V real, alpha_H = i|alpha_H|)
    and the squeeze at PUMP_PHASE (e^{i theta} = i) map to themselves, and
    the 50/50 split, loss and detector efficiency are real maps on vacuum
    ancillas, so the tap state keeps the symmetry. Under it n_V - n_H is
    even and a_V^dag a_H + h.c. odd (for DIAG pulses the -pi/4 rotation
    swaps the two roles), so the covariance of one arm's V/H difference
    with the other arm's diagonal difference (``joint_diff_moments``'
    cov_be) is exactly zero, and the normal pair has independent components.

    Gauss-Legendre quadrature over the narrower arm B, in two pieces split
    at its kink B = 0 and out to 12 sigma; at B = b the wider arm A enters
    by its mass outside +-|b| and, split by sign, inside. The rule
    (``_gauss_legendre``) is built once per process, in two recurrence
    passes and without an eigensolver.
    """
    x, weights = _gauss_legendre(nodes)
    swap = arms[..., 1, 1] < arms[..., 0, 1]  # the diagonal arm is the narrower one
    ordered = np.where(swap[..., None, None], arms[..., ::-1, :], arms)
    (mb, sb), (ma, sa) = np.moveaxis(ordered, (-2, -1), (0, 1))[..., None, None]
    cut = np.clip(-mb / sb, -12.0, 12.0)  # B = 0 in standard units
    side = np.array([[-1.0], [1.0]])  # piece 0 runs down from B = 0, piece 1 up
    half = (12.0 - side * cut) / 2.0
    z = cut + side * half * (1.0 + x)
    weight = half * 2.0 * weights * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    c, r = np.abs(mb + sb * z), sa * math.sqrt(2.0)
    above, below = 0.5 * _erfc((c - ma) / r), 0.5 * _erfc((c + ma) / r)  # P(A >= |b|), P(A <= -|b|)
    narrow = (weight * (above + below)).sum(-1)  # B trusted, by piece: bit 0, bit 1
    # A trusted: P(-|b| < A < 0) = P(A < 0) - below, P(0 <= A < |b|) = P(A >= 0) - above
    inside = (weight * (0.5 * _erfc(np.stack((ma, -ma)) / r) - np.stack((below, above)))).sum((-2, -1))
    law = np.concatenate((narrow, np.moveaxis(inside, 0, -1)), -1)
    return np.where(swap[..., None], np.roll(law, 2, -1), law)


def _hypergeometric(good: int, bad: int, k: int, u: float) -> int:
    """Hypergeometric(good, bad, k), the good items in a uniform k-subset of
    good + bad, by inversion of a uniform u in [0, 1).

    The pmf-ratio recurrence p(x + 1) / p(x) = (good - x)(k - x) /
    ((x + 1)(bad - k + x + 1)) gives every weight relative to the mode
    m = floor((k + 1)(good + 1) / (good + bad + 2)), out to each end of the
    support or to where the rest of that tail, which falls off faster than
    a geometric series (the law is log-concave), is below 2^-64 of the
    mode's weight. Their sum S normalizes them. u S is then spent on m and
    on its neighbours outward in order of weight, so each outcome takes an
    interval of u of length p(x), exactly up to rounding.
    """
    lo, hi = max(0, k - bad), min(k, good)
    mode = (k + 1) * (good + 1) // (good + bad + 2)
    down, x, w = [], mode, 1.0  # p(mode - 1 - j) / p(mode)
    while x > lo:
        r = x * (bad - k + x) / ((good - x + 1) * (k - x + 1))  # p(x - 1) / p(x)
        w *= r
        x -= 1
        down.append(w)
        if w < 2.0**-64 * (1.0 - r):
            break
    up, x, w = [], mode, 1.0  # p(mode + 1 + j) / p(mode)
    while x < hi:
        r = (good - x) * (k - x) / ((x + 1) * (bad - k + x + 1))  # p(x + 1) / p(x)
        w *= r
        x += 1
        up.append(w)
        if w < 2.0**-64 * (1.0 - r):
            break
    t = u * math.fsum([1.0, *down, *up]) - 1.0  # the mode weighs 1
    x = mode
    for w, outcome in heapq.merge(zip(down, count(mode - 1, -1)), zip(up, count(mode + 1)), reverse=True):
        if t < 0.0:
            break
        t -= w
        x = outcome
    return x
