"""Columnar QKD session: preparation, channel, measurement, sifting,
error estimation and eavesdropper detection.

A session builds the outcome law of every pulse Bob or Eve measures, Alice's
thinned to its transmission (``photostats._thinned_law``), into a moment
table, then draws chunks of pulses as arrays; the single-pulse reference
reads the same laws off the states it builds (``photostats.outcome_law``).

Determinism contract: pulse i's draws are a pure function of (seed, lane,
i) (see macroqkd.streams), so a session is reproducible bit-for-bit from
(config, seed) and its per-pulse cell codes do not depend on how the pulses
are chunked or in what order the chunks run. Pulse i's block of three
words on LANE_PULSE is laid out as

    word 0  bit 63 Alice's bit, bit 62 Alice's basis (0 = V/H,
            1 = +45/-45), bit 61 Eve's basis, bit 60 Bob's basis
    word 1  Bob's uniform
    word 2  Eve's uniform

where word w is the uniform u = ((w >> 11) + 0.5) 2^-53. Each outcome is
the number of its cell's thresholds that w >> 11 reaches: one for a bit,
the sign of a normal outcome Phi^-1(u), and three cumulative ones for
dual-basis Eve's (basis, bit). A pulse reduces to a 6-bit cell code: from
bit 5 down, Alice's bit and basis, Bob's basis and bit, and Eve's basis
and bit (0 without an attack). A session's counts are masked sums over
one 64-bin histogram of the codes; the disclosed sample's errors are one
hypergeometric draw (``_hypergeometric``) by inversion of the uniform of
word 0 of pulse 0 on LANE_SESSION.

``alice_prepare``, ``bob_measure`` and the attack functions in
macroqkd.attacks are the single-pulse reference for the same physics:
plain functions that return tuples of states, bases and raw outcomes, each
sampling from exactly the law the table holds for its state.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .attacks import AttackConfig, AttackKind, _draw_basis
from .gaussian import GaussianState, SourceParams, alice_source, is_number
from .photostats import (
    Basis,
    DetectorModel,
    _erfc,
    _flip_probabilities,
    _thinned_law,
    bob_error_vs_loss,
    outcome_law,
    source_law,
)
from .streams import LANE_PULSE, LANE_SESSION, pulse_block

VERDICT_CLEAN = "clean"
VERDICT_DETECTED = "eavesdropper_detected"

# a session reads at most 3e9 words on LANE_PULSE, the window that the
# stream-overlap bound in macroqkd.streams is stated for
_MAX_PULSES = 10**9


@dataclass(frozen=True)
class SessionConfig:
    source: SourceParams
    channel_loss: float = 0.0
    detector: DetectorModel = field(default_factory=DetectorModel)
    attack: AttackConfig = field(default_factory=AttackConfig)
    num_pulses: int = 10_000
    sample_fraction: float = 0.1
    detection_sigma_k: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        problems = session_violations(
            self.channel_loss,
            self.num_pulses,
            self.sample_fraction,
            self.detection_sigma_k,
            self.seed,
        )
        if problems:
            raise ValueError("; ".join(problems))


def session_violations(
    channel_loss: float,
    num_pulses: int,
    sample_fraction: float,
    detection_sigma_k: float,
    seed: int,
) -> list[str]:
    out = []
    if not (is_number(channel_loss) and 0.0 <= channel_loss < 1.0):
        out.append(f"channel_loss must be in [0, 1) (got {channel_loss!r})")
    if not (is_number(num_pulses, integral=True) and 0 < num_pulses <= _MAX_PULSES):
        out.append(f"num_pulses must be an integer in 1..10^9 (got {num_pulses!r})")
    if not (is_number(sample_fraction) and 0.0 < sample_fraction < 1.0):
        out.append(f"sample_fraction must be in (0, 1) (got {sample_fraction!r})")
    if not (is_number(detection_sigma_k) and 0 < detection_sigma_k < math.inf):
        out.append(f"detection_sigma_k must be finite and > 0 (got {detection_sigma_k!r})")
    if not (is_number(seed, integral=True) and 0 <= seed < 2**64):
        out.append(f"seed must be a 64-bit unsigned integer (got {seed!r})")
    return out


@dataclass(frozen=True)
class RunReport:
    """Session summary."""

    pulses_sent: int
    sifted_count: int
    sampled_count: int
    estimated_error_rate: float
    expected_systematic_error: float
    detection_verdict: str
    eve_bit_accuracy: float | None
    bob_bit_accuracy: float | None
    final_key_bits: int


def alice_prepare(
    config: SessionConfig, rng: np.random.Generator
) -> tuple[int, Basis, GaussianState]:
    """Draw Alice's (bit, basis) for one pulse and build the encoded state."""
    bit = int(rng.integers(0, 2))
    basis = _draw_basis(rng)
    return bit, basis, alice_source(config.source, bit, basis)


def bob_measure(
    state: GaussianState, config: SessionConfig, rng: np.random.Generator
) -> tuple[Basis, float]:
    """Bob's randomized-basis difference-number measurement of one pulse:
    his basis and raw outcome (his bit is ``decode_bit`` of it)."""
    basis = _draw_basis(rng)
    mean, sigma = outcome_law(state, basis, config.detector)
    return basis, mean + sigma * rng.standard_normal()


def sift(alice_bases: np.ndarray, bob_bases: np.ndarray) -> np.ndarray:
    """Indices where Alice's and Bob's basis codes agree."""
    alice_bases, bob_bases = np.asarray(alice_bases), np.asarray(bob_bases)
    if alice_bases.shape != bob_bases.shape:
        raise ValueError(
            f"basis arrays differ in length ({len(alice_bases)} vs {len(bob_bases)})"
        )
    return np.flatnonzero(alice_bases == bob_bases)


def estimate_error(
    alice_bits: np.ndarray,
    bob_bits: np.ndarray,
    sample_fraction: float,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray]:
    """Publicly compare a sampled subset of the sifted key (the reference
    for ``run_session``, which draws only the count of disagreements).

    Samples round(sample_fraction * len) positions without replacement,
    returns the observed disagreement rate and Bob's remaining key with the
    disclosed positions removed. A sample of zero positions returns rate
    0.0 and the full key.
    """
    alice_bits, bob_bits = np.asarray(alice_bits), np.asarray(bob_bits)
    if len(alice_bits) != len(bob_bits):
        raise ValueError("sifted bit strings differ in length")
    n = len(alice_bits)
    if n == 0:
        raise ValueError("sifted key is empty")
    k = round(sample_fraction * n)
    if k == 0:
        return 0.0, bob_bits
    chosen = rng.choice(n, size=k, replace=False)
    errors = int(np.count_nonzero(alice_bits[chosen] != bob_bits[chosen]))
    return errors / k, np.delete(bob_bits, chosen)


def detect_eavesdropping(
    estimated_error_rate: float, sampled_count: int, config: SessionConfig
) -> str:
    """k-sigma test of the estimated error rate against the systematic rate
    e_sys expected from the characterized channel loss alone
    (``bob_error_vs_loss``); ``run_session`` applies the same test
    (``_verdict``) to the e_sys it reports."""
    if sampled_count <= 0:
        raise ValueError("sampled_count must be > 0")
    e_sys = bob_error_vs_loss(config.source, config.channel_loss, config.detector)
    return _verdict(estimated_error_rate, sampled_count, e_sys, config.detection_sigma_k)


def _verdict(estimated_error_rate: float, sampled_count: int, e_sys: float, sigma_k: float) -> str:
    """Detected when the estimate exceeds e_sys + k sqrt(e_sys (1 - e_sys) / sampled_count)."""
    threshold = e_sys + sigma_k * math.sqrt(e_sys * (1.0 - e_sys) / sampled_count)
    return VERDICT_DETECTED if estimated_error_rate > threshold else VERDICT_CLEAN


@dataclass(frozen=True)
class MomentTable:
    """Outcome laws of every state one session can measure, read noise
    included, as uint64 thresholds on w >> 11, and the session's draw plan.
    Basis codes are 0 = V/H and 1 = +45/-45. ``bob[bit, basis, bob_basis]``
    is Bob's sign threshold on the pulse sent to him: Alice's, or Eve's
    re-prepared one under intercept-resend and dual-basis. ``eve`` holds
    Eve's sign thresholds per [bit, basis, eve_basis], dual-basis Eve's
    three cumulative ones of ``_dual_basis_law`` per [bit, basis], or None
    without an attack. The plan reads cell codes: ``head[nibble]`` holds the
    code bits of the head word's top nibble, ``draws`` the ordered steps
    (word, shift, thresholds[k, 64]), Eve's into bits 1-0 if she attacks,
    then Bob's into bit 2, and ``eve_seen`` the cells Eve's accuracy counts.
    """

    bob: np.ndarray
    eve: np.ndarray | None
    head: np.ndarray
    draws: tuple[tuple[int, int, np.ndarray], ...]
    eve_seen: np.ndarray


# pulses drawn per array pass; results do not depend on it. 2^13 pulses are 192 KiB
# of raw words (3 x 8 B each), about one L2 cache, and keep a pass's arrays far below
# glibc's heap-trim threshold; 2^14 ran no faster and peaked 0.4 MiB higher
_CHUNK = 1 << 13
# the fields of all 64 cell codes
_ALICE_BIT, _ALICE_BASIS, _BOB_BASIS, _BOB_BIT, _EVE_BASIS, _EVE_BIT = np.indices((2,) * 6).reshape(6, 64)
_SIFTED = _ALICE_BASIS == _BOB_BASIS


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


def _moment_table(config: SessionConfig) -> MomentTable:
    """The session's outcome laws and draw plan: every attack's rules."""
    kind, detector = config.attack.kind, config.detector
    superior = kind is AttackKind.SUPERIOR_CHANNEL
    tap = config.attack.tap_fraction if kind is AttackKind.BEAMSPLITTER_TAP else 0.0
    # Bob's pulse passes the tap, the channel and his detector's efficiency; the
    # superior channel's lossless substitute bypasses the loss with half the pulse
    bob_t = (0.5 if superior else (1.0 - config.channel_loss) * (1.0 - tap)) * detector.quantum_efficiency
    law = source_law(config.source)
    bob = _sign_thresholds(*_cell_laws(law, bob_t, detector.difference_noise_variance))
    # Eve holds the whole pulse, her tap, or half of it, through ideal detectors
    eve_t = {AttackKind.INTERCEPT_RESEND: 1.0, AttackKind.BEAMSPLITTER_TAP: tap}.get(kind, 0.5)
    eve = None if kind is AttackKind.NONE else _cell_laws(law, eve_t)
    nibble = np.arange(16, dtype=np.uint8)  # Alice's bit and basis, Eve's basis, Bob's basis
    head = (nibble & 12) << 2 | (nibble & 1) << 3  # Alice's bits to bits 5 and 4, Bob's basis to 3
    # superior-channel Eve measures her stored half in Alice's basis, once the bases are revealed
    eve_seen, draws = _SIFTED if superior else np.full(64, eve is not None), ()
    if kind is AttackKind.DUAL_BASIS:
        arms = np.stack((eve[0], np.sqrt(eve[1])), -1)  # (mean, sigma) of each arm
        cumulative = np.clip(np.cumsum(_dual_basis_law(arms)[..., :3], -1), 0.0, 1.0)
        eve = np.rint(cumulative * 2.0**53).astype(np.uint64)
        draws = ((2, 0, eve[_ALICE_BIT, _ALICE_BASIS].T),)
    elif eve is not None:
        eve = _sign_thresholds(*eve)
        head |= nibble >> 1 & 2 if superior else nibble & 2  # Eve's basis to bit 1
        draws = ((2, 0, eve[_ALICE_BIT, _ALICE_BASIS, _EVE_BASIS][None]),)
    # Bob measures the pulse Alice launched, or the one Eve re-prepares
    resent = kind in (AttackKind.INTERCEPT_RESEND, AttackKind.DUAL_BASIS)
    sent = (_EVE_BIT, _EVE_BASIS) if resent else (_ALICE_BIT, _ALICE_BASIS)
    return MomentTable(bob, eve, head, draws + ((1, 2, bob[(*sent, _BOB_BASIS)][None]),), eve_seen)


def _pulse_cells(config: SessionConfig, table: MomentTable, lo: int, hi: int) -> np.ndarray:
    """uint8 cell codes of pulses [lo, hi): the head bits, then per draw the
    number of its thresholds, taken by the code so far, its uniform reaches."""
    words = pulse_block(config.seed, LANE_PULSE, lo, hi)
    cells = table.head.take((words[:, 0] >> 60).astype(np.uint8))  # take is 2x slower on uint64 indices
    for w, shift, thresholds in table.draws:
        # the uniform in place: copies lift a chunk's peak near twice the
        # word block, where glibc's malloc trims the heap and every chunk refaults it
        words[:, w] >>= 11
        cells |= sum((words[:, w] >= t.take(cells)).view(np.uint8) for t in thresholds) << shift
    return cells


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


def run_session(config: SessionConfig) -> RunReport:
    """Execute a full QKD session and summarize it from one cell histogram."""
    n = config.num_pulses
    e_sys = bob_error_vs_loss(config.source, config.channel_loss, config.detector)
    table = _moment_table(config)
    chunks = (_pulse_cells(config, table, lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK))
    cells = sum(np.bincount(c, minlength=64) for c in chunks)
    n_sifted, agree = int(cells[_SIFTED].sum()), int(cells[_SIFTED & (_ALICE_BIT == _BOB_BIT)].sum())
    eve_seen = int(cells[table.eve_seen].sum())
    eve_hits = int(cells[table.eve_seen & (_ALICE_BIT == _EVE_BIT)].sum())

    sampled_count = round(config.sample_fraction * n_sifted)
    if sampled_count > 0:
        # the disagreements in a uniform k-subset of the sifted key are
        # Hypergeometric(disagreements, agreements, k)
        word = int(pulse_block(config.seed, LANE_SESSION, 0, 1)[0, 0])
        errors = _hypergeometric(n_sifted - agree, agree, sampled_count, ((word >> 11) + 0.5) * 2.0**-53)
        estimated = errors / sampled_count
        verdict = _verdict(estimated, sampled_count, e_sys, config.detection_sigma_k)
    else:
        estimated, verdict = 0.0, VERDICT_CLEAN

    return RunReport(
        pulses_sent=n,
        sifted_count=n_sifted,
        sampled_count=sampled_count,
        estimated_error_rate=estimated,
        expected_systematic_error=e_sys,
        detection_verdict=verdict,
        eve_bit_accuracy=eve_hits / eve_seen if eve_seen else None,
        bob_bit_accuracy=agree / n_sifted if n_sifted else None,
        final_key_bits=n_sifted - sampled_count,
    )
