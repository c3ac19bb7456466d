"""Columnar QKD session: preparation, channel, measurement, sifting,
error estimation and eavesdropper detection.

A session builds the outcome law of every pulse Bob or Eve measures, Alice's
thinned to its transmission (``laws._thinned_law``), into a moment
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
hypergeometric draw (``laws._hypergeometric``) by inversion of the uniform of
word 0 of pulse 0 on LANE_SESSION.

``alice_prepare``, ``bob_measure`` and the attack functions in
macroqkd.attacks are the single-pulse reference for the same physics:
plain functions that return tuples of states, bases and raw outcomes, each
sampling from exactly the law the table holds for its state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackConfig, AttackKind, _draw_basis
from .gaussian import GaussianState, SourceParams, alice_source, is_number
from .laws import _cell_laws, _dual_basis_law, _hypergeometric, _sign_thresholds
from .photostats import Basis, DetectorModel, bob_error_vs_loss, outcome_law, source_law
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
    if not (is_number(detection_sigma_k) and 0 < detection_sigma_k <= sys.float_info.max):
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
    three cumulative ones of ``laws._dual_basis_law`` per [bit, basis], or None
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
