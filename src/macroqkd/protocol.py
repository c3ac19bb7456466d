"""Pulse-by-pulse QKD session: preparation, channel, measurement, sifting,
error estimation and eavesdropper detection.

Determinism contract: every pulse draws from its own counter-based stream
(see macroqkd.streams) with a fixed draw order

    1. Alice's bit          integers(0, 2)
    2. Alice's basis        integers(0, 2)  (0 = V/H, 1 = +45/-45)
    3. attack draws         (kind-specific, fixed per kind)
    4. Bob's basis          integers(0, 2)
    5. Bob's outcome        one standard normal

so a session is reproducible bit-for-bit from (config, seed), and each
pulse's records do not depend on how the index range is split or in what
order the pieces run. Error-estimation sampling uses the
dedicated session lane; Eve's deferred measurements use the deferred lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attacks import (
    AttackConfig,
    AttackKind,
    EveRecord,
    beamsplitter_tap,
    dual_basis_measure,
    eve_deferred_measure,
    intercept_resend,
    superior_channel,
)
from .gaussian import GaussianState, SourceParams, alice_source, apply_loss
from .photostats import (
    Basis,
    DetectorModel,
    decode_bit,
    detected_state,
    diff_number_moments,
    bob_error_vs_loss,
    sample_outcome,
)
from .streams import LANE_PULSE, LANE_SESSION, derive_stream

VERDICT_CLEAN = "clean"
VERDICT_DETECTED = "eavesdropper_detected"

_MAX_PULSES = 1 << 48


@dataclass(frozen=True, slots=True)
class PulseRecord:
    index: int
    alice_bit: int
    alice_basis: Basis


@dataclass(frozen=True, slots=True)
class MeasurementRecord:
    index: int
    bob_basis: Basis
    raw_n: float
    decoded_bit: int


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
    if not 0.0 <= channel_loss < 1.0:
        out.append(f"channel_loss must be in [0, 1) (got {channel_loss})")
    if not 0 < num_pulses < _MAX_PULSES:
        out.append(f"num_pulses must be in 1..2^48 (got {num_pulses})")
    if not 0.0 < sample_fraction < 1.0:
        out.append(f"sample_fraction must be in (0, 1) (got {sample_fraction})")
    if not detection_sigma_k > 0:
        out.append(f"detection_sigma_k must be > 0 (got {detection_sigma_k})")
    if not 0 <= seed < 2**64:
        out.append(f"seed must be a 64-bit unsigned integer (got {seed})")
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
    index: int, config: SessionConfig, rng: np.random.Generator
) -> tuple[PulseRecord, GaussianState]:
    """Draw Alice's (bit, basis) for one pulse and build the encoded state."""
    bit = int(rng.integers(0, 2))
    basis = Basis.VH if rng.integers(0, 2) == 0 else Basis.DIAG
    return PulseRecord(index, bit, basis), alice_source(config.source, bit, basis)


def bob_measure(
    state: GaussianState, index: int, config: SessionConfig, rng: np.random.Generator
) -> MeasurementRecord:
    """Bob's randomized-basis difference-number measurement of one pulse."""
    basis = Basis.VH if rng.integers(0, 2) == 0 else Basis.DIAG
    moments = diff_number_moments(detected_state(state, config.detector), basis)
    raw = sample_outcome(moments, config.detector, rng)
    return MeasurementRecord(index, basis, raw, decode_bit(raw))


def sift(
    alice: list[PulseRecord], bob: list[MeasurementRecord]
) -> list[int]:
    """Indices where Alice's and Bob's bases agree."""
    if len(alice) != len(bob):
        raise ValueError(f"record lists differ in length ({len(alice)} vs {len(bob)})")
    kept = []
    for a, b in zip(alice, bob):
        if a.index != b.index:
            raise ValueError(f"misaligned records at index {a.index} vs {b.index}")
        if a.alice_basis is b.bob_basis:
            kept.append(a.index)
    return kept


def estimate_error(
    alice_bits: list[int],
    bob_bits: list[int],
    sample_fraction: float,
    rng: np.random.Generator,
) -> tuple[float, list[int]]:
    """Publicly compare a sampled subset of the sifted key.

    Samples round(sample_fraction * len) positions without replacement,
    returns the observed disagreement rate and Bob's remaining key with the
    disclosed positions removed. A sample of zero positions returns rate
    0.0 and the full key.
    """
    if len(alice_bits) != len(bob_bits):
        raise ValueError("sifted bit strings differ in length")
    n = len(alice_bits)
    if n == 0:
        raise ValueError("sifted key is empty")
    k = round(sample_fraction * n)
    if k == 0:
        return 0.0, list(bob_bits)
    chosen = rng.choice(n, size=k, replace=False)
    chosen_set = set(int(j) for j in chosen)
    errors = sum(1 for j in chosen_set if alice_bits[j] != bob_bits[j])
    remaining = [bob_bits[j] for j in range(n) if j not in chosen_set]
    return errors / k, remaining


def detect_eavesdropping(
    estimated_error_rate: float, sampled_count: int, config: SessionConfig
) -> str:
    """k-sigma test of the estimated error rate against the systematic rate
    expected from the characterized channel loss alone."""
    if sampled_count <= 0:
        raise ValueError("sampled_count must be > 0")
    e_sys = bob_error_vs_loss(config.source, config.channel_loss, config.detector)
    threshold = e_sys + config.detection_sigma_k * math.sqrt(
        e_sys * (1.0 - e_sys) / sampled_count
    )
    return VERDICT_DETECTED if estimated_error_rate > threshold else VERDICT_CLEAN


def _simulate_pulse(
    index: int, config: SessionConfig, store: dict[int, EveRecord]
) -> tuple[PulseRecord, MeasurementRecord, EveRecord | None]:
    rng = derive_stream(config.seed, LANE_PULSE, index)
    pulse_rec, state = alice_prepare(index, config, rng)
    attack = config.attack
    eve_rec: EveRecord | None = None
    bypass_channel = False

    if attack.kind is AttackKind.INTERCEPT_RESEND:
        state, eve_rec = intercept_resend(
            state, index, rng, config.source, attack.eve_detector
        )
    elif attack.kind is AttackKind.BEAMSPLITTER_TAP:
        state, eve_rec = beamsplitter_tap(
            state, index, attack.tap_fraction, rng, attack.eve_detector
        )
    elif attack.kind is AttackKind.DUAL_BASIS:
        state, eve_rec = dual_basis_measure(
            state, index, rng, config.source, attack.eve_detector
        )
    elif attack.kind is AttackKind.SUPERIOR_CHANNEL:
        state = superior_channel(state, index, store)
        bypass_channel = True  # Eve substitutes her lossless channel

    if not bypass_channel and config.channel_loss > 0.0:
        state = apply_loss(state, config.channel_loss)
    meas_rec = bob_measure(state, index, config, rng)
    return pulse_rec, meas_rec, eve_rec


def _simulate_range(
    indices: range, config: SessionConfig
) -> tuple[list[PulseRecord], list[MeasurementRecord], list[EveRecord], dict[int, EveRecord]]:
    store: dict[int, EveRecord] = {}
    pulses, measurements, eve_records = [], [], []
    for i in indices:
        try:
            p, m, e = _simulate_pulse(i, config, store)
        except Exception as exc:
            raise RuntimeError(f"pulse {i} failed: {exc}") from exc
        pulses.append(p)
        measurements.append(m)
        if e is not None:
            eve_records.append(e)
    return pulses, measurements, eve_records, store


def run_session(config: SessionConfig) -> RunReport:
    """Execute a full QKD session and summarize it."""
    attack = config.attack
    n = config.num_pulses
    pulses, measurements, eve_records, store = _simulate_range(range(n), config)

    sifted = sift(pulses, measurements)
    alice_bits = [pulses[i].alice_bit for i in sifted]
    bob_bits = [measurements[i].decoded_bit for i in sifted]
    bob_accuracy = (
        sum(1 for a, b in zip(alice_bits, bob_bits) if a == b) / len(sifted)
        if sifted
        else None
    )

    if sifted:
        est_rng = derive_stream(config.seed, LANE_SESSION, 0)
        estimated, remaining = estimate_error(
            alice_bits, bob_bits, config.sample_fraction, est_rng
        )
        sampled_count = len(sifted) - len(remaining)
    else:
        estimated, remaining, sampled_count = 0.0, [], 0

    if sampled_count > 0:
        verdict = detect_eavesdropping(estimated, sampled_count, config)
    else:
        verdict = VERDICT_CLEAN

    eve_accuracy: float | None = None
    if attack.kind is AttackKind.SUPERIOR_CHANNEL:
        revealed = [(i, pulses[i].alice_basis) for i in sifted]
        completed = eve_deferred_measure(store, revealed, config.seed, attack.eve_detector)
        if completed:
            hits = sum(
                1 for rec in completed if rec.inferred_bit == pulses[rec.index].alice_bit
            )
            eve_accuracy = hits / len(completed)
    elif attack.kind is not AttackKind.NONE:
        if eve_records:
            hits = sum(
                1 for rec in eve_records if rec.inferred_bit == pulses[rec.index].alice_bit
            )
            eve_accuracy = hits / len(eve_records)

    return RunReport(
        pulses_sent=n,
        sifted_count=len(sifted),
        sampled_count=sampled_count,
        estimated_error_rate=estimated,
        expected_systematic_error=bob_error_vs_loss(
            config.source, config.channel_loss, config.detector
        ),
        detection_verdict=verdict,
        eve_bit_accuracy=eve_accuracy,
        bob_bit_accuracy=bob_accuracy,
        final_key_bits=len(remaining),
    )
