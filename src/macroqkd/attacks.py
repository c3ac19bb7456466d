"""Eavesdropping strategies acting on pulses in transit.

Each interceptor consumes the pulse Alice launched into the channel and
returns what travels on toward Bob plus a record of Eve's measurements and
inferences. Re-preparing attacks give Eve an ideal source: she forwards a
perfect fresh pulse encoding her inference, so all induced errors stem
from wrong inferences rather than sloppy state preparation.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import MutableMapping, Sequence

import numpy as np

from .gaussian import (
    GaussianState,
    SourceParams,
    alice_source,
    take_marginal,
    tap_split,
)
from .photostats import (
    Basis,
    DetectorModel,
    NOISELESS,
    decode_bit,
    detected_state,
    diff_number_moments,
    joint_diff_moments,
    sample_outcome,
)
from .streams import LANE_DEFERRED, derive_stream


class AttackKind(enum.Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept_resend"
    BEAMSPLITTER_TAP = "beamsplitter_tap"
    DUAL_BASIS = "dual_basis"
    SUPERIOR_CHANNEL = "superior_channel"


@dataclass(frozen=True)
class AttackConfig:
    """Which attack is active and its parameters."""

    kind: AttackKind = AttackKind.NONE
    tap_fraction: float | None = None
    eve_detector: DetectorModel = NOISELESS

    def __post_init__(self) -> None:
        problems = attack_config_violations(self.kind, self.tap_fraction)
        if problems:
            raise ValueError("; ".join(problems))


def attack_config_violations(kind: AttackKind, tap_fraction: float | None) -> list[str]:
    out = []
    if kind is AttackKind.BEAMSPLITTER_TAP:
        if tap_fraction is None or not 0.0 < tap_fraction < 1.0:
            out.append(f"beamsplitter_tap requires tap_fraction in (0, 1) (got {tap_fraction})")
    elif tap_fraction is not None:
        out.append(f"tap_fraction only applies to beamsplitter_tap (kind is {kind.value})")
    return out


@dataclass(frozen=True, slots=True)
class EveRecord:
    """Eve's bookkeeping for one pulse.

    ``eve_basis`` is None when no single basis applies (dual-basis records
    both arms; deferred records have no basis until revelation).
    ``raw_values`` holds the measured difference numbers, one per arm.
    Deferred records keep the stored Gaussian marginal until Eve measures
    it after the public basis discussion.
    """

    index: int
    eve_basis: Basis | None
    raw_values: tuple[float, ...]
    inferred_bit: int | None
    deferred: bool = False
    stored_state: GaussianState | None = None


@functools.lru_cache(maxsize=256)
def _cached_relabel(joint: GaussianState, labels: tuple[str, ...]) -> GaussianState:
    """Two-mode (V, H) marginal of a tap output, memoized per joint state."""
    marg = take_marginal(joint, labels)
    return GaussianState(("V", "H"), marg.mean, marg.cov)


def tap_arms(state: GaussianState, eta_e: float) -> tuple[GaussianState, GaussianState]:
    """Bob's transmitted and Eve's tapped (V, H) marginals when a fraction
    eta_e of the pulse is diverted on a non-polarizing beamsplitter."""
    joint = tap_split(state, eta_e)
    return _cached_relabel(joint, ("V_B", "H_B")), _cached_relabel(joint, ("V_E", "H_E"))


def dual_basis_cholesky(
    state: GaussianState, detector: DetectorModel = NOISELESS
) -> tuple[float, float, float, float, float]:
    """Joint law of Eve's two dual-basis arm outcomes on a pulse.

    Returns (mean_vh, l11, mean_dg, l21, l22): the arms' means and the
    lower-triangular Cholesky factor of their 2x2 covariance, read noise
    included, so (raw_vh, raw_dg) = (mean_vh + l11 z0,
    mean_dg + l21 z0 + l22 z1) for independent standard normals z0, z1.
    """
    joint = detected_state(tap_split(state, 0.5), detector)
    mean_vh, var_vh, mean_dg, var_dg, cov = joint_diff_moments(joint, Basis.VH, Basis.DIAG)
    var_vh += detector.difference_noise_variance
    var_dg += detector.difference_noise_variance
    l11 = math.sqrt(var_vh)
    l21 = cov / l11 if l11 > 0 else 0.0
    l22 = math.sqrt(max(var_dg - l21 * l21, 0.0))
    return mean_vh, l11, mean_dg, l21, l22


def _draw_basis(rng: np.random.Generator) -> Basis:
    return Basis.VH if rng.integers(0, 2) == 0 else Basis.DIAG


def intercept_resend(
    state: GaussianState,
    index: int,
    rng: np.random.Generator,
    source_params: SourceParams,
    detector: DetectorModel = NOISELESS,
) -> tuple[GaussianState, EveRecord]:
    """Attack one: capture the whole pulse, measure in a random basis,
    forward a fresh pulse encoding the inferred bit in that basis."""
    basis = _draw_basis(rng)
    moments = diff_number_moments(detected_state(state, detector), basis)
    raw = sample_outcome(moments, detector, rng)
    bit = decode_bit(raw)
    resent = alice_source(source_params, bit, basis)
    return resent, EveRecord(index, basis, (raw,), bit)


def beamsplitter_tap(
    state: GaussianState,
    index: int,
    eta_e: float,
    rng: np.random.Generator,
    detector: DetectorModel = NOISELESS,
    known_basis: Basis | None = None,
) -> tuple[GaussianState, EveRecord]:
    """Attack two: divert a fraction eta_e of the pulse and measure it.

    Bob receives the transmitted beamsplitter output, so the channel as a
    whole shows the extra loss. ``known_basis`` is a diagnostic mode where
    Eve is granted the correct basis instead of guessing.
    """
    bob, eve = tap_arms(state, eta_e)
    basis = known_basis if known_basis is not None else _draw_basis(rng)
    moments = diff_number_moments(detected_state(eve, detector), basis)
    raw = sample_outcome(moments, detector, rng)
    return bob, EveRecord(index, basis, (raw,), decode_bit(raw))


def dual_basis_measure(
    state: GaussianState,
    index: int,
    rng: np.random.Generator,
    source_params: SourceParams,
    detector: DetectorModel = NOISELESS,
) -> tuple[GaussianState, EveRecord]:
    """Attack three: split 50/50, measure one arm in each basis, forward a
    fresh pulse encoding the inferred (basis, bit).

    The two arm outcomes are drawn jointly from the four-mode tap state.
    Eve takes the arm with the *smaller* magnitude |raw| as the correct
    basis (ties to V/H): the incorrect basis sees the anti-squeezed
    fluctuations and so typically produces the larger magnitude. Her bit is
    the sign of the chosen arm.
    """
    mean_vh, l11, mean_dg, l21, l22 = dual_basis_cholesky(state, detector)
    z0, z1 = rng.standard_normal(2)
    raw_vh = mean_vh + l11 * z0
    raw_dg = mean_dg + l21 * z0 + l22 * z1
    basis = Basis.VH if abs(raw_vh) <= abs(raw_dg) else Basis.DIAG
    raw = raw_vh if basis is Basis.VH else raw_dg
    bit = decode_bit(raw)
    resent = alice_source(source_params, bit, basis)
    return resent, EveRecord(index, None, (raw_vh, raw_dg), bit)


def superior_channel(
    state: GaussianState,
    index: int,
    store: MutableMapping[int, EveRecord],
) -> GaussianState:
    """Attack four: split 50/50, forward Bob's half over a lossless
    substitute channel, keep the other half in perfect quantum memory.

    The stored marginal is measured later, after the bases are public,
    via ``eve_deferred_measure``.
    """
    bob, eve = tap_arms(state, 0.5)
    store[index] = EveRecord(index, None, (), None, deferred=True, stored_state=eve)
    return bob


def eve_deferred_measure(
    store: MutableMapping[int, EveRecord],
    revealed_bases: Sequence[tuple[int, Basis]],
    seed: int,
    detector: DetectorModel = NOISELESS,
) -> list[EveRecord]:
    """Measure Eve's stored pulses in the publicly revealed correct bases.

    Each stored pulse uses its own derived random stream, so the outcome
    does not depend on the order of revelation.
    """
    out = []
    for index, basis in revealed_bases:
        if index not in store:
            raise ValueError(f"no stored pulse for revealed index {index}")
        record = store[index]
        if record.stored_state is None:
            raise ValueError(f"stored pulse {index} was already consumed")
        rng = derive_stream(seed, LANE_DEFERRED, index)
        stored = detected_state(record.stored_state, detector)
        raw = sample_outcome(diff_number_moments(stored, basis), detector, rng)
        out.append(EveRecord(index, basis, (raw,), decode_bit(raw), deferred=True))
    return out
