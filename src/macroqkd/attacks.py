"""Eavesdropping strategies acting on pulses in transit.

Each interceptor consumes the pulse Alice launched into the channel and
returns what travels on toward Bob together with Eve's basis and raw
outcomes; her bit is ``decode_bit`` of the outcome she trusts. These
single-pulse functions are the reference that the session engine's moment
table and array draws are tested against. Re-preparing attacks give Eve an
ideal source: she forwards a perfect fresh pulse encoding her inference, so
all induced errors stem from wrong inferences rather than sloppy state
preparation.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, SourceParams, alice_source, is_number, tap_split
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
        if not (is_number(tap_fraction) and 0.0 < tap_fraction < 1.0):
            out.append(f"beamsplitter_tap requires tap_fraction in (0, 1) (got {tap_fraction!r})")
    elif tap_fraction is not None:
        out.append(f"tap_fraction only applies to beamsplitter_tap (kind is {kind.value})")
    return out


@functools.lru_cache(maxsize=256)
def tap_arms(state: GaussianState, eta_e: float) -> tuple[GaussianState, GaussianState]:
    """Bob's transmitted and Eve's tapped (V, H) marginals when a fraction
    eta_e of the pulse is diverted on a non-polarizing beamsplitter.

    Memoized on (state identity, eta_e), so repeated taps of the same pulse
    return the same arm states and their moments stay cached.
    """
    joint = tap_split(state, eta_e)  # modes (V_B, H_B, V_E, H_E)
    return (
        GaussianState(("V", "H"), joint.mean[:4], joint.cov[:4, :4]),
        GaussianState(("V", "H"), joint.mean[4:], joint.cov[4:, 4:]),
    )


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
    rng: np.random.Generator,
    source_params: SourceParams,
    detector: DetectorModel = NOISELESS,
) -> tuple[GaussianState, Basis, float]:
    """Attack one: capture the whole pulse, measure in a random basis,
    forward a fresh pulse encoding the inferred bit in that basis.

    Returns (resent pulse, Eve's basis, Eve's raw outcome).
    """
    basis = _draw_basis(rng)
    moments = diff_number_moments(detected_state(state, detector), basis)
    raw = sample_outcome(moments, detector, rng)
    return alice_source(source_params, decode_bit(raw), basis), basis, raw


def beamsplitter_tap(
    state: GaussianState,
    eta_e: float,
    rng: np.random.Generator,
    detector: DetectorModel = NOISELESS,
) -> tuple[GaussianState, Basis, float]:
    """Attack two: divert a fraction eta_e of the pulse and measure it in a
    random basis.

    Returns (Bob's transmitted pulse, Eve's basis, Eve's raw outcome). Bob
    receives the transmitted beamsplitter output, so the channel as a whole
    shows the extra loss.
    """
    bob, eve = tap_arms(state, eta_e)
    basis = _draw_basis(rng)
    moments = diff_number_moments(detected_state(eve, detector), basis)
    return bob, basis, sample_outcome(moments, detector, rng)


def dual_basis_measure(
    state: GaussianState,
    rng: np.random.Generator,
    source_params: SourceParams,
    detector: DetectorModel = NOISELESS,
) -> tuple[GaussianState, float, float]:
    """Attack three: split 50/50, measure one arm in each basis, forward a
    fresh pulse encoding the inferred (basis, bit).

    Returns (resent pulse, raw V/H-arm outcome, raw diagonal-arm outcome).
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
    return alice_source(source_params, decode_bit(raw), basis), raw_vh, raw_dg


def superior_channel(state: GaussianState) -> tuple[GaussianState, GaussianState]:
    """Attack four: split 50/50, forward Bob's half over a lossless
    substitute channel, keep the other half in perfect quantum memory.

    Returns (Bob's pulse, Eve's stored half). Eve measures the stored half
    after the bases are public, with ``eve_deferred_measure``.
    """
    return tap_arms(state, 0.5)


def eve_deferred_measure(
    stored_state: GaussianState,
    basis: Basis,
    seed: int,
    index: int,
    detector: DetectorModel = NOISELESS,
) -> float:
    """Eve's raw outcome on stored pulse ``index``, measured in the publicly
    revealed basis.

    Each pulse draws from its own stream ``derive_stream(seed,
    LANE_DEFERRED, index)``, so outcomes do not depend on the order in which
    Eve measures her stored pulses.
    """
    rng = derive_stream(seed, LANE_DEFERRED, index)
    moments = diff_number_moments(detected_state(stored_state, detector), basis)
    return sample_outcome(moments, detector, rng)
