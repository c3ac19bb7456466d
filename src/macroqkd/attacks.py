"""Eavesdropping strategies acting on pulses in transit.

Each interceptor consumes the pulse Alice launched into the channel and
returns what travels on toward Bob together with Eve's basis and raw
outcomes; her bit is ``decode_bit`` of the outcome she trusts. These
single-pulse functions are the reference that the session engine's moment
table and array draws are tested against. Eve's devices are ideal, as in
the paper's security analysis. She measures through noiseless detectors of
unit efficiency (``NOISELESS``). Re-preparing attacks give her an ideal
source: she forwards a perfect fresh pulse encoding her inference, so all
induced errors stem from wrong inferences rather than sloppy state
preparation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, SourceParams, alice_source, apply_loss, is_number
from .photostats import Basis, NOISELESS, decode_bit, outcome_law
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


def tap_arms(state: GaussianState, eta_e: float) -> tuple[GaussianState, GaussianState]:
    """Bob's transmitted and Eve's tapped (V, H) marginals when a fraction
    eta_e of the pulse is diverted on a non-polarizing beamsplitter: the
    pulse after losses eta_e and 1 - eta_e (``tap_split``'s marginals).

    Each arm comes from ``apply_loss``' cache: the single-pulse reference
    taps a pulse per draw and gets back the same arm states.
    """
    if not 0.0 < eta_e < 1.0:
        raise ValueError(f"tap fraction eta must be in (0, 1) (got {eta_e})")
    return apply_loss(state, eta_e), apply_loss(state, 1.0 - eta_e)


def _draw_basis(rng: np.random.Generator) -> Basis:
    return Basis.VH if rng.integers(0, 2) == 0 else Basis.DIAG


def intercept_resend(
    state: GaussianState,
    rng: np.random.Generator,
    source_params: SourceParams,
) -> tuple[GaussianState, Basis, float]:
    """Attack one: capture the whole pulse, measure in a random basis,
    forward a fresh pulse encoding the inferred bit in that basis.

    Returns (resent pulse, Eve's basis, Eve's raw outcome).
    """
    basis = _draw_basis(rng)
    mean, sigma = outcome_law(state, basis, NOISELESS)
    raw = mean + sigma * rng.standard_normal()
    return alice_source(source_params, decode_bit(raw), basis), basis, raw


def beamsplitter_tap(
    state: GaussianState,
    eta_e: float,
    rng: np.random.Generator,
) -> tuple[GaussianState, Basis, float]:
    """Attack two: divert a fraction eta_e of the pulse and measure it in a
    random basis.

    Returns (Bob's transmitted pulse, Eve's basis, Eve's raw outcome). Bob
    receives the transmitted beamsplitter output, so the channel as a whole
    shows the extra loss.
    """
    bob, eve = tap_arms(state, eta_e)
    basis = _draw_basis(rng)
    mean, sigma = outcome_law(eve, basis, NOISELESS)
    return bob, basis, mean + sigma * rng.standard_normal()


def dual_basis_measure(
    state: GaussianState,
    rng: np.random.Generator,
    source_params: SourceParams,
) -> tuple[GaussianState, float, float]:
    """Attack three: split 50/50, measure one arm in each basis, forward a
    fresh pulse encoding the inferred (basis, bit).

    Returns (resent pulse, raw V/H-arm outcome, raw diagonal-arm outcome).
    Eve takes the arm with the *smaller* magnitude |raw| as the correct
    basis (ties to V/H): the incorrect basis sees the anti-squeezed
    fluctuations and so typically produces the larger magnitude. Her bit is
    the sign of the chosen arm.

    The two arm outcomes are independent, each drawn from its own normal
    law on Eve's tapped half (the symmetry argument is in
    ``laws._dual_basis_law``).
    """
    eve = tap_arms(state, 0.5)[1]
    mean_vh, sigma_vh = outcome_law(eve, Basis.VH, NOISELESS)
    mean_dg, sigma_dg = outcome_law(eve, Basis.DIAG, NOISELESS)
    z_vh, z_dg = rng.standard_normal(2)
    raw_vh = mean_vh + sigma_vh * z_vh
    raw_dg = mean_dg + sigma_dg * z_dg
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
) -> float:
    """Eve's raw outcome on stored pulse ``index``, measured in the publicly
    revealed basis.

    Each pulse draws from its own stream ``derive_stream(seed,
    LANE_DEFERRED, index)``, so outcomes do not depend on the order in which
    Eve measures her stored pulses.
    """
    mean, sigma = outcome_law(stored_state, basis, NOISELESS)
    return mean + sigma * derive_stream(seed, LANE_DEFERRED, index).standard_normal()
