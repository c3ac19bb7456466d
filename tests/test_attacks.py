"""The four eavesdropping strategies and their session-level signatures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macroqkd.attacks import (
    AttackConfig,
    AttackKind,
    beamsplitter_tap,
    dual_basis_measure,
    eve_deferred_measure,
    intercept_resend,
    superior_channel,
    tap_arms,
)
from macroqkd.gaussian import SourceParams, alice_source, apply_loss, tap_split
from macroqkd.photostats import (
    NOISELESS,
    Basis,
    DetectorModel,
    decode_bit,
    detected_state,
    diff_number_moments,
    joint_diff_moments,
)
from macroqkd.protocol import (
    SessionConfig,
    VERDICT_CLEAN,
    VERDICT_DETECTED,
    run_session,
)
from macroqkd.streams import LANE_PULSE, derive_stream

DESIGN_POINT = SourceParams(gain_G=10.0, n_total_amp=2e6, bit_amplitude_N=2460.0)

# Exact inference probabilities at the reference operating point, frozen from
# scipy quadrature over the arm distributions (see notes in each test).
EVE_KNOWN_BASIS_HALF = 0.9513948988200712
DUAL_BASIS_INFERENCE_ACCURACY = 0.6069571083272739


def _config(kind: AttackKind, **kwargs) -> SessionConfig:
    attack = AttackConfig(
        kind=kind,
        tap_fraction=kwargs.pop("tap_fraction", None),
    )
    defaults = dict(
        source=DESIGN_POINT,
        channel_loss=0.0,
        detector=NOISELESS,
        attack=attack,
        num_pulses=kwargs.pop("num_pulses", 50_000),
        seed=kwargs.pop("seed", 2024),
    )
    defaults.update(kwargs)
    return SessionConfig(**defaults)


def test_attack_config_invariant():
    with pytest.raises(ValueError, match="tap_fraction"):
        AttackConfig(kind=AttackKind.BEAMSPLITTER_TAP)
    with pytest.raises(ValueError, match="tap_fraction"):
        AttackConfig(kind=AttackKind.INTERCEPT_RESEND, tap_fraction=0.5)
    AttackConfig(kind=AttackKind.BEAMSPLITTER_TAP, tap_fraction=0.25)


# ----------------------------------------------------------- intercept-resend


def test_intercept_matching_basis_is_nearly_perfect():
    state = alice_source(DESIGN_POINT, 1, Basis.VH)
    hits = 0
    n = 2000
    for i in range(n):
        rng = derive_stream(31, LANE_PULSE, i)
        resent, basis, raw = intercept_resend(state, rng, DESIGN_POINT)
        if basis is Basis.VH:
            hits += decode_bit(raw) == 1
            # Eve forwards a faithful re-encoding of her inference
            m = diff_number_moments(resent, basis)
            assert abs(m.mean) == pytest.approx(2460.0, rel=1e-9)
    assert hits == sum(
        1
        for i in range(n)
        if intercept_resend(state, derive_stream(31, LANE_PULSE, i), DESIGN_POINT)[1]
        is Basis.VH
    )  # per-bit error 1.9e-8 cannot produce a miss in 2000 draws


def test_intercept_wrong_basis_bit_is_uniform():
    state = alice_source(DESIGN_POINT, 1, Basis.VH)
    bits = []
    for i in range(20_000):
        rng = derive_stream(32, LANE_PULSE, i)
        _, basis, raw = intercept_resend(state, rng, DESIGN_POINT)
        if basis is Basis.DIAG:
            bits.append(decode_bit(raw))
    frac = np.mean(bits)
    assert abs(frac - 0.5) < 5 * math.sqrt(0.25 / len(bits))


def test_intercept_session_quarter_error_and_detection():
    rep = run_session(_config(AttackKind.INTERCEPT_RESEND))
    se = math.sqrt(0.25 * 0.75 / rep.sampled_count)
    assert abs(rep.estimated_error_rate - 0.25) < 5 * se
    assert rep.detection_verdict == VERDICT_DETECTED
    # Eve's own accuracy: right basis half the time (perfect), coin otherwise
    assert rep.eve_bit_accuracy == pytest.approx(0.75, abs=0.01)


# ----------------------------------------------------------- beamsplitter tap


def test_tap_keeps_bob_equivalent_to_extra_loss():
    state = alice_source(DESIGN_POINT, 1, Basis.VH)
    rng = derive_stream(33, LANE_PULSE, 0)
    bob_state, _, _ = beamsplitter_tap(state, 0.3, rng)
    chained = apply_loss(bob_state, 0.2)
    combined = apply_loss(state, 1 - (1 - 0.3) * (1 - 0.2))
    np.testing.assert_allclose(chained.mean, combined.mean, atol=1e-10)
    np.testing.assert_allclose(chained.cov, combined.cov, atol=1e-10)


def test_tap_vanishing_fraction_gives_eve_nothing():
    rep = run_session(_config(AttackKind.BEAMSPLITTER_TAP, tap_fraction=1e-4, seed=5))
    assert abs(rep.eve_bit_accuracy - 0.5) < 0.02
    assert rep.estimated_error_rate < 1e-3


def test_tap_half_matching_basis_accuracy():
    state = alice_source(DESIGN_POINT, 1, Basis.VH)
    # Eve guesses her basis; the pulses where she drew Alice's V/H show the
    # known-basis accuracy
    hits = n = 0
    for i in range(30_000):
        rng = derive_stream(34, LANE_PULSE, i)
        _, basis, raw = beamsplitter_tap(state, 0.5, rng)
        if basis is Basis.VH:
            n += 1
            hits += decode_bit(raw) == 1
    acc = hits / n
    se = math.sqrt(EVE_KNOWN_BASIS_HALF * (1 - EVE_KNOWN_BASIS_HALF) / n)
    assert abs(acc - EVE_KNOWN_BASIS_HALF) < 5 * se


def test_tap_arms_reused_for_a_repeated_pulse():
    # repeated taps of one pulse hand back the same arm states, so the
    # moments of Eve's arm are computed once
    state = alice_source(DESIGN_POINT, 1, Basis.VH)
    first = tap_arms(state, 0.35)
    again = tap_arms(state, 0.35)
    assert all(arm is earlier for arm, earlier in zip(again, first))
    hits = diff_number_moments.cache_info().hits
    for i in range(10):
        beamsplitter_tap(state, 0.35, derive_stream(35, LANE_PULSE, i))
    # at most the first measurement in each basis misses
    assert diff_number_moments.cache_info().hits >= hits + 10 - len(Basis)


@pytest.mark.parametrize("eta_e", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_tap_arms_range_check(eta_e):
    # both endpoints are valid losses, so apply_loss alone would not refuse them
    with pytest.raises(ValueError, match="tap fraction"):
        tap_arms(alice_source(DESIGN_POINT, 1, Basis.VH), eta_e)


def test_tap_half_random_basis_mixture():
    # 0.5 * 0.9514 + 0.5 * 0.5 = 0.7257
    rep = run_session(_config(AttackKind.BEAMSPLITTER_TAP, tap_fraction=0.5, seed=6))
    expected = 0.5 * EVE_KNOWN_BASIS_HALF + 0.25
    se = math.sqrt(expected * (1 - expected) / rep.pulses_sent)
    assert abs(rep.eve_bit_accuracy - expected) < 5 * se
    # the tap halves Bob's pulse: error rate jumps to the 50%-loss value
    assert rep.detection_verdict == VERDICT_DETECTED


# ----------------------------------------------------------------- dual basis


def test_dual_basis_correct_arm_hits_95_percent():
    hits = {0: 0, 1: 0}
    totals = {0: 0, 1: 0}
    n = 30_000
    for i in range(n):
        rng = derive_stream(35, LANE_PULSE, i)
        bit = i % 2
        state = alice_source(DESIGN_POINT, bit, Basis.VH)
        # the V/H arm matches Alice's basis
        _, raw_correct_arm, _ = dual_basis_measure(state, rng, DESIGN_POINT)
        decoded = 1 if raw_correct_arm >= 0 else 0
        totals[bit] += 1
        hits[bit] += decoded == bit
    for bit in (0, 1):
        acc = hits[bit] / totals[bit]
        se = math.sqrt(EVE_KNOWN_BASIS_HALF * (1 - EVE_KNOWN_BASIS_HALF) / totals[bit])
        assert abs(acc - EVE_KNOWN_BASIS_HALF) < 5 * se


def test_dual_basis_inference_accuracy_regression():
    # frozen from quadrature: P(|n_correct| < |n_wrong|) with the correct arm
    # N(1230, 5.5e5) and the wrong arm N(0, 5.500171e6)
    n = 50_000
    hits = 0
    for i in range(n):
        rng = derive_stream(36, LANE_PULSE, i)
        basis = Basis.VH if i % 2 == 0 else Basis.DIAG
        state = alice_source(DESIGN_POINT, 1, basis)
        _, raw_vh, raw_dg = dual_basis_measure(state, rng, DESIGN_POINT)
        chosen = Basis.VH if abs(raw_vh) <= abs(raw_dg) else Basis.DIAG
        hits += chosen is basis
    acc = hits / n
    se = math.sqrt(acc * (1 - acc) / n)
    assert abs(acc - DUAL_BASIS_INFERENCE_ACCURACY) < 5 * se


@settings(max_examples=80, deadline=None)
@given(
    gain=st.floats(1.05, 100.0),
    log_total=st.floats(0.0, 12.0),
    frac=st.floats(1e-3, 0.999),
    bit=st.sampled_from((0, 1)),
    basis=st.sampled_from(Basis),
    nen=st.floats(0.0, 300.0),
    qe=st.floats(0.05, 1.0, exclude_max=True),
)
def test_dual_basis_arms_are_uncorrelated(gain, log_total, frac, bit, basis, nen, qe):
    # the symmetry argument in dual_basis_measure: on Eve's 50/50 split the
    # V/H arm and the diagonal arm have zero covariance, so the reference and
    # the session draw them from independent normals
    n_total = 10.0**log_total
    params = SourceParams(gain, n_total, frac * n_total / gain)
    detector = DetectorModel(noise_equivalent_number=nen, quantum_efficiency=qe)
    joint = detected_state(tap_split(alice_source(params, bit, basis), 0.5), detector)
    _, var_b, _, var_e, cov_be = joint_diff_moments(joint, Basis.VH, Basis.DIAG)
    assert abs(cov_be) <= 1e-12 * math.sqrt(var_b * var_e)


def test_dual_basis_session_detected():
    rep = run_session(_config(AttackKind.DUAL_BASIS, seed=7))
    assert rep.estimated_error_rate > 0.1
    assert rep.detection_verdict == VERDICT_DETECTED


# ----------------------------------------------------------- superior channel


def test_superior_bob_state_matches_no_attack_at_half_loss():
    state = alice_source(DESIGN_POINT, 1, Basis.VH)
    bob_state, stored = superior_channel(state)
    reference = apply_loss(state, 0.5)
    for half in (bob_state, stored):  # Eve keeps the same 50% marginal
        np.testing.assert_allclose(half.mean, reference.mean, atol=1e-10)
        np.testing.assert_allclose(half.cov, reference.cov, atol=1e-10)


def test_superior_deferred_measurement_accuracy():
    stored = [superior_channel(alice_source(DESIGN_POINT, bit, Basis.VH))[1] for bit in (0, 1)]
    n = 30_000
    hits = [
        decode_bit(eve_deferred_measure(stored[i % 2], Basis.VH, 99, i)) == i % 2
        for i in range(n)
    ]
    acc = np.mean(hits)
    se = math.sqrt(EVE_KNOWN_BASIS_HALF * (1 - EVE_KNOWN_BASIS_HALF) / n)
    assert abs(acc - EVE_KNOWN_BASIS_HALF) < 5 * se


def test_superior_session_clean_and_symmetric_at_half_loss():
    rep = run_session(
        _config(AttackKind.SUPERIOR_CHANNEL, channel_loss=0.5, num_pulses=60_000, seed=8)
    )
    assert rep.detection_verdict == VERDICT_CLEAN
    p = EVE_KNOWN_BASIS_HALF
    combined_se = math.sqrt(2 * p * (1 - p) / rep.sifted_count)
    assert abs(rep.eve_bit_accuracy - rep.bob_bit_accuracy) < 5 * combined_se


def test_superior_session_lossless_channel_also_half_for_both():
    rep = run_session(
        _config(AttackKind.SUPERIOR_CHANNEL, channel_loss=0.0, num_pulses=40_000, seed=9)
    )
    p = EVE_KNOWN_BASIS_HALF
    se = math.sqrt(p * (1 - p) / rep.sifted_count)
    assert abs(rep.bob_bit_accuracy - p) < 5 * se
    assert abs(rep.eve_bit_accuracy - p) < 5 * se


def test_superior_eve_beats_bob_counterfactual_at_high_loss():
    from macroqkd.photostats import eve_tap_probability

    rep = run_session(
        _config(AttackKind.SUPERIOR_CHANNEL, channel_loss=0.8, num_pulses=40_000, seed=10)
    )
    counterfactual = eve_tap_probability(DESIGN_POINT, 0.2)  # Bob on the original channel
    assert rep.eve_bit_accuracy > counterfactual + 0.01
