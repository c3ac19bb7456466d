"""Session mechanics: preparation, measurement, sifting, estimation,
detection and end-to-end runs without an attacker."""

import math

import numpy as np
import pytest
from conftest import cell_columns

from macroqkd.attacks import AttackConfig, AttackKind
from macroqkd.gaussian import SourceParams
from macroqkd.photostats import NOISELESS, Basis, DetectorModel, bob_error_vs_loss, decode_bit
from macroqkd.protocol import (
    SessionConfig,
    VERDICT_CLEAN,
    VERDICT_DETECTED,
    _moment_table,
    _pulse_cells,
    alice_prepare,
    bob_measure,
    detect_eavesdropping,
    estimate_error,
    run_session,
    sift,
    session_violations,
)
from macroqkd.streams import LANE_PULSE, LANE_SESSION, derive_stream

DESIGN_POINT = SourceParams(gain_G=10.0, n_total_amp=2e6, bit_amplitude_N=2460.0)


def make_config(**kwargs) -> SessionConfig:
    defaults = dict(
        source=DESIGN_POINT,
        channel_loss=0.0,
        detector=NOISELESS,
        attack=AttackConfig(),
        num_pulses=1000,
        sample_fraction=0.1,
        detection_sigma_k=5.0,
        seed=12345,
    )
    defaults.update(kwargs)
    return SessionConfig(**defaults)


# -------------------------------------------------------------- alice and bob


def test_alice_prepare_deterministic():
    cfg = make_config()
    a = alice_prepare(cfg, derive_stream(cfg.seed, LANE_PULSE, 0))
    b = alice_prepare(cfg, derive_stream(cfg.seed, LANE_PULSE, 0))
    assert a[:2] == b[:2]
    np.testing.assert_array_equal(a[2].mean, b[2].mean)


def test_alice_prepare_uniformity():
    cfg = make_config()
    counts = {(bit, basis): 0 for bit in (0, 1) for basis in Basis}
    n = 100_000
    for i in range(n):
        bit, basis, _ = alice_prepare(cfg, derive_stream(cfg.seed, LANE_PULSE, i))
        counts[(bit, basis)] += 1
    sigma = math.sqrt(n * 0.25 * 0.75)
    for combo, c in counts.items():
        assert abs(c - n * 0.25) < 5 * sigma, (combo, c)


def test_alice_prepare_state_moments():
    from macroqkd.photostats import diff_number_moments

    cfg = make_config()
    for i in range(8):
        bit, basis, state = alice_prepare(cfg, derive_stream(cfg.seed, LANE_PULSE, i))
        m = diff_number_moments(state, basis)
        expect = 2460.0 if bit == 1 else -2460.0
        assert m.mean == pytest.approx(expect, rel=1e-9)
        assert m.variance == pytest.approx(2e5, rel=1e-9)


def test_bob_measure_reproducible_and_decodes_sign():
    from macroqkd.gaussian import alice_source

    cfg = make_config()
    state = alice_source(DESIGN_POINT, 1, Basis.VH)
    m1 = bob_measure(state, cfg, derive_stream(cfg.seed, LANE_PULSE, 3))
    m2 = bob_measure(state, cfg, derive_stream(cfg.seed, LANE_PULSE, 3))
    assert m1 == m2
    assert decode_bit(m1[1]) == (1 if m1[1] > 0 else 0)


def test_bob_wrong_basis_bits_are_uniform():
    from macroqkd.gaussian import alice_source

    cfg = make_config(seed=777)
    state = alice_source(DESIGN_POINT, 1, Basis.VH)
    bits = []
    for i in range(20_000):
        rng = derive_stream(cfg.seed, LANE_PULSE, i)
        rng.integers(0, 2)  # burn a draw so bob picks varied bases
        basis, raw = bob_measure(state, cfg, rng)
        if basis is Basis.DIAG:
            bits.append(decode_bit(raw))
    frac = np.mean(bits)
    assert abs(frac - 0.5) < 5 * math.sqrt(0.25 / len(bits))


# -------------------------------------------------------------------- sifting


VH, DIAG = 0, 1  # basis codes of the session columns


def test_sift_keeps_matching_bases_only():
    kept = sift(np.array([VH, VH, DIAG, DIAG]), np.array([VH, DIAG, DIAG, VH]))
    assert kept.tolist() == [0, 2]


def test_sift_all_and_none():
    assert sift(np.full(4, VH), np.full(4, VH)).tolist() == [0, 1, 2, 3]
    assert sift(np.full(4, VH), np.full(4, DIAG)).tolist() == []


def test_sift_validates_alignment():
    with pytest.raises(ValueError, match="length"):
        sift(np.array([VH]), np.array([VH, VH]))


def test_sift_fraction_near_half():
    report = run_session(make_config(num_pulses=100_000))
    frac = report.sifted_count / report.pulses_sent
    assert abs(frac - 0.5) < 5 * math.sqrt(0.25 / report.pulses_sent)


# ----------------------------------------------------------- error estimation


def test_estimate_error_identical_strings():
    rng = derive_stream(5, 2, 0)
    rate, remaining = estimate_error([0, 1] * 50, [0, 1] * 50, 0.1, rng)
    assert rate == 0.0
    assert len(remaining) == 90


def test_estimate_error_flipped_strings():
    rng = derive_stream(5, 2, 0)
    bits = [0, 1] * 50
    flipped = [1 - b for b in bits]
    rate, remaining = estimate_error(bits, flipped, 0.2, rng)
    assert rate == 1.0
    assert len(remaining) == 80


def test_estimate_error_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        estimate_error([], [], 0.1, derive_stream(5, 2, 0))


def test_estimate_error_sample_rounding():
    rng = derive_stream(5, 2, 0)
    rate, remaining = estimate_error([0] * 7, [0] * 7, 0.1, rng)
    # round(0.7) = 1 disclosed bit
    assert len(remaining) == 6


def test_estimate_error_count_is_hypergeometric():
    """The errors in a uniform k-subset of a key with E errors among n are
    Hypergeometric(E, n - E, k): the law a session draws its count from."""
    n, e, fraction, trials = 40, 9, 0.25, 20_000
    alice = np.zeros(n, dtype=np.uint8)
    bob = alice.copy()
    bob[np.arange(0, 4 * e, 4)] = 1
    k = round(fraction * n)
    counts = np.zeros(k + 1, dtype=int)
    for i in range(trials):
        rate, _ = estimate_error(alice, bob, fraction, derive_stream(31, LANE_SESSION, i))
        counts[round(rate * k)] += 1
    for errors, seen in enumerate(counts):
        p = math.comb(e, errors) * math.comb(n - e, k - errors) / math.comb(n, k)
        assert abs(seen - trials * p) <= 5 * math.sqrt(trials * p * (1 - p)), (errors, seen)


# ------------------------------------------------------------------ detection


def test_detect_at_threshold_center_is_clean():
    cfg = make_config(channel_loss=0.3)
    e_sys = bob_error_vs_loss(DESIGN_POINT, 0.3, NOISELESS)
    assert detect_eavesdropping(e_sys, 1000, cfg) == VERDICT_CLEAN


def test_detect_fires_on_gross_error():
    cfg = make_config()
    assert detect_eavesdropping(0.25, 1000, cfg) == VERDICT_DETECTED


def test_detect_respects_k_sigma_band():
    cfg = make_config(channel_loss=0.3, detection_sigma_k=5.0)
    e_sys = bob_error_vs_loss(DESIGN_POINT, 0.3, NOISELESS)
    sigma = math.sqrt(e_sys * (1 - e_sys) / 1000)
    assert detect_eavesdropping(e_sys + 4.9 * sigma, 1000, cfg) == VERDICT_CLEAN
    assert detect_eavesdropping(e_sys + 5.1 * sigma, 1000, cfg) == VERDICT_DETECTED


def test_no_attack_clean_verdicts_across_seeds():
    clean = 0
    trials = 20
    for seed in range(trials):
        rep = run_session(make_config(channel_loss=0.3, num_pulses=4000, seed=seed))
        clean += rep.detection_verdict == VERDICT_CLEAN
    # the false-alarm probability per session at k=5 is 7.29e-5: the sampled
    # errors are Binomial(k, e_sys) given the sifted count, summed over that
    # count; the normal approximation the threshold assumes would give 2.9e-7
    assert clean == trials


# ------------------------------------------------------------------- sessions


def test_session_no_attack_no_loss_error_free():
    rep = run_session(make_config(num_pulses=50_000))
    assert rep.estimated_error_rate == 0.0
    assert rep.detection_verdict == VERDICT_CLEAN
    assert rep.eve_bit_accuracy is None
    assert rep.bob_bit_accuracy == 1.0
    assert rep.final_key_bits == rep.sifted_count - rep.sampled_count
    assert rep.sampled_count == round(0.1 * rep.sifted_count)
    assert rep.expected_systematic_error == pytest.approx(1.891139854477733e-08, rel=1e-9)


def test_session_error_rate_tracks_loss_curve():
    for eta, seed in ((0.2, 11), (0.5, 12)):
        rep = run_session(make_config(channel_loss=eta, num_pulses=100_000, seed=seed))
        expected = bob_error_vs_loss(DESIGN_POINT, eta, NOISELESS)
        se = math.sqrt(expected * (1 - expected) / rep.sampled_count)
        assert abs(rep.estimated_error_rate - expected) < 5 * se
        assert rep.detection_verdict == VERDICT_CLEAN


def test_session_quantum_efficiency_acts_as_loss():
    half_qe = make_config(
        num_pulses=2000, detector=DetectorModel(noise_equivalent_number=0.0, quantum_efficiency=0.5)
    )
    half_loss = make_config(num_pulses=2000, channel_loss=0.5)
    rep, ref = run_session(half_qe), run_session(half_loss)
    assert rep.expected_systematic_error == ref.expected_systematic_error
    # Bob's detector registers the same half-lossy pulses, draw for draw
    assert rep == ref


def _cells(config, lo, hi):
    return _pulse_cells(config, _moment_table(config), lo, hi)


def test_session_determinism_and_split_independence():
    cfg = make_config(num_pulses=20_000, channel_loss=0.2, seed=999)
    assert run_session(cfg) == run_session(cfg)
    # per-pulse cell codes do not depend on how range(n) is split or in
    # what order the pieces run
    cfg = make_config(
        num_pulses=3000, channel_loss=0.2, seed=999,
        attack=AttackConfig(kind=AttackKind.INTERCEPT_RESEND),
    )
    whole = _cells(cfg, 0, 3000)
    tail = _cells(cfg, 1234, 3000)
    head = _cells(cfg, 0, 1234)
    np.testing.assert_array_equal(whole, np.concatenate([head, tail]))


def test_wrong_basis_pulses_carry_no_information():
    cfg = make_config(num_pulses=100_000, seed=55)
    # correlate alice bits with bob decoded bits on discarded pulses
    cols = cell_columns(_cells(cfg, 0, cfg.num_pulses))
    discarded = cols["alice_basis"] != cols["bob_basis"]
    a = cols["alice_bit"][discarded].astype(int) * 2 - 1
    b = cols["bob_bit"][discarded].astype(int) * 2 - 1
    corr = float(np.mean(a * b))
    assert abs(corr) < 5 / math.sqrt(np.count_nonzero(discarded))


def test_session_config_validation_lists_problems():
    problems = session_violations(1.5, 0, 0.0, -1.0, -3)
    assert len(problems) == 5
    with pytest.raises(ValueError):
        SessionConfig(source=DESIGN_POINT, channel_loss=1.5)


def test_pulse_bound_is_one_billion():
    # Generator.hypergeometric takes counts below 1e9 only
    assert session_violations(0.0, 10**9, 0.1, 5.0, 0) == []
    (problem,) = session_violations(0.0, 10**9 + 1, 0.1, 5.0, 0)
    assert "num_pulses" in problem
