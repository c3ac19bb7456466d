"""Difference-number statistics: moment formulas, error curves, sampling."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import macroqkd
from macroqkd import gaussian, photostats
from macroqkd.gaussian import (
    SourceParams,
    alice_source,
    apply_loss,
    apply_rotation,
    make_coherent_seed,
    tap_split,
)
from macroqkd.photostats import (
    NOISELESS,
    Basis,
    DetectorModel,
    DiffMoments,
    bob_error_curve,
    bob_error_vs_loss,
    decode_bit,
    detected_state,
    diff_number_moments,
    distribution_curve,
    error_probability,
    eve_tap_curve,
    eve_tap_probability,
    joint_diff_moments,
    outcome_law,
    outcome_normal,
    sample_outcome,
    source_law,
)
from macroqkd.streams import derive_stream

DESIGN_POINT = SourceParams(gain_G=10.0, n_total_amp=2e6, bit_amplitude_N=2460.0)

# Frozen oracle values at the reference operating point (G=10, N_T=2e6, N=2460).
# BASELINE_P_ERR from mpmath.erfc at 40 digits; the wrong-basis variance from
# the moment formulas after their Fock-oracle gate (see test_fock_oracle).
BASELINE_P_ERR = 1.891139854477733e-08
P_ERR_HALF_LOSS = 0.04860510117992879
EVE_HALF_PROBABILITY = 0.9513948988200712
WRONG_BASIS_VARIANCE = 20000684.951076675
WRONG_BASIS_VARIANCE_HALF = 5500171.237769169


# ---------------------------------------------------------------------- types


def test_detector_defaults_sit_in_design_range():
    det = DetectorModel()
    assert 200.0 <= det.noise_equivalent_number <= 300.0
    assert det.quantum_efficiency == 1.0
    assert det.difference_noise_variance == pytest.approx(2 * 250.0**2)


def test_detector_validation():
    with pytest.raises(ValueError):
        DetectorModel(noise_equivalent_number=-1.0)
    with pytest.raises(ValueError):
        DetectorModel(quantum_efficiency=0.0)


def test_basis_is_defined_once_without_an_import_cycle():
    assert photostats.Basis is gaussian.Basis is macroqkd.Basis is Basis
    assert Basis("DIAG") is Basis.DIAG
    assert alice_source(DESIGN_POINT, 1, "DIAG") is alice_source(DESIGN_POINT, 1, Basis.DIAG)
    assert "from .photostats" not in inspect.getsource(gaussian)


def test_decode_bit_tie_rule():
    assert decode_bit(12.3) == 1
    assert decode_bit(-0.5) == 0
    assert decode_bit(0.0) == 1


# -------------------------------------------------------------------- moments


def test_design_pulse_moments_correct_basis():
    m = diff_number_moments(alice_source(DESIGN_POINT, 1, Basis.VH), Basis.VH)
    assert m.mean == pytest.approx(2460.0, rel=1e-10)
    assert m.variance == pytest.approx(2e5, rel=1e-9)


def test_coherent_state_variance_is_shot_noise():
    s = make_coherent_seed(math.sqrt(3e5), 1j * math.sqrt(2e5))
    for basis in Basis:
        assert diff_number_moments(s, basis).variance == pytest.approx(5e5, rel=1e-9)


def test_wrong_basis_moments_frozen_regression():
    m = diff_number_moments(alice_source(DESIGN_POINT, 1, Basis.VH), Basis.DIAG)
    assert m.mean == pytest.approx(0.0, abs=1e-6)
    assert m.variance == pytest.approx(WRONG_BASIS_VARIANCE, rel=1e-9)
    assert m.variance > DESIGN_POINT.n_total_amp


def test_moments_reject_wrong_mode_count():
    joint = tap_split(alice_source(DESIGN_POINT, 1, Basis.VH), 0.5)
    with pytest.raises(ValueError, match="two-mode"):
        diff_number_moments(joint, Basis.VH)
    with pytest.raises(ValueError, match="four-mode"):
        joint_diff_moments(alice_source(DESIGN_POINT, 1, Basis.VH), Basis.VH, Basis.VH)


# -------------------------------------------------------------- joint moments


def test_joint_moments_match_marginals():
    joint = tap_split(alice_source(DESIGN_POINT, 1, Basis.VH), 0.5)
    mb, vb, me, ve, cov = joint_diff_moments(joint, Basis.VH, Basis.VH)
    bob = diff_number_moments(joint.marginal(("V_B", "H_B")), Basis.VH)
    eve = diff_number_moments(joint.marginal(("V_E", "H_E")), Basis.VH)
    assert mb == pytest.approx(bob.mean, rel=1e-10)
    assert vb == pytest.approx(bob.variance, rel=1e-10)
    assert me == pytest.approx(eve.mean, rel=1e-10)
    assert ve == pytest.approx(eve.variance, rel=1e-10)
    # 50/50 symmetry
    assert mb == pytest.approx(me, rel=1e-10)
    assert vb == pytest.approx(ve, rel=1e-10)


def test_joint_tap_covariance_from_conservation():
    # the beamsplitter conserves the total difference number, so
    # var(n_B + n_E) = var(n_in) pins cov(n_B, n_E) = -4.5e5 at eta = 0.5
    joint = tap_split(alice_source(DESIGN_POINT, 1, Basis.VH), 0.5)
    _, vb, _, ve, cov = joint_diff_moments(joint, Basis.VH, Basis.VH)
    assert cov == pytest.approx(-4.5e5, rel=1e-9)
    assert cov / math.sqrt(vb * ve) == pytest.approx(-9.0 / 11.0, rel=1e-9)


def test_joint_coherent_input_uncorrelated():
    joint = tap_split(make_coherent_seed(40.0, 30.0j), 0.4)
    _, _, _, _, cov = joint_diff_moments(joint, Basis.VH, Basis.VH)
    assert cov == pytest.approx(0.0, abs=1e-8)


# ------------------------------------------------------------------- sampling


def test_sample_outcome_degenerate():
    rng = derive_stream(1, 0, 0)
    assert sample_outcome(DiffMoments(7.5, 0.0), NOISELESS, rng) == 7.5


def test_sample_outcome_reproducible():
    a = [
        sample_outcome(DiffMoments(0, 1), NOISELESS, derive_stream(9, 0, i))
        for i in range(5)
    ]
    b = [
        sample_outcome(DiffMoments(0, 1), NOISELESS, derive_stream(9, 0, i))
        for i in range(5)
    ]
    assert a == b


def test_sample_outcome_moments_converge():
    # (2460, 2e5) with NEN 250: detected std sqrt(2e5 + 125000) ~ 570.1
    mom = DiffMoments(2460.0, 2e5)
    det = DetectorModel(noise_equivalent_number=250.0)
    rng = derive_stream(123, 0, 0)
    n = 1_000_000
    sigma = math.sqrt(mom.variance + det.difference_noise_variance)
    draws = mom.mean + sigma * rng.standard_normal(n)
    se_mean = sigma / math.sqrt(n)
    assert abs(np.mean(draws) - 2460.0) < 5 * se_mean
    se_var = sigma**2 * math.sqrt(2.0 / n)
    assert abs(np.var(draws) - sigma**2) < 5 * se_var
    assert sigma == pytest.approx(570.087712549569, rel=1e-12)


@pytest.mark.parametrize("basis", list(Basis))
def test_outcome_law_applies_efficiency_then_read_noise(basis):
    detector = DetectorModel(noise_equivalent_number=120.0, quantum_efficiency=0.7)
    pulse = apply_loss(alice_source(DESIGN_POINT, 1, Basis.VH), 0.3)
    mom = diff_number_moments(apply_loss(pulse, 1.0 - 0.7), basis)
    expected = (mom.mean, math.sqrt(mom.variance + 2.0 * 120.0**2))
    assert outcome_law(pulse, basis, detector) == expected


# ---------------------------------------------------------- error probability


def test_error_probability_symmetric_at_zero_mean():
    assert error_probability(DiffMoments(0.0, 123.0), NOISELESS) == 0.5


def test_error_probability_baseline_frozen():
    p = error_probability(DiffMoments(2460.0, 2e5), NOISELESS)
    assert p == pytest.approx(BASELINE_P_ERR, rel=1e-9)


def test_error_probability_half_loss_frozen():
    p = error_probability(DiffMoments(1230.0, 5.5e5), NOISELESS)
    assert p == pytest.approx(P_ERR_HALF_LOSS, rel=1e-12)


def test_error_probability_monotonicity():
    base = error_probability(DiffMoments(100.0, 1e4), NOISELESS)
    assert error_probability(DiffMoments(200.0, 1e4), NOISELESS) < base
    assert error_probability(DiffMoments(100.0, 2e4), NOISELESS) > base
    noisy = error_probability(DiffMoments(100.0, 1e4), DetectorModel(50.0))
    assert noisy > base


@pytest.mark.parametrize("variance", [-5.0, math.nan])
@pytest.mark.parametrize("detector", [NOISELESS, DetectorModel(2.0)])
def test_error_probability_refuses_what_outcome_normal_refuses(variance, detector):
    # read noise must not hide an invalid variance
    with pytest.raises(ValueError, match="variance"):
        error_probability(DiffMoments(1.0, variance), detector)
    with pytest.raises(ValueError, match="variance"):
        outcome_normal(DiffMoments(1.0, variance), detector)


# ------------------------------------------------------------- derived curves


def test_bob_error_vs_loss_anchors():
    assert bob_error_vs_loss(DESIGN_POINT, 0.0, NOISELESS) == pytest.approx(
        BASELINE_P_ERR, rel=1e-9
    )
    assert bob_error_vs_loss(DESIGN_POINT, 0.5, NOISELESS) == pytest.approx(
        P_ERR_HALF_LOSS, rel=1e-9
    )


def test_quantum_efficiency_acts_as_loss():
    # qe = 0.5 on a lossless channel is the same detection as 50% loss at qe = 1
    half_qe = DetectorModel(noise_equivalent_number=250.0, quantum_efficiency=0.5)
    half_loss = DetectorModel(noise_equivalent_number=250.0)
    assert bob_error_vs_loss(DESIGN_POINT, 0.0, half_qe) == bob_error_vs_loss(
        DESIGN_POINT, 0.5, half_loss
    )
    # transmission (1 - 0.3) * 0.8 = 0.56
    qe = DetectorModel(noise_equivalent_number=250.0, quantum_efficiency=0.8)
    assert bob_error_vs_loss(DESIGN_POINT, 0.3, qe) == pytest.approx(0.0474649, rel=1e-6)
    assert bob_error_vs_loss(DESIGN_POINT, 0.3, qe) == pytest.approx(
        bob_error_vs_loss(DESIGN_POINT, 0.44, half_loss), rel=1e-12
    )


def test_bob_error_vs_loss_strictly_increasing():
    etas = np.linspace(0.0, 0.9, 46)
    vals = [bob_error_vs_loss(DESIGN_POINT, float(e), NOISELESS) for e in etas]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_eve_tap_probability_anchors():
    assert eve_tap_probability(DESIGN_POINT, 0.0) == 0.5
    assert eve_tap_probability(DESIGN_POINT, 0.5) == pytest.approx(
        EVE_HALF_PROBABILITY, rel=1e-9
    )
    assert eve_tap_probability(DESIGN_POINT, 1.0) == pytest.approx(
        1.0 - BASELINE_P_ERR, rel=1e-12
    )


def test_curves_equal_their_one_point_cases():
    etas = np.linspace(0.0, 1.0, 41)
    qe = DetectorModel(noise_equivalent_number=250.0, quantum_efficiency=0.8)
    bob = bob_error_curve(DESIGN_POINT, etas[:-1], qe)
    assert bob.tolist() == [bob_error_vs_loss(DESIGN_POINT, e, qe) for e in etas[:-1].tolist()]
    eve = eve_tap_curve(DESIGN_POINT, etas)
    assert eve.tolist() == [eve_tap_probability(DESIGN_POINT, e) for e in etas.tolist()]
    assert eve[0] == 0.5  # nothing sampled: zero mean, an exact coin flip


@pytest.mark.parametrize("bad", [-0.1, 1.0, math.nan])
def test_bob_error_curve_rejects_any_out_of_range_point(bad):
    with pytest.raises(ValueError, match=r"eta must be in \[0, 1\)"):
        bob_error_curve(DESIGN_POINT, [0.0, 0.5, bad, 0.2], NOISELESS)
    with pytest.raises(ValueError, match=r"eta must be in \[0, 1\)"):
        bob_error_vs_loss(DESIGN_POINT, bad, NOISELESS)


@pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, math.nan])
def test_eve_tap_curve_rejects_any_out_of_range_point(bad):
    with pytest.raises(ValueError, match=r"eta must be in \[0, 1\]"):
        eve_tap_curve(DESIGN_POINT, [0.0, bad, 1.0])
    with pytest.raises(ValueError, match=r"eta must be in \[0, 1\]"):
        eve_tap_probability(DESIGN_POINT, bad)


def test_distribution_curve_peaks_and_normalization():
    det = NOISELESS
    pulse1 = alice_source(DESIGN_POINT, 1, Basis.VH)
    for eta, peak in ((0.0, 2460.0), (0.5, 1230.0)):
        state = apply_loss(pulse1, eta)
        m_corr = diff_number_moments(state, Basis.VH)
        m_wrong = diff_number_moments(state, Basis.DIAG)
        span = abs(m_corr.mean) + 8 * math.sqrt(max(m_corr.variance, m_wrong.variance))
        grid = np.linspace(-span, span, 4001)
        ys = distribution_curve(state, Basis.VH, det, grid)
        yw = distribution_curve(state, Basis.DIAG, det, grid)
        assert ys.shape == yw.shape == grid.shape
        assert grid[np.argmax(ys)] == pytest.approx(peak, abs=grid[1] - grid[0])
        assert np.trapezoid(ys, grid) == pytest.approx(1.0, abs=1e-6)
        assert grid[np.argmax(yw)] == pytest.approx(0.0, abs=grid[1] - grid[0])
        assert np.trapezoid(yw, grid) == pytest.approx(1.0, abs=1e-6)
        # incorrect-basis curve is the widest of the three
        assert max(yw) < max(ys)


def test_distribution_curve_rejects_empty_grid():
    with pytest.raises(ValueError, match="non-empty"):
        distribution_curve(alice_source(DESIGN_POINT, 1, Basis.VH), Basis.VH, NOISELESS, [])


# ----------------------------------------------------------------- properties


@settings(max_examples=50, deadline=None)
@given(
    re_v=st.floats(-20, 20),
    im_v=st.floats(-20, 20),
    re_h=st.floats(-20, 20),
    im_h=st.floats(-20, 20),
    r=st.floats(0.0, 1.5),
    theta=st.floats(0.0, 2 * math.pi),
)
def test_basis_rotation_equivalence(re_v, im_v, re_h, im_h, r, theta):
    from macroqkd.gaussian import apply_two_mode_squeeze

    seed = make_coherent_seed(complex(re_v, im_v), complex(re_h, im_h))
    state = apply_two_mode_squeeze(seed, r, theta)
    rotated = apply_rotation(state, math.pi / 4)
    lhs = diff_number_moments(rotated, Basis.VH)
    rhs = diff_number_moments(state, Basis.DIAG)
    assert lhs.mean == pytest.approx(rhs.mean, rel=1e-9, abs=1e-9)
    assert lhs.variance == pytest.approx(rhs.variance, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    gain=st.floats(1.01, 30.0),
    n_total=st.floats(1e4, 1e7),
    n_frac=st.floats(1e-3, 0.99),
)
def test_squeezing_advantage_property(gain, n_total, n_frac):
    params = SourceParams(
        gain_G=gain, n_total_amp=n_total, bit_amplitude_N=n_frac * n_total / gain
    )
    pulse = alice_source(params, 1, Basis.VH)
    correct = diff_number_moments(pulse, Basis.VH).variance
    wrong = diff_number_moments(pulse, Basis.DIAG).variance
    assert correct == pytest.approx(n_total / gain, rel=1e-8)
    assert correct < n_total < wrong


@settings(max_examples=40, deadline=None)
@given(n_v=st.floats(0.0, 1e6), n_h=st.floats(0.0, 1e6), phase=st.floats(0, 2 * math.pi))
def test_shot_noise_calibration_property(n_v, n_h, phase):
    s = make_coherent_seed(math.sqrt(n_v), math.sqrt(n_h) * np.exp(1j * phase))
    total = n_v + n_h
    for basis in Basis:
        assert diff_number_moments(s, basis).variance == pytest.approx(
            total, rel=1e-9, abs=1e-9
        )


def test_plus45_modes_decouple_for_aligned_pulse():
    # in the rotated frame the amplified pulse is two independent
    # single-mode squeezed states: quadrature cross-covariance vanishes
    rotated = apply_rotation(alice_source(DESIGN_POINT, 1, Basis.VH), math.pi / 4)
    cross = rotated.cov[:2, 2:]
    assert np.max(np.abs(cross)) <= 1e-9 * np.max(np.abs(rotated.cov))


# ------------------------------------------------------- closed-form thinning


def _design(gain: float, n_total: float, sigmas: float) -> SourceParams:
    """A source whose bit amplitude is ``sigmas`` standard deviations of the
    encoding-basis noise, the regime the paper designs for; the error rate
    then stays above the double-precision underflow range at every loss."""
    return SourceParams(gain, n_total, sigmas * math.sqrt(n_total / gain))


_CURVE_POINT = dict(gain=10.0, n_total=2e6, sigmas=5.5, eta=0.3, qe=1.0, nen=250.0, eve_eta=0.5)


@settings(max_examples=80, deadline=None)
@given(
    gain=st.floats(1.5, 30.0),
    n_total=st.floats(1e4, 1e7),
    sigmas=st.floats(0.5, 8.0),
    eta=st.floats(0.0, 1.0, exclude_max=True),
    qe=st.floats(0.05, 1.0),
    nen=st.floats(0.0, 1000.0),
    eve_eta=st.floats(0.0, 1.0),
)
@example(**{**_CURVE_POINT, "eta": 0.0})
@example(**{**_CURVE_POINT, "eta": 1.0 - 1e-12})
@example(**{**_CURVE_POINT, "qe": 0.8, "nen": 0.0})
@example(**{**_CURVE_POINT, "eve_eta": 0.0})
@example(**{**_CURVE_POINT, "eve_eta": 1.0})
def test_thinned_curves_match_state_path(gain, n_total, sigmas, eta, qe, nen, eve_eta):
    # the state path builds the lossy pulse and takes its moments; the Fock
    # ladder certifies each of its steps
    params = _design(gain, n_total, sigmas)
    detector = DetectorModel(noise_equivalent_number=nen, quantum_efficiency=qe)
    pulse = alice_source(params, 1, Basis.VH)
    bob = detected_state(apply_loss(pulse, eta), detector)
    bob_ref = error_probability(diff_number_moments(bob, Basis.VH), detector)
    assert bob_error_curve(params, [eta], detector)[0] == pytest.approx(bob_ref, rel=1e-10)
    eve = apply_loss(pulse, 1.0 - eve_eta)
    eve_ref = 1.0 - error_probability(diff_number_moments(eve, Basis.VH), NOISELESS)
    assert eve_tap_curve(params, [eve_eta])[0] == pytest.approx(eve_ref, rel=1e-10)


@settings(max_examples=80, deadline=None)
@given(
    gain=st.floats(1.5, 30.0),
    n_total=st.floats(1e4, 1e7),
    sigmas=st.floats(0.5, 8.0),
    bit=st.sampled_from((0, 1)),
    prepared=st.sampled_from(list(Basis)),
    eta=st.floats(0.0, 1.0),
)
@example(gain=10.0, n_total=2e6, sigmas=5.5, bit=1, prepared=Basis.VH, eta=0.0)
@example(gain=10.0, n_total=2e6, sigmas=5.5, bit=0, prepared=Basis.DIAG, eta=1.0 - 1e-12)
@example(gain=10.0, n_total=2e6, sigmas=5.5, bit=1, prepared=Basis.VH, eta=1.0)
def test_thinned_moments_match_apply_loss(gain, n_total, sigmas, bit, prepared, eta):
    # Relative agreement, with a floor of 1e-12 of the lossy pulse's photon
    # number t <N> + 1: a mean that is zero in exact arithmetic is a rounding
    # residue on both paths, and as t -> 0 the state path's variance is the
    # difference of vacuum-sized terms.
    # Each (bit, prepared basis, measured basis) cell follows from the four
    # source scalars: mean +-t N in the prepared basis and 0 in the other,
    # variance t^2 V + t (1 - t) N_T with V = V_match or V_mis.
    params = _design(gain, n_total, sigmas)
    n, v_match, v_mis, n_total_photons = source_law(params)
    pulse = alice_source(params, bit, prepared)
    t = 1.0 - eta
    floor = 1e-12 * (t * params.n_total_amp + 1.0)
    for basis in Basis:
        want = diff_number_moments(apply_loss(pulse, eta), basis)
        match = basis is prepared
        mean = t * n * (1.0 if bit == 1 else -1.0) if match else 0.0
        var = t * t * (v_match if match else v_mis) + t * (1.0 - t) * n_total_photons
        assert mean == pytest.approx(want.mean, rel=1e-12, abs=floor)
        assert var == pytest.approx(want.variance, rel=1e-12, abs=floor)
