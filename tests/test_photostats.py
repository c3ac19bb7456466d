"""Difference-number statistics: moment formulas, error curves, sampling."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import macroqkd
from macroqkd import gaussian, laws, photostats
from macroqkd.cli import build_parser, cmd_fig1
from macroqkd.gaussian import (
    SourceParams,
    alice_source,
    apply_loss,
    apply_rotation,
    make_coherent_seed,
    tap_split,
)
from macroqkd.laws import solve_gain_squeeze
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


@settings(max_examples=80, deadline=None)
@given(gain=st.floats(1.5, 1e3), n_total=st.floats(1e4, 1e7), sigmas=st.floats(0.5, 8.0))
@example(gain=10.0, n_total=2e6, sigmas=5.5)
@example(gain=1e3, n_total=1e4, sigmas=3.0)
def test_source_law_matches_the_gaussian_engine(gain, n_total, sigmas):
    # Both bits and both bases of Alice's pulse against the closed form,
    # within 1e-12 relative, except where the engine is the inexact side:
    # its launch-basis mean N and variance V_match are differences of
    # covariance terms G times larger. On 4000 drawn sources of this grid
    # they drifted up to 3.6e-11 and 1.3e-10, past 1e-12 from G = 4.2 and
    # G = 107 on (the variance's drift grows as G^2), so those two are held
    # to 1e-9. The other basis's mean is 0 in the closed form and a residue
    # below 2e-16 N_T in the engine. N_T's formula meets the gain equation's
    # target.
    assume(sigmas * sigmas < n_total / gain)
    params = _design(gain, n_total, sigmas)
    n, v_match, v_mis, n_total_photons = source_law(params)
    assert (n, v_match, n_total_photons) == (params.bit_amplitude_N, params.n_total_seed, params.n_total_amp)
    r = solve_gain_squeeze(params)
    assert laws._pulse_law(params.n_total_seed, n, r)[3] == pytest.approx(n_total, rel=1e-12)
    for bit in (0, 1):
        for prepared in Basis:
            pulse = alice_source(params, bit, prepared)
            for basis in Basis:
                got = diff_number_moments(pulse, basis)
                if basis is prepared:
                    assert got.mean == pytest.approx(n if bit == 1 else -n, rel=1e-9)
                    assert got.variance == pytest.approx(v_match, rel=1e-9)
                else:
                    assert got.mean == pytest.approx(0.0, abs=1e-12 * n_total)
                    assert got.variance == pytest.approx(v_mis, rel=1e-12)


# V_mis of the source whose r solves the gain equation exactly, from mpmath at
# 50 digits: e^(2r) is the larger root y of (a + b) y^2 - 2 c y + (a - b) = 0
# (see solve_gain_squeeze), and cosh 4r, sinh 4r = (y^2 +- y^-2) / 2
FROZEN_V_MIS = [
    ((10.0, 2e6, 2460.0), 20000684.951076665700786428832184312117146131346765),
    ((1.5, 1e4, 50.0), 14999.988716323959155672460149276137094799041362913),
    ((1e12, 1e13, 0.5), 9302457656861911118687319.3787561433024474932961117),
]


@pytest.mark.parametrize("design, v_mis", FROZEN_V_MIS)
def test_mismatched_variance_matches_frozen_mpmath_values(design, v_mis):
    assert source_law(SourceParams(*design))[2] == pytest.approx(v_mis, rel=1e-14)


def test_source_law_is_exact_at_high_gain():
    # n_s = 10 photons amplified 1e12 times: the seed's scalars come back as
    # given, where a covariance route read V_match = -0.49 and N = 0.49986
    params = SourceParams(1e12, 1e13, 0.5)
    assert source_law(params)[:2] == (0.5, 10.0)


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("basis", list(Basis))
def test_reference_refuses_the_pulse_its_covariance_loses(bit, basis):
    # the same pulse built as a state: its launch-basis variance, a
    # difference of covariance terms 1e12 times larger, reads about -0.49,
    # and the reference refuses to draw from it rather than draw nonsense
    pulse = alice_source(SourceParams(1e12, 1e13, 0.5), bit, basis)
    assert diff_number_moments(pulse, basis).variance < 0
    with pytest.raises(ValueError, match="variance must be >= 0"):
        outcome_law(pulse, basis, NOISELESS)


def test_source_law_saturates_past_the_float_range():
    # V_mis grows as G^2 n_s: at G = 1e150 it still fits (the value is
    # exact at solve_gain_squeeze's r), at G = 1e160 it reads inf, and
    # neither raises; N, n_s and N_T stay exact
    assert source_law(SourceParams(1e150, 1e151, 1.0))[2] == pytest.approx(9.318752858790282e300, rel=1e-15)
    params = SourceParams(1e160, 1e161, 1.0)
    assert source_law(params) == (1.0, params.n_total_seed, math.inf, 1e161)


# Sources barely amplified at the top of the float range: sums of the plain
# forms (2 n_s + 1, n_s + N, 2 b) pass it though V_mis does not. V_mis from
# mpmath at 50 digits at solve_gain_squeeze's float r (4.999999752919352e-08
# and 1.4796605749509395e-07); in the second, N is close to n_s.
TOP_OF_RANGE = [
    ((1.0000001, 1.5e308, 1e300), 1.5000001500000001611041146507535000663440552472853e308),
    ((1.0000001, 1.7e308, 1.6e308), 1.7000001700001316409652281564076348619242160200171e308),
]


@pytest.mark.parametrize("design, v_mis", TOP_OF_RANGE)
def test_source_law_at_the_top_of_the_float_range(design, v_mis):
    params = SourceParams(*design)
    assert source_law(params) == (params.bit_amplitude_N, params.n_total_seed, v_mis, params.n_total_amp)
    # N is over 1e146 standard deviations: no loss up to half flips a bit
    np.testing.assert_array_equal(bob_error_curve(params, [0.0, 0.25, 0.5], NOISELESS), 0.0)


def _plain_law(params: SourceParams) -> tuple[float, float]:
    """(r, V_mis) by the unscaled forms, which overflow near the float range."""
    n_s, n = params.n_total_seed, params.bit_amplitude_N
    c = params.n_total_amp + 1.0
    b = math.sqrt(n_s - n) * math.sqrt(n_s + n)
    root = math.sqrt(1.0 - (2.0 * n_s + 1.0) / c / c - (n / c) ** 2)
    r = 0.5 * math.log(c * (1.0 + root) / (n_s + 1.0 + b))
    h, s, a = math.cosh(2.0 * r), math.sinh(2.0 * r), n_s + 0.5
    return r, a * h * h + a * s * s + 2.0 * b * h * s - 0.5


def test_scaled_law_is_bit_identical_to_the_plain_forms():
    # 10^4 sources from G = 1 + 1e-12 to 1e3 and N_T = 1e-2 to 1.78e308:
    # none raises, and wherever the plain forms stay finite the scaled ones
    # give the same bits, flip probabilities at t = 1 and 1/2 included
    compared = 0
    for g in 1.0 + np.logspace(-12, 3, 25):
        for n_total in np.logspace(-2, math.log10(1.78e308), 40):
            for frac in (1e-12, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0 - 1e-9):
                params = SourceParams(float(g), float(n_total), frac * float(n_total) / float(g))
                law = source_law(params)
                r = solve_gain_squeeze(params)
                assert math.isfinite(r), params
                try:
                    plain = _plain_law(params)
                except ValueError:
                    continue
                if not all(map(math.isfinite, plain)):
                    continue
                assert (r, law[2]) == plain, params
                mean, var = laws._thinned_law(law, np.array([1.0, 0.5]))[:2]
                if np.isfinite(2.0 * var).all():
                    with np.errstate(over="ignore"):
                        expected = 0.5 * laws._erfc(np.abs(mean) / np.sqrt(2.0 * var))
                    np.testing.assert_array_equal(laws._flip_probabilities(mean, var), expected)
                compared += 1
    assert compared > 9000, compared


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


@settings(max_examples=40, deadline=None)
@given(
    gain=st.floats(1.5, 30.0),
    n_total=st.floats(1e4, 1e7),
    sigmas=st.floats(0.5, 8.0),
    loss=st.floats(0.0, 1.0, exclude_max=True),
    qe=st.floats(0.05, 1.0),
    nen=st.floats(0.0, 1000.0),
)
@example(gain=10.0, n_total=2e6, sigmas=2460.0 / math.sqrt(2e5), loss=0.4, qe=1.0, nen=250.0)
@example(gain=10.0, n_total=2e6, sigmas=5.5, loss=0.0, qe=1.0, nen=0.0)
@example(gain=10.0, n_total=2e6, sigmas=5.5, loss=1.0 - 1e-12, qe=0.8, nen=0.0)
def test_fig1_densities_match_state_path(tmp_path_factory, gain, n_total, sigmas, loss, qe, nen):
    # fig1 reads the thinned source law; the state path builds the lossy
    # pulse, and distribution_curve applies the detector. The tolerance is
    # derived from test_thinned_moments_match_apply_loss: each of the state
    # path's two losses (the channel's, then qe's) moves the mean and the
    # variance by at most 1e-12 relative, with a floor of 1e-12 (t <N> + 1),
    # so the laws differ by dm and dv at most twice that. At z standard
    # deviations from the mean, these move ln(density) by at most
    # |z| dm / sigma + (z^2 + 1) dv / (2 sigma^2), and evaluating exp(-z^2 / 2)
    # on each path rounds its exponent by under 1e-15 (z^2 + 1). Densities
    # below the smallest normal double may differ by that much outright.
    # Near total loss the floor dominates (the state path's variance is the
    # difference of vacuum-sized terms); on 300 drawn designs away from it, no
    # normal density changed by more than 3.7e-11 relative.
    params = _design(gain, n_total, sigmas)
    detector = DetectorModel(noise_equivalent_number=nen, quantum_efficiency=qe)
    out = tmp_path_factory.mktemp("fig1") / "fig1.csv"
    flags = ["--gain", repr(gain), "--n-total", repr(n_total), "--bit-amplitude", repr(params.bit_amplitude_N)]
    args = build_parser().parse_args(["fig1", *flags, "--detector-nen", repr(nen), "--loss", repr(loss), "--out", str(out)])
    args.quantum_efficiency = qe  # fig1 has no flag for it; the config reads the namespace
    assert cmd_fig1(args) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    grid = table[:, 0]
    floor = 2e-12 * ((1.0 - loss) * params.n_total_amp + 1.0)
    for column, (bit, basis) in enumerate(((1, Basis.VH), (0, Basis.VH), (1, Basis.DIAG)), start=1):
        pulse = apply_loss(alice_source(params, bit, Basis.VH), loss)
        mean, sigma = outcome_law(pulse, basis, detector)
        dm = max(2e-12 * abs(mean), floor)
        dv = max(2e-12 * (sigma * sigma - detector.difference_noise_variance), floor)
        z = (grid - mean) / sigma
        log_change = np.abs(z) * dm / sigma + (z * z + 1.0) * dv / (2.0 * sigma * sigma) + 1e-15 * (z * z + 1.0)
        want = distribution_curve(pulse, basis, detector, grid)
        assert np.all(np.abs(table[:, column] - want) <= np.expm1(log_change) * want + np.finfo(float).tiny), column


@settings(max_examples=60, deadline=None)
@given(
    gain=st.floats(1.5, 30.0),
    n_total=st.floats(1e4, 1e7),
    sigmas=st.floats(0.5, 8.0),
    bit=st.sampled_from((0, 1)),
    prepared=st.sampled_from(list(Basis)),
    f=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
@example(gain=10.0, n_total=2e6, sigmas=5.5, bit=1, prepared=Basis.VH, f=0.5)
@example(gain=10.0, n_total=2e6, sigmas=5.5, bit=0, prepared=Basis.DIAG, f=1e-9)
def test_tap_cross_covariance_is_the_thinned_law(gain, n_total, sigmas, bit, prepared, f):
    # A tap thins Alice's pulse to 1 - f for Bob and f for Eve. In the
    # launch basis their difference numbers covary by f (1 - f) (V_match -
    # N_T); in mixed bases not at all (the symmetry in
    # laws._dual_basis_law). The mixed zero is a rounding residue of
    # sums of anti-squeezed terms, so it is bounded relative to V_mis: 1e-16
    # V_mis, twice the largest residue seen on sources up to N_T = 1e7.
    params = _design(gain, n_total, sigmas)
    _, v_match, v_mis, n_total_photons = source_law(params)
    joint = tap_split(alice_source(params, bit, prepared), f)
    other = Basis.DIAG if prepared is Basis.VH else Basis.VH
    same = joint_diff_moments(joint, prepared, prepared)[4]
    assert same == pytest.approx(f * (1.0 - f) * (v_match - n_total_photons), rel=1e-12)
    for basis_b, basis_e in ((prepared, other), (other, prepared)):
        assert abs(joint_diff_moments(joint, basis_b, basis_e)[4]) <= 1e-16 * v_mis


@pytest.mark.parametrize("f, cov", [(0.3, -3.78e5), (0.5, -4.5e5), (0.7, -3.78e5)])
def test_tap_cross_covariance_at_the_design_point(f, cov):
    for bit in (0, 1):
        for prepared in Basis:
            joint = tap_split(alice_source(DESIGN_POINT, bit, prepared), f)
            other = Basis.DIAG if prepared is Basis.VH else Basis.VH
            assert joint_diff_moments(joint, prepared, prepared)[4] == pytest.approx(cov, rel=1e-12)
            assert abs(joint_diff_moments(joint, prepared, other)[4]) <= 1e-9
            assert abs(joint_diff_moments(joint, other, prepared)[4]) <= 1e-9
