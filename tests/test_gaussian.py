"""Engine-level tests: state construction, symplectic transforms, loss,
tap splitting and Alice's source."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macroqkd.gaussian import (
    GaussianState,
    SourceParams,
    alice_source,
    apply_loss,
    apply_rotation,
    apply_two_mode_squeeze,
    make_coherent_seed,
    rotation_symplectic,
    solve_gain_squeeze,
    source_param_violations,
    squeeze_symplectic,
    symplectic_form,
    tap_split,
)
from macroqkd.photostats import Basis, diff_number_moments

DESIGN_POINT = SourceParams(gain_G=10.0, n_total_amp=2e6, bit_amplitude_N=2460.0)


def amplified_total_number(params: SourceParams, r: float) -> float:
    """Mean total photon number after squeezing the aligned-phase seed by r.

    Closed form for the seed (alpha_V real, alpha_H = i|alpha_H|) at the
    pump phase PUMP_PHASE:
    N_T(r) = N_seed cosh 2r + 2 |alpha_V||alpha_H| sinh 2r + 2 sinh^2 r.
    """
    n_seed = params.n_total_seed
    av2 = 0.5 * (n_seed + params.bit_amplitude_N)
    ah2 = 0.5 * (n_seed - params.bit_amplitude_N)
    return (
        n_seed * math.cosh(2 * r)
        + 2.0 * math.sqrt(av2) * math.sqrt(ah2) * math.sinh(2 * r)
        + 2.0 * math.sinh(r) ** 2
    )


def total_mean_photons(state: GaussianState) -> float:
    return 0.5 * (np.trace(state.cov) - state.num_modes) + 0.5 * float(
        state.mean @ state.mean
    )


# ---------------------------------------------------------------- construction


def test_vacuum_seed():
    vac = make_coherent_seed(0, 0)
    assert np.all(vac.mean == 0)
    np.testing.assert_allclose(vac.cov, 0.5 * np.eye(4))


def test_coherent_seed_mean_convention():
    s = make_coherent_seed(1 + 2j, -3j)
    np.testing.assert_allclose(
        s.mean, [math.sqrt(2), 2 * math.sqrt(2), 0.0, -3 * math.sqrt(2)]
    )


def test_design_seed_photon_numbers():
    # G=10, N_T,amp=2e6, N=2460 -> seed of 2e5 photons split 101230/98770
    s = make_coherent_seed(math.sqrt(101_230.0), 1j * math.sqrt(98_770.0))
    assert total_mean_photons(s) == pytest.approx(2e5, rel=1e-12)
    assert diff_number_moments(s, Basis.VH).mean == pytest.approx(2460.0, rel=1e-12)


def test_single_photon_coherent_state():
    s = make_coherent_seed(1, 0)
    m = diff_number_moments(s, Basis.VH)
    assert m.mean == pytest.approx(1.0)
    assert total_mean_photons(s) == pytest.approx(1.0)


def test_state_shape_validation():
    with pytest.raises(ValueError, match="mean"):
        GaussianState(("V", "H"), np.zeros(3), 0.5 * np.eye(4))
    with pytest.raises(ValueError, match="cov"):
        GaussianState(("V", "H"), np.zeros(4), 0.5 * np.eye(6))
    bad = 0.5 * np.eye(4)
    bad[0, 1] = 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        GaussianState(("V", "H"), np.zeros(4), bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["mean", "cov"])
def test_state_refuses_non_finite_entries(field, bad):
    mean, cov = np.zeros(4), 0.5 * np.eye(4)
    if field == "mean":
        mean[0] = bad
    else:
        cov[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        GaussianState(("V", "H"), mean, cov)


def test_states_are_immutable():
    s = make_coherent_seed(1, 0)
    with pytest.raises((ValueError, RuntimeError)):
        s.mean[0] = 5.0
    with pytest.raises((ValueError, RuntimeError)):
        s.cov[0, 0] = 5.0


# ------------------------------------------------------------------- squeezing


def test_squeeze_r0_is_identity():
    s = make_coherent_seed(1.5, 2j)
    out = apply_two_mode_squeeze(s, 0.0, math.pi / 2)
    np.testing.assert_allclose(out.mean, s.mean, atol=1e-14)
    np.testing.assert_allclose(out.cov, s.cov, atol=1e-14)


def test_squeeze_rejects_negative_r():
    with pytest.raises(ValueError, match="r must be >= 0"):
        apply_two_mode_squeeze(make_coherent_seed(0, 0), -0.1, 0.0)


def test_two_mode_squeezed_vacuum_photon_numbers():
    # <n_V> = <n_H> = sinh^2(r), difference exactly zero
    out = apply_two_mode_squeeze(make_coherent_seed(0, 0), 0.5, math.pi / 2)
    expected = math.sinh(0.5) ** 2  # 0.2715403174076219
    assert total_mean_photons(out) == pytest.approx(2 * expected, rel=1e-12)
    m = diff_number_moments(out, Basis.VH)
    assert m.mean == pytest.approx(0.0, abs=1e-12)
    assert m.variance == pytest.approx(0.0, abs=1e-9)


def test_gain_equation_solution_reaches_target():
    r = solve_gain_squeeze(DESIGN_POINT)
    assert amplified_total_number(DESIGN_POINT, r) == pytest.approx(2e6, rel=1e-11)
    # the amplitude coefficient cosh r implied by G=10 at this seed split
    assert math.cosh(r) == pytest.approx(1.74, abs=0.01)


@settings(max_examples=60, deadline=None)
@given(
    gain=st.floats(1.001, 1e3),
    log_total=st.floats(0.0, 250.0),
    frac=st.floats(1e-6, 0.999),
)
@example(gain=10.0, log_total=200.0, frac=0.1)  # SourceParams(10, 1e200, 1e198)
def test_every_pulse_carries_the_target_photon_number(gain, log_total, frac):
    # the squeeze solves the gain equation even where |alpha_V|^2 |alpha_H|^2
    # overflows a float
    n_total = 10.0**log_total
    params = SourceParams(gain, n_total, frac * n_total / gain)
    r = solve_gain_squeeze(params)
    assert amplified_total_number(params, r) == pytest.approx(n_total, rel=1e-12)
    for bit in (0, 1):
        for basis in Basis:
            pulse = alice_source(params, bit, basis)
            assert total_mean_photons(pulse) == pytest.approx(n_total, rel=1e-12)


def test_difference_variance_survives_amplification():
    # amplification leaves var(n) at the seed total: the sub-shot-noise core
    pulse = alice_source(DESIGN_POINT, 1, Basis.VH)
    m = diff_number_moments(pulse, Basis.VH)
    assert m.mean == pytest.approx(2460.0, rel=1e-10)
    assert m.variance == pytest.approx(2e5, rel=1e-9)
    assert total_mean_photons(pulse) == pytest.approx(2e6, rel=1e-10)


# -------------------------------------------------------------------- rotation


def test_rotation_identity():
    s = make_coherent_seed(1.0, 0.5j)
    out = apply_rotation(s, 0.0)
    np.testing.assert_allclose(out.mean, s.mean, atol=1e-15)


def test_rotation_splits_coherent_state():
    alpha = 2.0
    out = apply_rotation(make_coherent_seed(alpha, 0), math.pi / 4)
    # (alpha, 0) -> (alpha/sqrt2, -alpha/sqrt2)
    np.testing.assert_allclose(
        out.mean, [alpha, 0.0, -alpha, 0.0], atol=1e-12
    )
    assert total_mean_photons(out) == pytest.approx(alpha**2, rel=1e-12)


def test_rotation_preserves_total_photon_number():
    pulse = alice_source(DESIGN_POINT, 1, Basis.VH)
    rotated = apply_rotation(pulse, math.pi / 4)
    assert total_mean_photons(rotated) == pytest.approx(
        total_mean_photons(pulse), rel=1e-9
    )


# ------------------------------------------------------------------------ loss


def test_loss_endpoints():
    s = alice_source(DESIGN_POINT, 1, Basis.VH)
    out0 = apply_loss(s, 0.0)
    np.testing.assert_allclose(out0.mean, s.mean)
    np.testing.assert_allclose(out0.cov, s.cov)
    out1 = apply_loss(s, 1.0)
    np.testing.assert_allclose(out1.mean, np.zeros(4), atol=1e-12)
    np.testing.assert_allclose(out1.cov, 0.5 * np.eye(4), atol=1e-12)


def test_loss_range_check():
    s = make_coherent_seed(1, 0)
    for eta in (-0.1, 1.1):
        with pytest.raises(ValueError, match="eta"):
            apply_loss(s, eta)


def test_loss_half_on_design_pulse():
    out = apply_loss(alice_source(DESIGN_POINT, 1, Basis.VH), 0.5)
    m = diff_number_moments(out, Basis.VH)
    assert m.mean == pytest.approx(1230.0, rel=1e-10)
    # 0.25 * 2e5 + 0.25 * 2e6 from the beamsplitter vacuum admixture
    assert m.variance == pytest.approx(5.5e5, rel=1e-9)


# ------------------------------------------------------------------- tap split


def test_tap_split_marginals_match_loss_exactly():
    pulse = alice_source(DESIGN_POINT, 1, Basis.VH)
    joint = tap_split(pulse, 0.5)
    assert joint.mode_labels == ("V_B", "H_B", "V_E", "H_E")
    bob = joint.marginal(("V_B", "H_B"))
    eve = joint.marginal(("V_E", "H_E"))
    lost = apply_loss(pulse, 0.5)
    np.testing.assert_allclose(bob.mean, lost.mean, atol=1e-12)
    np.testing.assert_allclose(bob.cov, lost.cov, atol=1e-12)
    np.testing.assert_allclose(eve.mean, lost.mean, atol=1e-12)
    np.testing.assert_allclose(eve.cov, lost.cov, atol=1e-12)


def test_tap_split_asymmetric_marginals():
    pulse = alice_source(DESIGN_POINT, 0, Basis.DIAG)
    eta = 0.3
    joint = tap_split(pulse, eta)
    bob = joint.marginal(("V_B", "H_B"))
    eve = joint.marginal(("V_E", "H_E"))
    lb, le = apply_loss(pulse, eta), apply_loss(pulse, 1 - eta)
    np.testing.assert_allclose(bob.cov, lb.cov, atol=1e-10)
    np.testing.assert_allclose(eve.cov, le.cov, atol=1e-10)
    np.testing.assert_allclose(bob.mean, lb.mean, atol=1e-10)
    np.testing.assert_allclose(eve.mean, le.mean, atol=1e-10)


def test_tap_split_coherent_stays_product():
    joint = tap_split(make_coherent_seed(2.0, 0), 0.5)
    # coherent in -> product of coherent out: zero cross blocks
    np.testing.assert_allclose(joint.cov, 0.5 * np.eye(8), atol=1e-12)
    assert total_mean_photons(joint.marginal(("V_B", "H_B"))) == pytest.approx(2.0)
    assert total_mean_photons(joint.marginal(("V_E", "H_E"))) == pytest.approx(2.0)


def test_tap_split_range_check():
    s = make_coherent_seed(1, 0)
    for eta in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError, match="eta"):
            tap_split(s, eta)


# ---------------------------------------------------------------- alice_source


def test_alice_source_bit_sign_convention():
    m1 = diff_number_moments(alice_source(DESIGN_POINT, 1, Basis.VH), Basis.VH)
    m0 = diff_number_moments(alice_source(DESIGN_POINT, 0, Basis.VH), Basis.VH)
    assert m1.mean == pytest.approx(2460.0, rel=1e-10)
    assert m0.mean == pytest.approx(-2460.0, rel=1e-10)
    assert m0.variance == pytest.approx(m1.variance, rel=1e-12)


def test_alice_source_diag_moves_signal_between_observables():
    pulse = alice_source(DESIGN_POINT, 1, Basis.DIAG)
    assert diff_number_moments(pulse, Basis.VH).mean == pytest.approx(0.0, abs=1e-6)
    assert diff_number_moments(pulse, Basis.DIAG).mean == pytest.approx(
        2460.0, rel=1e-10
    )


def test_source_param_validation():
    assert source_param_violations(10.0, 2e6, 2460.0) == []
    assert source_param_violations(0.5, 2e6, 2460.0)  # gain too small
    assert source_param_violations(10.0, -1.0, 10.0)
    assert source_param_violations(10.0, 2e6, 2.1e5)  # N above seed total
    with pytest.raises(ValueError):
        SourceParams(gain_G=10.0, n_total_amp=2e6, bit_amplitude_N=3e5)
    with pytest.raises(ValueError):
        alice_source(DESIGN_POINT, 2, Basis.VH)


# ------------------------------------------------------------------ properties


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(0.0, 3.0),
    theta=st.floats(0.0, 2 * math.pi),
    phi=st.floats(-math.pi, math.pi),
)
def test_symplectic_invariance(r, theta, phi):
    omega = symplectic_form(2)
    for s in (squeeze_symplectic(r, theta), rotation_symplectic(phi)):
        np.testing.assert_allclose(s @ omega @ s.T, omega, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(eta=st.floats(0.01, 0.99))
def test_tap_symplectic_invariance(eta):
    # embed the tap into an 8x8 transform through its action on basis states
    pulse = make_coherent_seed(1.0, 1.0j)
    joint = tap_split(pulse, eta)
    joint.validate_physical()
    omega8 = symplectic_form(4)
    nus = np.sort(np.abs(np.linalg.eigvals(omega8 @ joint.cov)))[::2]
    assert np.all(nus >= 0.5 - 1e-9)


@settings(max_examples=40, deadline=None)
@given(
    n_seed=st.floats(10.0, 1e4),
    frac=st.floats(-0.9, 0.9),
    r=st.floats(0.0, 1.2),
)
def test_difference_number_conserved_by_squeezing(n_seed, frac, r):
    # pi/2 phase seed, theta = pi/2: mean and variance of n unchanged
    n_diff = frac * n_seed
    alpha_v = math.sqrt(0.5 * (n_seed + n_diff))
    alpha_h = 1j * math.sqrt(0.5 * (n_seed - n_diff))
    seed = make_coherent_seed(alpha_v, alpha_h)
    before = diff_number_moments(seed, Basis.VH)
    after = diff_number_moments(
        apply_two_mode_squeeze(seed, r, math.pi / 2), Basis.VH
    )
    assert after.mean == pytest.approx(before.mean, rel=1e-9, abs=1e-9)
    assert after.variance == pytest.approx(before.variance, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    eta1=st.floats(0.0, 1.0),
    eta2=st.floats(0.0, 1.0),
    r=st.floats(0.0, 1.5),
)
@example(eta1=0.5, eta2=1.0 - 2.0**-53, r=1.5)
def test_loss_semigroup(eta1, eta2, r):
    # The combined loss is stated in transmission space: 1 - (1-eta1)(1-eta2)
    # rounds away the product t1*t2 when one transmission is near 2^-53.
    state = apply_two_mode_squeeze(make_coherent_seed(1.3, 0.7j), r, math.pi / 2)
    two_step = apply_loss(apply_loss(state, eta1), eta2)
    t = (1.0 - eta1) * (1.0 - eta2)
    np.testing.assert_allclose(two_step.mean, math.sqrt(t) * state.mean, atol=1e-12)
    np.testing.assert_allclose(
        two_step.cov, t * state.cov + (1.0 - t) * 0.5 * np.eye(4), atol=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(r=st.floats(0.0, 1.5), phi=st.floats(-math.pi, math.pi), eta=st.floats(0.0, 0.99))
def test_operations_preserve_physicality(r, phi, eta):
    state = apply_two_mode_squeeze(make_coherent_seed(2.0, 1.5j), r, math.pi / 2)
    state = apply_rotation(state, phi)
    state = apply_loss(state, eta)
    state.validate_physical()


def test_physicality_check_rejects_garbage():
    bad = GaussianState(("V", "H"), np.zeros(4), 0.1 * np.eye(4))
    with pytest.raises(ValueError, match="unphysical"):
        bad.validate_physical()
