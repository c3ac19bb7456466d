"""Exact Fock oracle: self-consistency on known states, then the
engine-vs-oracle agreement gate."""

import dataclasses
import math
import re

import numpy as np
import pytest

from macroqkd.fock import (
    MAX_CUTOFF,
    FockState,
    _coherent_amplitudes,
    _lower_toeplitz,
    _rotation_block,
    _squeezed_coherent_amplitudes,
    _thinning_kernel,
    _two_mode_amplitudes,
    build_state_exact,
    diag_number_marginals,
    difference_moments,
    exact_diff_distribution,
    exact_loss_distribution,
    product_loss_distribution,
    rotate_exact,
)
from macroqkd.gaussian import PUMP_PHASE
from macroqkd.photostats import Basis
from macroqkd import fock, validate

# (alpha_V, alpha_H, r, theta) off the ladder's real/imaginary seeds and pi/2
# pump, light enough that both oracle paths truncate below 1e-15 at MAX_CUTOFF
COMPLEX_POINTS = [
    (0.9 - 0.4j, 0.3 + 1.1j, 0.6, 0.37),
    (1.2j, -0.7 + 0.2j, 0.3, 2.5),
    (-0.5 + 0.8j, 1.0, 0.45, -1.2),
    (0.2 + 1.3j, -1.1 - 0.3j, 0.7, 4.0),
    (1.4, 0.6 - 1.2j, 0.15, 0.9),
]
LADDER_POINTS = [
    (math.sqrt(av2), 1j * math.sqrt(ah2), r, PUMP_PHASE)
    for r in validate.LADDER_R
    for av2 in validate.LADDER_ALPHA_SQ
    for ah2 in validate.LADDER_ALPHA_SQ
]


# ----------------------------------------------------------------- self-tests


def test_vacuum_distribution():
    state = build_state_exact(0, 0, 0.0, 0.0)
    probs = exact_diff_distribution(state, Basis.VH)  # n at index n + cutoff
    assert probs[state.cutoff] == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.delete(probs, state.cutoff) < 1e-14)


def test_coherent_state_is_poisson():
    # one empty mode: difference distribution is Poisson(1) on n >= 0
    state = build_state_exact(1.0, 0, 0.0, 0.0)
    cut = state.cutoff
    probs = exact_diff_distribution(state, Basis.VH)  # n at index n + cutoff
    assert np.all(probs[:cut] == 0.0)
    for n in range(6):
        assert probs[n + cut] == pytest.approx(math.exp(-1) / math.factorial(n), rel=1e-10)
    mean, var = difference_moments(probs)
    assert mean == pytest.approx(1.0, rel=1e-10)
    assert var == pytest.approx(1.0, rel=1e-9)


def test_two_mode_squeezed_vacuum():
    state = build_state_exact(0, 0, 0.5, math.pi / 2)
    amps = np.abs(state.amplitudes) ** 2
    n_v = float(np.sum(amps * np.arange(state.cutoff + 1)[:, None]))
    assert n_v == pytest.approx(math.sinh(0.5) ** 2, rel=1e-12)
    # pair production conserves n exactly: var(n_V - n_H) = 0
    mean, var = difference_moments(exact_diff_distribution(state, Basis.VH))
    assert mean == pytest.approx(0.0, abs=1e-14)
    assert var == pytest.approx(0.0, abs=1e-12)


def test_squeezed_coherent_variance_matches_seed_total():
    # var(n) after amplification equals the seed photon number: 4 + 4 = 8
    state = build_state_exact(2.0, 2.0j, 0.5, math.pi / 2)
    mean, var = difference_moments(exact_diff_distribution(state, Basis.VH))
    assert mean == pytest.approx(0.0, abs=1e-9)
    assert var == pytest.approx(8.0, rel=1e-9)


def test_norm_deficit_reported_and_gated():
    state = build_state_exact(2.0, 2.0j, 0.5, math.pi / 2)
    assert 0.0 <= state.norm_deficit < 1e-10
    # a cutoff of 20 loses far more than the bound to truncation, and the
    # refusal names the deficit
    short = _direct_sum_build(3.0, 3.0j, 0.8, math.pi / 2, 20)
    deficit = 1.0 - np.sum(np.abs(short) ** 2)
    assert deficit > fock.TRUNCATION_BOUND
    refusal = re.escape(f"truncation bound violated: norm deficit {deficit:.3e}")
    with pytest.raises(ValueError, match=refusal):
        FockState(short)


def test_build_rejects_bad_args():
    with pytest.raises(ValueError, match="r must be"):
        build_state_exact(1.0, 0, -0.2, 0.0)
    with pytest.raises(ValueError, match="cutoff"):
        FockState(np.zeros((1, 1), dtype=complex))
    with pytest.raises(ValueError, match="cutoff"):
        FockState(np.zeros((MAX_CUTOFF + 2, MAX_CUTOFF + 2), dtype=complex))
    with pytest.raises(ValueError, match="square"):
        FockState(np.zeros((3, 4), dtype=complex))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.nan, 1.0)])
@pytest.mark.parametrize("arg", range(4))  # alpha_V, alpha_H, r, theta
@pytest.mark.parametrize(
    "builder",
    [build_state_exact, diag_number_marginals],
    ids=["build_state_exact", "diag_number_marginals"],
)
def test_builders_reject_non_finite_inputs(builder, arg, bad):
    # a NaN pulse must not reach the gate: max(0.0, nan) is 0.0, so its
    # deficit would read zero and its distribution come out empty
    pulse = [1.0, 0.5j, 0.5, 0.3]
    pulse[arg] = bad
    with pytest.raises(ValueError, match="must be finite"):
        builder(*pulse)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_amplitudes_fail_the_gate(bad):
    amps = np.zeros((3, 3), dtype=complex)
    amps[0, 0] = 1.0  # the vacuum, at cutoff 2, with one non-finite entry
    amps[1, 2] = bad
    with pytest.raises(ValueError, match="truncation.*nan"):
        FockState(amps)


def _direct_sum_build(alpha_v, alpha_h, r, theta, cutoff):
    # exp(Gam a+ b+) as one shifted slice-add per power k of Gam, each
    # weighted by Gam^k / k!
    gam = np.exp(1j * theta) * math.tanh(r)
    n = np.arange(cutoff + 1)
    sqrt_fact = np.exp(0.5 * fock._log_factorials(cutoff))
    mode = np.exp(-math.log(math.cosh(r)) * (n + 0.5)) / sqrt_fact
    c = np.outer(
        _coherent_amplitudes(alpha_v, cutoff) * mode, _coherent_amplitudes(alpha_h, cutoff) * mode
    )
    c *= np.exp(-np.conj(gam) * complex(alpha_v) * complex(alpha_h))
    out = np.zeros_like(c)
    for k in range(cutoff + 1):
        out[k:, k:] += gam**k / math.factorial(k) * c[: cutoff + 1 - k, : cutoff + 1 - k]
    return out * np.outer(sqrt_fact, sqrt_fact)


@pytest.mark.parametrize("cutoff", [1, 2, 40, MAX_CUTOFF])
@pytest.mark.parametrize("alpha_v, alpha_h, r, theta", COMPLEX_POINTS[:3])
def test_factorized_build_matches_direct_sum(alpha_v, alpha_h, r, theta, cutoff):
    built = _two_mode_amplitudes(alpha_v, alpha_h, r, theta, cutoff)
    direct = _direct_sum_build(alpha_v, alpha_h, r, theta, cutoff)
    scale = np.abs(direct).max()
    np.testing.assert_allclose(built, direct, rtol=0, atol=1e-14 * scale)
    mass = [np.sum(np.abs(amps) ** 2) for amps in (built, direct)]
    assert mass[0] == pytest.approx(mass[1], rel=0, abs=1e-15)


def test_lower_toeplitz_reads_x_on_and_below_the_diagonal_and_zero_above():
    rng = np.random.default_rng(11)
    for size in range(1, MAX_CUTOFF + 2):  # every build size, 1..cutoff + 1
        x = rng.normal(size=size) + 1j * rng.normal(size=size)
        expected = np.zeros((size, size), dtype=complex)
        for n in range(size):
            expected[n, : n + 1] = x[n::-1]  # T[n, k] = x[n - k] for k = 0..n
        toeplitz = _lower_toeplitz(x)
        assert toeplitz.dtype == expected.dtype and toeplitz.shape == expected.shape
        assert np.ascontiguousarray(toeplitz).tobytes() == expected.tobytes(), f"size={size}"

def test_rotation_sign_matches_engine_convention():
    # coherent (1, 0.5): DIAG mean must be +1 (cross term), not -1
    state = build_state_exact(1.0, 0.5, 0.0, 0.0)
    mean, _ = difference_moments(exact_diff_distribution(state, Basis.DIAG))
    assert mean == pytest.approx(1.0, rel=1e-9)


def _binomial_rotation_block(total: int, phi: float) -> np.ndarray:
    # <k, N-k| U |j, N-j> expanded directly: U sends a_V^dag to
    # c a_V^dag - s a_H^dag and a_H^dag to s a_V^dag + c a_H^dag; p of the
    # j V photons and k - p of the N - j H photons end up in V.
    c, s = math.cos(phi), math.sin(phi)
    out = np.zeros((total + 1, total + 1))
    for k in range(total + 1):
        for j in range(total + 1):
            norm = math.sqrt(
                math.factorial(k) * math.factorial(total - k)
                / (math.factorial(j) * math.factorial(total - j))
            )
            out[k, j] = norm * sum(
                math.comb(j, p) * math.comb(total - j, k - p)
                * c**p * (-s) ** (j - p) * s ** (k - p) * c ** (total - j - k + p)
                for p in range(max(0, k - (total - j)), min(j, k) + 1)
            )
    return out


@pytest.mark.parametrize("phi", [math.pi / 4, 0.3, 1.1, -0.7])
def test_rotation_block_matches_binomial_sum(phi):
    for total in range(13):
        np.testing.assert_allclose(
            _rotation_block(total, phi), _binomial_rotation_block(total, phi), rtol=0, atol=1e-13
        )


def test_rotation_block_orthogonal_and_composes_at_full_size():
    total = 2 * MAX_CUTOFF
    a, b = 0.3, math.pi / 4
    m = _rotation_block(total, a)
    np.testing.assert_allclose(m @ m.T, np.eye(total + 1), rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        m @ _rotation_block(total, b), _rotation_block(total, a + b), rtol=0, atol=1e-13
    )


@pytest.mark.parametrize("phi", [0.0, 0.3, math.pi / 4])
def test_rotation_leaves_a_vacuum_only_array_unchanged(phi):
    amps = np.array([[0.6 - 0.8j]])
    rotated = rotate_exact(amps, phi)
    assert rotated.shape == (1, 1)
    np.testing.assert_array_equal(rotated, amps)


@pytest.mark.parametrize("cutoff", [1, 2, 20])
def test_rotation_round_trip_restores_the_amplitudes(cutoff):
    # the first rotation holds every N-block of the input in full, so rotating
    # back by -phi returns the input in the top-left block and zero elsewhere
    rng = np.random.default_rng(cutoff)
    amps = rng.normal(size=(cutoff + 1,) * 2) + 1j * rng.normal(size=(cutoff + 1,) * 2)
    back = rotate_exact(rotate_exact(amps, 0.3), -0.3)
    expected = np.zeros_like(back)
    expected[: cutoff + 1, : cutoff + 1] = amps
    assert back.shape == (4 * cutoff + 1,) * 2
    np.testing.assert_allclose(back, expected, rtol=0, atol=1e-13)

@pytest.mark.parametrize("alpha_v, alpha_h, r, theta", COMPLEX_POINTS)
def test_factorized_diag_distribution_matches_rotation(alpha_v, alpha_h, r, theta):
    # the +45/-45 product state against the Wigner-d rotation of the
    # two-mode build, at a cutoff where both truncations are below 1e-15
    state = FockState(_two_mode_amplitudes(alpha_v, alpha_h, r, theta, MAX_CUTOFF))
    marginals, deficit = diag_number_marginals(alpha_v, alpha_h, r, theta)
    assert state.norm_deficit < 1e-15 and deficit < 1e-15
    for eta in (0.0, 0.3, 0.9):
        rotated = exact_loss_distribution(state, eta, Basis.DIAG)
        factorized = product_loss_distribution(marginals, eta)
        np.testing.assert_allclose(factorized, rotated, rtol=0, atol=1e-14, err_msg=f"eta={eta}")


@pytest.mark.parametrize("alpha_v, alpha_h, r, theta", LADDER_POINTS + COMPLEX_POINTS)
def test_sized_diag_marginals_match_full_span(alpha_v, alpha_h, r, theta):
    marginals, deficit = diag_number_marginals(alpha_v, alpha_h, r, theta)
    assert marginals.shape == (2, 2 * MAX_CUTOFF + 1)
    assert deficit <= 1e-12
    factors = [
        ((alpha_v + alpha_h) / math.sqrt(2.0), theta),
        ((alpha_h - alpha_v) / math.sqrt(2.0), theta + math.pi),
    ]
    for row, (beta, phi) in zip(marginals, factors):
        full = np.abs(_squeezed_coherent_amplitudes(beta, r, phi, 2 * MAX_CUTOFF)) ** 2
        np.testing.assert_allclose(row, full, rtol=0, atol=1e-15)
        # the Chernoff size the row is built to leaves at most the promised mass beyond it
        size = np.flatnonzero(row)[-1]
        assert full[size + 1 :].sum() <= fock._TAIL_MASS


@pytest.mark.parametrize(
    "alpha_v, alpha_h, r, theta", [p for p in LADDER_POINTS if p[2] <= 0.5] + COMPLEX_POINTS
)
def test_state_cutoff_bounds_each_mode_tail(alpha_v, alpha_h, r, theta):
    cutoff = build_state_exact(alpha_v, alpha_h, r, theta).cutoff
    assert cutoff < MAX_CUTOFF
    joint = np.abs(_direct_sum_build(alpha_v, alpha_h, r, theta, MAX_CUTOFF)) ** 2
    for marginal in (joint.sum(axis=1), joint.sum(axis=0)):  # V, then H
        assert marginal[cutoff + 1 :].sum() <= fock._TAIL_MASS
    # A build at the cutoff keeps these amplitudes exactly and loses the rest;
    # its 1 - sum |c|^2 reads that loss only to rounding (~1e-15), so the loss
    # is summed here directly.
    lost = joint[cutoff + 1 :].sum() + joint[: cutoff + 1, cutoff + 1 :].sum()
    assert lost <= 2 * fock._TAIL_MASS


@pytest.mark.parametrize("alpha_v, alpha_h, r, theta", [p for p in LADDER_POINTS if p[2] > 0.5])
def test_heavy_ladder_states_meet_the_bound_at_the_cap(alpha_v, alpha_h, r, theta):
    # the r = 0.8 states' Chernoff sizes (89-136) pass the cap, so each is
    # built at MAX_CUTOFF and must still lose at most TRUNCATION_BOUND
    state = build_state_exact(alpha_v, alpha_h, r, theta)
    assert state.cutoff == MAX_CUTOFF
    assert state.norm_deficit <= fock.TRUNCATION_BOUND


def test_cap_is_the_smallest_that_meets_the_bound():
    # the heaviest ladder point loses 7.1e-9 at MAX_CUTOFF and 1.07e-8 one below
    with pytest.raises(ValueError, match="truncation"):
        FockState(_two_mode_amplitudes(2.0, 2.0j, 0.8, PUMP_PHASE, MAX_CUTOFF - 1))


@pytest.mark.parametrize(
    "beta, phi",
    [((2 + 2j) / math.sqrt(2), PUMP_PHASE), ((2j - 2) / math.sqrt(2), PUMP_PHASE + math.pi)],
)
def test_squeezed_convolution_stays_out_of_subnormals(monkeypatch, beta, phi):
    # the +-45 factors of the heaviest ladder point, at the 2 MAX_CUTOFF cap
    operands = []
    convolve = np.convolve

    def capture(a, v, *args):
        operands.append((a, v))
        return convolve(a, v, *args)

    monkeypatch.setattr(np, "convolve", capture)
    _squeezed_coherent_amplitudes(beta, 0.8, phi, 2 * MAX_CUTOFF)
    [(w, c)] = operands
    # every real product the complex convolution forms
    products = np.abs(np.multiply.outer(np.stack((w.real, w.imag)), np.stack((c.real, c.imag))))
    assert np.all((products == 0.0) | (products >= np.finfo(float).tiny))


def test_difference_moments_match_direct_sums():
    alpha_v, alpha_h, r, theta = COMPLEX_POINTS[0]
    state = build_state_exact(alpha_v, alpha_h, r, theta)
    marginals, _ = diag_number_marginals(alpha_v, alpha_h, r, theta)
    for eta in (0.0, 0.4):
        for probs, size in (
            (exact_loss_distribution(state, eta, Basis.VH), state.cutoff),
            (product_loss_distribution(marginals, eta), marginals.shape[1] - 1),
        ):
            assert probs.shape == (2 * size + 1,)  # n = -size..size at index n + size
            n = np.arange(-size, size + 1)
            mass = probs.sum()
            mean = np.sum(n * probs) / mass
            var = np.sum(n**2 * probs) / mass - mean**2
            np.testing.assert_allclose(difference_moments(probs), (mean, var), rtol=1e-13)


def test_diag_marginals_gate_truncation():
    with pytest.raises(ValueError, match="r must be"):
        diag_number_marginals(1.0, 0, -0.2, 0.0)
    with pytest.raises(ValueError, match="truncation"):
        diag_number_marginals(3.0, 3.0j, 3.0, math.pi / 2)
    # a pulse whose +45 factor is cut at its 2 MAX_CUTOFF span, inside the bound
    marginals, deficit = diag_number_marginals(2.8, 2.8j, 0.8, math.pi / 2)
    assert 1e-10 < deficit <= fock.TRUNCATION_BOUND
    assert deficit == pytest.approx(1.0 - marginals[0].sum() * marginals[1].sum())


def test_log_factorials_match_lgamma():
    table = fock._log_factorials(2 * MAX_CUTOFF)
    assert table.tolist() == [math.lgamma(k + 1.0) for k in range(2 * MAX_CUTOFF + 1)]
    assert fock._log_factorials(7).tolist() == table[:8].tolist()
    with pytest.raises(ValueError, match="cutoff"):
        _coherent_amplitudes(1.0, 2 * MAX_CUTOFF + 1)


# ----------------------------------------------------------------------- loss


def test_loss_endpoints_match():
    state = build_state_exact(1.5, 1.5j, 0.4, math.pi / 2)
    base = exact_diff_distribution(state, Basis.VH)
    same = exact_loss_distribution(state, 0.0, Basis.VH)
    np.testing.assert_array_equal(same, base)  # the lossless distribution is the eta = 0 case
    dark = exact_loss_distribution(state, 1.0, Basis.VH)
    assert dark[state.cutoff] == pytest.approx(1.0, abs=1e-12)  # n = 0 at index 0 + cutoff


@pytest.mark.parametrize("transmission", [0.0, 0.3, 0.5, 1.0])
def test_thinning_kernel_matches_binomial_pmf(transmission):
    kernel = _thinning_kernel(transmission)
    size = 2 * MAX_CUTOFF
    assert kernel.shape == (size + 1, size + 1)
    exact = np.zeros_like(kernel)
    for n in range(size + 1):
        for k in range(n + 1):
            exact[k, n] = math.comb(n, k) * transmission**k * (1 - transmission) ** (n - k)
    assert np.all(np.tril(kernel, -1) == 0.0)  # no more photons kept than sent
    seen = exact > 1e-300
    np.testing.assert_allclose(kernel[seen], exact[seen], rtol=1e-14, atol=0)


def test_loss_halves_mean_and_matches_moment_formula():
    state = build_state_exact(1.5, 1.5j, 0.4, math.pi / 2)
    full_mean, _ = difference_moments(exact_diff_distribution(state, Basis.VH))
    mean, var = difference_moments(exact_loss_distribution(state, 0.5, Basis.VH))
    assert mean == pytest.approx(0.5 * full_mean, abs=1e-9)
    # engine prediction: T^2 var0 + T(1-T) N_T
    from macroqkd.gaussian import apply_loss, apply_two_mode_squeeze, make_coherent_seed
    from macroqkd.photostats import diff_number_moments

    g = apply_two_mode_squeeze(make_coherent_seed(1.5, 1.5j), 0.4, math.pi / 2)
    predicted = diff_number_moments(apply_loss(g, 0.5), Basis.VH)
    assert var == pytest.approx(predicted.variance, rel=1e-6)


def test_gaussian_approximation_improves_with_photon_number():
    # total-variation distance between the exact P(n) and the
    # moment-matched Gaussian falls as the pulse gets brighter
    import scipy.stats

    tv = []
    for a_sq in (1.0, 2.0, 4.0):
        a = math.sqrt(a_sq)
        state = build_state_exact(a, 1j * a, 0.4, math.pi / 2)
        exact = exact_diff_distribution(state, Basis.VH)
        mean, var = difference_moments(exact)
        ns = np.arange(-state.cutoff, state.cutoff + 1)
        approx = scipy.stats.norm.cdf(ns + 0.5, mean, math.sqrt(var)) - scipy.stats.norm.cdf(
            ns - 0.5, mean, math.sqrt(var)
        )
        tv.append(0.5 * float(np.sum(np.abs(exact - approx))))
    assert tv[0] > tv[1] > tv[2]


# --------------------------------------------------------------- oracle gate


def test_single_ladder_point_agrees():
    rows = validate.compare_point(0.5, 2.0, 1.0, 0.5, Basis.DIAG)
    for row in rows:
        assert row.passed, row
        assert row.relative_error <= 1e-6


@pytest.mark.parametrize(
    "point", [(0.5, 2.0, 1.0, 0.5, Basis.VH), (0.8, 4.0, 1.0, 0.0, "DIAG")]
)
def test_compare_point_returns_the_ladder_rows(point):
    ladder = [
        row
        for row in validate.run_ladder()
        if (row.r, row.alpha_v_sq, row.alpha_h_sq, row.eta, row.basis)
        == (*point[:4], Basis(point[4]).value)
    ]
    assert len(ladder) == 2
    assert validate.compare_point(*point) == ladder


def test_full_ladder_passes():
    rows = validate.run_ladder()
    assert validate.ladder_passed(rows)
    assert len(rows) == 3 * 3 * 3 * 2 * 2 * 2  # r x aV x aH x eta x basis x quantity
    worst = max(rows, key=lambda r: r.relative_error)
    assert worst.relative_error <= 1e-6, worst


def test_ladder_needs_no_fock_rotation(monkeypatch):
    def no_rotation(amplitudes, phi):
        raise AssertionError("the ladder rotated a Fock state")

    monkeypatch.setattr(fock, "rotate_exact", no_rotation)
    rows = validate.run_ladder()
    assert validate.ladder_passed(rows)
    diag = [row for row in rows if row.basis == Basis.DIAG.value]
    assert len(diag) == len(rows) // 2
    assert all(row.truncation_deficit <= fock.TRUNCATION_BOUND for row in rows)


def test_ladder_reads_the_exported_distributions(monkeypatch):
    # the ladder's oracle rows go through the public names, so a trace of
    # fock.exact_loss_distribution or fock.product_loss_distribution sees them
    calls = dict.fromkeys(("exact_loss_distribution", "product_loss_distribution"), 0)
    for name in calls:
        def counting(*args, _name=name, _original=getattr(fock, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(fock, name, counting)
    assert validate.ladder_passed(validate.run_ladder())
    points = len(validate.LADDER_R) * len(validate.LADDER_ALPHA_SQ) ** 2
    # one call per (point, eta): V/H rows through the first, DIAG through the second
    assert calls == dict.fromkeys(calls, points * len(validate.LADDER_ETA))


def test_cold_ladder_builds_one_thinning_kernel():
    _thinning_kernel.cache_clear()
    validate.run_ladder()
    assert _thinning_kernel.cache_info().misses == 1


def test_injected_variance_fault_is_caught(monkeypatch):
    engine_moments = validate.diff_number_moments

    def broken_moments(state, basis):
        mom = engine_moments(state, basis)
        return dataclasses.replace(mom, variance=mom.variance * (1 + 1e-4))

    monkeypatch.setattr(validate, "diff_number_moments", broken_moments)
    rows = validate.run_ladder()
    assert not validate.ladder_passed(rows)
    bad = [r for r in rows if not r.passed]
    assert all(r.quantity == "variance" for r in bad)
    assert len(bad) >= len(rows) // 4
