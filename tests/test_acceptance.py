"""Acceptance gate: every exit criterion at its stated tolerance.

Each test records one pass/fail line, printed in the terminal summary by
conftest. Frozen expected values were computed from independent oracles
before the implementation existed: mpmath.erfc at 40 digits for the
closed-form anchors, scipy quadrature for the dual-basis inference rate,
and the exact Fock ladder for the moment formulas.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from macroqkd import validate
from macroqkd.attacks import AttackConfig, AttackKind, dual_basis_measure
from macroqkd.cli import main
from macroqkd.gaussian import SourceParams, alice_source
from macroqkd.photostats import (
    NOISELESS,
    Basis,
    bob_error_vs_loss,
    diff_number_moments,
    eve_tap_probability,
)
from macroqkd.protocol import (
    SessionConfig,
    VERDICT_CLEAN,
    VERDICT_DETECTED,
    _moment_table,
    _pulse_cells,
    run_session,
)
from macroqkd.streams import LANE_PULSE, derive_stream

DESIGN_POINT = SourceParams(gain_G=10.0, n_total_amp=2e6, bit_amplitude_N=2460.0)

BASELINE_P_ERR = 1.891139854477733e-08  # mpmath.erfc, 40 digits
P_ERR_HALF_LOSS = 0.04860510117992879
EVE_HALF_PROBABILITY = 0.9513948988200712


def test_criterion_1_variance_conservation():
    t0 = time.time()
    pulse = alice_source(DESIGN_POINT, 1, Basis.VH)
    var = diff_number_moments(pulse, Basis.VH).variance
    elapsed = time.time() - t0
    ok = abs(var / 2e5 - 1.0) <= 1e-9
    record_criterion(
        1,
        "amplified correct-basis var(n) = N_T/G = 2e5 to 1e-9 relative",
        ok,
        f"var={var:.6f}, {elapsed:.2f}s",
    )
    assert ok
    assert elapsed < 1.0


def test_criterion_2_oracle_gate():
    t0 = time.time()
    rows = validate.run_ladder()
    elapsed = time.time() - t0
    worst = max(rows, key=lambda r: r.relative_error)
    ok = validate.ladder_passed(rows) and elapsed < 60.0
    record_criterion(
        2,
        "closed-form law vs Fock oracle to 1e-6 relative across the full ladder",
        ok,
        f"{len(rows)} comparisons, worst rel err {worst.relative_error:.2e}, {elapsed:.1f}s",
    )
    assert validate.ladder_passed(rows), worst
    assert elapsed < 60.0


def test_criterion_3_baseline_error_rate():
    t0 = time.time()
    p = bob_error_vs_loss(DESIGN_POINT, 0.0, NOISELESS)
    elapsed = time.time() - t0
    ok_frozen = abs(p / BASELINE_P_ERR - 1.0) <= 1e-9
    ok_order = round(math.log10(p)) == -8
    # The quoted nominal anchor for this quantity, 1.93e-8 +/- 2%, is
    # inconsistent with its own defining formula: 0.5*erfc(2460/sqrt(2*2e5))
    # evaluates to 1.8911e-8, which misses that band by 0.06%. The frozen
    # high-precision erfc value is asserted instead, far tighter than the
    # nominal band; the divergence is reported alongside the result.
    nominal_band = 1.93e-8 * 0.98 <= p <= 1.93e-8 * 1.02
    record_criterion(
        3,
        "closed-form P_ERR(eta=0) matches its high-precision erfc value, order 1e-8",
        ok_frozen and ok_order,
        f"P={p:.6e}, frozen={BASELINE_P_ERR:.6e}, "
        f"nominal 1.93e-8+/-2% band contains it: {nominal_band}, {elapsed:.2f}s",
    )
    assert ok_frozen
    assert ok_order
    assert elapsed < 1.0


def test_criterion_4_error_vs_loss_curve():
    t0 = time.time()
    etas = np.linspace(0.0, 0.9, 91)
    curve = [bob_error_vs_loss(DESIGN_POINT, float(e), NOISELESS) for e in etas]
    increasing = all(b > a for a, b in zip(curve, curve[1:]))
    p_half = bob_error_vs_loss(DESIGN_POINT, 0.5, NOISELESS)
    in_band = 4.86e-2 * 0.98 <= p_half <= 4.86e-2 * 1.02
    frozen = abs(p_half / P_ERR_HALF_LOSS - 1.0) <= 1e-9

    config = SessionConfig(
        source=DESIGN_POINT, channel_loss=0.5, detector=NOISELESS, num_pulses=100_000, seed=404
    )
    report = run_session(config)
    se = math.sqrt(p_half * (1.0 - p_half) / report.sampled_count)
    mc_ok = abs(report.estimated_error_rate - p_half) < 5 * se
    elapsed = time.time() - t0
    ok = increasing and in_band and frozen and mc_ok and elapsed < 30.0
    record_criterion(
        4,
        "P_ERR strictly increasing; P_ERR(0.5)=4.86e-2 +/- 2%; Monte Carlo within 5 SE",
        ok,
        f"P(0.5)={p_half:.6e}, MC={report.estimated_error_rate:.4f} "
        f"(n={report.sampled_count}), {elapsed:.1f}s",
    )
    assert increasing
    assert in_band
    assert frozen
    assert mc_ok
    assert elapsed < 30.0


def test_criterion_5_eve_tap_anchors():
    t0 = time.time()
    p0 = eve_tap_probability(DESIGN_POINT, 0.0)
    p_half = eve_tap_probability(DESIGN_POINT, 0.5)
    p1 = eve_tap_probability(DESIGN_POINT, 1.0)
    elapsed = time.time() - t0
    ok = (
        p0 == 0.5
        and abs(p_half - 0.951) <= 0.005
        and abs(p1 - (1.0 - BASELINE_P_ERR)) <= 1e-12
        and elapsed < 1.0
    )
    record_criterion(
        5,
        "P_eta(0)=0.5 exactly; P_eta(0.5)=0.951 +/- 0.005; P_eta(1)=1-P_ERR(0)",
        ok,
        f"P(0.5)={p_half:.6f}, {elapsed:.2f}s",
    )
    assert p0 == 0.5
    assert abs(p_half - 0.951) <= 0.005
    assert p1 == pytest.approx(1.0 - BASELINE_P_ERR, abs=1e-12)
    assert elapsed < 1.0


def test_criterion_6_intercept_resend():
    t0 = time.time()
    config = SessionConfig(
        source=DESIGN_POINT,
        channel_loss=0.0,
        detector=NOISELESS,
        attack=AttackConfig(kind=AttackKind.INTERCEPT_RESEND),
        num_pulses=206_000,
        seed=606,
    )
    report = run_session(config)
    sifted_error = 1.0 - report.bob_bit_accuracy
    elapsed = time.time() - t0
    enough = report.sifted_count >= 100_000
    in_band = abs(sifted_error - 0.25) <= 0.01
    detected = report.detection_verdict == VERDICT_DETECTED
    ok = enough and in_band and detected and elapsed < 60.0
    record_criterion(
        6,
        "intercept-resend: sifted error 0.25 +/- 0.01 over >= 1e5 bits, detected",
        ok,
        f"error={sifted_error:.4f} over {report.sifted_count} sifted, "
        f"verdict={report.detection_verdict}, {elapsed:.1f}s",
    )
    assert enough
    assert in_band
    assert detected
    assert elapsed < 60.0


def test_criterion_7_dual_basis():
    t0 = time.time()
    n = 40_000
    bit_hits = bit_total = 0
    basis_hits = 0
    for i in range(n):
        rng = derive_stream(707, LANE_PULSE, i)
        bit = (i // 2) % 2
        basis = Basis.VH if i % 2 == 0 else Basis.DIAG
        state = alice_source(DESIGN_POINT, bit, basis)
        _, raw_vh, raw_dg = dual_basis_measure(state, rng, DESIGN_POINT)
        raw_correct = raw_vh if basis is Basis.VH else raw_dg
        bit_total += 1
        bit_hits += (1 if raw_correct >= 0 else 0) == bit
        chosen = Basis.VH if abs(raw_vh) <= abs(raw_dg) else Basis.DIAG
        basis_hits += chosen is basis

    bit_acc = bit_hits / bit_total
    basis_acc = basis_hits / n

    config = SessionConfig(
        source=DESIGN_POINT,
        channel_loss=0.0,
        detector=NOISELESS,
        attack=AttackConfig(kind=AttackKind.DUAL_BASIS),
        num_pulses=60_000,
        seed=707,
    )
    report = run_session(config)
    # the session's exact basis accuracy: V/H pulses trusted V/H below the
    # second cumulative threshold, diagonal ones at or above it
    cumulative = _moment_table(config).eve / 2.0**53
    exact_basis_acc = float(np.mean(cumulative[:, 0, 1] + 1.0 - cumulative[:, 1, 1]) / 2.0)
    elapsed = time.time() - t0

    ok_bit = abs(bit_acc - 0.951) <= 0.01
    ok_basis_band = 0.45 <= basis_acc <= 0.60
    elevated = report.estimated_error_rate > 10 * report.expected_systematic_error
    detected = report.detection_verdict == VERDICT_DETECTED
    ok = ok_bit and ok_basis_band and elevated and detected and elapsed < 60.0
    record_criterion(
        7,
        "dual-basis: correct-arm bit acc 0.951 +/- 0.01; basis acc in [0.45,0.60]; detected",
        ok,
        f"bit_acc={bit_acc:.4f}, basis_acc={basis_acc:.4f} (exact {exact_basis_acc:.7f}), "
        f"error={report.estimated_error_rate:.3f}, verdict={report.detection_verdict}, "
        f"{elapsed:.1f}s",
    )
    assert ok_bit
    assert elevated and detected
    assert elapsed < 60.0
    # Known-unreachable requirement band, asserted as stated rather than
    # widened: at this operating point the normalized-magnitude rule family
    # tops out at 0.6070 (exact quadrature 0.6069571) with the coherent
    # comparator direction, and reaches only 0.3930 with the opposite one,
    # so no defensible rule lands inside [0.45, 0.60].
    assert ok_basis_band, (
        f"basis-inference accuracy {basis_acc:.4f} is outside the required "
        f"[0.45, 0.60] band; the rule family's exact optimum is 0.6070"
    )


def test_criterion_8_superior_channel_symmetry():
    t0 = time.time()
    config = SessionConfig(
        source=DESIGN_POINT,
        channel_loss=0.5,
        detector=NOISELESS,
        attack=AttackConfig(kind=AttackKind.SUPERIOR_CHANNEL),
        num_pulses=100_000,
        seed=808,
    )
    report = run_session(config)
    elapsed = time.time() - t0
    p = EVE_HALF_PROBABILITY
    combined_se = math.sqrt(2.0 * p * (1.0 - p) / report.sifted_count)
    gap = abs(report.eve_bit_accuracy - report.bob_bit_accuracy)
    symmetric = gap < 5 * combined_se
    clean = report.detection_verdict == VERDICT_CLEAN
    ok = symmetric and clean and elapsed < 60.0
    record_criterion(
        8,
        "superior-channel at 50% loss: |eve - bob| < 5 combined SE, verdict clean",
        ok,
        f"eve={report.eve_bit_accuracy:.4f}, bob={report.bob_bit_accuracy:.4f}, "
        f"gap={gap:.4f} (5SE={5*combined_se:.4f}), verdict={report.detection_verdict}, "
        f"{elapsed:.1f}s",
    )
    assert symmetric
    assert clean
    assert elapsed < 60.0


def test_criterion_9_wrong_basis_variance_dominates():
    t0 = time.time()
    rng = np.random.default_rng(909)
    checked = 0
    for _ in range(200):
        gain = float(rng.uniform(1.001, 30.0))  # strictly above 1, clear of float noise
        n_total = float(10 ** rng.uniform(4.0, 7.0))
        frac = float(rng.uniform(1e-3, 0.99))
        params = SourceParams(
            gain_G=gain, n_total_amp=n_total, bit_amplitude_N=frac * n_total / gain
        )
        pulse = alice_source(params, 1, Basis.VH)
        correct = diff_number_moments(pulse, Basis.VH).variance
        wrong = diff_number_moments(pulse, Basis.DIAG).variance
        assert wrong > n_total > correct, (gain, n_total, frac, correct, wrong)
        checked += 1
    elapsed = time.time() - t0
    ok = checked == 200 and elapsed < 10.0
    record_criterion(
        9,
        "wrong-basis var > N_T > correct-basis var over 200 random sources",
        ok,
        f"{checked} cases, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    args = [
        "run",
        "--pulses", "20000",
        "--loss", "0.2",
        "--seed", "42",
        "--detector-nen", "0",
    ]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    byte_identical = out_a.read_bytes() == out_b.read_bytes()

    # per-pulse cell codes do not depend on how range(n) is split or in
    # what order the pieces run
    config = SessionConfig(
        source=DESIGN_POINT, channel_loss=0.2, detector=NOISELESS, num_pulses=20_000, seed=42
    )
    table = _moment_table(config)
    whole = _pulse_cells(config, table, 0, 20_000)
    tail = _pulse_cells(config, table, 7_000, 20_000)
    head = _pulse_cells(config, table, 0, 7_000)
    split_equal = np.array_equal(whole, np.concatenate([head, tail]))
    elapsed = time.time() - t0
    ok = byte_identical and split_equal and elapsed < 30.0
    record_criterion(
        10,
        "cmd_run reports byte-identical; pulse cells independent of range splitting",
        ok,
        f"bytes={'equal' if byte_identical else 'DIFFER'}, "
        f"split={'equal' if split_equal else 'DIFFER'}, {elapsed:.1f}s",
    )
    assert byte_identical
    assert split_equal
    assert elapsed < 30.0


def test_report_contents_replayable(tmp_path):
    # the report carries the config echo and seed needed to replay a run
    out = tmp_path / "r.json"
    assert main(
        ["run", "--pulses", "500", "--seed", "9", "--detector-nen", "0", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["seed"] == 9
    for key in (
        "pulses_sent",
        "sifted_count",
        "sampled_count",
        "estimated_error_rate",
        "expected_systematic_error",
        "detection_verdict",
        "eve_bit_accuracy",
        "bob_bit_accuracy",
        "final_key_bits",
    ):
        assert key in payload["report"]
