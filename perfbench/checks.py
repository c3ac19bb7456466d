"""Output checks: each compares what the program produced with the closed
forms in ``reference``. A check returns a list of problems (empty when the
output is right); it never raises on a wrong value, so one bad output does
not hide the others.

The tolerances sit between the agreement measured on working code and the
smallest fault each check must catch (``selftest.py`` alters outputs by
those amounts and expects a rejection):

* closed-form curve values and Bob's expected systematic error agree with
  the program to about 1e-11 relative, and a 1e-9 relative change must be
  caught, so they are compared at 1e-10 relative;
* the engine's ladder moments agree to about 1e-15, the Fock oracle's to
  2.2e-7 (V/H rows 3.2e-8), and a 1e-5 change must be caught, so engine rows
  are compared at 1e-9 and oracle rows at 1e-6;
* a density value in fig1 at z standard deviations from its mean inherits
  z^2/2 times the relative error of its variance, so its tolerance is
  1e-10 (1 + z^2 / 2); values below 1e-290 are subnormal-adjacent and are
  only required to be tiny;
* session statistics are binomial and are held to five-sigma bands.
"""

from __future__ import annotations

import math

from reference import Design, ladder_moments, normal_pdf

CURVE_RTOL = 1e-10
LADDER_ENGINE_RTOL = 1e-9
LADDER_ORACLE_RTOL = 1e-6
TINY_PDF = 1e-290
FIG1_POINTS = 2001  # fig1's automatic grid spans mean +- 8 sigma in this many points
BAND_SIGMAS = 5.0
SIFT_SHARE = 0.5
SAMPLE_FRACTION = 0.1  # SessionConfig's default disclosed share of the sifted key
CLEAN = "clean"
DETECTED = "eavesdropper_detected"


def rel_err(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    return abs(value - ref) / abs(ref) if ref != 0.0 else math.inf


def _close(label: str, value: float, ref: float, rtol: float) -> list[str]:
    err = rel_err(value, ref)
    return [] if err <= rtol else [f"{label}: {value!r} vs {ref!r} (rel {err:.3g} > {rtol:g})"]


def _band(label: str, hits: int, n: int, p: float) -> list[str]:
    """Five-sigma binomial band for ``hits`` successes of probability p in n."""
    if n <= 0:
        return [f"{label}: no trials"]
    sigma = math.sqrt(p * (1.0 - p) / n)
    observed = hits / n
    if abs(observed - p) <= BAND_SIGMAS * sigma:
        return []
    return [f"{label}: {observed:.6g} over {n} vs {p:.6g} ({(observed - p) / sigma:+.1f} sigma)"]


# ---------------------------------------------------------------- sessions


def session_expectations(spec) -> dict:
    """Closed-form expectations for one session spec (see workloads)."""
    d = Design(spec.gain, spec.n_total, spec.bit_amplitude)
    t_channel = 1.0 - spec.loss
    e_sys = d.error_rate(t_channel, spec.nen)
    p_eve_full = d.error_rate(1.0)  # Eve's noiseless detector on a whole pulse
    out = {"e_sys": e_sys, "verdict": CLEAN, "bob_error": e_sys, "eve_accuracy": None}
    if spec.kind == "intercept_resend":
        # Right basis (half the time): two independent sign flips, Eve's and
        # Bob's. Wrong basis: Eve's bit and Bob's outcome are both uniform.
        out["bob_error"] = 0.25 + 0.5 * (p_eve_full + e_sys - 2.0 * p_eve_full * e_sys)
        out["eve_accuracy"] = 0.5 * (1.0 - p_eve_full) + 0.25
        out["verdict"] = DETECTED
    elif spec.kind == "beamsplitter_tap":
        out["bob_error"] = d.error_rate((1.0 - spec.tap_fraction) * t_channel, spec.nen)
        out["eve_accuracy"] = 0.5 * (1.0 - d.error_rate(spec.tap_fraction)) + 0.25
        out["verdict"] = DETECTED
    elif spec.kind == "dual_basis":
        out["bob_error"] = None  # no closed form; the verdict is checked
        out["verdict"] = DETECTED
    elif spec.kind == "superior_channel":
        # Bob gets the lossless half of the pulse, Eve the other half
        # measured in the revealed basis: both see transmission 1/2.
        out["bob_error"] = d.error_rate(0.5, spec.nen)
        out["eve_accuracy"] = 1.0 - d.error_rate(0.5)
    return out


def check_session(spec, report) -> list[str]:
    exp = session_expectations(spec)
    label = spec.kind
    problems: list[str] = []
    if report.pulses_sent != spec.pulses:
        problems.append(f"{label}: pulses_sent {report.pulses_sent} != {spec.pulses}")
    sifted = report.sifted_count
    problems += _band(f"{label} sifted share", sifted, spec.pulses, SIFT_SHARE)
    if report.sampled_count != round(SAMPLE_FRACTION * sifted):
        problems.append(f"{label}: sampled {report.sampled_count} of {sifted} sifted")
    if report.final_key_bits != sifted - report.sampled_count:
        problems.append(f"{label}: final key {report.final_key_bits} != sifted - sampled")
    problems += _close(
        f"{label} expected systematic error", report.expected_systematic_error, exp["e_sys"], CURVE_RTOL
    )
    if exp["bob_error"] is not None and sifted > 0:
        bob_errors = round((1.0 - report.bob_bit_accuracy) * sifted)
        problems += _band(f"{label} Bob error rate", bob_errors, sifted, exp["bob_error"])
        sampled_errors = round(report.estimated_error_rate * report.sampled_count)
        problems += _band(
            f"{label} estimated error rate", sampled_errors, report.sampled_count, exp["bob_error"]
        )
    if exp["eve_accuracy"] is not None:
        n_eve = sifted if spec.kind == "superior_channel" else spec.pulses
        if report.eve_bit_accuracy is None:
            problems.append(f"{label}: no Eve accuracy reported")
        else:
            hits = round(report.eve_bit_accuracy * n_eve)
            problems += _band(f"{label} Eve accuracy", hits, n_eve, exp["eve_accuracy"])
    elif spec.kind == "none" and report.eve_bit_accuracy is not None:
        problems.append(f"{label}: Eve accuracy {report.eve_bit_accuracy} without an attack")
    if report.detection_verdict != exp["verdict"]:
        problems.append(f"{label}: verdict {report.detection_verdict} != {exp['verdict']}")
    return problems


# ----------------------------------------------------------------- figures


def parse_csv(text: str, header: str) -> tuple[list[list[float]], list[str]]:
    lines = text.split("\n")
    if not text.endswith("\n") or lines[0] != header:
        return [], [f"csv header {lines[0]!r} != {header!r} or no final newline"]
    rows = [[float(x) for x in line.split(",")] for line in lines[1:-1]]
    return rows, []


def grid_values(start: float, stop: float, steps: int) -> list[float]:
    if steps == 1:
        return [start]
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


def _grid_problems(label: str, got: list[float], want: list[float]) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} grid points, expected {len(want)}"]
    worst = max(abs(g - w) for g, w in zip(got, want))
    scale = max(1.0, max(abs(w) for w in want))
    return [] if worst <= 1e-12 * scale else [f"{label}: grid off by {worst:.3g}"]


def check_fig2(design: Design, nen: float, grid: tuple, text: str) -> tuple[int, list[str]]:
    rows, problems = parse_csv(text, "eta,p_err")
    if problems:
        return 0, problems
    problems += _grid_problems("fig2", [r[0] for r in rows], grid_values(*grid))
    for eta, p in rows:
        problems += _close(f"fig2 eta={eta!r}", p, design.error_rate(1.0 - eta, nen), CURVE_RTOL)
    return len(rows), problems


def check_fig3(design: Design, grid: tuple, text: str) -> tuple[int, list[str]]:
    rows, problems = parse_csv(text, "eta,p_eta")
    if problems:
        return 0, problems
    problems += _grid_problems("fig3", [r[0] for r in rows], grid_values(*grid))
    for eta, p in rows:
        problems += _close(f"fig3 eta={eta!r}", p, 1.0 - design.error_rate(eta), CURVE_RTOL)
    return len(rows), problems


def _pdf_problems(label: str, x: float, got: float, mean: float, var: float) -> list[str]:
    ref = normal_pdf(x, mean, var)
    if ref < TINY_PDF:
        return [] if got < 1e3 * TINY_PDF else [f"{label} n={x!r}: {got!r} vs {ref!r}"]
    z2 = (x - mean) ** 2 / var
    return _close(f"{label} n={x!r}", got, ref, CURVE_RTOL * (1.0 + 0.5 * z2))


def check_fig1(design: Design, nen: float, loss: float, text: str) -> tuple[int, list[str]]:
    """Correct-basis densities for both bits and the other-basis density."""
    rows, problems = parse_csv(text, "n,pdf_correct_bit1,pdf_correct_bit0,pdf_incorrect")
    if problems:
        return 0, problems
    t = 1.0 - loss
    m1, v1 = design.correct_moments(t, nen)
    mw, vw = design.crossed_moments(t, nen)
    span = abs(m1) + 8.0 * math.sqrt(max(v1, vw))
    problems += _grid_problems("fig1", [r[0] for r in rows], grid_values(-span, span, FIG1_POINTS))
    for n, p1, p0, pw in rows:
        problems += _pdf_problems("fig1 bit1", n, p1, m1, v1)
        problems += _pdf_problems("fig1 bit0", n, p0, -m1, v1)
        problems += _pdf_problems("fig1 incorrect", n, pw, mw, vw)
    return len(rows), problems


def qe_point_holds(design: Design, eta: float, qe: float, nen: float, value: float) -> bool:
    """Quantum efficiency acts as loss: Bob's transmission is (1 - eta) qe."""
    return rel_err(value, design.error_rate((1.0 - eta) * qe, nen)) <= CURVE_RTOL


# ------------------------------------------------------------------ ladder

LADDER_ROWS = 216


def check_ladder_row(row) -> list[str]:
    mean, var = ladder_moments(row.r, row.alpha_v_sq, row.alpha_h_sq, row.eta, row.basis)
    ref = mean if row.quantity == "mean" else var
    label = f"ladder r={row.r} a2=({row.alpha_v_sq},{row.alpha_h_sq}) eta={row.eta} {row.basis} {row.quantity}"
    problems = []
    for source, value, rtol in (
        ("engine", row.engine_value, LADDER_ENGINE_RTOL),
        ("oracle", row.oracle_value, LADDER_ORACLE_RTOL),
    ):
        if ref == 0.0:  # zero mean: compare against the distribution's width
            if abs(value) > rtol * math.sqrt(var):
                problems.append(f"{label} {source}: {value!r} vs 0")
        else:
            problems += _close(f"{label} {source}", value, ref, rtol)
    if not row.passed:
        problems.append(f"{label}: gate row failed")
    return problems


def check_ladder(rows, gate_passed: bool) -> list[str]:
    problems = []
    keys = {(r.r, r.alpha_v_sq, r.alpha_h_sq, r.eta, r.basis, r.quantity) for r in rows}
    if len(rows) != LADDER_ROWS or len(keys) != LADDER_ROWS:
        problems.append(f"ladder: {len(rows)} rows, {len(keys)} distinct, expected {LADDER_ROWS}")
    if not gate_passed:
        problems.append("ladder: gate reports failure")
    for row in rows:
        problems += check_ladder_row(row)
    return problems
