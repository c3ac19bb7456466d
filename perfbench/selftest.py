#!/usr/bin/env python3
"""Show that every output check passes real outputs and rejects outputs
altered by a known amount.

    python3 perfbench/selftest.py      # from the root of a checkout

Each case runs the program on a small input, confirms the check accepts
the output, then alters it (a session error rate by 10 sigma, a curve
point by 1e-9 relative, a ladder moment by 1e-5 relative) and confirms the
check rejects it. Exits 1 if any case misbehaves.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from reference import DEFAULT_DESIGN, Design, crossed_variance  # noqa: E402

from macroqkd import cli, photostats, protocol, validate  # noqa: E402

RESULTS: list[bool] = []


def expect(label: str, problems: list[str], rejected: bool) -> None:
    ok = bool(problems) == rejected
    RESULTS.append(ok)
    verdict = "rejects" if problems else "accepts"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: check {verdict}")
    if not ok:
        for p in problems[:5]:
            print(f"       {p}")


def anchors() -> None:
    """The closed forms reproduce the paper's headline numbers."""
    d = DEFAULT_DESIGN
    a2, b2 = d.seed_split
    v0 = crossed_variance(a2, b2, d.squeeze())
    found = []
    for label, value, want, rtol in (
        ("lossless error rate", d.error_rate(1.0), 1.89e-8, 5e-3),
        ("50% loss error rate", d.error_rate(0.5), 4.86e-2, 5e-3),
        ("other-basis variance", v0, 2.00e7, 5e-3),
        ("50% tap, basis known", 1.0 - d.error_rate(0.5), 0.951, 1e-3),
    ):
        if checks.rel_err(value, want) > rtol:
            found.append(f"{label}: {value:.6g} vs {want:g}")
    if not v0 > d.n_total:
        found.append("other-basis variance is not above shot noise")
    expect("reference anchors", found, rejected=False)


def sessions() -> None:
    for spec in workloads.session_specs(7):
        kind = spec.kind
        report = protocol.run_session(workloads.session_config(spec))
        expect(f"session {kind}", checks.check_session(spec, report), rejected=False)
        exp = checks.session_expectations(spec)
        altered = []
        if exp["bob_error"] is not None:
            p = exp["bob_error"]
            shift = 10.0 * math.sqrt(p * (1.0 - p) / report.sifted_count)
            altered.append(("Bob error +10 sigma", {"bob_bit_accuracy": report.bob_bit_accuracy - shift}))
            shift = 10.0 * math.sqrt(p * (1.0 - p) / report.sampled_count)
            altered.append(("estimate +10 sigma", {"estimated_error_rate": report.estimated_error_rate + shift}))
        if exp["eve_accuracy"] is not None:
            p = exp["eve_accuracy"]
            n = report.sifted_count if kind == "superior_channel" else spec.pulses
            shift = 10.0 * math.sqrt(p * (1.0 - p) / n)
            altered.append(("Eve accuracy -10 sigma", {"eve_bit_accuracy": report.eve_bit_accuracy - shift}))
        flipped = checks.DETECTED if report.detection_verdict == checks.CLEAN else checks.CLEAN
        altered.append(("verdict flipped", {"detection_verdict": flipped}))
        for label, change in altered:
            bad = dataclasses.replace(report, **change)
            expect(f"session {kind}, {label}", checks.check_session(spec, bad), rejected=True)


def _alter_csv(text: str, row: int, column: int, factor: float) -> str:
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[column] = f"{float(cells[column]) * factor:.17g}"
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def curves(workdir: Path) -> None:
    d = Design(7.5, 1.3e6, 2100.0)
    src = ["--gain", repr(d.gain), "--n-total", repr(d.n_total), "--bit-amplitude", repr(d.bit_amplitude)]
    grid = (0.0, 0.95, 96)
    cases = [
        ("fig2", ["fig2", *src, "--detector-nen", "250.0", "--grid", "0.0:0.95:96"],
         lambda text: checks.check_fig2(d, 250.0, grid, text), 40, 1),
        ("fig3", ["fig3", *src, "--grid", "0.0:1.0:101"],
         lambda text: checks.check_fig3(d, (0.0, 1.0, 101), text), 30, 1),
        ("fig1", ["fig1", *src, "--loss", "0.4"],
         lambda text: checks.check_fig1(d, 0.0, 0.4, text), 1001, 3),
    ]
    for name, argv, check, row, column in cases:
        path = workdir / f"{name}.csv"
        if cli.main([*argv, "--out", str(path)]) != 0:
            expect(f"{name} runs", ["exit code"], rejected=False)
            continue
        text = path.read_text()
        expect(name, check(text)[1], rejected=False)
        bad = _alter_csv(text, row, column, 1.0 + 1e-9)
        expect(f"{name}, one point +1e-9 relative", check(bad)[1], rejected=True)


def ladder() -> None:
    for basis in (photostats.Basis.VH, photostats.Basis.DIAG):
        rows = validate.compare_point(0.5, 2.0, 1.0, 0.5, basis)
        expect(f"ladder rows {basis.value}", [p for r in rows for p in checks.check_ladder_row(r)], rejected=False)
        for field in ("engine_value", "oracle_value"):
            row = rows[1]  # variance: nonzero in both bases
            bad = dataclasses.replace(row, **{field: getattr(row, field) * (1.0 + 1e-5)})
            expect(f"ladder {basis.value} variance {field} +1e-5 relative", checks.check_ladder_row(bad), rejected=True)
    rows = validate.compare_point(0.5, 2.0, 1.0, 0.5, photostats.Basis.VH)
    bad = dataclasses.replace(rows[0], oracle_value=rows[0].oracle_value * (1.0 + 1e-5))
    expect("ladder VH mean oracle_value +1e-5 relative", checks.check_ladder_row(bad), rejected=True)


def quantum_efficiency() -> None:
    params = workloads.gaussian.SourceParams(DEFAULT_DESIGN.gain, DEFAULT_DESIGN.n_total, DEFAULT_DESIGN.bit_amplitude)
    eta, qe = 0.3, 0.8
    want = DEFAULT_DESIGN.error_rate((1.0 - eta) * qe, 250.0)
    expect("qe point, expected value", [] if checks.qe_point_holds(DEFAULT_DESIGN, eta, qe, 250.0, want) else ["no"], rejected=False)
    got = photostats.bob_error_vs_loss(params, eta, photostats.DetectorModel(250.0, quantum_efficiency=qe))
    holds = checks.qe_point_holds(DEFAULT_DESIGN, eta, qe, 250.0, got)
    print(f"info qe point: program gives {got:.6g}, qe applied gives {want:.6g} ({'holds' if holds else 'fails'})")


def main() -> int:
    workdir = ROOT / ".perfbench" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        anchors()
        sessions()
        curves(workdir)
        ladder()
        quantum_efficiency()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{sum(RESULTS)}/{len(RESULTS)} cases behave as expected")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
