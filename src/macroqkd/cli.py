"""Command-line harness: figure-reproduction sweeps, full protocol runs and
the Fock-oracle validation gate.

Subcommands: fig1, fig2, fig3, run, validate. Exit codes: 0 success,
1 configuration error, 2 validation failure, 3 I/O error; any other
exception is a program fault and propagates. CSV output uses
full double precision (17 significant digits), comma separators and LF
line endings so repeated runs with the same configuration are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import validate as validate_mod
from .attacks import AttackConfig, AttackKind, attack_config_violations
from .gaussian import SourceParams, alice_source, apply_loss, source_param_violations
from .photostats import (
    NOISELESS,
    Basis,
    DetectorModel,
    bob_error_curve,
    detector_violations,
    diff_number_moments,
    distribution_curve,
    eve_tap_curve,
)
from .protocol import RunReport, SessionConfig, run_session, session_violations

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


class ConfigError(ValueError):
    """Invalid command-line configuration; message lists every problem."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        raise ConfigError(message)


def _pulse_count(text: str) -> int:
    """A pulse count written as an integer or as a decimal or scientific
    literal of an integral value (100000000, 1e8)."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value.is_integer()):
        raise argparse.ArgumentTypeError(f"must be a whole number such as 100000 or 1e5 (got {text!r})")
    return int(value)


def _parse_grid(text: str, lo: float, hi: float, name: str) -> np.ndarray:
    try:
        start_s, stop_s, steps_s = text.split(":")
        start, stop, steps = float(start_s), float(stop_s), int(steps_s)
    except ValueError as exc:
        raise ConfigError(f"--grid must be start:stop:steps (got {text!r})") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"--grid endpoints must be finite (got {text!r})")
    if steps < 1:
        raise ConfigError(f"--grid needs at least 1 step (got {steps})")
    if steps > 1 and not stop > start:
        raise ConfigError(f"--grid must be strictly increasing (got {text!r})")
    grid = np.linspace(start, stop, steps)
    if grid[0] < lo or grid[-1] > hi:
        raise ConfigError(f"{name} grid must lie within [{lo}, {hi}] (got {text!r})")
    return grid


def _source_from_args(args: argparse.Namespace) -> SourceParams:
    problems = source_param_violations(args.gain, args.n_total, args.bit_amplitude)
    if problems:
        raise ConfigError("; ".join(problems))
    return SourceParams(
        gain_G=args.gain, n_total_amp=args.n_total, bit_amplitude_N=args.bit_amplitude
    )


def _detector_from_args(args: argparse.Namespace) -> DetectorModel:
    problems = detector_violations(args.detector_nen, DetectorModel.quantum_efficiency)
    if problems:
        raise ConfigError("; ".join(f"--detector-nen: {p}" for p in problems))
    return DetectorModel(noise_equivalent_number=args.detector_nen)


def _write_text(path: str | None, text: str) -> None:
    try:
        if path is None or path == "-":
            sys.stdout.write(text)
        else:
            Path(path).write_text(text, newline="")
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from exc


class _IOFailure(RuntimeError):
    pass


def _add_source_flags(p: argparse.ArgumentParser, nen_default: float | None) -> None:
    """Source design and output flags; ``--detector-nen`` too unless
    ``nen_default`` is None (fig3's noiseless curve has no detector)."""
    p.add_argument("--gain", type=float, default=10.0, help="amplifier photon-number gain G")
    p.add_argument("--n-total", type=float, default=2e6, help="mean total photons after amplification")
    p.add_argument("--bit-amplitude", type=float, default=2460.0, help="mean difference number N per bit")
    if nen_default is not None:
        p.add_argument(
            "--detector-nen",
            type=float,
            default=nen_default,
            help="detector noise-equivalent photon number (per detector)",
        )
    p.add_argument("--out", default=None, help="output path (default stdout)")


def cmd_fig1(args: argparse.Namespace) -> int:
    """Outcome distributions for both bit values and the incorrect basis."""
    params = _source_from_args(args)
    detector = _detector_from_args(args)
    eta = args.loss
    if not 0.0 <= eta < 1.0:
        raise ConfigError(f"--loss must be in [0, 1) (got {eta})")
    pulse1 = apply_loss(alice_source(params, 1, Basis.VH), eta)
    pulse0 = apply_loss(alice_source(params, 0, Basis.VH), eta)
    mom1 = diff_number_moments(pulse1, Basis.VH)
    mom_wrong = diff_number_moments(pulse1, Basis.DIAG)
    if args.grid is not None:
        grid = _parse_grid(args.grid, -math.inf, math.inf, "n")
    else:
        sigma_max = math.sqrt(
            max(mom1.variance, mom_wrong.variance) + detector.difference_noise_variance
        )
        span = abs(mom1.mean) + 8.0 * sigma_max
        grid = np.linspace(-span, span, 2001)
    columns = (
        grid,
        distribution_curve(pulse1, Basis.VH, detector, grid),
        distribution_curve(pulse0, Basis.VH, detector, grid),
        distribution_curve(pulse1, Basis.DIAG, detector, grid),
    )
    rows = zip(*(c.tolist() for c in columns))
    lines = ["n,pdf_correct_bit1,pdf_correct_bit0,pdf_incorrect"]
    lines += [f"{n:.17g},{p1:.17g},{p0:.17g},{pw:.17g}" for n, p1, p0, pw in rows]
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_fig2(args: argparse.Namespace) -> int:
    """Bob's error rate versus channel loss."""
    params = _source_from_args(args)
    detector = _detector_from_args(args)
    grid = _parse_grid(args.grid, 0.0, 1.0 - 1e-12, "eta")
    curve = bob_error_curve(params, grid, detector)
    lines = ["eta,p_err"]
    lines += [f"{eta:.17g},{p:.17g}" for eta, p in zip(grid.tolist(), curve.tolist())]
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_fig3(args: argparse.Namespace) -> int:
    """Eve's correct-bit probability versus sampled fraction."""
    params = _source_from_args(args)
    grid = _parse_grid(args.grid, 0.0, 1.0, "eta")
    curve = eve_tap_curve(params, grid)
    lines = ["eta,p_eta"]
    lines += [f"{eta:.17g},{p:.17g}" for eta, p in zip(grid.tolist(), curve.tolist())]
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def config_to_dict(config: SessionConfig) -> dict:
    return {
        "source": {
            "gain_G": config.source.gain_G,
            "n_total_amp": config.source.n_total_amp,
            "bit_amplitude_N": config.source.bit_amplitude_N,
        },
        "channel_loss": config.channel_loss,
        "detector": {
            "noise_equivalent_number": config.detector.noise_equivalent_number,
            "quantum_efficiency": config.detector.quantum_efficiency,
        },
        "attack": {
            "kind": config.attack.kind.value,
            "tap_fraction": config.attack.tap_fraction,
            "eve_detector_nen": config.attack.eve_detector.noise_equivalent_number,
            "eve_detector_qe": config.attack.eve_detector.quantum_efficiency,
        },
        "num_pulses": config.num_pulses,
        "sample_fraction": config.sample_fraction,
        "detection_sigma_k": config.detection_sigma_k,
        "seed": config.seed,
    }


# Field layout of a config dict, as config_to_dict writes it: top-level
# scalars map to None, sections to their field names.
_CONFIG_FIELDS = {
    "source": ("gain_G", "n_total_amp", "bit_amplitude_N"),
    "channel_loss": None,
    "detector": ("noise_equivalent_number", "quantum_efficiency"),
    "attack": ("kind", "tap_fraction", "eve_detector_nen", "eve_detector_qe"),
    "num_pulses": None,
    "sample_fraction": None,
    "detection_sigma_k": None,
    "seed": None,
}


def config_violations(data: dict) -> list[str]:
    """Every problem of a config dict in config_to_dict's layout: all
    missing and unknown fields if there are any, otherwise all invalid
    values, wrong types included."""
    missing = []
    unknown = [str(key) for key in data if key not in _CONFIG_FIELDS]
    for key, fields in _CONFIG_FIELDS.items():
        if fields is None:
            missing += [] if key in data else [key]
        else:
            section = data.get(key)
            section = section if isinstance(section, dict) else {}
            missing += [f"{key}.{f}" for f in fields if f not in section]
            unknown += [f"{key}.{f}" for f in section if f not in fields]
    problems = [f"missing config fields: {', '.join(missing)}"] if missing else []
    problems += [f"unknown config fields: {', '.join(unknown)}"] if unknown else []
    if problems:
        return problems
    src, det, att = data["source"], data["detector"], data["attack"]
    problems = source_param_violations(src["gain_G"], src["n_total_amp"], src["bit_amplitude_N"])
    problems += [
        f"detector {p}"
        for p in detector_violations(det["noise_equivalent_number"], det["quantum_efficiency"])
    ]
    problems += session_violations(
        data["channel_loss"],
        data["num_pulses"],
        data["sample_fraction"],
        data["detection_sigma_k"],
        data["seed"],
    )
    try:
        kind = AttackKind(att["kind"])
    except ValueError:
        problems.append(
            f"attack kind must be one of {[k.value for k in AttackKind]} (got {att['kind']!r})"
        )
    else:
        problems += attack_config_violations(kind, att["tap_fraction"])
    problems += [
        f"Eve's detector {p}"
        for p in detector_violations(att["eve_detector_nen"], att["eve_detector_qe"])
    ]
    return problems


def config_from_dict(data: dict) -> SessionConfig:
    """The SessionConfig a config dict describes; raises ConfigError listing
    every problem of the dict (see ``config_violations``)."""
    problems = config_violations(data)
    if problems:
        raise ConfigError("; ".join(problems))
    src = data["source"]
    att = data["attack"]
    return SessionConfig(
        source=SourceParams(
            gain_G=src["gain_G"],
            n_total_amp=src["n_total_amp"],
            bit_amplitude_N=src["bit_amplitude_N"],
        ),
        channel_loss=data["channel_loss"],
        detector=DetectorModel(
            noise_equivalent_number=data["detector"]["noise_equivalent_number"],
            quantum_efficiency=data["detector"]["quantum_efficiency"],
        ),
        attack=AttackConfig(
            kind=AttackKind(att["kind"]),
            tap_fraction=att["tap_fraction"],
            eve_detector=DetectorModel(
                noise_equivalent_number=att["eve_detector_nen"],
                quantum_efficiency=att["eve_detector_qe"],
            ),
        ),
        num_pulses=data["num_pulses"],
        sample_fraction=data["sample_fraction"],
        detection_sigma_k=data["detection_sigma_k"],
        seed=data["seed"],
    )


def report_text(config: SessionConfig, report: RunReport, fmt: str) -> str:
    payload = {
        "config": config_to_dict(config),
        "report": dataclasses.asdict(report),
    }
    if fmt == "report":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    lines = ["key,value"]

    def flatten(prefix: str, obj: object) -> None:
        if isinstance(obj, dict):
            for k in sorted(obj):
                flatten(f"{prefix}.{k}" if prefix else str(k), obj[k])
        else:
            val = f"{obj:.17g}" if isinstance(obj, float) else str(obj)
            lines.append(f"{prefix},{val}")

    flatten("", payload)
    return "\n".join(lines) + "\n"


def cmd_run(args: argparse.Namespace) -> int:
    """Run a full session and write the replayable report."""
    config = config_from_dict(
        {
            "source": {
                "gain_G": args.gain,
                "n_total_amp": args.n_total,
                "bit_amplitude_N": args.bit_amplitude,
            },
            "channel_loss": args.loss,
            "detector": {
                "noise_equivalent_number": args.detector_nen,
                "quantum_efficiency": DetectorModel.quantum_efficiency,
            },
            "attack": {
                "kind": args.attack,
                "tap_fraction": args.tap_fraction,
                "eve_detector_nen": NOISELESS.noise_equivalent_number,
                "eve_detector_qe": NOISELESS.quantum_efficiency,
            },
            "num_pulses": args.pulses,
            "sample_fraction": args.sample_fraction,
            "detection_sigma_k": args.detect_k,
            "seed": args.seed,
        }
    )
    report = run_session(config)
    _write_text(args.out, report_text(config, report, args.format))
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    """Run the Fock-oracle comparison ladder; non-zero exit on any failure."""
    if not 0 < args.tol < math.inf:
        raise ConfigError(f"--tol must be finite and > 0 (got {args.tol})")
    rows = validate_mod.run_ladder(tolerance=args.tol)
    _write_text(args.out, validate_mod.rows_to_csv(rows))
    if not validate_mod.ladder_passed(rows):
        failed = sum(1 for r in rows if not r.passed)
        print(f"validation FAILED: {failed}/{len(rows)} comparisons out of tolerance", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = _Parser(prog="macroqkd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("fig1", help="outcome distributions at fixed loss")
    _add_source_flags(p1, nen_default=0.0)
    p1.add_argument("--loss", type=float, default=0.0, help="channel loss fraction eta")
    p1.add_argument("--grid", default=None, help="n grid as start:stop:steps (default auto)")
    p1.set_defaults(func=cmd_fig1)

    p2 = sub.add_parser("fig2", help="error rate versus loss")
    _add_source_flags(p2, nen_default=0.0)
    p2.add_argument("--grid", default="0:0.9:91", help="eta grid as start:stop:steps")
    p2.set_defaults(func=cmd_fig2)

    p3 = sub.add_parser("fig3", help="Eve's tap probability versus sampled fraction")
    _add_source_flags(p3, nen_default=None)
    p3.add_argument("--grid", default="0:1:101", help="eta grid as start:stop:steps")
    p3.set_defaults(func=cmd_fig3)

    pr = sub.add_parser("run", help="run a full QKD session")
    _add_source_flags(pr, nen_default=250.0)
    pr.add_argument("--loss", type=float, default=0.0, help="channel loss fraction eta")
    pr.add_argument("--attack", default="none", help="none, intercept_resend, beamsplitter_tap, dual_basis or superior_channel")
    pr.add_argument("--tap-fraction", type=float, default=None, help="Eve's sampled fraction (beamsplitter_tap)")
    pr.add_argument("--pulses", type=_pulse_count, default=10_000, help="number of pulses to send (100000 or 1e5)")
    pr.add_argument("--sample-fraction", type=float, default=0.1, help="fraction of sifted bits disclosed")
    pr.add_argument("--detect-k", type=float, default=5.0, help="detection threshold in sigmas")
    pr.add_argument("--seed", type=int, default=0, help="session seed")
    pr.add_argument("--format", choices=("csv", "report"), default="report")
    pr.set_defaults(func=cmd_run)

    pv = sub.add_parser("validate", help="Gaussian engine vs exact Fock oracle")
    pv.add_argument("--tol", type=float, default=validate_mod.DEFAULT_TOLERANCE, help="relative tolerance")
    pv.add_argument("--out", default=None, help="output path for the CSV table")
    pv.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _IOFailure as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
