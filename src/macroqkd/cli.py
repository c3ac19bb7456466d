"""Command-line harness: figure-reproduction sweeps, full protocol runs and
the Fock-oracle validation gate.

Subcommands: fig1, fig2, fig3, run, validate. Every subcommand that builds
a session configuration turns its flags into the config dict and checks
them in one pass, so one error lists every problem. Exit codes: 0 success,
1 configuration error, 2 validation failure, 3 I/O error; any other
exception is a program fault and propagates. Each value of a figure CSV
is the bytes C's ``%.17g`` writes for it, so it parses back to the same
double; values are comma-separated and lines end in LF, and repeated runs
with the same configuration are byte-identical. The figure tables are
formatted in one array pass over all their values (``_csvtext``), not value
by value.
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
    Basis,
    DetectorModel,
    _loss_fractions,
    bob_error_curve,
    detector_violations,
    distribution_curve,
    eve_tap_curve,
    outcome_law,
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


def _parse_grid(text: str, closed: bool | None) -> np.ndarray:
    """The grid ``--grid start:stop:steps`` describes; raises ConfigError
    naming its first problem. An eta grid (``closed`` not None) must lie in
    the range its curve takes, [0, 1] if ``closed`` else [0, 1)."""
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
    try:
        return grid if closed is None else _loss_fractions(grid, closed)
    except ValueError as exc:
        raise ConfigError(f"--grid: {exc}") from exc


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


def _csv(header: str, *columns: np.ndarray) -> str:
    """A CSV table of float columns, each value as C's ``%.17g`` writes it."""
    # imported on first use: only the figure commands write float tables
    from ._csvtext import format_rows

    return header + "\n" + format_rows(np.column_stack(columns))


def _add_source_flags(p: argparse.ArgumentParser, nen_default: float | str | None) -> None:
    """Source design and output flags; ``--detector-nen`` too unless
    ``nen_default`` is None (fig3's noiseless curve has no detector), where
    argparse.SUPPRESS leaves the DetectorModel default. Each design flag's
    ``dest`` is the SourceParams or DetectorModel field it sets."""
    p.add_argument("--gain", dest="gain_G", type=float, default=10.0, help="amplifier photon-number gain G")
    p.add_argument("--n-total", dest="n_total_amp", type=float, default=2e6, help="mean total photons after amplification")
    p.add_argument("--bit-amplitude", dest="bit_amplitude_N", type=float, default=2460.0, help="mean difference number N per bit")
    if nen_default is not None:
        p.add_argument(
            "--detector-nen",
            dest="noise_equivalent_number",
            type=float,
            default=nen_default,
            help="detector noise-equivalent photon number (per detector)",
        )
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _figure_config(args: argparse.Namespace, closed: bool | None) -> tuple[SessionConfig, np.ndarray | None]:
    """A figure subcommand's config and ``--grid`` (None if unset), checked
    together: raises ConfigError listing every problem of both."""
    grid, problems = None, []
    if args.grid is not None:
        try:
            grid = _parse_grid(args.grid, closed)
        except ConfigError as exc:
            problems.append(str(exc))
    return config_from_dict(_config_dict(args), problems), grid


def cmd_fig1(args: argparse.Namespace) -> int:
    """Outcome distributions for both bit values and the incorrect basis."""
    config, grid = _figure_config(args, closed=None)
    detector = config.detector
    pulse1 = apply_loss(alice_source(config.source, 1, Basis.VH), config.channel_loss)
    pulse0 = apply_loss(alice_source(config.source, 0, Basis.VH), config.channel_loss)
    if grid is None:
        mean, sigma_correct = outcome_law(pulse1, Basis.VH, detector)
        sigma_wrong = outcome_law(pulse1, Basis.DIAG, detector)[1]
        span = abs(mean) + 8.0 * max(sigma_correct, sigma_wrong)
        grid = np.linspace(-span, span, 2001)
    table = _csv(
        "n,pdf_correct_bit1,pdf_correct_bit0,pdf_incorrect",
        grid,
        distribution_curve(pulse1, Basis.VH, detector, grid),
        distribution_curve(pulse0, Basis.VH, detector, grid),
        distribution_curve(pulse1, Basis.DIAG, detector, grid),
    )
    _write_text(args.out, table)
    return EXIT_OK


def cmd_fig2(args: argparse.Namespace) -> int:
    """Bob's error rate versus channel loss."""
    config, grid = _figure_config(args, closed=False)
    _write_text(args.out, _csv("eta,p_err", grid, bob_error_curve(config.source, grid, config.detector)))
    return EXIT_OK


def cmd_fig3(args: argparse.Namespace) -> int:
    """Eve's correct-bit probability versus sampled fraction."""
    config, grid = _figure_config(args, closed=True)
    _write_text(args.out, _csv("eta,p_eta", grid, eve_tap_curve(config.source, grid)))
    return EXIT_OK


def _attack_dict(attack: AttackConfig) -> dict:
    """The attack section: Eve's detector is flattened into two fields."""
    return {
        "kind": attack.kind.value,
        "tap_fraction": attack.tap_fraction,
        "eve_detector_nen": attack.eve_detector.noise_equivalent_number,
        "eve_detector_qe": attack.eve_detector.quantum_efficiency,
    }


# SessionConfig's defaults in the config dict's layout and field order: each
# section maps its field names to their defaults. SourceParams has none (None
# here); every subcommand that builds a config sets them by flag.
_SECTIONS = {
    "source": dict.fromkeys(f.name for f in dataclasses.fields(SourceParams)),
    "detector": dataclasses.asdict(DetectorModel()),
    "attack": _attack_dict(AttackConfig()),
}
_DEFAULTS = {f.name: _SECTIONS.get(f.name, f.default) for f in dataclasses.fields(SessionConfig)}
_SCALARS = tuple(name for name in _DEFAULTS if name not in _SECTIONS)


def _config_dict(args: argparse.Namespace) -> dict:
    """The config dict a subcommand's flags describe. Each flag's ``dest`` is
    the field it sets (no two sections share a field name), and a field
    without a flag keeps its default."""
    return {
        key: {f: getattr(args, f, v) for f, v in default.items()} if key in _SECTIONS else getattr(args, key, default)
        for key, default in _DEFAULTS.items()
    }


def config_to_dict(config: SessionConfig) -> dict:
    return {
        "source": dataclasses.asdict(config.source),
        "detector": dataclasses.asdict(config.detector),
        "attack": _attack_dict(config.attack),
        **{name: getattr(config, name) for name in _SCALARS},
    }


def config_violations(data: dict) -> list[str]:
    """Every problem of a config dict in config_to_dict's layout: all
    missing and unknown fields if there are any, otherwise all invalid
    values, wrong types included; Bob's detector problems name its flag too."""
    if not isinstance(data, dict):
        return [f"config must be an object (got {type(data).__name__})"]
    missing = []
    unknown = [str(key) for key in data if key not in _DEFAULTS]
    for key in _DEFAULTS:
        if key not in _SECTIONS:
            missing += [] if key in data else [key]
        else:
            section = data.get(key)
            section = section if isinstance(section, dict) else {}
            missing += [f"{key}.{f}" for f in _SECTIONS[key] if f not in section]
            unknown += [f"{key}.{f}" for f in section if f not in _SECTIONS[key]]
    problems = [f"missing config fields: {', '.join(missing)}"] if missing else []
    problems += [f"unknown config fields: {', '.join(unknown)}"] if unknown else []
    if problems:
        return problems
    src, det, att = data["source"], data["detector"], data["attack"]
    problems = source_param_violations(*(src[f] for f in _SECTIONS["source"]))
    problems += [f"detector (--detector-nen) {p}" for p in detector_violations(**det)]
    problems += session_violations(**{name: data[name] for name in _SCALARS})
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


def config_from_dict(data: dict, more_problems: list[str] = ()) -> SessionConfig:
    """The SessionConfig a config dict describes; raises ConfigError listing
    every problem of the dict (see ``config_violations``), then those in
    ``more_problems``."""
    problems = [*config_violations(data), *more_problems]
    if problems:
        raise ConfigError("; ".join(problems))
    att = data["attack"]
    return SessionConfig(
        source=SourceParams(**data["source"]),
        detector=DetectorModel(**data["detector"]),
        attack=AttackConfig(
            kind=AttackKind(att["kind"]),
            tap_fraction=att["tap_fraction"],
            eve_detector=DetectorModel(att["eve_detector_nen"], att["eve_detector_qe"]),
        ),
        **{name: data[name] for name in _SCALARS},
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
    config = config_from_dict(_config_dict(args))
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

    # fig1 and run leave an unset flag that has no default of its own out of
    # the namespace, so its config field keeps its value in _DEFAULTS
    p1 = sub.add_parser("fig1", help="outcome distributions at fixed loss", argument_default=argparse.SUPPRESS)
    _add_source_flags(p1, nen_default=0.0)
    p1.add_argument("--loss", dest="channel_loss", type=float, help="channel loss fraction eta")
    p1.add_argument("--grid", default=None, help="n grid as start:stop:steps (default auto); write a negative start as --grid=-5000:5000:101")
    p1.set_defaults(func=cmd_fig1)

    p2 = sub.add_parser("fig2", help="error rate versus loss")
    _add_source_flags(p2, nen_default=0.0)
    p2.add_argument("--grid", default="0:0.9:91", help="eta grid as start:stop:steps")
    p2.set_defaults(func=cmd_fig2)

    p3 = sub.add_parser("fig3", help="Eve's tap probability versus sampled fraction")
    _add_source_flags(p3, nen_default=None)
    p3.add_argument("--grid", default="0:1:101", help="eta grid as start:stop:steps")
    p3.set_defaults(func=cmd_fig3)

    pr = sub.add_parser("run", help="run a full QKD session", argument_default=argparse.SUPPRESS)
    _add_source_flags(pr, nen_default=argparse.SUPPRESS)
    # each flag's dest is the config field it sets
    pr.add_argument("--loss", dest="channel_loss", type=float, help="channel loss fraction eta")
    pr.add_argument("--attack", dest="kind", help=", ".join(k.value for k in AttackKind))
    pr.add_argument("--tap-fraction", type=float, help="Eve's sampled fraction (beamsplitter_tap)")
    pr.add_argument("--pulses", dest="num_pulses", type=_pulse_count, help="number of pulses to send (100000 or 1e5)")
    pr.add_argument("--sample-fraction", type=float, help="fraction of sifted bits disclosed")
    pr.add_argument("--detect-k", dest="detection_sigma_k", type=float, help="detection threshold in sigmas")
    pr.add_argument("--seed", type=int, help="session seed")
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
