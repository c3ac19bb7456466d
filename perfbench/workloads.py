"""The three workloads: inputs made from the benchmark seed, one round of
fixed work through the program's public entry points, and the checks on
what that round produced.

Every call into ``macroqkd`` looks the function up on its module at call
time (``protocol.run_session``, not a name bound at import), so the traced
run's wrappers see the benchmark's own calls too.

A round is the unit the benchmark repeats; every round of a run does the
same work, so the count of attempted and failed operations per round is
fixed. ``run`` returns the outputs, ``check`` returns
``(attempted, failed, problems, extras)``: ``failed`` counts operations
that hit a known fault of the program, ``problems`` lists wrong outputs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from reference import DEFAULT_DESIGN, Design

from macroqkd import attacks, cli, gaussian, photostats, protocol, validate

# ------------------------------------------------------------- sessions

SESSION_PULSES = 20_000
BOB_NEN = 250.0  # SessionConfig's default detector read noise
ATTACK_KINDS = ("none", "intercept_resend", "beamsplitter_tap", "dual_basis", "superior_channel")


@dataclass(frozen=True)
class SessionSpec:
    kind: str
    loss: float
    tap_fraction: float | None
    seed: int
    pulses: int = SESSION_PULSES
    gain: float = DEFAULT_DESIGN.gain
    n_total: float = DEFAULT_DESIGN.n_total
    bit_amplitude: float = DEFAULT_DESIGN.bit_amplitude
    nen: float = BOB_NEN


def session_specs(seed: int) -> list[SessionSpec]:
    """One session per attack kind at the default source and detector.

    Channel loss 0.3-0.5 keeps Bob's error rate at 1.6-6.7%, so every
    five-sigma band holds tens of errors; tap fractions 0.5-0.7 put the
    tapped session at least seven sigma above the detection threshold.
    The superior channel runs at the 50% loss it is defined against.
    """
    rng = random.Random(seed)
    specs = []
    for kind in ATTACK_KINDS:
        loss = 0.5 if kind == "superior_channel" else rng.uniform(0.3, 0.5)
        tap = rng.uniform(0.5, 0.7) if kind == "beamsplitter_tap" else None
        specs.append(SessionSpec(kind, loss, tap, rng.getrandbits(63)))
    return specs


def session_config(spec: SessionSpec) -> protocol.SessionConfig:
    return protocol.SessionConfig(
        source=gaussian.SourceParams(spec.gain, spec.n_total, spec.bit_amplitude),
        channel_loss=spec.loss,
        detector=photostats.DetectorModel(noise_equivalent_number=spec.nen),
        attack=attacks.AttackConfig(
            kind=attacks.AttackKind(spec.kind), tap_fraction=spec.tap_fraction
        ),
        num_pulses=spec.pulses,
        seed=spec.seed,
    )


class SessionAttacks:
    """One run_session per attack kind, serially, as ``macroqkd run`` does."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.specs = session_specs(seed)
        self.configs = [session_config(s) for s in self.specs]

    def run(self) -> list[tuple[object, float]]:
        out = []
        for config in self.configs:
            t0 = time.perf_counter()
            report = protocol.run_session(config)
            out.append((report, time.perf_counter() - t0))
        return out

    def check(self, out) -> tuple[int, int, list[str], dict]:
        problems = []
        extras = {"pulses_per_session": SESSION_PULSES}
        for spec, (report, seconds) in zip(self.specs, out):
            problems += checks.check_session(spec, report)
            extras[f"pulses_per_s.{spec.kind}"] = spec.pulses / seconds
        return len(self.specs), 0, problems, extras


# -------------------------------------------------------------- figures

DESIGNS_PER_ROUND = 6
FIG2_GRID = (0.0, 0.95, 2501)
FIG3_GRID = (0.0, 1.0, 2501)
# Quantum-efficiency points: Bob's detector at qe < 1 should act as extra
# loss. They do not depend on the seed, and every one of them fails while
# DetectorModel.quantum_efficiency is not applied.
QE_POINTS = ((0.0, 0.5), (0.3, 0.8), (0.5, 0.9))
QE_NEN = 250.0


@dataclass(frozen=True)
class FigureDesign:
    design: Design
    fig2_nen: float
    fig1_loss: float


def figure_designs(seed: int) -> list[FigureDesign]:
    """Source designs spread over G 4-20 and N_T 5e5-4e6, with the bit
    amplitude 4-7 standard deviations of the encoding-basis noise."""
    rng = random.Random(seed)
    out = []
    for _ in range(DESIGNS_PER_ROUND):
        gain = rng.uniform(4.0, 20.0)
        n_total = 5e5 * 8.0 ** rng.random()
        amplitude = rng.uniform(4.0, 7.0) * (n_total / gain) ** 0.5
        out.append(
            FigureDesign(
                Design(gain, n_total, amplitude),
                fig2_nen=rng.choice((0.0, 100.0, 250.0)),
                fig1_loss=rng.uniform(0.2, 0.8),
            )
        )
    return out


def _grid_arg(grid: tuple) -> str:
    return f"{grid[0]!r}:{grid[1]!r}:{grid[2]}"


def _source_args(d: Design) -> list[str]:
    return ["--gain", repr(d.gain), "--n-total", repr(d.n_total), "--bit-amplitude", repr(d.bit_amplitude)]


class FigureSweeps:
    """fig1 (lossless and lossy), fig2 and fig3 through ``cli.main`` for
    each design, plus the quantum-efficiency points."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.designs = figure_designs(seed)
        self.jobs = []  # (argv, output path, check)
        for k, fd in enumerate(self.designs):
            d = fd.design
            src = _source_args(d)
            for j, loss in enumerate((0.0, fd.fig1_loss)):
                path = workdir / f"fig1_{k}_{j}.csv"
                argv = ["fig1", *src, "--loss", repr(loss), "--out", str(path)]
                self.jobs.append((argv, path, lambda text, d=d, loss=loss: checks.check_fig1(d, 0.0, loss, text)))
            path = workdir / f"fig2_{k}.csv"
            argv = ["fig2", *src, "--detector-nen", repr(fd.fig2_nen), "--grid", _grid_arg(FIG2_GRID), "--out", str(path)]
            self.jobs.append((argv, path, lambda text, d=d, nen=fd.fig2_nen: checks.check_fig2(d, nen, FIG2_GRID, text)))
            path = workdir / f"fig3_{k}.csv"
            argv = ["fig3", *src, "--grid", _grid_arg(FIG3_GRID), "--out", str(path)]
            self.jobs.append((argv, path, lambda text, d=d: checks.check_fig3(d, FIG3_GRID, text)))
        d = DEFAULT_DESIGN
        self.qe_params = gaussian.SourceParams(d.gain, d.n_total, d.bit_amplitude)
        self.qe_detectors = [
            photostats.DetectorModel(noise_equivalent_number=QE_NEN, quantum_efficiency=qe)
            for _, qe in QE_POINTS
        ]

    def run(self) -> tuple[list[int], list[float]]:
        codes = [cli.main(argv) for argv, _, _ in self.jobs]
        qe_values = [
            photostats.bob_error_vs_loss(self.qe_params, eta, detector)
            for (eta, _), detector in zip(QE_POINTS, self.qe_detectors)
        ]
        return codes, qe_values

    def check(self, out) -> tuple[int, int, list[str], dict]:
        codes, qe_values = out
        attempted, problems, written = 0, [], 0
        for (argv, path, check), code in zip(self.jobs, codes):
            if code != 0:
                problems.append(f"{argv[0]}: exit code {code}")
                continue
            data = path.read_bytes()
            written += len(data)
            rows, found = check(data.decode())
            attempted += rows
            problems += found
        failed = sum(
            not checks.qe_point_holds(DEFAULT_DESIGN, eta, qe, QE_NEN, value)
            for (eta, qe), value in zip(QE_POINTS, qe_values)
        )
        return attempted + len(QE_POINTS), failed, problems, {"bytes_written": written}


# --------------------------------------------------------------- ladder


class OracleLadder:
    """The full validation ladder and its gate, from a cold process: the
    ladder memoizes Fock states and rotated distributions per process."""

    def __init__(self, seed: int, workdir: Path) -> None:
        pass  # the ladder is fixed; the seed has nothing to choose

    def run(self):
        rows = validate.run_ladder()
        return rows, validate.ladder_passed(rows)

    def check(self, out) -> tuple[int, int, list[str], dict]:
        rows, gate = out
        return len(rows), 0, checks.check_ladder(rows, gate), {}


WORKLOADS = {
    "session_attacks": SessionAttacks,
    "figure_sweeps": FigureSweeps,
    "oracle_ladder": OracleLadder,
}
