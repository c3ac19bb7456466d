"""Oracle gate: compare Gaussian-engine moments against the exact Fock oracle.

The ladder sweeps squeeze strength, seed amplitudes, loss and both
measurement bases at photon numbers small enough for the exact oracle,
and checks that the engine's difference-number mean and variance agree to
a relative tolerance. Agreement here certifies the moment formulas at any
scale: they are polynomial identities in the mean vector and covariance
matrix, so correctness does not depend on the photon number.

The oracle side of a V/H row is ``fock.exact_loss_distribution`` of the
two-mode Fock state, and of a DIAG row ``fock.product_loss_distribution``
of the +45/-45 number marginals; both are arrays indexed n + size, read
through ``fock.difference_moments``.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import fock
from .gaussian import (
    PUMP_PHASE,
    GaussianState,
    apply_loss,
    apply_two_mode_squeeze,
    make_coherent_seed,
)
from .photostats import Basis, diff_number_moments

LADDER_R = (0.2, 0.5, 0.8)
LADDER_ALPHA_SQ = (1.0, 2.0, 4.0)
LADDER_ETA = (0.0, 0.5)
DEFAULT_TOLERANCE = 1e-6
# Relative errors are taken against max(|oracle|, MEAN_FLOOR) so that
# identically-zero means compare by absolute size instead of blowing up.
MEAN_FLOOR = 1e-6


@dataclass(frozen=True)
class ComparisonRow:
    r: float
    alpha_v_sq: float
    alpha_h_sq: float
    eta: float
    basis: str
    quantity: str
    engine_value: float
    oracle_value: float
    relative_error: float
    truncation_deficit: float
    passed: bool


_ROW = "%.17g,%.17g,%.17g,%.17g,%s,%s,%.17g,%.17g,%.17g,%.17g,%s"


@dataclass(frozen=True, eq=False)
class _LadderPoint:
    """Everything a ladder point's rows share across loss and basis."""

    r: float
    alpha_v_sq: float
    alpha_h_sq: float
    state: GaussianState
    vh: fock.FockState
    diag: np.ndarray  # +45/-45 number marginals from fock.diag_number_marginals
    diag_deficit: float


def _ladder_point(r: float, alpha_v_sq: float, alpha_h_sq: float) -> _LadderPoint:
    alpha_v = math.sqrt(alpha_v_sq)
    alpha_h = 1j * math.sqrt(alpha_h_sq)
    vh = fock.build_state_exact(alpha_v, alpha_h, r, PUMP_PHASE)
    diag, diag_deficit = fock.diag_number_marginals(alpha_v, alpha_h, r, PUMP_PHASE)
    state = apply_two_mode_squeeze(make_coherent_seed(alpha_v, alpha_h), r, PUMP_PHASE)
    return _LadderPoint(r, alpha_v_sq, alpha_h_sq, state, vh, diag, diag_deficit)


def _point_rows(
    point: _LadderPoint, lossy: GaussianState, eta: float, basis: Basis, tolerance: float
) -> list[ComparisonRow]:
    """Rows of one point at loss eta; ``lossy`` is its state after that loss."""
    # engine moments are read through this module's name at every call, so a
    # fault injected there reaches every row
    mom = diff_number_moments(lossy, basis)
    if Basis(basis) is Basis.VH:
        deficit = point.vh.norm_deficit
        probs = fock.exact_loss_distribution(point.vh, eta, basis)
    else:
        deficit = point.diag_deficit
        probs = fock.product_loss_distribution(point.diag, eta)
    oracle_mean, oracle_var = fock.difference_moments(probs)

    rows = []
    for quantity, engine_value, oracle_value in (
        ("mean", mom.mean, oracle_mean),
        ("variance", mom.variance, oracle_var),
    ):
        rel = abs(engine_value - oracle_value) / max(abs(oracle_value), MEAN_FLOOR)
        rows.append(
            ComparisonRow(
                r=point.r,
                alpha_v_sq=point.alpha_v_sq,
                alpha_h_sq=point.alpha_h_sq,
                eta=eta,
                basis=Basis(basis).value,
                quantity=quantity,
                engine_value=engine_value,
                oracle_value=oracle_value,
                relative_error=rel,
                truncation_deficit=deficit,
                passed=rel <= tolerance,
            )
        )
    return rows


def compare_point(
    r: float,
    alpha_v_sq: float,
    alpha_h_sq: float,
    eta: float,
    basis: Basis,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[ComparisonRow]:
    """Engine-vs-oracle comparison at one ladder point."""
    point = _ladder_point(r, alpha_v_sq, alpha_h_sq)
    return _point_rows(point, apply_loss(point.state, eta), eta, basis, tolerance)


def run_ladder(tolerance: float = DEFAULT_TOLERANCE) -> list[ComparisonRow]:
    """Full validation ladder over r x seed amplitudes x loss x basis; each
    point's states are built once and serve all its loss and basis rows, and
    each lossy engine state serves both bases."""
    rows: list[ComparisonRow] = []
    for r in LADDER_R:
        for av2 in LADDER_ALPHA_SQ:
            for ah2 in LADDER_ALPHA_SQ:
                point = _ladder_point(r, av2, ah2)
                for eta in LADDER_ETA:
                    lossy = apply_loss(point.state, eta)
                    for basis in (Basis.VH, Basis.DIAG):
                        rows.extend(_point_rows(point, lossy, eta, basis, tolerance))
    return rows


def ladder_passed(rows: list[ComparisonRow]) -> bool:
    return all(row.passed for row in rows)


def rows_to_csv(rows: list[ComparisonRow]) -> str:
    """One line per row in ComparisonRow's field order: numbers at full
    precision, ``passed`` as pass or FAIL."""
    lines = [",".join(f.name for f in fields(ComparisonRow))]
    for row in rows:
        *values, passed = astuple(row)
        lines.append(_ROW % (*values, "pass" if passed else "FAIL"))
    return "\n".join(lines) + "\n"
