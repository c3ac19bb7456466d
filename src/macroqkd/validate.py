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

from . import fock
from .gaussian import (
    PUMP_PHASE,
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


def _point_rows(
    r: float,
    alpha_v_sq: float,
    alpha_h_sq: float,
    etas: tuple[float, ...],
    bases: tuple[Basis, ...],
    tolerance: float,
) -> list[ComparisonRow]:
    """Rows of one ladder point for each loss in ``etas`` and, within it,
    each basis in ``bases``. The point's Gaussian state, V/H Fock state and
    +45/-45 number marginals are built once, and each lossy engine state
    serves every basis."""
    alpha_v = math.sqrt(alpha_v_sq)
    alpha_h = 1j * math.sqrt(alpha_h_sq)
    vh = fock.build_state_exact(alpha_v, alpha_h, r, PUMP_PHASE)
    diag, diag_deficit = fock.diag_number_marginals(alpha_v, alpha_h, r, PUMP_PHASE)
    state = apply_two_mode_squeeze(make_coherent_seed(alpha_v, alpha_h), r, PUMP_PHASE)
    rows = []
    for eta in etas:
        lossy = apply_loss(state, eta)
        for basis in bases:
            # engine moments are read through this module's name at every call, so a
            # fault injected there reaches every row
            mom = diff_number_moments(lossy, basis)
            if basis is Basis.VH:
                deficit, probs = vh.norm_deficit, fock.exact_loss_distribution(vh, eta, basis)
            else:
                deficit, probs = diag_deficit, fock.product_loss_distribution(diag, eta)
            oracle_mean, oracle_var = fock.difference_moments(probs)
            for quantity, engine_value, oracle_value in (
                ("mean", mom.mean, oracle_mean),
                ("variance", mom.variance, oracle_var),
            ):
                rel = abs(engine_value - oracle_value) / max(abs(oracle_value), MEAN_FLOOR)
                rows.append(
                    ComparisonRow(
                        r=r,
                        alpha_v_sq=alpha_v_sq,
                        alpha_h_sq=alpha_h_sq,
                        eta=eta,
                        basis=basis.value,
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
    return _point_rows(r, alpha_v_sq, alpha_h_sq, (eta,), (Basis(basis),), tolerance)


def run_ladder(tolerance: float = DEFAULT_TOLERANCE) -> list[ComparisonRow]:
    """Full validation ladder over r x seed amplitudes x loss x basis."""
    return [
        row
        for r in LADDER_R
        for av2 in LADDER_ALPHA_SQ
        for ah2 in LADDER_ALPHA_SQ
        for row in _point_rows(r, av2, ah2, LADDER_ETA, (Basis.VH, Basis.DIAG), tolerance)
    ]


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
