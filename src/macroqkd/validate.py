"""Oracle gate: compare the closed-form pulse law against the exact Fock oracle.

The ladder sweeps squeeze strength, seed amplitudes, loss and both
measurement bases at photon numbers small enough for the exact oracle,
and checks that the difference-number mean and variance that sessions and
figures read (``laws._thinned_law`` of ``laws._pulse_law``)
agree to a relative tolerance. Agreement here certifies that law at any
scale: it is an identity in the seed's photon numbers and r, so
correctness does not depend on the photon number. The Gaussian engine is
held to the same oracle rows by the tests.

The oracle side of a V/H row is ``fock.exact_loss_distribution`` of the
two-mode Fock state, and of a DIAG row ``fock.product_loss_distribution``
of the +45/-45 number marginals; both are arrays indexed n + size, read
through ``fock.difference_moments``.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

from . import fock
from .gaussian import PUMP_PHASE
from .laws import _pulse_law, _thinned_law
from .photostats import Basis

LADDER_R = (0.2, 0.5, 0.8)
LADDER_ALPHA_SQ = (1.0, 2.0, 4.0)
LADDER_ETA = (0.0, 0.5)
TOLERANCE = 1e-6
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
) -> list[ComparisonRow]:
    """Rows of one ladder point for each loss in ``etas`` and, within it,
    each basis in ``bases``. The point's V/H Fock state and +45/-45 number
    marginals are built once; the engine column is the closed-form law of
    its seed squeezed by r, thinned to 1 - eta (mean 0 in the DIAG basis)."""
    alpha_v = math.sqrt(alpha_v_sq)
    alpha_h = 1j * math.sqrt(alpha_h_sq)
    vh = fock.build_state_exact(alpha_v, alpha_h, r, PUMP_PHASE)
    diag, diag_deficit = fock.diag_number_marginals(alpha_v, alpha_h, r, PUMP_PHASE)
    # _pulse_law is looked up through this module's name at every point, so
    # a fault injected there reaches every row
    law = _pulse_law(alpha_v_sq + alpha_h_sq, alpha_v_sq - alpha_h_sq, r)
    rows = []
    for eta in etas:
        mean, var_vh, var_diag = _thinned_law(law, 1.0 - eta)
        for basis in bases:
            if basis is Basis.VH:
                engine = mean, var_vh
                deficit, probs = vh.norm_deficit, fock.exact_loss_distribution(vh, eta, basis)
            else:
                engine = 0.0, var_diag
                deficit, probs = diag_deficit, fock.product_loss_distribution(diag, eta)
            for quantity, engine_value, oracle_value in zip(("mean", "variance"), engine, fock.difference_moments(probs)):
                rel = abs(engine_value - oracle_value) / max(abs(oracle_value), MEAN_FLOOR)
                rows.append(
                    ComparisonRow(
                        r, alpha_v_sq, alpha_h_sq, eta, basis.value, quantity,
                        engine_value, oracle_value, rel, deficit, rel <= TOLERANCE,
                    )
                )
    return rows


def compare_point(
    r: float,
    alpha_v_sq: float,
    alpha_h_sq: float,
    eta: float,
    basis: Basis,
) -> list[ComparisonRow]:
    """Engine-vs-oracle comparison at one ladder point."""
    return _point_rows(r, alpha_v_sq, alpha_h_sq, (eta,), (Basis(basis),))


def run_ladder() -> list[ComparisonRow]:
    """Full validation ladder over r x seed amplitudes x loss x basis."""
    return [
        row
        for r in LADDER_R
        for av2 in LADDER_ALPHA_SQ
        for ah2 in LADDER_ALPHA_SQ
        for row in _point_rows(r, av2, ah2, LADDER_ETA, (Basis.VH, Basis.DIAG))
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
