"""The closed forms have one home: ``macroqkd/laws.py`` imports nothing
from the package and little beyond NumPy, and no other module keeps a copy
of a function that lives there."""

import ast
from pathlib import Path

from macroqkd import gaussian, laws, photostats

SRC = Path(__file__).resolve().parents[1] / "src" / "macroqkd"
ALLOWED_IMPORTS = {"__future__", "functools", "heapq", "itertools", "math", "numpy"}
LAWS = (
    "_cell_laws",
    "_dual_basis_law",
    "_erfc",
    "_flip_probabilities",
    "_gauss_legendre",
    "_hypergeometric",
    "_legendre",
    "_legendre_near_one",
    "_normal_density",
    "_pulse_law",
    "_sign_thresholds",
    "_thinned_law",
    "solve_gain_squeeze",
)


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text())


def test_laws_imports_only_the_standard_library_and_numpy():
    imported = set()
    for node in ast.walk(_tree("laws.py")):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import from {node.module!r}"
            imported.add(node.module.split(".")[0])
    assert "macroqkd" not in imported
    assert imported <= ALLOWED_IMPORTS, imported - ALLOWED_IMPORTS


def test_every_law_is_defined_in_laws_and_nowhere_else():
    defined = {name for name in LAWS if callable(getattr(laws, name, None))}
    assert defined == set(LAWS)
    copies = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "laws.py"
        for node in ast.walk(_tree(path.name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in LAWS
    ]
    assert copies == []


def test_the_gain_solve_is_one_object_wherever_it_is_bound():
    # the benchmark's tracer wraps it where gaussian and photostats bind it
    assert gaussian.solve_gain_squeeze is laws.solve_gain_squeeze
    assert photostats.solve_gain_squeeze is laws.solve_gain_squeeze
