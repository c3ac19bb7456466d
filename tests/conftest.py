"""Shared test plumbing: single-threaded BLAS, a deterministic Hypothesis
profile, the decoding of session cell codes, a count of the Gaussian states
a test builds, a fault the oracle gate must catch, and the acceptance
suite's per-criterion lines, which this hook prints after the run, capture
or not."""

import os
from pathlib import Path

import pytest

# The suite's BLAS calls are small (the oracle's block products, the
# few-mode symplectic algebra) and gain nothing from threads, which only
# compete with any other busy process; the pools read these only when NumPy
# is first imported, which neither pytest nor Hypothesis does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# pytest's pythonpath setting puts src/ on this process's path only; the
# tests that start `python -m macroqkd` need it on the children's path too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

from hypothesis import settings  # noqa: E402

from macroqkd import gaussian, validate  # noqa: E402

# Same examples on every run, with no reliance on a local example database.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# the fields of a session's 6-bit cell code, from bit 5 down
CELL_FIELDS = ("alice_bit", "alice_basis", "bob_basis", "bob_bit", "eve_basis", "eve_bit")


def cell_columns(cells):
    """Per-pulse uint8 columns, one per field, of an array of cell codes."""
    return {name: cells >> (5 - k) & 1 for k, name in enumerate(CELL_FIELDS)}


@pytest.fixture
def built_states(monkeypatch):
    """A list that every GaussianState built from here on is appended to."""
    built = []
    post_init = gaussian.GaussianState.__post_init__

    def counting_post_init(state):
        built.append(state)
        post_init(state)

    monkeypatch.setattr(gaussian.GaussianState, "__post_init__", counting_post_init)
    return built


@pytest.fixture
def variance_fault(monkeypatch):
    """The oracle gate's closed-form law with both variances off by 1e-4."""
    pulse_law = validate._pulse_law

    def broken_law(n_s, n, r):
        n, v_match, v_mis, n_total = pulse_law(n_s, n, r)
        return n, v_match * (1 + 1e-4), v_mis * (1 + 1e-4), n_total

    monkeypatch.setattr(validate, "_pulse_law", broken_law)


ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    ACCEPTANCE_LINES.append(f"[ACCEPTANCE {number:>2}] {status} - {description}{suffix}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
