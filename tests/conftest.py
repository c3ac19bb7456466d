"""Shared test plumbing: a deterministic Hypothesis profile, and the
acceptance suite's per-criterion lines, which this hook prints after the
run, capture or not."""

from hypothesis import settings

# Same examples on every run, with no reliance on a local example database.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

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
