"""The functions the benchmark's per-layer trace wraps must exist.

``perfbench/tracing.py`` names them by module and attribute; a program
change that deletes or renames one breaks ``perfbench/run.py --trace 1``
without failing any other test. The file is loaded read-only, and nothing
is installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(name: str):
    mod, attr = name.split(".")
    return getattr(importlib.import_module(f"macroqkd.{mod}"), attr, None)


def test_traced_names_are_callables():
    tracing = _tracing_module()
    missing = [name for name in tracing.TRACED if not callable(_resolve(name))]
    assert missing == []


def test_cached_names_keep_their_lru_cache():
    tracing = _tracing_module()
    assert set(tracing.CACHED) <= set(tracing.TRACED)
    uncached = [name for name in tracing.CACHED if not hasattr(_resolve(name), "cache_info")]
    assert uncached == []
