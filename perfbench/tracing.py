"""Per-layer tracing from outside the program.

``install`` wraps the public functions listed in ``TRACED`` and puts each
wrapper at every module attribute that holds the original, because the
package binds functions across modules with ``from .x import y``: wrapping
``streams.derive_stream`` alone would miss ``protocol.derive_stream`` and
``attacks.derive_stream``. A wrapper records calls and self time (its
duration minus the time spent in traced functions it called), aggregated per
function in memory: a session makes millions of traced calls, too many to
keep one span each.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("streams", "gaussian", "photostats", "fock", "validate", "protocol", "attacks", "cli")

TRACED = (
    "streams.derive_stream",
    "protocol.run_session",
    "protocol.alice_prepare",
    "protocol.bob_measure",
    "protocol.sift",
    "protocol.estimate_error",
    "protocol.detect_eavesdropping",
    "gaussian.alice_source",
    "gaussian.solve_gain_squeeze",
    "gaussian.apply_loss",
    "gaussian.tap_split",
    "photostats.diff_number_moments",
    "photostats.joint_diff_moments",
    "photostats.sample_outcome",
    "photostats.error_probability",
    "photostats.bob_error_vs_loss",
    "photostats.eve_tap_probability",
    "photostats.distribution_curve",
    "attacks.intercept_resend",
    "attacks.beamsplitter_tap",
    "attacks.dual_basis_measure",
    "attacks.superior_channel",
    "attacks.eve_deferred_measure",
    "fock.build_state_exact",
    "fock.rotate_exact",
    "fock.exact_diff_distribution",
    "fock.exact_loss_distribution",
    "validate.run_ladder",
    "validate.compare_point",
    "cli.main",
)

# Traced functions memoized with functools.lru_cache; their hit ratio over
# the traced round is reported.
CACHED = (
    "gaussian.apply_loss",
    "gaussian.tap_split",
    "photostats.diff_number_moments",
    "photostats.joint_diff_moments",
)


class Tracer:
    def __init__(self) -> None:
        self.calls = {name: 0 for name in TRACED}
        self.self_s = {name: 0.0 for name in TRACED}
        self.total_s = {name: 0.0 for name in TRACED}
        self.amplitudes = 0  # summed sizes of fock.rotate_exact's output arrays
        self.states_built = 0
        self._cache_start: dict[str, tuple[int, int]] = {}
        self._originals: dict[str, object] = {}
        self._stack: list[float] = []

    def _wrap(self, name: str, fn):
        calls, self_s, total_s, stack = self.calls, self.self_s, self.total_s, self._stack
        clock = time.perf_counter
        count_amplitudes = name == "fock.rotate_exact"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                calls[name] += 1
                self_s[name] += dt - inner
                total_s[name] += dt
                if stack:
                    stack[-1] += dt
            if count_amplitudes:
                self.amplitudes += out.size
            return out

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"macroqkd.{m}") for m in MODULES]
        modules.append(importlib.import_module("macroqkd"))
        by_id = {}
        for name in TRACED:
            mod, attr = name.split(".")
            fn = getattr(importlib.import_module(f"macroqkd.{mod}"), attr)
            self._originals[name] = fn
            by_id[id(fn)] = (fn, self._wrap(name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

        gaussian = importlib.import_module("macroqkd.gaussian")
        post_init = gaussian.GaussianState.__post_init__

        def counted_post_init(state) -> None:
            self.states_built += 1
            post_init(state)

        gaussian.GaussianState.__post_init__ = counted_post_init
        for name in CACHED:
            info = self._originals[name].cache_info()
            self._cache_start[name] = (info.hits, info.misses)

    def hit_ratio(self, name: str) -> float:
        """lru_cache hits over lookups since install; 0 with no lookups."""
        info = self._originals[name].cache_info()
        hits = info.hits - self._cache_start[name][0]
        lookups = hits + info.misses - self._cache_start[name][1]
        return hits / lookups if lookups else 0.0

    def summary(self) -> dict:
        return {
            "functions": {
                name: {"calls": self.calls[name], "self_s": self.self_s[name], "total_s": self.total_s[name]}
                for name in TRACED
            },
            "hit_ratio": {name: self.hit_ratio(name) for name in CACHED},
            "fock.rotate_exact.amplitudes": self.amplitudes,
            "gaussian.states_built": self.states_built,
        }
