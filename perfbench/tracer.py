"""Traced-run instrumentation, installed from outside the package.

Each layer is one module of ``hypercount``.  For every traced function the
tracer counts calls and measures busy time (outermost activations only, so
recursion is not counted twice) and self time (busy time minus the time
spent in traced children).  A few counters are computed from call arguments
or return values; they depend only on the inputs, so two traced runs must
give them to the unit.

Wrappers are installed at every binding site: a package module that did
``from .lattice import count_zero_sum_boxes`` holds its own reference, so
the tracer replaces a name in any ``hypercount`` module whose value is the
very object it wraps, and restores every original on ``uninstall``.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from typing import Any, Callable

# (layer module, function) pairs to trace.  Hot one-line helpers such as
# ``factorization.bit`` are left out on purpose: wrapping them would
# multiply the traced run's time without telling which layer is slow.
TRACED = (
    ("cli", "main"),
    ("counting", "count_points"),
    ("counting", "mobius_sieve"),
    ("counting", "squarefree_divisors"),
    ("lattice", "count_zero_sum_boxes"),
    ("lattice", "count_zero_sum"),
    ("lattice", "count_solutions"),
    ("lattice", "count_congruence"),
    ("factorization", "factorize"),
    ("factorization", "compose"),
    ("factorization", "is_reduced"),
    ("constants", "assemble_constant"),
    ("constants", "euler_product"),
    ("constants", "primes_up_to"),
    ("constants", "beta_tilde"),
    ("constants", "mu_infinity"),
    ("constants", "polytope_volume"),
    ("constants", "mc_mean"),
    ("toric", "enumerate_variety"),
    ("verify", "run_suite"),
    ("verify", "random_reduced"),
    ("verify", "brute_zero_sum"),
    ("verify", "brute_congruence"),
    ("verify", "brute_count_points"),
)

# Counters computed from arguments or results of traced calls.
COUNTERS = ("lattice.cells", "lattice.exact_fallback_calls",
            "constants.mc_samples", "toric.points", "verify.checks",
            "verify.checks_failed")

# Mirrors the kernel's switch from int64 to exact Python integers; the
# package's own value is used when it still defines one.
_DEFAULT_VEC_LIMIT = 1 << 60


class _Stat:
    __slots__ = ("calls", "busy_s", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Call statistics and computed counters for one traced pass."""

    def __init__(self) -> None:
        self.stats = {f"{mod}.{fn}": _Stat() for mod, fn in TRACED}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list[float]] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._vec_limit = _DEFAULT_VEC_LIMIT

    # ------------------------------------------------------------ hooks

    def _kernel_args(self, args: tuple, kwargs: dict) -> None:
        """Outer cells of one count_zero_sum_boxes call: the product of
        2L+1 over the coordinates the kernel enumerates (all active
        coordinates but the two largest boxes, which close in one
        progression count)."""
        coeffs = args[0] if args else kwargs["coeffs"]
        limits = args[1] if len(args) > 1 else kwargs["limits"]
        active = sorted((L, c) for c, L in zip(coeffs, limits) if L > 0)
        if len(active) <= 1:
            return
        outer = active[:-2]
        self.counters["lattice.cells"] += math.prod(2 * L + 1 for L, _ in outer)
        if outer:
            (_, b), (_, a) = active[-2], active[-1]
            if (sum(L * c for L, c in active) >= self._vec_limit
                    or max(a, b) ** 2 >= self._vec_limit):
                self.counters["lattice.exact_fallback_calls"] += 1

    def _mc_args(self, args: tuple, kwargs: dict) -> None:
        samples = args[1] if len(args) > 1 else kwargs["samples"]
        self.counters["constants.mc_samples"] += int(samples)

    def _toric_result(self, result: Any) -> None:
        self.counters["toric.points"] += int(result.count)

    def _suite_result(self, result: Any) -> None:
        self.counters["verify.checks"] += len(result)
        self.counters["verify.checks_failed"] += sum(not r.ok for r in result)

    # ---------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats[name]
        stack = self._stack
        on_args = {"lattice.count_zero_sum_boxes": self._kernel_args,
                   "constants.mc_mean": self._mc_args}.get(name)
        on_result = {"toric.enumerate_variety": self._toric_result,
                     "verify.run_suite": self._suite_result}.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            if on_args is not None:
                on_args(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.depth -= 1
                if stack:
                    stack[-1][0] += dt
                stat.self_s += dt - frame[0]
                if stat.depth == 0:
                    stat.busy_s += dt
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at each of its binding sites."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hypercount"
                                         or name.startswith("hypercount."))]
        self._vec_limit = getattr(sys.modules.get("hypercount.lattice"),
                                  "_VEC_LIMIT", _DEFAULT_VEC_LIMIT)
        for mod_name, fn_name in TRACED:
            home = sys.modules.get(f"hypercount.{mod_name}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                continue  # reported as zero calls
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ report

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: calls, busy and self seconds per traced
        function, the computed counters, and two derived ratios."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.busy_s"] = st.busy_s
            out[f"{name}.self_s"] = st.self_s
        out.update(self.counters)
        kernel_calls = self.stats["lattice.count_zero_sum_boxes"].calls
        out["lattice.cells_per_call"] = (
            self.counters["lattice.cells"] / kernel_calls if kernel_calls else 0.0)
        mc_busy = self.stats["constants.mc_mean"].busy_s
        out["constants.mc_samples_per_s"] = (
            self.counters["constants.mc_samples"] / mc_busy if mc_busy else 0.0)
        return out
