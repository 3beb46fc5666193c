"""Workload command lists and the exact-answer gate.

A workload is an ordered list of ``hypercount`` CLI invocations run by one
closed-loop client.  Every command carries the name its time is printed
under and a check of its JSON report.  See README.md for why
each workload exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

NAMES = ("count-n3", "count-n4", "constant", "verify")

# Exact N(B) at the sizes the workloads run; all three counting pipelines
# must reproduce them to the unit.  The tiny values also match the
# package's full-enumeration oracle, ``verify.brute_count_points``.
EXACT_COUNTS = {
    ("bench", 3): ("2e5", 117700252),
    ("bench", 4): ("1.6e5", 1524484360),
    ("tiny", 3): ("1e3", 195004),
    ("tiny", 4): ("1e3", 852104),
}

METHODS = ("direct", "moebius", "torsor")


@dataclass(frozen=True)
class Command:
    metric: str                              # name its seconds are printed under
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]       # report -> reasons it is wrong


def check_count(expected: int) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        if report.get("count") != expected:
            return [f"count {report.get('count')} != exact {expected}"]
        return []
    return check


def check_constant(n: int) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        bad = []
        if report.get("discrepancy_within_budget") is not True:
            bad.append("discrepancy_within_budget is not true")
        if n == 3 and report.get("V_exact") != "1/16":
            bad.append(f"V_exact {report.get('V_exact')!r} != '1/16'")
        return bad
    return check


def check_verify(report: dict) -> list[str]:
    if report.get("failed") != 0:
        return [f"verify reports failed = {report.get('failed')}"]
    return []


def commands(workload: str, seed: int, size: str = "bench") -> list[Command]:
    """The command list of one workload.  ``size="tiny"`` gives the same
    commands at sizes small enough for the benchmark's self-test."""
    if workload in ("count-n3", "count-n4"):
        n = 3 if workload == "count-n3" else 4
        bound, exact = EXACT_COUNTS[(size, n)]
        return [Command(f"count.{m}_s",
                        ("count", "--n", str(n), "--B", bound, "--method", m,
                         "--shards", "1"),
                        check_count(exact))
                for m in METHODS]
    if workload == "constant":
        prime_limit, n3_samples, n4 = (("1e7", "1e7", "2e6") if size == "bench"
                                        else ("1e4", "1e4", "1e4"))
        return [
            Command("constant.n3_s",
                    ("constant", "--n", "3", "--prime-limit", prime_limit,
                     "--mc-samples", n3_samples, "--seed", str(seed)),
                    check_constant(3)),
            Command("constant.n4_s",
                    ("constant", "--n", "4", "--v-method", "mc",
                     "--mc-samples", n4, "--seed", str(seed)),
                    check_constant(4)),
        ]
    if workload == "verify":
        argv = ("verify", "--suite", "all", "--seed", str(seed), "--shards", "1")
        if size == "bench":
            argv += ("--heavy",)
        return [Command("verify_s", argv, check_verify)]
    raise ValueError(f"unknown workload {workload!r}")


def normalized(report: Any) -> Any:
    """The report with every ``wall_time_s`` field removed."""
    if isinstance(report, dict):
        return {k: normalized(v) for k, v in report.items() if k != "wall_time_s"}
    if isinstance(report, list):
        return [normalized(v) for v in report]
    return report


def report_bytes(report: dict) -> str:
    return json.dumps(normalized(report), sort_keys=True)
