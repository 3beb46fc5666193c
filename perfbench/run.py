"""hypercount benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload count-n3 --seed 0 --seconds 25 --trace 0

``--workload all`` runs the four workloads one after another.  Every metric
is printed as ``metric <name> <value> <unit>``, preceded by one ``env`` line
recording the machine and the pinned settings; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  See README.md for the workloads and metrics.

The load is single-process on purpose: each workload runs in one child
process with ``HYPERCOUNT_WORKERS=1`` and ``--shards 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLIENT = HERE / "client.py"
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0  # a run must end within 180 s
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
LOAD = ("one closed-loop client in one process; HYPERCOUNT_WORKERS=1 and "
        "--shards 1 because nproc is small and shared, so scaling across "
        "processes is out of scope")


def unit_of(name: str) -> str:
    """Unit of a metric, read from its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("cells_per_call"):
        return "cells/call"
    if name.endswith("_frac"):
        return "1"
    return "count"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def child(extra: list[str], deadline: float) -> dict:
    """Run the client with ``extra`` arguments; return its JSON output."""
    env = dict(os.environ, HYPERCOUNT_WORKERS="1")
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run([sys.executable, str(CLIENT), *extra], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        print(f"perfbench: client {extra} ran past {timeout:.0f} s",
              file=sys.stderr)
        raise SystemExit(1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(proc.returncode or 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 size: str, deadline: float) -> dict:
    """Measure one workload; print its table; return the result object."""
    setup = []
    if not trace:
        setup = [child(["--setup-probe"], deadline)["setup_s"]
                 for _ in range(SETUP_PROBES)]
    out = child(["--workload", name, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", str(trace), "--size", size], deadline)
    metrics = dict(out["metrics"])
    if not trace:
        metrics["setup_s"] = statistics.median(setup)

    env = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
           "size": size, "passes": out["passes"],
           "traced_passes": out["traced_passes"], "nproc": os.cpu_count(),
           "cpu_model": cpu_model(), **out["versions"],
           "HYPERCOUNT_WORKERS": "1", "shards": 1, "load": LOAD}
    print("env " + json.dumps(env, sort_keys=True))
    print("passes " + json.dumps({"untraced_s": out["pass_seconds"],
                                  "traced_s": out["traced_pass_seconds"]}))
    table = dict(metrics)
    if not trace:
        table.update(out["per_command"])
        table["failed_ops_frac"] = out["failed"] / out["attempted"]
    for key in sorted(table):
        print(f"metric {key} {table[key]!r} {unit_of(key)}")
    for line in out["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    correct = out["failed"] == 0 and not out["failures"]
    return {"correct": correct, "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: {"value": v, "unit": unit_of(k)}
                        for k, v in sorted(metrics.items())}}


def main() -> int:
    ap = argparse.ArgumentParser(description="hypercount benchmark")
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "tiny"), default="bench",
                    help="tiny: the self-test's small inputs")
    args = ap.parse_args()
    if not (ROOT / "src" / "hypercount" / "cli.py").is_file():
        print(f"perfbench: no hypercount sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + TIME_LIMIT_S
        results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                     args.size, deadline)
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
