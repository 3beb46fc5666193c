"""The workload process: one closed-loop client calling ``hypercount.cli.main``
in process.

Each pass runs the workload's commands in order, each one starting only
after the previous one returned, with stdout and stderr captured.  Passes
repeat until the next one would end after ``--seconds`` (at least two, so
that every run checks that a repetition gives the same report bytes).  With
``--trace 1`` the client alternates an untraced and a traced pass; end-to-end
times come only from untraced passes.

Prints one JSON object on stdout.  ``--setup-probe`` instead times importing
``hypercount.cli`` and building its parser in this fresh process.

Run through ``run.py``, which forces ``HYPERCOUNT_WORKERS=1``; the client
sets it as well so that no shard worker process can start.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_UNTRACED_PASSES = 2


def import_cli():
    """Import ``hypercount.cli`` from this checkout's sources, never from an
    installed copy; exit with code 2 when the sources are absent."""
    if not (SRC / "hypercount" / "cli.py").is_file():
        print(f"perfbench: no hypercount sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from hypercount import cli
    if Path(cli.__file__).resolve().parent != SRC / "hypercount":
        print(f"perfbench: hypercount imported from {cli.__file__}", file=sys.stderr)
        sys.exit(2)
    return cli


def run_command(cli, command: workloads.Command) -> dict:
    """Run one command; return its seconds, report and failure reasons."""
    out, err = io.StringIO(), io.StringIO()
    reasons: list[str] = []
    report = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(command.argv))
    except Exception as exc:  # a traceback is a failed command, not a crash
        code = None
        reasons.append(f"raised {exc!r}")
    seconds = time.perf_counter() - t0
    if code is not None and code != 0:
        reasons.append(f"exit code {code}")
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        reasons.append("no JSON report")
    if isinstance(report, dict):
        reasons += command.check(report)
    return {"metric": command.metric, "seconds": seconds, "report": report,
            "reasons": reasons}


def run_pass(cli, commands: list[workloads.Command]) -> dict:
    t0 = time.perf_counter()
    results = [run_command(cli, c) for c in commands]
    seconds = time.perf_counter() - t0
    counts = {r["report"].get("count") for r in results
              if isinstance(r["report"], dict) and r["report"].get("command") == "count"}
    if len(counts) > 1:
        for r in results:
            r["reasons"].append(f"counting methods disagree: {sorted(counts, key=str)}")
    return {"seconds": seconds, "commands": results}


def run(cli, commands: list[workloads.Command], seconds: float, trace: bool) -> dict:
    """Closed-loop passes for ``seconds``; returns the gate outcome and the
    metrics of the run (end-to-end, or per-layer when ``trace``).

    There is no warm-up: a user pays the first-call costs of a fresh
    process on every CLI invocation, so the first pass counts."""
    start = time.perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []
    layer_runs: list[dict[str, float]] = []
    while True:
        round_start = time.perf_counter()
        untraced.append(run_pass(cli, commands))
        if trace:
            tr = tracing.Tracer()
            tr.install()
            try:
                traced.append(run_pass(cli, commands))
            finally:
                tr.uninstall()
            layer_runs.append(tr.metrics())
        now = time.perf_counter()
        enough = trace or len(untraced) >= MIN_UNTRACED_PASSES
        if enough and (now - start) + (now - round_start) > seconds:
            break

    # Same inputs, same report bytes: every repetition of a command (traced
    # ones included) must match its first run.
    first = [workloads.report_bytes(r["report"]) for r in untraced[0]["commands"]]
    for p in untraced[1:] + traced:
        for ref, r in zip(first, p["commands"]):
            if workloads.report_bytes(r["report"]) != ref:
                r["reasons"].append("report differs from the first repetition")
    results = [r for p in untraced + traced for r in p["commands"]]
    failures = [f"{r['metric']}: {why}" for r in results for why in r["reasons"]]
    failed = sum(bool(r["reasons"]) for r in results)

    per_command = {c.metric: statistics.median(
        p["commands"][i]["seconds"] for p in untraced)
        for i, c in enumerate(commands)}
    pass_s = statistics.median(p["seconds"] for p in untraced)
    out = {"attempted": len(results), "failed": failed, "failures": failures,
           "passes": len(untraced), "traced_passes": len(traced),
           "pass_seconds": [p["seconds"] for p in untraced],
           "traced_pass_seconds": [p["seconds"] for p in traced],
           "per_command": per_command}
    if trace:
        counters_repeat = True
        metrics = {}
        for name in layer_runs[0]:
            values = [m[name] for m in layer_runs]
            if name.endswith("_s"):  # a time or a rate: varies, take the median
                metrics[name] = statistics.median(values)
            else:
                counters_repeat &= len(set(values)) == 1
                metrics[name] = values[0]
        traced_s = statistics.median(p["seconds"] for p in traced)
        metrics["trace.untraced_pass_s"] = pass_s
        metrics["trace.traced_pass_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - pass_s
        if not counters_repeat:
            out["failures"].append("computed counters differ between traced passes")
        out["metrics"] = metrics
    else:
        out["metrics"] = {
            "pass_s": pass_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup-probe", action="store_true")
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "tiny"), default="bench")
    args = ap.parse_args()
    os.environ["HYPERCOUNT_WORKERS"] = "1"

    if args.setup_probe:
        t0 = time.perf_counter()
        cli = import_cli()
        cli.build_parser()
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    cli = import_cli()
    import numpy
    commands = workloads.commands(args.workload, args.seed, args.size)
    out = run(cli, commands, args.seconds, bool(args.trace))
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
