"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that
- every workload, untraced and traced, ends with exactly the metrics that
  BENCHMARK.json names, with their units, and passes its gate;
- two traced runs give identical computed counters and call counts, and
  count the work the tiny inputs imply (kernel calls on the count
  workloads, none on ``constant``);
- the gate fails a command whose report disagrees with a deliberately wrong
  expected count, and fails a run whose repetitions differ.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import client
import workloads
from run import unit_of

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n"
                             + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    names = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
             1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    for w in workloads.NAMES:
        for trace in (0, 1):
            res = bench(w, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == names[trace],
                   f"{w} trace={trace}: metrics and units match BENCHMARK.json")
            expect(all(unit_of(k) == u for k, u in names[trace].items()),
                   f"{w} trace={trace}: run.py units match BENCHMARK.json")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{w} trace={trace}: gate passes")
        again = bench(w, 1)
        counts = {k: v["value"] for k, v in res["metrics"].items()
                  if not k.endswith("_s")}
        counts2 = {k: v["value"] for k, v in again["metrics"].items()
                   if not k.endswith("_s")}
        expect(counts == counts2, f"{w}: two traced runs give identical counters")
        kernel = counts["lattice.count_zero_sum_boxes.calls"]
        expect((kernel == 0) == (w == "constant"),
               f"{w}: {kernel} kernel calls, none only on constant")

    cli = client.import_cli()
    n3 = workloads.commands("count-n3", 0, "tiny")
    wrong = [workloads.Command(c.metric, c.argv, workloads.check_count(195005))
             for c in n3]
    out = client.run(cli, wrong, 0.0, trace=False)
    expect(out["failed"] == out["attempted"] == 2 * len(n3),
           "gate fails every command checked against a wrong count")

    serial = iter(range(10))

    class Drifting:  # a CLI whose second report differs from its first
        @staticmethod
        def main(argv):
            print(json.dumps({"command": "x", "serial": next(serial)}))
            return 0

    out = client.run(Drifting, [workloads.Command("x_s", (), lambda r: [])],
                     0.0, trace=False)
    expect(out["failed"] == 1 and out["attempted"] == 2,
           "gate fails a repetition whose report bytes differ")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
