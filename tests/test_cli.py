import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hypercount import cli, counting
from hypercount.verify import CheckResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factorize_example(capsys):
    code, out, _ = run_cli(capsys, "factorize", "--n", "3", "--y", "6,10,15")
    assert code == 0
    report = json.loads(out)
    assert report["z"] == [1, 1, 2, 1, 3, 5, 1]
    assert report["lcm"] == 30 and report["reduced"] is True


def test_count_example(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "3", "--B", "1",
                           "--method", "direct")
    assert code == 0
    assert json.loads(out)["count"] == 28
    # X = 1 at n = 10: the torsor search walks 1,022 levels
    code, out, _ = run_cli(capsys, "count", "--n", "10", "--B", "1",
                           "--method", "torsor")
    assert code == 0
    assert json.loads(out)["count"] == 4583936


def test_count_scientific_bound(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "3", "--B", "1e3",
                           "--method", "moebius")
    assert code == 0
    report = json.loads(out)
    assert report["B"] == 1000.0
    assert report["count"] == 195004
    assert report["ratio"] > 0
    # a shard above X = 10 holds no tuple, so 10^9 shards run 11 of them
    for method in counting.METHODS:
        code, out, _ = run_cli(capsys, "count", "--n", "3", "--B", "1e3",
                               "--method", method, "--shards", "1000000000")
        report = json.loads(out)
        assert code == 0 and (report["count"], report["shards"]) == (195004, 10 ** 9)
    # log(B)^(2^n - n - 1) passes the float range here
    for n, bound in (("9", "512"), ("10", "8")):
        code, out, _ = run_cli(capsys, "count", "--n", n, "--B", bound)
        assert code == 0
        report = json.loads(out)
        assert math.isfinite(report["ratio"]) and report["ratio"] >= 0
        assert math.isfinite(report["log_ratio"])
    # where the ratio underflows to 0.0 its log carries the value
    code, out, _ = run_cli(capsys, "count", "--n", "9", "--B", "512")
    report = json.loads(out)
    assert code == 0 and report["ratio"] == 0.0 and -1000 < report["log_ratio"] < -700
    code, out, _ = run_cli(capsys, "count", "--n", "3", "--B", "1")
    assert code == 0 and json.loads(out)["log_ratio"] is None


def test_toric_example(capsys):
    code, out, _ = run_cli(capsys, "toric", "--kind", "C", "--n", "3", "--p", "2")
    assert code == 0
    assert json.loads(out)["count"] == 13


def test_polytope_exact(capsys):
    code, out, _ = run_cli(capsys, "polytope", "--n", "3", "--method", "exact")
    assert code == 0
    report = json.loads(out)
    assert report["volume"] == "1/16"
    assert report["volume_float"] == 0.0625


def test_constant_small(capsys):
    code, out, _ = run_cli(capsys, "constant", "--n", "3",
                           "--prime-limit", "1e4", "--mc-samples", "1e5")
    assert code == 0
    report = json.loads(out)
    assert report["beta_brauer"] == 1
    assert report["V_exact"] == "1/16"
    assert report["discrepancy_within_budget"] is True


def test_verify_suite_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "polynomials")
    assert code == 0
    report = json.loads(out)
    assert report["failed"] == 0 and report["passed"] >= 4
    assert "[ ok ]" in err


def _strip_wall_time(text: str) -> str:
    return re.sub(r'"wall_time_s": [0-9eE.+-]+', '"wall_time_s": X', text)


# sha256 of the report below with its wall_time_s masked, computed before
# the verify batteries were split into check functions, so that any change
# to a check's cases, name, detail or order shows here
VERIFY_REPORT_SHA256 = "2ae3d7f9ee4b4f9e24d34ba939e4e57dc6d6cd6ba41e836c6ac701717aa6baeb"


def test_verify_default_report_bytes_are_pinned(capsys):
    # runs every check of every suite at the light sizes; only the shard
    # check needs --shards > 1 (tests/test_counting.py calls it)
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--shards", "1",
                           "--seed", "0")
    assert code == 0
    digest = hashlib.sha256(_strip_wall_time(out).encode()).hexdigest()
    assert digest == VERIFY_REPORT_SHA256, out


def test_reports_are_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "count", "--n", "3", "--B", "500",
                               "--method", "torsor", "--shards", "3")
        assert code == 0
        outs.append(_strip_wall_time(out))
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "polytope", "--n", "3", "--method", "mc",
                               "--samples", "1e5", "--seed", "7")
        assert code == 0
        outs.append(_strip_wall_time(out))
    assert outs[0] == outs[1]


def test_csv_and_json_carry_the_same_pairs(capsys):
    _, out_json, _ = run_cli(capsys, "factorize", "--y", "6,10,15")
    _, out_csv, _ = run_cli(capsys, "factorize", "--y", "6,10,15",
                            "--format", "csv")
    flat: dict[str, object] = {}

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in value:
                walk(f"{prefix}.{k}" if prefix else k, value[k])
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(f"{prefix}[{i}]", v)
        else:
            flat[prefix] = value

    walk("", json.loads(out_json))
    rows = list(csv.reader(io.StringIO(out_csv)))
    assert rows[0] == ["key", "value"]
    keys = {r[0] for r in rows[1:]}
    flat.pop("wall_time_s")
    keys.discard("wall_time_s")
    assert keys == set(flat)


def test_exit_code_usage_error(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "3", "--B", "bogus")
    assert code == 1 and "usage error" in err
    code, _, err = run_cli(capsys, "factorize", "--n", "4", "--y", "6,10,15")
    assert code == 1
    code, _, err = run_cli(capsys, "count", "--n", "2", "--B", "10")
    assert code == 1


@pytest.mark.parametrize("method", ["exact", "mc"])
@pytest.mark.parametrize("n", ["-1", "2"])
def test_polytope_below_n_3_is_a_usage_error(capsys, method, n):
    code, out, err = run_cli(capsys, "polytope", "--n", n, "--method", method)
    assert code == 1 and out == "" and "n must be >= 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bound", ["inf", "-inf", "nan", "1e400"])
def test_non_finite_bound_is_a_usage_error(capsys, bound):
    code, out, err = run_cli(capsys, "count", "--n", "3", f"--B={bound}")
    assert code == 1 and out == "" and "height bound must be finite" in err
    code, _, err = run_cli(capsys, "verify", "--suite", "lattice", f"--B={bound}")
    assert code == 1 and "height bound must be finite" in err


@pytest.mark.parametrize("argv", [
    ("constant", "--mc-samples", "inf"),
    ("constant", "--prime-limit", "1e400"),
    ("constant", "--mc-samples", "nan"),
    ("polytope", "--method", "mc", "--samples", "inf"),
])
def test_non_finite_integer_parameter_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and "usage error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "lattice"),
    ("constant",),
    ("polytope", "--method", "mc"),
])
def test_negative_seed_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 1 and out == "" and "usage error" in err and "seed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("constant", "--prime-limit", "1e13"),
    ("constant", "--mc-samples", "1e15"),
    ("constant", "--n", "4", "--v-method", "mc", "--mc-samples", "1e15"),
    ("polytope", "--method", "mc", "--samples", "1e15"),
    ("polytope", "--n", "4", "--method", "mc", "--samples", "1e15"),
])
def test_oversize_prime_limit_or_sample_count_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "exceeds the cap" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-8"])
def test_bad_beta_tolerance_is_a_usage_error(capsys, tol):
    code, out, err = run_cli(capsys, "constant", f"--beta-tol={tol}")
    assert code == 1 and out == "" and "beta tolerance" in err


def test_beta_tolerance_below_the_floor_exits_2_at_once(capsys):
    for n in ("3", "4"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "constant", "--n", n,
                                 "--beta-tol", "1e-14", "--mc-samples", "1e7")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and "resource limit" in err


def test_negative_bound_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "count", "--n", "3", "--B", "-5")
    assert code == 1 and out == "" and "nonnegative" in err
    for bound in ("0", "0.5", "-0"):
        code, out, _ = run_cli(capsys, "count", "--n", "3", "--B", bound)
        assert code == 0 and json.loads(out)["count"] == 0


def test_bound_is_floored_exactly(capsys):
    # 26999999999999999 rounds to the float 2.7e16, whose cube root is 300000
    for bound, X in (("26999999999999999", 299999), ("27e15", 300000)):
        code, out, err = run_cli(capsys, "count", "--n", "3", "--B", bound)
        assert code == 2 and out == "" and f"X = {X} " in err
    code, out, _ = run_cli(capsys, "count", "--n", "3", "--B", "26.99999999999999999")
    assert code == 0
    report = json.loads(out)
    assert report["B"] == 27.0  # reported as the float
    assert report["count"] == 436  # counted as 26 < 3^3, so X = 2 (B = 27 gives 1948)


def test_verify_floors_the_bound_exactly(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "methods", "--n", "3",
                           "--B", "26.99999999999999999")
    assert code == 0
    report = json.loads(out)
    assert report["B"] == 27.0  # reported as the float
    agree = report["checks"][0]
    assert agree["name"] == "three pipelines agree at n=3, B=27"
    assert "'direct': 436" in agree["detail"]


def test_oversize_count_exits_2_at_once(capsys):
    for n, bound in (("3", "1e10"), ("3", "2e19"), ("1000000000", "2")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "count", "--n", n, "--B", bound)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and "resource limit" in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "hypercount", "count", "--n", "3",
                           "--B", "10"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 436


def test_importing_the_cli_loads_no_process_pool():
    # the pool is imported only when a count runs shards in parallel
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, hypercount.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_workers_env_is_validated_and_capped(capsys, monkeypatch):
    argv = ("count", "--n", "3", "--B", "100", "--shards", "3")
    for bad in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv(counting.WORKERS_ENV, bad)
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and counting.WORKERS_ENV in err

    pools = []

    class SerialPool:  # records the pool size and runs shards in process
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(counting, "_pool", SerialPool)
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 2)
    for env, shards, pool in (("64", "3", [2]), ("64", "1", []), ("1", "3", [])):
        pools.clear()
        monkeypatch.setenv(counting.WORKERS_ENV, env)
        code, out, _ = run_cli(capsys, *argv[:-1], shards)
        assert code == 0 and json.loads(out)["count"] == 6148
        assert pools == pool


def test_exit_code_resource_limit(capsys):
    for argv in (("toric", "--kind", "C", "--n", "5", "--p", "2"),
                 ("toric", "--kind", "C", "--n", "3", "--p", "1000000007"),
                 ("factorize", "--y", ",".join(["6"] * 13))):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and "resource limit" in err
    code, _, err = run_cli(capsys, "polytope", "--n", "4", "--method", "exact")
    assert code == 2
    # the widest admitted tuple is cheap: only entries > 1 take a gcd
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "factorize", "--y", ",".join(["6"] * 12))
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["reduced"]


def test_factorize_refuses_integers_beyond_the_string_limit(capsys):
    digits = sys.get_int_max_str_digits()
    a = 10 ** (digits * 7 // 10)  # a and a + 1 are coprime, so the lcm is a (a + 1)
    for y in (f"{a},{a + 1}", "7" * (digits + 700) + ",3"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "factorize", "--y", y)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert f"limited to {digits} digits" in err and len(err) <= 200


def test_constant_without_an_exact_volume_exits_1_at_once(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "constant", "--n", "4", "--mc-samples", "1e7")
    assert time.perf_counter() - start < 1
    assert code == 1 and "exact volume unavailable" in err


def test_exit_code_verification_failure(capsys, monkeypatch):
    def fake_suite(*args, **kwargs):
        log = kwargs.get("log")
        if log:
            log("[FAIL] injected: broken on purpose")
        return [CheckResult("injected", False, "broken on purpose")]

    monkeypatch.setattr(cli.verify, "run_suite", fake_suite)
    code, out, err = run_cli(capsys, "verify", "--suite", "polynomials")
    assert code == 3
    report = json.loads(out)
    assert report["failed"] == 1
    assert "verification failed" in err


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
