"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line with its measured quantities.  Run with ``pytest -s`` to see the
lines as they happen.

The headline growth rate itself converges only logarithmically, so the
gate checks exact combinatorial values, cross-pipeline identities, and
statistical agreement at pinned tolerances instead of limits.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hypercount import verify
from hypercount.constants import (AssemblyConfig, assemble_constant,
                                  beta_tilde, mu_infinity)
from hypercount.counting import count_points
from hypercount.oracles import brute_count_points
from hypercount.toric import enumerate_variety


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def method_counts():
    """Counts for criterion 7 (and reused by criterion 10)."""
    out: dict[tuple[int, float], dict[str, int]] = {}
    t0 = time.perf_counter()
    for n, bounds in ((3, (1, 10, 10 ** 2, 10 ** 3, 10 ** 4, 10 ** 6)),
                      (4, (1, 16, 10 ** 3, 160000))):
        for B in bounds:
            out[(n, float(B))] = {m: count_points(n, B, m).count
                                  for m in ("direct", "moebius", "torsor")}
    out["seconds"] = time.perf_counter() - t0
    # extra direct-only point for the trend report
    out[(3, 10 ** 5.0)] = {"direct": count_points(3, 10 ** 5, "direct").count}
    return out


@pytest.fixture(scope="module")
def breakdown():
    cfg = AssemblyConfig(prime_limit=10 ** 6, v_method="exact", beta_tol=1e-8,
                         mu_samples=10 ** 7, seed=0)
    t0 = time.perf_counter()
    br = assemble_constant(3, cfg)
    return br, time.perf_counter() - t0


def test_criterion_1_factorization_bijection():
    t0 = time.perf_counter()
    # round trips to a reduced tuple with the lcm identity
    checks = [verify.check_roundtrip_exhaustive(30),
              verify.check_roundtrip_random(np.random.default_rng(0), 10000, ymax=199)]
    dt = time.perf_counter() - t0
    _report(1, all(c.ok for c in checks) and dt < 10,
            f"{'; '.join(c.detail for c in checks)}, {dt:.1f} s (< 10 s)")


def test_criterion_2_lattice_oracle_equivalence():
    t0 = time.perf_counter()
    res = verify.check_lattice_grids(np.random.default_rng(1), 1000)
    dt = time.perf_counter() - t0
    _report(2, res.ok and dt < 30,
            f"{res.detail} (n in {{3,4}}, z <= 6, X <= 12), {dt:.1f} s (< 30 s)")


def test_criterion_3_eulerian_equals_excedance():
    t0 = time.perf_counter()
    checks = [verify.check_eulerian_recurrence(), verify.check_frozen_eulerian()]
    dt = time.perf_counter() - t0
    _report(3, all(c.ok for c in checks) and dt < 5,
            f"coefficient-exact for n in [1,7]; P3/P4/P5 frozen, {dt:.2f} s (< 5 s)")


def test_criterion_4_local_factor_graph():
    t0 = time.perf_counter()
    res = verify.check_local_factor_graph()
    dt = time.perf_counter() - t0
    _report(4, res.ok and dt < 1, f"{res.detail}, sum 0, b2 = -9, {dt:.2f} s (< 1 s)")


def test_criterion_5_toric_counts():
    t0 = time.perf_counter()
    cases = {("C", 3, 2): 13, ("C", 3, 3): 22, ("C", 3, 5): 46,
             ("C", 4, 2): 75, ("B0", 3, 2): 13, ("X0", 3, 2): 91}
    got = {key: enumerate_variety(*key).count for key in cases}
    ok = got == cases
    dt = time.perf_counter() - t0
    _report(5, ok and dt < 120, f"{got}, {dt:.1f} s (< 2 min)")


def test_criterion_6_padic_identity():
    res = verify.check_padic_identity(verify.PADIC_PAIRS)
    _report(6, res.ok,
            f"p^(n-1) P_n(1/p) = #C(F_p) exactly for {len(verify.PADIC_PAIRS)} "
            f"in-budget pairs: {res.detail}")


def test_criterion_7_counting_methods_agree(method_counts):
    disagreements = []
    for key, vals in method_counts.items():
        if not isinstance(key, tuple) or len(vals) < 3:
            continue
        if len(set(vals.values())) != 1:
            disagreements.append((key, vals))
    n1 = method_counts[(3, 1.0)]["direct"]
    oracle = brute_count_points(3, 1)
    dt = method_counts["seconds"]
    ok = not disagreements and n1 == oracle == 28 and dt < 300
    detail = (f"10 (n, B) cells, all three pipelines identical; "
              f"N(1) = {n1} = oracle; {dt:.0f} s (< 5 min)")
    if disagreements:
        detail += f"; disagreements: {disagreements}"
    _report(7, ok, detail)


def test_criterion_8_archimedean_identity():
    t0 = time.perf_counter()
    res = verify.check_archimedean_identity(beta_tilde(3, tol=1e-8),
                                            mu_infinity(3, samples=10 ** 7, seed=0))
    dt = time.perf_counter() - t0
    _report(8, res.ok and dt < 120,
            f"compact integral vs 72*beta: {res.detail} (<= 3 combined errors), "
            f"{dt:.1f} s (< 2 min)")


def test_criterion_9_constant_self_consistency(breakdown):
    br, dt = breakdown
    budget = br.c_formula_err + br.c_peyre_err
    gap = abs(br.c_formula - br.c_peyre)
    ok = (br.V_exact == Fraction(1, 16)
          and br.relative_discrepancy <= 1e-3
          and gap <= budget
          and dt < 180)
    _report(9, ok,
            f"c3 formula {br.c_formula:.6g} vs cone-side {br.c_peyre:.6g}, "
            f"relative gap {br.relative_discrepancy:.2e} (<= 1e-3), "
            f"|gap| {gap:.2e} within budget {budget:.2e}, {dt:.0f} s (< 3 min)")


def test_criterion_10_trend_report(method_counts, breakdown):
    br, _ = breakdown
    c3 = br.c_formula
    print("trend report: the leading term converges only logarithmically, so "
          "these ratios drift toward the constant very slowly and carry "
          "large lower-order contributions", flush=True)
    rows = []
    for B in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        vals = method_counts[(3, float(B))]
        N = vals["direct"]
        ratio = N / (B * math.log(B) ** 4)
        rows.append((B, N, ratio))
        print(f"  B = {B:>7}: N = {N:>11}  N/(B log^4 B) = {ratio:.6f}  "
              f"ratio/c3 = {ratio / c3:.2f}", flush=True)
    final = rows[-1][2]
    ok = all(r > 0 and math.isfinite(r) for _, _, r in rows)
    ok &= c3 / 10 <= final <= 10 * c3
    _report(10, ok,
            f"ratio at B=1e6 is {final:.6f}, c3 = {c3:.6f}, "
            f"factor {final / c3:.2f} (within 10x)")
