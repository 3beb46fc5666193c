"""Self-contained verification suites wiring the module invariants to
independent oracles (the definition-level grids and draws of ``oracles``,
Monte Carlo).  The command-line ``verify`` subcommand dispatches here;
the test suite checks the same invariants, in its own loops, at larger
sizes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from . import constants, counting, factorization, lattice, toric
from .oracles import (brute_congruence, brute_count_points, brute_zero_sum,
                      random_reduced)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


SUITES = ("bijection", "lattice", "methods", "polynomials", "toric",
          "constants", "all")


# ------------------------------- batteries -------------------------------

def _roundtrip_checks(heavy: bool, seed: int) -> Iterator[CheckResult]:
    bound = 12
    bad = 0
    for y in itertools.product(range(1, bound + 1), repeat=3):
        z = factorization.factorize(y)
        if (factorization.compose(z) != y
                or not factorization.is_reduced(z)
                or factorization.tuple_product(z) != math.lcm(*y)):
            bad += 1
    yield CheckResult("factorize roundtrip n=3 exhaustive",
                      bad == 0, f"[1,{bound}]^3, {bad} failures")
    rng = np.random.default_rng(seed)
    trials = 2000 if not heavy else 10000
    bad = 0
    for n in (4, 5):
        for _ in range(trials // 2):
            y = tuple(int(v) for v in rng.integers(1, 51, size=n))
            z = factorization.factorize(y)
            if factorization.compose(z) != y or not factorization.is_reduced(z):
                bad += 1
            if factorization.tuple_product(z) != math.lcm(*y):
                bad += 1
    yield CheckResult("factorize roundtrip n=4,5 randomized",
                      bad == 0, f"{trials} samples, {bad} failures")
    bad = 0
    for n in (3, 4, 5):
        top = 1 << n
        idx = range(1, top)
        for h in idx:
            if factorization.relation(h, h) is not factorization.Dominance.EQUAL:
                bad += 1
        for h in idx:
            for l in idx:
                below = factorization.dominated_by(h, l)
                if below != (set(factorization.members(h, n))
                             <= set(factorization.members(l, n))):
                    bad += 1
                if below and factorization.dominated_by(l, h) and h != l:
                    bad += 1
        if n <= 4:
            for h in idx:
                for l in idx:
                    for k in idx:
                        if (factorization.dominated_by(h, l)
                                and factorization.dominated_by(l, k)
                                and not factorization.dominated_by(h, k)):
                            bad += 1
    yield CheckResult("dominance is a partial order (n <= 5)",
                      bad == 0, f"{bad} axiom failures")


def _lattice_checks(heavy: bool, seed: int) -> Iterator[CheckResult]:
    rng = np.random.default_rng(seed)
    trials = 1000 if heavy else 200
    bad = 0
    for t in range(trials):
        n = 3 if t % 2 == 0 else 4
        z = random_reduced(rng, n, 6)
        X = int(rng.integers(0, 13))
        co = lattice.lattice_coefficients(z)
        if lattice.count_solutions(z, X) != brute_zero_sum(co.d, X):
            bad += 1
        r = int(rng.integers(1, n))
        if lattice.count_congruence(z, r, X) != brute_congruence(
                co.d, co.d_joint(r), r, X):
            bad += 1
    yield CheckResult("lattice counts match brute-force grids",
                      bad == 0, f"{trials} instances, {bad} mismatches")
    ok = (lattice.slab_volume((1, 1), 1) == 3
          and lattice.slab_volume((1, 1), 2) == 4
          and lattice.slab_volume((2, 1), 0) == 0)
    samples = [tuple(int(v) for v in rng.integers(1, 9, size=3)) for _ in range(25)]
    for a in samples:
        total = sum(a)
        if lattice.slab_volume(a, total) != 8:
            ok = False
        prev = Fraction(-1)
        for c in range(total + 2):
            cur = lattice.slab_volume(a, c)
            if cur < prev:
                ok = False
            prev = cur
    yield CheckResult("slab volume: examples, saturation, monotone in the bound",
                      ok, f"{len(samples)} weight vectors")
    bad = 0
    for z in [(1,) * 7, (1, 1, 2, 1, 3, 5, 1), (1, 1, 1, 3, 1, 1, 2)]:
        co = lattice.lattice_coefficients(z)
        n = 3
        for X in (100, 1000, 10000):
            main = Fraction(2 ** (n - 1))
            for j in range(2, n + 1):
                main *= Fraction(X, co.d_step(j - 1))
            r = 1
            dev = abs(lattice.count_congruence(z, r, X) - main) / X ** (n - r - 1)
            if dev > 4 * (1 << n):
                bad += 1
            dev2 = abs(lattice.count_solutions(z, X)
                       - lattice.solution_main_term(z, X)) / X ** (n - 2)
            if dev2 > 4 * (1 << n):
                bad += 1
    yield CheckResult("congruence and solution counts track their main terms",
                      bad == 0, f"X in {{1e2,1e3,1e4}}, {bad} blowups")


def _method_checks(n: int, B: float | Fraction, shards: int) -> Iterator[CheckResult]:
    reports = {m: counting.count_points(n, B, m, shards=shards)
               for m in counting.METHODS}
    vals = {m: r.count for m, r in reports.items()}
    ok = len(set(vals.values())) == 1
    yield CheckResult(f"three pipelines agree at n={n}, B={float(B):g}",
                      ok, f"{vals}")
    small = counting.count_points(3, 1, "direct").count
    oracle = brute_count_points(3, 1)
    yield CheckResult("N(1) matches the brute-force oracle",
                      small == oracle == 28, f"pipeline {small}, oracle {oracle}")
    if shards > 1:
        single = counting.count_points(n, B, "direct", shards=1).count
        yield CheckResult("shard count does not change the aggregate",
                          single == vals["direct"],
                          f"1 shard {single}, {shards} shards {vals['direct']}")


def _polynomial_checks() -> Iterator[CheckResult]:
    bad = []
    for n in range(1, 8):
        if constants.eulerian_polynomial(n) != constants.excedance_polynomial(n):
            bad.append(n)
    yield CheckResult("recurrence equals excedance enumeration (n <= 7)",
                      not bad, f"failures at {bad}" if bad else "exact match")
    frozen = {3: [1, 4, 1], 4: [1, 11, 11, 1], 5: [1, 26, 66, 26, 1]}
    ok = all(constants.eulerian_polynomial(n) == v for n, v in frozen.items())
    yield CheckResult("frozen coefficient vectors (n = 3, 4, 5)", ok, f"{frozen}")
    bad = []
    for n in range(1, 11):
        p = constants.eulerian_polynomial(n)
        if p != p[::-1] or p[0] != 1:
            bad.append(n)
        if n >= 2 and p[1] != 2 ** n - n - 1:
            bad.append(n)
    yield CheckResult("palindromic with linear coefficient 2^n - n - 1 (n <= 10)",
                      not bad, f"failures at {bad}" if bad else "all hold")
    b = constants.local_factor_from_graph(3)
    expect = [1, 0, -9, 16, -9, 0, 1]
    prod = [0] * 7
    m = [1, -4, 6, -4, 1]
    for i, c in enumerate(m):
        for j, d in enumerate([1, 4, 1]):
            prod[i + j] += c * d
    ok = (b == expect == prod and sum(b) == 0
          and b[2] == -(2 ** 2 * (2 ** 3 + 1)) + 3 ** 3
          and b[2] == -constants.edge_count(3))
    yield CheckResult("graph expansion of the local factor (n = 3)",
                      ok, f"b = {b}")


def _toric_checks(heavy: bool) -> Iterator[CheckResult]:
    cases = [("C", 3, 2), ("C", 3, 3), ("C", 3, 5), ("C", 4, 2), ("B0", 3, 2),
             ("B0", 3, 3), ("X0", 3, 2)]
    if heavy:
        cases += [("C", 3, 7), ("C", 4, 3), ("C", 4, 5), ("C", 4, 7),
                  ("B0", 3, 5), ("X0", 3, 3)]
    bad = []
    for kind, n, p in cases:
        got = toric.enumerate_variety(kind, n, p).count
        poly = constants.excedance_polynomial(n)
        base = sum(c * p ** k for k, c in enumerate(poly))
        expect = base if kind in ("C", "B0") else base * (p ** n - 1) // (p - 1)
        if got != expect:
            bad.append((kind, n, p, got, expect))
    yield CheckResult("finite-field counts match excedance evaluations",
                      not bad, f"{len(cases)} cases" + (f", failures {bad}" if bad else ""))
    ok = True
    for yb, zb in toric.paired_points(3, 2):
        fib = list(toric.fiber_points(3, 2, yb, zb))
        if len(fib) != 7:
            ok = False
        for xy in fib:
            if not toric.check_point("X0", 3, 2, yb, zb, xy):
                ok = False
    for yb in toric.coxeter_points(3, 3):
        if not toric.check_point("C", 3, 3, yb):
            ok = False
    yield CheckResult("fibers have (p^n-1)/(p-1) points; equations re-audited",
                      ok, "every enumerated point rechecked")


def _constant_checks(heavy: bool, seed: int) -> Iterator[CheckResult]:
    ep2 = constants.euler_product(3, 2)
    ok = abs(ep2.value - 91 / 512) < 1e-13
    dens = constants.local_density(3, 2)
    ok &= dens == Fraction(91, 512)
    vals = [constants.euler_product(3, pl).value for pl in (2, 3, 5, 7, 11, 100)]
    ok &= all(a > b for a, b in zip(vals, vals[1:]))
    yield CheckResult("Euler product: first factor 91/512, strictly decreasing",
                      ok, f"partials {['%.5f' % v for v in vals]}")
    widths = []
    for pl in (10 ** 3, 10 ** 4, 10 ** 5):
        ep = constants.euler_product(3, pl)
        widths.append((ep.upper - ep.lower) / ep.value)
    ok = widths[0] < 1.0 and widths[1] < widths[0] / 5 and widths[2] < widths[1] / 5
    inside = all(constants.euler_product(3, pl).lower
                 <= constants.euler_product(3, 10 ** 6).value
                 <= constants.euler_product(3, pl).upper
                 for pl in (10 ** 3, 10 ** 4))
    yield CheckResult("tail enclosure shrinks like 1/limit and brackets the value",
                      ok and inside, f"relative widths {['%.1e' % w for w in widths]}")
    bad = []
    for n, ps in ((3, (2, 3, 5, 7)), (4, (2, 3, 5, 7))):
        poly = constants.eulerian_polynomial(n)
        for p in ps:
            lhs = Fraction(p) ** (n - 1) * constants.poly_eval(poly, Fraction(1, p))
            rhs = toric.enumerate_variety("C", n, p).count
            if lhs != rhs:
                bad.append((n, p))
    yield CheckResult("p-adic identity p^{n-1} P_n(1/p) = #C(F_p), exact",
                      not bad, f"failures {bad}" if bad else "all in-budget pairs")
    v = constants.polytope_volume(3, "exact")
    samples = 10 ** 7 if heavy else 10 ** 6
    vmc = constants.polytope_volume(3, "mc", samples, seed)
    dev = abs(vmc.value - float(v)) / vmc.standard_error
    yield CheckResult("exact polytope volume within 3 sigma of Monte Carlo",
                      v == Fraction(1, 16) and dev <= 3,
                      f"V = {v}, MC {vmc.value:.6f} ({dev:.2f} sigma)")
    cfg = constants.AssemblyConfig(
        prime_limit=10 ** 6 if heavy else 10 ** 5,
        mu_samples=samples, beta_samples=samples, v_samples=samples, seed=seed)
    br = constants.assemble_constant(3, cfg)
    # the assembly's beta~ (tol 1e-8) and mu_infinity(3, samples, seed)
    bt, mi = br.beta, br.omega_infinity
    target = constants.mu_infinity_scale(3) * bt.value
    sig = abs(mi.value - target) / (constants.mu_infinity_scale(3) * bt.error_bound
                                    + mi.standard_error)
    yield CheckResult("archimedean identity: compact integral vs 72 * beta",
                      sig <= 3, f"MC {mi.value:.4f} vs {target:.4f} ({sig:.2f} sigma)")
    ok = (br.beta_brauer == 1
          and abs(br.alpha - br.V / 243) < 1e-15
          and br.relative_discrepancy < 1e-3
          and br.discrepancy_within_budget)
    yield CheckResult("two assemblies of the constant agree",
                      ok, f"formula {br.c_formula:.6g}, cone-side {br.c_peyre:.6g}, "
                          f"rel {br.relative_discrepancy:.2e}")


def run_suite(suite: str, n: int = 3, B: float | Fraction = 10 ** 4, shards: int = 2,
              seed: int = 0, heavy: bool = False,
              log: Callable[[str], None] | None = None) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    batteries: list[Iterator[CheckResult]] = []
    if suite in ("bijection", "all"):
        batteries.append(_roundtrip_checks(heavy, seed))
    if suite in ("lattice", "all"):
        batteries.append(_lattice_checks(heavy, seed))
    if suite in ("methods", "all"):
        batteries.append(_method_checks(n, B, shards))
    if suite in ("polynomials", "all"):
        batteries.append(_polynomial_checks())
    if suite in ("toric", "all"):
        batteries.append(_toric_checks(heavy))
    if suite in ("constants", "all"):
        batteries.append(_constant_checks(heavy, seed))
    results = []
    for battery in batteries:
        for res in battery:
            results.append(res)
            if log is not None:
                mark = " ok " if res.ok else "FAIL"
                log(f"[{mark}] {res.name}: {res.detail}")
    return results
