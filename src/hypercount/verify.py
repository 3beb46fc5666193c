"""Verification checks wiring the module invariants to independent oracles
(the definition-level grids and draws of ``oracles``, exact closed forms,
Monte Carlo).

Each ``check_*`` function runs one invariant loop at the size and seed it
is given and returns one ``CheckResult``; it is the only copy of that
loop.  The command-line ``verify`` subcommand runs them through
``run_suite`` at its light and ``--heavy`` sizes, and the test suite calls
the same functions at its own sizes and seeds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from . import constants, counting, factorization, lattice, toric
from .oracles import (brute_congruence, brute_count_points, brute_zero_sum,
                      random_reduced, subset_of)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


SUITES = ("bijection", "lattice", "methods", "polynomials", "toric",
          "constants", "all")

TORIC_CASES = [("C", 3, 2), ("C", 3, 3), ("C", 3, 5), ("C", 4, 2),
               ("B0", 3, 2), ("B0", 3, 3), ("X0", 3, 2)]
TORIC_HEAVY_CASES = [("C", 3, 7), ("C", 4, 3), ("C", 4, 5), ("C", 4, 7),
                     ("B0", 3, 5), ("X0", 3, 3)]
PADIC_PAIRS = [(n, p) for n in (3, 4) for p in (2, 3, 5, 7)]


def _variety_count(kind: str, n: int, p: int) -> int:
    return toric.enumerate_variety(kind, n, p).count


def _point_count(n: int, B: float | Fraction, method: str, shards: int) -> int:
    return counting.count_points(n, B, method, shards=shards).count


# ------------------------------- bijection -------------------------------

def _roundtrip_failures(ys: np.ndarray) -> int:
    """Rows y whose z = factorize(y) is not reduced (a gcd per incomparable
    pair), does not compose back to y, or has a product other than lcm(y)."""
    Z = factorization.factorize_rows(ys)
    Y = ys.astype(Z.dtype)  # Python ints where a row's product passes 2^62
    ok = (factorization.reduced_rows(Z) & (factorization.compose_rows(Z) == Y).all(axis=1)
          & (np.prod(Z, axis=1) == np.lcm.reduce(Y, axis=1)))
    return int(len(ok) - ok.sum())


def check_roundtrip_exhaustive(bound: int) -> CheckResult:
    bad = _roundtrip_failures(np.indices((bound,) * 3).reshape(3, -1).T + 1)
    return CheckResult("factorize roundtrip n=3 exhaustive",
                       bad == 0, f"[1,{bound}]^3, {bad} failures")


def check_roundtrip_random(rng: np.random.Generator, trials: int,
                           ymax: int = 50, dims: Sequence[int] = (4, 5)) -> CheckResult:
    """``trials`` tuples with entries in [1, ymax], split evenly over ``dims``."""
    bad = sum(_roundtrip_failures(rng.integers(1, ymax + 1, size=(trials // len(dims), n)))
              for n in dims)
    return CheckResult("factorize roundtrip n=4,5 randomized",
                       bad == 0, f"{trials} samples, {bad} failures")


def check_dominance(dims: Sequence[int] = (3, 4, 5)) -> CheckResult:
    """Bitwise dominance is set containment, hence reflexive, antisymmetric
    and transitive."""
    below = factorization.dominated_by
    bad = 0
    for n in dims:
        idx = range(1, 1 << n)
        sets = {h: subset_of(h, n) for h in idx}
        for h in idx:
            bad += not below(h, h)
            for l in idx:
                if below(h, l) != (sets[h] <= sets[l]):
                    bad += 1
                if not below(h, l):
                    continue
                bad += h != l and below(l, h)
                bad += sum(below(l, k) and not below(h, k) for k in idx)
    return CheckResult("dominance is a partial order (n <= 5)",
                       bad == 0, f"{bad} axiom failures")


# -------------------------------- lattice --------------------------------

def check_lattice_grids(rng: np.random.Generator, trials: int) -> CheckResult:
    """A(X) and A_r(X) of ``trials`` random tuples at n = 3 and 4, every
    box counted in one kernel call (padded to four pairs by inactive
    ones), against the grids."""
    boxes, want = [], []
    for t in range(trials):
        n = 3 if t % 2 == 0 else 4
        z = random_reduced(rng, n, 6)
        X = int(rng.integers(0, 13))
        co = lattice.lattice_coefficients(z)
        r = int(rng.integers(1, n))
        for c, L in ((co.d, (X,) * n), lattice.congruence_box(co, r, X)):
            boxes.append((c + (1,) * (4 - len(c)), L + (0,) * (4 - len(L))))
        want += [brute_zero_sum(co.d, X), brute_congruence(co.d, co.d_joint(r), r, X)]
    got = lattice.count_zero_sum_rows(*zip(*boxes)).tolist()
    bad = sum(g != w for g, w in zip(got, want))
    return CheckResult("lattice counts match brute-force grids",
                       bad == 0, f"{trials} instances, {bad} mismatches")


def check_slab_volume(rng: np.random.Generator, samples: int) -> CheckResult:
    """Examples, then ``samples`` weight vectors of 1 to 4 weights in [1, 8]:
    saturated at the weight sum and monotone in the bound."""
    ok = (lattice.slab_volume((1, 1), 1) == 3
          and lattice.slab_volume((1, 1), 2) == 4
          and lattice.slab_volume((2, 1), 0) == 0)
    for _ in range(samples):
        m = int(rng.integers(1, 5))
        a = tuple(int(v) for v in rng.integers(1, 9, size=m))
        vols = [lattice.slab_volume(a, c) for c in range(sum(a) + 2)]
        ok &= vols[sum(a)] == 2 ** m and all(x <= y for x, y in zip(vols, vols[1:]))
    return CheckResult("slab volume: examples, saturation, monotone in the bound",
                       ok, f"{samples} weight vectors")


def check_main_term_trends() -> CheckResult:
    """At n = 3 the deviation of the congruence counts (r = 1, 2) from
    2^{n-r} prod X/step, over X^{n-r-1}, and of the solution count from its
    main term, over X^{n-2}, stay below 4 * 2^n."""
    n = 3
    bad = 0
    for z in [(1,) * 7, (1, 1, 2, 1, 3, 5, 1), (1, 1, 1, 3, 1, 1, 2)]:
        co = lattice.lattice_coefficients(z)
        for X in (100, 1000, 10000):
            for r in (1, 2):
                main = Fraction(2 ** (n - r))
                for j in range(r + 1, n + 1):
                    main *= Fraction(X, co.d_step(j - 1))
                dev = abs(lattice.count_congruence(z, r, X) - main) / X ** (n - r - 1)
                bad += dev > 4 * (1 << n)
            dev = abs(lattice.count_solutions(z, X)
                      - lattice.solution_main_term(z, X)) / X ** (n - 2)
            bad += dev > 4 * (1 << n)
    return CheckResult("congruence and solution counts track their main terms",
                       bad == 0, f"X in {{1e2,1e3,1e4}}, {bad} blowups")


# -------------------------------- methods --------------------------------

def check_pipelines_agree(n: int, B: float | Fraction, shards: int,
                          count: Callable = _point_count) -> CheckResult:
    vals = {m: count(n, B, m, shards) for m in counting.METHODS}
    return CheckResult(f"three pipelines agree at n={n}, B={float(B):g}",
                       len(set(vals.values())) == 1, f"{vals}")


def check_small_count() -> CheckResult:
    small = counting.count_points(3, 1, "direct").count
    oracle = brute_count_points(3, 1)
    return CheckResult("N(1) matches the brute-force oracle",
                       small == oracle == 28, f"pipeline {small}, oracle {oracle}")


def check_shard_invariance(n: int, B: float | Fraction, shards: int,
                           method: str = "direct",
                           count: Callable = _point_count) -> CheckResult:
    single, sharded = count(n, B, method, 1), count(n, B, method, shards)
    return CheckResult("shard count does not change the aggregate",
                       single == sharded,
                       f"1 shard {single}, {shards} shards {sharded}")


# ------------------------------ polynomials ------------------------------

def check_eulerian_recurrence() -> CheckResult:
    bad = [n for n in range(1, 8)
           if constants.eulerian_polynomial(n) != constants.excedance_polynomial(n)]
    return CheckResult("recurrence equals excedance enumeration (n <= 7)",
                       not bad, f"failures at {bad}" if bad else "exact match")


def check_frozen_eulerian() -> CheckResult:
    frozen = {3: [1, 4, 1], 4: [1, 11, 11, 1], 5: [1, 26, 66, 26, 1]}
    ok = all(constants.eulerian_polynomial(n) == v for n, v in frozen.items())
    return CheckResult("frozen coefficient vectors (n = 3, 4, 5)", ok, f"{frozen}")


def check_eulerian_shape(dims: Sequence[int] = range(1, 11)) -> CheckResult:
    """P_n has n coefficients summing to n!, is palindromic with constant
    term 1, and has linear coefficient 2^n - n - 1."""
    bad = []
    for n in dims:
        p = constants.eulerian_polynomial(n)
        if (p != p[::-1] or p[0] != 1 or len(p) != n
                or sum(p) != math.factorial(n)):
            bad.append(n)
        if n >= 2 and p[1] != 2 ** n - n - 1:
            bad.append(n)
    return CheckResult("palindromic with linear coefficient 2^n - n - 1 (n <= 10)",
                       not bad, f"failures at {bad}" if bad else "all hold")


def check_local_factor_graph() -> CheckResult:
    """b from the incomparability graph equals (1 - X)^4 P_3(X)."""
    b = constants.local_factor_from_graph(3)
    prod = [0] * 7
    for i, c in enumerate([1, -4, 6, -4, 1]):
        for j, d in enumerate(constants.eulerian_polynomial(3)):
            prod[i + j] += c * d
    ok = (b == [1, 0, -9, 16, -9, 0, 1] == prod and sum(b) == 0
          and b[2] == -(2 ** 2 * (2 ** 3 + 1)) + 3 ** 3
          and b[2] == -len(factorization.incomparable_pairs(3)))
    return CheckResult("graph expansion of the local factor (n = 3)",
                       ok, f"b = {b}")


# --------------------------------- toric ---------------------------------

def check_finite_field_counts(cases: Sequence[tuple[str, int, int]],
                              count: Callable = _variety_count) -> CheckResult:
    """#V(F_p) equals the excedance evaluation, times (p^n-1)/(p-1) for X0."""
    bad = []
    for kind, n, p in cases:
        got = count(kind, n, p)
        poly = constants.excedance_polynomial(n)
        base = sum(c * p ** k for k, c in enumerate(poly))
        expect = base if kind in ("C", "B0") else base * (p ** n - 1) // (p - 1)
        if got != expect:
            bad.append((kind, n, p, got, expect))
    return CheckResult("finite-field counts match excedance evaluations",
                       not bad, f"{len(cases)} cases" + (f", failures {bad}" if bad else ""))


def check_fiber_audit(primes: Sequence[int] = (2, 3)) -> CheckResult:
    """At n = 3 every enumerated C, B0 and X0 point passes the defining
    equations, and each fiber has (p^n-1)/(p-1) points."""
    ok = True
    for p in primes:
        ok &= all(toric.check_point("C", 3, p, yb) for yb in toric.coxeter_points(3, p))
        for yb, zb in toric.paired_points(3, p):
            fib = list(toric.fiber_points(3, p, yb, zb))
            ok &= (toric.check_point("B0", 3, p, yb, zb)
                   and len(fib) == (p ** 3 - 1) // (p - 1)
                   and all(toric.check_point("X0", 3, p, yb, zb, xy) for xy in fib))
    return CheckResult("fibers have (p^n-1)/(p-1) points; equations re-audited",
                       ok, "every enumerated point rechecked")


# ------------------------------- constants -------------------------------

def check_euler_partials(limits: Sequence[int] = (2, 3, 5, 7, 11, 100)) -> CheckResult:
    """The first factor is 91/512, exactly and enclosed; the partial
    products over ``limits`` strictly decrease."""
    ep2 = constants.euler_product(3, 2)
    ok = (abs(ep2.value - 91 / 512) < 1e-13 and ep2.lower <= 91 / 512 <= ep2.upper
          and constants.local_density(3, 2) == Fraction(91, 512))
    vals = [constants.euler_product(3, pl).value for pl in limits]
    ok &= all(a > b for a, b in zip(vals, vals[1:]))
    return CheckResult("Euler product: first factor 91/512, strictly decreasing",
                       ok, f"partials {['%.5f' % v for v in vals]}")


def check_tail_enclosure() -> CheckResult:
    """At limits 1e3, 1e4, 1e5 the enclosure strictly contains the value,
    its width falls more than 5x a decade, and it brackets the 1e6 value."""
    eps = [constants.euler_product(3, pl) for pl in (10 ** 3, 10 ** 4, 10 ** 5)]
    best = constants.euler_product(3, 10 ** 6).value
    widths = [(ep.upper - ep.lower) / ep.value for ep in eps]
    ok = widths[0] < 1.0 and all(b < a / 5 for a, b in zip(widths, widths[1:]))
    ok &= all(ep.lower < ep.value < ep.upper and ep.lower <= best <= ep.upper
              for ep in eps)
    return CheckResult("tail enclosure shrinks like 1/limit and brackets the value",
                       ok, f"relative widths {['%.1e' % w for w in widths]}")


def check_padic_identity(pairs: Sequence[tuple[int, int]],
                         count: Callable = _variety_count) -> CheckResult:
    bad = []
    for n, p in pairs:
        poly = constants.eulerian_polynomial(n)
        lhs = Fraction(p) ** (n - 1) * constants.poly_eval(poly, Fraction(1, p))
        if lhs != count("C", n, p):
            bad.append((n, p))
    return CheckResult("p-adic identity p^{n-1} P_n(1/p) = #C(F_p), exact",
                       not bad, f"failures {bad}" if bad else "all in-budget pairs")


def check_polytope_volume(samples: int, seed: int) -> CheckResult:
    v = constants.polytope_volume(3, "exact")
    vmc = constants.polytope_volume(3, "mc", samples, seed)
    dev = abs(vmc.value - float(v)) / vmc.standard_error
    return CheckResult("exact polytope volume within 3 sigma of Monte Carlo",
                       v == Fraction(1, 16) and dev <= 3,
                       f"V = {v}, MC {vmc.value:.6f} ({dev:.2f} sigma)")


def check_archimedean_identity(beta: constants.QuadratureEstimate,
                               mu: constants.MCEstimate) -> CheckResult:
    """The n = 3 compact integral lies within 3 combined errors of 72 beta~."""
    scale = constants.mu_infinity_scale(3)
    target = scale * beta.value
    sig = abs(mu.value - target) / (scale * beta.error_bound + mu.standard_error)
    return CheckResult("archimedean identity: compact integral vs 72 * beta",
                       sig <= 3, f"MC {mu.value:.4f} vs {target:.4f} ({sig:.2f} sigma)")


def check_assemblies_agree(br: constants.ConstantBreakdown) -> CheckResult:
    ok = (br.beta_brauer == 1
          and abs(br.alpha - br.V / 243) < 1e-15
          and br.relative_discrepancy < 1e-3
          and br.discrepancy_within_budget)
    return CheckResult("two assemblies of the constant agree",
                       ok, f"formula {br.c_formula:.6g}, cone-side {br.c_peyre:.6g}, "
                           f"rel {br.relative_discrepancy:.2e}")


# --------------------------------- suites ---------------------------------

def _checks(suite: str, n: int, B: float | Fraction, shards: int, seed: int,
            heavy: bool) -> Iterator[CheckResult]:
    # one memo per run: the toric and p-adic checks share their C(F_p)
    # counts, the pipeline and shard checks their sharded count
    variety_count = functools.cache(_variety_count)
    point_count = functools.cache(_point_count)
    if suite in ("bijection", "all"):
        rng = np.random.default_rng(seed)
        yield check_roundtrip_exhaustive(12)
        yield check_roundtrip_random(rng, 10000 if heavy else 2000)
        yield check_dominance()
    if suite in ("lattice", "all"):
        rng = np.random.default_rng(seed)
        yield check_lattice_grids(rng, 1000 if heavy else 200)
        yield check_slab_volume(rng, 25)
        yield check_main_term_trends()
    if suite in ("methods", "all"):
        yield check_pipelines_agree(n, B, shards, point_count)
        yield check_small_count()
        if shards > 1:
            yield check_shard_invariance(n, B, shards, count=point_count)
    if suite in ("polynomials", "all"):
        yield check_eulerian_recurrence()
        yield check_frozen_eulerian()
        yield check_eulerian_shape()
        yield check_local_factor_graph()
    if suite in ("toric", "all"):
        cases = TORIC_CASES + TORIC_HEAVY_CASES if heavy else TORIC_CASES
        yield check_finite_field_counts(cases, variety_count)
        yield check_fiber_audit()
    if suite in ("constants", "all"):
        samples = 10 ** 7 if heavy else 10 ** 6
        yield check_euler_partials()
        yield check_tail_enclosure()
        yield check_padic_identity(PADIC_PAIRS, variety_count)
        yield check_polytope_volume(samples, seed)
        cfg = constants.AssemblyConfig(
            prime_limit=10 ** 6 if heavy else 10 ** 5,
            mu_samples=samples, beta_samples=samples, v_samples=samples, seed=seed)
        # the assembly's beta~ (tol 1e-8) and mu_infinity(3, samples, seed)
        br = constants.assemble_constant(3, cfg)
        yield check_archimedean_identity(br.beta, br.omega_infinity)
        yield check_assemblies_agree(br)


def run_suite(suite: str, n: int = 3, B: float | Fraction = 10 ** 4, shards: int = 2,
              seed: int = 0, heavy: bool = False,
              log: Callable[[str], None] | None = None) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    results = []
    for res in _checks(suite, n, B, shards, seed, heavy):
        results.append(res)
        if log is not None:
            mark = " ok " if res.ok else "FAIL"
            log(f"[{mark}] {res.name}: {res.detail}")
    return results
