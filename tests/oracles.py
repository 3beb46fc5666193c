"""Test-only oracles: Monte Carlo slab volumes, the exact inner volume of
the beta~ integrand, dilation counting, the series form of the Eulerian
polynomials, the maximal-chain form of reducedness, a plain sieve of
Eratosthenes and a zero-sum count in exact integers.

Like ``hypercount.oracles``, which holds the oracles that ``verify``
shares with the tests, everything here is written directly from the
definitions and avoids the package's float code paths; the one package
call is the exact ``Fraction`` slab volume.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from hypercount.lattice import slab_volume


def mc_slab(weights, bound, samples=200_000, seed=7) -> tuple[float, float]:
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-1.0, 1.0, size=(samples, len(weights)))
    vals = (np.abs(alpha @ np.asarray(weights, dtype=float)) <= bound)
    scale = 2.0 ** len(weights)
    return scale * vals.mean(), scale * vals.std() / math.sqrt(samples)


def beta_inner_volume(n: int, u) -> float:
    """Exact slab volume with weights (u_1, u_1 u_2, ..., u_1 ... u_{n-1})
    and bound 1 at one outer point u: one row of the beta~ integrand."""
    assert len(u) == n - 1
    weights = list(itertools.accumulate(u, lambda a, b: a * b))
    # a zero weight leaves its coordinate free, a factor 2 of the volume
    nonzero = [abs(Fraction(w)) for w in weights if w != 0]
    free = 2 ** (len(weights) - len(nonzero))
    return float(free * slab_volume(nonzero, 1)) if nonzero else float(free)


def dilation_volume_n3() -> Fraction:
    """Leading coefficient of the dilation point count of the n=3
    polytope, fitted exactly on multiples of 6 and verified at two more."""
    def count(m: int) -> int:
        r = np.arange(m + 1)
        t2, t4, t5, t6 = np.meshgrid(r, r, r, r, indexing="ij", sparse=True)
        ok = (t2 <= t4 + t5) & (t4 + t5 + t6 <= m) & (t5 <= t2 + t6)
        return int(ok.sum())

    ms = [6, 12, 18, 24, 30]
    rows = [[Fraction(m) ** k for k in range(5)] for m in ms]
    rhs = [Fraction(count(m)) for m in ms]
    system = [row + [b] for row, b in zip(rows, rhs)]
    for i in range(5):
        piv = next(r for r in range(i, 5) if system[r][i] != 0)
        system[i], system[piv] = system[piv], system[i]
        for r in range(5):
            if r != i and system[r][i] != 0:
                f = system[r][i] / system[i][i]
                system[r] = [a - f * b for a, b in zip(system[r], system[i])]
    coeffs = [system[i][5] / system[i][i] for i in range(5)]
    for m in (36, 42):
        fitted = sum(coeffs[k] * Fraction(m) ** k for k in range(5))
        assert fitted == count(m), "dilation count is not polynomial on 6Z"
    return coeffs[4]


def eulerian_by_series(n: int) -> list[int]:
    """Coefficients of (1 - X)^{n+1} sum_{k>=0} (k+1)^n X^k, truncated at
    degree n - 1 (all higher coefficients vanish)."""
    terms = n + 2
    series = [(k + 1) ** n for k in range(terms)]
    poly = [1]
    for _ in range(n + 1):
        poly = [a - b for a, b in zip(poly + [0], [0] + poly)]
    out = [0] * terms
    for i, c in enumerate(poly):
        for j, s in enumerate(series):
            if i + j < terms:
                out[i + j] += c * s
    assert all(v == 0 for v in out[n:]), "closed form must truncate"
    return out[:n]


def coprimality_condition(z) -> bool:
    """gcd over all n! maximal chains of the off-chain products equals 1.

    A maximal chain is 2^{j1-1} < 2^{j1-1}+2^{j2-1} < ... < 2^n - 1 for a
    permutation (j1, ..., jn) of {1, ..., n}, len(z) = 2^n - 1; the
    condition is equivalent to reducedness.
    """
    n = (len(z) + 1).bit_length() - 1
    g = 0
    for perm in itertools.permutations(range(1, n + 1)):
        chain = set(itertools.accumulate(1 << (j - 1) for j in perm))
        g = math.gcd(g, math.prod(v for h, v in enumerate(z, start=1) if h not in chain))
        if g == 1:
            return True
    return False


def primes_by_sieve(limit: int) -> list[int]:
    """The primes up to ``limit``: a sieve of Eratosthenes over one
    bytearray holding every number in [0, limit]."""
    flags = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p, flag in enumerate(flags) if flag]


def zero_sum_by_divisibility(coeffs, limits) -> int:
    """#{w : sum c_i w_i = 0, |w_i| <= L_i} in exact integers of any size:
    the sums s of every coordinate but the last are enumerated with their
    multiplicities, and the last coordinate, which must be -s / c for the
    last coefficient c, is tested by divisibility and against its limit."""
    *outer, (c, L) = zip(coeffs, limits)
    sums = Counter({0: 1})
    for ci, Li in outer:
        grown = Counter()
        for s, k in sums.items():
            for w in range(-Li, Li + 1):
                grown[s + ci * w] += k
        sums = grown
    return sum(k for s, k in sums.items() if s % c == 0 and abs(s // c) <= L)
