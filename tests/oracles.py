"""Independent brute-force oracles used by the tests.

Everything here is written directly from the definitions (set
containment, grid enumeration, dilation counting), deliberately avoiding
the package's own code paths.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def subset_of(h: int, n: int) -> frozenset[int]:
    return frozenset(j for j in range(1, n + 1) if (h >> (j - 1)) & 1)


def incomparable(h: int, l: int, n: int) -> bool:
    a, b = subset_of(h, n), subset_of(l, n)
    return not (a <= b or b <= a)


def reduced_by_definition(z: tuple[int, ...], n: int) -> bool:
    top = 1 << n
    return all(math.gcd(z[h - 1], z[l - 1]) == 1
               for h in range(1, top) for l in range(h + 1, top)
               if incomparable(h, l, n))


def grid_zero_sum_boxes(coeffs, limits) -> int:
    grids = np.meshgrid(*[np.arange(-L, L + 1) for L in limits],
                        indexing="ij", sparse=True)
    total = sum(c * g for c, g in zip(coeffs, grids))
    return int(np.sum(total == 0))


def grid_zero_sum(d: tuple[int, ...], X: int) -> int:
    return grid_zero_sum_boxes(d, [X] * len(d))


def grid_congruence(d: tuple[int, ...], q: int, r: int, X: int) -> int:
    rest = d[r:]
    grids = np.meshgrid(*[np.arange(-X, X + 1)] * len(rest), indexing="ij", sparse=True)
    total = sum(c * g for c, g in zip(rest, grids))
    return int((total % q == 0).sum())


def mc_slab(weights, bound, samples=200_000, seed=7) -> tuple[float, float]:
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-1.0, 1.0, size=(samples, len(weights)))
    vals = (np.abs(alpha @ np.asarray(weights, dtype=float)) <= bound)
    scale = 2.0 ** len(weights)
    return scale * vals.mean(), scale * vals.std() / math.sqrt(samples)


def solutions_by_grid(n: int, X: int):
    """All primitive integer solutions (x, y) with 1 <= y_i <= X and
    |x_i| <= X, found by direct evaluation of the defining equation."""
    rng = np.arange(-X, X + 1)
    xs = np.stack(np.meshgrid(*[rng] * n, indexing="ij"), axis=-1).reshape(-1, n)
    for y in itertools.product(range(1, X + 1), repeat=n):
        cof = np.array([math.prod(y[j] for j in range(n) if j != i)
                        for i in range(n)], dtype=np.int64)
        hits = xs[(xs @ cof) == 0]
        for x in hits:
            vals = [int(v) for v in x] + list(y)
            if math.gcd(*vals) == 1:
                yield tuple(int(v) for v in x), y


def count_points_by_grid(n: int, B: float) -> int:
    if B < 1:
        return 0
    X = 0
    while (X + 1) ** n <= math.floor(B):
        X += 1
    total = sum(1 for _ in solutions_by_grid(n, X))
    return (1 << (n - 1)) * total


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
