"""Definition-level oracles: brute-force counts and random draws written
straight from the definitions (set containment, grid enumeration, direct
evaluation of the defining equation).

The module imports nothing from the package, so an oracle shares no code
path with what it checks.  ``verify`` and the test suite both compare the
package against these functions.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


# ------------------------------ definitions ------------------------------

@functools.cache
def subset_of(h: int, n: int) -> frozenset[int]:
    """The subset of {1, ..., n} whose indicator bits are h; cached, since
    the draws and the reducedness test ask for every pair again."""
    return frozenset(j for j in range(1, n + 1) if (h >> (j - 1)) & 1)


def incomparable(h: int, l: int, n: int) -> bool:
    a, b = subset_of(h, n), subset_of(l, n)
    return not (a <= b or b <= a)


@functools.cache
def _incomparable_to(h: int, n: int) -> tuple[int, ...]:
    """The indices l in [1, 2^n - 1] incomparable to h; cached, since
    every draw and reducedness test asks for them again."""
    return tuple(l for l in range(1, 1 << n) if incomparable(h, l, n))


def reduced_by_definition(z: tuple[int, ...], n: int) -> bool:
    """Entries on incomparable subsets are pairwise coprime."""
    return all(math.gcd(z[h - 1], z[l - 1]) == 1
               for h in range(1, 1 << n) for l in _incomparable_to(h, n) if l > h)


def random_reduced(rng: np.random.Generator, n: int, zmax: int) -> tuple[int, ...]:
    """Uniformly fill indices in random order, restricted at each step to
    values coprime to the product of the already placed incomparable
    entries (1 always qualifies, so the draw never blocks)."""
    top = (1 << n) - 1
    z = [1] * top
    for h in rng.permutation(top) + 1:
        placed = math.prod(z[l - 1] for l in _incomparable_to(h, n))
        pool = [v for v in range(1, zmax + 1) if math.gcd(v, placed) == 1]
        z[h - 1] = int(pool[rng.integers(0, len(pool))])
    assert reduced_by_definition(tuple(z), n)
    return tuple(z)


# --------------------------------- grids ---------------------------------

def brute_zero_sum_boxes(coeffs, limits) -> int:
    """#{w : sum c_i w_i = 0, |w_i| <= L_i} over the whole grid."""
    grids = np.meshgrid(*[np.arange(-L, L + 1) for L in limits],
                        indexing="ij", sparse=True)
    total = sum(c * g for c, g in zip(coeffs, grids))
    return int(np.sum(total == 0))


def brute_zero_sum(d: tuple[int, ...], X: int) -> int:
    return brute_zero_sum_boxes(d, [X] * len(d))


def brute_congruence(d: tuple[int, ...], q: int, r: int, X: int) -> int:
    """#{alpha in [-X, X]^{n-r} : sum_{i>r} d_i alpha_i == 0 mod q}."""
    rest = d[r:]
    grids = np.meshgrid(*[np.arange(-X, X + 1)] * len(rest), indexing="ij", sparse=True)
    total = sum(c * g for c, g in zip(rest, grids))
    return int((total % q == 0).sum())


# --------------------------------- points ---------------------------------

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


def brute_count_points(n: int, B: float) -> int:
    """N(B) by full enumeration of representatives; feasible only for tiny B."""
    if B < 1:
        return 0
    X = 0
    while (X + 1) ** n <= math.floor(B):
        X += 1
    total = sum(1 for _ in solutions_by_grid(n, X))
    return (1 << (n - 1)) * total
