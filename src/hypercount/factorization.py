"""Subset indices, the bitwise dominance order, and unique factorization
of positive integer tuples into reduced tuples.

An index h in [1, 2^n - 1] encodes the nonempty subset of {1, ..., n}
whose characteristic vector is the binary expansion of h: member j
corresponds to bit j-1.  The dominance order is bitwise: h is below l
when every member of h is a member of l.

A tuple (z_1, ..., z_{2^n - 1}) of positive integers is *reduced* when
gcd(z_h, z_l) = 1 for every incomparable pair (h, l).  Every tuple of n
positive integers (y_1, ..., y_n) factors uniquely as

    y_j = prod_h z_h^{bit_j(h)}     with (z_h) reduced,

and then prod_h z_h = lcm(y_1, ..., y_n).  ``factorize_rows``,
``compose_rows`` and ``reduced_rows`` take one tuple a row, on int64 or
Python ints (see ``_rows``); ``factorize``, ``compose`` and
``is_reduced`` are calls of one row.  Tuples of n >= 13 coordinates are
refused with ``ResourceLimit``.

Tuples are stored densely: index 0 of the array holds z_1.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ContractViolation, ResourceLimit

# gcds of a reducedness test per vectorized step, rows times pairs
_CELLS = 1 << 14

# Python ints in an object array, whatever integer type the entries had
_py_ints = np.frompyfunc(int, 1, 1)


def bit(h: int, j: int) -> int:
    """Binary digit of h selecting member j (1-based)."""
    return (h >> (j - 1)) & 1


def weight(h: int) -> int:
    """Number of members of the subset encoded by h."""
    return bin(h).count("1")


def members(h: int, n: int) -> tuple[int, ...]:
    """The members of h as a sorted tuple of indices in [1, n]."""
    return tuple(j for j in range(1, n + 1) if bit(h, j))


def dominated_by(h: int, l: int) -> bool:
    """True when every binary digit of h is <= the digit of l."""
    return h & l == h


@lru_cache(maxsize=None)
def incomparable_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All unordered incomparable pairs (h, l), h < l, of indices in [1, 2^n - 1]."""
    top = 1 << n
    return tuple((h, l)
                 for h in range(1, top)
                 for l in range(h + 1, top)
                 if (h & l) not in (h, l))


def dimension_of(z: Sequence[int]) -> int:
    """Recover n from a dense tuple of length 2^n - 1."""
    n = (len(z) + 1).bit_length() - 1
    if (1 << n) - 1 != len(z):
        raise ContractViolation(f"tuple length {len(z)} is not of the form 2^n - 1")
    if n < 2:
        raise ContractViolation("tuple encodes a dimension < 2")
    return n


def _int_array(v) -> np.ndarray:
    """v as an int64 array, or as Python ints when some entry passes int64."""
    try:
        return np.asarray(v, dtype=np.int64)
    except OverflowError:
        return _py_ints(np.asarray(v, dtype=object))


def _divmod(x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.divmod, which has no loop for Python ints (object arrays)."""
    return (x // m, x % m) if x.dtype == object else np.divmod(x, m)


def _rows(v, tuples: bool) -> tuple[np.ndarray, int]:
    """v as a 2-D array of z-tuples or of coordinates, and its n: int64
    when each row's product of entries is below 2^62, which bounds every
    entry, quotient, product and lcm the routines form from the row, and
    Python ints otherwise.  Refuses n < 2, entries below 1, then n >= 13."""
    A = _int_array(v)
    if A.ndim != 2:
        raise ContractViolation("need a 2-D array of rows")
    n = dimension_of(A.T) if tuples else A.shape[1]  # len(A.T): the columns
    if n < 2:
        raise ContractViolation("need at least two coordinates")
    if (A < 1).any():
        raise ContractViolation(f"{'entries' if tuples else 'coordinates'} "
                                "must be positive integers")
    if n >= 13:  # factorize emits all 2^n - 1 entries: 4,095 at n = 12
        raise ResourceLimit(f"{n} coordinates exceed the supported n <= 12")
    if A.dtype != object and not (np.prod(A, axis=1, dtype=np.float64) < 2.0 ** 62).all():
        A = _py_ints(A)
    return A, n


@lru_cache(maxsize=None)
def _level_columns(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per subset size k = n, n-1, ..., 1: the z columns h - 1 of the h of
    that size, ascending, their member columns j - 1 (a row per h) and,
    for each j, the places of the h that hold j (C(n-1, k-1) of them);
    flat lists, as numpy's first nested-list array costs 0.14 MB of RSS."""
    levels = [[h for h in range(1, 1 << n) if weight(h) == k] for k in range(n, 0, -1)]
    return tuple((np.array(hs) - 1,
                  np.array([j - 1 for h in hs for j in members(h, n)]).reshape(len(hs), -1),
                  np.array([i for j in range(1, n + 1) for i, h in enumerate(hs)
                            if bit(h, j)]).reshape(n, -1))
                 for hs in levels)


def factorize_rows(y) -> np.ndarray:
    """``factorize`` of every row of a 2-D array of n >= 2 positive
    integers.  Level by level from the full set down, z_h is the gcd
    across the member columns of h of what is left of each y_j, and each
    y_j is then divided by the product of the level's z_h that hold j."""
    rest, n = _rows(y, False)
    Z = np.empty((len(rest), (1 << n) - 1), dtype=rest.dtype)
    for hs, mem, holds in _level_columns(n):
        Z[:, hs] = z = np.gcd.reduce(rest[:, mem], axis=2)
        rest, r = _divmod(rest, np.prod(z[:, holds], axis=2))
        if r.any():
            raise ContractViolation("inputs do not factor; nonintegral quotient")
    return Z


def compose_rows(z) -> np.ndarray:
    """y_j = prod_h z_h^{bit_j(h)} for every row of a 2-D array of dense
    z-tuples, reduced or not."""
    Z, n = _rows(z, True)
    return np.prod(Z[:, np.hstack([hs[holds] for hs, _, holds in _level_columns(n)])], axis=2)


def reduced_rows(z) -> np.ndarray:
    """``is_reduced`` of every row of a 2-D array of dense z-tuples.  Only
    the columns where some entry is > 1 can share a factor: their
    incomparable pairs are gathered about _CELLS at a time, and take their
    gcds on blocks of rows of about _CELLS gcds."""
    Z, _ = _rows(z, True)
    h = np.flatnonzero((Z > 1).any(axis=0)) + 1
    ok = np.ones(len(Z), dtype=bool)
    step = _CELLS // max(len(h), 1) + 1
    for lo in range(0, len(h), step):
        top = h[lo:lo + step, None]
        meet = top & h
        a, b = np.nonzero((meet != top) & (meet != h) & (top < h))
        a, b = h[lo + a] - 1, h[b] - 1
        rows = _CELLS // max(len(a), 1) + 1
        for r in range(0, len(Z), rows):
            ok[r:r + rows] &= (np.gcd(Z[r:r + rows, a], Z[r:r + rows, b]) == 1).all(axis=1)
    return ok


def is_reduced(z: Sequence[int]) -> bool:
    """gcd(z_h, z_l) = 1 for every incomparable pair: one row of ``reduced_rows``."""
    return bool(reduced_rows([z])[0])


def factorize(y: Sequence[int]) -> tuple[int, ...]:
    """The reduced z with y_j = prod_h z_h^{bit_j(h)}: one row of ``factorize_rows``."""
    return tuple(factorize_rows([y])[0].tolist())


def compose(z: Sequence[int]) -> tuple[int, ...]:
    """Inverse of ``factorize`` for a reduced z: one row of ``compose_rows``."""
    if not is_reduced(z):
        raise ContractViolation("tuple is not reduced")
    return tuple(compose_rows([z])[0].tolist())
