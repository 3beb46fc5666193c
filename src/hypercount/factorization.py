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

and then prod_h z_h = lcm(y_1, ..., y_n).  ``factorize`` builds the
z-tuple by descending subset size via iterated gcds; ``compose``
inverts it.  Tuples of n >= 13 coordinates are refused with
``ResourceLimit``.

Tuples are stored densely: index 0 of the array holds z_1.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from .errors import ContractViolation, ResourceLimit


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


def _refuse_wide(n: int) -> None:
    """Refuse n >= 13 coordinates before any work: ``factorize`` emits
    all 2^n - 1 entries of the tuple, so its time and its report double
    with each further coordinate (4,095 entries at n = 12)."""
    if n >= 13:
        raise ResourceLimit(f"{n} coordinates exceed the supported n <= 12")


def is_reduced(z: Sequence[int]) -> bool:
    """True when gcd(z_h, z_l) = 1 for every incomparable pair (h, l).

    The tuple must have length 2^n - 1 with entries >= 1.  An entry 1 is
    coprime to everything, so only pairs of entries > 1 take a gcd.
    """
    n = dimension_of(z)
    _refuse_wide(n)
    if min(z) < 1:
        raise ContractViolation("entries must be positive integers")
    big = [(h, v) for h, v in enumerate(z, start=1) if v > 1]
    return all(math.gcd(v, w) == 1
               for i, (h, v) in enumerate(big) for l, w in big[i + 1:]
               if (h & l) not in (h, l))


@lru_cache(maxsize=None)
def _weight_levels(n: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """Pairs (h, members of h) grouped by subset size, sizes n, n-1, ..., 1;
    ascending h inside."""
    top = 1 << n
    return tuple(tuple((h, members(h, n)) for h in range(1, top) if weight(h) == k)
                 for k in range(n, 0, -1))


def factorize(y: Sequence[int]) -> tuple[int, ...]:
    """Unique reduced tuple (z_h) with y_j = prod_h z_h^{bit_j(h)}.

    Follows the descending-size construction: z for the full set is
    gcd(y_1, ..., y_n); at size k each z_h is the gcd over members j of h
    of y_j divided by the product of the already assigned z_l with l
    containing j; singletons absorb the remaining cofactor exactly.
    """
    n = len(y)
    if n < 2:
        raise ContractViolation("need at least two coordinates")
    if any(v < 1 for v in y):
        raise ContractViolation("coordinates must be positive integers")
    _refuse_wide(n)
    z = [1] * ((1 << n) - 1)
    assigned = [1] * (n + 1)  # assigned[j] = prod of z_l over assigned l containing j
    for level in _weight_levels(n):
        for h, mem in level:
            g = 0
            for j in mem:
                q, r = divmod(y[j - 1], assigned[j])
                if r:
                    raise ContractViolation("inputs do not factor; nonintegral quotient")
                g = math.gcd(g, q)
                if g == 1:
                    break
            z[h - 1] = g
        for h, mem in level:
            if z[h - 1] > 1:
                for j in mem:
                    assigned[j] *= z[h - 1]
    return tuple(z)


def compose(z: Sequence[int]) -> tuple[int, ...]:
    """Inverse of ``factorize``: y_j = prod_h z_h^{bit_j(h)} for a reduced z."""
    n = dimension_of(z)
    if not is_reduced(z):
        raise ContractViolation("tuple is not reduced")
    y = [1] * n
    for level in _weight_levels(n):
        for h, mem in level:
            v = z[h - 1]
            if v > 1:
                for j in mem:
                    y[j - 1] *= v
    return tuple(y)


def tuple_product(z: Sequence[int]) -> int:
    """prod_h z_h; equals lcm(y) for the tuple produced by ``factorize``."""
    return math.prod(z)
