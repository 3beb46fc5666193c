"""Divisor coefficients of a reduced tuple, exact slab volumes, and exact
counts of bounded solutions of the associated linear equation.

For a reduced tuple (z_h) with composed coordinates y_j, the coefficient
d_i = prod_h z_h^{1 - bit_i(h)} satisfies d_i * y_i = prod_h z_h, and the
ambient equation becomes sum_i d_i alpha_i = 0.  This module counts

    A(X)   = #{alpha in Z^n : |alpha_i| <= X, sum d_i alpha_i = 0}
    A_r(X) = #{(alpha_{r+1},...,alpha_n) : |alpha_i| <= X,
               sum_{i>r} d_i alpha_i == 0  mod  joint(r)}

exactly, and evaluates the continuous main term X^{n-1} b / d_1 where b
is the volume of the slab {alpha in [-1,1]^{n-1} : |sum_{i>=2} d_i
alpha_i| <= d_1}.  Every count comes down to ``count_zero_sum_boxes``,
the count of one box #{w : sum c_i w_i = 0, |w_i| <= L_i}; A_r(X)
becomes one by an extra coordinate for the multiple of joint(r).  Three
coordinates close in closed form, two by a progression count and the
third by floor sums (``_floor_sum``), so a count takes O(X^{n-3} log X)
Python-int steps and a box with three active coordinates needs no
enumeration at all.  While int64 suffices, boxes with four or more
active coordinates instead enumerate all but their two largest
coordinates in numpy, in chunks of at most ``_CHUNK`` cells.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ContractViolation
from .factorization import bit, dimension_of, is_reduced

# numpy paths stay in int64; anything bigger falls back to exact Python ints
_VEC_LIMIT = 1 << 60


# ----------------------------- coefficients -----------------------------

@dataclass(frozen=True)
class LatticeCoefficients:
    """All divisor products attached to a reduced tuple.

    d[i-1]      product of z_h over subsets h NOT containing i
    joint[r-1]  product over h avoiding all of 1..r         (r = 1..n)
    step[m-1]   product over h avoiding 1..m, containing m+1 (m = 1..n-1)
    """

    n: int
    d: tuple[int, ...]
    joint: tuple[int, ...]
    step: tuple[int, ...]

    def d_joint(self, r: int) -> int:
        return self.joint[r - 1]

    def d_step(self, m: int) -> int:
        return self.step[m - 1]


def lattice_coefficients(z: Sequence[int]) -> LatticeCoefficients:
    n = dimension_of(z)
    top = 1 << n
    d = [1] * n
    joint = [1] * n
    step = [1] * (n - 1)
    for h in range(1, top):
        v = z[h - 1]
        if v == 1:
            continue
        low = (h & -h).bit_length()  # smallest member of h
        for i in range(1, n + 1):
            if not bit(h, i):
                d[i - 1] *= v
        for r in range(1, n + 1):
            if (h & ((1 << r) - 1)) == 0:
                joint[r - 1] *= v
        if low > 1:
            step[low - 2] *= v  # avoids 1..low-1, contains low
    return LatticeCoefficients(n, tuple(d), tuple(joint), tuple(step))


# ----------------------------- slab volumes -----------------------------

def _box_cdf(weights: Sequence[Fraction], t: Fraction) -> Fraction:
    """vol{b in [0,1]^m : sum a_i b_i <= t} by inclusion-exclusion over
    corner shifts with positive-part powers."""
    m = len(weights)
    total = sum(weights)
    if t <= 0:
        return Fraction(0)
    if t >= total:
        return Fraction(1)
    acc = Fraction(0)
    for mask in range(1 << m):
        s = t
        sign = 1
        for i in range(m):
            if (mask >> i) & 1:
                s -= weights[i]
                sign = -sign
        if s > 0:
            acc += sign * s ** m
    return acc / (math.factorial(m) * math.prod(weights))


def slab_volume(weights: Sequence[int | Fraction], bound: int | Fraction) -> Fraction:
    """Exact volume of {alpha in [-1,1]^m : |sum a_i alpha_i| <= c}.

    Weights must be positive; the bound nonnegative.  After the affine
    change alpha = 2 beta - 1 this is 2^m (F(t+) - F(t-)) with t± =
    (sum a_i ± c)/2 and F the box cdf above.
    """
    m = len(weights)
    if m < 1:
        raise ContractViolation("need at least one weight")
    w = [Fraction(a) for a in weights]
    c = Fraction(bound)
    if any(a <= 0 for a in w):
        raise ContractViolation("weights must be positive")
    if c < 0:
        raise ContractViolation("bound must be nonnegative")
    total = sum(w)
    if c >= total:
        return Fraction(2) ** m
    t_hi = (total + c) / 2
    t_lo = (total - c) / 2
    return (Fraction(2) ** m) * (_box_cdf(w, t_hi) - _box_cdf(w, t_lo))


def tuple_slab_volume(z: Sequence[int]) -> Fraction:
    """b-volume of a reduced tuple: slab with weights (d_2..d_n), bound d_1."""
    if not is_reduced(z):
        raise ContractViolation("tuple is not reduced")
    co = lattice_coefficients(z)
    return slab_volume(co.d[1:], co.d[0])


def solution_main_term(z: Sequence[int], X: int) -> Fraction:
    """Continuous main term X^{n-1} b / d_1 of the bounded solution count."""
    if X < 1:
        raise ContractViolation("X must be >= 1")
    n = dimension_of(z)
    co = lattice_coefficients(z)
    return Fraction(X) ** (n - 1) * tuple_slab_volume(z) / co.d[0]


# --------------------------- progression counts ---------------------------

def _progression_count(a0: int, M: int, lo: int, hi: int) -> int:
    """#{u in [lo, hi] : u == a0 (mod M)}, M >= 1."""
    if hi < lo:
        return 0
    return (hi - a0) // M - (lo - a0 - 1) // M


def _pair_count_scalar(a: int, La: int, b: int, Lb: int, s: int) -> int:
    """#{(u, v) : a u + b v = s, |u| <= La, |v| <= Lb} with a, b >= 1."""
    g = math.gcd(a, b)
    if s % g:
        return 0
    a_, b_, s_ = a // g, b // g, s // g
    u0 = (s_ % b_) * pow(a_ % b_, -1, b_) % b_ if b_ > 1 else 0
    lo = max(-La, -((b * Lb - s) // a))
    hi = min(La, (s + b * Lb) // a)
    return _progression_count(u0, b_, lo, hi)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a i + b) / m) for n >= 0, m >= 1 and any
    integers a, b: the ``floor_sum`` of the AtCoder Library, in O(log m)
    Euclid-like steps.  The first step moves the integer parts of a/m and
    b/m out of the sum, which also makes a negative a or b nonnegative."""
    total = 0
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += n * (n - 1) // 2 * qa + n * qb
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _line_sum(t0: int, t1: int, A: int, B: int, M: int) -> int:
    """sum_{t=t0}^{t1} floor((A t + B) / M), 0 when t1 < t0."""
    return _floor_sum(t1 - t0 + 1, M, A, A * t0 + B) if t1 >= t0 else 0


def _triple_count(a: int, La: int, b: int, Lb: int, c: int, Lc: int, s: int) -> int:
    """#{(u, v, w) : a u + b v + c w = s, |u| <= La, |v| <= Lb, |w| <= Lc}
    with a, b, c >= 1, in O(log) steps and no enumeration.

    The pair count of (u, v) for one w needs g = gcd(a, b) to divide
    s - c w, so w = w0 + g' t with g' = g / gcd(g, c).  Along t the
    residue of u is sigma + alpha t modulo b/g, and any representative
    works in floor((hi - u0)/(b/g)) - floor((lo - 1 - u0)/(b/g)), so the
    modular reduction drops out.  On the t where some (u, v) fits at
    all, |s - c w| <= a La + b Lb, the bound hi is La up to one t and
    floor((s - c w + b Lb)/a) after it, lo is ceil((s - c w - b Lb)/a)
    up to one t and -La after it, and the nested floors merge
    (floor(floor(p/a)/m) = floor(p/(a m))).  That leaves four floor sums
    over t-intervals.
    """
    g = math.gcd(a, b)
    g1 = math.gcd(g, c)
    if s % g1:
        return 0
    gp, cq, bq = g // g1, c // g1, b // g
    w0 = s // g1 % gp * pow(cq % gp, -1, gp) % gp
    E = s - c * w0  # s - c w = E - D t, and g divides E
    D = c * gp
    inv = pow(a // g % bq, -1, bq)
    sigma = E // g % bq * inv % bq
    alpha = -cq * inv % bq
    R = a * La + b * Lb
    w_lo = max(-Lc, -((R - s) // c))
    w_hi = min(Lc, (s + R) // c)
    t0 = -((w0 - w_lo) // gp)
    t1 = (w_hi - w0) // gp
    T_hi = (E + b * Lb - a * La) // D  # hi = La exactly for t <= T_hi
    T_lo = -((b * Lb - a * La - E) // D)  # lo = -La exactly for t >= T_lo
    slope = -(D + a * alpha)
    M = a * bq
    return (_line_sum(t0, min(t1, T_hi), -alpha, La - sigma, bq)
            + _line_sum(max(t0, T_hi + 1), t1, slope, E + b * Lb - a * sigma, M)
            - _line_sum(t0, min(t1, T_lo - 1), slope, E - b * Lb - 1 - a * sigma, M)
            - _line_sum(max(t0, T_lo), t1, -alpha, -La - 1 - sigma, bq))


def _pair_count_vec(a: int, La: int, b: int, Lb: int, s: np.ndarray) -> np.ndarray:
    """``_pair_count_scalar`` over an int64 array of targets s.  The inverse
    of a/g modulo b/g is 0 when b/g = 1, where every residue is 0."""
    g = math.gcd(a, b)
    bq = b // g
    inv = pow(a // g % bq, -1, bq)
    ok = s % g == 0
    u0 = (np.where(ok, s, 0) // g % bq) * inv % bq
    lo = np.maximum(-La, -((b * Lb - s) // a))
    hi = np.minimum(La, (s + b * Lb) // a)
    cnt = (hi - u0) // bq - (lo - u0 - 1) // bq
    return np.where(ok & (hi >= lo), cnt, 0)


_CHUNK = 1 << 22  # flattened outer-grid cells per vectorized batch


def _outer_sum_chunks(outer: list[tuple[int, int]], base: int) -> "Iterator[np.ndarray]":
    """Flattened arrays of base - sum(c_i w_i) over the outer grid, peeled
    one coordinate at a time while the grid exceeds the chunk cap."""
    size = math.prod(2 * L + 1 for L, _ in outer)
    if size <= _CHUNK:
        s = np.full(1, base, dtype=np.int64)
        for L, c in outer:
            w = np.arange(-L, L + 1, dtype=np.int64) * (-c)
            s = (s[:, None] + w[None, :]).ravel()
        yield s
        return
    (L, c), rest = outer[0], outer[1:]
    for w in range(-L, L + 1):
        yield from _outer_sum_chunks(rest, base - c * w)


def _active_pairs(coeffs: Sequence[int], limits: Sequence[int]) -> list[tuple[int, int]]:
    """Validated (L, c) pairs with L > 0, sorted so the two largest boxes
    come last."""
    if len(coeffs) != len(limits):
        raise ContractViolation("coefficient/limit length mismatch")
    if len(coeffs) and (min(coeffs) < 1 or min(limits) < 0):
        raise ContractViolation("coefficients must be >= 1 and limits >= 0")
    pairs = sorted(zip(limits, coeffs))
    return pairs[bisect.bisect_left(pairs, (1,)):]


def _fits_int64(active: list[tuple[int, int]]) -> bool:
    """Whether every intermediate of the numpy path stays below _VEC_LIMIT."""
    (_, b), (_, a) = active[-2:]
    return (sum(itertools.starmap(operator.mul, active)) < _VEC_LIMIT
            and max(a, b) ** 2 < _VEC_LIMIT)


def _exact_count(active: list[tuple[int, int]]) -> int:
    """The zero-sum count of validated (L, c) pairs (see ``_active_pairs``)
    with exact Python integers: the three largest boxes close in
    ``_triple_count`` (two in the pair count when only two are active)
    and the others are enumerated one cell at a time."""
    if len(active) <= 1:
        return 1  # only the zero vector
    if len(active) == 2:
        (Lb, b), (La, a) = active
        return _pair_count_scalar(a, La, b, Lb, 0)
    (Lc, c), (Lb, b), (La, a) = active[-3:]
    outer = active[:-3]
    if not outer:  # every n = 3 box: skip the product's per-call set-up
        return _triple_count(a, La, b, Lb, c, Lc, 0)
    total = 0
    for combo in itertools.product(*(range(-L, L + 1) for L, _ in outer)):
        s = -sum(cw * w for (_, cw), w in zip(outer, combo))
        total += _triple_count(a, La, b, Lb, c, Lc, s)
    return total


def count_zero_sum_boxes(coeffs: Sequence[int], limits: Sequence[int]) -> int:
    """#{w in Z^m : sum c_i w_i = 0, |w_i| <= L_i} for positive coefficients.

    A box with at most three active coordinates (L_i > 0) is counted in
    closed form.  Otherwise the two coordinates with the largest boxes
    are closed in one progression count and the others are enumerated in
    numpy (in bounded-memory chunks); when int64 could overflow, the
    three largest close in closed form and the others are enumerated
    with exact Python integers.
    """
    active = _active_pairs(coeffs, limits)
    if len(active) <= 3 or not _fits_int64(active):
        return _exact_count(active)
    (Lb, b), (La, a) = active[-2:]
    return sum(int(_pair_count_vec(a, La, b, Lb, s).sum())
               for s in _outer_sum_chunks(active[:-2], 0))


def count_zero_sum(d: Sequence[int], X: int) -> int:
    """#{alpha in Z^n : |alpha_i| <= X, sum d_i alpha_i = 0}."""
    if X < 0:
        raise ContractViolation("X must be >= 0")
    return count_zero_sum_boxes(d, [X] * len(d))


def count_solutions(z: Sequence[int], X: int) -> int:
    """Exact cardinality of the bounded solution set A(X) of a reduced tuple."""
    co = lattice_coefficients(z)
    return count_zero_sum(co.d, X)


def count_congruence(z: Sequence[int], r: int, X: int) -> int:
    """Exact cardinality of A_r(X): tuples (alpha_{r+1},...,alpha_n) in
    [-X, X]^{n-r} with sum_{i>r} d_i alpha_i == 0 mod q = joint(r).

    The congruence holds exactly when sum_{i>r} d_i alpha_i + q t = 0 for
    some integer t, which is unique and satisfies |t| <= sum_{i>r} d_i X / q,
    so A_r(X) is one zero-sum box count with t as an extra coordinate.
    """
    n = dimension_of(z)
    if not 1 <= r <= n - 1:
        raise ContractViolation(f"r must lie in [1, {n - 1}]")
    if X < 0:
        raise ContractViolation("X must be >= 0")
    co = lattice_coefficients(z)
    q = co.d_joint(r)
    rest = co.d[r:]
    return count_zero_sum_boxes(rest + (q,), [X] * len(rest) + [sum(rest) * X // q])
