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
alpha_i| <= d_1}.  Every count comes down to the count of boxes
#{w : sum c_i w_i = 0, |w_i| <= L_i}; A_r(X) becomes one by an extra
coordinate for the multiple of joint(r) (``congruence_box``).

``count_zero_sum_rows`` counts many boxes at once, one count per row,
and is the only closed form here.  A box closes a triple in floor sums
(see ``_triple_terms``), so a box with three active coordinates needs
no enumeration at all; it steps one more coordinate through the residue
class that can solve each cell of the others, and takes half of that
grid by symmetry.  Rows inside its int64 guard run on int64 arrays and
the others on arrays of Python ints, through the same steps.
``count_zero_sum_batch`` is the weighted sum of the counts, and
``count_zero_sum_boxes`` a batch of one row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ContractViolation
from .factorization import _divmod, _int_array, _py_ints, compose, dimension_of

# the int64 guard of the batch (see _fits_int64_vec); rows past it run on
# Python ints
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
    big = [(h, v) for h, v in enumerate(z, start=1) if v > 1]
    low = [((h & -h).bit_length(), v) for h, v in big]  # the smallest member of h
    return LatticeCoefficients(
        n, tuple(math.prod(v for h, v in big if not h >> i & 1) for i in range(n)),
        tuple(math.prod(v for m, v in low if m > r) for r in range(1, n + 1)),
        tuple(math.prod(v for m, v in low if m == r + 1) for r in range(1, n)))


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
    for k in range(m + 1):
        for shift in itertools.combinations(weights, k):
            if (s := t - sum(shift)) > 0:
                acc += (-1) ** k * s ** m
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
    return Fraction(2) ** m * (_box_cdf(w, (total + c) / 2) - _box_cdf(w, (total - c) / 2))


def tuple_slab_volume(z: Sequence[int]) -> Fraction:
    """b-volume of a reduced tuple: slab with weights (d_2..d_n), bound d_1."""
    y, total = compose(z), math.prod(z)
    return slab_volume([total // v for v in y[1:]], total // y[0])


def solution_main_term(z: Sequence[int], X: int) -> Fraction:
    """Continuous main term X^{n-1} b / d_1 of the bounded solution count."""
    if X < 1:
        raise ContractViolation("X must be >= 1")
    co = lattice_coefficients(z)
    return Fraction(X) ** (co.n - 1) * tuple_slab_volume(z) / co.d[0]


# Cells of the batch per vectorized step, about 0.4 KB each at the peak
# of the kernel, and rows whose closed-form terms are worked out at a
# time.  Over 30 passes of the three counts at n = 4, B = 1.6e5 in one
# process on a 2-vCPU x86 host, the peak RSS reached 34.2-34.3,
# 33.5-33.8 and 33.6 MB with 2^11, 2^10 and 2^9, and the median pass
# took 0.11-0.16 s with each (three runs of each size).
_CHUNK = 1 << 10


# --------------------------- batched closed form ---------------------------

def _floor_sum_vec(n: np.ndarray, m: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_{i=0}^{n-1} floor((a i + b) / m) for n >= 0, m >= 1 and any
    integers a, b, one sum per row of int64 or Python-int arrays: the
    ``floor_sum`` of the AtCoder Library, in O(log m) Euclid-like steps,
    with each row leaving the loop once it finishes.  The first step
    moves the integer parts of a/m and b/m out of the sum, which also
    makes a negative a or b nonnegative."""
    total = np.zeros_like(n)
    idx = np.arange(len(n))
    while True:
        qa, a = _divmod(a, m)
        qb, b = _divmod(b, m)
        total[idx] += (n * (n - 1) >> 1) * qa + n * qb
        top = a * n + b
        go = top >= m
        idx, m, a, top = idx[go], m[go], a[go], top[go]
        if not len(idx):
            return total
        n, b = _divmod(top, m)
        m, a = a, m


def _inverse_vec(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x^-1 mod m over int64 or Python-int arrays with gcd(x, m) = 1 (0
    where m = 1), by the extended Euclidean algorithm, each row leaving
    once it finishes."""
    out = np.zeros_like(m)
    idx = np.arange(len(m))
    r0, r1 = m, x % m  # invariant: r_i == t_i x (mod m)
    t0, t1 = np.zeros_like(m), np.ones_like(m)
    while len(idx):
        done = r1 == 0  # r0 = gcd = 1
        if done.any():
            out[idx[done]] = t0[done] % m[idx[done]]
            go = ~done
            idx, r0, r1, t0, t1 = idx[go], r0[go], r1[go], t0[go], t1[go]
            continue
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    return out


def _triple_terms(a, La, b, Lb, c, Lc) -> np.ndarray:
    """The terms of the triple count that depend on the box alone, over
    arrays of boxes, as the rows of one array (named in
    ``_triple_line_sums``).

    The triple count #{(u, v, w) : a u + b v + c w = s, |u| <= La,
    |v| <= Lb, |w| <= Lc} with a, b, c >= 1 takes O(log) steps and no
    enumeration.  The pair count of (u, v) for one w needs g = gcd(a, b)
    to divide s - c w, so g1 = gcd(g, c) must divide s, and then
    w = w0 + g' t with g' = g / g1.  Along t the residue of u is
    sigma + alpha t modulo b/g, and any representative u0 works in
    floor((hi - u0)/(b/g)) - floor((lo - 1 - u0)/(b/g)), so the modular
    reduction drops out.  On the t where some (u, v) fits at all,
    |s - c w| <= a La + b Lb, the bound hi is La up to one t and
    floor((s - c w + b Lb)/a) after it, lo is ceil((s - c w - b Lb)/a)
    up to one t and -La after it, and the nested floors merge
    (floor(floor(p/a)/m) = floor(p/(a m))).  That leaves four floor sums
    over t-intervals."""
    g = np.gcd(a, b)
    g1 = np.gcd(g, c)
    gp, cq, bq = g // g1, c // g1, b // g
    inv_c, inv = _inverse_vec(np.concatenate([cq % gp, a // g % bq]),
                              np.concatenate([gp, bq])).reshape(2, -1)
    alpha, D, bL, aL = -(cq % bq) * inv % bq, c * gp, b * Lb, a * La
    return np.array([bq, a * bq, alpha, D, La, bL, aL + bL, bL - aL, -(D + a * alpha), g1,
                     gp, inv_c, c, g, inv, Lc, a])


def _triple_count_vec(T: np.ndarray, row: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The triple count of each cell, from the ``_triple_terms`` T of the
    boxes, the box of each cell and its target s, which gcd(a, b, c) must
    divide; all floor sums run as one call."""
    sums = _floor_sum_vec(*_triple_line_sums(T[:, row], s)).reshape(4, -1)
    return sums[0] + sums[1] - sums[2] - sums[3]


def _triple_line_sums(T: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arguments (n, m, a, b) of the four floor sums of the triple
    count (see ``_triple_terms``), stacked, for cells with box terms T.

    w0 is the class of w mod g' that can solve the pair, s - c w = E - D t
    with D = c g', sigma is the residue of u at t = 0, hi = La exactly
    for t <= T_hi and lo = -La exactly for t >= T_lo.  The w range is
    clipped to [-Lc - 1, Lc + 1] so every t stays small and the split
    points are clipped into [t0 - 1, t1 + 1]; only the stacked arguments
    outlive the call."""
    bq, M, alpha, D, La, bL, R, bLaL, slope, g1, gp, inv_c, c, g, inv, Lc, a = T
    w0 = s // g1 % gp * inv_c % gp
    E = s - c * w0  # s - c w = E - D t, and g divides E
    sigma = E // g % bq * inv % bq
    w_lo = np.minimum(np.maximum(-((R - s) // c), -Lc), Lc + 1)
    w_hi = np.minimum(np.maximum((s + R) // c, -Lc - 1), Lc)
    t0 = -((w0 - w_lo) // gp)
    t1 = (w_hi - w0) // gp
    T_hi = np.minimum(np.maximum((E + bLaL) // D, t0 - 1), t1)
    T_lo = np.minimum(np.maximum(-((bLaL - E) // D), t0), t1 + 1)
    lo = np.concatenate([t0, T_hi + 1, t0, T_lo])
    n = np.maximum(np.concatenate([T_hi, t1, T_lo - 1, t1]) - lo + 1, 0)
    rest = E - a * sigma
    A = np.concatenate([-alpha, slope, slope, -alpha])
    B = A * lo + np.concatenate([La - sigma, rest + bL, rest - bL - 1, -La - 1 - sigma])
    return n, np.concatenate([bq, M, M, bq]), A, B


def _fits_int64_vec(C: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Batch rows (prefix, x, closed triple by limit) whose cells and
    count fit int64.

    Let K be the largest closed coefficient, Lc the smallest closed limit,
    S = sum c_i L_i over the row and G = (K^2 + S + (K + Lc)(Lc + 3))
    (2 Lc + 4).  A product of two closed coefficients is below K^2 and
    |s| <= S; |t| <= Lc + 3, a floor sum has at most 2 Lc + 3 terms, its
    slope over its modulus is at most K + 2 in size and its other
    argument at most 2 (K^2 + S)(Lc + 4) + 1.  Stepping x takes |p|,
    |c_x x| <= S and h <= g1 <= K, so (p/e mod h) times an inverse mod h
    is below K^2.  Every intermediate, the floor sums' totals included,
    stays below about 4 G, and G < 2^60 keeps them below 2^63.  A row
    with a coefficient or limit of 2^28 or more, or over 64 pairs, is
    refused first, so no term of G passes 2^58 in int64.  The count of a
    row is at most the number of cells of all its columns but the last,
    which must stay below 2^62."""
    cap = 1 << 28
    small = (C < cap).all(axis=1) & (L < cap).all(axis=1) & (C.shape[1] <= 64)
    C, L = np.minimum(C, cap), np.minimum(L, cap)
    K, Lc = C[:, -3:].max(axis=1), L[:, -3]
    inner = K * K + (C * L).sum(axis=1) + (K + Lc) * (Lc + 3)
    fits = small & (inner <= (_VEC_LIMIT - 1) // (2 * Lc + 4))
    if C.shape[1] > 3:  # a row of three counts at most (2 L + 1)^2 < 2^58
        fits &= (2.0 * L[:, :-1] + 1).prod(axis=1) < 2.0 ** 62
    return fits


def _stepped_order(C: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Each row's column order: prefix, stepped x, closed triple (rows
    sorted by limit, m >= 4 pairs).  x has the fewest solvable cells,
    (prefix half-grid cells) * (floor(L_x / h) + 1) with g1 the gcd of the
    last three columns but x and h = g1 / gcd(c_x, g1); ties go to m - 4."""
    m, (c0, c1, c2, c3) = C.shape[1], C[:, -4:].T
    g01, g23 = np.gcd(c0, c1), np.gcd(c2, c3)
    cand = np.r_[m - 4:m, :m - 4]  # stepping a column before m - 4 closes the last three
    g1 = np.stack([np.gcd(c1, g23), np.gcd(c0, g23), np.gcd(g01, c3), np.gcd(g01, c2)])[
        np.minimum(np.arange(m), 4) % 4].T
    side = 2 * L + 1  # the prefix is the first m - 3 columns but x, or the first m - 4
    cells = side[:, :m - 3].prod(1, dtype=float)[:, None] / side[:, np.minimum(cand, m - 4)]
    cost = (cells + 1) * (L[:, cand] // (g1 // np.gcd(C[:, cand], g1)) + 1)
    x = cand[cost.argmin(axis=1)][:, None]
    q = np.arange(m) - (np.arange(m) > m - 4)  # every column but x, in order
    return np.where(np.arange(m) == m - 4, x, q + (q >= x))


def _cell_counts(C: np.ndarray, L: np.ndarray) -> np.ndarray:
    """The zero-sum count of each row of C and L, arranged by
    ``_stepped_order`` as prefix, stepped x and closed triple, on int64
    arrays or on Python ints alike.

    A cell (prefix w, x) with prefix sum p is solvable only when
    g1 | p + c_x x: when e = gcd(c_x, g1) divides p and x lies in one
    class mod h = g1 / e, so only those x are taken.  The count is even
    in s, so the first half of the prefix grid takes every x, doubled,
    and its centre x = 0 once and x = h, 2h, ... doubled.  At most
    ``_CHUNK`` cells go through ``_triple_count_vec`` at a time."""
    T = _triple_terms(C[:, -1], L[:, -1], C[:, -2], L[:, -2], C[:, -3], L[:, -3])
    one = np.ones_like(C[:, 0])
    cx, Lx = (C[:, -4], L[:, -4]) if C.shape[1] > 3 else (one, 0 * one)
    radix = 2 * L[:, :-4] + 1
    h = T[9] // (e := np.gcd(cx, T[9]))
    span = 2 * Lx // h + 1  # the most x of one class in [-Lx, Lx]
    before = ((radix.prod(axis=1) - 1) >> 1) * span  # cells before the centre
    size = before + Lx // h + 1
    end, cells = size.cumsum(), int(size.sum())
    rows = [end - size, before, h, cx]
    if radix.shape[1]:  # for the class of x in a prefix cell, and the prefix's offset
        rows += [span, e, _inverse_vec(cx // e % h, h), Lx, -(C * L)[:, :-4].sum(axis=1)]
    rows = np.array(rows)
    counts = 0 * one
    for lo in range(0, cells, _CHUNK):
        cell = np.arange(lo, min(lo + _CHUNK, cells))
        row = end.searchsorted(cell, "right")
        first, before_r, h_r, c_r, *prefix = rows[:, row]
        rank = cell - first
        twice = rank != before_r  # doubled but x = 0 at the centre
        x, p = rank * h_r, 0
        if prefix:  # a prefix cell before the centre takes its x class
            span_r, e_r, inv_r, L_r, p = prefix  # p: the prefix's part of s
            k, j = _divmod(rank, span_r)
            for c, r in zip(C[row, :-4].T[::-1], radix[row].T[::-1]):
                k, digit = _divmod(k, r)
                p += c * digit
            x0 = -(p // e_r % h_r) * inv_r % h_r
            x = j * h_r + np.where(rank < before_r, (x0 + L_r) % h_r - L_r, 0)
            ok = (x <= L_r) & (p % e_r == 0)
            row, x, p, c_r, twice = row[ok], x[ok], p[ok], c_r[ok], twice[ok]
        np.add.at(counts, row, _triple_count_vec(T, row, -(p + c_r * x)) << twice)
    return counts


def count_zero_sum_rows(coeffs, limits) -> np.ndarray:
    """count_zero_sum_boxes(coeffs[r], limits[r]) for every row r of two
    integer arrays of shape (rows, m), with a coefficient >= 1 where its
    limit is > 0: an int64 array, or Python ints when some row is past
    the int64 guard.

    Each row is sorted by limit, padded to three pairs (a row of three
    has an inactive x) and split by ``_stepped_order``.  The rows that
    pass ``_fits_int64_vec`` are counted by ``_cell_counts`` on int64
    arrays, the others by the same steps on Python ints."""
    C, L = _int_array(coeffs), _int_array(limits)
    if C.ndim != 2 or C.shape != L.shape:
        raise ContractViolation("need coefficient and limit rows of one shape")
    if (L < 0).any() or (C[L > 0] < 1).any():
        raise ContractViolation("coefficients must be >= 1 and limits >= 0")
    order = np.argsort(L, axis=1, kind="stable")
    L = np.take_along_axis(L, order, axis=1)
    C = np.where(L > 0, np.take_along_axis(C, order, axis=1), 1)
    if C.shape[1] < 3:
        pad = ((0, 0), (3 - C.shape[1], 0))
        L, C = np.pad(L, pad), np.pad(C, pad, constant_values=1)
    elif C.shape[1] > 3:
        order = _stepped_order(C, L)
        C, L = np.take_along_axis(C, order, axis=1), np.take_along_axis(L, order, axis=1)
    fits = _fits_int64_vec(C, L)
    parts = [(part, ints(C[part]), ints(L[part])) for part, ints in (
        (fits, lambda v: v.astype(np.int64, copy=False)), (~fits, _py_ints)) if part.any()]
    del C, L, order  # only the parts' copies stay alive while they are counted
    counts = np.zeros(len(fits), dtype=np.int64 if fits.all() else object)
    for part, C, L in parts:  # the box terms of at most _CHUNK rows at a time
        counts[part] = np.concatenate([_cell_counts(C[lo:lo + _CHUNK], L[lo:lo + _CHUNK])
                                       for lo in range(0, len(C), _CHUNK)])
    return counts


def count_zero_sum_batch(coeffs: np.ndarray, limits: np.ndarray,
                         weights: np.ndarray) -> int:
    """sum_r weights[r] * count_zero_sum_boxes(coeffs[r], limits[r]) over
    the rows of ``count_zero_sum_rows``, with int64 weights, exactly."""
    counts = count_zero_sum_rows(coeffs, limits)
    wt = np.asarray(weights, dtype=np.int64)
    if wt.shape != counts.shape:
        raise ContractViolation("need one weight per row")
    if int(counts.max(initial=0)) * int(np.abs(wt).max(initial=0)) * len(wt) >= 1 << 63:
        counts = counts.astype(object)  # the dot in Python ints
    return int(counts @ wt)


def count_zero_sum_boxes(coeffs: Sequence[int], limits: Sequence[int]) -> int:
    """#{w in Z^m : sum c_i w_i = 0, |w_i| <= L_i} for positive
    coefficients: one row of ``count_zero_sum_rows``."""
    return int(count_zero_sum_rows([coeffs], [limits])[0])


def count_zero_sum(d: Sequence[int], X: int) -> int:
    """#{alpha in Z^n : |alpha_i| <= X, sum d_i alpha_i = 0}."""
    if X < 0:
        raise ContractViolation("X must be >= 0")
    return count_zero_sum_boxes(d, [X] * len(d))


def count_solutions(z: Sequence[int], X: int) -> int:
    """Exact cardinality of the bounded solution set A(X) of a reduced tuple."""
    co = lattice_coefficients(z)
    return count_zero_sum(co.d, X)


def congruence_box(co: LatticeCoefficients, r: int,
                   X: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The zero-sum box of A_r(X) (see ``count_congruence``): coefficients
    d_{r+1}, ..., d_n and q = joint(r), limits X and sum_{i>r} d_i X // q."""
    q, rest = co.d_joint(r), co.d[r:]
    return rest + (q,), (X,) * len(rest) + (sum(rest) * X // q,)


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
    return count_zero_sum_boxes(*congruence_box(lattice_coefficients(z), r, X))
