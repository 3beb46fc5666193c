"""Every factor of the leading constant, each computable by at least two
routes:

  * the unimodal degree-(n-1) polynomial P_n with the recurrence
    P_{n+1} = (1 + nX) P_n + X (1 - X) P_n', equal to the excedance
    generating polynomial of the symmetric group S_n,
  * the local-density polynomial sum_k b_k X^k obtained from the
    incomparability graph, equal to (1 - X)^{2^n - n - 1} P_n(X),
  * the Euler product of the local densities
    (1 - 1/p)^{2^n - n - 1} P_n(1/p) (1 - p^{-n}) with a rigorous tail,
  * the volume V of an explicit polytope in [0,1]^{2^n - n - 1}
    (exact iterated integration for n = 3, Monte Carlo otherwise),
  * the archimedean factors: the weighted-slab integral beta_tilde and
    the compact integral whose value is n * 2^{n-1} * n! * beta_tilde,
  * the assembled leading constant, once from the counting main term and
    once as alpha * beta * omega (cone volume times Tamagawa number).

Monte Carlo uses counter-based (Philox) streams keyed by (seed, stream),
so results are bit-identical for a fixed seed and sample plan.  Each
stream serves one block of MC_BLOCK samples; ``mc_mean`` evaluates a
block in runs of at most _MC_ROWS consecutive rows, the leaves of numpy's
pairwise summation tree, and combines their sums along that tree, so
neither the run length nor the missing block array changes the draws or
any sum.  The integrands work on whole columns: a compare-exchange
network stands in for numpy's per-row sort, running products for its
cumprod and running sums of columns for the polytope's row products, and
every sum and product keeps numpy's order or is exact, so each value has
the bits the row-wise code gave.  No leaf allocates: each call draws and
evaluates its leaves in buffers and columns (``_Scratch``) of its own.

The Euler product sieves in segments of _SIEVE_SEGMENT numbers twice, to
count the primes and then to stream their logs through the same pairwise
tree, so its memory stays one segment and one leaf.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractViolation, ResourceLimit
from .factorization import bit, incomparable_pairs

MC_BLOCK = 1 << 20  # samples per RNG stream
# the most values a leaf of ``_tree_sums`` holds: a Monte Carlo leaf's draws
# and scratch columns stay in cache, and a (2^20, d) block is never built
_MC_ROWS = 1 << 14
_PHILOX_WORDS = 4  # 64-bit outputs per Philox counter step, one per double

# The largest prime limit or Monte Carlo sample count admitted.  On a
# 2-vCPU x86 host the Euler product to 1e8 took 0.8 s and 1e9 took 17 s,
# each within 1 MB of the RSS before the call, so 1e10 would run for
# minutes; a sample costs 0.03-0.11 us of CPU per integrand, in a fresh
# process as in a warm one, so 1e9 samples run for minutes and 1e15 would
# run for years.
SIZE_CAP = 10 ** 9


def _check_size(value: int, name: str) -> None:
    if value > SIZE_CAP:
        raise ResourceLimit(f"{name} {value} exceeds the cap {SIZE_CAP:.0e}")


# ------------------------------ polynomials ------------------------------

def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def poly_eval(coeffs: Sequence[int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def eulerian_polynomial(n: int) -> list[int]:
    """Coefficients (ascending) of P_n: degree n-1, palindromic, constant
    term 1, linear coefficient 2^n - n - 1."""
    if n < 1:
        raise ContractViolation("n must be >= 1")
    p = [1]
    for m in range(1, n):
        # X^k of (1 + mX) p + X (1 - X) p' is (k+1) p_k + (m-k+1) p_{k-1}
        p = [(k + 1) * a + (m - k + 1) * b
             for k, (a, b) in enumerate(zip(p + [0], [0] + p))]
    return p


def excedance_polynomial(n: int) -> list[int]:
    """Coefficient k = number of permutations w of {1..n} with
    #{i : w(i) > i} = k, by exhaustive enumeration (n <= 8)."""
    if n < 1:
        raise ContractViolation("n must be >= 1")
    if n > 8:
        raise ResourceLimit("factorial enumeration supported for n <= 8")
    counts = [0] * n
    for w in itertools.permutations(range(1, n + 1)):
        counts[sum(1 for i, wi in enumerate(w, start=1) if wi > i)] += 1
    return counts


def local_factor_from_graph(n: int) -> list[int]:
    """Coefficients b_0..b_{2^n-2} of the local-density polynomial via
    subset enumeration over the incomparability graph on [1, 2^n - 2]:
    b_k = sum over edge sets U covering exactly k vertices of (-1)^|U|.

    Only n = 3 is enumerable (2^9 edge subsets; the edge count at n = 4
    is already 55)."""
    if n != 3:
        raise ResourceLimit("edge-subset enumeration supported only for n = 3")
    edges = incomparable_pairs(n)  # the top index is comparable to everything
    b = [0] * ((1 << n) - 1)
    for size in range(len(edges) + 1):
        for U in itertools.combinations(edges, size):
            b[len({v for edge in U for v in edge})] += (-1) ** size
    return b


# ------------------------------ zeta values ------------------------------

def zeta_value(n: int) -> tuple[float, float]:
    """(value, error bound) of zeta(n) by direct summation with the
    integral midpoint correction for the tail; terms are chosen so the
    bracket width stays below 1e-12."""
    if n < 2:
        raise ContractViolation("n must be >= 2")
    # bracket width is about terms^(-n), so size the cutoff from that
    terms = max(1000, math.ceil(1.1 * (1.0 / 2e-12) ** (1.0 / n)) + 1)
    s = math.fsum((m ** -n for m in range(1, terms + 1)))
    hi = terms ** (1 - n) / (n - 1)
    lo = (terms + 1) ** (1 - n) / (n - 1)
    return s + (hi + lo) / 2, (hi - lo) / 2 + 1e-14


# ------------------------------ Euler product ------------------------------

def primes_up_to(limit: int) -> np.ndarray:
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


# numbers sieved at once by ``_prime_segments``: 128 KB of bools, one per
# odd number
_SIEVE_SEGMENT = 1 << 18


def _prime_segments(limit: int) -> Iterator[np.ndarray]:
    """The primes up to ``limit`` as int64 arrays, one per segment of
    _SIEVE_SEGMENT numbers, in ascending order; each segment's odd numbers
    are marked with the odd base primes up to sqrt(limit), so memory stays
    fixed."""
    base = [int(p) for p in primes_up_to(math.isqrt(limit))[1:]]
    for lo in range(0, limit + 1, _SIEVE_SEGMENT):
        hi = min(lo + _SIEVE_SEGMENT, limit + 1)
        first = lo | 1  # mark[i] stands for first + 2 i
        mark = np.ones((hi - first + 1) // 2, dtype=bool)
        mark[:first == 1] = False
        for p in base:
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p)
            start += (start + 1) % 2 * p  # the first odd multiple
            mark[(start - first) // 2::p] = False
        primes = np.flatnonzero(mark)
        primes *= 2
        primes += first
        yield np.concatenate(([2], primes)) if lo <= 2 < hi else primes


def _density_terms(eulerian: Sequence[int], p: int) -> tuple[int, int]:
    """Numerator and denominator of ``local_density(n, p)`` for the n
    coefficients of P_n: with m = 2^n - n - 1 it is
    (p - 1)^m p^{n-1} P_n(1/p) (p^n - 1) over p^{m + 2n - 1}, already in
    lowest terms (the numerator is +-1 mod p)."""
    n = len(eulerian)
    m = (1 << n) - n - 1
    scaled = sum(c * p ** (n - 1 - k) for k, c in enumerate(eulerian))
    return (p - 1) ** m * scaled * (p ** n - 1), p ** (m + 2 * n - 1)


def local_density(n: int, p: int) -> Fraction:
    """(1 - 1/p)^{2^n - n - 1} P_n(1/p) (1 - p^{-n}) as an exact rational."""
    return Fraction(*_density_terms(eulerian_polynomial(n), p))


def _density_poly(n: int) -> list[int]:
    """(1 - X)^{2^n - n - 1} P_n(X) (1 - X^n); constant 1, linear 0."""
    m = (1 << n) - n - 1
    one_minus = [1, -1]
    q = [1]
    for _ in range(m):
        q = _poly_mul(q, one_minus)
    q = _poly_mul(q, eulerian_polynomial(n))
    xn = [1] + [0] * (n - 1) + [-1]
    return _poly_mul(q, xn)


@dataclass(frozen=True)
class EulerProduct:
    """Truncated product over p <= prime_limit with a rigorous enclosure
    [lower, upper] of the full product."""

    n: int
    prime_limit: int
    value: float
    lower: float
    upper: float


def euler_product(n: int, prime_limit: int) -> EulerProduct:
    """Product of the local densities over p <= prime_limit.

    The enclosure comes from |log Q(x)| <= 2 M x^2 for x <= 1/sqrt(2M),
    where Q is the density polynomial (whose linear term vanishes) and
    M bounds sum_{k>=2} |q_k| 2^{2-k}; primes between prime_limit and the
    safety threshold p_safe are folded in exactly.  For n >= 5 the bound
    can exceed the float range, and the upper end is then inf; a p_safe
    above SIZE_CAP (from n = 7 on) is refused before any sieving.
    """
    if prime_limit < 2:
        raise ContractViolation("prime_limit must be >= 2")
    _check_size(prime_limit, "prime limit")
    q = _density_poly(n)
    if q[0] != 1 or q[1] != 0:
        raise AssertionError("density polynomial must start 1 + 0*X")
    m_const = float(sum(abs(c) * Fraction(1, 2) ** (k - 2)
                        for k, c in enumerate(q) if k >= 2)) * (1 + 1e-12)
    p_safe = max(prime_limit, math.isqrt(math.ceil(2 * m_const)) + 1)
    _check_size(p_safe, "safety threshold")
    mexp = (1 << n) - n - 1
    eulerian = eulerian_polynomial(n)
    coeffs = eulerian[::-1]
    size = 0
    between: list[int] = []
    for primes in _prime_segments(p_safe):
        cut = int(np.searchsorted(primes, prime_limit, side="right"))
        size += cut
        between += primes[cut:].tolist()
    # The logs of the size primes up to prime_limit stream through numpy's
    # pairwise tree over that many values, which needs size first: a
    # second sieve hands each leaf its primes, and the sum has the bits of
    # one np.sum over every log with none of them held.
    segments = _prime_segments(prime_limit)
    pending = np.empty(0, dtype=np.int64)

    def leaf(k: int) -> np.ndarray:
        nonlocal pending
        while len(pending) < k:
            pending = np.concatenate((pending, next(segments)))
        x, pending = 1.0 / pending[:k], pending[k:]
        return (mexp * np.log1p(-x) + np.log(np.polyval(coeffs, x))
                + np.log1p(-x ** n))

    # _tree_sums also squares and sums every log, a sum left unused here
    log_value = _tree_sums(leaf, size, _MC_ROWS)[0]
    # int / int is correctly rounded, so it is float(local_density(n, p))
    # without reducing the Fraction
    extra = 0.0
    for p in between:
        num, den = _density_terms(eulerian, p)
        extra += math.log(num / den)
    rest = 2.0 * m_const / p_safe
    slack = (size + len(between) + 10) * 1e-15
    value = math.exp(log_value)
    lower = math.exp(log_value + extra - rest - slack)
    # for n >= 5 the tail bound rest can pass log(DBL_MAX); an infinite
    # upper end still encloses the product
    try:
        upper = math.exp(log_value + extra + rest + slack)
    except OverflowError:
        upper = math.inf
    return EulerProduct(n, prime_limit, value, lower, upper)


# ------------------------------ Monte Carlo ------------------------------

@dataclass(frozen=True)
class MCEstimate:
    value: float
    standard_error: float
    samples: int
    seed: int


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for (seed, stream); shard-stable."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


# numpy's pairwise sum adds a run of at most this many values in one 8-way
# unrolled loop and splits a longer one at half, rounded down to a multiple
# of 8, summing both parts the same way
_PAIRWISE_BLOCK = 128


def _tree_sums(leaf: Callable[[int], np.ndarray], n: int,
               rows: int) -> tuple[float, float]:
    """Sum and sum of squares of n values, each with the bits of one
    ``np.sum`` over all of them: a run longer than _PAIRWISE_BLOCK and
    ``rows`` is split where numpy's pairwise sum splits it, and ``leaf(k)``
    gives the next k values as a float64 array that is squared in place."""
    if n <= max(rows, _PAIRWISE_BLOCK):
        vals = leaf(n)
        tot = float(vals.sum())
        np.multiply(vals, vals, out=vals)
        return tot, float(vals.sum())
    half = n // 2 - n // 2 % 8
    tot, totsq = _tree_sums(leaf, half, rows)
    tot2, totsq2 = _tree_sums(leaf, n - half, rows)
    return tot + tot2, totsq + totsq2


class _Scratch:
    """Columns of ``rows`` 8-byte values that every leaf of one call reuses:
    ``take(k)`` views the first k values of the next column as any dtype of
    at most 8 bytes, and ``reset()`` starts the next leaf at the first."""

    def __init__(self, rows: int) -> None:
        self.rows = rows
        self.cols: list[np.ndarray] = []
        self.used = 0

    def take(self, k: int, dtype: type = np.float64) -> np.ndarray:
        if self.used == len(self.cols):
            self.cols.append(np.empty(self.rows))
        self.used += 1
        return self.cols[self.used - 1].view(dtype)[:k]

    def copy(self, col: np.ndarray) -> np.ndarray:
        out = self.take(len(col), col.dtype)
        np.copyto(out, col)
        return out

    def reset(self) -> _Scratch:
        self.used = 0
        return self


def _leaf_rows(samples: int) -> int:
    """The most rows that a leaf of ``mc_mean`` holds at this sample count."""
    return min(samples, MC_BLOCK, max(_MC_ROWS, _PAIRWISE_BLOCK))


def mc_mean(fn: Callable[..., np.ndarray], samples: int, seed: int,
            widths: Sequence[int]) -> MCEstimate:
    """Stream-blocked Monte Carlo mean of fn(*draws) -> one value per row.

    Block b of at most MC_BLOCK samples uses stream b.  Its draws are
    arrays of uniforms of shapes (count, w) for w in ``widths``, taken from
    the stream in that order, each row-major.  fn sees them in runs of
    consecutive rows, the leaves of ``_tree_sums`` over the block: the
    first draw's runs come straight from the stream, and each later draw
    reads from its own generator advanced past the draws before it, so
    every run holds exactly the rows that drawing the whole block at once
    would give.  The runs' sums combine along numpy's pairwise tree into
    the sums of the whole block, so the estimate does not depend on
    _MC_ROWS and no array of a block is ever held.  Every run is drawn
    into the same buffers, ``Generator.random(out=...)`` having the bits of
    a new (rows, w) draw, and fn may overwrite them and what it returns.
    """
    if samples < 1:
        raise ContractViolation("samples must be >= 1")
    draws = [np.empty((_leaf_rows(samples), w)) for w in widths]
    done = 0
    stream = 0
    tot = 0.0
    totsq = 0.0
    while done < samples:
        count = min(MC_BLOCK, samples - done)
        rngs = []
        skip = 0
        for w in widths:
            rng = stream_rng(seed, stream)
            words, rest = divmod(skip, _PHILOX_WORDS)
            rng.bit_generator.advance(words)
            rng.random(rest)
            rngs.append(rng)
            skip += count * w

        def leaf(rows: int) -> np.ndarray:
            return fn(*(rng.random(out=buf[:rows]) for rng, buf in zip(rngs, draws)))

        block_tot, block_sq = _tree_sums(leaf, count, _MC_ROWS)
        tot += block_tot
        totsq += block_sq
        done += count
        stream += 1
    mean = tot / samples
    var = max(totsq / samples - mean * mean, 0.0)
    return MCEstimate(mean, math.sqrt(var / samples), samples, seed)


# ------------------------------ polytope ------------------------------

def free_indices(n: int) -> list[int]:
    """Coordinates of the polytope: every h but the chain 3, 7, ...,
    2^n - 1 and one special index (1 for n = 3, else 5), whose variables
    are eliminated; there are 2^n - n - 1 of them."""
    reserved = {(1 << j) - 1 for j in range(2, n + 1)} | {1 if n == 3 else 5}
    free = [h for h in range(1, (1 << n)) if h not in reserved]
    assert len(free) == (1 << n) - n - 1
    return free


def polytope_constraints(n: int) -> list[tuple[dict[int, int], int]]:
    """Affine constraints sum_h coeff[h] * t_h <= const over the free
    coordinates (box constraints 0 <= t_h <= 1 are implicit).

    For n >= 4 every row is a sum of bit differences bit_i(h) - bit_j(h)
    over its pairs (i, j), keyed in ascending h wherever some pair
    differs, so a coefficient may cancel to 0 and stay; bit n + 1 is 0
    throughout, which makes the pair (n, n + 1) the top-bit sum."""
    if n < 3:
        raise ContractViolation("n must be >= 3")
    if n == 3:
        return [({2: 1, 4: -1, 5: -1}, 0),
                ({4: 1, 5: 1, 6: 1}, 1),
                ({5: 1, 2: -1, 6: -1}, 0)]
    free = free_indices(n)

    def row(*pairs: tuple[int, int]) -> dict[int, int]:
        return {h: sum(bit(h, i) - bit(h, j) for i, j in pairs) for h in free
                if any(bit(h, i) != bit(h, j) for i, j in pairs)}

    return ([(row((j, j + 1)), 0) for j in range(4, n)]
            + [(row((n, n + 1)), 1), (row((1, 3)), 0), (row((1, 2)), 0),
               (row((2, 1), (3, 4)), 0)])


def _unit_sum_row(n: int) -> int:
    """Position in ``polytope_constraints(n)``, n >= 4, of the row of the
    pair (n, n + 1): the top-bit coordinates sum to at most 1."""
    return n - 4


def _boole(f: Callable[[Fraction], Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    """Closed Newton-Cotes on five nodes; exact for degree <= 5."""
    if hi <= lo:
        return Fraction(0)
    step = (hi - lo) / 4
    xs = [lo + k * step for k in range(5)]
    return (hi - lo) * (7 * f(xs[0]) + 32 * f(xs[1]) + 12 * f(xs[2])
                        + 32 * f(xs[3]) + 7 * f(xs[4])) / 90


def _exact_volume_n3() -> Fraction:
    """Iterated exact integration of the n = 3 polytope.

    Coordinates (t2, t4, t5, t6): the t2-slice is the interval
    [max(0, t5 - t6), t4 + t5] (upper end below 1 wherever t6 is
    feasible), the t6 integral splits at t6 = t5, and the remaining
    integrand is polynomial on each piece, so five-node exact quadrature
    finishes the b- and a-integrals.
    """
    def over_t6(a: Fraction, b: Fraction) -> Fraction:
        # integral over t6 in [0, 1 - a - b] of the t2-slice length
        top = 1 - a - b
        if top <= 0:
            return Fraction(0)
        s = min(b, top)
        return a * s + s * s / 2 + (a + b) * (top - s)

    def over_t5(a: Fraction) -> Fraction:
        split = (1 - a) / 2  # below: t6-range covers t6 = t5; above: truncated
        return (_boole(lambda b: over_t6(a, b), Fraction(0), split)
                + _boole(lambda b: over_t6(a, b), split, 1 - a))

    return _boole(over_t5, Fraction(0), Fraction(1))


def polytope_volume(n: int, method: str = "exact",
                    samples: int = 10 ** 7, seed: int = 0) -> Fraction | MCEstimate:
    """Volume of the constraint polytope inside [0,1]^{2^n - n - 1}."""
    if n < 3:
        raise ContractViolation("n must be >= 3")
    if method == "exact":
        if n != 3:
            raise ResourceLimit("exact integration implemented for n = 3 only")
        return _exact_volume_n3()
    if method != "mc":
        raise ContractViolation(f"unknown method {method!r}")
    if n not in (3, 4):
        raise ResourceLimit("Monte Carlo volume supported for n in {3, 4}")
    _check_size(samples, "sample count")
    free = free_indices(n)
    pos = {h: i for i, h in enumerate(free)}

    # For n >= 4 the unit-sum constraint over the k top-bit coordinates
    # (the row of the pair (n, n + 1)) is so binding (its own volume is
    # 1/k!) that naive sampling rarely hits; those coordinates are drawn
    # from their simplex instead and the estimator carries the exact 1/k!
    # weight, which is 1 at n = 3, where no coordinate is drawn so.
    simplex_idx = [i for i, h in enumerate(free) if n >= 4 and bit(h, n)]
    weight_factor = 1.0 / math.factorial(len(simplex_idx))
    plain_idx = [i for i in range(len(free)) if i not in simplex_idx]
    constraints = polytope_constraints(n)
    if simplex_idx:
        # The unit-sum row always holds on these draws, so it is not
        # tested.  Uniforms are multiples of 2^-53 below 1, and so is every
        # spacing of the sorted draws and every partial sum of spacings (at
        # most the largest draw): all of them are exact, and the row sum is
        # the largest draw.  Even rounded, six subtractions (1/4 ulp of 1
        # each) and six additions (1/2 ulp each) would move that sum of at
        # most 1 - 2^-53 by at most 4.5 ulp, below the bound 1 + 1e-15,
        # which rounds to 1 + 5 ulp.
        del constraints[_unit_sum_row(n)]
    # each row's (column, coefficient) terms in its key order, zeros skipped
    rows = [([(pos[h], c) for h, c in coeffs.items() if c], float(const))
            for coeffs, const in constraints]

    pool = _Scratch(_leaf_rows(samples))

    def block(*draws: np.ndarray) -> np.ndarray:
        pool.reset()
        k = len(draws[0])
        # every column a contiguous copy in the pool
        if simplex_idx:
            simplex_u, plain_u = draws
            spacings = _sorted_columns(simplex_u.T, pool)
            for i in range(len(spacings) - 1, 0, -1):
                spacings[i] -= spacings[i - 1]
            cols = (dict(zip(simplex_idx, spacings))
                    | dict(zip(plain_idx, map(pool.copy, plain_u.T))))
        else:
            cols = dict(enumerate(map(pool.copy, draws[0].T)))
        ok, hit = pool.take(k, bool), pool.take(k, bool)
        ok[...] = True
        acc, term = pool.take(k), pool.take(k)
        for terms, const in rows:
            # a running sum of +-col or +-2 col; every product is exact
            (j, c), *rest = terms
            np.multiply(cols[j], c, out=acc)
            for j, c in rest:
                if c == 1:
                    np.add(acc, cols[j], out=acc)
                elif c == -1:
                    np.subtract(acc, cols[j], out=acc)
                else:
                    np.add(acc, np.multiply(cols[j], c, out=term), out=acc)
            ok &= np.less_equal(acc, const + 1e-15, out=hit)
        np.copyto(term, ok)
        term *= weight_factor
        return term

    widths = ((len(simplex_idx), len(plain_idx)) if simplex_idx
              else (len(free),))
    return mc_mean(block, samples, seed, widths)


# ------------------------- slab volumes, vectorized -------------------------

def _sorted_columns(cols: Sequence[np.ndarray],
                    pool: _Scratch | None = None) -> list[np.ndarray]:
    """The columns sorted within each row, ascending, as contiguous arrays
    of the input dtype: columns of ``pool``, or new arrays.

    An insertion network of compare-exchanges only permutes each row's
    values, so for input free of NaN and -0.0 this is np.sort(axis=1) of
    the stacked columns, bit for bit, without a per-row sort call.
    """
    out = [np.array(col) if pool is None else pool.copy(col) for col in cols]
    spare = (np.empty_like(out[0]) if pool is None
             else pool.take(len(out[0]), out[0].dtype))
    for i in range(1, len(out)):
        for j in range(i, 0, -1):
            np.minimum(out[j - 1], out[j], out=spare)
            np.maximum(out[j - 1], out[j], out=out[j])
            out[j - 1], spare = spare, out[j - 1]
    return out


def _band_area(w1: np.ndarray, w2: np.ndarray, c: np.ndarray,
               pool: _Scratch | None = None) -> np.ndarray:
    """Area of {|w1 a + w2 b| <= c} in [-1,1]^2 for w1 >= w2 >= 0: 4 where
    c >= w1 + w2, else 4 c / w1 (4 c if w1 = 0) where c <= w1 - w2, else
    4 - (w1 + w2 - c)^2 / (w1 w2).  Each form is computed on every row,
    in columns of ``pool``, and kept on its own rows, so a division by
    zero elsewhere is discarded."""
    k = len(w1)
    pool = pool or _Scratch(k)
    total = np.add(w1, w2, out=pool.take(k))
    full = np.greater_equal(c, total, out=pool.take(k, bool))
    area = np.subtract(w1, w2, out=pool.take(k))
    strip = np.less_equal(c, area, out=pool.take(k, bool))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(total, c, out=area)
        np.multiply(area, area, out=area)
        np.multiply(w1, w2, out=total)
        np.divide(area, total, out=area)
        np.subtract(4.0, area, out=area)
    np.multiply(c, 4.0, out=total)
    np.divide(total, w1, out=total, where=np.greater(w1, 0, out=pool.take(k, bool)))
    np.putmask(area, strip, total)
    np.putmask(area, full, 4.0)
    return area


def _positive_power(d: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
    """max(d, 0)^m into ``out``, np.power(d, m) itself wherever d > 0: the
    power of |d|, signed as d and cut at 0, as numpy's pow takes 4x as long
    on 0 and 40x on a negative (AVX-512 host)."""
    np.absolute(d, out=out)
    np.power(out, m, out=out)
    np.copysign(out, d, out=out)
    return np.maximum(out, 0.0, out=out)


def _cube_slab_vec(w: Sequence[np.ndarray], c: np.ndarray,
                   pool: _Scratch | None = None) -> np.ndarray:
    """Volume of {|sum w_i a_i| <= c} in [-1,1]^m, one value per row, for
    weight columns w_1 >= ... >= w_m >= 0 in every row
    (``_sorted_columns(weights.T)[::-1]`` for a 2-D array).

    Uses the single-sided corner expansion 2^m (1 - 2 F(t)) with
    t = (sum w - c)/2, which keeps every positive part below sum(w)/2.
    Everything runs on whole columns, in columns of ``pool``: each
    corner's shift is the shift of the corner without its top weight plus
    that weight, and the sum and product of the weights are taken largest
    first, as numpy's axis-1 sum (for m < 8) and product of the sorted rows
    add and multiply.
    A zero weight leaves its coordinate free: such rows are the slab of
    their positive weights times 2 per zero weight.
    """
    c = np.asarray(c, dtype=np.float64)
    k = len(w[0])
    pool = pool or _Scratch(k)
    m = len(w)
    if m == 2:
        return _band_area(w[0], w[1], c, pool)
    total, prod = pool.copy(w[0]), pool.copy(w[0])
    for col in w[1:]:
        total += col
        prod *= col
    t = np.subtract(total, c, out=total)
    t /= 2
    # A corner term max(t - shift, 0)^m adds exactly 0 wherever t <= shift,
    # so every row's sum is the one taken over its positive terms alone,
    # and a row with t <= 0 (where the expansion is 0) sums to 0.
    acc = _positive_power(t, m, pool.take(k))
    d, term = pool.take(k), pool.take(k)
    # At m = 3 with c >= 0, t <= fl(total)/2 <= shift at corners 3, 5 and
    # 7, which add nothing: rounding is monotone and doubling exact, so
    # fl(total) <= 2 fl(w_0 + w_1) as w_2 <= w_0, fl(total) <= fl(2 w_0 +
    # w_2) <= 2 fl(w_0 + w_2) as w_1 <= w_0, and corner 7's shift is fl(total).
    skip = (3, 5, 7) if m == 3 and c.min(initial=0.0) >= 0 else ()
    shifts: list = [0.0]
    for mask in range(1, 1 << m):
        if mask in skip:  # so is every corner built on it
            shifts.append(None)
            continue
        top = mask.bit_length() - 1
        below = mask ^ (1 << top)
        # a single weight's shift 0 + w is w itself
        shifts.append(np.add(shifts[below], w[top], out=pool.take(k)) if below
                      else w[top])
        if np.subtract(t, shifts[mask], out=d).max(initial=0.0) <= 0:
            continue  # a zero term on every row
        _positive_power(d, m, out=term)
        if bin(mask).count("1") & 1:
            acc -= term
        else:
            acc += term
    denom = np.multiply(prod, math.factorial(m), out=prod)
    zero = np.less_equal(w[-1], 0, out=pool.take(k, bool))
    np.putmask(denom, zero, 1.0)  # these rows are redone below
    # vol = 2^m (1 - 2 clip(acc / denom, 0, 1/2)), in place
    vol = np.clip(np.divide(acc, denom, out=acc), 0.0, 0.5, out=acc)
    vol *= 2.0
    np.subtract(1.0, vol, out=vol)
    vol *= 2.0 ** m
    if zero.any():
        zero = np.flatnonzero(zero)
        c_all = np.broadcast_to(c, vol.shape)
        positive = sum(col[zero] > 0 for col in w)
        for j in range(m):
            rows = zero[positive == j]
            inner = (_cube_slab_vec([col[rows] for col in w[:j]], c_all[rows]) if j
                     else np.where(c_all[rows] >= 0, 1.0, 0.0))
            vol[rows] = 2.0 ** (m - j) * inner
    return vol


# ------------------------------ beta tilde ------------------------------

@dataclass(frozen=True)
class QuadratureEstimate:
    value: float
    error_bound: float


def _running_products(t: np.ndarray, pool: _Scratch | None = None) -> list[np.ndarray]:
    """Columns p_i = p_{i-1} t_i, p_1 = t_1: np.cumprod(t, axis=1)
    column by column, with the same multiplications, in columns of
    ``pool``.  For t in [0, 1] they are nonincreasing in every row:
    fl(x u) <= x for 0 <= u <= 1, as rounding is monotone."""
    pool = pool or _Scratch(len(t))
    prods = [pool.copy(t[:, 0])]
    for i in range(1, t.shape[1]):
        prods.append(np.multiply(prods[-1], t[:, i], out=pool.take(len(t))))
    return prods


def _beta_integrand(n: int, u: np.ndarray, pool: _Scratch | None = None) -> np.ndarray:
    """Slab volume with weights (u1, u1 u2, ..., prod u) and bound 1 for
    rows u of shape (count, n-1) in [0, 1]; the running products are
    already nonincreasing, so the slab takes them unsorted."""
    ones = np.broadcast_to(1.0, len(u))
    return _cube_slab_vec(_running_products(u, pool), ones, pool)


# The finest beta tolerance admitted.  Where err <= tol * area never holds,
# the quadrature refines to its full depth, and each decade below 1e-10
# costs about 10x the time: on a 2-vCPU x86 host tol = 1e-12 took 4.7 s
# and 135 MB, tol = 1e-14 took 39 s and 967 MB.
BETA_TOL_FLOOR = 1e-12


def _check_beta_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ContractViolation(f"beta tolerance must be finite and positive, "
                                f"got {tol!r}")
    if tol < BETA_TOL_FLOOR:
        raise ResourceLimit(f"beta tolerance {tol:g} is below the floor "
                            f"{BETA_TOL_FLOOR:g}")


def _adaptive_square(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     tol: float) -> QuadratureEstimate:
    """Adaptive tensor-Simpson integration of f over [0,1]^2.

    Cells whose coarse/refined difference exceeds their share of the
    tolerance are split, for at most 26 halvings; the conservative error
    |fine - coarse| is accumulated, so the reported bound dominates the
    subdivision error.
    """
    nodes = np.array([0.0, 0.5, 1.0])
    wts = np.array([1.0, 4.0, 1.0]) / 6.0

    def simpson(x0: np.ndarray, y0: np.ndarray, h: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(x0)
        for i, nx in enumerate(nodes):
            for j, ny in enumerate(nodes):
                acc += wts[i] * wts[j] * f(x0 + nx * h, y0 + ny * h)
        return acc * h * h

    total = 0.0
    err_total = 0.0
    x0 = np.array([0.0])
    y0 = np.array([0.0])
    h = np.array([1.0])
    coarse = simpson(x0, y0, h)
    for depth in range(26):
        h2 = h / 2
        cells = [(x, y, h2, simpson(x, y, h2))
                 for x in (x0, x0 + h2) for y in (y0, y0 + h2)]
        fine = sum((s for *_, s in cells), np.zeros_like(coarse))
        err = np.abs(fine - coarse)
        area = h * h
        keep = (err <= tol * area) | (depth == 25)
        total += float(fine[keep].sum())
        err_total += float(err[keep].sum())
        if keep.all():
            break
        x0, y0, h, coarse = (np.concatenate([part[~keep] for part in parts])
                             for parts in zip(*cells))
    return QuadratureEstimate(total, err_total)


def beta_tilde(n: int, tol: float = 1e-8, samples: int = 10 ** 7,
               seed: int = 0) -> QuadratureEstimate | MCEstimate:
    """Integral over u in [0,1]^{n-1} of the slab volume with weights
    (u_1, u_1 u_2, ..., u_1 ... u_{n-1}) and bound 1.

    Deterministic adaptive quadrature for n = 3; seeded Monte Carlo for
    n >= 4.  The value lies in (0, 2^{n-1}].
    """
    if n < 3:
        raise ContractViolation("n must be >= 3")
    _check_beta_tol(tol)
    if n == 3:
        def f(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
            return _band_area(u1, u1 * u2, np.ones_like(u1))
        return _adaptive_square(f, tol)

    pool = _Scratch(_leaf_rows(samples))
    return mc_mean(lambda u: _beta_integrand(n, u, pool.reset()), samples, seed, (n - 1,))


# ------------------------------ mu infinity ------------------------------

def mu_infinity_scale(n: int) -> int:
    """n * 2^{n-1} * n!, the prefactor of the compact integral."""
    return n * (1 << (n - 1)) * math.factorial(n)


def mu_infinity(n: int, samples: int = 10 ** 7, seed: int = 0) -> MCEstimate:
    """Monte Carlo value of the archimedean density.

    The compact integral runs over an ordered block 0 <= v_1 <= ... <= v_n
    with integrand 1/(v_1 ... v_{n-1}) and a slab condition on the other
    n-1 coordinates.  Substituting the ratios t_i = v_i / v_{i+1} makes
    the integrand bounded by 2^{n-1}: the estimator integrates the exact
    inner slab volume with weights (1, t_1, t_1 t_2, ...) and bound
    t_1 ... t_{n-1}, divided by that same product.  The result estimates
    scale * integral with scale = n * 2^{n-1} * n!.
    """
    if n not in (3, 4):
        raise ResourceLimit("Monte Carlo density supported for n in {3, 4}")
    scale = float(mu_infinity_scale(n))

    pool = _Scratch(_leaf_rows(samples))

    def block(t: np.ndarray) -> np.ndarray:
        pool.reset()
        prods = _running_products(t, pool)
        # the weights 1 >= t_1 >= t_1 t_2 >= ... need no sort
        vol = _cube_slab_vec([np.broadcast_to(1.0, len(t))] + prods[:-1], prods[-1], pool)
        vol *= scale  # scale * vol / max(prod, 1e-300), in place
        vol /= np.maximum(prods[-1], 1e-300, out=prods[-1])
        return vol

    return mc_mean(block, samples, seed, (n - 1,))


# ------------------------------ assembly ------------------------------

@dataclass(frozen=True)
class AssemblyConfig:
    prime_limit: int = 10 ** 6
    v_method: str = "exact"          # source of the cone-volume side
    v_samples: int = 10 ** 7
    beta_tol: float = 1e-8
    beta_samples: int = 10 ** 7
    mu_samples: int = 10 ** 7
    seed: int = 0


@dataclass(frozen=True)
class ConstantBreakdown:
    """All factors of the leading constant plus the two assemblies.

    c_formula = 2^{n-1} n! beta_tilde V E / n^{2^n - n - 1}
    c_peyre   = alpha * beta_brauer * omega_infinity * E
    with E the Euler product of the local densities (the zeta factor is
    already divided out of E).  The two expressions agree exactly; the
    reported discrepancy measures only the numerical pipelines.
    """

    n: int
    V: float
    V_exact: Fraction | None
    v_method: str
    beta: QuadratureEstimate | MCEstimate
    euler: EulerProduct
    zeta_n: float
    zeta_err: float
    alpha: float
    beta_brauer: int
    omega_infinity: MCEstimate
    c_formula: float
    c_peyre: float
    c_formula_err: float
    c_peyre_err: float
    relative_discrepancy: float
    discrepancy_within_budget: bool


def assemble_constant(n: int, config: AssemblyConfig | None = None) -> ConstantBreakdown:
    if n not in (3, 4):
        raise ResourceLimit("assembly supported for n in {3, 4}")
    cfg = config or AssemblyConfig()
    # the tolerance, the sizes and the volume source are checked before any work
    _check_beta_tol(cfg.beta_tol)
    _check_size(cfg.prime_limit, "prime limit")
    for samples in (cfg.v_samples, cfg.beta_samples, cfg.mu_samples):
        _check_size(samples, "sample count")
    if cfg.v_method not in ("exact", "mc"):
        raise ContractViolation(f"unknown v_method {cfg.v_method!r}")
    if cfg.v_method == "exact" and n != 3:
        raise ContractViolation("exact volume unavailable for n >= 4")
    exponent = (1 << n) - n - 1

    if n == 3:
        v_exact: Fraction | None = polytope_volume(3, "exact")
        v_value = float(v_exact)
        v_err = 0.0
    else:
        v_exact = None
        est = polytope_volume(n, "mc", cfg.v_samples, cfg.seed)
        v_value = est.value
        v_err = 3 * est.standard_error

    if cfg.v_method == "exact":
        alpha_v, alpha_err = v_value, 0.0
    else:
        est = polytope_volume(n, "mc", cfg.v_samples, cfg.seed + 1)
        alpha_v, alpha_err = est.value, 3 * est.standard_error

    beta = beta_tilde(n, tol=cfg.beta_tol, samples=cfg.beta_samples, seed=cfg.seed)
    beta_err = beta.error_bound if isinstance(beta, QuadratureEstimate) \
        else 3 * beta.standard_error
    euler = euler_product(n, cfg.prime_limit)
    zeta_n, zeta_err = zeta_value(n)
    omega = mu_infinity(n, cfg.mu_samples, cfg.seed)

    alpha = alpha_v / float(n ** ((1 << n) - n))
    euler_rel = (euler.upper - euler.lower) / (2 * euler.value)

    c_formula = ((1 << (n - 1)) * math.factorial(n) * beta.value * v_value
                 * euler.value / float(n ** exponent))
    c_peyre = alpha * 1 * omega.value * euler.value
    c_formula_err = c_formula * (beta_err / beta.value
                                 + (v_err / v_value if v_value else 0.0)
                                 + euler_rel)
    c_peyre_err = c_peyre * (3 * omega.standard_error / omega.value
                             + (alpha_err / alpha_v if alpha_v else 0.0)
                             + euler_rel)
    gap = abs(c_formula - c_peyre)
    rel = gap / (((c_formula + c_peyre) / 2) or 1.0)
    return ConstantBreakdown(
        n=n, V=v_value, V_exact=v_exact, v_method=cfg.v_method, beta=beta,
        euler=euler, zeta_n=zeta_n, zeta_err=zeta_err, alpha=alpha,
        beta_brauer=1, omega_infinity=omega, c_formula=c_formula,
        c_peyre=c_peyre, c_formula_err=c_formula_err, c_peyre_err=c_peyre_err,
        relative_discrepancy=rel,
        discrepancy_within_budget=gap <= c_formula_err + c_peyre_err)
