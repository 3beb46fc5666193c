"""Counting rational points of bounded height on the open subset
y_1 ... y_n != 0 of the hypersurface

    x_1 y_2 ... y_n + x_2 y_1 y_3 ... y_n + ... + x_n y_1 ... y_{n-1} = 0

in P^{2n-1}(Q), by three independent pipelines:

  direct    enumerate y in [1, X]^n and count primitive x per tuple,
  moebius   unrestricted counts N(B/k^n) combined with the Moebius function,
  torsor    enumerate reduced tuples z and admissible x' in the
            factorized coordinate system.

The anticanonical height of a primitive representative is
H = max_i(max(|x_i|, y_i))^n; a point qualifies when H <= floor(B), so
X = floor(B^{1/n}) computed with exact integer arithmetic.  Sign orbits
reduce counting to positive y, contributing the factor 2^{n-1}.
"""

from __future__ import annotations

import math
import os
import struct
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterator, Sequence

import numpy as np

from .errors import ContractViolation, ResourceLimit
from .factorization import _weight_levels
from .lattice import count_zero_sum, count_zero_sum_boxes

WORKERS_ENV = "HYPERCOUNT_WORKERS"

METHODS = ("direct", "moebius", "torsor")

# cells a count may enumerate (see _work_estimate): it admits n = 3 up to
# B ~ 3e8 and n = 4 up to B ~ 1.5e7, and refuses what would run for more
# than five to ten minutes (at 0.03 us a cell, see below)
_WORK_BUDGET = 10 ** 10

# An n = 3 box closes in floor sums, so an n = 3 count makes one closed-form
# call per sorted tuple instead of enumerating cells.  Measured on a 2-vCPU
# x86 host: direct at n = 3, B = 1e6 spends about 6.8 us a tuple and the
# numpy path at n = 4 about 0.03 us a cell, so a call costs about 200 cells.
_CLOSED_FORM_CELLS = 200

# The torsor search steps through batches of at most 12 * _TORSOR_CAP
# entries (rows of 2n int32 columns) and expands its leaves into at most
# _TORSOR_CAP kernel rows at a time.  Peak RSS grows with the batches and
# time falls as they grow (every step costs a fixed number of numpy calls).
# Measured at n = 3, B = 2e5 in one process after direct and moebius on a
# 2-vCPU x86 host: 33.5 MB with 8 * _TORSOR_CAP entries a batch, 33.6 MB
# with 12, 34.0 MB with 16 and 33.2 MB with the recursive search this
# replaced; batches of 8 made the tests' tiny caps about 0.3 s slower.
# The kernel rows are not capped: each shard merges them in one dict.
_TORSOR_CAP = 1 << 11


# ------------------------------ arithmetic ------------------------------

def int_nth_root(value: int, n: int) -> int:
    """Largest integer x >= 0 with x^n <= value (value >= 0), exact for
    any size: integer Newton steps from 2^ceil(bits/n), which is above
    the root, descend to it."""
    if value < 0:
        raise ContractViolation("value must be nonnegative")
    if value == 0:
        return 0
    if value.bit_length() <= n:  # 1 <= value < 2^n; x ** (n - 1) would have n bits
        return 1
    x = 1 << -(-value.bit_length() // n)
    while True:
        y = ((n - 1) * x + value // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def mobius_sieve(limit: int) -> np.ndarray:
    """Moebius function on [0, limit]."""
    mu = np.ones(limit + 1, dtype=np.int64)
    if limit >= 0:
        mu[0] = 0
    sieve = np.ones(limit + 1, dtype=bool)
    for p in range(2, limit + 1):
        if sieve[p]:
            sieve[2 * p::p] = False
            mu[p::p] *= -1
            sq = p * p
            if sq <= limit:
                mu[sq::sq] = 0
    return mu


def squarefree_divisors(m: int) -> list[tuple[int, int]]:
    """(divisor, moebius sign) for every squarefree divisor of m."""
    out = [(1, 1)]
    rest = m
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            out = out + [(d * p, -s) for d, s in out]
            while rest % p == 0:
                rest //= p
        p += 1 if p == 2 else 2
    if rest > 1:
        out = out + [(d * rest, -s) for d, s in out]
    return out


# --------------------------- tuple enumeration ---------------------------

def _multiplicity(y: Sequence[int]) -> int:
    """Number of distinct permutations of the multiset y (y sorted)."""
    total = math.factorial(len(y))
    run = 1
    for i in range(1, len(y)):
        if y[i] == y[i - 1]:
            run += 1
            total //= run
        else:
            run = 1
    return total


def _sorted_tuples(n: int, T: int, shard: int, shards: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Nondecreasing tuples in [1, T]^n whose maximum t satisfies
    t % shards == shard, with their permutation multiplicity."""
    # the maximum is outermost, so a shard steps over the other maxima
    for t in range(shard or shards, T + 1, shards):
        for rest in combinations_with_replacement(range(1, t + 1), n - 1):
            y = rest + (t,)
            yield y, _multiplicity(y)


def _coeffs_of(y: Sequence[int]) -> tuple[int, ...]:
    """d_i = lcm(y) / y_i, the coefficients of the ambient linear form."""
    L = math.lcm(*y)
    return tuple(L // v for v in y)


# ------------------------------- pipelines -------------------------------

def _direct_shard(n: int, X: int, shard: int, shards: int) -> int:
    total = 0
    for y, mult in _sorted_tuples(n, X, shard, shards):
        d = _coeffs_of(y)
        g = math.gcd(*y)
        if g == 1:
            total += mult * count_zero_sum(d, X)
        else:
            sub = 0
            for k, sign in squarefree_divisors(g):
                sub += sign * count_zero_sum(d, X // k)
            total += mult * sub
    return total


def _moebius_shard(n: int, X: int, shard: int, shards: int) -> int:
    mu = mobius_sieve(X)
    total = 0
    for k in range(1, X + 1):
        if not mu[k]:
            continue
        T = X // k
        sub = 0
        for y, mult in _sorted_tuples(n, T, shard, shards):
            sub += mult * count_zero_sum(_coeffs_of(y), T)
        total += int(mu[k]) * sub
    return total


def _distinct_rows(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D int64 array in lexicographic order, with
    the weights of equal rows added up: ``np.unique(axis=0)`` by one
    lexsort and a boundary diff, at a fraction of its cost."""
    if not len(keys):
        return keys, weights
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = new.nonzero()[0]
    return keys[starts], np.add.reduceat(weights[order], starts)


def _packs_in_int64(n: int, X: int) -> bool:
    """Whether the torsor's packed fields fit int64 (see _torsor_shard)."""
    return (n + 1) * X.bit_length() <= 62


def _spread(size: np.ndarray, limit: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Batching over items that each expand into size[i] >= 1 slots: the
    longest prefix of items with at most ``limit`` slots in all, or the
    first item alone.  Returns its length k and, for each of its slots in
    order, the slot's item and its rank 0, 1, ... within that item."""
    end = size[:limit].cumsum()
    k = max(1, int(end.searchsorted(limit, "right")))
    size = size[:k]
    idx = np.arange(k).repeat(size)
    return k, idx, np.arange(len(idx)) - (end[:k] - size)[idx]


def _torsor_shard(n: int, X: int, shard: int, shards: int) -> int:
    """Reduced-tuple enumeration.

    The search sets z_h for h != 2^n - 1 level by level, in descending
    subset size and ascending h inside a size.  A row holds y_1 .. y_n,
    the products of the z_h set so far over the h containing j, then
    the singletons z_{2^0} .. z_{2^{n-1}}.  One numpy step sets the next
    z_h on a batch of rows: it repeats each row by its cap
    X // max_{j in h} y_j, keeps each candidate v coprime to the product
    of the z's already set that are incomparable with h (and
    v % shards == shard on the first level), and multiplies v into the
    y_j with j in h, and into z_h when h is a singleton.  The z's set so
    far have |l| >= |h|, so the incomparable ones are those not
    containing h; the primes of a reduced tuple divide a chain of z's,
    so those multiply to lcm(y) and those containing h to
    gcd_{j in h} y_j, and the product sought is their quotient.

    The batches are walked depth first on an explicit stack: a step
    takes the rows of the top batch whose candidates fit in one batch
    and leaves a copy of the rest on the stack.  A batch holds at most
    12 * _TORSOR_CAP entries, or one row's candidates (at most X rows),
    and the stack at most one batch per level, so memory is bounded
    whatever X.

    The top variable carries no coprimality constraint, so its range
    [1, Z], Z = X // max_j y_j, is closed in one divisor sum: for each
    squarefree m, mu(m) * floor(Z/m) * #{x' : m | x'_j z_{2^{j-1}} for
    all j} where the inner count is a box-restricted zero-sum count.
    The sum depends only on Z and the pairs (z_{2^j}, cof_j), where
    cof_j is the product of the z_h with |h| >= 2 and j not in h, and is
    symmetric in j.  So the last step turns its rows into leaves, Z and
    the sorted pairs, and equal leaves merge with their multiplicity.
    The distinct leaves expand over squarefree m into rows of sorted
    (coeff, limit) pairs, at most _TORSOR_CAP rows at a time.  Equal rows
    add up their weights in one dict per shard keyed by the row's bytes,
    and after the search each distinct row with a nonzero weight is
    counted once by count_zero_sum_boxes.  The dict takes about 128 B a
    row, and at n = 3 the rows grow about as X^2.3: 837,888 rows at
    X = 400 peaked at 140 MB, and the budget's top, X = 668, would hold
    about 2.8M.

    Every entry of a search row is <= X < 2^15, so rows are int32, and
    lcm(y) <= X^n.  Every field of a leaf or kernel row is packed into
    int64: z_{2^j}, Z and every limit are <= X < 2^w, cof_j <= X^(n-1)
    and a row coefficient cof_j * q is <= X^n, so a (coeff, limit) pair
    needs (n + 1) w bits, which count_points checks (_packs_in_int64).
    """
    width = 2 * n
    batch = max(1, 12 * _TORSOR_CAP // width)
    steps = []  # per level: the columns of y_j for j in h, and those v multiplies
    for size in _weight_levels(n)[1:]:
        for _, mem in size:
            ys = np.array(mem) - 1
            steps.append((ys, ys if len(ys) > 1 else np.array([ys[0], n + ys[0]])))
    w = X.bit_length()
    cof_bits = (n - 1) * w
    low, cof_mask = (1 << w) - 1, (1 << cof_bits) - 1
    mu = mobius_sieve(X)
    sqf = np.flatnonzero(mu)  # the squarefree m <= X, ascending
    sqf_mu = mu[sqf]
    sqf_upto = np.cumsum(mu != 0)  # sqf_upto[Z] = #{squarefree m <= Z}
    rows: dict[bytes, int] = {}  # n sorted (coeff << w | limit), 0 if no limit
    row_type = np.dtype((np.void, 8 * n))
    unpack = struct.Struct(f"={n}q").unpack

    def expand(leaves: np.ndarray, mult: np.ndarray) -> None:
        Z, pairs = leaves[:, 0], leaves[:, 1:]
        v, c = pairs >> cof_bits, pairs & cof_mask
        b = X // v
        size = sqf_upto[Z]  # leaf i expands into size[i] rows
        lo = 0
        while lo < len(Z):  # at most _TORSOR_CAP rows at a time, or one leaf's
            k, idx, pos = _spread(size[lo:], _TORSOR_CAP)
            idx += lo
            m = sqf[pos]
            q = m[:, None] // np.gcd(m[:, None], v[idx])
            lim = b[idx] // q
            keys = np.where(lim > 0, c[idx] * q << w | lim, 0)
            keys.sort(axis=1)
            keys, wts = _distinct_rows(keys, mult[idx] * sqf_mu[pos] * (Z[idx] // m))
            nz = wts != 0
            for key, wt in zip(keys[nz].view(row_type).ravel().tolist(), wts[nz].tolist()):
                rows[key] = rows.get(key, 0) + wt
            lo += k

    stack = [(0, np.ones((1, width), dtype=np.int32))]
    while stack:
        i, z = stack.pop()
        mem, cols = steps[i]
        k, idx, rank = _spread(X // z[:batch, mem].max(axis=1), batch)
        if k < len(z):
            stack.append((i, z[k:].copy()))  # frees the rows taken
        if i and len(idx) == k:  # every cap is 1: v = 1 leaves the rows as they are
            z = z[:k]
        else:
            y = z[:k, :n].astype(np.int64)
            incomparable = np.lcm.reduce(y, axis=1) // np.gcd.reduce(y[:, mem], axis=1)
            v = rank + 1
            keep = np.gcd(v, incomparable[idx]) == 1
            if not i:
                keep &= v % shards == shard
            z, v = z[idx[keep]], v[keep]
            z[:, cols] *= v[:, None]
        if i + 1 < len(steps):
            if len(z):
                stack.append((i + 1, z))
            continue
        y, single = z[:, :n].astype(np.int64), z[:, n:].astype(np.int64)
        # the z's with |h| >= 2 multiply to lcm(y) / prod_j z_{2^{j-1}},
        # and those containing j to y_j / z_{2^{j-1}}
        big = np.lcm.reduce(y, axis=1) // single.prod(axis=1)
        pairs = single << cof_bits | big[:, None] * single // y
        pairs.sort(axis=1)
        leaves = np.column_stack([X // y.max(axis=1), pairs])
        expand(*_distinct_rows(leaves, np.ones(len(z), dtype=np.int64)))
    total = 0
    for key, wt in rows.items():
        if wt:  # rows whose weights cancel drop out
            active = [p for p in unpack(key) if p]
            total += wt * count_zero_sum_boxes([p >> w for p in active],
                                               [p & low for p in active])
    return total


_SHARD_FUNCS = {"direct": _direct_shard, "moebius": _moebius_shard,
                "torsor": _torsor_shard}


def _run_shard(task: tuple[str, int, int, int, int]) -> int:
    method, n, X, shard, shards = task
    return _SHARD_FUNCS[method](n, X, shard, shards)


# ------------------------------- reports -------------------------------

@dataclass(frozen=True)
class CountReport:
    n: int
    B: float
    method: str
    count: int
    seconds: float
    ratio: float | None

    @property
    def log_exponent(self) -> int:
        return (1 << self.n) - self.n - 1


def _env_workers() -> int:
    """Worker processes requested by HYPERCOUNT_WORKERS (unset or empty: 1)."""
    text = os.environ.get(WORKERS_ENV) or "1"
    try:
        workers = int(text)
    except ValueError:
        raise ContractViolation(
            f"{WORKERS_ENV} must be an integer, got {text!r}") from None
    if workers < 1:
        raise ContractViolation(f"{WORKERS_ENV} must be >= 1, got {workers}")
    return workers


def _work_estimate(n: int, X: int) -> int:
    """Cells a count enumerates, roughly: C(X+n-1, n) sorted y tuples,
    each a kernel call over (2X+1)^(n-2) outer cells, or at n = 3 one
    closed-form call worth _CLOSED_FORM_CELLS cells."""
    tuples = math.comb(X + n - 1, n)
    if n == 3:
        return tuples * _CLOSED_FORM_CELLS
    return tuples * (2 * X + 1) ** (n - 2)


def count_points(n: int, B: float | Fraction, method: str = "direct",
                 shards: int = 1) -> CountReport:
    """Number of qualifying points, N(B), with the chosen pipeline.

    B may be an int, a float or a Fraction; it is floored exactly.  A
    negative B is a ContractViolation, and a count whose work estimate
    exceeds ``_WORK_BUDGET`` cells, or a torsor count whose fields do not
    pack into int64, raises ResourceLimit before it starts.
    All pipelines return identical values; ``shards`` partitions the
    outermost enumeration deterministically (the aggregate is independent
    of the partition).  Set HYPERCOUNT_WORKERS to run shards in parallel
    processes, at most one per shard that can hold a tuple and per CPU.
    """
    if method not in METHODS:
        raise ContractViolation(f"unknown method {method!r}")
    if n < 3:
        raise ContractViolation("n must be >= 3")
    if shards < 1:
        raise ContractViolation("shards must be >= 1")
    if B < 0:
        raise ContractViolation("height bound must be nonnegative")
    X = int_nth_root(math.floor(B), n)
    # (2X+1)^(n-2) >= 2^(n-2), so large n is over budget without the product
    if X and (n - 2 >= _WORK_BUDGET.bit_length()
              or _work_estimate(n, X) > _WORK_BUDGET):
        raise ResourceLimit(f"count with n = {n}, X = {X} exceeds the "
                            f"budget of {_WORK_BUDGET:.0e} enumerated cells")
    if method == "torsor" and not _packs_in_int64(n, X):
        raise ResourceLimit(f"torsor count with n = {n}, X = {X} does not "
                            f"pack into int64")
    # a shard above X holds no t <= X (nor any first-level v <= X)
    tasks = [(method, n, X, s, shards) for s in range(min(shards, X + 1))] if X else []
    workers = min(_env_workers(), len(tasks), os.cpu_count() or 1)
    t0 = time.perf_counter()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_shard, tasks))
    else:
        parts = [_run_shard(t) for t in tasks]
    count = (1 << (n - 1)) * sum(parts)
    seconds = time.perf_counter() - t0
    exponent = (1 << n) - n - 1
    ratio = None
    if B >= 2:
        try:
            ratio = count / (B * math.log(B) ** exponent)
        except OverflowError:  # log(B)^exponent passes the float range (n >= 9)
            ratio = math.exp(math.log(count) - math.log(B)
                             - exponent * math.log(math.log(B)))
    return CountReport(n, float(B), method, count, seconds, ratio)
