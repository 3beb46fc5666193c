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
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .errors import ContractViolation, ResourceLimit
from .factorization import _weight_levels
from .lattice import count_zero_sum_batch

WORKERS_ENV = "HYPERCOUNT_WORKERS"

METHODS = ("direct", "moebius", "torsor")

# cells a count may enumerate (see _work_estimate): it admits n = 3 up to
# B ~ 3e8, n = 4 up to B ~ 1.5e7 and n = 5 up to B = 23^5, and was set to
# refuse what would run for more than five to ten minutes at 0.03 us a
# cell (see below).  At n >= 4 that price is far above the cost: on a
# 2-vCPU x86 host, n = 4, B = 1.4e7 took 2.7, 3.3 and 16 s with direct,
# moebius and torsor, and n = 5, B = 23^5 took 7.6, 5.5 and 10 s.
_WORK_BUDGET = 10 ** 10

# An n = 3 box closes in floor sums, so an n = 3 count takes one closed-form
# triple row per sorted tuple (and divisor) instead of enumerating cells.
# The price of 200 cells a tuple dates from the per-box kernel: measured on
# a 2-vCPU x86 host, direct at n = 3, B = 1e6 spent about 6.8 us a tuple
# and the numpy path at n = 4 about 0.03 us a cell.  The batched kernel
# takes 2 to 3 us a tuple there (0.35 and 0.55 s for 171,700 tuples in
# two single runs).  The price stays: what bounds the largest admitted
# n = 3 count is the torsor's row dict, about 0.4 GB at the top of the
# budget, not time.
_CLOSED_FORM_CELLS = 200

# direct and moebius build the tuples of a shard at most _BOX_ROWS at a
# time and send their divisor rows to the batched kernel at most _BOX_ROWS
# a batch; larger batches raise the peak RSS and save no time (see
# lattice._CHUNK)
_BOX_ROWS = 1 << 11

# The torsor search steps through batches of at most 12 * _TORSOR_CAP
# entries (rows of 2n int32 columns) and expands its leaves into at most
# _TORSOR_CAP kernel rows at a time.  Peak RSS grows with the batches and
# time falls as they grow (every step costs a fixed number of numpy calls).
# Measured at n = 3, B = 2e5 in one process after direct and moebius on a
# 2-vCPU x86 host: 33.5 MB with 8 * _TORSOR_CAP entries a batch, 33.6 MB
# with 12, 34.0 MB with 16 and 33.2 MB with the recursive search this
# replaced; batches of 8 made the tests' tiny caps about 0.3 s slower.
# The kernel rows are not capped: each shard merges them in one dict, and
# sends it to the batched kernel _TORSOR_CAP rows at a time once its search
# ends.
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

def _sorted_table(k: int, T: int) -> np.ndarray:
    """Every nondecreasing k-tuple over [1, T] (T >= 1) as an int64 row,
    ordered by its last, largest entry, so that the tuples with entries
    <= t are the first C(t + k - 1, k) rows."""
    rows = np.zeros((1, 0), dtype=np.int64)
    for i in range(k):  # rows holds the i-tuples
        rows = np.concatenate([
            np.column_stack([rows[:math.comb(t + i - 1, i)],
                             np.full(math.comb(t + i - 1, i), t)])
            for t in range(1, T + 1)])
    return rows


def _tuple_chunks(n: int, T: int, shard: int, shards: int) -> Iterator[np.ndarray]:
    """The nondecreasing tuples in [1, T]^n whose maximum t satisfies
    t % shards == shard, as int64 rows, _BOX_ROWS at a time: the tuples
    of consecutive t (the maximum last) are joined up to the cap, and
    those of one t beyond it are split."""
    heads = _sorted_table(n - 1, T)
    pieces, rows = [], 0
    # the maximum is outermost, so a shard steps over the other maxima
    for t in range(shard or shards, T + 1, shards):
        count = math.comb(t + n - 2, n - 1)
        for lo in range(0, count, _BOX_ROWS):
            part = heads[lo:min(count, lo + _BOX_ROWS)]
            if rows + len(part) > _BOX_ROWS:
                yield np.concatenate(pieces)
                pieces, rows = [], 0
            pieces.append(np.column_stack([part, np.full(len(part), t)]))
            rows += len(part)
    if pieces:
        yield np.concatenate(pieces)


def _multiplicities(y: np.ndarray) -> np.ndarray:
    """Number of distinct permutations of each sorted row of y, built up
    over its prefixes: appending an entry that makes a run of r equal
    entries multiplies the count by (length / r).  Every intermediate is
    at most r times a count, so it fits int64 whenever the counts do:
    they are at most n!, which fits for n <= 20, and the work budget
    admits n > 14 only with X = 1, where every count is 1."""
    total = np.ones(len(y), dtype=np.int64)
    run = np.ones(len(y), dtype=np.int64)
    for i in range(1, y.shape[1]):
        run = np.where(y[:, i] == y[:, i - 1], run + 1, 1)
        total = total * (i + 1) // run
    return total


# ------------------------------- pipelines -------------------------------

def _tuple_boxes(n: int, X: int, shard: int, shards: int, table: np.ndarray,
                 span: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]) -> int:
    """Sum over the shard's sorted tuples y of mult(y) * sign * A(d, X // k),
    where d_i = lcm(y) / y_i, A(d, T) = #{alpha : |alpha_i| <= T,
    sum d_i alpha_i = 0}, and (k, sign) runs over the rows
    table[start:start + size] for (start, size) = span(y) (size >= 1).
    The rows go to the kernel at most _BOX_ROWS a batch."""
    total = 0
    for y in _tuple_chunks(n, X, shard, shards):
        start, size = span(y)
        d = np.lcm.reduce(y, axis=1)[:, None] // y
        mult = _multiplicities(y)
        lo = 0
        while lo < len(y):  # at most _BOX_ROWS rows at a time, or one tuple's
            taken, idx, rank = _spread(size[lo:], _BOX_ROWS)
            idx += lo
            k, sign = table[start[idx] + rank].T
            total += count_zero_sum_batch(d[idx], np.repeat((X // k)[:, None], n, axis=1),
                                          mult[idx] * sign)
            lo += taken
    return total


def _direct_shard(n: int, X: int, shard: int, shards: int) -> int:
    """Primitive x per tuple: Moebius inversion over the squarefree
    divisors k of gcd(y), each a box with limit X // k."""
    divisors = [[]] + [squarefree_divisors(g) for g in range(1, X + 1)]
    size = np.array([len(row) for row in divisors])
    start = size.cumsum() - size
    table = np.array([pair for row in divisors for pair in row], dtype=np.int64)

    def span(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = np.gcd.reduce(y, axis=1)
        return start[g], size[g]

    return _tuple_boxes(n, X, shard, shards, table, span)


def _moebius_shard(n: int, X: int, shard: int, shards: int) -> int:
    """Sum over squarefree k of mu(k) times the unrestricted count with
    limit T = X // k, whose tuples are those with maximum t <= T: for a
    tuple with maximum t, the squarefree k <= X // t."""
    mu = mobius_sieve(X)
    sqf = np.flatnonzero(mu)  # the squarefree k <= X, ascending
    upto = np.cumsum(mu != 0)  # upto[T] = #{squarefree k <= T}
    table = np.column_stack([sqf, mu[sqf]])
    return _tuple_boxes(n, X, shard, shards, table, lambda y: (
        np.zeros(len(y), dtype=np.int64), upto[X // y[:, -1]]))


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
    and after the search the distinct rows are popped from it and sent
    to count_zero_sum_batch, _TORSOR_CAP rows a batch, so each is counted
    once (rows whose weights cancel drop out there) and the memory of the
    popped rows frees as they go.  The dict takes about 128 B a row, and
    at n = 3 the rows grow about as X^2.3: 837,888 rows at X = 400 peaked
    at 140 MB, and the budget's top, X = 668, would hold about 2.8M.

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
    while rows:  # popped _TORSOR_CAP at a time, so the rows free as they go
        keys, wts = zip(*(rows.popitem() for _ in range(min(len(rows), _TORSOR_CAP))))
        packed = np.frombuffer(b"".join(keys), dtype=np.int64).reshape(-1, n)
        total += count_zero_sum_batch(packed >> w, packed & low, np.array(wts))
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


def _pool(workers: int):
    """A pool of ``workers`` shard processes.  The import lives here:
    loading multiprocessing costs tens of milliseconds that a serial
    count never needs."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def _work_estimate(n: int, X: int) -> int:
    """Cells a count enumerates, roughly: C(X+n-1, n) sorted y tuples,
    each a box of (2X+1)^(n-2) cells outside its two largest
    coordinates, or at n = 3 one closed-form row priced at
    _CLOSED_FORM_CELLS cells.  At n >= 4 this prices far more than the
    kernel enumerates: it closes three coordinates, takes half of the
    rest, and steps one of those through a single residue class only."""
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
        with _pool(workers) as pool:
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
