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
from typing import Callable, Iterator, Sequence

import numpy as np

from .constants import _sorted_columns
from .errors import ContractViolation, ResourceLimit
from .factorization import _level_columns
from .lattice import count_zero_sum_batch

WORKERS_ENV = "HYPERCOUNT_WORKERS"

METHODS = ("direct", "moebius", "torsor")

# cells a count may enumerate (see _work_estimate): it admits n = 3 up to
# B ~ 3e8, n = 4 up to B ~ 1.5e7 and n = 5 up to B = 23^5, and was set to
# refuse what would run for more than five to ten minutes at 0.03 us a
# cell (see below).  At n >= 4 that price is far above the cost: on a
# 2-vCPU x86 host, n = 4, B = 1.4e7 took 2.9, 3.0 and 1.8 s with direct,
# moebius and torsor, and n = 5, B = 23^5 took 5.4, 5.2 and 2.1 s.
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
# int64 entries (2n + 1 fields a row) and expands its leaves into at most
# _TORSOR_CAP kernel rows at a time.  Peak RSS, one pass in one process
# after direct and moebius on a 2-vCPU x86 host: at n = 3, B = 2e5,
# 32.2-32.4 MB with 4, 8 or 12 * _TORSOR_CAP entries a batch and
# 32.4-32.5 MB with 16 or 24; at n = 4, B = 1.6e5, 31.9-32.1 and
# 32.1-32.2 MB; the time alike within noise.  The kernel rows are not
# capped: each shard merges them in one dict, and sends it to the batched
# kernel _TORSOR_CAP rows at a time once its search ends.
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


def _distinct_rows(keys: Sequence[np.ndarray],
                   weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows held field by field in keys[0], keys[1], ..., as
    the columns of a 2-D int64 array in lexicographic order, with the
    weights of equal rows added up: ``np.unique(axis=1)`` of the stacked
    fields by one lexsort and a boundary diff, at a fraction of its cost."""
    order = np.lexsort(keys[::-1])
    keys = np.array(keys)[:, order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.logical_or.reduce(keys[:, 1:] != keys[:, :-1])
    starts = new.nonzero()[0]
    return keys[:, starts], np.add.reduceat(weights[order], starts)


def _packs_in_int64(n: int, X: int) -> bool:
    """Whether the torsor's fields and packed rows fit int64 (see _torsor_shard)."""
    return (n + 1) * X.bit_length() <= 62


def _spread(size: np.ndarray, limit: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Batching over items that each expand into size[i] >= 0 slots: the
    longest prefix of items with at most ``limit`` slots in all, or the
    first item alone.  Returns its length k and, for each of its slots in
    order, the slot's item and its rank 0, 1, ... within that item."""
    end = size[:limit].cumsum()
    k = max(1, int(end.searchsorted(limit, "right")))
    size = size[:k]
    idx = np.arange(k).repeat(size)
    return k, idx, np.arange(len(idx)) - (end[:k] - size)[idx]


def _torsor_shard(n: int, X: int, shard: int, shards: int) -> int:
    """Reduced-tuple enumeration, one nondecreasing y per S_n orbit.

    The search sets z_h for h != 2^n - 1 level by level, in descending
    subset size and ascending h inside a size, so the singletons {j}
    come last, j = 1, ..., n.  A batch holds its rows as columns of
    2n + 1 int64 fields: y_1 .. y_n (the products of the z_h set so far
    over the h containing j), the singletons z_{2^0} .. z_{2^{n-1}}, and
    P, the product of every z set so far.  One numpy step sets the next
    z_h on a batch: it repeats each row once per candidate v, keeps the
    v coprime to the product of the z's set so far that are incomparable
    with h (and v % shards == shard on the first level), and multiplies
    v into y_j for j in h, into P, and into z_h if h is a singleton.
    Those z's have |l| >= |h|, so the incomparable ones are those not
    containing h; the primes of a reduced tuple divide a chain of z's,
    so those containing h multiply to gcd_{j in h} y_j, and the product
    sought is P over that gcd.

    v runs up to the cap X // max_{j in h} y_j, from 1, or for a
    singleton {j}, j > 1, from ceil(y_{j-1} / y_j): y_{j-1} is final
    then, so the leaves are the reduced tuples with y nondecreasing, one
    per S_n orbit, and a row whose range is empty drops out.  Nothing a
    leaf yields depends on the order of its coordinates and z <-> y is
    equivariant, so each leaf weighs the size of its orbit,
    _multiplicities(y).

    The batches are walked depth first on an explicit stack: a step
    takes the rows of the top batch whose candidates fit in one batch
    and leaves a copy of the rest on the stack.  A batch holds at most
    12 * _TORSOR_CAP entries, or one row's candidates (at most X rows),
    and the stack at most one batch per level, so memory is bounded
    whatever X.

    The top variable carries no coprimality constraint, so its range
    [1, Z], Z = X // y_n, closes in one divisor sum over squarefree m of
    mu(m) * floor(Z/m) times a zero-sum count of x' in a box, with
    coefficients cof_j * m / gcd(m, z_{2^{j-1}}); cof_j, the product of
    the z_h with |h| >= 2 and j not in h, is P over y_j times the other
    singletons.  So each leaf expands into rows of sorted (coeff, limit)
    pairs, at most _TORSOR_CAP rows at a time.  Equal rows add up their
    weights in one dict per shard keyed by the row's bytes; after the
    search the rows are popped from it and sent to count_zero_sum_batch,
    _TORSOR_CAP rows a batch, so each is counted once and the memory of
    the popped rows frees as they go.  The dict takes about 128 B a row,
    and at n = 3 the rows grow about as X^2.3: 837,888 rows at X = 400
    peaked at 140 MB; the budget's top, X = 668, would hold about 2.8M.

    Every field but P is <= X, and P = lcm(y) <= X^n.  A kernel row packs
    each (coeff, limit) pair, a limit <= X < 2^w and a coeff <= X^n, into
    (n + 1) w bits of int64, which count_points checks (_packs_in_int64).
    """
    fields = 2 * n + 1
    batch = max(1, 12 * _TORSOR_CAP // fields)
    steps = []  # per level: the y_j for j in h, the fields v multiplies, y_{j-1} or None
    for _, mem, _ in _level_columns(n)[1:]:
        for ys in mem:  # the member columns j - 1 of each h, ascending h
            j = ys[0]
            steps.append((ys, np.append(ys, fields - 1), None) if len(ys) > 1 else
                         (ys, np.array([j, n + j, fields - 1]), j - 1 if j else None))
    w = X.bit_length()
    low = (1 << w) - 1
    mu = mobius_sieve(X)
    sqf = np.flatnonzero(mu)  # the squarefree m <= X, ascending
    sqf_mu = mu[sqf]
    sqf_upto = np.cumsum(mu != 0)  # sqf_upto[Z] = #{squarefree m <= Z}
    rows: dict[bytes, int] = {}  # n sorted (coeff << w | limit), 0 if no limit
    row_type = np.dtype((np.void, 8 * n))

    def expand(v: np.ndarray, cof: np.ndarray, Z: np.ndarray, mult: np.ndarray) -> None:
        b = X // v
        size = sqf_upto[Z]  # leaf i expands into size[i] rows
        lo = 0
        while lo < len(Z):  # at most _TORSOR_CAP rows at a time, or one leaf's
            k, idx, pos = _spread(size[lo:], _TORSOR_CAP)
            idx += lo
            m = sqf[pos]
            q = m // np.gcd(m, v[:, idx])
            lim = b[:, idx] // q
            keys, wts = _distinct_rows(
                _sorted_columns(np.where(lim > 0, cof[:, idx] * q << w | lim, 0)),
                mult[idx] * sqf_mu[pos] * (Z[idx] // m))
            nz = wts != 0
            packed = np.ascontiguousarray(keys[:, nz].T).view(row_type).ravel()
            for key, wt in zip(packed.tolist(), wts[nz].tolist()):
                rows[key] = rows.get(key, 0) + wt
            lo += k

    stack = [(0, np.ones((fields, 1), dtype=np.int64))]
    while stack:
        i, z = stack.pop()
        mem, cols, prev = steps[i]
        head = z[:, :batch]
        y = head[mem]
        start = 1 if prev is None else -(-head[prev] // y[0])
        size = np.maximum(X // np.maximum.reduce(y) - start + 1, 0)
        k, idx, rank = _spread(size, batch)
        if k < z.shape[1]:
            stack.append((i, z[:, k:].copy()))  # frees the rows taken
        v = rank + (start if prev is None else start[idx])
        if i and (v == 1).all():  # v = 1 leaves the rows as they are
            z = head[:, idx]
        else:
            keep = np.gcd(v, (head[-1] // np.gcd.reduce(y))[idx]) == 1
            if not i:
                keep &= v % shards == shard
            z, v = head[:, idx[keep]], v[keep]
            z[cols] *= v
        if i + 1 < len(steps):
            if z.shape[1]:
                stack.append((i + 1, z))
            continue
        y, single = z[:n], z[n:-1]
        expand(single, z[-1] // np.multiply.reduce(single) * single // y,
               X // y[-1], _multiplicities(y.T))
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
    log_ratio: float | None  # log(ratio), finite where ratio underflows to 0.0

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
    ratio = log_ratio = None
    if B >= 2:
        log_ratio = (math.log(count) - math.log(B) - exponent * math.log(math.log(B))
                     if count else None)
        try:
            ratio = count / (B * math.log(B) ** exponent)
        except OverflowError:  # log(B)^exponent passes the float range (n >= 9)
            ratio = math.exp(log_ratio)
    return CountReport(n, float(B), method, count, seconds, ratio, log_ratio)
