"""Brute-force point enumeration over small prime fields of three
varieties built from blocks of projective coordinates indexed by the
nonempty subsets of {1, ..., n}:

  C   one coordinate block Y^(h) in P^{s(h)-1} per subset h, subject to
      the compatibility equations Y^(h)_k Y^(l)_m = Y^(h)_m Y^(l)_k for
      l strictly inside h and k, m members of l;
  B0  paired blocks (Y^(h); Z^(h)) with the same compatibility on each
      side plus the per-block coupling Y^(h)_i Z^(h)_i all equal;
  X0  B0 together with an ambient point (x, y) in P^{2n-1} satisfying
      x . Z^(top) = 0 and y parallel to Y^(top).

Counts use canonical projective representatives (first nonzero
coordinate 1).  Blocks of size one are single points and never
constrain anything, so only blocks of size >= 2 are enumerated; the
depth-first search assigns blocks superset-first, so every new block is
solved from the projections of the blocks above it.  Couplings and
fibers are found by brute force, and ``check_point`` re-derives every
equation independently of the search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ContractViolation, ResourceLimit
from .factorization import members, weight

Blocks = dict[int, tuple[int, ...]]

BUDGET = {"C": (4, 7), "B0": (3, 5), "X0": (3, 3)}


@dataclass(frozen=True)
class VarietyCountFp:
    kind: str
    n: int
    p: int
    count: int


def projective_points(k: int, p: int) -> list[tuple[int, ...]]:
    """Canonical representatives of P^{k-1}(F_p): first nonzero entry 1."""
    pts: list[tuple[int, ...]] = []
    for lead in range(k):
        for rest in itertools.product(range(p), repeat=k - 1 - lead):
            pts.append((0,) * lead + (1,) + rest)
    return pts


def _block_order(n: int) -> list[int]:
    """Subsets of size >= 2, supersets first (descending index works:
    a strict superset is numerically larger)."""
    return sorted((h for h in range(1, 1 << n) if weight(h) >= 2), reverse=True)


def _compatible_blocks(n: int, p: int,
                       cands: dict[int, list[tuple[int, ...]]]) -> Iterator[Blocks]:
    """Every choice of one block per h from its candidates ``cands[h]``
    that satisfies the compatibility equations, as {h: block} maps.

    The equations make block h proportional to the projection of each
    strict superset onto the members of h: a nonzero projection, scaled
    to lead 1, is the only block h can take, two different ones leave it
    none, and only when every projection is zero does h range over
    ``cands[h]``."""
    order = _block_order(n)
    mem = {h: members(h, n) for h in order}
    # (superset, positions of h's members inside it), strict supersets only
    supers = {h: [(g, [mem[g].index(j) for j in mem[h]]) for g in order
                  if g != h and (g & h) == h] for h in order}
    assigned: Blocks = {}

    def dfs(i: int) -> Iterator[Blocks]:
        if i == len(order):
            yield dict(assigned)
            return
        h = order[i]
        forced = set()
        for g, pos in supers[h]:
            proj = [assigned[g][k] for k in pos]
            lead = next(filter(None, proj), 0)
            if lead:
                inv = pow(lead, -1, p)
                forced.add(tuple(v * inv % p for v in proj))
        choices = ([Y for Y in forced if len(forced) == 1 and Y in cands[h]]
                   if forced else cands[h])
        for Y in choices:
            assigned[h] = Y
            yield from dfs(i + 1)
            del assigned[h]

    yield from dfs(0)


def coxeter_points(n: int, p: int) -> Iterator[Blocks]:
    """All points of the compatibility variety as {h: Y-block} maps."""
    return _compatible_blocks(n, p, {h: projective_points(weight(h), p)
                                     for h in _block_order(n)})


def _coupled_blocks(Y: tuple[int, ...], p: int) -> list[tuple[int, ...]]:
    """Candidate partner blocks Z with Y_i Z_i constant across the block."""
    out = []
    for Z in projective_points(len(Y), p):
        prods = {(Y[i] * Z[i]) % p for i in range(len(Y))}
        if len(prods) == 1:
            out.append(Z)
    return out


def paired_points(n: int, p: int) -> Iterator[tuple[Blocks, Blocks]]:
    """Points of the paired variety: (Y-blocks, Z-blocks)."""
    for yblocks in coxeter_points(n, p):
        cands = {h: _coupled_blocks(Y, p) for h, Y in yblocks.items()}
        for zblocks in _compatible_blocks(n, p, cands):
            yield yblocks, zblocks


def fiber_points(n: int, p: int, yblocks: Blocks,
                 zblocks: Blocks) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Ambient points (x, y) in P^{2n-1}(F_p) over one base point."""
    top = (1 << n) - 1
    Ytop, Ztop = yblocks[top], zblocks[top]
    for xy in projective_points(2 * n, p):
        x, y = xy[:n], xy[n:]
        if sum(x[i] * Ztop[i] for i in range(n)) % p:
            continue
        if any((y[i] * Ytop[j] - y[j] * Ytop[i]) % p
               for i in range(n) for j in range(i + 1, n)):
            continue
        yield x, y


def enumerate_variety(kind: str, n: int, p: int) -> VarietyCountFp:
    """Exact point count of one of the three varieties over F_p."""
    if kind not in BUDGET:
        raise ContractViolation(f"unknown variety kind {kind!r}")
    if n < 2:
        raise ContractViolation("n must be >= 2")
    n_max, p_max = BUDGET[kind]
    if n > n_max or p > p_max:  # first, as the primality test below is O(p)
        raise ResourceLimit(
            f"kind {kind} supports n <= {n_max}, p <= {p_max}")
    if p < 2 or any(p % q == 0 for q in range(2, p)):
        raise ContractViolation("p must be prime")
    if kind == "C":
        count = sum(1 for _ in coxeter_points(n, p))
    elif kind == "B0":
        count = sum(1 for _ in paired_points(n, p))
    else:
        count = 0
        for yb, zb in paired_points(n, p):
            count += sum(1 for _ in fiber_points(n, p, yb, zb))
    return VarietyCountFp(kind, n, p, count)


# --------------------------- independent checker ---------------------------

def check_compatibility(blocks: Blocks, n: int, p: int) -> bool:
    """Re-verify every cross-product equation on a block assignment,
    written directly from the definitions (used to audit enumerations)."""
    for h, bh in blocks.items():
        memh = members(h, n)
        if len(bh) != len(memh):
            return False
        if all(v % p == 0 for v in bh):
            return False
        for l, bl in blocks.items():
            if l == h or (l & h) != l:
                continue
            meml = members(l, n)
            posh = {j: i for i, j in enumerate(memh)}
            for a in range(len(meml)):
                for b in range(len(meml)):
                    k, m = meml[a], meml[b]
                    if (bh[posh[k]] * bl[b] - bh[posh[m]] * bl[a]) % p:
                        return False
    return True


def check_point(kind: str, n: int, p: int, yblocks: Blocks,
                zblocks: Blocks | None = None,
                xy: tuple[Sequence[int], Sequence[int]] | None = None) -> bool:
    """Full defining-equation audit of an enumerated point."""
    if not check_compatibility(yblocks, n, p):
        return False
    if kind == "C":
        return True
    assert zblocks is not None
    if not check_compatibility(zblocks, n, p):
        return False
    for h in yblocks:
        Y, Z = yblocks[h], zblocks[h]
        prods = {(Y[i] * Z[i]) % p for i in range(len(Y))}
        if len(prods) != 1:
            return False
    if kind == "B0":
        return True
    assert xy is not None
    x, y = xy
    top = (1 << n) - 1
    Ytop, Ztop = yblocks[top], zblocks[top]
    if sum(xi * zi for xi, zi in zip(x, Ztop)) % p:
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if (y[i] * Ytop[j] - y[j] * Ytop[i]) % p:
                return False
    return True
