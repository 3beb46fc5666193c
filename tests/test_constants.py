import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hypercount import constants, verify
from hypercount.constants import (AssemblyConfig, MCEstimate,
                                  QuadratureEstimate, assemble_constant,
                                  beta_tilde, euler_product,
                                  eulerian_polynomial, excedance_polynomial,
                                  local_density, local_factor_from_graph,
                                  mu_infinity, mu_infinity_scale,
                                  polytope_constraints, polytope_volume,
                                  free_indices, zeta_value, _cube_slab_vec)
from hypercount.errors import ContractViolation, ResourceLimit
from hypercount.factorization import bit
from hypercount.lattice import slab_volume
from hypercount.toric import enumerate_variety

from oracles import (beta_inner_volume, dilation_volume_n3, eulerian_by_series,
                     primes_by_sieve)

# closed form of the n = 3 weighted-slab integral: split off the region
# where the band covers the whole square and integrate the corner-cut
# term exactly (dilogarithm at 2 contributes pi^2/6)
BETA3 = 4 * math.log(2) + math.pi ** 2 / 6 - 0.5


def test_eulerian_examples_and_recurrence():
    assert eulerian_polynomial(1) == [1]
    assert eulerian_polynomial(2) == [1, 1]
    assert eulerian_polynomial(3) == [1, 4, 1]
    assert eulerian_polynomial(4) == [1, 11, 11, 1]
    assert eulerian_polynomial(5) == [1, 26, 66, 26, 1]


@pytest.mark.parametrize("n", range(1, 9))
def test_eulerian_matches_series_closed_form(n):
    assert eulerian_polynomial(n) == eulerian_by_series(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_eulerian_shape(n):
    res = verify.check_eulerian_shape((n,))
    assert res.ok, res.detail


def test_excedance_examples_and_equality():
    assert excedance_polynomial(2) == [1, 1]
    assert excedance_polynomial(3) == [1, 4, 1]
    assert excedance_polynomial(5) == [1, 26, 66, 26, 1]
    res = verify.check_eulerian_recurrence()
    assert res.ok, res.detail
    with pytest.raises(ResourceLimit):
        excedance_polynomial(9)


def test_local_factor_from_graph():
    res = verify.check_local_factor_graph()
    assert res.ok, res.detail
    with pytest.raises(ResourceLimit):
        local_factor_from_graph(4)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_zeta_against_mpmath(n):
    value, err = zeta_value(n)
    assert err <= 1e-12
    assert abs(value - float(mpmath.zeta(n))) <= err


def test_local_density_examples():
    assert local_density(3, 2) == Fraction(91, 512)
    assert local_density(3, 2) == (Fraction(1, 2) ** 4 * Fraction(13, 4)
                                   * Fraction(7, 8))
    # the same factor through the finite-field count
    c32 = enumerate_variety("C", 3, 2).count
    assert c32 == 13
    assert local_density(3, 2) == (Fraction(1, 2) ** 4 * Fraction(7, 8)
                                   * Fraction(c32, 4))


def test_euler_product_examples_and_monotonicity():
    res = verify.check_euler_partials((2, 3, 5, 7, 11, 13, 100))
    assert res.ok, res.detail
    for p in (2, 3, 5, 7, 11):
        assert 0 < float(local_density(3, p)) < 1
        assert 0 < float(local_density(4, p)) < 1


def test_euler_product_tail_shrinks():
    res = verify.check_tail_enclosure()
    assert res.ok, res.detail


SEG = constants._SIEVE_SEGMENT


@pytest.mark.parametrize("segment", [SEG, 7, 64])
def test_segmented_sieve_matches_plain_sieve(monkeypatch, segment):
    monkeypatch.setattr(constants, "_SIEVE_SEGMENT", segment)
    limits = {2, 3, segment - 1, segment, segment + 1, 1000} - {1}
    for limit in sorted(limits):
        segments = list(constants._prime_segments(limit))
        assert len(segments) == limit // segment + 1
        for k, primes in enumerate(segments):
            assert primes.dtype == np.int64
            assert ((k * segment <= primes) & (primes < (k + 1) * segment)).all()
        assert np.concatenate(segments).tolist() == primes_by_sieve(limit)


# (value, lower, upper) as float.hex, computed before the sieve was
# segmented, when it ran over [0, p_safe] in one array; at n = 4 the
# limit 10 lies below p_safe = 39, so the primes 11..37 are folded in
EULER_PINNED = {
    (3, 10 ** 3): ("0x1.5082b147ef904p-5", "0x1.429aaeda07ed1p-5",
                   "0x1.5f04293519b1ep-5"),
    (3, 2 ** 18 - 1): ("0x1.5020990fbeea8p-5", "0x1.5012beed4bfeap-5",
                       "0x1.502e73c45b7ccp-5"),
    (3, 2 ** 18): ("0x1.5020990fbeea8p-5", "0x1.5012bef0c2751p-5",
                   "0x1.502e73c0e4bd4p-5"),
    (3, 2 ** 18 + 1): ("0x1.5020990fbeea8p-5", "0x1.5012bef438e98p-5",
                       "0x1.502e73bd6dffcp-5"),
    (3, 10 ** 6): ("0x1.50206e1f2dd0cp-5", "0x1.501ccc78f1e7bp-5",
                   "0x1.50240fcf75080p-5"),
    (4, 10): ("0x1.87314cbae4767p-15", "0x1.1144e8664617bp-72",
              "0x1.1dead6ac7ba0cp+40"),
    (4, 10 ** 3): ("0x1.aa0d09957fb23p-17", "0x1.76b4554e10244p-19",
                   "0x1.e46efca52d463p-15"),
    (4, 2 ** 18 - 1): ("0x1.a719ebae5482ap-17", "0x1.a4a9dd8a6c814p-17",
                       "0x1.a98d979bc56bbp-17"),
    (4, 2 ** 18): ("0x1.a719ebae5482ap-17", "0x1.a4a9de25fcc36p-17",
                   "0x1.a98d96fe6644ap-17"),
    (4, 2 ** 18 + 1): ("0x1.a719ebae5482ap-17", "0x1.a4a9dec18cb7bp-17",
                       "0x1.a98d9661076cdp-17"),
    (4, 10 ** 6): ("0x1.a718a1609e495p-17", "0x1.a674b1147ae07p-17",
                   "0x1.a7bcd14b04e8dp-17"),
}


@pytest.mark.parametrize("key", list(EULER_PINNED), ids=str)
def test_euler_product_matches_pinned_bits(monkeypatch, key):
    n, limit = key
    # many short segments give the same bits as one long one
    for segment in (SEG, 7) if limit <= 10 ** 3 else (SEG,):
        monkeypatch.setattr(constants, "_SIEVE_SEGMENT", segment)
        e = euler_product(n, limit)
        assert (e.value.hex(), e.lower.hex(), e.upper.hex()) == EULER_PINNED[key]


def test_euler_product_encloses_past_the_float_range():
    # at n >= 5 the tail bound passes log(DBL_MAX): the upper end is inf
    for n, limit in ((5, 2), (6, 10 ** 4)):
        e = euler_product(n, limit)
        assert 0 <= e.lower <= e.value <= e.upper
    # at n = 7 the exact range would run to p_safe = 441,915,919,905
    with pytest.raises(ResourceLimit, match="safety threshold"):
        euler_product(7, 2)


def test_euler_product_memory_is_fixed_per_segment():
    # the whole-range sieve peaked at 13.6 MB here (the bool sieve, the
    # int64 primes and float temporaries over every prime); the segmented
    # one keeps one log per prime and a segment's temporaries
    tracemalloc.start()
    try:
        euler_product(3, 4 * 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.8e6


def test_polytope_dimensions_and_constraints():
    assert free_indices(3) == [2, 4, 5, 6]
    assert len(free_indices(4)) == 11
    # frozen n = 4 system, written out from the bit conditions by hand
    expect = [
        ({8: 1, 9: 1, 10: 1, 11: 1, 12: 1, 13: 1, 14: 1}, 1),
        ({1: 1, 9: 1, 11: 1, 4: -1, 6: -1, 12: -1, 14: -1}, 0),
        ({1: 1, 9: 1, 13: 1, 2: -1, 6: -1, 10: -1, 14: -1}, 0),
        # index 10 cancels between the two sum pairs; 12 meets neither
        ({2: 1, 14: 1, 4: 1, 6: 2, 1: -1, 13: -1, 9: -2, 8: -1, 11: -1}, 0),
    ]
    got = polytope_constraints(4)
    assert len(got) == len(expect)
    for (ce, be), (cg, bg) in zip(expect, got):
        ce = {k: v for k, v in ce.items() if v}
        cg = {k: v for k, v in cg.items() if v}
        assert (ce, be) == (cg, bg)


def test_polytope_rows_keep_their_key_order():
    # the Monte Carlo row sums add the coefficients in dict order, and the
    # last row keeps index 10, whose two bit differences cancel
    assert [list(coeffs.items()) for coeffs, _ in polytope_constraints(4)] == [
        [(8, 1), (9, 1), (10, 1), (11, 1), (12, 1), (13, 1), (14, 1)],
        [(1, 1), (4, -1), (6, -1), (9, 1), (11, 1), (12, -1), (14, -1)],
        [(1, 1), (2, -1), (6, -1), (9, 1), (10, -1), (13, 1), (14, -1)],
        [(1, -1), (2, 1), (4, 1), (6, 2), (8, -1), (9, -2), (10, 0), (11, -1),
         (13, -1), (14, 1)],
    ]


@pytest.mark.parametrize("n", range(4, 9))
def test_monte_carlo_skips_only_the_unit_sum_row(n):
    # the row polytope_volume leaves out on simplex draws
    coeffs, const = polytope_constraints(n)[constants._unit_sum_row(n)]
    assert const == 1
    assert coeffs == {h: 1 for h in free_indices(n) if bit(h, n)}


def test_polytope_volume_exact():
    v = polytope_volume(3, "exact")
    assert isinstance(v, Fraction)
    assert 0 < v <= 1
    assert v == dilation_volume_n3()
    with pytest.raises(ResourceLimit):
        polytope_volume(4, "exact")


def test_polytope_volume_mc_agrees_and_reproduces():
    # agreement with the exact volume at this size and seed is
    # verify.check_polytope_volume, run by the pinned default verify report
    est = polytope_volume(3, "mc", samples=10 ** 6, seed=0)
    assert isinstance(est, MCEstimate)
    again = polytope_volume(3, "mc", samples=10 ** 6, seed=0)
    assert again == est
    other = polytope_volume(3, "mc", samples=10 ** 6, seed=1)
    assert other.value != est.value
    est4 = polytope_volume(4, "mc", samples=3 * 10 ** 5, seed=0)
    assert 0 < est4.value < 1


@pytest.mark.parametrize("m", range(1, 9))
def test_sorted_columns_match_np_sort(m):
    rng = np.random.default_rng(m)
    rows = [rng.random((50, m)),
            rng.integers(0, 3, size=(50, m)).astype(np.float64),  # ties, zeros
            np.repeat(rng.random((10, 1)), m, axis=1),            # equal columns
            np.zeros((1, m))]
    # every 0/1 row: a network that sorts these sorts everything
    rows.append(np.array(list(itertools.product((0.0, 1.0), repeat=m))))
    x = np.concatenate(rows)
    got = np.column_stack(constants._sorted_columns(x.T))
    assert got.tobytes() == np.sort(x, axis=1).tobytes()
    # integer columns stay integers (the torsor sorts its packed kernel rows)
    ints = rng.integers(-(1 << 62), 1 << 62, size=(60, m))
    ints[:20] %= 3
    got = np.column_stack(constants._sorted_columns(ints.T))
    assert got.dtype == np.int64 and np.array_equal(got, np.sort(ints, axis=1))


def test_cube_slab_vectorized_matches_exact():
    rng = np.random.default_rng(31)
    for m, low in ((2, 1e-4), (3, 1e-4), (4, 0.1)):
        w = rng.uniform(low, 1.0, size=(60, m))
        c = rng.uniform(0.0, 2.5, size=60)
        w[:5] = w[:5, :1]                    # equal weights
        c[5:10] = w[5:10].sum(axis=1) * rng.uniform(1.0, 2.0, size=5)  # c >= sum w
        got = _cube_slab_vec(w.T, c)
        # the corner expansion loses ~eps * t^m/(m! prod w) to cancellation;
        # with these weight floors 1e-7 dominates it
        tol_abs = 1e-12 if m == 2 else 1e-7
        for i in range(60):
            exact = float(slab_volume(list(w[i]), float(c[i])))
            assert got[i] == pytest.approx(exact, abs=tol_abs)
        assert (got[5:10] == 2.0 ** m).all()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_zero_weights_leave_their_coordinates_free(m):
    rng = np.random.default_rng(m)
    w = rng.uniform(0.05, 1.0, size=(40, m))
    w[rng.random((40, m)) < 0.4] = 0.0
    w[0] = 0.0
    c = rng.uniform(0.0, 1.5, size=40)
    c[:3] = 0.0
    got = _cube_slab_vec(w.T, c)
    for i in range(40):
        nonzero = [float(v) for v in w[i] if v > 0]
        exact = (2.0 ** (m - len(nonzero))
                 * (float(slab_volume(nonzero, float(c[i]))) if nonzero else 1.0))
        assert got[i] == pytest.approx(exact, abs=1e-9)


def test_zero_weight_examples():
    w = np.array([[1.0, 0.5, 0.0], [1.0, 0.5, 0.0]])
    got = _cube_slab_vec(w.T, np.array([0.3, 0.0]))
    assert got[0] == pytest.approx(2.4)  # 2 * area of |a + b/2| <= 0.3
    assert got[1] == 0.0


def _slab_rows(m):
    rng = np.random.default_rng(20 + m)
    w = rng.random((100, m)) ** 2
    return w, rng.random(100) * 1.2 * w.sum(axis=1)


# sha256 of the float64 little-endian bytes of _cube_slab_vec on 100 seeded
# rows, and the first value's float.hex, computed before the kernel ran on
# columns (numpy per-row sort, zeros_like shifts, sign products)
SLAB_PINNED = {
    2: ("47136c1f7c068a3da0438fa8a9f3add31ae1b6aa0471fe7e962beab85cabba0d",
        "0x1.5573d0ba9b356p-2"),
    3: ("558def9067bb23f0d7095cf88c2e13ae90ab1e296470af2d218fe34976d5418f",
        "0x1.35505bfd6591cp+2"),
}


@pytest.mark.parametrize("m", sorted(SLAB_PINNED))
def test_cube_slab_matches_pinned_bits(m):
    w, c = _slab_rows(m)
    got = _cube_slab_vec(w.T, c)
    digest = hashlib.sha256(got.astype("<f8").tobytes()).hexdigest()
    assert (digest, got[0].hex()) == SLAB_PINNED[m]


def test_beta_tilde_quadrature_n3():
    est = beta_tilde(3, tol=1e-8)
    assert isinstance(est, QuadratureEstimate)
    assert est.error_bound <= 1e-7
    assert abs(est.value - BETA3) <= max(est.error_bound, 1e-8)


# (value, error bound) as float.hex of the n = 3 quadrature: any change to
# the subdivision or to the order of its float sums shows here
BETA3_PINNED = {
    1e-6: ("0x1.f57162f4a2a45p+1", "0x1.bfd13fb58a100p-24"),
    1e-8: ("0x1.f57163021d12ep+1", "0x1.076b32dedf040p-30"),
    1e-10: ("0x1.f57163023b862p+1", "0x1.7287a373111f0p-37"),
}


@pytest.mark.parametrize("tol", sorted(BETA3_PINNED))
def test_beta_tilde_quadrature_matches_pinned_bits(tol):
    est = beta_tilde(3, tol)
    assert (est.value.hex(), est.error_bound.hex()) == BETA3_PINNED[tol]


def test_beta_inner_volume_examples():
    # the exact oracle, then every row of the beta~ integrand against it
    examples = {3: [(1.0, 1.0), (1e-12, 0.5), (0.0, 0.5)], 4: [(0.9, 0.9, 0.0)]}
    assert [beta_inner_volume(3, u) for u in examples[3]] == [3.0, 4.0, 4.0]
    # a zero weight is a free coordinate, not a full slab
    assert beta_inner_volume(4, (0.9, 0.9, 0.0)) == pytest.approx(
        2 * float(slab_volume([0.9, 0.9 * 0.9], 1)))
    assert beta_inner_volume(4, (0.9, 0.9, 0.0)) == pytest.approx(6.617, abs=1e-3)
    for n in (3, 4):
        rng = np.random.default_rng(n)
        u = np.concatenate([np.array(examples[n]), rng.random((20, n - 1))])
        got = constants._beta_integrand(n, u)
        for row, value in zip(u, got):
            exact = beta_inner_volume(n, [float(v) for v in row])
            assert 0 < exact <= 2 ** (n - 1)
            assert value == pytest.approx(exact, abs=1e-9)


def test_beta_tilde_mc_n4_consistent():
    est = beta_tilde(4, samples=2 * 10 ** 5, seed=0)
    assert isinstance(est, MCEstimate)
    assert 0 < est.value <= 8
    again = beta_tilde(4, samples=2 * 10 ** 5, seed=0)
    assert again == est


# Every Monte Carlo integrand; polytope n = 4 is the one with two draws
# (its simplex takes k = 7 columns, so count * k % 4 == count * 3 % 4)
MC_INTEGRANDS = {
    "mu_infinity n=3": lambda s, seed: mu_infinity(3, s, seed),
    "mu_infinity n=4": lambda s, seed: mu_infinity(4, s, seed),
    "beta_tilde n=4": lambda s, seed: beta_tilde(4, samples=s, seed=seed),
    "polytope n=3": lambda s, seed: polytope_volume(3, "mc", s, seed),
    "polytope n=4": lambda s, seed: polytope_volume(4, "mc", s, seed),
}


@pytest.mark.parametrize("rows", [1, 3, 1000])
@pytest.mark.parametrize("name", sorted(MC_INTEGRANDS))
def test_row_chunks_do_not_change_the_estimate(monkeypatch, name, rows):
    # 250-sample blocks: 1001 samples are four full blocks and one sample,
    # and both 250 * 7 and 1 * 7 leave a remainder mod 4
    monkeypatch.setattr(constants, "MC_BLOCK", 250)
    expect = MC_INTEGRANDS[name](1001, 4)
    monkeypatch.setattr(constants, "_MC_ROWS", rows)
    assert MC_INTEGRANDS[name](1001, 4) == expect


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_holds_no_block_buffer(monkeypatch):
    block = 1 << 16
    monkeypatch.setattr(constants, "MC_BLOCK", block)
    monkeypatch.setattr(constants, "_MC_ROWS", 1 << 10)
    constants.mc_mean(lambda u: u[:, 0], 3 * block, 0, (1,))  # warm-up
    est, peak = _traced_peak(
        lambda: constants.mc_mean(lambda u: u[:, 0], 3 * block, 0, (1,)))
    assert 0.49 < est.value < 0.51
    # a block's values would take 8 * block bytes; one leaf takes 8 KB
    assert peak < 8 * block / 8


@pytest.mark.parametrize("name", sorted(MC_INTEGRANDS))
def test_monte_carlo_memory_stays_below_a_block(name):
    # a block buffer alone would take 8 MB; the leaves' draws and
    # temporaries took 1.5-3.3 MB
    _, peak = _traced_peak(lambda: MC_INTEGRANDS[name](2 ** 20 + 5, 0))
    assert peak < 5 << 20


def _tree_leaves(a, rows):
    """``constants._tree_sums`` over the values of ``a``, recording the
    length of every leaf it asks for."""
    taken = []
    start = [0]

    def leaf(k):
        taken.append(k)
        start[0] += k
        return a[start[0] - k:start[0]].copy()

    return constants._tree_sums(leaf, len(a), rows), taken


TREE_SIZES = (list(range(1, 301))
              + [(1 << 14) + d for d in (-9, -8, -1, 0, 1, 7, 8, 9)]
              + [562_816, 1 << 20])


@pytest.mark.parametrize("rows", [1, 3, 128, 1 << 14])
def test_tree_sums_match_np_sum_bit_for_bit(rows):
    # The tree copies numpy's pairwise sum: the 8-way unrolled loop over at
    # most 128 values and the split at half rounded down to a multiple of
    # 8.  A numpy that sums otherwise fails here before any MC pin does.
    # 562,816 is the last block of 1e7 samples.
    rng = np.random.default_rng(rows)
    pool = rng.standard_normal(1 << 20) * np.exp2(rng.integers(-30, 30, 1 << 20))
    for n in TREE_SIZES:
        a = pool[:n]
        (tot, totsq), taken = _tree_leaves(a, rows)
        assert sum(taken) == n and max(taken) <= max(rows, 128)
        assert tot.hex() == float(a.sum()).hex(), n
        assert totsq.hex() == float((a * a).sum()).hex(), n


def _band_where(w1, w2, c):
    """The band area as three nested np.where over safe denominators."""
    full = c >= w1 + w2
    strip = ~full & (c <= w1 - w2)
    mid = ~full & ~strip
    safe1 = np.where(w1 > 0, w1, 1.0)
    safe12 = np.where(mid, w1 * w2, 1.0)
    return np.where(full, 4.0, np.where(strip, 4.0 * c / safe1,
                                        4.0 - (w1 + w2 - c) ** 2 / safe12))


def _slab_every_corner(cols, c):
    """Slab volume by the corner expansion over all 2^m corners, each
    raised on its gathered positive rows and scattered back: the float
    operations ``_cube_slab_vec`` must keep on every row."""
    c = np.asarray(c, dtype=np.float64)
    w = list(np.sort(np.column_stack(cols), axis=1).T[::-1].copy())
    m = len(w)
    if m == 2:
        return _band_where(w[0], w[1], c)
    total, prod = w[0], w[0]
    for col in w[1:]:
        total = total + col
        prod = prod * col
    t = np.maximum((total - c) / 2, 0.0)
    acc = np.zeros_like(t)
    live = np.flatnonzero(t > 0)
    t_live = t[live]
    w_live = [col[live] for col in w]
    acc_live = t_live ** m
    shifts = [0.0]
    for mask in range(1, 1 << m):
        top = mask.bit_length() - 1
        shifts.append(shifts[mask ^ (1 << top)] + w_live[top])
        d = t_live - shifts[mask]
        pos = np.flatnonzero(d > 0)
        if bin(mask).count("1") & 1:
            acc_live[pos] -= d[pos] ** m
        else:
            acc_live[pos] += d[pos] ** m
    acc[live] = acc_live
    denom = math.factorial(m) * prod
    zero = np.flatnonzero(w[-1] <= 0)
    denom[zero] = 1.0
    vol = (2.0 ** m) * (1.0 - 2.0 * np.clip(acc / denom, 0.0, 0.5))
    c_all = np.broadcast_to(c, vol.shape)
    positive = sum(col[zero] > 0 for col in w)
    for k in range(m):
        rows = zero[positive == k]
        inner = (_slab_every_corner([col[rows] for col in w[:k]], c_all[rows]) if k
                 else np.where(c_all[rows] >= 0, 1.0, 0.0))
        vol[rows] = 2.0 ** (m - k) * inner
    return vol


@pytest.mark.parametrize("m", range(1, 6))
def test_cube_slab_keeps_every_row_of_the_full_corner_expansion(m):
    rng = np.random.default_rng(40 + m)
    # eighths: equal and zero weights, c = 0, c >= sum w, c < 0 and t on a
    # corner's shift all occur, and every sum of them is exact
    w = rng.integers(0, 9, size=(2000, m)) / 8.0
    c = rng.integers(-8 * m, 8 * m + 3, size=2000) / 8.0
    w[:50] = w[:50, :1]
    c[50:100] = 0.0
    c[100:150] = w[100:150].sum(axis=1) + rng.integers(0, 2, size=50) / 8.0
    # t = w_0 exactly: shift of corner 1
    top = w[150:200].max(axis=1)
    c[150:200] = w[150:200].sum(axis=1) - 2 * top
    plain = rng.random((2000, m)) ** 2
    cases = [(w, c), (w, np.abs(c)),                         # some c < 0; none
             (plain, rng.random(2000) * 1.2 * plain.sum(axis=1)),
             (plain, np.zeros(2000)),                         # every row live
             (np.full((200, m), 0.3), np.zeros(200)),         # every row hit
             (np.ones((3, m)), np.full(3, -0.5))]
    for weights, bound in cases:
        got = _cube_slab_vec(weights.T, bound)
        want = _slab_every_corner(weights.T, bound)
        assert got.tobytes() == want.tobytes()


# (value, standard error) as float.hex, computed before the blocks were
# evaluated in row chunks, when each block was drawn and evaluated whole
PINNED = {
    ("mu_infinity n=3", 1001, 3): ("0x1.1a4fb38bd281ep+8", "0x1.a53fcd21da32cp-2"),
    ("mu_infinity n=4", 1001, 0): ("0x1.7613ccb7af9c5p+12", "0x1.4937602100ff4p+3"),
    ("beta_tilde n=4", 1001, 3): ("0x1.f1f550ae14b76p+2", "0x1.ca6069ade35dap-7"),
    ("polytope n=3", 1001, 0): ("0x1.f336793907ed9p-5", "0x1.ef8416d1359c4p-8"),
    # 321 hits; 100003 * 7 % 4 == 1
    ("polytope n=4", 100003, 3): ("0x1.55ece5e016ed4p-21", "0x1.30dc3313b9b43p-25"),
    # crosses the 2^20 block boundary; the last block holds 5 samples
    ("polytope n=4", 2 ** 20 + 5, 0): ("0x1.4e387b1c926abp-21",
                                       "0x1.74558bedf12bep-27"),
    # computed while each block's values filled one buffer summed whole:
    # the second block's 551,424 samples split into 2^14-row leaves and
    # smaller ones, which the sum combines across an unaligned split
    ("mu_infinity n=3", 1_600_000, 0): ("0x1.1a16918db32ddp+8",
                                        "0x1.535b39dc468f8p-7"),
    ("beta_tilde n=4", 1_600_000, 0): ("0x1.f2c8e0a11f3bcp+2",
                                       "0x1.6108786c34643p-12"),
}


@pytest.mark.parametrize("rows", [constants._MC_ROWS, 1000])
@pytest.mark.parametrize("key", list(PINNED), ids=str)
def test_seeded_estimates_match_pinned_values(monkeypatch, key, rows):
    monkeypatch.setattr(constants, "_MC_ROWS", rows)
    name, samples, seed = key
    est = MC_INTEGRANDS[name](samples, seed)
    assert (est.value.hex(), est.standard_error.hex()) == PINNED[key]
    assert (est.samples, est.seed) == (samples, seed)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
def test_beta_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(ContractViolation):
        beta_tilde(3, tol=tol)
    with pytest.raises(ContractViolation):
        assemble_constant(3, AssemblyConfig(beta_tol=tol))


def test_beta_tolerance_below_the_floor_is_refused_at_once(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the tolerance check")

    monkeypatch.setattr(constants, "polytope_volume", no_work)
    monkeypatch.setattr(constants, "_adaptive_square", no_work)
    tol = constants.BETA_TOL_FLOOR / 10
    with pytest.raises(ResourceLimit):
        beta_tilde(3, tol=tol)
    for n in (3, 4):
        with pytest.raises(ResourceLimit):
            assemble_constant(n, AssemblyConfig(beta_tol=tol))
    est = beta_tilde(4, tol=constants.BETA_TOL_FLOOR, samples=10)
    assert 0 < est.value <= 8


def test_oversize_prime_limit_or_sample_count_is_refused_at_once(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(constants, "primes_up_to", no_work)
    monkeypatch.setattr(constants, "mc_mean", no_work)
    big = constants.SIZE_CAP * 10 ** 6
    with pytest.raises(ResourceLimit, match="prime limit"):
        euler_product(3, big)
    for n in (3, 4):
        with pytest.raises(ResourceLimit, match="sample count"):
            polytope_volume(n, "mc", big)
    for name in ("polytope_volume", "_adaptive_square", "euler_product"):
        monkeypatch.setattr(constants, name, no_work)
    for field in ("prime_limit", "v_samples", "beta_samples", "mu_samples"):
        for n in (3, 4):
            with pytest.raises(ResourceLimit, match="exceeds the cap"):
                assemble_constant(n, AssemblyConfig(v_method="mc", **{field: big}))


def test_volume_source_is_checked_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the volume-source check")

    monkeypatch.setattr(constants, "polytope_volume", no_work)
    monkeypatch.setattr(constants, "mc_mean", no_work)
    with pytest.raises(ContractViolation, match="exact volume unavailable"):
        assemble_constant(4, AssemblyConfig(v_samples=10 ** 9))
    for n in (3, 4):
        with pytest.raises(ContractViolation, match="unknown v_method"):
            assemble_constant(n, AssemblyConfig(v_method="simplex"))


def test_mu_infinity_scale_and_reproducibility():
    assert mu_infinity_scale(3) == 72
    assert mu_infinity_scale(4) == 768
    est = mu_infinity(3, samples=10 ** 5, seed=0)
    assert mu_infinity(3, samples=10 ** 5, seed=0) == est


def test_mu_infinity_matches_beta_pipeline():
    # beta~ at n = 3 in closed form, so with no error of its own
    est = mu_infinity(3, samples=10 ** 6, seed=0)
    res = verify.check_archimedean_identity(QuadratureEstimate(BETA3, 0.0), est)
    assert res.ok, res.detail
    est4 = mu_infinity(4, samples=2 * 10 ** 5, seed=0)
    bt4 = beta_tilde(4, samples=2 * 10 ** 5, seed=1)
    combined = 3 * (est4.standard_error + 768 * bt4.standard_error)
    assert abs(est4.value - 768 * bt4.value) <= combined


def test_assemble_constant_quick():
    cfg = AssemblyConfig(prime_limit=10 ** 4, beta_samples=10 ** 5,
                         mu_samples=3 * 10 ** 5, v_samples=10 ** 5, seed=0)
    br = assemble_constant(3, cfg)
    assert br.beta_brauer == 1
    assert br.alpha == pytest.approx(br.V / 243, abs=1e-15)
    assert br.V_exact == Fraction(1, 16)
    assert 0 < br.euler.value <= 1
    assert br.alpha > 0 and br.omega_infinity.value > 0
    assert br.c_formula == pytest.approx(br.c_peyre, rel=2e-3)
    assert br.discrepancy_within_budget
    with pytest.raises(ResourceLimit):
        assemble_constant(5, cfg)


def test_assemble_constant_mc_alpha_side():
    cfg = AssemblyConfig(prime_limit=10 ** 4, v_method="mc",
                         beta_samples=10 ** 5, mu_samples=3 * 10 ** 5,
                         v_samples=10 ** 6, seed=0)
    br = assemble_constant(3, cfg)
    assert br.discrepancy_within_budget
    assert br.relative_discrepancy < 5e-3


def test_assemble_constant_n4_quick():
    cfg = AssemblyConfig(prime_limit=10 ** 4, v_method="mc", v_samples=3 * 10 ** 5,
                         beta_samples=3 * 10 ** 5, mu_samples=3 * 10 ** 5, seed=0)
    br = assemble_constant(4, cfg)
    assert br.V_exact is None
    assert isinstance(br.beta, MCEstimate)
    assert br.discrepancy_within_budget


def test_budget_errors():
    with pytest.raises(ContractViolation):
        euler_product(3, 1)
    with pytest.raises(ResourceLimit):
        mu_infinity(5, 100, 0)
    with pytest.raises(ResourceLimit):
        polytope_volume(5, "mc", 100, 0)
