import itertools
import math
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercount import lattice, verify
from hypercount.errors import ContractViolation
from hypercount.factorization import factorize
from hypercount.lattice import (count_congruence, count_solutions,
                                count_zero_sum_boxes, lattice_coefficients,
                                slab_volume, solution_main_term,
                                tuple_slab_volume)
from hypercount.oracles import (brute_congruence, brute_zero_sum_boxes,
                                random_reduced, subset_of)

from oracles import mc_slab, zero_sum_by_divisibility


def test_coefficient_examples():
    assert lattice_coefficients((1,) * 7).d == (1, 1, 1)
    assert lattice_coefficients((1, 1, 2, 1, 1, 1, 1)).d == (1, 1, 2)
    z = factorize((6, 10, 15))
    co = lattice_coefficients(z)
    assert co.d == (5, 3, 2)
    assert co.d == tuple(30 // y for y in (6, 10, 15))


@pytest.mark.parametrize("n", [3, 4])
def test_coefficient_identities(n):
    from hypercount.factorization import compose
    rng = np.random.default_rng(20 + n)
    for _ in range(200):
        z = random_reduced(rng, n, 6)
        co = lattice_coefficients(z)
        y = compose(z)
        total = math.prod(z)
        assert all(di * yi == total for di, yi in zip(co.d, y))
        # the divisor products by their definitions, over the subsets h
        subsets = [(subset_of(h, n), v) for h, v in enumerate(z, start=1)]
        assert co.joint == tuple(math.prod(v for s, v in subsets if min(s) > r)
                                 for r in range(1, n + 1))
        assert co.step == tuple(math.prod(v for s, v in subsets if min(s) == m + 1)
                                for m in range(1, n))
        assert co.d_joint(1) == co.d[0]
        assert co.d_joint(n) == 1
        for r in range(2, n + 1):
            assert co.d_joint(r - 1) == co.d_joint(r) * co.d_step(r - 1)
        assert co.d[0] == math.prod(co.d_step(j - 1) for j in range(2, n + 1))


def test_slab_volume_examples():
    assert slab_volume((1, 1), 1) == 3
    assert slab_volume((1, 1), 2) == 4
    assert slab_volume((2, 1), 0) == 0
    assert slab_volume((1, 2), 1) == 2
    with pytest.raises(ContractViolation):
        slab_volume((), 1)
    with pytest.raises(ContractViolation):
        slab_volume((0, 1), 1)


def test_slab_volume_saturation_and_monotone():
    res = verify.check_slab_volume(np.random.default_rng(5), 40)
    assert res.ok, res.detail


def test_slab_volume_against_monte_carlo():
    cases = [((1, 1), 1), ((1, 2), 1), ((3, 2, 1), 2), ((5, 4, 3, 1), 6)]
    for weights, bound in cases:
        approx, se = mc_slab(weights, bound)
        exact = float(slab_volume(weights, bound))
        assert abs(approx - exact) <= 4 * se + 1e-9


def test_slab_volume_on_random_reals_against_monte_carlo():
    # floats are binary rationals, so slab_volume takes them exactly
    rng = np.random.default_rng(8)
    for _ in range(50):
        m = int(rng.integers(2, 5))
        w = [float(v) for v in rng.uniform(1e-3, 1.0, size=m)]
        c = float(rng.uniform(0, 1.5))
        direct = float(slab_volume(w, c))
        approx, se = mc_slab(w, c, samples=120_000, seed=int(rng.integers(1 << 30)))
        # rare-miss slack: the empirical deviation can be zero while the
        # true acceptance probability is only near 0 or 1
        assert abs(direct - approx) <= 4 * se + 2.0 ** m * 10 / 120_000


def test_tuple_slab_examples():
    assert tuple_slab_volume((1,) * 7) == 3
    assert tuple_slab_volume((1, 1, 1, 1, 1, 100, 1)) == 4  # d = (100, 1, 1)
    assert tuple_slab_volume((1, 1, 2, 1, 1, 1, 1)) == slab_volume((1, 2), 1)
    with pytest.raises(ContractViolation):
        tuple_slab_volume((2, 2, 1, 1, 1, 1, 1))


def test_tuple_slab_range():
    rng = np.random.default_rng(9)
    for n in (3, 4):
        for _ in range(100):
            z = random_reduced(rng, n, 6)
            b = tuple_slab_volume(z)
            assert 0 <= b <= 2 ** (n - 1)


def test_count_examples():
    assert count_solutions((1,) * 7, 1) == 7
    assert count_solutions((1, 1, 2, 1, 1, 1, 1), 1) == 5
    assert count_solutions((1, 1, 2, 1, 3, 5, 1), 0) == 1
    assert count_congruence((1, 1, 1, 3, 1, 1, 1), 2, 10) == 7
    assert count_congruence((1,) * 7, 1, 4) == 9 ** 2
    z = (1, 1, 1, 2, 1, 1, 1)
    co = lattice_coefficients(z)
    assert count_congruence(z, 1, 2) == brute_congruence(co.d, co.d_joint(1), 1, 2)
    for r, X in ((0, 1), (3, 1), (1, -1)):
        with pytest.raises(ContractViolation):
            count_congruence(z, r, X)


def test_count_zero_sum_boxes_against_grid():
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = int(rng.integers(2, 5))
        coeffs = tuple(int(v) for v in rng.integers(1, 9, size=m))
        limits = tuple(int(v) for v in rng.integers(0, 9, size=m))
        assert count_zero_sum_boxes(coeffs, limits) == brute_zero_sum_boxes(coeffs, limits)


def test_count_zero_sum_rows_edge_rows_and_wide_rows():
    cases = [((), ()), ((3,), (0,)), ((3,), (5,)), ((2, 5), (0, 0)),
             ((2, 5), (0, 7)), ((4, 6, 9), (0, 3, 0)), ((4, 6, 9), (2, 0, 3)),
             ((1, 1, 1, 1, 1), (0, 0, 0, 0, 0))]
    rng = np.random.default_rng(41)
    for _ in range(150):
        m = int(rng.integers(3, 6))
        coeffs = tuple(int(v) for v in rng.integers(1, 12, size=m))
        limits = tuple(int(v) for v in rng.integers(0, 6 if m == 5 else 9, size=m))
        cases.append((coeffs, limits))
    for coeffs, limits in cases:
        assert count_zero_sum_boxes(coeffs, limits) == brute_zero_sum_boxes(coeffs, limits)


def _guard_off():
    """Send every row of the batch to the Python-int path."""
    return patch.object(lattice, "_fits_int64_vec", lambda C, L: np.zeros(len(C), bool))


def test_single_boxes_count_the_same_on_both_routes():
    # a box inside the int64 guard runs on int64 arrays; forced past it,
    # the same box runs on Python ints; both must give the grid count
    rng = np.random.default_rng(61)
    cases = []
    for _ in range(80):
        m = int(rng.integers(1, 6))
        cases.append((tuple(int(v) for v in rng.integers(1, 12, size=m)),
                      tuple(int(v) for v in rng.integers(0, 5, size=m))))
    expect = [brute_zero_sum_boxes(c, L) for c, L in cases]
    assert [count_zero_sum_boxes(c, L) for c, L in cases] == expect
    with _guard_off():
        assert [count_zero_sum_boxes(c, L) for c, L in cases] == expect


def test_count_zero_sum_rows_across_chunks(monkeypatch):
    rng = np.random.default_rng(43)
    cases = []
    for _ in range(60):
        m = int(rng.integers(2, 6))
        cases.append((tuple(int(v) for v in rng.integers(1, 9, size=m)),
                      tuple(int(v) for v in rng.integers(0, 5, size=m))))
    expect = [brute_zero_sum_boxes(c, L) for c, L in cases]
    # a cap of 5 cells splits most grids across batches
    monkeypatch.setattr(lattice, "_CHUNK", 5)
    assert [count_zero_sum_boxes(c, L) for c, L in cases] == expect


def test_count_zero_sum_rows_row_above_the_cell_cap(monkeypatch):
    # an outer grid of 3 * 61 * 81 cells, too large for the grid oracle,
    # between two small rows
    big = ((7, 3, 5, 11, 13), (30, 40, 1, 90, 100))
    cases = [((1, 2, 3), (2, 2, 2)), big, ((5, 5), (3, 3))]
    expect = [brute_zero_sum_boxes(*cases[0]), zero_sum_by_divisibility(*big),
              brute_zero_sum_boxes(*cases[2])]
    assert [count_zero_sum_boxes(c, L) for c, L in cases] == expect
    # with a cap of 5 cells the big row's grid splits into many batches
    monkeypatch.setattr(lattice, "_CHUNK", 5)
    assert 61 * 81 * 3 > lattice._CHUNK
    assert [count_zero_sum_boxes(c, L) for c, L in cases] == expect


def test_count_zero_sum_boxes_on_both_sides_of_the_int64_switch():
    assert lattice._VEC_LIMIT == 1 << 60
    rng = np.random.default_rng(47)
    cases = [((1, 1, 1 << 61), (5, 5, 1)), ((1 << 61, 3, 1 << 61), (1, 4, 2))]
    expect = []
    for _ in range(40):
        m = int(rng.integers(2, 5))
        coeffs = [int(v) for v in rng.integers(1, 9, size=m)]
        limits = tuple(int(v) for v in rng.integers(0, 6, size=m))
        # scaled by 2^40 a row needs exact ints (a^2 >= 2^60); by 10^20
        # its reach passes 2^60 too; the count does not change
        want = brute_zero_sum_boxes(coeffs, limits)
        for scale in (1, 1 << 20, 1 << 40, 10 ** 20):
            cases.append((tuple(c * scale for c in coeffs), limits))
            expect.append(want)
    assert [zero_sum_by_divisibility(*case) for case in cases[:2]] == [11, 3]
    assert [count_zero_sum_boxes(c, L) for c, L in cases] == [11, 3] + expect


def test_count_zero_sum_boxes_contract():
    with pytest.raises(ContractViolation):
        count_zero_sum_boxes((1, 2), (1, 2, 3))
    with pytest.raises(ContractViolation):
        count_zero_sum_boxes((0, 2), (1, 2))
    with pytest.raises(ContractViolation):
        count_zero_sum_boxes((1, 2), (1, -1))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(n=st.integers(0, 40), m=st.one_of(st.integers(1, 60), st.integers(1, 10 ** 12)),
       a=st.integers(-10 ** 15, 10 ** 15), b=st.integers(-10 ** 15, 10 ** 15))
@example(n=0, m=7, a=-3, b=-5)
@example(n=9, m=1, a=-4, b=11)
@example(n=25, m=13, a=-40, b=-7)
def test_floor_sum_against_the_brute_sum(n, m, a, b):
    want = sum((a * i + b) // m for i in range(n))
    for dtype in (np.int64, object):
        args = (np.array([v], dtype=dtype) for v in (n, m, a, b))
        assert lattice._floor_sum_vec(*args).tolist() == [want]


@st.composite
def _three_coordinate_rows(draw):
    """Three positive coefficients, the first two sharing a factor k (so
    pairs are coprime or not), and limits in [0, 8], sometimes all equal."""
    k = draw(st.sampled_from([1, 2, 6]))
    coeffs = tuple(draw(st.integers(1, 30)) * (k if i < 2 else 1) for i in range(3))
    limits = draw(st.one_of(st.tuples(*[st.integers(0, 8)] * 3),
                            st.integers(0, 8).map(lambda L: (L, L, L))))
    return coeffs, limits


_THREE_COORDINATE_EXAMPLES = [
    ((6, 10, 15), (5, 5, 5)),  # pairwise non-coprime, equal boxes
    ((2, 3, 5), (0, 4, 4)),  # a zero limit: two active coordinates
    ((7, 7, 7), (3, 3, 3)),
    ((4, 6, 9), (0, 0, 0)),
    ((1, 30, 29), (8, 1, 2)),  # one coefficient far larger than its box
]


def _with_examples(test):
    for row in _THREE_COORDINATE_EXAMPLES:
        test = example(row)(test)
    return test


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_three_coordinate_rows())
@_with_examples
def test_three_coordinate_rows_against_the_grid(row):
    coeffs, limits = row
    want = brute_zero_sum_boxes(coeffs, limits)
    assert count_zero_sum_boxes(coeffs, limits) == want


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_three_coordinate_rows())
@_with_examples
def test_three_coordinate_rows_scaled_past_int64(row):
    # past the int64 guard the closed form runs on Python ints; scaling
    # every coefficient leaves the count unchanged
    coeffs, limits = row
    want = brute_zero_sum_boxes(coeffs, limits)
    for scale in (1, 1 << 40, 10 ** 20):
        scaled = tuple(c * scale for c in coeffs)
        assert (max(scaled) ** 2 < lattice._VEC_LIMIT) == (scale == 1)
        assert count_zero_sum_boxes(scaled, limits) == want


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(4, 5).flatmap(lambda m: st.tuples(
           st.lists(st.integers(1, 12), min_size=m, max_size=m),
           st.lists(st.integers(1, 4), min_size=m, max_size=m))),
       st.sampled_from([1 << 40, 10 ** 20]))
def test_wide_rows_past_int64_against_the_grid(row, scale):
    coeffs, limits = row
    scaled = [c * scale for c in coeffs]
    want = brute_zero_sum_boxes(coeffs, limits)
    # past the int64 guard of the batch, the row takes the Python-int path
    with patch.object(lattice, "_cell_counts", wraps=lattice._cell_counts) as cells:
        assert count_zero_sum_boxes(scaled, limits) == want
    assert cells.call_count == 1 and cells.call_args.args[0].dtype == object
    # nearly equal huge coefficients: a solution must cancel in both parts
    mixed = [c + k for k, c in enumerate(scaled)]
    assert count_zero_sum_boxes(mixed, limits) == zero_sum_by_divisibility(mixed, limits)


def test_wide_rows_past_int64_enumerate_all_but_three(monkeypatch):
    calls = []
    triple = lattice._triple_count_vec
    monkeypatch.setattr(lattice, "_triple_count_vec",
                        lambda T, row, s: calls.append(s) or triple(T, row, s))
    coeffs, limits = (3, 5, 7, 2, 1), (4, 3, 2, 2, 1)
    scaled = tuple(c << 61 for c in coeffs)
    assert count_zero_sum_boxes(scaled, limits) == brute_zero_sum_boxes(coeffs, limits)
    # the row ran on Python ints, and its cells come from the two smallest
    # boxes, L = 1 and L = 2, which are all that is enumerated
    assert all(s.dtype == object for s in calls)
    assert 0 < sum(map(len, calls)) <= 3 * 5


def test_counts_match_grids_randomized():
    res = verify.check_lattice_grids(np.random.default_rng(23), 400)
    assert res.ok, res.detail


def test_count_scalar_path_with_huge_entries():
    # coefficients beyond int64 take the Python-int path of the batch
    z = [1] * 7
    z[2] = 10 ** 25              # subsets {1,2} and {1,2,3} are comparable
    z[6] = 10 ** 25 + 1
    z = tuple(z)
    d = lattice_coefficients(z).d
    X = 2
    expect = sum(1 for alpha in itertools.product(range(-X, X + 1), repeat=3)
                 if sum(c * a for c, a in zip(d, alpha)) == 0)
    assert count_solutions(z, X) == expect


def test_main_term_examples():
    assert solution_main_term((1,) * 7, 1) == 3
    assert solution_main_term((1,) * 7, 100) == 30000
    z = (1, 1, 1, 1, 1, 100, 1)  # saturated slab: d_1 >= d_2 + d_3
    co = lattice_coefficients(z)
    n = 3
    assert solution_main_term(z, 50) == Fraction(2 ** (n - 1) * 50 ** (n - 1), co.d[0])


def test_congruence_main_term_trend():
    # the normalized deviations of the congruence counts (r = 1, 2) and of
    # the solution count from their main terms stay bounded in X
    res = verify.check_main_term_trends()
    assert res.ok, res.detail


def test_solution_main_term_trend():
    # the deviation of the solution count from its main term, over X, stays
    # below 4 * 2^n at n = 3
    for z in [(1,) * 7, (1, 1, 2, 1, 3, 5, 1), (1, 1, 1, 3, 1, 1, 2)]:
        devs = [abs(count_solutions(z, X) - solution_main_term(z, X)) / X
                for X in (100, 1000, 10000)]
        assert max(devs) <= 4 * 8


def test_upper_bound_with_calibrated_constant():
    # count <= C * X^{n-1} / max(d) with C calibrated on this corpus; the
    # bound presumes max(y) <= X, so tuples are drawn from [1, X]^n
    rng = np.random.default_rng(29)
    C = 20.0
    checked = 0
    while checked < 400:
        n = 3 if checked % 2 == 0 else 4
        X = int(rng.integers(2, 13))
        y = tuple(int(v) for v in rng.integers(1, X + 1, size=n))
        z = factorize(y)
        if max(z) > 6:
            continue
        checked += 1
        co = lattice_coefficients(z)
        assert count_solutions(z, X) <= C * X ** (n - 1) / max(co.d)


# ------------------------- the batched closed form -------------------------

@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 10 ** 6),
                          st.integers(-10 ** 9, 10 ** 9), st.integers(-10 ** 9, 10 ** 9)),
                min_size=1, max_size=30))
def test_array_floor_sum_matches_the_brute_sum(rows):
    # rows leave the loop at different steps, on int64 and on Python ints
    want = [sum((a * i + b) // m for i in range(n)) for n, m, a, b in rows]
    for dtype in (np.int64, object):
        args = (np.array(v, dtype=dtype) for v in zip(*rows))
        assert lattice._floor_sum_vec(*args).tolist() == want


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 10 ** 12), st.integers(1, 10 ** 12)),
                min_size=1, max_size=30))
def test_array_inverse_matches_pow(pairs):
    pairs = [(x, m) for x, m in pairs if math.gcd(x, m) == 1] or [(3, 7)]
    for dtype in (np.int64, object):
        x, m = (np.array(v, dtype=dtype) for v in zip(*pairs))
        assert lattice._inverse_vec(x, m).tolist() == [pow(x, -1, m) for x, m in pairs]


def _grid_triple(a, La, b, Lb, c, Lc, s):
    """#{(u, v, w) : a u + b v + c w = s, |u| <= La, |v| <= Lb, |w| <= Lc}
    over the whole grid."""
    u, v, w = np.ogrid[-La:La + 1, -Lb:Lb + 1, -Lc:Lc + 1]
    return int((a * u + b * v + c * w == s).sum())


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(st.tuples(_three_coordinate_rows(),
                          st.lists(st.integers(-200, 200), min_size=1, max_size=6)),
                min_size=1, max_size=20))
@example([(((2, 4, 6), (1, 1, 1)), [1])])  # gcd 2 divides no s: every count is 0
@example([(((2, 4, 6), (1, 1, 1)), [1, 2, -4]), (((3, 5, 7), (2, 0, 4)), [0, 9])])
def test_array_triple_count_matches_the_grid(boxes):
    # the terms of each box once, and its targets as cells of that box; a
    # target that gcd(a, b, c) does not divide has no solution, and the
    # batch never sends one
    T = lattice._triple_terms(*(np.array(v, dtype=np.int64) for v in zip(*(
        (a, La, b, Lb, c, Lc) for ((a, b, c), (La, Lb, Lc)), _ in boxes))))
    row, s, want = [], [], []
    for r, (((a, b, c), (La, Lb, Lc)), targets) in enumerate(boxes):
        for t in targets:
            count = _grid_triple(a, La, b, Lb, c, Lc, t)
            if t % math.gcd(a, b, c):
                assert count == 0
            else:
                row.append(r), s.append(t), want.append(count)
    row, s = np.array(row, dtype=np.int64), np.array(s, dtype=np.int64)
    assert lattice._triple_count_vec(T, row, s).tolist() == want


def _batch_by_the_grid(coeffs, limits, weights):
    return sum(w * brute_zero_sum_boxes(cs, Ls)
               for cs, Ls, w in zip(coeffs, limits, weights))


@st.composite
def _batches(draw):
    """Rows of m = 0..5 pairs (0 to 5 active), their coefficients sharing a
    factor k, some limits zero, each row scaled so that rows fall on both
    sides of the int64 guard, and signed weights."""
    m = draw(st.integers(0, 5))
    rows = draw(st.integers(0, 6))
    k = draw(st.sampled_from([1, 2, 6]))
    coeffs, limits = [], []
    for _ in range(rows):
        scale = draw(st.sampled_from([1, 1 << 20, 1 << 27, 1 << 29, 10 ** 10]))
        coeffs.append([draw(st.integers(1, 12)) * k * scale for _ in range(m)])
        limits.append([draw(st.integers(0, 4 if m == 5 else 8)) for _ in range(m)])
    weights = draw(st.lists(st.integers(-9, 9), min_size=rows, max_size=rows))
    return (np.array(coeffs, dtype=np.int64).reshape(rows, m),
            np.array(limits, dtype=np.int64).reshape(rows, m),
            np.array(weights, dtype=np.int64))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_batches(), st.sampled_from([1, 2, 3, 4, 5, None]))
def test_batch_matches_the_grid(batch, chunk):
    want = _batch_by_the_grid(*(v.tolist() for v in batch))
    with patch.object(lattice, "_CHUNK", chunk or lattice._CHUNK):
        assert lattice.count_zero_sum_batch(*batch) == want


@st.composite
def _stepped_batches(draw):
    """Rows of m = 4..6 pairs whose coefficients share a factor k on every
    pair but one, so the closed triple's gcd misses the stepped
    coefficient in part (e > 1) or wholly, with tied or untied limits,
    inactive pairs, and signed weights."""
    m = draw(st.integers(4, 6))
    rows = draw(st.integers(1, 5))
    coeffs, limits = [], []
    for _ in range(rows):
        k, odd = draw(st.sampled_from([2, 3, 4, 6, 12])), draw(st.integers(0, m - 1))
        part = draw(st.sampled_from([1, 2, 3]))  # the odd coefficient may share part of k
        coeffs.append([draw(st.integers(1, 9)) * (part if i == odd else k)
                       for i in range(m)])
        top = 3 if m == 6 else 6
        limits.append(draw(st.one_of(st.lists(st.integers(0, top), min_size=m, max_size=m),
                                     st.integers(0, top).map(lambda L: [L] * m))))
    weights = draw(st.lists(st.integers(-9, 9), min_size=rows, max_size=rows))
    return tuple(np.array(v, dtype=np.int64) for v in (coeffs, limits, weights))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_stepped_batches(), st.sampled_from([1, 2, 3, 5, None]))
# x = the 6 (g1 = 18, e = 6, h = 3) and the prefix sum 9 w is no multiple of e at w = -1
@example((np.array([[9, 18, 18, 6, 18]]), np.array([[1, 1, 1, 1, 2]]), np.array([1])), None)
def test_stepped_rows_match_the_grid(batch, chunk):
    want = _batch_by_the_grid(*(v.tolist() for v in batch))
    with patch.object(lattice, "_CHUNK", chunk or lattice._CHUNK):
        assert lattice.count_zero_sum_batch(*batch) == want


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.one_of(_stepped_batches(), _batches()), st.randoms(use_true_random=False))
def test_permuting_a_rows_pairs_keeps_its_count(batch, rnd):
    C, L, weights = batch
    want = _batch_by_the_grid(C.tolist(), L.tolist(), weights.tolist())
    order = np.array([rnd.sample(range(C.shape[1]), C.shape[1]) for _ in range(len(C))],
                     dtype=np.int64).reshape(C.shape)
    permuted = (np.take_along_axis(C, order, axis=1), np.take_along_axis(L, order, axis=1))
    assert lattice.count_zero_sum_batch(*permuted, weights) == want


def _arranged(C, L):
    """The batch's column order: sorted by limit, inactive coefficients
    set to 1, then prefix, stepped coordinate and closed triple."""
    order = np.argsort(L, axis=1, kind="stable")
    L = np.take_along_axis(L, order, axis=1)
    C = np.where(L > 0, np.take_along_axis(C, order, axis=1), 1)
    order = lattice._stepped_order(C, L)
    return np.take_along_axis(C, order, axis=1), np.take_along_axis(L, order, axis=1)


def test_batch_on_both_sides_of_the_int64_guard():
    # coefficients from 2^25 to just below 2^28 (the guard's cap) and
    # limits up to 40 put the guard's bound G near 2^60; each row must
    # count as it does on Python ints, with the guard forced off
    rng = np.random.default_rng(53)
    coeffs, limits = [], []
    for _ in range(300):
        top = 1 << int(rng.integers(25, 29))
        g = int(rng.choice([1, 2, 6]))
        coeffs.append([(top - int(v)) // g * g for v in rng.integers(1, 1000, size=4)])
        limits.append([int(v) for v in rng.integers(0, 41, size=4)])
    # three coefficients sharing 2^k > 40 and an odd fourth with the
    # largest limit: the fourth is stepped (one cell), so the guard reads
    # the closed triple and not the three largest boxes
    for _ in range(300):
        top, g = 1 << int(rng.integers(25, 29)), 1 << int(rng.integers(6, 11))
        coeffs.append([(top - int(v)) // g * g for v in rng.integers(1, 1000, size=3)]
                      + [top - 2 * int(rng.integers(1, 1000)) - 1])
        limits.append([int(v) for v in rng.integers(1, 31, size=3)]
                      + [int(rng.integers(31, 41))])
    C, L = np.array(coeffs), np.array(limits)
    weights = rng.integers(-3, 4, size=len(C))
    fits = lattice._fits_int64_vec(*_arranged(C, L))
    assert (C < 1 << 28).all()
    assert 30 < fits[:300].sum() < 300 - 30
    # (unless a cheaper column shares a factor with the fourth by chance)
    stepped = _arranged(C[300:], L[300:])[1][:, -4] == L[300:, 3]
    assert stepped.sum() > 270
    assert 30 < fits[300:][stepped].sum() < stepped.sum() - 30
    with _guard_off():
        want = lattice.count_zero_sum_rows(C, L).tolist()
    assert lattice.count_zero_sum_rows(C, L).tolist() == want
    with patch.object(lattice, "_CHUNK", 3):
        assert lattice.count_zero_sum_rows(C, L).tolist() == want
    assert lattice.count_zero_sum_batch(C, L, weights) == sum(
        w * count for w, count in zip(weights.tolist(), want))
    # a coefficient of 2^28 or more is refused before G is formed; clipped
    # to 2^28, this row's G would pass
    big = np.array([[1 << 40, (1 << 40) + 1, (1 << 40) + 3]])
    ones = np.ones((1, 3), dtype=np.int64)
    assert not lattice._fits_int64_vec(big, ones)[0]
    assert lattice._fits_int64_vec(big >> 13, ones)[0]


def test_a_rows_count_does_not_depend_on_its_batch():
    # rows inside the guard, past it (on int64 input and on Python ints
    # past int64) and with every limit zero: alone, together in any order,
    # and beside zero-limit rows, each row keeps its count
    top = (1 << 27) + 1
    rows = [((3, 5, 7, 2), (4, 3, 2, 2)), ((6, 10, 15, 1), (5, 5, 5, 0)),
            ((3 << 61, 5 << 61, 7 << 61, 2 << 61), (4, 3, 2, 2)),
            ((top, top + 2, top + 6, top + 8), (40, 40, 40, 40)),
            ((1, 1, 1, 1), (0, 0, 0, 0))]
    assert not lattice._fits_int64_vec(*(np.array([v]) for v in rows[3]))[0]
    alone = [count_zero_sum_boxes(c, L) for c, L in rows]
    assert alone[:3] == [brute_zero_sum_boxes(*rows[0]), brute_zero_sum_boxes(*rows[1]),
                         alone[0]]
    assert alone[4] == 1
    zero = ((5, 7, 9, 11), (0, 0, 0, 0))
    for order in itertools.permutations(range(len(rows))):
        batch = [rows[i] for i in order]
        batch = [zero] + [row for pair in zip(batch, [zero] * len(batch)) for row in pair]
        got = lattice.count_zero_sum_rows(*zip(*batch)).tolist()
        assert got[1::2] == [alone[i] for i in order] and set(got[::2]) == {1}


def test_lattice_grid_check_is_one_kernel_call():
    with patch.object(lattice, "count_zero_sum_rows",
                      wraps=lattice.count_zero_sum_rows) as rows, \
            patch.object(lattice, "count_zero_sum_boxes") as single:
        res = verify.check_lattice_grids(np.random.default_rng(0), 1000)
    assert (res.ok, res.detail) == (True, "1000 instances, 0 mismatches")
    assert rows.call_count == 1 and single.call_count == 0


def test_batch_grids_split_across_chunks():
    # n = 4 and n = 5 shaped rows, whose grids of outer cells are split
    # between batches, against the grid oracle
    rng = np.random.default_rng(59)
    C = rng.integers(1, 40, size=(40, 5))
    L = rng.integers(0, 5, size=(40, 5))
    weights = rng.integers(-5, 6, size=40)
    want = _batch_by_the_grid(C.tolist(), L.tolist(), weights.tolist())
    for chunk in (1, 2, 5, 7, 64):
        with patch.object(lattice, "_CHUNK", chunk):
            assert lattice.count_zero_sum_batch(C, L, weights) == want


def test_batch_contract():
    ones = np.ones((2, 3), dtype=np.int64)
    for coeffs, limits, weights in (
            (ones, ones[:, :2], np.ones(2)),      # shapes differ
            (ones, ones, np.ones(3)),             # one weight per row
            (ones[0], ones[0], np.ones(1)),       # not rows
            (ones, -ones, np.ones(2)),            # a negative limit
            (0 * ones, ones, np.ones(2))):        # an active zero coefficient
        with pytest.raises(ContractViolation):
            lattice.count_zero_sum_batch(coeffs, limits, weights)
    # an inactive pair's coefficient is ignored
    assert lattice.count_zero_sum_batch([[0, 2, 3]], [[0, 1, 1]], [5]) == 5
    # a weighted sum past int64 is added in Python integers (91 solutions
    # of x + y + z = 0 in [-5, 5]^3)
    assert lattice.count_zero_sum_batch([[1, 1, 1]] * 2, [[5, 5, 5]] * 2,
                                        [1 << 61, (1 << 61) - 1]) == 91 * ((1 << 62) - 1)
