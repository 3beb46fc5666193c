import itertools
import math
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercount import counting, lattice, verify
from hypercount.counting import (CountReport, count_points, int_nth_root,
                                 mobius_sieve, squarefree_divisors)
from hypercount.errors import ContractViolation, ResourceLimit
from hypercount.factorization import compose, factorize, reduced_rows
from hypercount.oracles import brute_count_points, solutions_by_grid
from oracles import coprimality_condition


def test_int_nth_root():
    for v in (0, 1, 7, 8, 9, 26, 27, 28, 999, 1000, 10 ** 18):
        for n in (2, 3, 4):
            r = int_nth_root(v, n)
            assert r ** n <= v < (r + 1) ** n
    # exact beyond the float range, where a float first guess overflows
    v = 10 ** 400
    r = int_nth_root(v, 3)
    assert r ** 3 <= v < (r + 1) ** 3
    for r in (2 ** 53 + 1, 10 ** 40 + 7, 3 ** 300):
        for n in (2, 3, 5, 7):
            p = r ** n
            assert int_nth_root(p - 1, n) == r - 1
            assert int_nth_root(p, n) == r
            assert int_nth_root(p + 1, n) == r


def test_mobius_sieve_and_divisors():
    mu = mobius_sieve(30)
    expect = {1: 1, 2: -1, 3: -1, 4: 0, 6: 1, 12: 0, 30: -1}
    for k, v in expect.items():
        assert mu[k] == v
    assert sorted(squarefree_divisors(12)) == [(1, 1), (2, -1), (3, -1), (6, 1)]
    assert squarefree_divisors(1) == [(1, 1)]


def test_torsor_bijection_battery():
    """The factorized boxes map one to one onto the primitive solutions of
    height <= 1000 (n = 3).  For each y the box of z = factorize(y) is the
    x' with |x'_j| <= X // z_{2^{j-1}} satisfying the factorized equation
    sum_j x'_j prod_{|h| >= 2, j not in h} z_h = 0 and the primitivity
    gcd(z_top, x'_1 z_1, ..., x'_n z_{2^{n-1}}) = 1; x' maps to
    (z_{2^{j-1}} x'_j, compose(z))."""
    X = 10
    images = []
    for y in itertools.product(range(1, X + 1), repeat=3):
        z = factorize(y)
        single = np.array([z[(1 << j) - 1] for j in range(3)])
        co = [math.prod(v for h, v in enumerate(z, start=1)
                        if bin(h).count("1") >= 2 and not (h >> j) & 1)
              for j in range(3)]
        box = np.stack(np.meshgrid(*(np.arange(-c, c + 1) for c in X // single),
                                   indexing="ij"), axis=-1).reshape(-1, 3)
        x = box[box @ co == 0] * single
        x = x[np.gcd.reduce(x, axis=1, initial=z[-1]) == 1]
        image_y = compose(z)
        images += [(xs, image_y) for xs in map(tuple, x.tolist())]
    assert len(set(images)) == len(images)
    assert set(images) == set(solutions_by_grid(3, X))


def test_sign_orbit():
    """Flipping (x_i, y_i) -> (-x_i, -y_i) on any index subset preserves
    the defining equation (exhaustively at B = 10)."""
    X = int_nth_root(10, 3)
    for x, y in solutions_by_grid(3, X):
        for mask in range(8):
            xs = tuple(-v if (mask >> i) & 1 else v for i, v in enumerate(x))
            ys = tuple(-v if (mask >> i) & 1 else v for i, v in enumerate(y))
            assert sum(xs[i] * math.prod(ys[j] for j in range(3) if j != i)
                       for i in range(3)) == 0


def test_multiplicities_stay_exact_up_to_the_largest_admitted_n():
    # 20! is the largest factorial in int64, and past n = 14 the budget
    # admits only X = 1, whose rows are all ones (n = 22 is admitted)
    rows = np.array([list(range(1, 21)), [1] * 10 + [2] * 10, [3] * 20])
    assert counting._multiplicities(rows).tolist() == [
        math.factorial(20), math.comb(20, 10), 1]
    assert counting._multiplicities(np.ones((1, 22), dtype=np.int64)).tolist() == [1]
    budget = counting._WORK_BUDGET
    assert counting._work_estimate(22, 1) <= budget < counting._work_estimate(15, 2)


def test_coprimality_condition_examples():
    assert coprimality_condition((1,) * 7)
    assert not coprimality_condition((2, 2, 1, 1, 1, 1, 1))
    assert not coprimality_condition((1, 1, 2, 1, 4, 1, 1))


def test_coprimality_equivalent_to_reduced_exhaustive_n3():
    zs = list(itertools.product(range(1, 5), repeat=7))
    assert reduced_rows(zs).tolist() == [coprimality_condition(z) for z in zs]


def test_coprimality_equivalent_to_reduced_randomized_n4():
    zs = np.random.default_rng(4).integers(1, 5, size=(10 ** 4, 15))
    assert reduced_rows(zs).tolist() == [coprimality_condition(z) for z in zs.tolist()]


def test_count_edge_cases():
    assert count_points(3, 0.5, "direct").count == 0
    assert count_points(3, 0, "torsor").count == 0
    assert count_points(3, Fraction(7, 2), "direct").count == 28
    with pytest.raises(ContractViolation):
        count_points(3, -5, "direct")
    assert count_points(3, 1, "direct").count == 28
    assert count_points(3, 1, "moebius").count == 28
    assert count_points(3, 1, "torsor").count == 28
    with pytest.raises(ContractViolation):
        count_points(2, 10, "direct")
    with pytest.raises(ContractViolation):
        count_points(3, 10, "nonsense")


def test_counts_match_grid_oracle_small():
    for B in (1, 10, 100, 700):
        expect = brute_count_points(3, B)
        for method in ("direct", "moebius", "torsor"):
            assert count_points(3, B, method).count == expect


def test_report_fields():
    r = count_points(3, 1000, "direct")
    assert isinstance(r, CountReport)
    assert r.log_exponent == 4
    assert r.ratio == pytest.approx(r.count / (1000 * math.log(1000.0) ** 4))
    assert r.log_ratio == pytest.approx(math.log(r.ratio), rel=1e-12)
    assert count_points(3, 1, "direct").ratio is None
    assert count_points(3, 1, "direct").log_ratio is None


@pytest.mark.parametrize("method", ["direct", "moebius", "torsor"])
def test_shard_invariance(method):
    for shards in (2, 3, 7):
        res = verify.check_shard_invariance(3, 2000, shards, method)
        assert res.ok, res.detail


def test_methods_agree_moderate():
    for n, B in ((3, 10 ** 4), (4, 1000)):
        res = verify.check_pipelines_agree(n, B, 1)
        assert res.ok, res.detail


@pytest.mark.parametrize("B, expect", [(243, 2033936), (1024, 17414256),
                                       (3125, 62411376)])
def test_methods_agree_n5(B, expect):
    # X = 3, 4, 5; torsor leaves carry three outer coordinates per row
    for method in ("direct", "moebius", "torsor"):
        assert count_points(5, B, method).count == expect


@pytest.mark.parametrize("shards", [2, 3, 5])
def test_torsor_shard_invariance_n4(shards):
    assert count_points(4, 1000, "torsor", shards=shards).count == 852104


_FLUSH_CASES = [(3, 2000, 390052), (4, 1000, 852104), (5, 3125, 62411376)]


def test_torsor_default_cap_counts():
    for n, B, expect in _FLUSH_CASES:
        assert count_points(n, B, "torsor").count == expect


def _spy_kernel(monkeypatch):
    """The rows and the batch sizes the torsor sends to the batched kernel."""
    rows, batches = [], []
    kernel = counting.count_zero_sum_batch

    def spy(coeffs, limits, weights):
        batches.append(len(coeffs))
        rows.extend(zip(map(tuple, coeffs.tolist()), map(tuple, limits.tolist())))
        return kernel(coeffs, limits, weights)

    monkeypatch.setattr(counting, "count_zero_sum_batch", spy)
    return rows, batches


@pytest.mark.parametrize("cap", [1, 2, 3])
@pytest.mark.parametrize("n, B, expect", _FLUSH_CASES)
def test_torsor_counts_survive_tiny_flush_caps(monkeypatch, cap, n, B, expect):
    # a cap this small steps through search batches of a few rows, expands
    # a few kernel rows at a time and sends the row dict to the kernel a
    # few rows per batch; a row that recurs across the expansions still
    # reaches the kernel once, in one batch
    rows, batches = _spy_kernel(monkeypatch)
    monkeypatch.setattr(counting, "_TORSOR_CAP", cap)
    assert count_points(n, B, "torsor").count == expect
    assert len(batches) > 1 and max(batches) <= cap
    assert len(rows) == len(set(rows))


def _triple_rows(monkeypatch, n, B, method):
    """Cells the batched kernel sends to its closed form in one count."""
    rows = []
    kernel = lattice._triple_count_vec
    monkeypatch.setattr(lattice, "_triple_count_vec",
                        lambda T, row, s: rows.append(len(s)) or kernel(T, row, s))
    count_points(n, B, method)
    return sum(rows)


@pytest.mark.parametrize("method", ["direct", "moebius"])
def test_n4_counts_send_only_solvable_cells(monkeypatch, method):
    # each box steps one coordinate through the class that can solve it,
    # so 40,622 cells reach the closed form; every cell of half the grid
    # of the smallest box, solvable or not, would be 194,979
    assert _triple_rows(monkeypatch, 4, 1.6e5, method) <= 50_000


def test_n3_counts_send_one_cell_a_box(monkeypatch):
    assert _triple_rows(monkeypatch, 3, 2e5, "direct") == 40_794


def test_oversize_count_is_refused_before_it_starts():
    for B in (1e10, 2e19):
        with pytest.raises(ResourceLimit):
            count_points(3, B, "direct")
    with pytest.raises(ResourceLimit):
        count_points(40, 2 ** 40, "torsor")  # X = 2: over budget by its size alone
    # the largest acceptance cells stay inside the budget
    for n, B in ((3, 10 ** 6), (4, 160000)):
        X = int_nth_root(B, n)
        assert counting._work_estimate(n, X) <= counting._WORK_BUDGET


def test_n3_counts_are_priced_as_closed_form_calls(monkeypatch):
    # every n = 3 box closes in floor sums, so B = 1e8 (X = 464) is a run
    # of minutes and is admitted; the shards are stubbed out here
    monkeypatch.setattr(counting, "_run_shard", lambda task: 0)
    for method in ("direct", "moebius", "torsor"):
        assert count_points(3, 1e8, method).count == 0


def test_every_admitted_count_packs_into_int64():
    budget = counting._WORK_BUDGET
    admitted = 0
    for n in range(3, 3 + budget.bit_length()):
        X = 1
        while counting._work_estimate(n, X) <= budget:
            assert counting._packs_in_int64(n, X), (n, X)
            admitted += 1
            X += 1
    assert admitted > 668  # n = 3 alone admits X <= 668
    # past the budget, the torsor refuses what does not pack
    assert not counting._packs_in_int64(3, 1 << 15)
    with patch.object(counting, "_WORK_BUDGET", 10 ** 100):
        with pytest.raises(ResourceLimit, match="int64"):
            count_points(3, (1 << 15) ** 3, "torsor")


@pytest.mark.parametrize("rows", [
    np.array([[3, 1, 2], [0, 0, 0], [3, 1, 2], [1, 5, 0], [0, 0, 0], [3, 1, 2],
              [1, 4, 9]]),
    np.random.default_rng(8).integers(0, 4, size=(500, 4)),
    np.array([[7, 7]]),
    np.empty((0, 3), dtype=np.int64),
])
def test_distinct_rows_matches_np_unique(rows):
    # the rows go in field by field and come out as columns
    keys, mult = counting._distinct_rows(list(rows.T), np.ones(len(rows), dtype=np.int64))
    expect, counts = np.unique(rows, axis=0, return_counts=True)
    assert np.array_equal(keys.T, expect) and np.array_equal(mult, counts)
    weights = np.arange(1, len(rows) + 1) * (-1) ** np.arange(len(rows))
    sums: dict[tuple, int] = {}
    for row, wt in zip(map(tuple, rows.tolist()), weights.tolist()):
        sums[row] = sums.get(row, 0) + wt
    keys, summed = counting._distinct_rows(rows.T, weights)
    assert dict(zip(map(tuple, keys.T.tolist()), summed.tolist())) == sums


@pytest.mark.parametrize("n", range(3, 9))
def test_multiplicities_count_distinct_permutations(n):
    rng = np.random.default_rng(n)
    rows = np.sort(rng.integers(1, 4, size=(12 if n < 8 else 4, n)), axis=1)  # ties
    rows[0] = np.arange(1, n + 1)
    expect = [len(set(itertools.permutations(row))) for row in rows.tolist()]
    assert counting._multiplicities(rows).tolist() == expect


@pytest.mark.parametrize("n, X, leaves, weight", [(3, 12, 287, 1447), (4, 6, 106, 1199)])
def test_torsor_walks_one_tuple_per_orbit(monkeypatch, n, X, leaves, weight):
    # every leaf of the search is a primitive y (its top z, gcd(y), is
    # left to the divisor sum), sorted, and stands for its S_n orbit
    grid = [y for y in itertools.product(range(1, X + 1), repeat=n) if math.gcd(*y) == 1]
    assert (leaves, weight) == (sum(list(y) == sorted(y) for y in grid), len(grid))
    seen = []
    mult = counting._multiplicities

    def spy(y):
        assert (np.diff(y, axis=1) >= 0).all()
        seen.append(mult(y))
        return seen[-1]

    monkeypatch.setattr(counting, "_multiplicities", spy)
    count_points(n, X ** n, "torsor")
    assert sum(map(len, seen)) == leaves and sum(int(m.sum()) for m in seen) == weight


@pytest.mark.parametrize("n, B, sent", [(3, 2e5, 8850), (4, 1.6e5, 4139)])
def test_torsor_sends_each_kernel_row_once(monkeypatch, n, B, sent):
    # weighting one tuple per orbit changes the weights of the kernel
    # rows, not the rows: the full enumeration sent these numbers too
    rows, _ = _spy_kernel(monkeypatch)
    count_points(n, B, "torsor")
    assert len(set(rows)) == len(rows) == sent


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.sampled_from([3, 4, 5, 6]), X=st.integers(0, 12), extra=st.integers(0, 10 ** 6),
       cap=st.integers(1, 64), shards=st.integers(1, 3))
def test_torsor_matches_direct_under_any_cap(n, X, extra, cap, shards):
    # the first-level shard filter and the orbit's lower bounds meet under every cap
    X = min(X, {3: 12, 4: 6, 5: 5, 6: 2}[n])  # n = 6 walks 62 levels
    B = X ** n + extra % ((X + 1) ** n - X ** n)  # X = floor(B^(1/n))
    expect = count_points(n, B, "direct").count
    with patch.object(counting, "_TORSOR_CAP", cap):
        assert count_points(n, B, "torsor", shards=shards).count == expect
    if X ** n * (2 * X + 1) ** n <= 10 ** 5:  # the grid oracle's size
        assert brute_count_points(n, B) == expect
