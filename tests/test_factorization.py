import itertools
import math

import numpy as np
import pytest

from hypercount import factorization, verify
from hypercount.errors import ContractViolation, ResourceLimit
from hypercount.factorization import (compose, compose_rows, dominated_by,
                                      factorize, factorize_rows,
                                      incomparable_pairs, is_reduced,
                                      reduced_rows)
from hypercount.oracles import (incomparable, random_reduced,
                                reduced_by_definition, subset_of)
from oracles import coprimality_condition

# Mersenne primes past 2^63
P89, P107, P127 = 2 ** 89 - 1, 2 ** 107 - 1, 2 ** 127 - 1


def _factors_by_definition(y, z) -> bool:
    """y_j = prod_h z_h^{bit_j(h)}, z reduced (pair by pair and over
    maximal chains) and prod z = lcm(y), all in Python ints."""
    n = len(y)
    composed = tuple(math.prod(v for h, v in enumerate(z, start=1) if j in subset_of(h, n))
                     for j in range(1, n + 1))
    return (composed == tuple(y) and reduced_by_definition(tuple(z), n)
            and coprimality_condition(z) and math.prod(z) == math.lcm(*y))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dominance_matches_set_containment(n):
    idx = range(1, 1 << n)
    assert all(dominated_by(h, l) == (subset_of(h, n) <= subset_of(l, n))
               for h in idx for l in idx)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dominance_partial_order_axioms(n):
    # dominance is set containment, reflexive, antisymmetric and transitive
    res = verify.check_dominance((n,))
    assert res.ok, res.detail


def test_incomparable_pairs_against_oracle():
    for n in (3, 4):
        pairs = set(incomparable_pairs(n))
        expect = {(h, l) for h in range(1, 1 << n) for l in range(h + 1, 1 << n)
                  if incomparable(h, l, n)}
        assert pairs == expect
    assert len(incomparable_pairs(3)) == 9


def test_is_reduced_examples():
    assert is_reduced((1,) * 7)
    assert is_reduced((1, 1, 2, 1, 3, 5, 1))
    assert not is_reduced((2, 2, 1, 1, 1, 1, 1))
    with pytest.raises(ContractViolation):
        is_reduced((1, 1, 1, 1, 1))  # length not of the form 2^n - 1
    with pytest.raises(ContractViolation):
        is_reduced((0,) * 7)


def test_is_reduced_matches_definition_randomized():
    rng = np.random.default_rng(3)
    for n, draws in ((3, 300), (4, 300), (5, 100)):
        for _ in range(draws):
            z = tuple(int(v) for v in rng.integers(1, 7, size=(1 << n) - 1))
            assert is_reduced(z) == reduced_by_definition(z, n)


def test_factorize_examples():
    assert factorize((1, 1, 1)) == (1,) * 7
    assert factorize((6, 10, 15)) == (1, 1, 2, 1, 3, 5, 1)
    assert factorize((2, 2, 2)) == (1, 1, 1, 1, 1, 1, 2)


def test_compose_examples():
    assert compose((1,) * 7) == (1, 1, 1)
    assert compose((1, 1, 1, 1, 1, 1, 2)) == (2, 2, 2)
    assert compose((1, 1, 2, 1, 3, 5, 1)) == (6, 10, 15)
    with pytest.raises(ContractViolation):
        compose((2, 2, 1, 1, 1, 1, 1))


def test_roundtrip_exhaustive_n3():
    # every tuple of [1,50]^3 round trips to a reduced tuple with the lcm
    res = verify.check_roundtrip_exhaustive(50)
    assert res.ok, res.detail


@pytest.mark.parametrize("n", [4, 5])
def test_roundtrip_randomized(n):
    res = verify.check_roundtrip_random(np.random.default_rng(n), 1500, dims=(n,))
    assert res.ok, res.detail


@pytest.mark.parametrize("n", [3, 4])
def test_factorize_inverts_compose_on_reduced_tuples(n):
    rng = np.random.default_rng(11 + n)
    for _ in range(300):
        z = random_reduced(rng, n, 6)
        assert reduced_by_definition(z, n)
        assert factorize(compose(z)) == z


@pytest.mark.parametrize("n, top", [(2, 40), (3, 12), (4, 5)])
def test_row_routines_on_int64_grids(n, top):
    ys = list(itertools.product(range(1, top + 1), repeat=n))
    Z = factorize_rows(ys)
    assert Z.dtype == np.int64
    zs = Z.tolist()
    assert all(_factors_by_definition(y, z) for y, z in zip(ys, zs))
    assert compose_rows(Z).tolist() == [list(y) for y in ys]
    assert reduced_rows(Z).all()


def test_rows_on_each_side_of_the_int64_guard():
    # products just below 2^62 stay on int64; 2^62 and above go to Python ints
    below = [(2 ** 31 - 1, 2 ** 31 - 1), (6 << 20, 10 << 20)]
    above = [(2 ** 31, 2 ** 31), (3 << 40, 5 << 40)]
    assert factorize_rows(below).dtype == compose_rows(factorize_rows(below)).dtype == np.int64
    assert factorize_rows(above).dtype == object
    mixed = factorize_rows(below + above)
    assert mixed.dtype == object
    assert mixed[:2].tolist() == factorize_rows(below).tolist()
    for y, z in zip(below + above, mixed.tolist()):
        assert all(type(v) is int for v in z)
        assert _factors_by_definition(y, z) and factorize(y) == tuple(z)
    assert compose_rows(mixed).tolist() == [list(y) for y in below + above]
    assert reduced_rows(mixed).all()


def test_rows_past_int64_in_python_ints():
    ys = [(P89 * P107, P107 * P127, P89 * P127),
          (2 ** 70 * 3, 2 ** 64 * 35, 10 ** 30),
          (P127 ** 2, P127 * 6, P89, 2 ** 65),
          (10 ** 4299 + 1, 6, 10)]
    for y in ys:
        Z = factorize_rows([y])
        assert Z.dtype == object
        z = Z[0].tolist()
        assert _factors_by_definition(y, z)
        assert compose(tuple(z)) == y and is_reduced(z)
    assert factorize((P89 * P107, P107 * P127, P89 * P127)) == (1, 1, P107, 1, P89, P127, 1)
    # a shared big prime on two incomparable entries is not reduced
    assert not is_reduced((P89, P89 * 2, 1, 1, 1, 1, 1))
    rows = [(P89, P107, 1), (P89, P89, 1), (3, 6, 1)]
    assert reduced_rows(rows).tolist() == [True, False, False]


def test_reduced_rows_match_the_definitions():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5):
        zs = rng.integers(1, 7, size=(400, (1 << n) - 1))
        want = [reduced_by_definition(tuple(z), n) for z in zs.tolist()]
        assert reduced_rows(zs).tolist() == want
        assert want == [coprimality_condition(z) for z in zs.tolist()]
        # past int64: with P127 in every entry no incomparable pair is coprime,
        # and P127 on the full set alone (comparable to all) changes nothing
        assert reduced_rows(zs.astype(object) * P127).tolist() == [False] * len(zs)
        top = zs.astype(object)
        top[:, -1] *= P127
        assert reduced_rows(top).tolist() == want


def test_reduced_rows_blocks_do_not_change_the_results(monkeypatch):
    Z = factorize_rows(np.random.default_rng(6).integers(1, 60, size=(300, 4)))
    Z[::3, 0] *= 2  # z_1 shares the factor 2 with some incomparable entries
    want = reduced_rows(Z)
    assert 0 < want.sum() < len(Z)
    monkeypatch.setattr(factorization, "_CELLS", 7)  # blocks of one or two rows and pairs
    assert (reduced_rows(Z) == want).all()


def test_one_row_calls_return_python_int_tuples():
    for y, z in [((6, 10, 15), (1, 1, 2, 1, 3, 5, 1)), ((2, 2, 2), (1,) * 6 + (2,)),
                 ((2 ** 64 * 3, 2 ** 64 * 5), (3, 5, 2 ** 64))]:
        got = factorize(y)
        assert got == z and type(got) is tuple and all(type(v) is int for v in got)
        back = compose(z)
        assert back == y and all(type(v) is int for v in back)
    assert is_reduced((1, 1, 2, 1, 3, 5, 1)) is True


def test_bad_input_is_refused():
    for call, arg in [(factorize, (5,)), (factorize, (6, 0, 15)), (factorize, (6, -10, 15)),
                      (compose, (1,) * 6), (compose, (1, 1, 0)), (is_reduced, (1,)),
                      (is_reduced, (1, 1, 2 ** 70, 0, 1, 1, 1)),
                      (factorize_rows, [6, 10, 15]), (reduced_rows, [[1] * 5]),
                      (compose_rows, [[1, 1, 2 ** 70, -1, 1, 1, 1]])]:
        with pytest.raises(ContractViolation):
            call(arg)
    for call, arg in [(factorize, (6,) * 13), (is_reduced, (1,) * 8191),
                      (compose, (1,) * 8191)]:
        with pytest.raises(ResourceLimit):
            call(arg)
