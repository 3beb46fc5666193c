import itertools
import math

import numpy as np
import pytest

from hypercount.errors import ContractViolation
from hypercount.factorization import (Dominance, SubsetIndex, compose,
                                      dominated_by, factorize,
                                      incomparable_pairs, is_reduced, members,
                                      relation, subset_relation,
                                      tuple_product, weight)
from hypercount.oracles import (incomparable, random_reduced,
                                reduced_by_definition)


def test_subset_relation_examples():
    assert relation(3, 1) is Dominance.SECOND_BELOW_FIRST
    assert relation(1, 3) is Dominance.FIRST_BELOW_SECOND
    assert relation(5, 6) is Dominance.INCOMPARABLE
    assert relation(7, 7) is Dominance.EQUAL


def test_subset_index_validation_and_weight():
    s = SubsetIndex(5, 3)
    assert s.weight == 2 and s.members == (1, 3)
    assert SubsetIndex(7, 3).weight == 3
    for j in range(1, 4):
        single = SubsetIndex(1 << (j - 1), 3)
        assert [single.bit(k) for k in range(1, 4)] == [int(k == j) for k in range(1, 4)]
    with pytest.raises(ContractViolation):
        SubsetIndex(0, 3)
    with pytest.raises(ContractViolation):
        SubsetIndex(8, 3)
    with pytest.raises(ContractViolation):
        subset_relation(SubsetIndex(1, 3), SubsetIndex(1, 4))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dominance_matches_set_containment(n):
    top = 1 << n
    for h in range(1, top):
        for l in range(1, top):
            expect = set(members(h, n)) <= set(members(l, n))
            assert dominated_by(h, l) == expect


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dominance_partial_order_axioms(n):
    idx = range(1, 1 << n)
    for h in idx:
        assert dominated_by(h, h)
    for h in idx:
        for l in idx:
            if h != l:
                assert not (dominated_by(h, l) and dominated_by(l, h))
    for h in idx:
        for l in idx:
            if not dominated_by(h, l):
                continue
            for k in idx:
                if dominated_by(l, k):
                    assert dominated_by(h, k)


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
    for n in (3, 4):
        for _ in range(300):
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
    for y in itertools.product(range(1, 51), repeat=3):
        z = factorize(y)
        assert compose(z) == y
        assert tuple_product(z) == math.lcm(*y)


def test_roundtrip_outputs_are_reduced_n3():
    for y in itertools.product(range(1, 16), repeat=3):
        assert is_reduced(factorize(y))


@pytest.mark.parametrize("n", [4, 5])
def test_roundtrip_randomized(n):
    rng = np.random.default_rng(n)
    for _ in range(1500):
        y = tuple(int(v) for v in rng.integers(1, 51, size=n))
        z = factorize(y)
        assert is_reduced(z)
        assert compose(z) == y
        assert tuple_product(z) == math.lcm(*y)


@pytest.mark.parametrize("n", [3, 4])
def test_factorize_inverts_compose_on_reduced_tuples(n):
    rng = np.random.default_rng(11 + n)
    for _ in range(300):
        z = random_reduced(rng, n, 6)
        assert reduced_by_definition(z, n)
        assert factorize(compose(z)) == z
