import numpy as np
import pytest

from hypercount import verify
from hypercount.errors import ContractViolation
from hypercount.factorization import (compose, dominated_by, factorize,
                                      incomparable_pairs, is_reduced)
from hypercount.oracles import (incomparable, random_reduced,
                                reduced_by_definition, subset_of)


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
