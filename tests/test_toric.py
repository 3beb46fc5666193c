import pytest

from hypercount import verify
from hypercount.errors import ContractViolation, ResourceLimit
from hypercount.toric import (VarietyCountFp, check_point, coxeter_points,
                              enumerate_variety, paired_points,
                              projective_points)


def test_projective_points():
    pts = projective_points(2, 3)
    assert len(pts) == 4  # (0:1), (1:0), (1:1), (1:2)
    assert all(p[next(i for i, v in enumerate(p) if v)] == 1 for p in pts)
    assert len(projective_points(3, 2)) == 7
    assert len(set(projective_points(4, 3))) == (3 ** 4 - 1) // 2


@pytest.mark.parametrize("n,p", [(3, 2), (3, 3), (3, 5), (3, 7),
                                 (4, 2), (4, 3), (4, 5)])
def test_counts_equal_excedance_evaluation(n, p):
    res = verify.check_finite_field_counts([("C", n, p)])
    assert res.ok, res.detail


@pytest.mark.parametrize("p", [2, 3, 5])
def test_paired_equals_coxeter(p):
    assert (enumerate_variety("B0", 3, p).count
            == enumerate_variety("C", 3, p).count)


@pytest.mark.parametrize("p", [2, 3])
def test_bundle_factor(p):
    base = enumerate_variety("C", 3, p).count
    total = enumerate_variety("X0", 3, p).count
    # each fiber has (p^3 - 1)/(p - 1) points: verify.check_fiber_audit
    assert total == (p ** 3 - 1) // (p - 1) * base


def test_unique_partner_blocks():
    # the paired variety projects bijectively onto the one-sided one
    for p in (2, 3, 5):
        ys = [tuple(sorted(yb.items())) for yb, _ in paired_points(3, p)]
        assert len(ys) == len(set(ys))


@pytest.mark.parametrize("p", [2, 3])
def test_every_point_passes_independent_audit(p):
    res = verify.check_fiber_audit((p,))
    assert res.ok, res.detail
    assert sum(1 for _ in coxeter_points(3, p)) == enumerate_variety("C", 3, p).count


def test_audit_rejects_wrong_points():
    good = next(iter(coxeter_points(3, 2)))
    variants = []
    for blk in [(1, 1, 0), (1, 0, 1), (0, 1, 1)]:
        bad = dict(good)
        bad[7] = blk
        variants.append(bad)
    # perturbing the top block must break compatibility somewhere
    assert not all(check_point("C", 3, 2, b) for b in variants)


def test_budget_and_validation():
    assert enumerate_variety("C", 3, 2) == VarietyCountFp("C", 3, 2, 13)
    with pytest.raises(ResourceLimit):
        enumerate_variety("C", 5, 2)
    with pytest.raises(ResourceLimit):
        enumerate_variety("C", 4, 11)
    with pytest.raises(ResourceLimit):
        enumerate_variety("B0", 4, 2)
    with pytest.raises(ResourceLimit):
        enumerate_variety("X0", 3, 5)
    with pytest.raises(ResourceLimit):
        enumerate_variety("C", 3, 9)  # the budget is checked before primality
    with pytest.raises(ContractViolation):
        enumerate_variety("C", 3, 4)  # not prime
    with pytest.raises(ContractViolation):
        enumerate_variety("Q", 3, 2)
