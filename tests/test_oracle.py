"""Brute-force cross-checks of the scan engine."""
from __future__ import annotations

import pytest

from braidrep.errors import ResourceLimitError, UsageError
from braidrep.groups import SL2, AbelianProduct, SymmetricGroup
from braidrep.oracle import (
    brute_hom_Bn,
    brute_hom_K3,
    brute_hom_Kn,
    engine_census_Bn,
    engine_census_Kn,
)


@pytest.mark.parametrize("group", [SymmetricGroup(2), SymmetricGroup(3), AbelianProduct((6,)), SL2(2)],
                         ids=lambda g: g.name)
def test_k3_count_is_order_squared(group):
    res = brute_hom_K3(group)
    assert res.rep_count == group.order ** 2
    assert res.relation_checks == 0  # no generator images to test at stage 3


def test_k3_census_matches_engine(tower_s3):
    res = brute_hom_K3(tower_s3.group)
    assert res.census == engine_census_Kn(tower_s3, 3)


@pytest.mark.parametrize("n", [4, 5])
def test_kn_census_matches_engine_s3(tower_s3, n):
    res = brute_hom_Kn(tower_s3.group, n)
    assert res.census == engine_census_Kn(tower_s3, n)
    assert res.rep_count == tower_s3.level(n).rep_count


def test_kn_census_matches_engine_z6(tower_z6):
    res = brute_hom_Kn(tower_z6.group, 4)
    assert res.census == engine_census_Kn(tower_z6, 4)
    assert res.rep_count == 36


@pytest.mark.parametrize("n,count", [(2, 6), (3, 12), (4, 12)])
def test_bn_census_matches_engine_s3(tower_s3, n, count):
    res = brute_hom_Bn(tower_s3.group, n)
    assert res.rep_count == count
    assert res.census == engine_census_Bn(tower_s3, n)


def test_bn_census_matches_engine_s2(tower_s2):
    for n in (2, 3, 4):
        res = brute_hom_Bn(tower_s2.group, n)
        assert res.rep_count == 2
        assert res.census == engine_census_Bn(tower_s2, n)


@pytest.mark.parametrize("n,count", [(2, 24), (3, 96), (4, 144)])
def test_bn_census_matches_engine_s4(tower_s4, n, count):
    res = brute_hom_Bn(tower_s4.group, n)
    assert res.rep_count == count
    assert res.census == engine_census_Bn(tower_s4, n)


def test_budget_exhaustion(s3):
    with pytest.raises(ResourceLimitError):
        brute_hom_Kn(s3, 4, budget=10)
    with pytest.raises(ResourceLimitError):
        brute_hom_Bn(s3, 3, budget=2)


@pytest.mark.parametrize("budget", [0, -5])
def test_budget_below_one_is_a_usage_error(s3, budget):
    with pytest.raises(UsageError, match="at least 1"):
        brute_hom_Kn(s3, 4, budget=budget)
    with pytest.raises(UsageError, match="at least 1"):
        brute_hom_Bn(s3, 3, budget=budget)
    with pytest.raises(UsageError, match="at least 1"):
        brute_hom_K3(s3, budget=budget)


def test_stage_bounds(s3):
    with pytest.raises(UsageError):
        brute_hom_Kn(s3, 2)
    with pytest.raises(UsageError):
        brute_hom_Bn(s3, 1)


def test_relation_checks_are_counted(s2):
    small = brute_hom_Kn(s2, 4, budget=1000)
    assert 0 < small.relation_checks <= 1000
