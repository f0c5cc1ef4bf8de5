"""Brute-force cross-checks of the scan engine, and of the oracle against the
depth-first scalar scan it replaced."""
from __future__ import annotations

import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import braidrep.extension as extension
import braidrep.oracle as oracle
import braidrep.shift as shift
from braidrep.errors import ResourceLimitError, UsageError
from braidrep.groups import SL2, AbelianProduct, SymmetricGroup, parse_group_spec
from braidrep.oracle import (
    brute_hom_Bn,
    brute_hom_Kn,
    engine_census_Bn,
    engine_census_Kn,
)
from conftest import relabelled, s3_x_z6


# ---------------------------------------------------------------------------
# reference: the depth-first scan with scalar group operations
# ---------------------------------------------------------------------------

def _pair_orbit(group, a0, a1):
    """First components along the recurrence orbit of (a0, a1), walked directly."""
    seq = [a0]
    x, y = a1, group.mul(group.inv(a0), a1)
    while (x, y) != (a0, a1):
        seq.append(x)
        x, y = y, group.mul(group.inv(x), y)
    return seq


def _canonical_vertex(a_seq):
    p = len(a_seq)
    return min((a_seq[k], a_seq[(k + 1) % p]) for k in range(p))


def _search_images(group, a_seq, n, i, prefix, sink, key, checks):
    """Extend prefix by one image of x_i at a time; a relation family stops at
    its first failure, and every check made is counted in checks[0]."""
    if i > n - 1:
        sink[(key, prefix)] += 1
        return
    mul = group.mul
    p = len(a_seq)
    for g in range(group.order):
        ok = True
        if i == 3:
            for m in range(p):
                checks[0] += 1
                if mul(mul(a_seq[m], g), a_seq[(m + 2) % p]) != mul(mul(g, a_seq[(m + 1) % p]), g):
                    ok = False
                    break
        else:
            for m in range(p):
                checks[0] += 1
                if mul(a_seq[m], g) != mul(g, a_seq[(m + 1) % p]):
                    ok = False
                    break
            if ok:
                prev = prefix[-1]
                checks[0] += 1
                if mul(mul(prev, g), prev) != mul(mul(g, prev), g):
                    ok = False
            if ok:
                for bj in prefix[:-1]:
                    checks[0] += 1
                    if mul(bj, g) != mul(g, bj):
                        ok = False
                        break
        if ok:
            _search_images(group, a_seq, n, i + 1, prefix + (g,), sink, key, checks)


def reference_Kn(group, n):
    """(rep_count, census, relation_checks) of the scalar depth-first K_n scan."""
    sink, checks = Counter(), [0]
    for a0 in range(group.order):
        for a1 in range(group.order):
            a_seq = _pair_orbit(group, a0, a1)
            _search_images(group, a_seq, n, 3, (), sink, _canonical_vertex(a_seq), checks)
    census = tuple(sorted((key, imgs, cnt) for (key, imgs), cnt in sink.items()))
    return sum(sink.values()), census, checks[0]


def reference_Bn(group, n):
    """(rep_count, census, relation_checks) of the scalar depth-first B_n scan."""
    mul, inv = group.mul, group.inv
    sink, checks = Counter(), [0]

    def place(k, s):
        if k == n - 1:
            c = s[0]
            if n == 2:
                sink[(None, (), c)] += 1
                return
            a0 = mul(s[1], inv(c))
            a1 = mul(mul(c, a0), inv(c))
            b = tuple(mul(s[j], inv(c)) for j in range(2, n - 1))
            sink[(_canonical_vertex(_pair_orbit(group, a0, a1)), b, c)] += 1
            return
        for g in range(group.order):
            ok = True
            if k >= 1:
                prev = s[-1]
                checks[0] += 1
                if mul(mul(prev, g), prev) != mul(mul(g, prev), g):
                    ok = False
            if ok:
                for far in s[:-1]:
                    checks[0] += 1
                    if mul(far, g) != mul(g, far):
                        ok = False
                        break
            if ok:
                place(k + 1, s + (g,))

    place(0, ())
    census = tuple((key, imgs, c, cnt) for (key, imgs, c), cnt in sorted(sink.items()))
    return sum(sink.values()), census, checks[0]


def _fields(res):
    return res.rep_count, res.census, res.relation_checks


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("spec", ["S2", "S3", "Z6", "Z7"])
def test_kn_equals_the_scalar_scan(spec, n):
    group = parse_group_spec(spec)
    assert _fields(brute_hom_Kn(group, n)) == reference_Kn(group, n)


# the five verify-small scans; their relation checks sum to 456 717
VERIFY_SMALL = [
    ("Z2xZ2xZ2xZ5", lambda: parse_group_spec("Z2xZ2xZ2xZ5"), 5, 137_406),
    ("Z2xZ4xZ5", lambda: parse_group_spec("Z2xZ4xZ5"), 5, 137_550),
    ("S4", lambda: parse_group_spec("S4"), 6, 36_147),
    ("SL2(3)", lambda: parse_group_spec("SL2(3)"), 6, 36_795),
    *[(f"S3xZ6-seed{seed}", lambda seed=seed: relabelled(s3_x_z6(), seed), 6, 108_819) for seed in (1, 2, 3)],
]


@pytest.mark.parametrize("make,n,checks", [case[1:] for case in VERIFY_SMALL], ids=[case[0] for case in VERIFY_SMALL])
def test_verify_small_scans_equal_the_scalar_scan(make, n, checks):
    group = make()
    res = brute_hom_Kn(group, n)
    assert res.relation_checks == checks and type(res.relation_checks) is int   # it goes into JSON
    assert res.rep_count == 1
    assert _fields(res) == reference_Kn(group, n)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("spec", ["S2", "S3", "S4", "Z6"])
def test_bn_equals_the_scalar_scan(spec, n):
    group = parse_group_spec(spec)
    assert _fields(brute_hom_Bn(group, n)) == reference_Bn(group, n)


@pytest.mark.parametrize("scan,spec,n", [(brute_hom_Kn, "S3", 5), (brute_hom_Kn, "Z2xZ4xZ5", 4),
                                         (brute_hom_Bn, "S4", 4), (brute_hom_Bn, "S3", 5)])
def test_budget_of_exactly_the_checks_made_suffices(scan, spec, n):
    group = parse_group_spec(spec)
    used = scan(group, n).relation_checks
    assert scan(group, n, budget=used).relation_checks == used
    with pytest.raises(ResourceLimitError):
        scan(group, n, budget=used - 1)


def test_oracle_runs_without_the_engine(s3, s4, monkeypatch):
    def scans():
        return [_fields(brute_hom_Kn(s3, 5)), _fields(brute_hom_Kn(s4, 4)), _fields(brute_hom_Bn(s4, 4))]

    def engine_called(*args, **kwargs):
        raise AssertionError("the oracle called the engine")

    expected = scans()
    engine = [shift.decompose, extension.extend_to_K4, extension.extend_step, extension.extend_to_braid]
    # every binding, in every braidrep module, of the engine's decomposition and scans
    patched = set()
    for module in [m for key, m in sys.modules.items() if key == "braidrep" or key.startswith("braidrep.")]:
        for name, value in list(vars(module).items()):
            if any(value is fn for fn in engine):
                monkeypatch.setattr(module, name, engine_called)
                patched.add(name)
    assert patched == {"decompose", "extend_to_K4", "extend_step", "extend_to_braid"}
    assert scans() == expected


@pytest.mark.parametrize("make,n", [(lambda: parse_group_spec("Z2xZ4xZ5"), 5), (lambda: relabelled(s3_x_z6(), 1), 6)],
                         ids=["Z2xZ4xZ5", "S3xZ6"])
def test_oracle_works_in_bounded_memory(make, n):
    group = make()
    tracemalloc.start()
    try:
        brute_hom_Kn(group, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bn_keys_only_the_tuples_it_accepted():
    # keying through the orbits of all m^2 pairs of SL2(7) peaks at about 40 MB
    group = SL2(7)
    group.tables()
    tracemalloc.start()
    try:
        res = brute_hom_Bn(group, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.rep_count == 2688
    assert peak < 4 << 20


BLOCK_EDGE_CASES = ([("Kn", "S3", n) for n in range(3, 7)] + [("Kn", "Z6", n) for n in range(3, 6)]
                    + [("Bn", "S3", 4)])


@pytest.mark.parametrize("rows", [1, 3], ids=["one-row", "three-rows"])
@pytest.mark.parametrize("family,spec,n", BLOCK_EDGE_CASES, ids=[f"{f}-{g}-{n}" for f, g, n in BLOCK_EDGE_CASES])
def test_block_edges_match_the_scalar_scan(monkeypatch, rows, family, spec, n):
    # at the default block size every scalar-reference case fits in one block
    group = parse_group_spec(spec)
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 1 if rows == 1 else rows * group.order)
    scan, reference = (brute_hom_Kn, reference_Kn) if family == "Kn" else (brute_hom_Bn, reference_Bn)
    assert _fields(scan(group, n)) == reference(group, n)


@pytest.mark.parametrize("group", [SymmetricGroup(2), SymmetricGroup(3), AbelianProduct((6,)), SL2(2)],
                         ids=lambda g: g.name)
def test_k3_count_is_order_squared(group):
    res = brute_hom_Kn(group, 3)
    assert res.rep_count == group.order ** 2
    assert res.relation_checks == 0  # no generator images to test at stage 3


def test_k3_census_matches_engine(tower_s3):
    res = brute_hom_Kn(tower_s3.group, 3)
    assert res.rep_count == tower_s3.group.order ** 2
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
        brute_hom_Kn(s3, 3, budget=budget)


def test_stage_bounds(s3):
    with pytest.raises(UsageError):
        brute_hom_Kn(s3, 2)
    with pytest.raises(UsageError):
        brute_hom_Bn(s3, 1)


def test_relation_checks_are_counted(s2):
    small = brute_hom_Kn(s2, 4, budget=1000)
    assert 0 < small.relation_checks <= 1000
