"""Successor dynamics on G x G: cycles, censuses, phases."""
from __future__ import annotations

import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidrep import groups, shift
from braidrep.errors import VerificationError
from braidrep.groups import SL2, AbelianProduct, CayleyTableGroup, SymmetricGroup, parse_group_spec
from braidrep.shift import (
    decompose,
    order2_cycle_shape,
    successor,
)

from conftest import cycle_index, cycle_map, make_cycle, per_vertex_walk, relabelled, s3_x_z6
from test_groups import BACKENDS


def _vertices(c):
    """The vertices (a_k, a_{k+1}) of a Cycle, k = 0..p-1, read cyclically."""
    p = c.length
    return [(c.a_seq[k], c.a_seq[(k + 1) % p]) for k in range(p)]


def test_successor_examples(s3):
    e = s3.identity
    a = s3.index_of((2, 3, 1))  # the 3-cycle (1 2 3)
    assert successor(s3, (e, e)) == (e, e)
    assert successor(s3, (e, a)) == (a, a)
    assert successor(s3, (a, a)) == (a, e)
    assert successor(s3, (a, e)) == (e, s3.inv(a))


@given(st.integers(min_value=0, max_value=23), st.integers(min_value=0, max_value=23))
def test_successor_satisfies_recurrence(a0, a1):
    S = SymmetricGroup(4)
    _, a2 = successor(S, (a0, a1))
    assert a2 == S.mul(S.inv(a0), a1)


def test_decompose_s2(s2):
    d = decompose(s2)
    assert d.lengths.sum() == 4
    assert d.period_census == {1: 1, 3: 1}
    assert [c.length for c in d.cycles] == [1, 3]
    assert d.cycles[1].a_seq == (0, 1, 1)
    assert all(c.cycle_type == "I" for c in d.cycles)


def test_decompose_s3(s3):
    d = decompose(s3)
    assert d.lengths.sum() == 36
    assert d.period_census == {1: 1, 2: 1, 3: 3, 6: 1, 9: 2}
    assert int(d.is_type_I.sum()) == 5
    assert int(d.lengths[d.is_type_I].sum()) == 16
    assert {c.rep_vertex: c.length for c in d.cycles if c.cycle_type == "II"} == {(1, 2): 9, (1, 3): 9, (3, 4): 2}
    assert make_cycle(d, cycle_index(d, s3.identity, s3.identity)).length == 1


def test_order_three_element_walks_a_six_cycle(s3):
    # the cycle through (e, a) for a of order 3 visits
    # (e,a),(a,a),(a,e),(e,a^-1),(a^-1,a^-1),(a^-1,e)
    a = s3.index_of((2, 3, 1))
    d = decompose(s3)
    c = make_cycle(d, cycle_index(d, 0, a))
    assert c.a_seq == (0, a, a, 0, s3.inv(a), s3.inv(a))
    assert c.cycle_type == "I"


def test_involution_walks_a_three_cycle(s3):
    t = s3.index_of((2, 1, 3))
    d = decompose(s3)
    c = make_cycle(d, cycle_index(d, 0, t))
    assert c.a_seq == (0, t, t)


@pytest.mark.parametrize("group", [SymmetricGroup(4), AbelianProduct((6,)), SL2(3)],
                         ids=lambda g: g.name)
def test_cycle_products_are_identity(group):
    d = decompose(group)
    for c in d.cycles:
        prod = group.identity
        for a in c.a_seq:
            prod = group.mul(prod, a)
        assert prod == group.identity


@pytest.mark.parametrize("group", [SymmetricGroup(3), SymmetricGroup(4), SL2(2), AbelianProduct((2, 4))],
                         ids=lambda g: g.name)
def test_cycles_partition_the_vertex_set(group):
    d = decompose(group)
    seen = set()
    for c in d.cycles:
        for v in _vertices(c):
            assert v not in seen
            seen.add(v)
    assert len(seen) == group.order ** 2
    assert sum(p * n for p, n in d.period_census.items()) == group.order ** 2


REFERENCE_GROUPS = {
    **{spec: (lambda spec=spec: parse_group_spec(spec)) for spec in (
        "S1", "S2", "S3", "S4", "S5", "SL2(2)", "SL2(3)", "SL2(5)", "SL2(7)",
        "Z1", "Z300", "Z2xZ4xZ5")},
    **{f"S4-relabelled-{seed}": (lambda seed=seed: relabelled(SymmetricGroup(4), seed))
       for seed in (1, 2, 3)},
}


@pytest.mark.parametrize("name", REFERENCE_GROUPS)
def test_decompose_equals_per_vertex_walk(name):
    group = REFERENCE_GROUPS[name]()
    if "relabelled" in name:
        assert group.identity != 0
    cycles, census, cycle_of = per_vertex_walk(group)
    d = decompose(group)
    assert d.cycles == cycles
    assert list(d.period_census.items()) == list(census.items())
    codes = np.arange(group.order ** 2)
    assert cycle_index(d, codes // group.order, codes % group.order).tolist() == cycle_of


@pytest.mark.parametrize("group", [*BACKENDS, parse_group_spec("Z300"), relabelled(s3_x_z6(), 2)],
                         ids=lambda g: g.name)
def test_types_and_lazy_cycle_map_equal_per_vertex_walk(group):
    cycles, _, _ = per_vertex_walk(group)
    d = decompose(group)
    assert d.is_type_I.tolist() == [c.cycle_type == "I" for c in cycles]


def test_decompose_rejects_a_successor_map_that_is_not_a_bijection(monkeypatch):
    group = SymmetricGroup(3)
    # with every inverse the identity, (a0, a1) -> (a1, a1): from (0, 1) a walk
    # would circle the fixed point (1, 1) and never return to its seed
    monkeypatch.setattr(group, "_inv_table", np.zeros_like(group.tables()[1]))

    def hang(signum, frame):
        raise TimeoutError("decompose did not stop on a non-bijective successor map")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        with pytest.raises(VerificationError, match="bijection"):
            decompose(group)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_decompose_rejects_a_successor_code_outside_the_vertex_set(monkeypatch):
    group = SymmetricGroup(3)
    mul_t, inv_t = group.tables()
    # (1, 2) now steps to its true successor's code minus 36: an index below zero,
    # so the map still looks onto, but the cycle through (1, 2) never closes
    table = mul_t.copy()
    table[inv_t[1], 2] -= 36
    monkeypatch.setattr(group, "_mul_table", table)
    with pytest.raises(VerificationError, match="^cycle lengths do not partition the vertex set$"):
        decompose(group)


def test_decompose_rejects_more_than_one_fixed_point(monkeypatch):
    group = AbelianProduct((5,))
    # x * y = x - y and a^-1 = 2a give the bijection (a0, a1) -> (a1, 2 a0 - a1),
    # which fixes every diagonal vertex
    x = np.arange(5, dtype=np.int32)
    monkeypatch.setattr(group, "_mul_table", (x[:, None] - x[None, :]) % 5)
    monkeypatch.setattr(group, "_inv_table", 2 * x % 5)
    with pytest.raises(VerificationError, match=r"^expected exactly one fixed point \(the trivial cycle\)$"):
        decompose(group)


# a loop of order 6 with two-sided inverses that is not associative: its
# successor map is a bijection with one fixed point, but some cycle products are not e
NON_ASSOCIATIVE_LOOP = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
                        [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]]


def test_decompose_rejects_a_cycle_product_that_is_not_the_identity(monkeypatch):
    group = AbelianProduct((6,))
    table = np.array(NON_ASSOCIATIVE_LOOP, dtype=np.int32)
    inv = np.argmin(table, axis=1).astype(np.int32)       # the column of each row's 0
    assert (table[inv, np.arange(6)] == 0).all()
    monkeypatch.setattr(group, "_mul_table", table)
    monkeypatch.setattr(group, "_inv_table", inv)
    with pytest.raises(VerificationError, match=r"^cycle product is not the identity on the cycle through \(0, 2\)$"):
        decompose(group)


@pytest.mark.parametrize("check", [test_decompose_rejects_a_successor_map_that_is_not_a_bijection,
                                   test_decompose_rejects_a_successor_code_outside_the_vertex_set,
                                   test_decompose_rejects_more_than_one_fixed_point,
                                   test_decompose_rejects_a_cycle_product_that_is_not_the_identity],
                         ids=lambda check: check.__name__.removeprefix("test_decompose_"))
def test_decompose_rejects_broken_maps_one_seed_a_batch(check, monkeypatch):
    # every batch walks from one seed, so a map that leaves a seed's cycle open
    # ends the batches before the checks run
    monkeypatch.setattr(shift, "_DECOMPOSE_BATCH", 1)
    check(monkeypatch)


BATCH_GROUPS = {
    "S4": lambda: SymmetricGroup(4),
    "S3xZ6-relabelled-2": lambda: relabelled(s3_x_z6(), 2),
    "Z2xZ4xZ5": lambda: parse_group_spec("Z2xZ4xZ5"),
    "SL2(5)": lambda: SL2(5),
}


@pytest.mark.parametrize("batch", [1, 7, 64])
@pytest.mark.parametrize("name", BATCH_GROUPS)
def test_decompose_in_batches_equals_per_vertex_walk(name, batch, monkeypatch):
    group = BATCH_GROUPS[name]()
    cycles, census, cycle_of = per_vertex_walk(group)
    # batches end inside cycles of every length
    monkeypatch.setattr(shift, "_DECOMPOSE_BATCH", batch)
    batches, drop_walk = [], shift._drop_walk

    def recording_drop_walk(succ, seeds):
        batches.append(seeds)
        return drop_walk(succ, seeds)

    monkeypatch.setattr(shift, "_drop_walk", recording_drop_walk)
    d = decompose(group)
    assert d.cycles == cycles
    assert list(d.period_census.items()) == list(census.items())
    assert d.offsets.tolist() == np.cumsum([0] + [c.length for c in cycles[:-1]]).tolist()
    cycle_of_code = cycle_map(d)
    assert cycle_of_code.tolist() == cycle_of
    # every batch but the last has `batch` seeds, none on a cycle found before,
    # so each seed's least vertex is a seed of the same batch
    m = group.order
    assert {seeds.size for seeds in batches[:-1]} <= {batch}
    for seeds in batches:
        a0, a1 = d.rep_vertices(cycle_of_code[seeds])
        assert np.isin(a0 * m + a1, seeds).all()


# the peak bound in bytes a vertex: one batch holds 29 % of SL2(7)'s vertices
MEMORY_BOUNDS = {"SL2(7)": 24, "S6": 16}


@pytest.mark.parametrize("spec", ["SL2(7)", "S6"])
def test_decompose_memory_is_int32_sized(spec):
    group = parse_group_spec(spec)
    tracemalloc.start()
    try:
        d = decompose(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the successor map and the result, a_flat, take 4 bytes a vertex each and the
    # mask of codes not yet found 1; with a batch's walks the peak is 11.4 bytes a
    # vertex on S6 and 16.7 on SL2(7)
    assert peak <= MEMORY_BOUNDS[spec] * group.order ** 2
    assert d.a_flat.dtype == np.int32
    # int32 vertex codes and the fold index prod * m + a stay below m^2
    assert groups.MAX_TABLE_ENTRIES < 2 ** 31


def test_rep_vertex_is_lex_min(s4):
    d = decompose(s4)
    for c in d.cycles:
        assert c.rep_vertex == min(_vertices(c))


def test_type_I_iff_cycle_touches_diagonal(s4):
    for c in decompose(s4).cycles:
        touches = any(v0 == v1 for v0, v1 in _vertices(c))
        assert (c.cycle_type == "I") == touches


@pytest.mark.parametrize("group", [SymmetricGroup(4), AbelianProduct((6,))], ids=lambda g: g.name)
def test_order2_cycle_shape_matches_walk(group):
    d = decompose(group)
    for a in group.elements():
        predicted = order2_cycle_shape(group, a)
        assert predicted in (1, 3, 6)
        actual = make_cycle(d, cycle_index(d, group.identity, a)).length
        if predicted == 1:
            assert actual == 1
        elif predicted == 3:
            assert actual == 3
        else:
            assert actual in (2, 3, 6)
            assert actual != 1


def test_order2_shape_exact_values(s3):
    assert order2_cycle_shape(s3, s3.identity) == 1
    assert order2_cycle_shape(s3, s3.index_of((2, 1, 3))) == 3
    assert order2_cycle_shape(s3, s3.index_of((2, 3, 1))) == 6


def test_trivial_cycle_with_nonzero_identity_handle():
    # relabelled Z3 whose identity is handle 2: the fixed point must follow it
    sigma = [2, 0, 1]
    inv_sigma = [1, 2, 0]
    Z3 = AbelianProduct((3,))
    table = [[sigma[Z3.mul(inv_sigma[a], inv_sigma[b])] for b in range(3)] for a in range(3)]
    G = CayleyTableGroup(table)
    d = decompose(G)
    assert G.identity == 2
    trivial = make_cycle(d, cycle_index(d, G.identity, G.identity))
    assert trivial.length == 1
    assert trivial.a_seq == (2,)


# ---------------------------------------------------------------------------
# the recurrence along a cycle
# ---------------------------------------------------------------------------

def test_representation_accessors(s3):
    d = decompose(s3)
    c = make_cycle(d, cycle_index(d, 1, 2))
    a, p = c.a_seq, c.length
    assert p == 9
    assert _vertices(c)[0] == c.rep_vertex == (1, 2)
    for m in range(2 * p):
        assert a[(m + 2) % p] == s3.mul(s3.inv(a[m % p]), a[(m + 1) % p])


def test_lookups_and_type_filters_build_no_cycle_list(s4):
    d = decompose(s4)
    i = cycle_index(d, 3, 4)
    assert make_cycle(d, i).length == 2
    assert make_cycle(d, cycle_index(d, s4.identity, s4.identity)).length == 1
    assert d.vertex_codes(i, i + 1).tolist().index(4 * s4.order + 3) == 1
    assert (int(d.is_type_I.sum()), int((~d.is_type_I).sum())) == (17, 71)
    assert "cycles" not in vars(d)
