"""Stagewise extension: b3 scans, higher generators, braid extensions, towers."""
from __future__ import annotations

import numpy as np
import pytest

from braidrep.errors import UsageError, VerificationError
from braidrep.extension import (
    _check_next_b_set,
    _conjugation_orbits,
    compute_tower,
    extend_step,
    extend_to_K4,
    extend_to_braid,
)
from braidrep.groups import SL2, SymmetricGroup, alternating_group, parse_group_spec
from braidrep.shift import Cycle, decompose

from conftest import level_rows, relabelled


# ---------------------------------------------------------------------------
# stage 4: images of b3
# ---------------------------------------------------------------------------

def test_b3_trivial_for_s3(s3):
    d = decompose(s3)
    for c in d.cycles:
        assert extend_to_K4(s3, c) == [s3.identity]


# rep vertices (0-based handles) of the ten cycles over S4 that admit
# nontrivial b3, from the level-4 census
S4_SPECIAL_VERTICES = {
    (3, 4), (3, 8), (3, 15), (3, 19), (4, 11),
    (4, 12), (4, 20), (8, 12), (11, 19), (15, 20),
}


def test_b3_sets_over_s4(s4):
    d = decompose(s4)
    special = {}
    for c in d.cycles:
        bs = extend_to_K4(s4, c)
        assert bs[0] == s4.identity
        if len(bs) > 1:
            special[c.rep_vertex] = bs
    assert set(special) == S4_SPECIAL_VERTICES
    # the nontrivial images are exactly the three double transpositions
    assert all(bs == [0, 7, 16, 23] for bs in special.values())


def test_b3_scan_agrees_with_direct_relation_check(s4):
    d = decompose(s4)
    for c in [d.cycle_at((3, 4)), d.cycle_at((1, 2)), d.trivial_cycle]:
        a = c.a_seq
        p = c.length
        brute = []
        for g in s4.elements():
            ok = all(
                s4.mul(s4.mul(a[m % p], g), a[(m + 2) % p])
                == s4.mul(s4.mul(g, a[(m + 1) % p]), g)
                for m in range(p)
            )
            if ok:
                brute.append(g)
        assert extend_to_K4(s4, c) == brute


def test_b3_set_is_phase_independent(s4):
    d = decompose(s4)
    c = d.cycle_at((3, 4))
    rotated = Cycle(c.a_seq[1:] + c.a_seq[:1], c.cycle_type)
    assert extend_to_K4(s4, rotated) == extend_to_K4(s4, c)


def test_type_I_cycles_admit_only_trivial_b3(s4):
    d = decompose(s4)
    for c in d.type_I():
        assert extend_to_K4(s4, c) == [s4.identity]


# ---------------------------------------------------------------------------
# stage 5 and above: the next generator
# ---------------------------------------------------------------------------

def test_extend_step_rejects_stage_3(s3):
    d = decompose(s3)
    with pytest.raises(UsageError):
        extend_step(s3, d.cycle_at((1, 2)), ())


def test_extend_step_empty_over_s4(tower_s4, s4):
    trivial = tower_s4.decomposition.trivial_cycle
    for cycle, b, _ in level_rows(tower_s4.level(4)):
        if cycle != trivial:
            assert extend_step(s4, cycle, b) == []


def test_extend_step_agrees_with_direct_relation_check(s5):
    # a stage-4 class over S5 whose cycle runs through ((1 3 2), (1 2 3))
    # with b3 = (1 2)(3 4); admissible b4 must intertwine the a-sequence,
    # braid with b3, and be nontrivial
    d = decompose(s5)
    v = (s5.index_of((3, 1, 2, 4, 5)), s5.index_of((2, 3, 1, 4, 5)))
    assert v == (48, 30)
    cyc, phase = d.phase_of(v)
    b3 = s5.index_of((2, 1, 4, 3, 5))
    assert b3 == 26

    p = cyc.length
    a = [cyc.a_seq[(phase + m) % p] for m in range(p + 1)]   # read from the vertex v
    brute = []
    for g in s5.elements():
        if g == s5.identity:
            continue
        inter = all(
            s5.mul(a[m], g) == s5.mul(g, a[m + 1]) for m in range(p)
        )
        braid = s5.mul(s5.mul(g, b3), g) == s5.mul(s5.mul(b3, g), b3)
        if inter and braid:
            brute.append(g)
    found = extend_step(s5, cyc, (b3,))
    assert found == brute
    assert s5.index_of((2, 1, 3, 5, 4)) in found  # (1 2)(4 5) at handle 25


def test_next_b_post_check_refuses_an_image_outside_the_conjugacy_class(s4):
    # after b = (1 2) over the trivial cycle: (2 3) does not commute with it and
    # is conjugate to it, so it passes; (1 2 3) does not commute but is no transposition
    last, other, three_cycle = (s4.index_of(p) for p in ((2, 1, 3, 4), (1, 3, 2, 4), (2, 3, 1, 4)))
    trivial = decompose(s4).trivial_cycle
    _check_next_b_set(s4, trivial, (last,), [other])
    with pytest.raises(VerificationError,
                       match=f"^admissible image {three_cycle} is not conjugate to its predecessor {last}$"):
        _check_next_b_set(s4, trivial, (last,), [other, three_cycle])


# ---------------------------------------------------------------------------
# braid extensions
# ---------------------------------------------------------------------------

def test_trivial_class_extends_by_every_element(s3, z6):
    for group in (s3, z6):
        d = decompose(group)
        assert extend_to_braid(group, d.trivial_cycle, ()) == sorted(group.elements())


def test_braid_extension_of_period_two_cycle_over_s3(s3):
    d = decompose(s3)
    # exactly the three transpositions
    assert extend_to_braid(s3, d.cycle_at((3, 4)), ()) == [1, 2, 5]


def test_braid_extension_empty_when_period_does_not_divide_order(s3):
    d = decompose(s3)
    nine = d.cycle_at((1, 2))
    assert nine.length == 9
    assert extend_to_braid(s3, nine, ()) == []


def test_braid_extension_c_satisfies_defining_relation(s3):
    d = decompose(s3)
    cycle = d.cycle_at((3, 4))
    a, p = cycle.a_seq, cycle.length
    for c in extend_to_braid(s3, cycle, ()):
        for m in range(p):
            assert s3.mul(c, a[m]) == s3.mul(a[(m + 1) % p], c)


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

def test_tower_s2_counts(tower_s2):
    assert [tower_s2.level(n).class_count for n in (3, 4, 5)] == [2, 2, 1]
    assert [tower_s2.level(n).rep_count for n in (3, 4, 5)] == [4, 4, 1]
    assert tower_s2.is_trivial_at(5)
    assert not tower_s2.is_trivial_at(3)


def test_tower_s3_counts(tower_s3):
    assert [tower_s3.level(n).rep_count for n in (3, 4, 5)] == [36, 36, 1]
    assert [tower_s3.level(n).class_count for n in (3, 4, 5)] == [8, 8, 1]
    assert tower_s3.is_trivial_at(5)
    assert tower_s3.level(3).braid_rep_count == 12
    assert tower_s3.level(4).braid_rep_count == 12
    assert tower_s3.level(5).braid_rep_count == 6


def test_tower_s4_counts(tower_s4):
    assert [tower_s4.level(n).rep_count for n in (3, 4, 5, 6)] == [576, 672, 1, 1]
    assert [tower_s4.level(n).class_count for n in (3, 4, 5, 6)] == [88, 118, 1, 1]
    assert tower_s4.is_trivial_at(5)
    assert tower_s4.level(5).braid_rep_count == 24
    assert tower_s4.level(6).braid_rep_count == 24


def test_tower_s4_level4_split(tower_s4, s4):
    rows = level_rows(tower_s4.level(4))
    with_trivial_b3 = [cycle for cycle, b, _ in rows if b == (s4.identity,)]
    extra = [cycle for cycle, b, _ in rows if b != (s4.identity,)]
    assert len(with_trivial_b3) == 88
    assert len(extra) == 30
    assert {cycle.rep_vertex for cycle in extra} == S4_SPECIAL_VERTICES
    assert sum(cycle.length for cycle in extra) == 96


def test_tower_z6_counts(tower_z6):
    assert [tower_z6.level(n).rep_count for n in (3, 4, 5)] == [36, 36, 1]
    assert tower_z6.level(4).braid_rep_count == 6
    assert tower_z6.level(5).braid_rep_count == 6


def test_every_class_has_a_parent_below(tower_s4, s4):
    for n in (4, 5, 6):
        below, lvl = tower_s4.level(n - 1), tower_s4.level(n)
        parents = set(zip(below.cycle_ids.tolist(), map(tuple, below.b.tolist())))
        assert set(zip(lvl.cycle_ids.tolist(), map(tuple, lvl.b[:, :-1].tolist()))) <= parents


def test_trivial_chain_present_at_every_level(tower_s4, s4):
    e = s4.identity
    for lvl in tower_s4.levels:
        assert any(cycle.a_seq == (e,) and set(b) <= {e} for cycle, b, _ in level_rows(lvl))


# Isomorphic backends number their elements differently, so agreement of the
# per-stage counts checks the engine independently of any one table.
ISOMORPHIC_PAIRS = [
    (lambda: SL2(4), lambda: alternating_group(5)),
    (lambda: SL2(2), lambda: SymmetricGroup(3)),
    (lambda: parse_group_spec("Z6"), lambda: parse_group_spec("Z2xZ3")),
    *[(lambda seed=seed: relabelled(SymmetricGroup(4), seed), lambda: SymmetricGroup(4))
      for seed in (1, 2, 3)],
]


def _stage_counts(group):
    tower = compute_tower(group, 6)
    return [(lvl.class_count, lvl.rep_count, lvl.braid_class_count, lvl.braid_rep_count)
            for lvl in tower.levels]


@pytest.mark.parametrize("make_g,make_h", ISOMORPHIC_PAIRS, ids=[
    "SL2(4)-A5", "SL2(2)-S3", "Z6-Z2xZ3", "S4relabelled1-S4", "S4relabelled2-S4", "S4relabelled3-S4"])
def test_isomorphic_backends_give_equal_counts(make_g, make_h):
    assert _stage_counts(make_g()) == _stage_counts(make_h())


# ---------------------------------------------------------------------------
# conjugation orbits: the tower against a scan of every cycle and class
# ---------------------------------------------------------------------------

def _exhaustive_levels(group, n_max):
    """(cycle, b, c set) of every class at stages 3..n_max, found by the public
    scans on every cycle and class, with no orbit reduction."""
    decomp = decompose(group)
    e = group.identity
    trivial = decomp.trivial_cycle
    current = [(cycle, ()) for cycle in decomp.cycles]
    levels = [current]
    for n in range(4, n_max + 1):
        if n == 4:
            current = [(cycle, (b3,)) for cycle, _ in current for b3 in extend_to_K4(group, cycle)]
        else:
            current = [(trivial, (e,) * (n - 3))] + [
                (cycle, b + (g,)) for cycle, b in current if (cycle, b) != (trivial, (e,) * (n - 4))
                for g in extend_step(group, cycle, b)]
        current = sorted(current, key=lambda cls: (cls[0].rep_vertex, cls[1]))
        levels.append(current)
    return [[(cycle, b, tuple(extend_to_braid(group, cycle, b))) for cycle, b in lvl] for lvl in levels]


ORBIT_GROUPS = {
    "S4": lambda: SymmetricGroup(4),
    "S5": lambda: SymmetricGroup(5),
    "SL2(3)": lambda: SL2(3),
    "SL2(5)": lambda: SL2(5),
    "Z2xZ4xZ5": lambda: parse_group_spec("Z2xZ4xZ5"),
    "S1": lambda: SymmetricGroup(1),
    **{f"S4-relabelled-{seed}": (lambda seed=seed: relabelled(SymmetricGroup(4), seed))
       for seed in (1, 2, 3)},
}


@pytest.mark.parametrize("name", ORBIT_GROUPS)
def test_tower_equals_exhaustive_scan(name):
    group = ORBIT_GROUPS[name]()
    tower = compute_tower(group, 6)
    assert [level_rows(lvl) for lvl in tower.levels] == _exhaustive_levels(group, 6)


def _cycle_orbits(decomp):
    """(least cycle id, number of cycles) of each cycle's conjugation orbit,
    from the rep vertex conjugated by every element of the group."""
    group = decomp.group
    mul_t, inv_t = group.tables()
    a0, a1 = decomp.rep_vertices(np.arange(decomp.lengths.size))
    g = np.arange(group.order)[:, None]
    ids = np.sort(decomp.cycle_index(mul_t[mul_t[g, a0], inv_t[g]], mul_t[mul_t[g, a1], inv_t[g]]), axis=0)
    return ids[0], 1 + (np.diff(ids, axis=0) != 0).sum(axis=0)


@pytest.mark.parametrize("name", ORBIT_GROUPS)
def test_orbit_rows_stand_for_every_class(name):
    tower = compute_tower(ORBIT_GROUPS[name](), 6)
    first, size = _cycle_orbits(tower.decomposition)
    for lvl in tower.levels:
        ids = lvl.cycle_ids
        assert lvl.orbit_rows.tolist() == np.flatnonzero(first[ids] == ids).tolist()
        assert lvl.orbit_size.tolist() == size[ids[lvl.orbit_rows]].tolist()
        weight = lvl.orbit_size
        period = tower.decomposition.lengths[ids[lvl.orbit_rows]]
        c_count = lvl.c_count[lvl.orbit_rows]
        assert weight.sum() == lvl.class_count
        assert weight @ period == lvl.rep_count
        assert weight @ c_count == lvl.braid_class_count
        assert weight @ (period * c_count) == lvl.braid_rep_count


@pytest.mark.parametrize("make", [lambda: relabelled(SymmetricGroup(5), 4), lambda: SL2(5)],
                         ids=["S5-relabelled-4", "SL2(5)"])
def test_classes_are_ordered_by_rep_vertex_then_b(make):
    tower = compute_tower(make(), 6)
    ties = long_runs = 0
    for lvl in tower.levels:
        rows = level_rows(lvl)
        keys = [(cycle.rep_vertex, b) for cycle, b, _ in rows]
        assert all(x < y for x, y in zip(keys, keys[1:]))
        ties += sum(x[0] == y[0] for x, y in zip(keys, keys[1:]))
        for _, _, cs in rows:
            assert all(x < y for x, y in zip(cs, cs[1:]))
            long_runs += len(cs) > 1
    # the order was tested on cycles with several classes and on several c
    assert ties and long_runs


# an abelian group conjugates trivially: its 270 cycles are 270 orbits; the
# trivial group has no generators at all
@pytest.mark.parametrize("spec,orbits", [("S1", 1), ("S4", 17), ("S5", 55), ("Z2xZ4xZ5", 270)])
def test_conjugation_orbit_counts(spec, orbits):
    decomp = decompose(parse_group_spec(spec))
    found = _conjugation_orbits(decomp)
    assert len(found.start) - 1 == orbits
    assert sorted(found.ids.tolist()) == list(range(len(decomp.cycles)))


def test_s6_conjugation_orbits(tower_s6):
    found = _conjugation_orbits(tower_s6.decomposition)
    assert len(found.start) - 1 == 261
    assert len(found.ids) == 33150


def test_tower_argument_errors(s3):
    with pytest.raises(UsageError):
        compute_tower(s3, 2)
    foreign = decompose(SymmetricGroup(3))
    with pytest.raises(UsageError):
        compute_tower(s3, 4, decomposition=foreign)


def test_tower_level_lookup_bounds(tower_s3):
    with pytest.raises(UsageError):
        tower_s3.level(2)
    with pytest.raises(UsageError):
        tower_s3.level(tower_s3.n_max + 1)

