"""Stagewise extension: b3 scans, higher generators, braid extensions, towers."""
from __future__ import annotations

import numpy as np
import pytest

from braidrep.errors import UsageError, VerificationError
from braidrep.extension import (
    BraidExtension,
    _conjugation_orbits,
    compute_tower,
    extend_step,
    extend_to_K4,
    extend_to_braid,
    hom_Bn_when_Kn_trivial,
)
from braidrep.groups import SL2, CayleyTableGroup, SymmetricGroup, alternating_group, parse_group_spec
from braidrep.shift import Cycle, Representation, decompose


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
    rep = Representation(s3, d.cycle_at((1, 2)), 0)
    with pytest.raises(UsageError):
        extend_step(rep)


def test_extend_step_empty_over_s4(tower_s4, s4):
    for cls in tower_s4.level(4).classes:
        if not cls.is_trivial():
            assert extend_step(cls) == []


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
    rep = Representation(s5, cyc, phase, (b3,))

    p = cyc.length
    brute = []
    for g in s5.elements():
        if g == s5.identity:
            continue
        inter = all(
            s5.mul(rep.a(m), g) == s5.mul(g, rep.a(m + 1)) for m in range(p)
        )
        braid = s5.mul(s5.mul(g, b3), g) == s5.mul(s5.mul(b3, g), b3)
        if inter and braid:
            brute.append(g)
    found = extend_step(rep)
    assert found == brute
    assert s5.index_of((2, 1, 3, 5, 4)) in found  # (1 2)(4 5) at handle 25


# ---------------------------------------------------------------------------
# braid extensions
# ---------------------------------------------------------------------------

def test_trivial_class_extends_by_every_element(s3, z6):
    for group in (s3, z6):
        d = decompose(group)
        rep = Representation(group, d.trivial_cycle, 0)
        assert extend_to_braid(rep) == sorted(group.elements())


def test_braid_extension_of_period_two_cycle_over_s3(s3):
    d = decompose(s3)
    rep = Representation(s3, d.cycle_at((3, 4)), 0)
    # exactly the three transpositions
    assert extend_to_braid(rep) == [1, 2, 5]


def test_braid_extension_empty_when_period_does_not_divide_order(s3):
    d = decompose(s3)
    nine = Representation(s3, d.cycle_at((1, 2)), 0)
    assert nine.period == 9
    assert extend_to_braid(nine) == []


def test_braid_extension_c_satisfies_defining_relation(s3):
    d = decompose(s3)
    rep = Representation(s3, d.cycle_at((3, 4)), 0)
    for c in extend_to_braid(rep):
        for m in range(rep.period):
            assert s3.mul(c, rep.a(m)) == s3.mul(rep.a(m + 1), c)


def test_braid_extension_strand_images_validate(tower_s3, s3):
    lvl = tower_s3.level(3)
    checked = 0
    for cls, cs in zip(lvl.classes, lvl.braid_c):
        for c in cs:
            ext = BraidExtension(cls, c)
            ext.validate()
            assert len(ext.strand_images()) == 2
            checked += 1
    assert checked == lvl.braid_class_count


def test_braid_extension_validate_rejects_bad_c(s3):
    d = decompose(s3)
    rep = Representation(s3, d.cycle_at((3, 4)), 0)
    with pytest.raises(VerificationError):
        BraidExtension(rep, s3.identity).validate()


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
    lvl = tower_s4.level(4)
    with_trivial_b3 = [cls for cls in lvl.classes if cls.b == (s4.identity,)]
    extra = [cls for cls in lvl.classes if cls.b != (s4.identity,)]
    assert len(with_trivial_b3) == 88
    assert len(extra) == 30
    assert {cls.cycle.rep_vertex for cls in extra} == S4_SPECIAL_VERTICES
    assert sum(cls.period for cls in extra) == 96


def test_tower_z6_counts(tower_z6):
    assert [tower_z6.level(n).rep_count for n in (3, 4, 5)] == [36, 36, 1]
    assert tower_z6.level(4).braid_rep_count == 6
    assert tower_z6.level(5).braid_rep_count == 6


def test_every_class_has_a_parent_below(tower_s4, s4):
    for n in (4, 5, 6):
        parents = set(tower_s4.level(n - 1).classes)
        for cls in tower_s4.level(n).classes:
            assert cls.parent() in parents


def test_trivial_chain_present_at_every_level(tower_s4, s4):
    for lvl in tower_s4.levels:
        assert any(cls.is_trivial() for cls in lvl.classes)


def test_stage3_class_has_no_parent(tower_s3):
    with pytest.raises(UsageError):
        tower_s3.level(3).classes[0].parent()


def _relabelled(group, seed):
    """The group's Cayley table with its handles permuted at random."""
    perm = np.random.default_rng(seed).permutation(group.order)
    mul_t, _ = group.tables()
    table = np.empty_like(mul_t)
    table[np.ix_(perm, perm)] = perm[mul_t]
    return CayleyTableGroup(table, name=f"{group.name} relabelled by seed {seed}")


# Isomorphic backends number their elements differently, so agreement of the
# per-stage counts checks the engine independently of any one table.
ISOMORPHIC_PAIRS = [
    (lambda: SL2(4), lambda: alternating_group(5)),
    (lambda: SL2(2), lambda: SymmetricGroup(3)),
    (lambda: parse_group_spec("Z6"), lambda: parse_group_spec("Z2xZ3")),
    *[(lambda seed=seed: _relabelled(SymmetricGroup(4), seed), lambda: SymmetricGroup(4))
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
    current = [Representation(group, c) for c in decomp.cycles]
    levels = [current]
    for n in range(4, n_max + 1):
        if n == 4:
            current = [Representation(group, cls.cycle, 0, (b3,))
                       for cls in current for b3 in extend_to_K4(group, cls.cycle)]
        else:
            current = [Representation(group, decomp.trivial_cycle, 0, (e,) * (n - 3))] + [
                Representation(group, cls.cycle, 0, cls.b + (g,))
                for cls in current if not cls.is_trivial() for g in extend_step(cls)]
        current = sorted(current, key=lambda cls: (cls.cycle.rep_vertex, cls.b))
        levels.append(current)
    return [[(cls.cycle, cls.b, tuple(extend_to_braid(cls))) for cls in lvl] for lvl in levels]


ORBIT_GROUPS = {
    "S4": lambda: SymmetricGroup(4),
    "S5": lambda: SymmetricGroup(5),
    "SL2(3)": lambda: SL2(3),
    "SL2(5)": lambda: SL2(5),
    "Z2xZ4xZ5": lambda: parse_group_spec("Z2xZ4xZ5"),
    "S1": lambda: SymmetricGroup(1),
    **{f"S4-relabelled-{seed}": (lambda seed=seed: _relabelled(SymmetricGroup(4), seed))
       for seed in (1, 2, 3)},
}


@pytest.mark.parametrize("name", ORBIT_GROUPS)
def test_tower_equals_exhaustive_scan(name):
    group = ORBIT_GROUPS[name]()
    tower = compute_tower(group, 6)
    ours = [[(cls.cycle, cls.b, cs) for cls, cs in zip(lvl.classes, lvl.braid_c)]
            for lvl in tower.levels]
    assert ours == _exhaustive_levels(group, 6)


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


def test_braid_counts_require_braid_pass(s3):
    t = compute_tower(s3, 4, with_braid=False)
    with pytest.raises(UsageError):
        t.level(3).braid_rep_count


def test_hom_bn_when_kn_trivial(s4, tower_s4, tower_s5):
    assert hom_Bn_when_Kn_trivial(s4, 6, tower_s4) == 24
    with pytest.raises(UsageError):
        hom_Bn_when_Kn_trivial(tower_s5.group, 5, tower_s5)


def test_rep_class_accessors(tower_s4, s4):
    cls = next(c for c in tower_s4.level(4).classes if c.b != (s4.identity,))
    assert cls.n == 4
    assert cls.phase == 0
    rep = Representation(s4, cls.cycle, 1, cls.b)
    assert rep.b == cls.b
    assert rep.vertex() == cls.cycle.vertex(1)
    assert Representation(s4, cls.cycle).n == 3
