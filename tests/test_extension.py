"""Stagewise extension: b3 scans, higher generators, braid extensions, towers."""
from __future__ import annotations

import dataclasses
import io
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import braidrep.cli as cli
import braidrep.extension as extension
import braidrep.verify as verify
from braidrep import report
from braidrep.analysis import pi_representation, transitivity_report
from braidrep.errors import UsageError, VerificationError
from braidrep.extension import (
    TowerLevel,
    _conjugate,
    _conjugation_orbits,
    compute_tower,
    element_orders,
    extend_step,
    extend_to_K4,
    extend_to_braid,
    is_trivial_class,
    stage_failure,
)
from braidrep.groups import SL2, SymmetricGroup, alternating_group, parse_group_spec
from braidrep.shift import ShiftDecomposition, decompose
from braidrep.verify import run_suites

from conftest import cycle_index, cycle_map, level_rows, make_cycle, relabelled, s3_x_z6


# ---------------------------------------------------------------------------
# reference scans: one class at a time, as the engine ran them before it
# scanned a stage at once
# ---------------------------------------------------------------------------

def _a_seq(d, i):
    start = int(d.offsets[i])
    return d.a_flat[start:start + int(d.lengths[i])].tolist()


def _reference_b3(d, i):
    """All admissible b3 over cycle i, sorted, the identity included."""
    mul_t, a = d.group.tables()[0], _a_seq(d, i)
    p, cand = len(a), np.arange(d.group.order)
    for m in range(p):
        cand = cand[mul_t[mul_t[a[m], cand], a[(m + 2) % p]] == mul_t[mul_t[cand, a[(m + 1) % p]], cand]]
        if cand.size <= 1:
            break
    return cand.tolist()


def _reference_step(d, i, b):
    """All admissible images of the next generator above (cycle i, b), sorted."""
    mul_t, a = d.group.tables()[0], _a_seq(d, i)
    p, last, cand = len(a), b[-1], np.arange(d.group.order)
    cand = cand[mul_t[mul_t[cand, last], cand] == mul_t[mul_t[last, cand], last]]
    for m in range(p):
        if cand.size == 0:
            break
        cand = cand[mul_t[a[m], cand] == mul_t[cand, a[(m + 1) % p]]]
    for bj in b[:-1]:
        cand = cand[mul_t[bj, cand] == mul_t[cand, bj]]
    return cand.tolist()


def _reference_c(d, i, b):
    """All admissible images c of sigma_1 extending (cycle i, b), sorted."""
    mul_t, a = d.group.tables()[0], _a_seq(d, i)
    p, cand = len(a), np.arange(d.group.order)
    for m in range(p):
        cand = cand[mul_t[cand, a[m]] == mul_t[a[(m + 1) % p], cand]]
        if cand.size == 0:
            break
    for bj in b:
        cand = cand[mul_t[bj, cand] == mul_t[cand, bj]]
    return cand.tolist()


def _per_row(found, k):
    """A stage scan's (rows, images) over k rows as one list of images per row,
    after checking that it is a tuple of two int arrays sorted by (row, image)."""
    assert type(found) is tuple and len(found) == 2
    rows, images = found
    assert rows.dtype.kind == images.dtype.kind == "i" and rows.shape == images.shape
    pairs = list(zip(rows.tolist(), images.tolist()))
    assert pairs == sorted(set(pairs))
    out = [[] for _ in range(k)]
    for r, g in pairs:
        out[r].append(g)
    return out


def _one(scan, d, i, b=None):
    """The stage scan run on the single class (cycle i, b), as a list of images."""
    args = (d, [i]) if b is None else (d, [i], np.array([b], dtype=np.int64).reshape(1, len(b)))
    return _per_row(getattr(extension, scan)(*args), 1)[0]


# the groups the stage scans are compared with their references on
REFERENCE_GROUPS = {
    "S4": lambda: SymmetricGroup(4),
    "S5": lambda: SymmetricGroup(5),
    "SL2(5)": lambda: SL2(5),
    "Z2xZ4xZ5": lambda: parse_group_spec("Z2xZ4xZ5"),
    "S3xZ6-relabelled-1": lambda: relabelled(s3_x_z6(), 1),
}


@pytest.fixture(scope="module", params=list(REFERENCE_GROUPS))
def reference_tower(request):
    return compute_tower(REFERENCE_GROUPS[request.param](), 6)


def _random_classes(tower, rng, count):
    """Random rows of the tower's stage-4 and stage-5 levels, half of them with
    their last image replaced by a random element, so that many are no class
    of the tower."""
    for n in (4, 5):
        ids, b, _, _ = tower.level(n).expand()
        pick = rng.integers(0, ids.size, count)
        ids, b = ids[pick], b[pick]
        noisy = rng.random(count) < 0.5
        b[noisy, -1] = rng.integers(0, tower.group.order, int(noisy.sum()))
        yield ids, b


@pytest.mark.parametrize("cells", [None, "below-one-row", "three-rows"])
def test_stage_scans_equal_the_per_class_scans(reference_tower, monkeypatch, cells):
    d = reference_tower.decomposition
    m = d.group.order
    if cells is not None:
        monkeypatch.setattr(extension, "_BLOCK_CELLS", m - 1 if cells == "below-one-row" else 3 * m)
    rng = np.random.default_rng(m)
    ids = rng.choice(d.lengths.size, min(40, d.lengths.size), replace=False)
    assert np.unique(d.lengths[ids]).size > 1
    assert _per_row(extend_to_K4(d, ids), ids.size) == [_reference_b3(d, i) for i in ids.tolist()]
    width0 = np.empty((ids.size, 0), dtype=np.int64)
    assert _per_row(extend_to_braid(d, ids, width0), ids.size) == [_reference_c(d, i, ()) for i in ids.tolist()]
    for ids, b in _random_classes(reference_tower, rng, 30):
        assert b.shape[1] > 1 or np.unique(d.lengths[ids]).size > 1
        classes = list(zip(ids.tolist(), map(tuple, b.tolist())))
        assert _per_row(extend_step(d, ids, b), ids.size) == [_reference_step(d, i, row) for i, row in classes]
        c_sets = _per_row(extend_to_braid(d, ids, b), ids.size)
        assert c_sets == [_reference_c(d, i, row) for i, row in classes]
        # identity columns, as a tower pads every stage to its last, change no c set
        padded = np.pad(b, ((0, 0), (0, 2)), constant_values=d.group.identity)
        assert _per_row(extend_to_braid(d, ids, padded), ids.size) == c_sets


def test_stage_scans_of_no_rows_are_empty(s4):
    d = decompose(s4)
    none = np.empty(0, dtype=np.int64)
    for found in (extend_to_K4(d, none), extend_step(d, none, np.empty((0, 1), dtype=np.int64)),
                  extend_to_braid(d, [], np.empty((0, 2), dtype=np.int64))):
        assert _per_row(found, 0) == []


# ---------------------------------------------------------------------------
# stage 4: images of b3
# ---------------------------------------------------------------------------

def _index(d, v):
    """The index of the cycle through the vertex v."""
    return int(cycle_index(d, *v))


def test_b3_trivial_for_s3(s3):
    d = decompose(s3)
    n = d.lengths.size
    assert _per_row(extend_to_K4(d, np.arange(n)), n) == [[s3.identity]] * n


# rep vertices (0-based handles) of the ten cycles over S4 that admit
# nontrivial b3, from the level-4 census
S4_SPECIAL_VERTICES = {
    (3, 4), (3, 8), (3, 15), (3, 19), (4, 11),
    (4, 12), (4, 20), (8, 12), (11, 19), (15, 20),
}


def test_b3_sets_over_s4(s4):
    d = decompose(s4)
    special = {}
    for c, bs in zip(d.cycles, _per_row(extend_to_K4(d, np.arange(len(d.cycles))), len(d.cycles))):
        assert bs[0] == s4.identity
        if len(bs) > 1:
            special[c.rep_vertex] = bs
    assert set(special) == S4_SPECIAL_VERTICES
    # the nontrivial images are exactly the three double transpositions
    assert all(bs == [0, 7, 16, 23] for bs in special.values())


def _brute_b3(group, a):
    """Every g with a_m g a_{m+2} = g a_{m+1} g for all m, a read cyclically."""
    p = len(a)
    return [g for g in group.elements()
            if all(group.mul(group.mul(a[m], g), a[(m + 2) % p])
                   == group.mul(group.mul(g, a[(m + 1) % p]), g) for m in range(p))]


def test_b3_scan_agrees_with_direct_relation_check(s4):
    d = decompose(s4)
    ids = [_index(d, v) for v in [(3, 4), (1, 2), (0, 0)]]
    assert _per_row(extend_to_K4(d, ids), 3) == [_brute_b3(s4, make_cycle(d, i).a_seq) for i in ids]


def test_b3_set_is_phase_independent(s4):
    # the scan reads the cycle from its least vertex; the relation check reads
    # it from the next one
    d = decompose(s4)
    i = _index(d, (3, 4))
    a = make_cycle(d, i).a_seq
    assert _one("extend_to_K4", d, i) == _brute_b3(s4, a[1:] + a[:1]) == [0, 7, 16, 23]


def test_type_I_cycles_admit_only_trivial_b3(s4):
    d = decompose(s4)
    ids = np.flatnonzero(d.is_type_I)
    assert _per_row(extend_to_K4(d, ids), ids.size) == [[s4.identity]] * ids.size


# ---------------------------------------------------------------------------
# stage 5 and above: the next generator
# ---------------------------------------------------------------------------

def test_extend_step_rejects_stage_3(s3):
    d = decompose(s3)
    with pytest.raises(UsageError, match="starts from stage 4"):
        extend_step(d, [_index(d, (1, 2))], np.empty((1, 0), dtype=np.int64))


# (id, scan, cycle ids, b, message): a cycle index out of range or not an
# integer, a handle that is not an element of S4 (order 24), or a b whose shape
# does not fit the ids.  The first eight ids name the one-class cases they had
# when the scans took one class per call.
BAD_SCAN_INPUTS = [
    ("extend_to_K4--1-None", "extend_to_K4", [-1], None, "cycle index -1 out of range"),
    ("extend_to_K4-88-None", "extend_to_K4", [3, 88], None, "cycle index 88 out of range"),
    ("extend_to_K4-1.0-None", "extend_to_K4", [1.0], None, "integer array"),
    ("extend_step-47-b3", "extend_step", [47], [[99]], "element index 99 out of range"),
    ("extend_step-47-b4", "extend_step", [47], [[7, -1]], "element index -1 out of range"),
    ("extend_to_braid-47-b5", "extend_to_braid", [47], [[-1]], "element index -1 out of range"),
    ("extend_to_braid-47-b6", "extend_to_braid", [47], [[24]], "element index 24 out of range"),
    ("extend_to_braid-88-b7", "extend_to_braid", [88], [()], "cycle index 88 out of range"),
    ("float-ids", "extend_to_K4", np.array([0.0, 1.0]), None, "integer array"),
    ("bool-ids", "extend_to_K4", [True], None, "integer array"),
    ("scalar-id", "extend_to_K4", 3, None, "1-d integer array"),
    ("2d-ids", "extend_to_K4", [[3]], None, "1-d integer array"),
    ("float-b", "extend_step", [47], [[7.0]], "integer array"),
    ("bool-b", "extend_to_braid", [47], [[True]], "integer array"),
    ("step-width-0", "extend_step", [47], np.empty((1, 0), dtype=np.int64), "starts from stage 4"),
    ("1d-b", "extend_step", [47], [7], "(1, w) integer array"),
    ("b-short", "extend_step", [47, 47], [[7]], "(2, w) integer array"),
    ("b-long", "extend_to_braid", [47], [[7], [16]], "(1, w) integer array"),
    ("b-ragged", "extend_step", [47, 47], [[7], [7, 16]], "rectangular"),
]


@pytest.mark.parametrize("scan,ids,b,message", [case[1:] for case in BAD_SCAN_INPUTS],
                         ids=[case[0] for case in BAD_SCAN_INPUTS])
def test_scans_refuse_a_bad_class(s4, scan, ids, b, message):
    d = decompose(s4)
    args = (d, ids) if b is None else (d, ids, b)
    with pytest.raises(UsageError, match=re.escape(message)):
        getattr(extension, scan)(*args)


def test_extend_step_empty_over_s4(tower_s4, s4):
    d = tower_s4.decomposition
    ids, b, _, _ = tower_s4.level(4).expand()
    keep = ids != _index(d, (0, 0))
    rows, images = extend_step(d, ids[keep], b[keep])
    assert rows.size == images.size == 0


def test_extend_step_agrees_with_direct_relation_check(s5):
    # a stage-4 class over S5 whose cycle runs through ((1 3 2), (1 2 3))
    # with b3 = (1 2)(3 4); admissible b4 must intertwine the a-sequence,
    # braid with b3, and be nontrivial
    d = decompose(s5)
    v = (s5.index_of((3, 1, 2, 4, 5)), s5.index_of((2, 3, 1, 4, 5)))
    assert v == (48, 30)
    i = _index(d, v)
    cyc, phase = make_cycle(d, i), d.vertex_codes(i, i + 1).tolist().index(v[0] * s5.order + v[1])
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
    found = _one("extend_step", d, i, (b3,))
    assert found == brute
    assert s5.index_of((2, 1, 3, 5, 4)) in found  # (1 2)(4 5) at handle 25


def test_next_b_post_check_refuses_an_image_outside_the_conjugacy_class(s4):
    # after b3 = (1 2) over the trivial cycle: (2 3) braids with it and does not
    # commute, so it passes; (1 2 3) is no transposition, and an image that
    # braids with its predecessor is conjugate to it, since xyx = yxy gives
    # (xy) x (xy)^-1 = y, so the braid family refuses it
    last, other, three_cycle = (s4.index_of(p) for p in ((2, 1, 3, 4), (1, 3, 2, 4), (2, 3, 1, 4)))
    d = decompose(s4)
    ids, orders = np.full(2, _index(d, (0, 0))), element_orders(s4)
    assert stage_failure(d, ids, np.array([[last, other], [last, other]]), orders) is None
    assert (stage_failure(d, ids, np.array([[last, other], [last, three_cycle]]), orders)
            == "adjacent braid relation fails at stage 5")


def test_no_command_leaves_state_on_the_decomposition(s4):
    # the decomposition and every level hold their dataclass fields and
    # nothing else, whatever reads them: a level's classes are expanded anew
    # by each reader and kept by none
    tower = compute_tower(s4, 6)
    d = tower.decomposition
    fields = {f.name for f in dataclasses.fields(ShiftDecomposition)}
    level_fields = {f.name for f in dataclasses.fields(TowerLevel)}

    def untouched():
        return vars(d).keys() == fields and all(vars(lvl).keys() == level_fields for lvl in tower.levels)
    assert untouched()
    for write in (report.paper_shift_lines, report.shift_to_json, report.shift_to_csv, report.decomposition_to_dot):
        write(d, io.StringIO())
        assert untouched(), write.__name__
    for write in (report.paper_tower_lines, report.paper_braid_lines, report.tower_to_json, report.tower_to_csv):
        write(tower, io.StringIO())
        assert untouched(), write.__name__
    subgroups = transitivity_report(tower)
    assert untouched()
    for write in (report.paper_subgroup_lines, report.subgroups_to_json, report.subgroups_to_csv):
        write(subgroups, io.StringIO())
        assert untouched(), write.__name__
    run_suites(tower)
    assert untouched()
    pi_representation(4, 4, d)
    assert untouched()


# ---------------------------------------------------------------------------
# braid extensions
# ---------------------------------------------------------------------------

def test_trivial_class_extends_by_every_element(s3, z6):
    for group in (s3, z6):
        d = decompose(group)
        assert _one("extend_to_braid", d, _index(d, (group.identity,) * 2), ()) == sorted(group.elements())


def test_braid_extension_of_period_two_cycle_over_s3(s3):
    d = decompose(s3)
    # exactly the three transpositions
    assert _one("extend_to_braid", d, _index(d, (3, 4)), ()) == [1, 2, 5]


def test_braid_extension_empty_when_period_does_not_divide_order(s3):
    d = decompose(s3)
    nine = _index(d, (1, 2))
    assert d.lengths[nine] == 9
    assert _one("extend_to_braid", d, nine, ()) == []


def test_braid_extension_c_satisfies_defining_relation(s3):
    d = decompose(s3)
    i = _index(d, (3, 4))
    a = make_cycle(d, i).a_seq
    p = len(a)
    for c in _one("extend_to_braid", d, i, ()):
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
        (below_ids, below_b, _, _), (ids, b, _, _) = tower_s4.level(n - 1).expand(), tower_s4.level(n).expand()
        parents = set(zip(below_ids.tolist(), map(tuple, below_b.tolist())))
        assert set(zip(ids.tolist(), map(tuple, b[:, :-1].tolist()))) <= parents


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
# the facts compute_tower checks on the classes it scanned
# ---------------------------------------------------------------------------

def _doctored(scan, cls, change):
    """The stage scan, with the images it returns for the class cls = (cycle
    index, b) passed through `change`, a function of the sorted list."""
    def doctored(decomp, ids, *b):
        sets = _per_row(scan(decomp, ids, *b), len(ids))
        keys = zip(ids.tolist(), *([map(tuple, b[0].tolist())] if b else []))
        sets = [change(found) if key == cls else found for key, found in zip(keys, sets)]
        return (np.repeat(np.arange(len(sets)), list(map(len, sets))),
                np.array([g for found in sets for g in found], dtype=np.int64))
    return doctored


# (id, group, stage, scan, class over an orbit's first cycle, change, message).
# S4: cycle 47 has period 2 and b3 in {7, 16, 23}, the double transpositions;
# cycle 19 is type II with period 3 through (1, 6); cycle 3 is type I with
# period 6 through (0, 3); cycle 17 has period 9; handle 1 is (3 4), of order 2.
# gcd(p, |G|) = 1 forces b3^p != e on a nontrivial b3, and in a class that
# passes every other fact b_i has order p, so b_i^p = e: neither of those two
# facts can break first.
ENGINE_FACTS = [
    ("b3-identity", "S4", 4, "extend_to_K4", (47,), lambda f: f[1:],
     "identity is always an admissible b3 but was not found"),
    ("b3-power", "S4", 4, "extend_to_K4", (19,), lambda f: f + [1], "b3^p != e at (1, 6)"),
    ("b3-type-I", "S4", 4, "extend_to_K4", (3,), lambda f: f + [1], "type-I cycle with nontrivial b3 at (0, 3)"),
    ("b-braid", "S4", 5, "extend_step", (47, (7,)), lambda f: f + [0], "adjacent braid relation fails at stage 5"),
    ("b-commute", "S4", 5, "extend_step", (47, (7,)), lambda f: f + [7], "adjacent images commute at stage 5"),
    ("b-far", "S5", 6, "extend_step", (227, (7, 25)), lambda f: f + [26], "far commutation fails at stage 6"),
    ("b-order", "S5", 5, "extend_step", (229, (7,)), lambda f: f + [25], "p does not divide ord(b_4) at stage 5"),
    ("c-trivial", "S4", 3, "extend_to_braid", (0, ()), lambda f: f[1:],
     "the trivial class must extend by every element of the group"),
    ("c-period", "S4", 3, "extend_to_braid", (17, ()), lambda f: f + [1],
     "cycle length 9 does not divide |G|=24 yet c set is nonempty"),
    ("c-identity", "S4", 3, "extend_to_braid", (47, ()), lambda f: [0] + f, "identity extends only the trivial class"),
    ("c-order", "S4", 3, "extend_to_braid", (19, ()), lambda f: f + [1], "cycle length 3 does not divide ord(c)=2"),
    ("c-power", "S4", 3, "extend_to_braid", (47, ()), lambda f: f + [9],
     "c^p fails to commute with the a-sequence for c=9"),
]


@pytest.mark.parametrize("spec,n,scan,cls,change,message", [case[1:] for case in ENGINE_FACTS],
                         ids=[case[0] for case in ENGINE_FACTS])
def test_tower_refuses_a_doctored_scan(monkeypatch, capsys, spec, n, scan, cls, change, message):
    monkeypatch.setattr(extension, scan, _doctored(getattr(extension, scan), cls, change))
    with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
        compute_tower(parse_group_spec(spec), n)
    assert cli.main(["tower", spec, str(n)]) == 4
    assert capsys.readouterr().err == f"verification failure: {message}\n"


# The benchmark's tracer wraps the three scans by module-level name, counts
# their calls, and reads len() and bool() of what extend_to_K4 and
# extend_to_braid return.
def test_tower_scans_each_stage_once_and_c_once_per_tower(monkeypatch, s4):
    calls = Counter()
    for scan in ("extend_to_K4", "extend_step", "extend_to_braid"):
        def counted(*args, scan=scan, fn=getattr(extension, scan)):
            found = fn(*args)
            calls[scan, type(found)] += 1
            return found
        monkeypatch.setattr(extension, scan, counted)
    compute_tower(s4, 6)
    assert calls == {("extend_to_K4", tuple): 1, ("extend_step", tuple): 2, ("extend_to_braid", tuple): 1}


# S4's stages 5 and 6 hold only the trivial class, S5's also others; the
# perfect core of S4 is the trivial group, that of S5 is A5
@pytest.mark.parametrize("spec,core", [("S4", 1), ("S5", 60)])
def test_element_orders_are_built_once_per_tower_and_per_verify_run(monkeypatch, spec, core):
    built = []

    def counted(group, fn=extension.element_orders):
        built.append(group.order)
        return fn(group)
    for module in (extension, verify):
        monkeypatch.setattr(module, "element_orders", counted)
    group = parse_group_spec(spec)
    tower = compute_tower(group, 6)
    assert built == [group.order]
    built.clear()
    assert all(result.ok for result in run_suites(tower))
    # once for prop3, and once by the tower over the perfect core
    assert sorted(built) == [core, group.order]


# ---------------------------------------------------------------------------
# conjugation orbits: the tower against a scan of every cycle and class
# ---------------------------------------------------------------------------

def _exhaustive_levels(group, n_max):
    """(cycle, b, c set) of every class at stages 3..n_max, found by the public
    scans on every cycle and class, with no orbit reduction."""
    decomp = decompose(group)
    e = group.identity
    trivial = make_cycle(decomp, cycle_index(decomp, e, e))
    index = {cycle: i for i, cycle in enumerate(decomp.cycles)}
    current = [(cycle, ()) for cycle in decomp.cycles]
    levels = [current]
    for n in range(4, n_max + 1):
        if n == 4:
            current = [(cycle, (b3,)) for cycle, _ in current for b3 in _one("extend_to_K4", decomp, index[cycle])]
        else:
            current = [(trivial, (e,) * (n - 3))] + [
                (cycle, b + (g,)) for cycle, b in current if (cycle, b) != (trivial, (e,) * (n - 4))
                for g in _one("extend_step", decomp, index[cycle], b)]
        current = sorted(current, key=lambda cls: (cls[0].rep_vertex, cls[1]))
        levels.append(current)
    return [[(cycle, b, tuple(_one("extend_to_braid", decomp, index[cycle], b))) for cycle, b in lvl]
            for lvl in levels]


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
    ids = np.sort(cycle_index(decomp, mul_t[mul_t[g, a0], inv_t[g]], mul_t[mul_t[g, a1], inv_t[g]]), axis=0)
    return ids[0], 1 + (np.diff(ids, axis=0) != 0).sum(axis=0)


@pytest.mark.parametrize("name", ORBIT_GROUPS)
def test_orbit_rows_stand_for_every_class(name):
    # the stored rows are the listed classes on the first cycle of each orbit,
    # in listing order, and weighted by their orbit's size they give the counts
    tower = compute_tower(ORBIT_GROUPS[name](), 6)
    first, size = _cycle_orbits(tower.decomposition)
    for lvl in tower.levels:
        ids = lvl.orbits.first[lvl.orbit]
        assert (first[ids] == ids).all()
        assert lvl.orbits.size[lvl.orbit].tolist() == size[ids].tolist()
        c_ends = np.cumsum(lvl.c_count).tolist()
        c = lvl.c.tolist()
        stored = [(make_cycle(tower.decomposition, i), tuple(b), tuple(c[start:end]))
                  for i, b, start, end in zip(ids.tolist(), lvl.b.tolist(), [0, *c_ends], c_ends)]
        expanded = lvl.expand()[0]
        assert stored == [row for row, i in zip(level_rows(lvl), expanded.tolist()) if first[i] == i]
        weight = size[ids]
        period = tower.decomposition.lengths[ids]
        assert weight.sum() == lvl.class_count
        assert weight @ period == lvl.rep_count
        assert weight @ lvl.c_count == lvl.braid_class_count
        assert weight @ (period * lvl.c_count) == lvl.braid_rep_count


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


def _conjugates_by_each_element(decomp):
    """(least cycle id, number of cycles) of each cycle's conjugation orbit, as
    `_cycle_orbits` gives them, from the rep vertex conjugated by one element
    at a time: the orbit has |G| / |stabiliser| cycles."""
    group, n = decomp.group, decomp.lengths.size
    mul_t, inv_t = group.tables()
    a0, a1 = decomp.rep_vertices(np.arange(n))
    cycle_of = cycle_map(decomp)
    least, fixed = np.arange(n), np.zeros(n, dtype=np.int64)
    for g in range(group.order):
        image = cycle_of[mul_t[mul_t[g, a0], inv_t[g]] * group.order + mul_t[mul_t[g, a1], inv_t[g]]]
        least = np.minimum(least, image)
        fixed += image == np.arange(n)
    return least, group.order // fixed


# `_cycle_orbits` holds |G| x cycles arrays, about 1 GB over SL2(9)
ORBIT_REFERENCE_GROUPS = {
    **ORBIT_GROUPS,
    "SL2(9)": lambda: SL2(9),
    "Z300": lambda: parse_group_spec("Z300"),
    "S3xZ6-relabelled-2": lambda: relabelled(s3_x_z6(), 2),
}


@pytest.mark.parametrize("name", ORBIT_REFERENCE_GROUPS)
def test_conjugation_orbits_equal_conjugates_by_each_element(name):
    decomp = decompose(ORBIT_REFERENCE_GROUPS[name]())
    found = _conjugation_orbits(decomp)
    least, size = _conjugates_by_each_element(decomp)
    if name in ORBIT_GROUPS:
        assert [least.tolist(), size.tolist()] == [x.tolist() for x in _cycle_orbits(decomp)]
    # orbits in order of their first cycles, each listed in ascending order
    assert found.first.tolist() == np.flatnonzero(least == np.arange(least.size)).tolist()
    assert found.size.tolist() == size[found.first].tolist()
    assert found.start.tolist() == [0, *np.cumsum(found.size).tolist()]
    root = np.repeat(found.first, found.size)
    assert np.array_equal(np.lexsort((found.ids, root)), np.arange(found.ids.size))
    assert least[found.ids].tolist() == root.tolist()
    # each transporter carries the first cycle's rep vertex onto a vertex of its member
    group = decomp.group
    a0, a1 = decomp.rep_vertices(root)
    t = found.transporters
    assert cycle_index(decomp, _conjugate(group, t, a0), _conjugate(group, t, a1)).tolist() == found.ids.tolist()


def test_orbit_step_refuses_a_wrong_transporter(monkeypatch):
    # sigma of the last cycle's rep vertex v times an element g that moves v:
    # the last cycle's transporter then carries a vertex of its orbit's first
    # cycle onto g^-1 v g, not onto v
    group = SymmetricGroup(4)
    decomp = decompose(group)
    last = decomp.lengths.size - 1
    assert last not in _conjugation_orbits(decomp).first
    mul_t = group.tables()[0]
    v0, v1 = (int(x[0]) for x in decomp.rep_vertices(np.array([last])))
    g = next(g for g in range(group.order) if mul_t[g, v0] != mul_t[v0, g] or mul_t[g, v1] != mul_t[v1, g])
    pair_classes = extension._pair_classes

    def doctored(group, central):
        canonical, r, y = pair_classes(group, central)

        def wrong(a0, a1):
            pair, sigma = canonical(a0, a1)
            return pair, np.where((a0 == v0) & (a1 == v1), mul_t[sigma, g], sigma)
        return wrong, r, y
    monkeypatch.setattr(extension, "_pair_classes", doctored)
    with pytest.raises(VerificationError, match="^a transporter does not conjugate its orbit's first cycle "
                                                "onto its member$"):
        _conjugation_orbits(decomp)


def test_orbit_step_allocates_no_array_over_every_vertex():
    # a map from every vertex to its cycle, in int32, takes 4 m^2 bytes alone
    group = SL2(11)
    decomp = decompose(group)
    tracemalloc.start()
    try:
        _conjugation_orbits(decomp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * group.order ** 2


def test_tower_argument_errors(s3):
    with pytest.raises(UsageError):
        compute_tower(s3, 2)


def test_tower_level_lookup_bounds(tower_s3):
    with pytest.raises(UsageError):
        tower_s3.level(2)
    with pytest.raises(UsageError):
        tower_s3.level(tower_s3.n_max + 1)

