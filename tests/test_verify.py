"""Named verification suites and their skip/note behaviour."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import braidrep.verify as verify
from braidrep.errors import ResourceLimitError, UsageError
from braidrep.extension import TowerResult, compute_tower
from braidrep.groups import SymmetricGroup
from braidrep.verify import SUITE_NAMES, run_suites

from conftest import expanding_to, make_cycle


def test_all_suites_pass_s3(s3):
    results = run_suites(compute_tower(s3, 5))
    named = {r.name: r for r in results}
    for name in SUITE_NAMES:
        assert named[name].ok, named[name].detail
    # the suites run at the tower's own group and top stage
    assert named["note"].detail == "stage 5 is trivial over S3"
    assert named["oracle-eq"].detail.startswith("K5:")


def test_suites_pass_s4_at_6(tower_s4):
    results = run_suites(tower_s4)
    named = {r.name: r for r in results}
    assert all(r.ok for r in results), [r.detail for r in results if not r.ok]
    # the perfect-core comparison actually ran at stage 6
    assert named["prop4"].detail.startswith("stage-6")
    # the B6 oracle is skipped (tuple space too large), K6 still compared
    assert named["oracle-eq"].detail.startswith("K6:")


def test_low_stage_suites_skip_cleanly(s3):
    results = run_suites(compute_tower(s3, 3))
    named = {r.name: r for r in results}
    assert named["prop2"].ok and "skipped" in named["prop2"].detail
    assert named["prop3"].ok and "skipped" in named["prop3"].detail
    assert named["prop4"].ok and "skipped" in named["prop4"].detail
    assert named["oracle-eq"].ok and "B3" in named["oracle-eq"].detail
    assert "note" not in named


def test_large_group_skips_oracle():
    results = run_suites(compute_tower(SymmetricGroup(5), 4))
    named = {r.name: r for r in results}
    assert named["oracle-eq"].ok
    assert "skipped" in named["oracle-eq"].detail


def test_budget_propagates(s3):
    with pytest.raises(ResourceLimitError):
        run_suites(compute_tower(s3, 4), budget=10)


def test_budget_below_one_is_refused_before_the_tower(tower_s3, monkeypatch):
    # refused before any suite runs, that is before the tower is read
    for name in [name for name in vars(verify) if name.endswith("_suite")]:
        monkeypatch.setattr(verify, name, lambda *a: pytest.fail("a suite ran before the budget was checked"))
    with pytest.raises(UsageError, match="at least 1"):
        run_suites(tower_s3, budget=0)


def test_suites_on_abelian_group(tower_z6):
    results = run_suites(tower_z6)
    assert all(r.ok for r in results)


def test_prop1_fails_on_a_corrupted_a_sequence(s3, tower_s3):
    d = tower_s3.decomposition
    a_flat = d.a_flat.copy()
    a_flat[5] = (a_flat[5] + 1) % s3.order
    tower = TowerResult(s3, dataclasses.replace(d, a_flat=a_flat), tower_s3.levels)
    named = {r.name: r for r in run_suites(tower)}
    assert not named["prop1"].ok
    assert named["prop1"].detail == "8 cycle products checked, 1 non-identity"
    assert named["census"].ok


def _with_image(tower, n, row, col, value):
    """The tower whose stage-n `expand` lists b with b[row, col] set to value."""
    ids, b, c, c_count = tower.level(n).expand()
    b[row, col] = value
    return expanding_to(tower, n, (ids, b, c, c_count))


# (suite, tower fixture, stage, row, column, new handle, the detail line the suite prints)
CORRUPTIONS = [
    # b3 = (3 4) on the period-3 cycle through (1, 7): (3 4)^3 is not e
    ("prop2", "tower_s4", 4, 20, 0, 1, "b3^p != e at (1, 7)"),
    # b4 = e after b3 = (2 3)(4 5): b3 e b3 = e is not e b3 e = b3
    ("prop3", "tower_s5", 5, 1, 1, 0, "adjacent braid relation fails at stage 5"),
    # the trivial stage-6 class over S4 gets b5 = (3 4), so its rows differ
    # from those of the perfect core (the trivial group)
    ("prop4", "tower_s4", 6, 0, 2, 1, "stage-6 census vs perfect core census"),
    # the trivial stage-6 class over S3 gets b5 = (2 3), a class the oracle does not find
    ("oracle-eq", "tower_s3", 6, 0, 2, 1, "K6 census mismatch: oracle 1 reps vs engine 1"),
]


@pytest.mark.parametrize("suite,fixture,n,row,col,value,detail", CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS])
def test_suite_fails_on_a_corrupted_image(request, suite, fixture, n, row, col, value, detail):
    tower = request.getfixturevalue(fixture)
    named = {r.name: r for r in run_suites(_with_image(tower, n, row, col, value))}
    assert not named[suite].ok
    assert named[suite].detail == detail
    assert named["census"].ok and named["prop1"].ok


def _reference_prop2(tower):
    """The per-row prop2: one Cycle and one scalar power per stage-4 class;
    the first failure's detail, or None."""
    G, e = tower.group, tower.group.identity
    ids, b, _, _ = tower.level(4).expand()
    for i, b3 in zip(ids.tolist(), b[:, 0].tolist()):
        cycle = make_cycle(tower.decomposition, i)
        p = cycle.length
        if G.power(b3, p) != e:
            return f"b3^p != e at {cycle.rep_vertex}"
        if math.gcd(p, G.order) == 1 and b3 != e:
            return f"gcd(p,|G|)=1 but b3 nontrivial at {cycle.rep_vertex}"
        if cycle.cycle_type == "I" and b3 != e:
            return f"type-I cycle with nontrivial b3 at {cycle.rep_vertex}"
    return None


@pytest.mark.parametrize("fixture", ["tower_s3", "tower_s4", "tower_z6", "tower_sl23"])
def test_prop2_equals_the_per_row_check(request, fixture):
    tower = request.getfixturevalue(fixture)
    count = tower.level(4).class_count
    rng = np.random.default_rng(0)
    for trial in range(40):
        rows = rng.choice(count, size=min(count, trial % 4), replace=False)
        corrupted = _with_image(tower, 4, rows, 0, rng.integers(tower.group.order, size=rows.size))
        got = verify._prop2_suite(corrupted)
        want = _reference_prop2(corrupted)
        assert (got.ok, got.detail) == (want is None, want or f"{count} stage-4 classes checked")


def _reference_prop3(tower):
    """The per-class prop3: one Cycle and scalar products, powers and element
    orders per class at stages >= 5; the first failure's detail, or None."""
    G, e = tower.group, tower.group.identity
    for n in range(5, tower.n_max + 1):
        ids, images, _, _ = tower.level(n).expand()
        for i, b in zip(ids.tolist(), images.tolist()):
            a_seq = make_cycle(tower.decomposition, i).a_seq
            if set(a_seq).union(b) == {e}:     # the trivial class
                continue
            p = len(a_seq)
            for j in range(len(b) - 1):
                x, y = b[j], b[j + 1]
                if G.mul(G.mul(x, y), x) != G.mul(G.mul(y, x), y):
                    return f"adjacent braid relation fails at stage {n}"
                if G.mul(x, y) == G.mul(y, x):
                    return f"adjacent images commute at stage {n}"
            for j in range(len(b)):
                for k in range(j + 2, len(b)):
                    if G.mul(b[j], b[k]) != G.mul(b[k], b[j]):
                        return f"far commutation fails at stage {n}"
            for j, x in enumerate(b):
                if j > 0 and next(k for k in range(1, G.order + 1) if G.power(x, k) == e) % p != 0:
                    return f"p does not divide ord(b_{j + 3}) at stage {n}"
                xp = G.power(x, p)
                if any(G.mul(xp, am) != G.mul(am, xp) for am in a_seq):
                    return f"b^p fails to centralise the a-sequence at stage {n}"
    return None


def _on_cycles(tower, n, rows, ids):
    """The tower whose stage-n `expand` lists the classes `rows` on the cycles `ids`."""
    cycle_ids, b, c, c_count = tower.level(n).expand()
    cycle_ids[rows] = ids
    return expanding_to(tower, n, (cycle_ids, b, c, c_count))


@pytest.mark.parametrize("fixture", ["tower_s4", "tower_s5", "tower_sl23"])
def test_prop3_equals_the_per_class_check(request, fixture):
    # half the trials set images at random, half move classes onto random
    # cycles, which keeps the braid facts and tests the period facts
    tower = request.getfixturevalue(fixture)
    decomp = tower.decomposition
    rng = np.random.default_rng(0)
    for trial in range(60):
        n = int(rng.integers(5, tower.n_max + 1))
        count = tower.level(n).class_count
        rows = rng.choice(count, size=min(count, trial % 3), replace=False)
        if trial % 2:
            corrupted = _with_image(tower, n, rows, int(rng.integers(n - 3)),
                                    rng.integers(tower.group.order, size=rows.size))
        else:
            corrupted = _on_cycles(tower, n, rows, rng.integers(decomp.lengths.size, size=rows.size))
        got = verify._prop3_suite(corrupted)
        want = _reference_prop3(corrupted)
        nontrivial = sum(set(make_cycle(decomp, i).a_seq).union(b) != {tower.group.identity}
                         for lvl in corrupted.levels[2:]
                         for i, b in zip(*(x.tolist() for x in lvl.expand()[:2])))
        assert (got.ok, got.detail) == (want is None, want or f"{nontrivial} nontrivial classes at stages >= 5 checked")


def test_prop3_and_its_reference_find_a_far_commutation_failure(tower_s4, s4):
    # the trivial stage-6 class given the images (1 2), (2 3), (1 3): adjacent
    # images braid and do not commute, but (1 2) and (1 3) do not commute
    corrupted = tower_s4
    for col, image in enumerate([(2, 1, 3, 4), (1, 3, 2, 4), (3, 2, 1, 4)]):
        corrupted = _with_image(corrupted, 6, 0, col, s4.index_of(image))
    got = verify._prop3_suite(corrupted)
    assert not got.ok
    assert got.detail == _reference_prop3(corrupted) == "far commutation fails at stage 6"
