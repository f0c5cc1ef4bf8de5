"""Named verification suites and their skip/note behaviour."""
from __future__ import annotations

import dataclasses

import pytest

import braidrep.verify as verify
from braidrep.errors import ResourceLimitError, UsageError
from braidrep.extension import TowerResult
from braidrep.verify import SUITE_NAMES, run_suites


def test_all_suites_pass_s3(s3, tower_s3):
    results = run_suites(s3, 5, tower=tower_s3)
    named = {r.name: r for r in results}
    for name in SUITE_NAMES:
        assert named[name].ok, named[name].detail
    assert "note" in named  # stage 5 over S3 is trivial
    assert "trivial" in named["note"].detail


def test_suites_pass_s4_at_6(s4, tower_s4):
    results = run_suites(s4, 6, tower=tower_s4)
    named = {r.name: r for r in results}
    assert all(r.ok for r in results), [r.detail for r in results if not r.ok]
    # the perfect-core comparison actually ran at stage 6
    assert named["prop4"].detail.startswith("stage-6")
    # the B6 oracle is skipped (tuple space too large), K6 still compared
    assert named["oracle-eq"].detail.startswith("K6:")


def test_low_stage_suites_skip_cleanly(s3):
    results = run_suites(s3, 3)
    named = {r.name: r for r in results}
    assert named["prop2"].ok and "skipped" in named["prop2"].detail
    assert named["prop3"].ok and "skipped" in named["prop3"].detail
    assert named["prop4"].ok and "skipped" in named["prop4"].detail
    assert named["oracle-eq"].ok and "B3" in named["oracle-eq"].detail
    assert "note" not in named


def test_large_group_skips_oracle(sl23):
    # |SL2(3)| = 24 runs the oracle; fake a larger bound by an S5 run instead
    from braidrep.groups import SymmetricGroup

    results = run_suites(SymmetricGroup(5), 4)
    named = {r.name: r for r in results}
    assert named["oracle-eq"].ok
    assert "skipped" in named["oracle-eq"].detail


def test_budget_propagates(s3):
    with pytest.raises(ResourceLimitError):
        run_suites(s3, 4, budget=10)


def test_budget_below_one_is_refused_before_the_tower(s3, monkeypatch):
    monkeypatch.setattr(verify, "compute_tower", lambda *a: pytest.fail("tower computed before the budget was checked"))
    with pytest.raises(UsageError, match="at least 1"):
        run_suites(s3, 4, budget=0)


def test_suites_on_abelian_group(z6, tower_z6):
    results = run_suites(z6, 5, tower=tower_z6)
    assert all(r.ok for r in results)


def test_prop1_fails_on_a_corrupted_a_sequence(s3, tower_s3):
    d = tower_s3.decomposition
    a_flat = d.a_flat.copy()
    a_flat[5] = (a_flat[5] + 1) % s3.order
    tower = TowerResult(s3, dataclasses.replace(d, a_flat=a_flat), tower_s3.levels)
    named = {r.name: r for r in run_suites(s3, 6, tower=tower)}
    assert not named["prop1"].ok
    assert named["prop1"].detail == "8 cycle products checked, 1 non-identity"
    assert named["census"].ok
