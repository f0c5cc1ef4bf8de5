"""Re-checkable structural facts bundled into named suites, run on a tower at its
group and top stage.  census and prop1-prop4 re-check the engine's own tower on
the same group backend; oracle-eq, the independent check, compares it with a
brute-force scan for |G| <= 40.  `verify` in the command-line driver prints one
PASS/FAIL line per suite.

prop2 and prop3 have no checks of their own: they run `extension`'s
stage-level routines, `stage4_failure` and `stage_failure`, which
`compute_tower` runs on the classes it scans, on every row of the tower, and
print the first broken fact they return.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import perfect_core_census_match
# bound here for perfbench/selfcheck.py, which checks that the tracer patches it
from .extension import TowerResult, compute_tower, is_trivial_class, stage4_failure, stage_failure
from .oracle import DEFAULT_BUDGET, brute_hom_Bn, brute_hom_Kn, check_budget, engine_census_Bn, engine_census_Kn

__all__ = ["SuiteResult", "run_suites", "SUITE_NAMES"]

SUITE_NAMES = ["census", "prop1", "prop2", "prop3", "prop4", "oracle-eq"]

_ORACLE_KN_LIMIT = 40          # group order above which the K_n oracle is skipped
_ORACLE_BN_TUPLE_LIMIT = 500_000   # cap on |G|^(n-1) for the B_n oracle


@dataclass
class SuiteResult:
    name: str
    ok: bool
    detail: str


def _census_suite(tower: TowerResult) -> SuiteResult:
    decomp = tower.decomposition
    total = sum(p * k for p, k in decomp.period_census.items())
    square = tower.group.order ** 2
    fixed = decomp.period_census.get(1, 0)
    ok = total == square and fixed == 1
    return SuiteResult("census", ok,
                       f"sum p*n_p = {total}, |G|^2 = {square}, fixed points = {fixed}")


def _prop1_suite(tower: TowerResult) -> SuiteResult:
    """Fold every cycle's ordered product out of the flat a-sequences, all
    cycles in step, one table look-up per position."""
    G = tower.group
    decomp = tower.decomposition
    mul_t, _ = G.tables()
    prod = np.full(decomp.lengths.size, G.identity, dtype=mul_t.dtype)
    for k in range(int(decomp.lengths.max())):
        live = np.flatnonzero(decomp.lengths > k)
        prod[live] = mul_t[prod[live], decomp.a_flat[decomp.offsets[live] + k]]
    bad = int((prod != G.identity).sum())
    return SuiteResult("prop1", bad == 0,
                       f"{decomp.lengths.size} cycle products checked, {bad} non-identity")


def _prop2_suite(tower: TowerResult) -> SuiteResult:
    """The stage-4 facts on every stage-4 row, by the check the engine runs."""
    if tower.n_max < 4:
        return SuiteResult("prop2", True, "skipped (tower stops before stage 4)")
    lvl = tower.level(4)
    failure = stage4_failure(tower.decomposition, lvl.cycle_ids, lvl.b[:, 0])
    return SuiteResult("prop2", failure is None, failure or f"{lvl.class_count} stage-4 classes checked")


def _prop3_suite(tower: TowerResult) -> SuiteResult:
    """The facts of stages >= 5 on every nontrivial row, by the check the engine runs."""
    if tower.n_max < 5:
        return SuiteResult("prop3", True, "skipped (tower stops before stage 5)")
    decomp = tower.decomposition
    checked = 0
    for lvl in tower.levels[2:]:
        failure = stage_failure(decomp, lvl.cycle_ids, lvl.b)
        if failure:
            return SuiteResult("prop3", False, failure)
        checked += lvl.class_count - int(is_trivial_class(decomp, lvl.cycle_ids, lvl.b).sum())
    return SuiteResult("prop3", True, f"{checked} nontrivial classes at stages >= 5 checked")


def _prop4_suite(tower: TowerResult) -> SuiteResult:
    n = tower.n_max
    if n < 6:
        return SuiteResult("prop4", True, f"skipped (needs stage >= 6, tower stops at {n})")
    ok = perfect_core_census_match(tower)
    return SuiteResult("prop4", ok, f"stage-{n} census vs perfect core census")


def _oracle_suite(tower: TowerResult, budget: int) -> SuiteResult:
    G = tower.group
    n = tower.n_max
    if G.order > _ORACLE_KN_LIMIT:
        return SuiteResult("oracle-eq", True, f"skipped (|G| = {G.order} > {_ORACLE_KN_LIMIT})")
    res = brute_hom_Kn(G, n, budget)
    eng = engine_census_Kn(tower, n)
    if res.census != eng:
        return SuiteResult("oracle-eq", False,
                           f"K{n} census mismatch: oracle {res.rep_count} reps vs engine "
                           f"{tower.level(n).rep_count}")
    detail = f"K{n}: {res.rep_count} representations match"
    if G.order ** (n - 1) <= _ORACLE_BN_TUPLE_LIMIT:
        bres = brute_hom_Bn(G, n, budget)
        beng = engine_census_Bn(tower, n)
        if bres.census != beng:
            return SuiteResult("oracle-eq", False,
                               f"B{n} census mismatch: oracle {bres.rep_count} vs engine "
                               f"{tower.level(n).braid_rep_count}")
        detail += f"; B{n}: {bres.rep_count} representations match"
    return SuiteResult("oracle-eq", True, detail)


def run_suites(tower: TowerResult, *, budget: int = DEFAULT_BUDGET) -> list[SuiteResult]:
    """Run every named suite against the tower, at its group and top stage."""
    check_budget(budget)
    results = [
        _census_suite(tower),
        _prop1_suite(tower),
        _prop2_suite(tower),
        _prop3_suite(tower),
        _prop4_suite(tower),
        _oracle_suite(tower, budget),
    ]
    if tower.n_max >= 5 and tower.is_trivial_at(tower.n_max):
        results.append(SuiteResult("note", True, f"stage {tower.n_max} is trivial over {tower.group.name}"))
    return results
