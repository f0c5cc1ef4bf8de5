"""Re-checkable structural facts bundled into named suites, run on a tower at its
group and top stage.  census and prop1-prop4 re-check the engine's own tower on
the same group backend; oracle-eq, the independent check, compares it with a
brute-force scan for |G| <= 40.  `verify` in the command-line driver prints one
PASS/FAIL line per suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import perfect_core_census_match
# bound here for perfbench/selfcheck.py, which checks that the tracer patches it
from .extension import TowerResult, compute_tower
from .groups import element_order
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


_PROP2_FAILURES = ("b3^p != e", "gcd(p,|G|)=1 but b3 nontrivial", "type-I cycle with nontrivial b3")


def _prop2_suite(tower: TowerResult) -> SuiteResult:
    """Raise every stage-4 b3 to its cycle's period, all rows in step, one table
    look-up per position, and test the three stage-4 facts on every row."""
    G = tower.group
    e = G.identity
    if tower.n_max < 4:
        return SuiteResult("prop2", True, "skipped (tower stops before stage 4)")
    lvl = tower.level(4)
    decomp = tower.decomposition
    mul_t, _ = G.tables()
    ids, b3 = lvl.cycle_ids, lvl.b[:, 0]
    p = decomp.lengths[ids]
    power = np.full(b3.size, e, dtype=mul_t.dtype)
    for k in range(int(p.max())):
        live = np.flatnonzero(p > k)
        power[live] = mul_t[power[live], b3[live]]
    nontrivial = b3 != e
    fails = np.column_stack([power != e, (np.gcd(p, G.order) == 1) & nontrivial,
                             decomp.is_type_I[ids] & nontrivial])
    bad = np.flatnonzero(fails.any(axis=1))
    if bad.size:
        a0, a1 = decomp.rep_vertices(ids[bad[:1]])
        return SuiteResult("prop2", False,
                           f"{_PROP2_FAILURES[int(fails[bad[0]].argmax())]} at {(int(a0[0]), int(a1[0]))}")
    return SuiteResult("prop2", True, f"{lvl.class_count} stage-4 classes checked")


def _prop3_suite(tower: TowerResult) -> SuiteResult:
    G = tower.group
    e = G.identity
    if tower.n_max < 5:
        return SuiteResult("prop3", True, "skipped (tower stops before stage 5)")
    bad = []
    checked = 0
    for n in range(5, tower.n_max + 1):
        lvl = tower.level(n)
        for i, b in zip(lvl.cycle_ids.tolist(), lvl.b.tolist()):
            a_seq = tower.decomposition.cycle(i).a_seq
            if set(a_seq).union(b) == {e}:     # the trivial class
                continue
            checked += 1
            p = len(a_seq)
            for i in range(len(b) - 1):
                x, y = b[i], b[i + 1]
                if G.mul(G.mul(x, y), x) != G.mul(G.mul(y, x), y):
                    bad.append(f"adjacent braid relation fails at stage {n}")
                if G.mul(x, y) == G.mul(y, x):
                    bad.append(f"adjacent images commute at stage {n}")
            for i in range(len(b)):
                for j in range(i + 2, len(b)):
                    if G.mul(b[i], b[j]) != G.mul(b[j], b[i]):
                        bad.append(f"far commutation fails at stage {n}")
            for i, x in enumerate(b):
                if i > 0 and element_order(G, x) % p != 0:
                    bad.append(f"p does not divide ord(b_{i + 3}) at stage {n}")
                xp = G.power(x, p)
                if any(G.mul(xp, am) != G.mul(am, xp) for am in a_seq):
                    bad.append(f"b^p fails to centralise the a-sequence at stage {n}")
    return SuiteResult("prop3", not bad,
                       bad[0] if bad else f"{checked} nontrivial classes at stages >= 5 checked")


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
