"""Brute-force enumeration of representations, independent of the scan engine.

Everything here recomputes orbits with its own recurrence walk and checks
every defining relation over one full period with scalar group operations;
the only shared ingredient is the group backend itself.  Results come back as
censuses keyed the same way the engine keys its classes, so equality of the
two censuses is a meaningful end-to-end check.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, UsageError, VerificationError
from .extension import TowerLevel, TowerResult
from .groups import FiniteGroup

__all__ = [
    "DEFAULT_BUDGET",
    "OracleResult",
    "check_budget",
    "brute_hom_K3",
    "brute_hom_Kn",
    "brute_hom_Bn",
    "engine_census_Kn",
    "engine_census_Bn",
]


# Relation checks a brute-force scan may spend before it gives up.
DEFAULT_BUDGET = 100_000_000


@dataclass(frozen=True)
class OracleResult:
    """Representation count and class census from a brute-force scan."""

    rep_count: int
    census: tuple
    relation_checks: int


def check_budget(budget: int) -> None:
    """Refuse a relation-check budget below 1: no scan can run on it."""
    if budget < 1:
        raise UsageError(f"relation-check budget must be at least 1, got {budget}")


class _Budget:
    __slots__ = ("used", "limit")

    def __init__(self, limit: int):
        check_budget(limit)
        self.used = 0
        self.limit = limit

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise ResourceLimitError(f"relation-check budget {self.limit} exhausted")


def _pair_orbit(group: FiniteGroup, a0: int, a1: int) -> list[int]:
    """First components along the recurrence orbit of (a0, a1), walked directly."""
    seq = [a0]
    x, y = a1, group.mul(group.inv(a0), a1)
    while (x, y) != (a0, a1):
        seq.append(x)
        x, y = y, group.mul(group.inv(x), y)
    return seq


def _canonical_vertex(a_seq: list[int]) -> tuple[int, int]:
    p = len(a_seq)
    return min((a_seq[k], a_seq[(k + 1) % p]) for k in range(p))


def _search_images(group: FiniteGroup, a_seq: list[int], n: int, i: int,
                   prefix: tuple[int, ...], sink: Counter, key, bud: _Budget) -> None:
    """Extend prefix by one image of x_i at a time; a prefix that already
    breaks its relation family prunes the whole subtree (no tuple it leads to
    can be accepted, so the scan is equivalent to checking all full tuples)."""
    if i > n - 1:
        sink[(key, prefix)] += 1
        return
    mul = group.mul
    p = len(a_seq)
    for g in range(group.order):
        ok = True
        if i == 3:
            for m in range(p):
                bud.spend()
                if mul(mul(a_seq[m], g), a_seq[(m + 2) % p]) != mul(mul(g, a_seq[(m + 1) % p]), g):
                    ok = False
                    break
        else:
            for m in range(p):
                bud.spend()
                if mul(a_seq[m], g) != mul(g, a_seq[(m + 1) % p]):
                    ok = False
                    break
            if ok:
                prev = prefix[-1]
                bud.spend()
                if mul(mul(prev, g), prev) != mul(mul(g, prev), g):
                    ok = False
            if ok:
                for bj in prefix[:-1]:
                    bud.spend()
                    if mul(bj, g) != mul(g, bj):
                        ok = False
                        break
        if ok:
            _search_images(group, a_seq, n, i + 1, prefix + (g,), sink, key, bud)


def brute_hom_Kn(group: FiniteGroup, n: int, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Scan all tuples (a0, a1, b3, ..., b_{n-1}) and keep the relation-satisfying ones."""
    if n < 3:
        raise UsageError("the commutator-subgroup tower starts at n = 3")
    bud = _Budget(budget)
    sink: Counter = Counter()
    m = group.order
    for a0 in range(m):
        for a1 in range(m):
            a_seq = _pair_orbit(group, a0, a1)
            key = _canonical_vertex(a_seq)
            _search_images(group, a_seq, n, 3, (), sink, key, bud)
    census = tuple(sorted((key, imgs, cnt) for (key, imgs), cnt in sink.items()))
    return OracleResult(sum(sink.values()), census, bud.used)


def brute_hom_K3(group: FiniteGroup, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """The n = 3 scan; every pair is a representation, so the count must be |G|^2."""
    res = brute_hom_Kn(group, 3, budget)
    if res.rep_count != group.order ** 2:
        raise VerificationError(
            f"K3 scan found {res.rep_count} representations over {group.name}, expected {group.order ** 2}")
    return res


def brute_hom_Bn(group: FiniteGroup, n: int, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Scan images (s_1, ..., s_{n-1}) of the braid generators directly.

    Accepted tuples are keyed by the class data of their restriction: the
    canonical vertex of the orbit of a0 = s_2 s_1^-1, the images b_j = s_j s_1^-1,
    and c = s_1, matching how the engine keys its braid extensions.
    """
    if n < 2:
        raise UsageError("braid groups need at least two strands")
    bud = _Budget(budget)
    mul, inv = group.mul, group.inv
    m = group.order
    sink: Counter = Counter()

    def place(k: int, s: tuple[int, ...]) -> None:
        if k == n - 1:
            c = s[0]
            if n == 2:
                sink[(None, (), c)] += 1
                return
            a0 = mul(s[1], inv(c))
            a1 = mul(mul(c, a0), inv(c))
            a_seq = _pair_orbit(group, a0, a1)
            b = tuple(mul(s[j], inv(c)) for j in range(2, n - 1))
            sink[(_canonical_vertex(a_seq), b, c)] += 1
            return
        for g in range(m):
            ok = True
            if k >= 1:
                prev = s[-1]
                bud.spend()
                if mul(mul(prev, g), prev) != mul(mul(g, prev), g):
                    ok = False
            if ok:
                for far in s[:-1]:
                    bud.spend()
                    if mul(far, g) != mul(g, far):
                        ok = False
                        break
            if ok:
                place(k + 1, s + (g,))

    place(0, ())
    census = tuple((key, imgs, c, cnt) for (key, imgs, c), cnt in sorted(sink.items()))
    return OracleResult(sum(sink.values()), census, bud.used)


# ---------------------------------------------------------------------------
# engine-side censuses in the same key format
# ---------------------------------------------------------------------------

def _engine_keys(lvl: TowerLevel, rows: np.ndarray):
    """(rep vertex, b, period) of the level's classes at `rows`."""
    ids = lvl.cycle_ids[rows]
    a0, a1 = lvl.decomposition.rep_vertices(ids)
    return zip(zip(a0.tolist(), a1.tolist()), map(tuple, lvl.b[rows].tolist()),
               lvl.decomposition.lengths[ids].tolist())


def engine_census_Kn(tower: TowerResult, n: int) -> tuple:
    lvl = tower.level(n)
    return tuple(sorted(_engine_keys(lvl, np.arange(lvl.class_count))))


def engine_census_Bn(tower: TowerResult, n: int) -> tuple:
    if n == 2:
        return tuple((None, (), c, 1) for c in tower.group.elements())
    lvl = tower.level(n)
    rows = np.repeat(np.arange(lvl.class_count), lvl.c_count)
    return tuple(sorted((vertex, b, c, p)
                        for (vertex, b, p), c in zip(_engine_keys(lvl, rows), lvl.c.tolist())))
