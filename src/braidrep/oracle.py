"""Brute-force enumeration of representations, independent of the scan engine.

The oracle walks every pair's recurrence orbit itself and tests every candidate
image of every generator against every defining relation, over one full period
where the relation runs along the orbit.  It shares no code with the engine's
cycle decomposition, class representatives, conjugation orbits or scans, only
the group backend: the multiplication and inverse tables.  The search runs
breadth first as array steps over blocks of (prefix, candidate) cells, and a
cell is charged one relation check per test up to and including its first
failure, as a depth-first scan counts.  Censuses are keyed the way the engine
keys its classes, so equality of the two is a meaningful end-to-end check.
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

# (prefix, candidate) cells tested at once; bounds the scan's working memory.
_BLOCK_CELLS = 1 << 12


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
        self.used, self.limit = 0, limit

    def spend(self, checks: int) -> None:
        self.used += checks
        if self.used > self.limit:
            raise ResourceLimitError(f"relation-check budget {self.limit} exhausted")


def _orbits(mul_t: np.ndarray, inv_t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk the orbit of every pair (a0, a1), row a0 * m + a1, all in step: each
    row's a-sequence from the pair itself, run two places past the longest
    period, its period, and the code a_k * m + a_{k+1} of its least vertex."""
    m = len(mul_t)
    start = np.arange(m * m, dtype=np.int32)
    a0, a1 = np.divmod(start, m)
    succ = a1 * m + mul_t[inv_t[a0], a1]
    cur, seqs = start, [a0]
    period, canon = np.zeros(m * m, dtype=np.int32), start.copy()
    while not period.all():
        cur = succ[cur]
        seqs.append(cur // m)
        period[(period == 0) & (cur == start)] = len(seqs) - 1
        np.minimum(canon, cur, out=canon)
    seqs.append(succ[cur] // m)
    return np.stack(seqs, axis=1), period, canon


def _family(alive: np.ndarray, ok: np.ndarray) -> int:
    """One relation test on every live cell: count them, then keep those that pass."""
    live = int(np.count_nonzero(alive))
    alive &= ok
    return live


def _grow(mul_t: np.ndarray, imgs: np.ndarray, bud: _Budget, orbits=None) -> tuple[np.ndarray, np.ndarray]:
    """Extend every prefix (a row of images) by every candidate g; return the
    surviving (prefix row, g) cells in prefix order.  With `orbits` (a-sequences,
    periods, pair rows sorted longest period first) the period family runs
    first: the stage-4 word while imgs is empty, else a_k g = g a_{k+1}.  Then g
    must braid with the last image and commute with every earlier one."""
    m = len(mul_t)
    g = np.arange(m)
    flat, right = mul_t.ravel(), np.ascontiguousarray(mul_t.T)  # mul_t[x] is x g, right[y] is g y
    step = max(1, _BLOCK_CELLS // m)
    rows, cands = [], []
    for lo in range(0, len(imgs), step):
        b = imgs[lo:lo + step]
        alive = np.ones((len(b), m), dtype=bool)
        checks = 0
        if orbits is not None:
            seqs, period, pairs = orbits
            a, p = seqs[pairs[lo:lo + step]], period[pairs[lo:lo + step]]
            for k in range(p[0]):
                j = np.count_nonzero(p > k)     # the rows still inside their period
                x, y = a[:j, k], a[:j, k + 1]
                if b.shape[1]:
                    ok = mul_t[x] == right[y]
                else:   # a_k b3 a_{k+2} = b3 a_{k+1} b3
                    ok = flat[mul_t[x] * m + a[:j, k + 2, None]] == flat[right[y] * m + g]
                checks += _family(alive[:j], ok)
        if b.shape[1]:
            prev = b[:, -1]
            checks += _family(alive, flat[mul_t[prev] * m + prev[:, None]] == flat[right[prev] * m + g])
            for far in b[:, :-1].T:
                checks += _family(alive, mul_t[far] == right[far])
        bud.spend(checks)
        r, c = np.nonzero(alive)
        rows.append(r + lo)
        cands.append(c)
    return np.concatenate(rows), np.concatenate(cands)


def brute_hom_Kn(group: FiniteGroup, n: int, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Scan all tuples (a0, a1, b3, ..., b_{n-1}) and keep the relation-satisfying ones."""
    if n < 3:
        raise UsageError("the commutator-subgroup tower starts at n = 3")
    bud = _Budget(budget)
    mul_t, inv_t = group.tables()
    m = group.order
    seqs, period, canon = _orbits(mul_t, inv_t)
    pairs = np.argsort(-period, kind="stable")
    imgs = np.empty((m * m, 0), dtype=np.int64)
    for _ in range(3, n):
        r, g = _grow(mul_t, imgs, bud, (seqs, period, pairs))
        pairs, imgs = pairs[r], np.column_stack([imgs[r], g])
    sink = Counter(zip(canon[pairs].tolist(), map(tuple, imgs.tolist())))
    census = tuple(sorted((divmod(key, m), b, cnt) for (key, b), cnt in sink.items()))
    return OracleResult(len(pairs), census, bud.used)


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
    mul_t, inv_t = group.tables()
    m = group.order
    s = np.empty((1, 0), dtype=np.int64)    # the empty prefix; s_1 meets no relation
    for _ in range(1, n):
        r, g = _grow(mul_t, s, bud)
        s = np.column_stack([s[r], g])
    c, c_inv = s[:, 0], inv_t[s[:, 0]]
    if n == 2:
        keys = [None] * len(s)
    else:
        a0 = mul_t[s[:, 1], c_inv]
        a1 = mul_t[mul_t[c, a0], c_inv]
        keys = [divmod(key, m) for key in _orbits(mul_t, inv_t)[2][a0 * m + a1].tolist()]
    b = mul_t[s[:, 2:], c_inv[:, None]]
    sink = Counter(zip(keys, map(tuple, b.tolist()), c.tolist()))
    census = tuple((key, imgs, c, cnt) for (key, imgs, c), cnt in sorted(sink.items()))
    return OracleResult(len(s), census, bud.used)


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
