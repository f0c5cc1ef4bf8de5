"""Brute-force enumeration of representations, independent of the scan engine.

The oracle walks every pair's recurrence orbit itself and tests every candidate
image of every generator against every defining relation, over one full period
where the relation runs along the orbit.  It shares no code with the engine's
cycle decomposition, class representatives, conjugation orbits or scans, only
the group backend's array products (`products`, `inverses`, `row_products`,
`column_products`).  The search runs
breadth first as array steps over blocks of (prefix, candidate) cells.  A
block's first test runs on its whole grid and each later test only on the
cells still alive, in (prefix, candidate) order, so a cell is charged one
relation check per test up to and including its first failure, as a
depth-first scan counts.  Censuses are keyed the way the engine keys its
classes, so equality of the two is a meaningful end-to-end check.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, UsageError
from .extension import TowerResult
from .groups import FiniteGroup

__all__ = [
    "DEFAULT_BUDGET",
    "OracleResult",
    "check_budget",
    "brute_hom_Kn",
    "brute_hom_Bn",
    "engine_census_Kn",
    "engine_census_Bn",
]


# Relation checks a brute-force scan may spend before it gives up.
DEFAULT_BUDGET = 100_000_000

# (prefix, candidate) cells tested at once; bounds the scan's working memory,
# which tests/test_oracle.py holds under 1 MB on two verify-small scans: their
# tracemalloc peaks are 0.51 and 0.59 MB at 2**14 cells, 0.87 and 0.96 MB at 2**15.
_BLOCK_CELLS = 1 << 14


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


def _orbits(group: FiniteGroup, start=None) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Walk the orbits of the pairs with codes `start` (a0 * m + a1; default all
    m^2 pairs, code order) all in step: the a-sequences from the pairs
    themselves, run two places past the longest period, as a list of columns
    (column k holds every row's a_k), each row's period, and the code
    a_k * m + a_{k+1} of its least vertex."""
    m = group.order
    if start is None:
        start = np.arange(m * m, dtype=np.int32)
    x, y = np.divmod(start, m)
    seqs = [x]
    period, canon = np.zeros(len(start), dtype=np.int32), start.copy()
    while not period.all():
        x, y = y, group.products(group.inverses(x), y)
        seqs.append(x)
        cur = x * m + y
        period[(period == 0) & (cur == start)] = len(seqs) - 1
        np.minimum(canon, cur, out=canon)
    seqs.append(y)
    return seqs, period, canon


def _grow(group: FiniteGroup, imgs: np.ndarray, bud: _Budget, orbits=None) -> tuple[np.ndarray, np.ndarray]:
    """Extend every prefix (a row of images) by every candidate g; return the
    surviving (prefix row, g) cells in prefix order.  With `orbits` (a-sequence columns,
    periods, pair rows sorted longest period first) the period family runs
    first, a_k g = g a_{k+1} for each k below the row's own period (the stage-4
    word while imgs is empty).  Then g must braid with the last image and
    commute with every earlier one, so every call has at least one test.  A
    block's first test runs on its whole (rows x m) grid; every later test
    only on the cells still alive."""
    m = group.order
    g = np.arange(m, dtype=np.int32)

    def holds(x, y, z, r=None, c=None):
        """Whether cells pass x g = g y or, given z, x g z = g y g: the block's
        whole grid, by whole rows and columns of products, when r is None,
        else the cells (row r, candidate c)."""
        if r is None:
            xg, gy, c = group.row_products(x), group.column_products(y), g
            z = z if z is None else z[:, None]
        else:
            xg, gy = group.products(x[r], c), group.products(c, y[r])
            z = z if z is None else z[r]
        return xg == gy if z is None else group.products(xg, z) == group.products(gy, c)

    step = max(1, _BLOCK_CELLS // m)
    rows, cands = [], []
    for lo in range(0, len(imgs), step):
        b = imgs[lo:lo + step]
        tests = []      # (j, x, y, z): the test applies to the block's first j rows
        if orbits is not None:
            seqs, period, pairs = orbits
            sel = pairs[lo:lo + step]
            p = period[sel]
            a = [col[sel] for col in seqs[:p[0] + 2]]
            inside = (-p).searchsorted(-np.arange(p[0]))     # rows with p > k, a prefix as periods fall
            word = not b.shape[1]   # a_k b3 a_{k+2} = b3 a_{k+1} b3
            tests += [(inside[k], a[k], a[k + 1], a[k + 2] if word else None) for k in range(p[0])]
        if b.shape[1]:
            prev = b[:, -1]
            tests.append((len(b), prev, prev, prev))
            tests += [(len(b), far, far, None) for far in b[:, :-1].T]
        # every row is inside its period at k = 0; a flat nonzero and divmod
        # take about a third of the time of a 2-d nonzero
        r, c = np.divmod(holds(*tests[0][1:]).ravel().nonzero()[0], m)
        checks = len(b) * m
        for j, x, y, z in tests[1:]:
            n = int(r.searchsorted(j))      # the live cells in rows below j
            if not n:
                continue
            ok = holds(x, y, z, r[:n], c[:n])
            checks += n
            if not ok.all():
                keep = np.ones(r.size, dtype=bool)
                keep[:n] = ok
                r, c = r[keep], c[keep]
        bud.spend(checks)
        rows.append(r + lo)
        cands.append(c)
    return np.concatenate(rows), np.concatenate(cands)


def brute_hom_Kn(group: FiniteGroup, n: int, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Scan all tuples (a0, a1, b3, ..., b_{n-1}) and keep the relation-satisfying ones."""
    if n < 3:
        raise UsageError("the commutator-subgroup tower starts at n = 3")
    bud = _Budget(budget)
    m = group.order
    seqs, period, canon = _orbits(group)
    pairs = np.argsort(-period, kind="stable")
    imgs = np.empty((m * m, 0), dtype=np.int64)
    for _ in range(3, n):
        r, g = _grow(group, imgs, bud, (seqs, period, pairs))
        pairs, imgs = pairs[r], np.column_stack([imgs[r], g])
    sink = Counter(zip(canon[pairs].tolist(), map(tuple, imgs.tolist())))
    census = tuple(sorted((divmod(key, m), b, cnt) for (key, b), cnt in sink.items()))
    return OracleResult(len(pairs), census, bud.used)


def brute_hom_Bn(group: FiniteGroup, n: int, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Scan images (s_1, ..., s_{n-1}) of the braid generators directly.

    Accepted tuples are keyed by the class data of their restriction: the
    canonical vertex of the orbit of a0 = s_2 s_1^-1, the images b_j = s_j s_1^-1,
    and c = s_1, matching how the engine keys its braid extensions.
    """
    if n < 2:
        raise UsageError("braid groups need at least two strands")
    bud = _Budget(budget)
    m = group.order
    s = np.arange(m)[:, None]   # s_1 meets no relation
    for _ in range(2, n):
        r, g = _grow(group, s, bud)
        s = np.column_stack([s[r], g])
    c, c_inv = s[:, 0], group.inverses(s[:, 0])
    if n == 2:
        keys = [None] * len(s)
    else:
        a0 = group.products(s[:, 1], c_inv)
        a1 = group.products(group.products(c, a0), c_inv)
        keys = [divmod(key, m) for key in _orbits(group, a0 * m + a1)[2].tolist()]
    b = group.products(s[:, 2:], c_inv[:, None])
    sink = Counter(zip(keys, map(tuple, b.tolist()), c.tolist()))
    census = tuple((key, imgs, c, cnt) for (key, imgs, c), cnt in sorted(sink.items()))
    return OracleResult(len(s), census, bud.used)


# ---------------------------------------------------------------------------
# engine-side censuses in the same key format
# ---------------------------------------------------------------------------

def _engine_keys(tower: TowerResult, ids: np.ndarray, b: np.ndarray):
    """(rep vertex, b, period) of the classes on cycles `ids` with images `b`."""
    a0, a1 = tower.decomposition.rep_vertices(ids)
    return zip(zip(a0.tolist(), a1.tolist()), map(tuple, b.tolist()), tower.decomposition.lengths[ids].tolist())


def engine_census_Kn(tower: TowerResult, n: int) -> tuple:
    ids, b, _, _ = tower.level(n).expand()
    return tuple(sorted(_engine_keys(tower, ids, b)))


def engine_census_Bn(tower: TowerResult, n: int) -> tuple:
    if n == 2:
        return tuple((None, (), c, 1) for c in tower.group.elements())
    ids, b, c, c_count = tower.level(n).expand()
    rows = np.repeat(np.arange(ids.size), c_count)
    return tuple(sorted((vertex, b, c, p) for (vertex, b, p), c in
                        zip(_engine_keys(tower, ids[rows], b[rows]), c.tolist())))
