"""Extending cycle representations up the tower K_3 -> K_4 -> ... and to braid groups.

A class at stage n is a cycle with images b = (b_3, ..., b_{n-1}) of the extra
generators; it stands for the cycle-length many representations obtained by
choosing a phase.  A TowerLevel holds a stage's classes as arrays.  Admissible
images are found by exhaustive scans of the group, filtered relation by
relation; structural facts that must hold for the results (identity
membership, forced triviality, order constraints) are re-checked on the way
and raise VerificationError when broken.

Every relation is a word equation, so simultaneous conjugation by g maps
admissible (a-sequence, b, c) data to admissible data and commutes with the
successor map.  A tower therefore scans only the first cycle of each
conjugation orbit of cycles and carries its classes to every other cycle C of
the orbit as (C, g b g^-1, sorted g c-set g^-1), where C = g C_0 g^-1.

The relations used, with mul(g, h) meaning "h first, then g":
  stage 4:   a_m b3 a_{m+2} = b3 a_{m+1} b3          for all m
  stage i>4: a_m b = b a_{m+1}                        for all m
             b b_j = b_j b                            for j = 3..i-3
             b b_{i-1} b = b_{i-1} b b_{i-1}
  braid:     c a_m = a_{m+1} c                        for all m   (c = image of sigma_1)
             c b_j = b_j c                            for all j
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ResourceLimitError, UsageError, VerificationError
from .groups import FiniteGroup, element_order
from .shift import Cycle, ShiftDecomposition, decompose

__all__ = [
    "MAX_STAGE",
    "TowerLevel",
    "TowerResult",
    "extend_to_K4",
    "extend_step",
    "extend_to_braid",
    "compute_tower",
]


# Highest stage a tower is computed to: each level holds an identity chain
# n - 3 long that the braid scan walks, so the cost grows as n^2.
MAX_STAGE = 100


def _a_arr(cycle: Cycle) -> np.ndarray:
    return np.fromiter(cycle.a_seq, dtype=np.int64, count=cycle.length)


# ---------------------------------------------------------------------------
# admissible-image scans (class level: independent of phase)
# ---------------------------------------------------------------------------

def _scan_b3(group: FiniteGroup, cycle: Cycle) -> np.ndarray:
    mul_t, _ = group.tables()
    a = _a_arr(cycle)
    p = cycle.length
    cand = np.arange(group.order, dtype=np.int64)
    for m in range(p):
        am, am1, am2 = a[m], a[(m + 1) % p], a[(m + 2) % p]
        lhs = mul_t[mul_t[am, cand], am2]
        rhs = mul_t[mul_t[cand, am1], cand]
        cand = cand[lhs == rhs]
        if cand.size <= 1:
            break
    return cand


def _scan_next_b(group: FiniteGroup, cycle: Cycle, b: tuple[int, ...]) -> np.ndarray:
    mul_t, _ = group.tables()
    a = _a_arr(cycle)
    p = cycle.length
    last = b[-1]
    cand = np.arange(group.order, dtype=np.int64)
    # braid with the previous image first: it alone kills everything when last = e
    lhs = mul_t[mul_t[cand, last], cand]
    rhs = mul_t[mul_t[last, cand], last]
    cand = cand[lhs == rhs]
    for m in range(p):
        if cand.size == 0:
            break
        am, am1 = a[m], a[(m + 1) % p]
        cand = cand[mul_t[am, cand] == mul_t[cand, am1]]
    for bj in b[:-1]:
        if cand.size == 0:
            break
        cand = cand[mul_t[bj, cand] == mul_t[cand, bj]]
    return cand[cand != group.identity]


def _scan_c(group: FiniteGroup, cycle: Cycle, b: tuple[int, ...]) -> np.ndarray:
    mul_t, _ = group.tables()
    a = _a_arr(cycle)
    p = cycle.length
    cand = np.arange(group.order, dtype=np.int64)
    for m in range(p):
        am, am1 = a[m], a[(m + 1) % p]
        cand = cand[mul_t[cand, am] == mul_t[am1, cand]]
        if cand.size == 0:
            break
    for bj in b:
        if cand.size == 0:
            break
        cand = cand[mul_t[bj, cand] == mul_t[cand, bj]]
    return cand


# ---------------------------------------------------------------------------
# structural post-checks
# ---------------------------------------------------------------------------

def _power_commutes_with_all_a(group: FiniteGroup, x: int, cycle: Cycle) -> bool:
    xp = group.power(x, cycle.length)
    return all(group.mul(xp, am) == group.mul(am, xp) for am in cycle.a_seq)


def _check_b3_set(group: FiniteGroup, cycle: Cycle, bs: list[int]) -> None:
    e = group.identity
    if e not in bs:
        raise VerificationError("identity is always an admissible b3 but was not found")
    if cycle.cycle_type == "I" and bs != [e]:
        raise VerificationError(f"type-I cycle admits b3 set {bs}, expected only the identity")
    if math.gcd(cycle.length, group.order) == 1 and bs != [e]:
        raise VerificationError(
            f"cycle length {cycle.length} is prime to |G|={group.order} yet b3 set is {bs}")
    for b3 in bs:
        if group.power(b3, cycle.length) != e:
            raise VerificationError(f"admissible b3={b3} does not satisfy b3^p = e (p={cycle.length})")


def _check_next_b_set(group: FiniteGroup, cycle: Cycle, b: tuple[int, ...], new: list[int]) -> None:
    if not new:
        return
    mul_t, inv_t = group.tables()
    last = b[-1]
    conjugate = np.zeros(group.order, dtype=bool)
    conjugate[mul_t[mul_t[:, last], inv_t]] = True         # g last g^-1 for every g
    for g in new:
        if group.mul(g, last) == group.mul(last, g):
            raise VerificationError(f"admissible image {g} commutes with its predecessor {last}")
        if not conjugate[g]:
            raise VerificationError(f"admissible image {g} is not conjugate to its predecessor {last}")
        if element_order(group, g) % cycle.length != 0:
            raise VerificationError(
                f"cycle length {cycle.length} does not divide ord({g})={element_order(group, g)}")
        if not _power_commutes_with_all_a(group, g, cycle):
            raise VerificationError(f"b^p fails to commute with the a-sequence for b={g}")


def _check_c_set(group: FiniteGroup, cycle: Cycle, b: tuple[int, ...], cs: list[int]) -> None:
    e = group.identity
    if cycle.a_seq == (e,) and all(x == e for x in b):     # the trivial class
        if cs != sorted(group.elements()):
            raise VerificationError("the trivial class must extend by every element of the group")
        return
    if group.order % cycle.length != 0 and cs:
        raise VerificationError(
            f"cycle length {cycle.length} does not divide |G|={group.order} yet c set is nonempty")
    for c in cs:
        if c == e:
            raise VerificationError("identity extends only the trivial class")
        if element_order(group, c) % cycle.length != 0:
            raise VerificationError(
                f"cycle length {cycle.length} does not divide ord(c)={element_order(group, c)}")
        if not _power_commutes_with_all_a(group, c, cycle):
            raise VerificationError(f"c^p fails to commute with the a-sequence for c={c}")


# ---------------------------------------------------------------------------
# public single-step interface
# ---------------------------------------------------------------------------

def extend_to_K4(group: FiniteGroup, cycle: Cycle) -> list[int]:
    """All admissible b3 (the identity included) for the given cycle."""
    bs = sorted(int(x) for x in _scan_b3(group, cycle))
    _check_b3_set(group, cycle, bs)
    return bs


def extend_step(group: FiniteGroup, cycle: Cycle, b: tuple[int, ...]) -> list[int]:
    """All admissible nontrivial images of the next generator above the class (cycle, b), n >= 4."""
    if not b:
        raise UsageError("extend_step starts from stage 4; use extend_to_K4 below that")
    new = sorted(int(x) for x in _scan_next_b(group, cycle, b))
    _check_next_b_set(group, cycle, b, new)
    return new


def extend_to_braid(group: FiniteGroup, cycle: Cycle, b: tuple[int, ...]) -> list[int]:
    """All admissible images c of sigma_1 extending the class (cycle, b) to the braid group."""
    cs = sorted(int(x) for x in _scan_c(group, cycle, b))
    _check_c_set(group, cycle, b, cs)
    return cs


# ---------------------------------------------------------------------------
# conjugation orbits of cycles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Orbits:
    """The cycles grouped by conjugation orbit.

    Orbit k is ids[start[k]:start[k + 1]] (decomposition indices); its first
    entry is the orbit's first cycle C in decomposition order, and cycle ids[j]
    is t C t^-1 for t = transporters[j].
    """

    ids: np.ndarray
    transporters: np.ndarray
    start: np.ndarray


def _conjugate(group: FiniteGroup, t, x) -> np.ndarray:
    """t x t^-1, elementwise over broadcast arrays of handles."""
    mul_t, inv_t = group.tables()
    return mul_t[mul_t[t, x], inv_t[t]]


def _ranges(first: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The concatenation of arange(first[i], first[i] + length[i]) over i."""
    offset = np.cumsum(length) - length
    return np.repeat(first - offset, length) + np.arange(int(length.sum()))


def _conjugation_orbits(decomp: ShiftDecomposition) -> _Orbits:
    """The cycles split into orbits under simultaneous conjugation.

    Conjugation commutes with the successor map, so each of the group's
    generators permutes the cycles.  Every cycle is labelled by the least
    index in its orbit (the orbit's first cycle in decomposition order), and a
    breadth-first walk out of the first cycles records a transporter for
    every member.  Raises VerificationError unless the walk reaches every
    cycle and each transporter maps its first cycle's rep vertex onto its
    member.
    """
    group = decomp.group
    n = decomp.lengths.size
    a0, a1 = decomp.rep_vertices(np.arange(n))

    def cycle_of(t, cid: np.ndarray) -> np.ndarray:
        """Cycle ids of t v t^-1 for v the rep vertex of cycle cid[k]."""
        return decomp.cycle_index(_conjugate(group, t, a0[cid]), _conjugate(group, t, a1[cid]))

    mul_t, _ = group.tables()
    everything = np.arange(n)
    steps = [(g, cycle_of(g, everything)) for g in group.generators()]
    # pull the least label back along each generator's permutation until it
    # settles; a permutation's inverse is a power of it, so it reaches the
    # whole orbit
    root = everything.copy()
    while True:
        before = root.copy()
        for _, step in steps:
            np.minimum(root, root[step], out=root)
        if (root == before).all():
            break
    t = np.full(n, group.identity, dtype=np.int64)
    reached = root == everything
    frontier = np.flatnonzero(reached)
    while frontier.size:
        grown = []
        for g, step in steps:
            src = frontier[~reached[step[frontier]]]
            dst = step[src]
            t[dst] = mul_t[g, t[src]]
            reached[dst] = True
            grown.append(dst)
        frontier = np.concatenate([frontier[:0], *grown])

    if not reached.all():
        raise VerificationError("conjugation orbits do not partition the cycles")
    if (cycle_of(t, root) != everything).any():
        raise VerificationError("a transporter does not conjugate its orbit's first cycle onto its member")
    ids = np.argsort(root, kind="stable")
    start = np.flatnonzero(np.diff(root[ids], prepend=-1, append=n))
    return _Orbits(ids, t[ids], start)


# ---------------------------------------------------------------------------
# tower of levels
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TowerLevel:
    """All classes at one stage n, as arrays, each class with its sorted set of
    braid extensions c.

    Class i is cycle `cycle_ids[i]` (an index into the decomposition's
    cycles) with images `b[i]` (a row of n - 3 handles); its c set is the i-th
    run of `c`, `c_count[i]` handles long, sorted.  Classes are ordered by
    (rep vertex, b).  The four counts are computed once, at build.

    `orbit_rows` are the rows over each conjugation orbit's first cycle, the
    classes the scans found, in row order; row `orbit_rows[k]` stands for the
    `orbit_size[k]` classes of its orbit, one per cycle.
    """

    n: int
    decomposition: ShiftDecomposition = field(repr=False)
    cycle_ids: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    c_count: np.ndarray = field(repr=False)
    orbit_rows: np.ndarray = field(repr=False)
    orbit_size: np.ndarray = field(repr=False)
    class_count: int = field(init=False)
    rep_count: int = field(init=False)
    braid_class_count: int = field(init=False)
    braid_rep_count: int = field(init=False)

    def __post_init__(self) -> None:
        period = self.decomposition.lengths[self.cycle_ids]
        self.class_count = len(self.cycle_ids)
        self.rep_count = int(period.sum())
        self.braid_class_count = int(self.c_count.sum())
        self.braid_rep_count = int(period @ self.c_count)


@dataclass(eq=False)
class TowerResult:
    """Levels 3..n_max of the extension tower over one group."""

    group: FiniteGroup
    decomposition: ShiftDecomposition
    levels: list[TowerLevel]

    @property
    def n_max(self) -> int:
        return self.levels[-1].n

    def level(self, n: int) -> TowerLevel:
        if not 3 <= n <= self.n_max:
            raise UsageError(f"stage {n} not computed (tower covers 3..{self.n_max})")
        return self.levels[n - 3]

    def is_trivial_at(self, n: int) -> bool:
        lvl = self.level(n)
        e = self.group.identity
        return bool(lvl.class_count == 1 and lvl.cycle_ids[0] == self.decomposition.cycle_index(e, e)
                    and (lvl.b == e).all())


def compute_tower(
    group: FiniteGroup,
    n_max: int,
    *,
    decomposition: ShiftDecomposition | None = None,
) -> TowerResult:
    """Compute all classes at stages 3..n_max and their braid extensions."""
    if n_max < 3:
        raise UsageError("the tower starts at stage 3")
    if n_max > MAX_STAGE:
        raise ResourceLimitError(f"stage {n_max} is over the cap MAX_STAGE = {MAX_STAGE}")
    decomp = decomposition if decomposition is not None else decompose(group)
    if decomp.group is not group:
        raise UsageError("decomposition was computed for a different group object")

    e = group.identity
    orbits = _conjugation_orbits(decomp)
    first = [decomp.cycle(i) for i in orbits.ids[orbits.start[:-1]].tolist()]
    # (orbit k, b) over each orbit's first cycle first[k], stage by stage; the
    # trivial class extends only by the identity, to the trivial chain
    current = [(k, ()) for k in range(len(first))]
    stages = [current]
    for n in range(4, n_max + 1):
        if n == 4:
            current = [(k, (b3,)) for k, _ in current for b3 in extend_to_K4(group, first[k])]
        else:
            current = [(k, b + (g,)) for k, b in current for g in (
                [e] if first[k].a_seq == (e,) and set(b) == {e} else extend_step(group, first[k], b))]
        stages.append(current)
    levels = [_transported_level(decomp, orbits, first, n, classes)
              for n, classes in enumerate(stages, start=3)]
    return TowerResult(group, decomp, levels)


def _transported_level(decomp: ShiftDecomposition, orbits: _Orbits, first: list[Cycle], n: int,
                       classes: list[tuple[int, tuple[int, ...]]]) -> TowerLevel:
    """Stage n over every cycle: each class (k, b) over orbit k's first cycle
    first[k], with its braid c set, conjugated onto every member of the orbit."""
    group = decomp.group
    ks = np.fromiter((k for k, _ in classes), dtype=np.int64, count=len(classes))
    size = orbits.start[ks + 1] - orbits.start[ks]
    row_class = np.repeat(np.arange(len(classes)), size)
    pos = _ranges(orbits.start[ks], size)
    t = orbits.transporters[pos]
    base_b = np.array([b for _, b in classes], dtype=np.int64).reshape(len(classes), n - 3)
    b = _conjugate(group, t[:, None], base_b[row_class])
    # decompose numbers the cycles in lex order of their rep vertices, so this
    # is the order by (rep vertex, b)
    order = np.lexsort((*b.T[::-1], orbits.ids[pos]))
    row_class, t, pos = row_class[order], t[order], pos[order]
    # an orbit's first cycle is its own transporter image, so these rows are
    # the scanned classes unchanged
    orbit_rows = np.flatnonzero(pos == orbits.start[ks[row_class]])
    orbit_size = size[row_class[orbit_rows]]
    base_c = [extend_to_braid(group, first[k], b) for k, b in classes]
    base_count = np.fromiter(map(len, base_c), dtype=np.int64, count=len(base_c))
    c_count = base_count[row_class]
    row = np.repeat(np.arange(row_class.size), c_count)
    flat = np.fromiter(chain.from_iterable(base_c), dtype=np.int64, count=int(base_count.sum()))
    c = _conjugate(group, t[row], flat[_ranges((np.cumsum(base_count) - base_count)[row_class], c_count)])
    return TowerLevel(n, decomp, orbits.ids[pos], b[order], c[np.lexsort((c, row))], c_count,
                      orbit_rows, orbit_size)
