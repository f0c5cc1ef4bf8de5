"""Extending cycle representations up the tower K_3 -> K_4 -> ... and to braid groups.

A class at stage n is a cycle together with images b_3, ..., b_{n-1} of the
extra generators, held as its phase-0 Representation; it stands for the
cycle-length many representations obtained by choosing a phase.  Admissible
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
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from .errors import ResourceLimitError, UsageError, VerificationError
from .groups import FiniteGroup, element_order
from .shift import Cycle, Representation, ShiftDecomposition, decompose

__all__ = [
    "MAX_STAGE",
    "TowerLevel",
    "TowerResult",
    "BraidExtension",
    "extend_to_K4",
    "extend_step",
    "extend_to_braid",
    "compute_tower",
    "hom_Bn_when_Kn_trivial",
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
    full = np.arange(group.order, dtype=np.int64)
    conj_class = np.unique(mul_t[mul_t[full, last], inv_t[full]])
    for g in new:
        if group.mul(g, last) == group.mul(last, g):
            raise VerificationError(f"admissible image {g} commutes with its predecessor {last}")
        if g not in conj_class:
            raise VerificationError(f"admissible image {g} is not conjugate to its predecessor {last}")
        if element_order(group, g) % cycle.length != 0:
            raise VerificationError(
                f"cycle length {cycle.length} does not divide ord({g})={element_order(group, g)}")
        if not _power_commutes_with_all_a(group, g, cycle):
            raise VerificationError(f"b^p fails to commute with the a-sequence for b={g}")


def _check_c_set(group: FiniteGroup, cycle: Cycle, b: tuple[int, ...], cs: list[int]) -> None:
    e = group.identity
    trivial = cycle.length == 1 and cycle.a_seq[0] == e and all(x == e for x in b)
    if trivial:
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


def extend_step(rep: Representation) -> list[int]:
    """All admissible nontrivial images of the next generator above rep (n >= 4)."""
    if rep.n < 4:
        raise UsageError("extend_step starts from stage 4; use extend_to_K4 below that")
    new = sorted(int(x) for x in _scan_next_b(rep.group, rep.cycle, rep.b))
    _check_next_b_set(rep.group, rep.cycle, rep.b, new)
    return new


def extend_to_braid(rep: Representation) -> list[int]:
    """All admissible images c of sigma_1 extending rep to the full braid group."""
    cs = sorted(int(x) for x in _scan_c(rep.group, rep.cycle, rep.b))
    _check_c_set(rep.group, rep.cycle, rep.b, cs)
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
    cycles = decomp.cycles
    n = len(cycles)
    a0, a1 = np.array([c.rep_vertex for c in cycles], dtype=np.int64).reshape(n, 2).T

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
    """All classes at one stage n, with braid-extension sets when computed."""

    n: int
    classes: list[Representation]
    braid_c: list[tuple[int, ...]] | None = None

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def rep_count(self) -> int:
        return sum(cls.period for cls in self.classes)

    def _require_braid(self) -> list[tuple[int, ...]]:
        if self.braid_c is None:
            raise UsageError(f"braid extensions were not computed for stage {self.n}")
        return self.braid_c

    @property
    def braid_class_count(self) -> int:
        return sum(len(cs) for cs in self._require_braid())

    @property
    def braid_rep_count(self) -> int:
        return sum(cls.period * len(cs) for cls, cs in zip(self.classes, self._require_braid()))


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
        return lvl.class_count == 1 and lvl.classes[0].is_trivial()


def compute_tower(
    group: FiniteGroup,
    n_max: int,
    *,
    decomposition: ShiftDecomposition | None = None,
    with_braid: bool = True,
) -> TowerResult:
    """Compute all classes at stages 3..n_max, and their braid extensions if asked."""
    if n_max < 3:
        raise UsageError("the tower starts at stage 3")
    if n_max > MAX_STAGE:
        raise ResourceLimitError(f"stage {n_max} is over the cap MAX_STAGE = {MAX_STAGE}")
    decomp = decomposition if decomposition is not None else decompose(group)
    if decomp.group is not group:
        raise UsageError("decomposition was computed for a different group object")

    e = group.identity
    orbits = _conjugation_orbits(decomp)
    # (orbit, class) over each orbit's first cycle, stage by stage; the
    # trivial class extends only by the identity, to the trivial chain
    current = [(k, Representation(group, decomp.cycles[first]))
               for k, first in enumerate(orbits.ids[orbits.start[:-1]].tolist())]
    stages = [current]
    for n in range(4, n_max + 1):
        if n == 4:
            current = [(k, Representation(group, cls.cycle, 0, (b3,)))
                       for k, cls in current for b3 in extend_to_K4(group, cls.cycle)]
        else:
            current = [(k, Representation(group, cls.cycle, 0, cls.b + (g,)))
                       for k, cls in current for g in ([e] if cls.is_trivial() else extend_step(cls))]
        stages.append(current)
    levels = [_transported_level(decomp, orbits, n, reps, with_braid)
              for n, reps in enumerate(stages, start=3)]
    return TowerResult(group, decomp, levels)


def _conjugated_rows(group: FiniteGroup, values: list, row_class: np.ndarray,
                     t: np.ndarray, *, sort: bool) -> list[tuple[int, ...]]:
    """Row i is values[row_class[i]] conjugated by t[i], sorted if asked."""
    lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
    row_len = lengths[row_class]
    row = np.repeat(np.arange(len(row_class)), row_len)
    flat = np.fromiter(chain.from_iterable(values), dtype=np.int64)
    out = _conjugate(group, t[row], flat[_ranges((np.cumsum(lengths) - lengths)[row_class], row_len)])
    if sort:
        out = out[np.lexsort((out, row))]
    out = out.tolist()
    ends = np.cumsum(row_len).tolist()
    return [tuple(out[i:j]) for i, j in zip([0] + ends, ends)]


def _transported_level(decomp: ShiftDecomposition, orbits: _Orbits, n: int,
                       reps: list[tuple[int, Representation]], with_braid: bool) -> TowerLevel:
    """Stage n over every cycle: each (orbit, class) of an orbit's first cycle,
    with its braid c set when asked, conjugated onto every member of the orbit."""
    group = decomp.group
    ks = np.fromiter((k for k, _ in reps), dtype=np.int64, count=len(reps))
    size = orbits.start[ks + 1] - orbits.start[ks]
    row_class = np.repeat(np.arange(len(reps)), size)
    pos = _ranges(orbits.start[ks], size)
    t = orbits.transporters[pos]
    bs = _conjugated_rows(group, [cls.b for _, cls in reps], row_class, t, sort=False)
    cs = repeat(None)
    if with_braid:
        cs = _conjugated_rows(group, [extend_to_braid(cls) for _, cls in reps], row_class, t, sort=True)
    # decompose numbers the cycles in lex order of their rep vertices, so this
    # is the order by (rep vertex, b)
    entries = sorted(zip(orbits.ids[pos].tolist(), bs, cs), key=itemgetter(0, 1))
    classes = [Representation(group, decomp.cycles[cid], 0, b) for cid, b, _ in entries]
    return TowerLevel(n, classes, [c for *_, c in entries] if with_braid else None)


def hom_Bn_when_Kn_trivial(group: FiniteGroup, n: int, tower: TowerResult | None = None) -> int:
    """|Hom(B_n, G)| by the abelianization shortcut, valid once stage n is trivial."""
    t = tower if tower is not None else compute_tower(group, n, with_braid=False)
    if not t.is_trivial_at(n):
        raise UsageError(f"stage {n} over {group.name} is not trivial; the shortcut does not apply")
    return group.order


# ---------------------------------------------------------------------------
# a braid extension as explicit generator images
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BraidExtension:
    """A representation together with an admissible image c of sigma_1."""

    rep: Representation
    c: int

    def strand_images(self) -> tuple[int, ...]:
        """Images (s_1, ..., s_{n-1}) of the standard braid generators."""
        G = self.rep.group
        out = [self.c, G.mul(self.rep.a(0), self.c)]
        for b in self.rep.b:
            out.append(G.mul(b, self.c))
        return tuple(out)

    def validate(self) -> None:
        """Check the braid and far-commutation relations on the strand images."""
        G = self.rep.group
        s = self.strand_images()
        k = len(s)
        for i in range(k - 1):
            lhs = G.mul(G.mul(s[i], s[i + 1]), s[i])
            rhs = G.mul(G.mul(s[i + 1], s[i]), s[i + 1])
            if lhs != rhs:
                raise VerificationError(f"braid relation fails between strands {i + 1} and {i + 2}")
        for i in range(k):
            for j in range(i + 2, k):
                if G.mul(s[i], s[j]) != G.mul(s[j], s[i]):
                    raise VerificationError(f"strands {i + 1} and {j + 1} fail to commute")
        if G.mul(s[1], G.inv(s[0])) != self.rep.a(0):
            raise VerificationError("strand images do not restrict back to the representation")
        for idx, b in enumerate(self.rep.b):
            if G.mul(s[2 + idx], G.inv(s[0])) != b:
                raise VerificationError("strand images do not restrict back to the representation")
