"""Derived facts about computed representations: transitivity, subgroup counts,
type-I structure, the abelian special case, and the standard permutation
representation used as a sanity anchor."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UsageError, VerificationError
from .extension import TowerResult, compute_tower
from .groups import (FiniteGroup, SymmetricGroup, derived_series,
                     involution_count, perfect_core_group)
from .shift import Representation, ShiftDecomposition, decompose

__all__ = [
    "generator_orbits",
    "is_transitive",
    "LevelTransitivity",
    "TransitivityReport",
    "transitivity_report",
    "count_subgroups",
    "count_braid_subgroups",
    "type_I_census",
    "abelian_cycle_length",
    "pi_representation",
    "nontrivial_implies_transitive",
    "classes_all_even",
    "perfect_core_census_match",
]


# ---------------------------------------------------------------------------
# orbits and transitivity (permutation images only)
# ---------------------------------------------------------------------------

def _require_symmetric(group: FiniteGroup) -> SymmetricGroup:
    if not isinstance(group, SymmetricGroup):
        raise UsageError("transitivity analysis needs a symmetric-group backend")
    return group


def _join(S: SymmetricGroup, labels: tuple[int, ...], g: int) -> tuple[int, ...]:
    """The partition `labels` joined with the cycles of g.

    A partition of the points 0..r-1 is held as the tuple of each point's
    least block-mate, so equal partitions are equal tuples.
    """
    parent = list(labels)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k, image in enumerate(S.perms[g]):
        ra, rb = find(k), find(image - 1)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return tuple(find(k) for k in range(S.r))


def _orbit_labels(S: SymmetricGroup, gens, joins: dict,
                  labels: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Orbit partition of the subgroup generated by `gens` (valid handles), as
    least block-mates, joined onto `labels` (the discrete partition by default).

    The partition is a join of the generators' cycle partitions; `joins`
    memoises each (partition, generator) step for the caller's later calls.
    """
    if labels is None:
        labels = tuple(range(S.r))
    whole = (0,) * S.r
    for g in gens:
        if labels == whole:
            break
        key = (labels, g)
        nxt = joins.get(key)
        if nxt is None:
            nxt = joins[key] = _join(S, labels, g)
        labels = nxt
    return labels


def _blocks(labels: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    buckets: dict[int, list[int]] = {}
    for k, root in enumerate(labels):
        buckets.setdefault(root, []).append(k + 1)
    return tuple(map(tuple, buckets.values()))


def generator_orbits(group: SymmetricGroup, gens) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of {1..r} under the subgroup generated by `gens`."""
    S = _require_symmetric(group)
    return _blocks(_orbit_labels(S, [S.check_element(g) for g in gens], {}))


def is_transitive(rep: Representation) -> bool:
    return len(generator_orbits(_require_symmetric(rep.group), rep.generators())) == 1


@dataclass(eq=False)
class LevelTransitivity:
    """Per-class orbit data at one stage, with the index-r subgroup count."""

    n: int
    orbits: list[tuple[tuple[int, ...], ...]]
    transitive: list[bool]
    transitive_rep_count: int
    subgroup_count: int


@dataclass(eq=False)
class TransitivityReport:
    group: SymmetricGroup
    levels: list[LevelTransitivity]

    def level(self, n: int) -> LevelTransitivity:
        for lvl in self.levels:
            if lvl.n == n:
                return lvl
        raise UsageError(f"stage {n} not in report")


def transitivity_report(tower: TowerResult) -> TransitivityReport:
    """Orbit partitions, transitivity flags and subgroup counts for every stage."""
    S = _require_symmetric(tower.group)
    stabiliser = math.factorial(S.r - 1)
    joins: dict = {}
    blocks: dict = {}
    by_cycle: dict = {}   # each cycle's a_seq partition, shared by its classes at every stage
    out = []
    for lvl in tower.levels:
        orbits = []
        for cls in lvl.classes:
            base = by_cycle.get(cls.cycle)
            if base is None:
                base = by_cycle[cls.cycle] = _orbit_labels(S, cls.cycle.a_seq, joins)
            labels = _orbit_labels(S, cls.b, joins, base)
            if labels not in blocks:
                blocks[labels] = _blocks(labels)
            orbits.append(blocks[labels])
        flags = [len(p) == 1 for p in orbits]
        trans_reps = sum(cls.period for cls, f in zip(lvl.classes, flags) if f)
        if trans_reps % stabiliser:
            raise VerificationError(
                f"transitive count {trans_reps} at stage {lvl.n} is not a multiple of (r-1)!={stabiliser}")
        out.append(LevelTransitivity(lvl.n, orbits, flags, trans_reps, trans_reps // stabiliser))
    return TransitivityReport(S, out)


def count_subgroups(n: int, r: int, tower: TowerResult | None = None) -> int:
    """Number of index-r subgroups of the stage-n group, via transitive representations."""
    if r < 2:
        return 1 if r == 1 else 0
    t = tower if tower is not None else compute_tower(SymmetricGroup(r), n)
    report = transitivity_report(t)
    return report.level(n).subgroup_count


def count_braid_subgroups(n: int, r: int, tower: TowerResult | None = None) -> int:
    """Number of index-r subgroups of the n-strand braid group, for r <= n-1.

    Valid once the stage-n classes over S_r are trivial: every braid
    representation then has cyclic image generated by the sigma_1 image, and
    transitive ones are counted and divided by the point-stabiliser size.
    """
    if r == 1:
        return 1
    S = SymmetricGroup(r)
    t = tower if tower is not None else compute_tower(S, n)
    if not t.is_trivial_at(n):
        raise UsageError(f"stage {n} over {S.name} is not trivial; braid subgroup count needs r <= n-1")
    lvl = t.level(n)
    transitive = 0
    for cls, cs in zip(lvl.classes, lvl.braid_c):
        for c in cs:
            if len(generator_orbits(S, [c])) == 1:
                transitive += cls.period
    stabiliser = math.factorial(r - 1)
    if transitive % stabiliser:
        raise VerificationError(
            f"transitive braid count {transitive} is not a multiple of (r-1)!={stabiliser}")
    return transitive // stabiliser


# ---------------------------------------------------------------------------
# type-I structure and the abelian case
# ---------------------------------------------------------------------------

def type_I_census(r: int) -> tuple[int, int, int]:
    """(cycle count, representation count, transitive representation count) of
    type-I cycles over S_r: ((1 + n_r + r!)/2, 3 r! - 2, 3 (r-1)!)."""
    if r < 2:
        raise UsageError("type-I census formulas need r >= 2")
    n_r = involution_count(SymmetricGroup(r))
    fact = math.factorial(r)
    if (1 + n_r + fact) % 2:
        raise VerificationError("type-I cycle count formula did not come out integral")
    return ((1 + n_r + fact) // 2, 3 * fact - 2, 3 * math.factorial(r - 1))


def abelian_cycle_length(group: FiniteGroup, v: tuple[int, int]) -> int:
    """Closed-form cycle length through v for abelian groups: 1, 2, 3 or 6."""
    if not group.is_abelian():
        raise UsageError("closed-form cycle lengths apply to abelian groups only")
    a = group.check_element(v[0])
    b = group.check_element(v[1])
    e = group.identity
    if a == e and b == e:
        return 1
    if group.mul(a, b) == e and group.power(a, 3) == e:
        return 2
    if group.mul(a, a) == e and group.mul(b, b) == e:
        return 3
    return 6


# ---------------------------------------------------------------------------
# the permutation representation z_m -> alternating 3-cycles
# ---------------------------------------------------------------------------

def pi_representation(n: int, r: int, decomposition: ShiftDecomposition | None = None) -> Representation:
    """The standard representation into S_r (r >= n): z_m to (1 3 2) or (1 2 3)
    by parity of m, and the extra generators to (1 2)(i, i+1)."""
    if n < 3:
        raise UsageError("the tower starts at n = 3")
    if r < n:
        raise UsageError(f"the standard representation needs r >= n, got r={r} < n={n}")
    if decomposition is not None:
        S = _require_symmetric(decomposition.group)
        if S.r != r:
            raise UsageError("decomposition degree does not match r")
    else:
        S = SymmetricGroup(r)

    def perm(mapping: dict[int, int]) -> int:
        return S.index_of(tuple(mapping.get(k, k) for k in range(1, r + 1)))

    a0 = perm({1: 3, 3: 2, 2: 1})          # (1 3 2)
    a1 = perm({1: 2, 2: 3, 3: 1})          # (1 2 3)
    b = tuple(perm({1: 2, 2: 1, i: i + 1, i + 1: i}) for i in range(3, n))
    a = (a0, a1)
    for m in range(2):
        am, am1, am2 = a[m], a[(m + 1) % 2], a[m]
        if b:
            lhs = S.mul(S.mul(am, b[0]), am2)
            rhs = S.mul(S.mul(b[0], am1), b[0])
            if lhs != rhs:
                raise VerificationError("standard representation breaks the stage-4 relation")
        for bi in b[1:]:
            if S.mul(am, bi) != S.mul(bi, am1):
                raise VerificationError("standard representation breaks an intertwining relation")
    for i in range(len(b) - 1):
        lhs = S.mul(S.mul(b[i], b[i + 1]), b[i])
        rhs = S.mul(S.mul(b[i + 1], b[i]), b[i + 1])
        if lhs != rhs:
            raise VerificationError("standard representation breaks a braid relation")
    for i in range(len(b)):
        for j in range(i + 2, len(b)):
            if S.mul(b[i], b[j]) != S.mul(b[j], b[i]):
                raise VerificationError("standard representation breaks far commutation")

    decomp = decomposition if decomposition is not None else decompose(S)
    cycle, phase = decomp.phase_of((a0, a1))
    return Representation(S, cycle, phase, b)


# ---------------------------------------------------------------------------
# structural claims checked on whole towers
# ---------------------------------------------------------------------------

def nontrivial_implies_transitive(tower: TowerResult, n: int) -> bool:
    """True when every nontrivial stage-n class over S_r acts transitively."""
    S = _require_symmetric(tower.group)
    lvl = tower.level(n)
    return all(
        len(generator_orbits(S, cls.generators())) == 1
        for cls in lvl.classes if not cls.is_trivial())


def classes_all_even(tower: TowerResult, n: int) -> bool:
    """True when every stage-n class has all generator images in the alternating group."""
    S = _require_symmetric(tower.group)
    lvl = tower.level(n)
    return all(
        S.parity(g) == 0
        for cls in lvl.classes for g in cls.generators())


def perfect_core_census_match(group: FiniteGroup, n: int,
                              tower: TowerResult | None = None) -> bool:
    """Compare the stage-n census over the group and over its perfect core.

    The core census is mapped back through the element embedding; equality of
    the two sets of (vertex, images) classes is the restriction statement for
    stages n >= 6.
    """
    series = derived_series(group)
    core = perfect_core_group(group, series)
    embed = sorted(series.core)          # increasing, so lex-least vertices map to lex-least
    t = tower if tower is not None else compute_tower(group, n)
    core_t = compute_tower(core, n)
    ours = {(cls.cycle.rep_vertex, cls.b) for cls in t.level(n).classes}
    theirs = {(tuple(embed[v] for v in cls.cycle.rep_vertex), tuple(embed[g] for g in cls.b))
              for cls in core_t.level(n).classes}
    return ours == theirs
