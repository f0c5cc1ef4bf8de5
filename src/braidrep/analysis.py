"""Derived facts about computed representations: transitivity, subgroup counts,
type-I structure, the abelian special case, and the standard permutation
representation used as a sanity anchor.  Transitivity and parity are read
from a level's stored rows in one array pass over S_r's image array."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, VerificationError
from .extension import (TowerLevel, TowerResult, compute_tower, element_orders, extend_step, extend_to_braid,
                        extend_to_K4, is_trivial_class)
from .groups import FiniteGroup, SymmetricGroup, perfect_core_group
from .shift import ShiftDecomposition, _ranges, decompose, successor

__all__ = [
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


def _transitive(S: SymmetricGroup, row: np.ndarray, gen: np.ndarray, rows: int) -> np.ndarray:
    """Whether each of `rows` generator sets acts transitively on the points;
    row k's generators are the handles gen[row == k].

    Point 0 starts reached in every row; each round sends every reached point
    through every generator of its row, so r - 1 rounds reach the whole orbit."""
    images = S.perms[gen] - 1
    reached = np.zeros((rows, S.r), dtype=bool)
    reached[:, 0] = True
    for _ in range(S.r - 1):
        pair, point = np.nonzero(reached[row])
        reached[row[pair], images[pair, point]] = True
    return reached.all(axis=1)


def _level_generators(lvl: TowerLevel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weight, row, gen): each stored row's generators, its a-sequence and b,
    as flat (row, gen) pairs.

    Conjugating a class by g relabels the points by g, so orbit counts,
    transitivity and parity are the same on every class of one conjugation
    orbit; weight = period x orbit size is the number of representations the
    row stands for.
    """
    decomp, ids = lvl.decomposition, lvl.orbits.first[lvl.orbit]
    lengths, rows = decomp.lengths[ids], np.arange(ids.size)
    row = np.concatenate([np.repeat(rows, lengths), np.repeat(rows, lvl.b.shape[1])])
    gen = np.concatenate([decomp.a_flat[_ranges(decomp.offsets[ids], lengths)], lvl.b.ravel()])
    return lengths * lvl.orbits.size[lvl.orbit], row, gen


def _transitive_multiple(count: int, r: int, what: str) -> int:
    """count / (r-1)!, the number of index-r subgroups that `count` transitive
    representations stand for; VerificationError unless it divides."""
    stabiliser = math.factorial(r - 1)
    if count % stabiliser:
        raise VerificationError(f"{what} {count} is not a multiple of (r-1)!={stabiliser}")
    return count // stabiliser


@dataclass(eq=False)
class LevelTransitivity:
    """Transitive representation and index-r subgroup counts at one stage."""

    n: int
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
    """Transitive representation and subgroup counts for every stage."""
    S = _require_symmetric(tower.group)
    out = []
    for lvl in tower.levels:
        weight, row, gen = _level_generators(lvl)
        trans_reps = int(weight[_transitive(S, row, gen, weight.size)].sum())
        subgroups = _transitive_multiple(trans_reps, S.r, f"transitive count at stage {lvl.n}")
        out.append(LevelTransitivity(lvl.n, trans_reps, subgroups))
    return TransitivityReport(S, out)


def _tower_over(r: int, n: int, tower: TowerResult | None) -> TowerResult:
    """`tower`, or a new one to stage n over S_r; UsageError unless it is over S_r."""
    if tower is None:
        return compute_tower(SymmetricGroup(r), n)
    if not (isinstance(tower.group, SymmetricGroup) and tower.group.r == r):
        raise UsageError(f"the tower is over {tower.group.name}, not over S{r}")
    return tower


def count_subgroups(n: int, r: int, tower: TowerResult | None = None) -> int:
    """Number of index-r subgroups of the stage-n group, via transitive representations."""
    if r < 2:
        return 1 if r == 1 else 0
    return transitivity_report(_tower_over(r, n, tower)).level(n).subgroup_count


def count_braid_subgroups(n: int, r: int, tower: TowerResult | None = None) -> int:
    """Number of index-r subgroups of the n-strand braid group, for r <= n-1.

    Valid once the stage-n classes over S_r are trivial: every braid
    representation then has cyclic image generated by the sigma_1 image, and
    transitive ones are counted and divided by the point-stabiliser size.
    """
    if r < 2:
        return 1 if r == 1 else 0
    t = _tower_over(r, n, tower)
    S = t.group
    if not t.is_trivial_at(n):
        raise UsageError(f"stage {n} over {S.name} is not trivial; braid subgroup count needs r <= n-1")
    lvl = t.level(n)
    weight = np.repeat(_level_generators(lvl)[0], lvl.c_count)      # each c is a one-generator row
    transitive = int(weight[_transitive(S, np.arange(lvl.c.size), lvl.c, lvl.c.size)].sum())
    return _transitive_multiple(transitive, r, "transitive braid count")


# ---------------------------------------------------------------------------
# type-I structure and the abelian case
# ---------------------------------------------------------------------------

def type_I_census(r: int) -> tuple[int, int, int]:
    """(cycle count, representation count, transitive representation count) of
    type-I cycles over S_r: ((1 + n_r + r!)/2, 3 r! - 2, 3 (r-1)!)."""
    if r < 2:
        raise UsageError("type-I census formulas need r >= 2")
    n_r = int((element_orders(SymmetricGroup(r)) == 2).sum())
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

def pi_representation(n: int, r: int, decomposition: ShiftDecomposition | None = None
                      ) -> tuple[int, int, tuple[int, ...]]:
    """The standard representation into S_r (r >= n): z_m to (1 3 2) or (1 2 3)
    by parity of m, and the extra generators to (1 2)(i, i+1); returned as
    (i, phase, b), vertex `phase` of cycle i of the decomposition with images
    b_3..b_{n-1}."""
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
    # the relations, checked by the engine's scans on the one cycle
    decomp = decomposition if decomposition is not None else decompose(S)
    code = a0 * S.order + a1
    # the least code on the cycle, as cycles are numbered in order of their least codes
    v, least = successor(S, (a0, a1)), code
    while v != (a0, a1):
        v, least = successor(S, v), min(least, v[0] * S.order + v[1])
    r0, r1 = decomp.rep_vertices(np.arange(decomp.lengths.size))
    i = int(np.searchsorted(r0 * S.order + r1, least))
    for k, bk in enumerate(b):
        _, images = (extend_to_K4(decomp, [i]) if not k else
                     extend_step(decomp, [i], [b[:k]], extend_to_braid(decomp, [i], [b[:k - 1]])))
        if bk not in images:
            raise VerificationError(f"standard representation breaks a stage-{k + 4} relation")
    return i, int(np.flatnonzero(decomp.vertex_codes([i]) == code)[0]), b


# ---------------------------------------------------------------------------
# structural claims checked on whole towers
# ---------------------------------------------------------------------------

def nontrivial_implies_transitive(tower: TowerResult, n: int) -> bool:
    """True when every nontrivial stage-n class over S_r acts transitively."""
    S, lvl = _require_symmetric(tower.group), tower.level(n)
    weight, row, gen = _level_generators(lvl)
    trivial = is_trivial_class(lvl.decomposition, lvl.orbits.first[lvl.orbit], lvl.b)
    return bool((_transitive(S, row, gen, weight.size) | trivial).all())


def classes_all_even(tower: TowerResult, n: int) -> bool:
    """True when every stage-n class has all generator images in the alternating group."""
    S = _require_symmetric(tower.group)
    return not S.parities[_level_generators(tower.level(n))[2]].any()


def _class_rows(lvl: TowerLevel) -> np.ndarray:
    """Each class of a level as the row (rep vertex a0, a1, then b)."""
    ids, b, _, _ = lvl.expand()
    return np.column_stack([*lvl.decomposition.rep_vertices(ids), b])


def perfect_core_census_match(tower: TowerResult) -> bool:
    """Compare the top-stage census over the tower's group and over its perfect core.

    The core's classes are mapped back through the element embedding; equality
    of the two sets of (rep vertex, b) rows is the restriction statement for
    stages n >= 6.
    """
    core, embed = perfect_core_group(tower.group)    # embed increases, so lex-least vertices map to lex-least
    ours = _class_rows(tower.level(tower.n_max))
    theirs = embed[_class_rows(compute_tower(core, tower.n_max).level(tower.n_max))]
    return set(map(tuple, ours.tolist())) == set(map(tuple, theirs.tolist()))
