"""Extending cycle representations up the tower K_3 -> K_4 -> ... and to braid groups.

A class at stage n is a cycle with images b = (b_3, ..., b_{n-1}) of the extra
generators; it stands for the cycle-length many representations obtained by
choosing a phase.  A TowerLevel holds a stage's classes as arrays.

The scans `extend_to_K4(decomp, i)`, `extend_step(decomp, i, b)` and
`extend_to_braid(decomp, i, b)` test every element against the relations of
one class, reading cycle i's a-sequence from `decomp.a_flat`; they validate
their input and check nothing else.  The structural facts are array tests
over all rows of a stage.  `compute_tower` runs `stage4_failure`,
`stage_failure` and its own c-set checks once per stage on the classes it
scanned, raising VerificationError, and `verify` runs the first two on every row.

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

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ResourceLimitError, UsageError, VerificationError
from .groups import FiniteGroup
from .shift import ShiftDecomposition, decompose

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


# ---------------------------------------------------------------------------
# admissible-image scans (class level: independent of phase)
# ---------------------------------------------------------------------------

def _scan_input(decomp: ShiftDecomposition, i: int, b: tuple[int, ...]) -> tuple[np.ndarray, list[int]]:
    """The multiplication table and cycle i's a-sequence; UsageError unless i
    is a cycle index of `decomp` and every handle in b is an element."""
    if not (isinstance(i, (int, np.integer)) and 0 <= i < decomp.lengths.size):
        raise UsageError(f"cycle index {i!r} out of range ({decomp.lengths.size} cycles)")
    for x in b:
        decomp.group.check_element(x)
    start = int(decomp.offsets[i])
    return decomp.group.tables()[0], decomp.a_flat[start:start + int(decomp.lengths[i])].tolist()


def extend_to_K4(decomp: ShiftDecomposition, i: int) -> list[int]:
    """All admissible b3 over cycle i of `decomp`, sorted, the identity included."""
    mul_t, a = _scan_input(decomp, i, ())
    p, cand = len(a), np.arange(decomp.group.order)
    for m in range(p):
        cand = cand[mul_t[mul_t[a[m], cand], a[(m + 2) % p]] == mul_t[mul_t[cand, a[(m + 1) % p]], cand]]
        if cand.size <= 1:
            break
    return cand.tolist()


def extend_step(decomp: ShiftDecomposition, i: int, b: tuple[int, ...]) -> list[int]:
    """All admissible nontrivial images of the next generator above the class
    (cycle i, b), sorted; b = (b3, ..., b_{n-1}) with n >= 4."""
    if not b:
        raise UsageError("extend_step starts from stage 4; use extend_to_K4 below that")
    mul_t, a = _scan_input(decomp, i, b)
    p, last, cand = len(a), b[-1], np.arange(decomp.group.order)
    # braid with the previous image first: it alone kills everything when last = e
    cand = cand[mul_t[mul_t[cand, last], cand] == mul_t[mul_t[last, cand], last]]
    for m in range(p):
        if cand.size == 0:
            break
        cand = cand[mul_t[a[m], cand] == mul_t[cand, a[(m + 1) % p]]]
    for bj in b[:-1]:
        cand = cand[mul_t[bj, cand] == mul_t[cand, bj]]
    return cand[cand != decomp.group.identity].tolist()


def extend_to_braid(decomp: ShiftDecomposition, i: int, b: tuple[int, ...]) -> list[int]:
    """All admissible images c of sigma_1 extending the class (cycle i, b), sorted."""
    mul_t, a = _scan_input(decomp, i, b)
    p, cand = len(a), np.arange(decomp.group.order)
    for m in range(p):
        cand = cand[mul_t[cand, a[m]] == mul_t[a[(m + 1) % p], cand]]
        if cand.size == 0:
            break
    for bj in b:
        cand = cand[mul_t[bj, cand] == mul_t[cand, bj]]
    return cand.tolist()


# ---------------------------------------------------------------------------
# structural facts, checked on all rows of a stage at once
# ---------------------------------------------------------------------------

def is_trivial_class(decomp: ShiftDecomposition, ids: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each class (cycle ids[k], b[k]) is the fixed point (e, e) with every image e."""
    e = decomp.group.identity
    return (ids == decomp.cycle_index(e, e)) & (b == e).all(axis=1)


def _element_orders(group: FiniteGroup) -> np.ndarray:
    """The order of every element, by powering all elements in step."""
    mul_t, _ = group.tables()
    x = np.arange(group.order)
    order, power, k = np.zeros_like(x), x, 1
    while not order.all():
        order[(power == group.identity) & (order == 0)] = k
        power, k = mul_t[power, x], k + 1
    return order


def _powers(group: FiniteGroup, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x[k]^p[k] for every k, by repeated squaring over the table."""
    mul_t, _ = group.tables()
    acc = np.full(x.size, group.identity, dtype=mul_t.dtype)
    for bit in range(int(p.max(initial=0)).bit_length()):
        acc = np.where((p >> bit) & 1 == 1, mul_t[acc, x], acc)
        x = mul_t[x, x]
    return acc


def _power_centralises(decomp: ShiftDecomposition, ids: np.ndarray, x: np.ndarray) -> np.ndarray:
    """For each k, whether x[k]^p commutes with every entry of the a-sequence of
    cycle ids[k], p its period."""
    mul_t, _ = decomp.group.tables()
    length = decomp.lengths[ids]
    xp = np.repeat(_powers(decomp.group, x, length), length)
    a = decomp.a_flat[_ranges(decomp.offsets[ids], length)]
    return np.bincount(np.repeat(np.arange(ids.size), length), weights=mul_t[xp, a] != mul_t[a, xp],
                       minlength=ids.size) == 0


def _first_broken(fails: list[np.ndarray]) -> tuple[int, int] | None:
    """(row, fact) of the first fact broken on the first row that breaks one,
    given one boolean per row for each fact; None when none is broken."""
    table = np.column_stack(fails)
    bad = np.flatnonzero(table.any(axis=1))
    return (int(bad[0]), int(table[bad[0]].argmax())) if bad.size else None


_STAGE4_FACTS = ("b3^p != e", "gcd(p,|G|)=1 but b3 nontrivial", "type-I cycle with nontrivial b3")


def stage4_failure(decomp: ShiftDecomposition, ids: np.ndarray, b3: np.ndarray) -> str | None:
    """The first fact broken by the first class (cycle ids[k], b3[k]) that breaks
    one, with its rep vertex, or None: b3^p = e for p the period, and b3 = e
    when gcd(p, |G|) = 1 or the cycle is type I."""
    group = decomp.group
    p = decomp.lengths[ids]
    nontrivial = b3 != group.identity
    broken = _first_broken([_powers(group, b3, p) != group.identity,
                            (np.gcd(p, group.order) == 1) & nontrivial,
                            decomp.is_type_I[ids] & nontrivial])
    if broken is None:
        return None
    row, fact = broken
    a0, a1 = decomp.rep_vertices(ids[row:row + 1])
    return f"{_STAGE4_FACTS[fact]} at {(int(a0[0]), int(a1[0]))}"


def stage_failure(decomp: ShiftDecomposition, ids: np.ndarray, b: np.ndarray) -> str | None:
    """The first fact broken by the first nontrivial class (cycle ids[k], b[k])
    at stage n = 3 + b.shape[1] >= 5 that breaks one, or None.  In order:
    adjacent images braid, so they are conjugate, and do not commute; images
    further apart commute; p | ord(b_i) for i > 3; b_i^p centralises the
    a-sequence, p the period."""
    group = decomp.group
    mul_t, _ = group.tables()
    keep = ~is_trivial_class(decomp, ids, b)
    ids, b = ids[keep], b[keep]
    n, width = b.shape[1] + 3, b.shape[1]
    p = decomp.lengths[ids]
    order = _element_orders(group)
    facts: list[tuple[np.ndarray, str]] = []
    for j in range(width - 1):
        xy, yx = mul_t[b[:, j], b[:, j + 1]], mul_t[b[:, j + 1], b[:, j]]
        facts.append((mul_t[xy, b[:, j]] != mul_t[yx, b[:, j + 1]], "adjacent braid relation fails"))
        facts.append((xy == yx, "adjacent images commute"))
    for j in range(width):
        for k in range(j + 2, width):
            facts.append((mul_t[b[:, j], b[:, k]] != mul_t[b[:, k], b[:, j]], "far commutation fails"))
    for j in range(width):
        if j:
            facts.append((order[b[:, j]] % p != 0, f"p does not divide ord(b_{j + 3})"))
        facts.append((~_power_centralises(decomp, ids, b[:, j]), "b^p fails to centralise the a-sequence"))
    broken = _first_broken([fails for fails, _ in facts])
    return None if broken is None else f"{facts[broken[1]][1]} at stage {n}"


_C_FACTS = ("cycle length {p} does not divide |G|={m} yet c set is nonempty",
            "identity extends only the trivial class", "cycle length {p} does not divide ord(c)={order}",
            "c^p fails to commute with the a-sequence for c={c}")


def _c_set_failure(decomp: ShiftDecomposition, ids: np.ndarray, b: np.ndarray,
                   c: np.ndarray, c_count: np.ndarray) -> str | None:
    """The first fact broken by the c sets of the classes (cycle ids[k], b[k]),
    the k-th one `c_count[k]` handles of `c`, sorted; or None.  The trivial
    class extends by every element; any other, of period p, only by c != e
    with p | |G|, p | ord(c) and c^p centralising the a-sequence."""
    group = decomp.group
    trivial = is_trivial_class(decomp, ids, b)
    row = np.repeat(np.arange(ids.size), c_count)
    rank = np.arange(c.size) - np.repeat(np.cumsum(c_count) - c_count, c_count)
    if (c_count[trivial] != group.order).any() or (c != rank)[trivial[row]].any():
        return "the trivial class must extend by every element of the group"
    row, c = row[~trivial[row]], c[~trivial[row]]
    p, order = decomp.lengths[ids[row]], _element_orders(group)[c]
    broken = _first_broken([group.order % p != 0, c == group.identity, order % p != 0,
                            ~_power_centralises(decomp, ids[row], c)])
    if broken is None:
        return None
    k, fact = broken
    return _C_FACTS[fact].format(p=p[k], m=group.order, order=order[k], c=c[k])


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
        return bool(lvl.class_count == 1 and is_trivial_class(self.decomposition, lvl.cycle_ids, lvl.b).all())


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
    first = orbits.ids[orbits.start[:-1]]
    # the classes (orbit ks[j], b[j]) over each orbit's first cycle, checked
    # stage by stage; the trivial class extends only to the trivial chain
    ks, b = np.arange(first.size), np.empty((first.size, 0), dtype=np.int64)
    stages = [(ks, b)]
    for n in range(4, n_max + 1):
        ids = first[ks]
        if n == 4:
            found = [extend_to_K4(decomp, i) for i in ids.tolist()]
        else:
            found = [[e] if trivial else extend_step(decomp, i, tuple(row)) for i, row, trivial in
                     zip(ids.tolist(), b.tolist(), is_trivial_class(decomp, ids, b).tolist())]
        count = list(map(len, found))
        ks, b = np.repeat(ks, count), np.column_stack([np.repeat(b, count, axis=0),
                                                       np.fromiter(chain.from_iterable(found), dtype=np.int64)])
        if n == 4 and not np.bincount(ks[b[:, 0] == e], minlength=first.size).all():
            raise VerificationError("identity is always an admissible b3 but was not found")
        failure = stage4_failure(decomp, first[ks], b[:, 0]) if n == 4 else stage_failure(decomp, first[ks], b)
        if failure:
            raise VerificationError(failure)
        stages.append((ks, b))
    levels = [_transported_level(decomp, orbits, n, ks, b) for n, (ks, b) in enumerate(stages, start=3)]
    return TowerResult(group, decomp, levels)


def _transported_level(decomp: ShiftDecomposition, orbits: _Orbits, n: int,
                       ks: np.ndarray, base_b: np.ndarray) -> TowerLevel:
    """Stage n over every cycle: each class (ks[j], base_b[j]) over orbit ks[j]'s
    first cycle, with its checked braid c set, conjugated onto the orbit."""
    group = decomp.group
    size = orbits.start[ks + 1] - orbits.start[ks]
    row_class = np.repeat(np.arange(ks.size), size)
    pos = _ranges(orbits.start[ks], size)
    t = orbits.transporters[pos]
    b = _conjugate(group, t[:, None], base_b[row_class])
    # decompose numbers the cycles in lex order of their rep vertices, so this
    # is the order by (rep vertex, b)
    order = np.lexsort((*b.T[::-1], orbits.ids[pos]))
    row_class, t, pos = row_class[order], t[order], pos[order]
    # an orbit's first cycle is its own transporter image, so these rows are
    # the scanned classes unchanged
    orbit_rows = np.flatnonzero(pos == orbits.start[ks[row_class]])
    orbit_size = size[row_class[orbit_rows]]
    ids = orbits.ids[orbits.start[ks]]
    base_c = [extend_to_braid(decomp, i, tuple(row)) for i, row in zip(ids.tolist(), base_b.tolist())]
    base_count = np.fromiter(map(len, base_c), dtype=np.int64, count=len(base_c))
    flat = np.fromiter(chain.from_iterable(base_c), dtype=np.int64, count=int(base_count.sum()))
    failure = _c_set_failure(decomp, ids, base_b, flat, base_count)
    if failure:
        raise VerificationError(failure)
    c_count = base_count[row_class]
    row = np.repeat(np.arange(row_class.size), c_count)
    c = _conjugate(group, t[row], flat[_ranges((np.cumsum(base_count) - base_count)[row_class], c_count)])
    return TowerLevel(n, decomp, orbits.ids[pos], b[order], c[np.lexsort((c, row))], c_count,
                      orbit_rows, orbit_size)
