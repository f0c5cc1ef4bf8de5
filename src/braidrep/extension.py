"""Extending cycle representations up the tower K_3 -> K_4 -> ... and to braid groups.

A class at stage n is a cycle with images b = (b_3, ..., b_{n-1}) of the extra
generators; it stands for the cycle-length many representations obtained by
choosing a phase.  A TowerLevel holds a stage's classes as arrays.

The scans `extend_to_K4(decomp, ids)`, `extend_step(decomp, ids, b)` and
`extend_to_braid(decomp, ids, b)` take a whole stage at once: an int array of
cycle ids and a (k, n - 3) array of image rows, one class per row.  They test
every element against the relations of every class and return (rows, images),
two int arrays sorted by (row, image), one entry per admissible image.  Each
scan is an ordered list of relations, every one of the form x g = g y or
x g z = g y g in the candidate g, run by one kernel, `_scan`.  It sorts the
rows by period and cuts them, whatever their periods, into blocks of at most
_BLOCK_CELLS (row, candidate) cells: the first relation runs on the block's
full grid by rows and columns of products, each later one only on the cells
still alive, and a block stops when none is left.  The scans validate their
input and check nothing else.

The structural facts are array tests over all rows of a stage.
`compute_tower` runs `stage4_failure` and `stage_failure` once per stage on
the classes it scanned, and the c scan with its c-set checks once per tower,
on the classes of every stage with b padded by the identity to n_max - 3
columns, raising VerificationError; `verify` runs the first two on every row.

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
# admissible-image scans (class level: independent of phase), one call per stage
# ---------------------------------------------------------------------------

# (row, candidate) cells a scan tests at once; bounds its working memory.
_BLOCK_CELLS = 1 << 16


def _scan_input(decomp: ShiftDecomposition, ids, b=None) -> tuple[np.ndarray, np.ndarray]:
    """ids and b as arrays; UsageError unless ids is a 1-d integer array of
    cycle indices of `decomp` and b a (len(ids), w) integer array of elements.
    An empty array may have any dtype."""
    n, group = decomp.lengths.size, decomp.group
    try:
        ids, b = np.asarray(ids), None if b is None else np.asarray(b)
    except ValueError:      # ragged rows
        raise UsageError("cycle ids and images must be rectangular integer arrays") from None
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise UsageError(f"cycle ids must be a 1-d integer array, got {ids.dtype} of shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        bad = ids[(ids < 0) | (ids >= n)]
        raise UsageError(f"cycle index {int(bad[0])} out of range ({n} cycles)")
    b = np.empty((ids.size, 0), dtype=np.intp) if b is None else b
    if b.ndim != 2 or b.shape[0] != ids.size or (b.size and b.dtype.kind not in "iu"):
        raise UsageError(f"images must be a ({ids.size}, w) integer array, got {b.dtype} of shape {b.shape}")
    if b.size and (b.min() < 0 or b.max() >= group.order):
        bad = b[(b < 0) | (b >= group.order)]
        raise UsageError(f"element index {int(bad[0])} out of range for {group.name} (order {group.order})")
    return ids.astype(np.intp, copy=False), b.astype(np.intp, copy=False)


def _blocks(decomp: ShiftDecomposition, ids: np.ndarray):
    """The rows of `ids`, sorted by period, in blocks of at most _BLOCK_CELLS / |G|
    rows (one at least), each with its rows' a-sequences read cyclically from
    their least vertex as a (P + 2, rows) matrix, a_k of row j at [k, j], P the
    block's longest period.  A row of period p < P repeats at k >= p the tests
    it ran at k mod p, so the cells that survive do not change."""
    period = decomp.lengths[ids]
    order = np.argsort(period, kind="stable")
    step = max(1, _BLOCK_CELLS // decomp.group.order)
    for s in range(0, ids.size, step):
        rows = order[s:s + step]
        p = period[rows]
        k = np.arange(int(p[-1]) + 2)[:, None]
        yield rows, decomp.a_flat[decomp.offsets[ids[rows]] + k % p]


def _by_row(found: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, images) of every block, as two arrays in row order; images
    stay ascending within a row."""
    if not found:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    rows, images = np.concatenate([r for r, _ in found]), np.concatenate([g for _, g in found])
    order = np.argsort(rows, kind="stable")
    return rows[order], images[order]


def _scan(decomp: ShiftDecomposition, ids, b, relations) -> tuple[np.ndarray, np.ndarray]:
    """Every candidate g that passes all relations over each class (cycle
    ids[k], b[k]), as (rows, images) sorted by (row, image).

    `relations(a, b)` gives a block's relations in order, from its a-sequence
    matrix (see `_blocks`) and its rows of images, as tuples of row arrays:
    (x, y) for x g = g y, (x, y, z) for x g z = g y g.  The first runs on the
    block's full grid by rows and columns of products, each later one only on
    the cells still alive, and the block is done when none is left."""
    ids, b = _scan_input(decomp, ids, b)
    group = decomp.group
    g = np.arange(group.order)
    found = []
    for rows, a in _blocks(decomp, ids):
        tests = iter(relations(a, b[rows]))
        x, y, *z = next(tests)
        xg, gy = group.row_products(x), group.column_products(y)
        keep = xg == gy if not z else group.products(xg, z[0][:, None]) == group.products(gy, g)
        r, c = np.divmod(np.flatnonzero(keep), group.order)
        for x, y, *z in tests:
            if not r.size:
                break
            xg, gy = group.products(x[r], c), group.products(c, y[r])
            keep = xg == gy if not z else group.products(xg, z[0][r]) == group.products(gy, c)
            r, c = r[keep], c[keep]
        found.append((rows[r], c))
    return _by_row(found)


def extend_to_K4(decomp: ShiftDecomposition, ids) -> tuple[np.ndarray, np.ndarray]:
    """Every admissible b3 over each cycle ids[k] of `decomp`, the identity
    included, as (rows, images): b3 = images[j] over cycle ids[rows[j]],
    sorted by (row, image)."""
    # a_k g a_{k+2} = g a_{k+1} g
    return _scan(decomp, ids, None, lambda a, _: zip(a[:-2], a[1:-1], a[2:]))


def extend_step(decomp: ShiftDecomposition, ids, b) -> tuple[np.ndarray, np.ndarray]:
    """Every admissible image of the next generator above each class (cycle
    ids[k], b[k]), b a (len(ids), n - 3) array of images with n >= 4, as
    (rows, images) sorted by (row, image).  The identity passes a_k e = e
    a_{k+1} only on the one constant cycle, (e, e), and the braid with the
    previous image only when that is e: on a tower, only the trivial class."""
    # the width is checked on validated input, so a malformed b gets its own message
    ids, b = _scan_input(decomp, ids, b)
    if not b.shape[1]:
        raise UsageError("extend_step starts from stage 4; use extend_to_K4 below that")

    def relations(a, images):
        # a_0 g = g a_1; then the braid with the previous image, which alone
        # kills everything when that is e; a_k g = g a_{k+1}; commuting with
        # every earlier image
        last = images[:, -1]
        return chain([(a[0], a[1]), (last, last, last)], zip(a[1:-2], a[2:-1]),
                     ((x, x) for x in images[:, :-1].T))
    return _scan(decomp, ids, b, relations)


def extend_to_braid(decomp: ShiftDecomposition, ids, b) -> tuple[np.ndarray, np.ndarray]:
    """Every admissible image c of sigma_1 extending each class (cycle ids[k],
    b[k]), as (rows, images) sorted by (row, image)."""
    # c a_k = a_{k+1} c, then c commutes with every image
    return _scan(decomp, ids, b, lambda a, images: chain(zip(a[1:-1], a[:-2]), ((x, x) for x in images.T)))


# ---------------------------------------------------------------------------
# structural facts, checked on all rows of a stage at once
# ---------------------------------------------------------------------------

def is_trivial_class(decomp: ShiftDecomposition, ids: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each class (cycle ids[k], b[k]) is the fixed point (e, e) with every image e."""
    # decompose checks that (e, e) is the one fixed point, so the one cycle of length 1
    return (decomp.lengths[ids] == 1) & (b == decomp.group.identity).all(axis=1)


def element_orders(group: FiniteGroup) -> np.ndarray:
    """The order of every element, by powering all elements in step.  A tower
    and a verify run each build it once and hand it to the stage checks.
    VerificationError if an element has no power up to |G| that is the identity."""
    x = np.arange(group.order)
    order, power = np.zeros_like(x), x
    for k in range(1, group.order + 1):
        order[(power == group.identity) & (order == 0)] = k
        if order.all():
            return order
        power = group.products(power, x)
    raise VerificationError(f"an element of {group.name} has no power up to {group.order} that is the identity")


def _powers(group: FiniteGroup, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x[k]^p[k] for every k, by repeated squaring."""
    acc = np.full_like(x, group.identity)
    for bit in range(int(p.max(initial=0)).bit_length()):
        acc = np.where((p >> bit) & 1 == 1, group.products(acc, x), acc)
        x = group.products(x, x)
    return acc


def _power_centralises(decomp: ShiftDecomposition, ids: np.ndarray, x: np.ndarray) -> np.ndarray:
    """For each k, whether x[k]^p commutes with every entry of the a-sequence of
    cycle ids[k], p its period."""
    group, length = decomp.group, decomp.lengths[ids]
    xp = np.repeat(_powers(group, x, length), length)
    a = decomp.a_flat[_ranges(decomp.offsets[ids], length)]
    fails = group.products(xp, a) != group.products(a, xp)
    return np.bincount(np.repeat(np.arange(ids.size), length), weights=fails, minlength=ids.size) == 0


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


def stage_failure(decomp: ShiftDecomposition, ids: np.ndarray, b: np.ndarray,
                  orders: np.ndarray) -> str | None:
    """The first fact broken by the first nontrivial class (cycle ids[k], b[k])
    at stage n = 3 + b.shape[1] >= 5 that breaks one, or None.  In order:
    adjacent images braid, so they are conjugate, and do not commute; images
    further apart commute; p | ord(b_i) for i > 3; b_i^p centralises the
    a-sequence, p the period.  `orders` is the group's element-order table."""
    group = decomp.group
    keep = ~is_trivial_class(decomp, ids, b)
    if not keep.any():
        return None
    ids, b = ids[keep], b[keep]
    n, width = b.shape[1] + 3, b.shape[1]
    p = decomp.lengths[ids]
    facts: list[tuple[np.ndarray, str]] = []
    prod = group.products
    for j in range(width - 1):
        xy, yx = prod(b[:, j], b[:, j + 1]), prod(b[:, j + 1], b[:, j])
        facts.append((prod(xy, b[:, j]) != prod(yx, b[:, j + 1]), "adjacent braid relation fails"))
        facts.append((xy == yx, "adjacent images commute"))
    for j in range(width):
        for k in range(j + 2, width):
            facts.append((prod(b[:, j], b[:, k]) != prod(b[:, k], b[:, j]), "far commutation fails"))
    for j in range(width):
        if j:
            facts.append((orders[b[:, j]] % p != 0, f"p does not divide ord(b_{j + 3})"))
        facts.append((~_power_centralises(decomp, ids, b[:, j]), "b^p fails to centralise the a-sequence"))
    broken = _first_broken([fails for fails, _ in facts])
    return None if broken is None else f"{facts[broken[1]][1]} at stage {n}"


_C_FACTS = ("cycle length {p} does not divide |G|={m} yet c set is nonempty",
            "identity extends only the trivial class", "cycle length {p} does not divide ord(c)={order}",
            "c^p fails to commute with the a-sequence for c={c}")


def _c_set_failure(decomp: ShiftDecomposition, ids: np.ndarray, b: np.ndarray,
                   c: np.ndarray, c_count: np.ndarray, orders: np.ndarray) -> str | None:
    """The first fact broken by the c sets of the classes (cycle ids[k], b[k]),
    the k-th one `c_count[k]` handles of `c`, sorted; or None.  The trivial
    class extends by every element; any other, of period p, only by c != e
    with p | |G|, p | ord(c) and c^p centralising the a-sequence; `orders` is
    the group's element-order table."""
    group = decomp.group
    trivial = is_trivial_class(decomp, ids, b)
    row = np.repeat(np.arange(ids.size), c_count)
    rank = np.arange(c.size) - np.repeat(np.cumsum(c_count) - c_count, c_count)
    if (c_count[trivial] != group.order).any() or (c != rank)[trivial[row]].any():
        return "the trivial class must extend by every element of the group"
    row, c = row[~trivial[row]], c[~trivial[row]]
    if not c.size:
        return None
    p, order = decomp.lengths[ids[row]], orders[c]
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
    return group.products(group.products(t, x), group.inverses(t))


def _ranges(first: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The concatenation of arange(first[i], first[i] + length[i]) over i."""
    offset = np.cumsum(length) - length
    return np.repeat(first - offset, length) + np.arange(int(length.sum()))


def _conjugation_orbits(decomp: ShiftDecomposition) -> _Orbits:
    """The cycles split into orbits under simultaneous conjugation.

    Conjugation commutes with the successor map, so each of the group's
    generators g permutes the cycles.  Each cycle carries a root, the least
    index known in its orbit, and a transporter t with cycle = t C_root t^-1.
    Every (root, transporter) pair is pushed along every generator's
    permutation, to (root, g t), onto each cycle whose root is larger, until no
    root falls; a permutation's inverse is a power of it, so each root ends as
    its orbit's first cycle in decomposition order.  Raises VerificationError
    unless each transporter maps its first cycle's rep vertex onto its member.
    The cycle map the steps and that check read is freed on return.
    """
    group = decomp.group
    n = decomp.lengths.size
    a0, a1 = decomp.rep_vertices(np.arange(n))
    cycle_map = decomp.cycle_map()

    def cycle_of(t, cid: np.ndarray) -> np.ndarray:
        """Cycle ids of t v t^-1 for v the rep vertex of cycle cid[k]."""
        return cycle_map[_conjugate(group, t, a0[cid]) * group.order + _conjugate(group, t, a1[cid])]

    everything = np.arange(n)
    steps = [(g, cycle_of(g, everything)) for g in group.generators()]
    root, t = everything.copy(), np.full(n, group.identity, dtype=np.int64)
    fell = True
    while fell:
        fell = False
        for g, step in steps:
            # a permutation: no two sources write the same cycle
            src = np.flatnonzero(root < root[step])
            dst = step[src]
            root[dst], t[dst] = root[src], group.products(g, t[src])
            fell |= src.size > 0
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


def compute_tower(group: FiniteGroup, n_max: int) -> TowerResult:
    """Compute all classes at stages 3..n_max and their braid extensions."""
    if n_max < 3:
        raise UsageError("the tower starts at stage 3")
    if n_max > MAX_STAGE:
        raise ResourceLimitError(f"stage {n_max} is over the cap MAX_STAGE = {MAX_STAGE}")
    decomp = decompose(group)

    e = group.identity
    orbits = _conjugation_orbits(decomp)
    orders = element_orders(group)
    first = orbits.ids[orbits.start[:-1]]
    # the classes (orbit ks[j], b[j]) over each orbit's first cycle, checked
    # stage by stage; the trivial class extends only to the trivial chain
    ks, b = np.arange(first.size), np.empty((first.size, 0), dtype=np.int64)
    stages = [(ks, b)]
    for n in range(4, n_max + 1):
        ids = first[ks]
        if n == 4:
            rows, found = extend_to_K4(decomp, ids)
        else:
            rows, found = extend_step(decomp, ids, b)
        ks, b = ks[rows], np.column_stack([b[rows], found])
        if n == 4 and not np.bincount(ks[b[:, 0] == e], minlength=first.size).all():
            raise VerificationError("identity is always an admissible b3 but was not found")
        failure = (stage4_failure(decomp, first[ks], b[:, 0]) if n == 4
                   else stage_failure(decomp, first[ks], b, orders))
        if failure:
            raise VerificationError(failure)
        stages.append((ks, b))
    # one braid c scan over the classes of every stage, b padded to n_max - 3
    # columns with the identity, which commutes with every c
    ks_all = np.concatenate([ks for ks, _ in stages])
    b_all = np.vstack([np.pad(b, ((0, 0), (0, n_max - 3 - b.shape[1])), constant_values=e) for _, b in stages])
    rows, c = extend_to_braid(decomp, first[ks_all], b_all)
    c_count = np.bincount(rows, minlength=ks_all.size)
    failure = _c_set_failure(decomp, first[ks_all], b_all, c, c_count, orders)
    if failure:
        raise VerificationError(failure)
    counts = np.split(c_count, np.cumsum([ks.size for ks, _ in stages])[:-1])
    c_sets = np.split(c, np.cumsum([count.sum() for count in counts])[:-1])
    levels = [_transported_level(decomp, orbits, n, ks, b, count, c_set)
              for n, (ks, b), count, c_set in zip(range(3, n_max + 1), stages, counts, c_sets)]
    return TowerResult(group, decomp, levels)


def _transported_level(decomp: ShiftDecomposition, orbits: _Orbits, n: int, ks: np.ndarray,
                       base_b: np.ndarray, base_count: np.ndarray, base_c: np.ndarray) -> TowerLevel:
    """Stage n over every cycle: each class (ks[j], base_b[j]) over orbit ks[j]'s
    first cycle, with its checked braid c set, the j-th run of `base_c`,
    `base_count[j]` handles long, conjugated onto the orbit."""
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
    c_count = base_count[row_class]
    row = np.repeat(np.arange(row_class.size), c_count)
    c = _conjugate(group, t[row], base_c[_ranges((np.cumsum(base_count) - base_count)[row_class], c_count)])
    return TowerLevel(n, decomp, orbits.ids[pos], b[order], c[np.lexsort((c, row))], c_count,
                      orbit_rows, orbit_size)
