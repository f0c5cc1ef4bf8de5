"""Extending cycle representations up the tower K_3 -> K_4 -> ... and to braid groups.

A class at stage n is a cycle with images b = (b_3, ..., b_{n-1}) of the extra
generators; it stands for the cycle-length many representations obtained by
choosing a phase.  A TowerLevel holds the classes the scans found at a stage.

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
on the classes of every stage with b filled out by the identity to n_max - 3
columns, raising VerificationError; `verify` runs the first two on every class.

Every relation is a word equation, so simultaneous conjugation by g maps
admissible (a-sequence, b, c) data to admissible data and commutes with the
successor map.  A tower therefore scans only the first cycle C_0 of each
conjugation orbit of cycles and keeps the classes found there, each weighted by
its orbit's size; `TowerLevel.expand` carries them to every other cycle C of
the orbit as (C, g b g^-1, sorted g c-set g^-1), where C = g C_0 g^-1.  The
orbits come from the pair classes, the orbits of conjugation on G x G, which
the successor map permutes: a cycle's orbit is the successor cycle through the
pair class of its rep vertex (`_conjugation_orbits`).  No array over all |G|^2
vertices is built for it, and an abelian group skips it, as there every cycle
is its own orbit.

The relations used, with mul(g, h) meaning "h first, then g":
  stage 4:   a_m b3 a_{m+2} = b3 a_{m+1} b3          for all m
  stage i>4: a_m b = b a_{m+1}                        for all m
             b b_j = b_j b                            for j = 3..i-3
             b b_{i-1} b = b_{i-1} b b_{i-1}
  braid:     c a_m = a_{m+1} c                        for all m   (c = image of sigma_1)
             c b_j = b_j c                            for all j
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import accumulate, chain

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

    Orbit k is ids[start[k]:start[k + 1]] (decomposition indices), size[k]
    cycles; its first entry, first[k], is the orbit's first cycle C in
    decomposition order, and cycle ids[j] is t C t^-1 for t = transporters[j].
    """

    ids: np.ndarray
    transporters: np.ndarray
    start: np.ndarray
    first: np.ndarray
    size: np.ndarray


def _conjugate(group: FiniteGroup, t, x) -> np.ndarray:
    """t x t^-1, elementwise over broadcast arrays of handles."""
    return group.products(group.products(t, x), group.inverses(t))


def _ranges(first: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The concatenation of arange(first[i], first[i] + length[i]) over i."""
    offset = np.cumsum(length) - length
    return np.repeat(first - offset, length) + np.arange(int(length.sum()))


def _pair_classes(group: FiniteGroup, central: np.ndarray) -> tuple[Callable, np.ndarray, np.ndarray]:
    """The pair classes, the orbits of simultaneous conjugation on G x G,
    numbered densely; `central` marks the elements of the centre.

    Each element x gets a rep, its least conjugate, and tau[x] with
    tau[x] x tau[x]^-1 = rep[x]: a central element is its own rep, and each
    other class is found by conjugating its least element by every g.  The
    canonical pair of a vertex (a0, a1) is (r, y): r = rep[a0], and y the least
    conjugate of tau[a0] a1 tau[a0]^-1 under the centraliser C(r), its label.
    So each non-central rep r has one row over the elements: the label of each
    and the h in C(r) that gives it.  The central reps share the row (rep, tau),
    as their centraliser is G.  Pair classes are numbered by a0's class, then
    by the label's rank among its row's labels.

    Returns (canonical, r, y): pair class j is that of the canonical pair
    (r[j], y[j]), and canonical(a0, a1) gives the pair class of each vertex
    (a0, a1) and sigma = h tau[a0], which conjugates the vertex onto its
    canonical pair.
    """
    m = group.order
    elements = np.arange(m)
    inverses = group.inverses(elements)
    rep, tau = elements.copy(), np.full(m, group.identity, dtype=np.int64)
    rows = [(rep, tau)]
    left = ~central
    while left.any():
        r = int(left.argmax())                  # the least element in no class yet
        conj = group.products(group.column_products(r), inverses)      # g r g^-1 at [g]
        rep[conj], tau[conj] = r, inverses
        left[conj] = False
        h = np.flatnonzero(conj == r)           # the centraliser C(r)
        conj = group.products(group.row_products(h), inverses[h, None])     # h x h^-1 at [h, x]
        least = conj.argmin(axis=0)
        rows.append((conj[least, elements], h[least]))
    label, h_of = (np.stack(x) for x in zip(*rows))
    is_rep = rep == elements
    cls = (np.cumsum(is_rep) - 1)[rep]          # every element's class, numbered by rep
    reps = np.flatnonzero(is_rep)
    row = np.cumsum(~central[reps]) * ~central[reps]    # each class's row, 0 if central
    is_label = label == elements
    # the rank of each element's label among its row's labels
    rank = np.take_along_axis(np.cumsum(is_label, axis=1) - 1, label, axis=1).ravel()
    h_of = h_of.ravel()
    count = is_label.sum(axis=1)[row]
    offset = np.cumsum(count) - count

    def canonical(a0, a1) -> tuple[np.ndarray, np.ndarray]:
        t, c = tau[a0], cls[a0]
        at = row[c] * m + _conjugate(group, t, a1)
        return offset[c] + rank[at], group.products(h_of[at], t)

    labels = [np.flatnonzero(x) for x in is_label]
    return canonical, np.repeat(reps, count), np.concatenate([labels[k] for k in row])


def _conjugation_orbits(decomp: ShiftDecomposition) -> _Orbits:
    """The cycles split into orbits under simultaneous conjugation.

    An abelian group conjugates trivially, so there every cycle is an orbit.
    Otherwise conjugation commutes with the successor map, so the successor
    permutes the pair classes (`_pair_classes`), and a cycle's orbit is the
    cycle of that permutation through its rep vertex's pair class.  Pointer
    doubling finds the least pair class on each cycle of the permutation; the
    cycles whose rep vertices lead to one such least class form an orbit, and
    its first cycle is the least of them.  For the transporters only the vertices of the
    first cycles are canonicalised: for each pair class one such vertex u is
    kept, and t = sigma_v^-1 sigma_u carries it onto the rep vertex v of each
    cycle whose v is in that pair class.  Raises VerificationError unless
    t u t^-1 = v with u on the first cycle of v's orbit.
    """
    group = decomp.group
    n = decomp.lengths.size
    central = np.ones(group.order, dtype=bool)
    for g in group.generators():
        central &= group.row_products(g) == group.column_products(g)
    if central.all():
        ids = np.arange(n)
        return _Orbits(ids, np.full(n, group.identity, dtype=np.int64), np.arange(n + 1), ids,
                       np.ones(n, dtype=np.intp))

    canonical, r, y = _pair_classes(group, central)
    # the successor (r, y) -> (y, r^-1 y) of every pair class, and the least
    # pair class on its cycle, over 1, 2, 4, ... steps until none falls
    nxt = canonical(y, group.products(group.inverses(r), y))[0]
    least = np.arange(nxt.size)
    while not np.array_equal(fell := np.minimum(least, least[nxt]), least):
        least, nxt = fell, nxt[nxt]

    # each orbit's first cycle: the least cycle whose rep vertex's pair class
    # leads to a given least class
    a0, a1 = decomp.rep_vertices(np.arange(n))
    pair, sigma = canonical(a0, a1)
    first_cycle = np.full(nxt.size, n)
    np.minimum.at(first_cycle, least[pair], np.arange(n))
    first = np.sort(first_cycle[first_cycle < n])

    # the vertices u of the first cycles, the cycle each lies on, and one u of
    # each pair class they meet
    length = decomp.lengths[first]
    pos = _ranges(decomp.offsets[first], length)
    succ = pos + 1
    succ[np.cumsum(length) - 1] = decomp.offsets[first]       # a cycle's last vertex wraps to its first a
    u0, u1, on = decomp.a_flat[pos], decomp.a_flat[succ], np.repeat(first, length)
    u_pair, u_sigma = canonical(u0, u1)
    kept = np.zeros(nxt.size, dtype=np.int32)
    kept[u_pair] = np.arange(u_pair.size)
    u, root = kept[pair], first_cycle[least[pair]]
    del pair        # freed before the check and the sort, which set the peak
    t = group.products(group.inverses(sigma), u_sigma[u])
    del sigma
    bad = on[u] != root
    bad |= _conjugate(group, t, u0[u]) != a0
    bad |= _conjugate(group, t, u1[u]) != a1
    if bad.any():
        raise VerificationError("a transporter does not conjugate its orbit's first cycle onto its member")
    ids = np.argsort(root * n + np.arange(n))       # by (root, id): the keys are distinct
    size = np.bincount(root, minlength=n)[first]
    return _Orbits(ids, t[ids], np.concatenate([[0], np.cumsum(size)]), first, size)


# ---------------------------------------------------------------------------
# tower of levels
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TowerLevel:
    """The classes at one stage n that the scans found, one row per class over
    the first cycle of a conjugation orbit, each with its sorted set of braid
    extensions c.

    Row j is the class on orbit `orbit[j]`'s first cycle with images `b[j]` (a
    row of n - 3 handles); its c set is the j-th run of `c`, `c_count[j]`
    handles long, sorted.  Rows are ordered by (orbit, b).  Each row stands for
    one class on every cycle of its orbit, so the four counts, computed once at
    build, are sums weighted by orbit size; `expand` lists every class.
    """

    n: int
    decomposition: ShiftDecomposition = field(repr=False)
    orbits: _Orbits = field(repr=False)
    orbit: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    c_count: np.ndarray = field(repr=False)
    class_count: int = field(init=False)
    rep_count: int = field(init=False)
    braid_class_count: int = field(init=False)
    braid_rep_count: int = field(init=False)

    def __post_init__(self) -> None:
        size = self.orbits.size[self.orbit]
        period = self.decomposition.lengths[self.orbits.first[self.orbit]]
        self.class_count = int(size.sum())
        self.rep_count = int(size @ period)
        self.braid_class_count = int(size @ self.c_count)
        self.braid_rep_count = int(size @ (period * self.c_count))

    def expand(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(cycle_ids, b, c, c_count) of every class, each row carried onto every
        cycle of its orbit, anew on each call.  Class i is cycle cycle_ids[i]
        with images b[i]; its c set is the i-th run of c, c_count[i] handles
        long, sorted.  Classes are ordered by (rep vertex, b)."""
        orbits, group = self.orbits, self.decomposition.group
        size = orbits.size[self.orbit]
        row_class = np.repeat(np.arange(self.orbit.size), size)
        pos = _ranges(orbits.start[self.orbit], size)
        t = orbits.transporters[pos]
        b = _conjugate(group, t[:, None], self.b[row_class])
        # cycles are numbered in lex order of their rep vertices: this orders by (rep vertex, b)
        order = np.lexsort((*b.T[::-1], orbits.ids[pos]))
        row_class, t, pos = row_class[order], t[order], pos[order]
        c_count = self.c_count[row_class]
        row = np.repeat(np.arange(row_class.size), c_count)
        c = _conjugate(group, t[row], self.c[_ranges((np.cumsum(self.c_count) - self.c_count)[row_class], c_count)])
        return orbits.ids[pos], b[order], c[np.lexsort((c, row))], c_count


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
        return bool(lvl.class_count == 1
                    and is_trivial_class(self.decomposition, lvl.orbits.first[lvl.orbit], lvl.b).all())


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
    first = orbits.first
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
        ks, b = ks[rows], np.concatenate([b[rows], found[:, None]], axis=1)
        if n == 4 and not np.bincount(ks[b[:, 0] == e], minlength=first.size).all():
            raise VerificationError("identity is always an admissible b3 but was not found")
        failure = (stage4_failure(decomp, first[ks], b[:, 0]) if n == 4
                   else stage_failure(decomp, first[ks], b, orders))
        if failure:
            raise VerificationError(failure)
        stages.append((ks, b))
    # one braid c scan over the classes of every stage, their b filled out to
    # n_max - 3 columns with the identity, which commutes with every c; the
    # classes of stage n are rows start[n - 3]:start[n - 2]
    start = list(accumulate((ks.size for ks, _ in stages), initial=0))
    ks_all = np.concatenate([ks for ks, _ in stages])
    b_all = np.full((start[-1], n_max - 3), e, dtype=np.int64)
    for (_, b), lo, hi in zip(stages, start, start[1:]):
        b_all[lo:hi, :b.shape[1]] = b
    rows, c = extend_to_braid(decomp, first[ks_all], b_all)
    c_count = np.bincount(rows, minlength=start[-1])
    failure = _c_set_failure(decomp, first[ks_all], b_all, c, c_count, orders)
    if failure:
        raise VerificationError(failure)
    c_start = rows.searchsorted(start).tolist()        # rows are sorted: each stage's first c
    levels = [TowerLevel(j + 3, decomp, orbits, ks, b, c[c_start[j]:c_start[j + 1]], c_count[start[j]:start[j + 1]])
              for j, (ks, b) in enumerate(stages)]
    return TowerResult(group, decomp, levels)

