"""Successor dynamics on pairs of group elements and its cycle decomposition.

A pair (a0, a1) in G x G generates the two-sided sequence a_{m+2} = a_m^-1 a_{m+1};
the successor map (a0, a1) -> (a1, a0^-1 a1) is a bijection of G x G, so the
pair space splits into disjoint cycles.  A cycle of length p carries one
sequence (a_0, ..., a_{p-1}) read cyclically; the p phases of that sequence
are exactly the vertices on the cycle.

`decompose` returns the decomposition as flat arrays: every cycle's sequence
laid end to end (m^2 int32 handles) and each cycle's offset, length and type.
It walks int32 vertex codes, which cannot wrap since m^2 <= MAX_TABLE_ENTRIES
< 2^31.  Every writer reads those arrays.  The cycle through every vertex (m^2
int32 numbers) and `Cycle` objects are built from them on request, and no
command builds a `Cycle`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import VerificationError
from .groups import FiniteGroup

__all__ = [
    "Vertex",
    "successor",
    "Cycle",
    "ShiftDecomposition",
    "decompose",
    "order2_cycle_shape",
]

Vertex = tuple[int, int]


def successor(group: FiniteGroup, v: Vertex) -> Vertex:
    a0, a1 = v
    return (a1, group.mul(group.inv(a0), a1))


@dataclass(frozen=True)
class Cycle:
    """One successor cycle, stored as the first components along the orbit.

    a_seq starts at the canonical representative (the lexicographically least
    vertex on the cycle); vertex k of the cycle is (a_seq[k], a_seq[k+1 mod p]).
    Type I cycles contain a vertex with equal components, type II do not.
    """

    a_seq: tuple[int, ...]
    cycle_type: str

    @property
    def length(self) -> int:
        return len(self.a_seq)

    @property
    def rep_vertex(self) -> Vertex:
        return (self.a_seq[0], self.a_seq[1 % self.length])


@dataclass(eq=False)
class ShiftDecomposition:
    """The full cycle decomposition of G x G under the successor map, as arrays.

    Cycle i's sequence is a_flat[offsets[i]:offsets[i] + lengths[i]], read from
    its lexicographically least vertex; is_type_I[i] says whether it touches
    the diagonal.  Cycles are numbered in lex order of their least vertex, and
    _cycle_id, built on its first read (by `cycle_index`), holds the number of
    the cycle through every vertex code a0 * m + a1.  `cycles` is the same data
    as Cycle objects, built on first read; `cycle(i)`, `cycle_at`,
    `trivial_cycle` and `phase_of` build just one.
    """

    group: FiniteGroup
    a_flat: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    lengths: np.ndarray = field(repr=False)
    is_type_I: np.ndarray = field(repr=False)
    period_census: dict[int, int]

    def _vertex_codes(self, lo: int, hi: int) -> np.ndarray:
        """The vertex codes a_k * m + a_{k+1} of cycles lo..hi-1, each read
        cyclically, laid end to end as int32."""
        offsets, lengths = self.offsets[lo:hi], self.lengths[lo:hi]
        start = int(offsets[0])
        a = self.a_flat[start:int(offsets[-1] + lengths[-1])]
        first = offsets - start
        last = first + lengths - 1
        codes = a * self.group.order
        codes[:-1] += a[1:]
        codes[last] = a[last] * self.group.order + a[first]     # a cycle's last vertex wraps to its first a
        return codes

    @cached_property
    def _cycle_id(self) -> np.ndarray:
        """The number of the cycle through every vertex code, int32, scattered
        once over the codes of every cycle."""
        m, n = self.group.order, self.lengths.size
        cycle_id = np.empty(m * m, dtype=np.int32)
        cycle_id[self._vertex_codes(0, n)] = np.repeat(np.arange(n, dtype=np.int32), self.lengths)
        return cycle_id

    @cached_property
    def cycles(self) -> list[Cycle]:
        # one shared int object per element, so the sequences hold m ints, not m^2
        handles = np.array(range(self.group.order), dtype=object)
        seq = tuple(handles[self.a_flat].tolist())
        return [Cycle(seq[i:i + p], "I" if t else "II")
                for i, p, t in zip(self.offsets.tolist(), self.lengths.tolist(), self.is_type_I.tolist())]

    def rep_vertices(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The least vertex (a0, a1) of each cycle in `ids`, as two arrays."""
        first = self.offsets[ids]
        return self.a_flat[first], self.a_flat[first + 1 % self.lengths[ids]]

    def cycle(self, i: int) -> Cycle:
        """Cycle i, built from the arrays."""
        start = int(self.offsets[i])
        a_seq = tuple(self.a_flat[start:start + int(self.lengths[i])].tolist())
        return Cycle(a_seq, "I" if self.is_type_I[i] else "II")

    @property
    def trivial_cycle(self) -> Cycle:
        e = self.group.identity
        return self.cycle_at((e, e))

    def cycle_at(self, v: Vertex) -> Cycle:
        a0 = self.group.check_element(v[0])
        a1 = self.group.check_element(v[1])
        return self.cycle(int(self.cycle_index(a0, a1)))

    def cycle_index(self, a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
        """Index into `cycles` of the cycle through each vertex (a0[k], a1[k])."""
        return self._cycle_id[a0 * self.group.order + a1]

    def phase_of(self, v: Vertex) -> tuple[Cycle, int]:
        """The cycle through v and the k at which its vertex (a_k, a_{k+1}),
        read cyclically, is v."""
        cycle = self.cycle_at(v)
        i = int(self.cycle_index(v[0], v[1]))
        codes = self._vertex_codes(i, i + 1)
        return cycle, int(np.flatnonzero(codes == v[0] * self.group.order + v[1])[0])


def decompose(group: FiniteGroup) -> ShiftDecomposition:
    """Split G x G into successor cycles, numbered in lex order of their least vertex.

    Vertex (a0, a1) has the int32 code a0 * m + a1, so code order is lex
    order.  The successor map is one array of codes, built with one gather
    and checked to be a bijection (every code is hit) before anything
    walks it, so every walk below runs on cycles and ends.  Two walks over
    arrays do the rest:

    * A walk starts at every vertex and is dropped as soon as it meets a
      smaller code.  It closes, after one lap, exactly when its seed is the
      least vertex of its cycle, which gives each cycle's rep vertex and
      length.  With the build of the map this is 2.2-3.8 m^2 successor
      look-ups on the groups from S3 to SL2(11).
    * All cycles then advance together from their rep vertices, one array
      step per position up to the longest cycle.  A step writes the cycles'
      current vertex codes into one flat array and folds the cycle products
      through the flattened multiplication table; that is all it does.

    After the walk the flat array holds every cycle's vertex codes end to end.
    It is divided by m in place, which leaves each code's a0: the
    a-sequences, `a_flat`.  Each cycle's stored sequence starts at its
    lexicographically least vertex.  A cycle is of type I when two
    neighbours of its sequence, read cyclically, are equal; the positions of
    such pairs are mapped to their cycles with one `searchsorted` over the
    offsets.  The cycle through every vertex is not built here but on first
    use (`ShiftDecomposition._cycle_id`), so `shift` never pays for it.
    Four facts are verified and raise VerificationError if broken: the
    successor map is a bijection, the cycle lengths partition |G|^2, there
    is exactly one fixed point, and the ordered product a_0 a_1 ... a_{p-1}
    around every cycle is the identity.
    """
    m = group.order
    mul_t, inv_t = group.tables()
    # successor codes a1 * m + (a0^-1 a1): row a0 of mul_t[inv_t] is a0^-1 times every a1
    succ = mul_t[inv_t]
    succ += np.arange(0, m * m, m, dtype=np.int32)
    succ = succ.ravel()
    hit = np.zeros(m * m, dtype=bool)
    hit[succ] = True
    if not hit.all():       # a map of a finite set to itself is one-to-one iff onto
        raise VerificationError("successor map is not a bijection of the vertex set")
    del hit

    # drop-when-smaller walk: at step k, cur is the k-th successor of each seed
    seeds = np.arange(m * m, dtype=np.int32)
    cur = succ
    rep_parts, length_parts = [], []
    k = 1
    while seeds.size:
        closed = seeds.compress(cur == seeds)
        rep_parts.append(closed)
        length_parts.append(np.full(closed.size, k, dtype=np.int64))
        keep = cur > seeds
        seeds, cur = seeds.compress(keep), succ.take(cur.compress(keep))
        k += 1
    reps = np.concatenate(rep_parts)
    order = np.argsort(reps, kind="stable")
    reps, lengths = reps[order], np.concatenate(length_parts)[order]
    census = np.bincount(lengths)
    # a true bijection partitions; this catches a code below 0, which the mask read from the end
    if int(census @ np.arange(census.size)) != m * m:
        raise VerificationError("cycle lengths do not partition the vertex set")
    if census[1] != 1:
        raise VerificationError("expected exactly one fixed point (the trivial cycle)")

    # lockstep walk, longest cycles first so the cycles still walking are a prefix;
    # a step stores the vertex codes and folds the cycle products, nothing more
    n = reps.size
    offsets = np.cumsum(lengths) - lengths
    walking = n - np.cumsum(census)[:-1]
    walk = np.argsort(-lengths, kind="stable")
    cur, pos = reps[walk], offsets[walk]
    prod = np.full(n, group.identity, dtype=np.int32)
    products = mul_t.ravel()                    # products[x * m + y] = x y
    vflat = np.empty(m * m, dtype=np.int32)
    for k, j in enumerate(walking.tolist()):
        v = cur[:j]
        vflat[pos[:j] + k] = v
        prod[:j] = products.take(prod[:j] * m + v // m)
        cur[:j] = succ.take(v)
    del succ
    bad = reps[walk[prod != group.identity]]
    if bad.size:
        raise VerificationError(
            f"cycle product is not the identity on the cycle through {divmod(int(bad.min()), m)}")

    # the codes are laid out cycle by cycle, so cycle i owns a_flat[offsets[i]:][:lengths[i]]
    a_flat = np.floor_divide(vflat, m, out=vflat)

    # type I cycles are those through a diagonal vertex (a_k, a_{k+1}) with a_k = a_{k+1}
    diagonal = np.empty(m * m, dtype=bool)
    np.equal(a_flat[:-1], a_flat[1:], out=diagonal[:-1])
    last = offsets + lengths - 1
    diagonal[last] = a_flat[last] == a_flat[offsets]      # a cycle's last vertex wraps to its first a
    is_type_I = np.zeros(n, dtype=bool)
    is_type_I[np.searchsorted(offsets, np.flatnonzero(diagonal), side="right") - 1] = True
    period_census = {p: c for p, c in enumerate(census.tolist()) if c}
    return ShiftDecomposition(group, a_flat, offsets, lengths, is_type_I, period_census)


def order2_cycle_shape(group: FiniteGroup, a: int) -> int:
    """Length of the cycle through (identity, a): 1, 3 or 6 by the order of a."""
    group.check_element(a)
    if a == group.identity:
        return 1
    if group.mul(a, a) == group.identity:
        return 3
    return 6
