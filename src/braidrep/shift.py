"""Successor dynamics on pairs of group elements and its cycle decomposition.

A pair (a0, a1) in G x G generates the two-sided sequence a_{m+2} = a_m^-1 a_{m+1};
the successor map (a0, a1) -> (a1, a0^-1 a1) is a bijection of G x G, so the
pair space splits into disjoint cycles.  A cycle of length p carries one
sequence (a_0, ..., a_{p-1}) read cyclically; the p phases of that sequence
are exactly the vertices on the cycle.

`decompose` returns the decomposition as flat arrays: every cycle's sequence
laid end to end (m^2 int32 handles) and each cycle's offset, length and type.
It walks int32 vertex codes, which cannot wrap since m^2 <= MAX_TABLE_ENTRIES
< 2^31, from a bounded batch of seeds at a time, so its peak is the successor
map, one mask and the result plus little more: 10-17 bytes a vertex on S6,
SL2(7) and SL2(11).  Every writer reads those arrays.  Nothing maps a vertex
to its cycle: the tower's orbit step works on conjugacy classes of vertices
instead (`extension._conjugation_orbits`), and no command builds a `Cycle`.
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

# decompose walks from at most this many seeds at a time
_DECOMPOSE_BATCH = 1 << 15


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
    the diagonal.  Cycles are numbered in lex order of their least vertex.
    `vertex_codes` reads the codes a0 * m + a1 of a range of cycles.
    `cycles`, the same data as Cycle objects built on first read,
    stays only for the benchmark harness, which counts the cycles with it;
    it goes when the harness reads `lengths` instead.
    """

    group: FiniteGroup
    a_flat: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    lengths: np.ndarray = field(repr=False)
    is_type_I: np.ndarray = field(repr=False)
    period_census: dict[int, int]

    def vertex_codes(self, lo: int, hi: int) -> np.ndarray:
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


def decompose(group: FiniteGroup) -> ShiftDecomposition:
    """Split G x G into successor cycles, numbered in lex order of their least vertex.

    Vertex (a0, a1) has the int32 code a0 * m + a1, so code order is lex
    order.  The successor map is one array of codes, built from whole table
    rows (`row_products`) and checked to be a bijection (every code is hit)
    before anything walks it, so every walk below runs on cycles and ends.
    The walks run in batches.  A batch's seeds are the _DECOMPOSE_BATCH least
    codes not yet on a found cycle; the bijection mask is reused to mark
    those.  Two walks over arrays find the cycles through the seeds:

    * A walk starts at every seed and is dropped as soon as it meets a
      smaller code (`_drop_walk`).  It closes, after one lap, exactly when its
      seed is the least vertex of its cycle, which gives each cycle's rep
      vertex and length.  A seed's cycle holds no found code, so its least
      vertex is a seed of the same batch: every batch finds whole cycles, and
      its least vertices lie above the previous batch's.
    * The batch's cycles then advance together from their rep vertices, one
      array step per position up to the longest cycle (`_lockstep_walk`).  A
      step writes the cycles' current vertex codes into one flat array, after
      those of the previous batches, and folds the cycle products with one
      `products` call; that is all it does.  The codes laid out are then
      marked found.

    Only the seeds walk, so the drop walk makes 1.2-1.6 m^2 successor look-ups
    on S6, SL2(11) and SL2(13); a group of order at most 181 has one batch.

    After the batches the flat array holds every cycle's vertex codes end to
    end.  It is divided by m in place, which leaves each code's a0: the
    a-sequences, `a_flat`.  Each cycle's stored sequence starts at its
    lexicographically least vertex.  A cycle is of type I when two
    neighbours of its sequence, read cyclically, are equal; the positions of
    such pairs are mapped to their cycles with one `searchsorted` over the
    offsets.  No map from vertices to cycles is built.
    Four facts are verified and raise VerificationError if broken, the last
    three after the walks and in this order: the successor map is a
    bijection, the cycle lengths partition |G|^2, there is exactly one fixed
    point, and the ordered product a_0 a_1 ... a_{p-1} around every cycle is
    the identity.
    """
    m = group.order
    # successor codes a1 * m + (a0^-1 a1): row a0 is a0^-1 times every a1
    succ = group.row_products(group.inverses(np.arange(m)))
    succ += np.arange(0, m * m, m, dtype=np.int32)
    succ = succ.ravel()
    hit = np.zeros(m * m, dtype=bool)
    hit[succ] = True
    if not hit.all():       # a map of a finite set to itself is one-to-one iff onto
        raise VerificationError("successor map is not a bijection of the vertex set")

    # from here on hit marks the codes not yet on a found cycle
    vflat = np.empty(m * m, dtype=np.int32)
    length_parts, bad = [], None
    lo = done = 0
    window = _DECOMPOSE_BATCH
    while done < m * m:
        # the batch's seeds: the least codes from lo on that are not on a found cycle
        seeds = np.flatnonzero(hit[lo:lo + window])
        while seeds.size < _DECOMPOSE_BATCH and lo + window < m * m:
            window *= 2
            seeds = np.flatnonzero(hit[lo:lo + window])
        if not seeds.size:      # only a map that left a seed's cycle open gets here
            break
        seeds = seeds[:_DECOMPOSE_BATCH].astype(np.int32) + lo
        lo = int(seeds[-1]) + 1
        reps, lengths = _drop_walk(succ, seeds)
        walk_bad = _lockstep_walk(group, succ, reps, lengths, vflat, done)
        if bad is None and walk_bad.size:       # reps rise from batch to batch
            bad = int(walk_bad.min())
        length_parts.append(lengths)
        count = int(lengths.sum())
        hit[vflat[done:done + count]] = False
        done += count
    del succ, hit

    lengths = np.concatenate(length_parts)
    n = lengths.size
    offsets = np.cumsum(lengths) - lengths
    census = np.bincount(lengths)
    # a true bijection partitions; this catches a code below 0, which the mask read from the end
    if int(census @ np.arange(census.size)) != m * m:
        raise VerificationError("cycle lengths do not partition the vertex set")
    if census[1] != 1:
        raise VerificationError("expected exactly one fixed point (the trivial cycle)")
    # a broken census is named before a broken product, whichever batch saw it
    if bad is not None:
        raise VerificationError(
            f"cycle product is not the identity on the cycle through {divmod(bad, m)}")

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


def _drop_walk(succ: np.ndarray, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The seeds that are the least vertex of their cycle, in code order, and
    their cycle lengths.  A walk starts at every seed and is dropped as soon as
    it meets a smaller code; it closes, after one lap, exactly when its seed is
    its cycle's least vertex."""
    # at step k, cur is the k-th successor of each seed still walking
    cur = succ.take(seeds)
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
    return reps[order], np.concatenate(length_parts)[order]


def _lockstep_walk(group: FiniteGroup, succ: np.ndarray, reps: np.ndarray, lengths: np.ndarray,
                   vflat: np.ndarray, start: int) -> np.ndarray:
    """Lay the vertex codes of the cycles from `reps` out in vflat from `start`,
    cycle after cycle, and return the reps whose cycle product is not the identity.

    All cycles advance together, longest first so the cycles still walking are
    a prefix; a step stores their vertex codes and folds the cycle products,
    nothing more."""
    m = group.order
    walking = reps.size - np.cumsum(np.bincount(lengths))[:-1]
    walk = np.argsort(-lengths, kind="stable")
    cur, pos = reps[walk], (start + np.cumsum(lengths) - lengths)[walk]
    prod = np.full(reps.size, group.identity, dtype=np.int32)
    for k, j in enumerate(walking.tolist()):
        v = cur[:j]
        vflat[pos[:j] + k] = v
        prod[:j] = group.products(prod[:j], v // m)
        cur[:j] = succ.take(v)
    return reps[walk[prod != group.identity]]


def order2_cycle_shape(group: FiniteGroup, a: int) -> int:
    """Length of the cycle through (identity, a): 1, 3 or 6 by the order of a."""
    group.check_element(a)
    if a == group.identity:
        return 1
    if group.mul(a, a) == group.identity:
        return 3
    return 6
