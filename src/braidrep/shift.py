"""Successor dynamics on pairs of group elements and its cycle decomposition.

A pair (a0, a1) in G x G generates the two-sided sequence a_{m+2} = a_m^-1 a_{m+1};
the successor map (a0, a1) -> (a1, a0^-1 a1) is a bijection of G x G, so the
pair space splits into disjoint cycles.  A cycle of length p carries one
sequence (a_0, ..., a_{p-1}) read cyclically; the p phases of that sequence
are exactly the vertices on the cycle.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError, VerificationError
from .groups import FiniteGroup

__all__ = [
    "Vertex",
    "successor",
    "predecessor",
    "Cycle",
    "ShiftDecomposition",
    "decompose",
    "order2_cycle_shape",
    "Representation",
    "shift",
]

Vertex = tuple[int, int]


def successor(group: FiniteGroup, v: Vertex) -> Vertex:
    a0, a1 = v
    return (a1, group.mul(group.inv(a0), a1))


def predecessor(group: FiniteGroup, v: Vertex) -> Vertex:
    a0, a1 = v
    return (group.mul(a0, group.inv(a1)), a0)


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

    def vertex(self, k: int) -> Vertex:
        p = self.length
        return (self.a_seq[k % p], self.a_seq[(k + 1) % p])

    def vertices(self) -> list[Vertex]:
        return [self.vertex(k) for k in range(self.length)]


@dataclass(eq=False)
class ShiftDecomposition:
    """The full cycle decomposition of G x G under the successor map."""

    group: FiniteGroup
    cycles: list[Cycle]
    period_census: dict[int, int]
    _cycle_id: np.ndarray = field(repr=False)
    _phase: np.ndarray = field(repr=False)

    @property
    def rep_count(self) -> int:
        return self.group.order ** 2

    @property
    def trivial_cycle(self) -> Cycle:
        e = self.group.identity
        return self.cycle_at((e, e))

    def type_II(self) -> list[Cycle]:
        return [c for c in self.cycles if c.cycle_type == "II"]

    def type_I(self) -> list[Cycle]:
        return [c for c in self.cycles if c.cycle_type == "I"]

    def cycle_at(self, v: Vertex) -> Cycle:
        return self.phase_of(v)[0]

    def cycle_index(self, a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
        """Index into `cycles` of the cycle through each vertex (a0[k], a1[k])."""
        return self._cycle_id[a0 * self.group.order + a1]

    def phase_of(self, v: Vertex) -> tuple[Cycle, int]:
        a0 = self.group.check_element(v[0])
        a1 = self.group.check_element(v[1])
        code = a0 * self.group.order + a1
        return self.cycles[int(self._cycle_id[code])], int(self._phase[code])


def decompose(group: FiniteGroup) -> ShiftDecomposition:
    """Split G x G into successor cycles, seeded in lex order of (a0, a1).

    Seeding in lex order makes each cycle's stored sequence start at its
    lexicographically least vertex.  Two structural facts are verified on the
    way and raise VerificationError if broken: the ordered product
    a_0 a_1 ... a_{p-1} around any cycle is the identity, and the cycle
    lengths partition |G|^2.
    """
    m = group.order
    mul_t, inv_t = group.tables()
    codes = np.arange(m * m, dtype=np.int64)
    a0s, a1s = codes // m, codes % m
    succ = (a1s * m + mul_t[inv_t[a0s], a1s]).tolist()

    cycle_id = np.full(m * m, -1, dtype=np.int32)
    phase = np.zeros(m * m, dtype=np.int32)
    cycles: list[Cycle] = []
    identity = group.identity
    for seed in range(m * m):
        if cycle_id[seed] >= 0:
            continue
        cid = len(cycles)
        orbit = []
        v = seed
        while cycle_id[v] < 0:
            cycle_id[v] = cid
            phase[v] = len(orbit)
            orbit.append(v)
            v = succ[v]
        if v != seed:
            raise VerificationError("successor walk re-entered a cycle away from its seed")
        a_seq = tuple(code // m for code in orbit)
        is_type_I = any(code // m == code % m for code in orbit)
        prod = identity
        for a in a_seq:
            prod = int(mul_t[prod, a])
        if prod != identity:
            raise VerificationError(
                f"cycle product is not the identity on the cycle through {divmod(seed, m)}")
        cycles.append(Cycle(a_seq, "I" if is_type_I else "II"))

    census = Counter(c.length for c in cycles)
    if sum(p * n for p, n in census.items()) != m * m:
        raise VerificationError("cycle lengths do not partition the vertex set")
    if census.get(1, 0) != 1:
        raise VerificationError("expected exactly one fixed point (the trivial cycle)")
    return ShiftDecomposition(group, cycles, dict(sorted(census.items())), cycle_id, phase)


def order2_cycle_shape(group: FiniteGroup, a: int) -> int:
    """Length of the cycle through (identity, a): 1, 3 or 6 by the order of a."""
    group.check_element(a)
    if a == group.identity:
        return 1
    if group.mul(a, a) == group.identity:
        return 3
    return 6


@dataclass(frozen=True)
class Representation:
    """A point of a successor cycle, optionally extended by images b_3..b_{n-1}.

    Phase k of a cycle of length p is the representation with a_m =
    a_seq[(k + m) mod p]; the tuple b holds the extra generator images, so n =
    3 + len(b) is the number of braid strands the representation belongs to.
    A tower class is the phase-0 representation of its cycle and images; it
    stands for all p phases, which share every admissible extension.
    """

    group: FiniteGroup
    cycle: Cycle
    phase: int = 0
    b: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return 3 + len(self.b)

    @property
    def period(self) -> int:
        return self.cycle.length

    def a(self, m: int) -> int:
        return self.cycle.a_seq[(self.phase + m) % self.cycle.length]

    def vertex(self) -> Vertex:
        return (self.a(0), self.a(1))

    def is_trivial(self) -> bool:
        e = self.group.identity
        return self.cycle.length == 1 and self.cycle.a_seq[0] == e and all(x == e for x in self.b)

    def generators(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.cycle.a_seq) | set(self.b)))

    def parent(self) -> "Representation":
        """The same point one stage down (the last image dropped)."""
        if not self.b:
            raise UsageError("a stage-3 representation has no parent")
        return Representation(self.group, self.cycle, self.phase, self.b[:-1])


def shift(rep: Representation) -> Representation:
    """Advance the phase: the shifted representation sends z_m to the old a_{m+1}."""
    return Representation(rep.group, rep.cycle, (rep.phase + 1) % rep.period, rep.b)
