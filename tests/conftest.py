"""Shared fixtures: groups and towers computed once per session."""
from __future__ import annotations

import pathlib
import time
from collections import Counter

import numpy as np
import pytest

from braidrep.extension import compute_tower
from braidrep.groups import SL2, AbelianProduct, CayleyTableGroup, SymmetricGroup, alternating_group, parse_group_spec
from braidrep.shift import Cycle, successor

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def golden_text(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


def normalize_tokens(text: str) -> list[str]:
    """Whitespace-normalized token stream for golden-file comparison."""
    return text.split()


def relabelled(group, seed):
    """The group's Cayley table with its handles permuted at random."""
    perm = np.random.default_rng(seed).permutation(group.order)
    mul_t, _ = group.tables()
    table = np.empty_like(mul_t)
    table[np.ix_(perm, perm)] = perm[mul_t]
    return CayleyTableGroup(table, name=f"{group.name} relabelled by seed {seed}")


def s3_x_z6():
    """S3 x Z6 as a Cayley table; element (s, i) is s * 6 + i."""
    s3, z6 = SymmetricGroup(3).tables()[0], AbelianProduct((6,)).tables()[0]
    return CayleyTableGroup((s3[:, None, :, None] * 6 + z6[None, :, None, :]).reshape(36, 36), name="S3xZ6")


def per_vertex_walk(group):
    """Reference decomposition: one walk per unvisited vertex, seeded in lex
    order, so each cycle is numbered and read from its least vertex."""
    m = group.order
    cycle_of: dict = {}
    cycles = []
    for seed in ((a0, a1) for a0 in range(m) for a1 in range(m)):
        if seed in cycle_of:
            continue
        orbit, v = [], seed
        while v not in cycle_of:
            cycle_of[v] = len(cycles)
            orbit.append(v)
            v = successor(group, v)
        assert v == seed
        cycles.append(Cycle(tuple(a0 for a0, _ in orbit),
                            "I" if any(a0 == a1 for a0, a1 in orbit) else "II"))
    census = dict(sorted(Counter(c.length for c in cycles).items()))
    return cycles, census, [cycle_of[a0, a1] for a0 in range(m) for a1 in range(m)]


def make_cycle(decomp, i):
    """Cycle i of a decomposition as a Cycle, built from its arrays."""
    start = int(decomp.offsets[i])
    return Cycle(tuple(decomp.a_flat[start:start + int(decomp.lengths[i])].tolist()),
                 "I" if decomp.is_type_I[i] else "II")


def cycle_index(decomp, a0, a1):
    """The index of the cycle through each vertex (a0, a1), read from a new cycle map."""
    return decomp.cycle_map()[np.asarray(a0) * decomp.group.order + a1]


def level_rows(lvl):
    """Each class of a tower level as (Cycle, b tuple, c tuple), read from its arrays."""
    decomp = lvl.decomposition
    c = lvl.c.tolist()
    ends = np.cumsum(lvl.c_count).tolist()
    return [(make_cycle(decomp, i), tuple(b), tuple(c[start:end]))
            for i, b, start, end in zip(lvl.cycle_ids.tolist(), lvl.b.tolist(), [0, *ends], ends)]


@pytest.fixture(scope="session")
def s2():
    return SymmetricGroup(2)


@pytest.fixture(scope="session")
def s3():
    return SymmetricGroup(3)


@pytest.fixture(scope="session")
def s4():
    return SymmetricGroup(4)


@pytest.fixture(scope="session")
def s5():
    return SymmetricGroup(5)


@pytest.fixture(scope="session")
def s6():
    return SymmetricGroup(6)


@pytest.fixture(scope="session")
def z6():
    return parse_group_spec("Z6")


@pytest.fixture(scope="session")
def sl23():
    return SL2(3)


@pytest.fixture(scope="session")
def tower_s2(s2):
    return compute_tower(s2, 6)


@pytest.fixture(scope="session")
def tower_s3(s3):
    return compute_tower(s3, 6)


@pytest.fixture(scope="session")
def tower_s4(s4):
    return compute_tower(s4, 6)


@pytest.fixture(scope="session")
def tower_s5(s5):
    return compute_tower(s5, 6)


@pytest.fixture(scope="session")
def _s6_bundle(s6):
    t0 = time.monotonic()
    tower = compute_tower(s6, 7)
    return tower, time.monotonic() - t0


@pytest.fixture(scope="session")
def tower_s6(_s6_bundle):
    return _s6_bundle[0]


@pytest.fixture(scope="session")
def s6_tower_seconds(_s6_bundle):
    return _s6_bundle[1]


@pytest.fixture(scope="session")
def tower_z6(z6):
    return compute_tower(z6, 5)


@pytest.fixture(scope="session")
def tower_sl23(sl23):
    return compute_tower(sl23, 5)


@pytest.fixture(scope="session")
def tower_a5():
    return compute_tower(alternating_group(5), 6)
