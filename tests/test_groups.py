"""Group backends: handles, multiplication convention, ranking, derived series."""
from __future__ import annotations

import hashlib
import importlib.util
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidrep
from braidrep.errors import ResourceLimitError, UsageError, VerificationError
from braidrep.extension import element_orders
from braidrep.groups import (
    SL2,
    AbelianProduct,
    CayleyTableGroup,
    SymmetricGroup,
    alternating_group,
    derived_series,
    lex_rank,
    lex_unrank,
    load_cayley_table,
    parse_group_spec,
    perfect_core_group,
)
import braidrep.groups as groups
from braidrep.groups import FiniteGroup, _field_tables, _lex_tables
from conftest import relabelled, s3_x_z6

BACKENDS = [
    SymmetricGroup(3),
    SymmetricGroup(4),
    SymmetricGroup(5),
    SL2(2),
    SL2(3),
    SL2(4),
    SL2(5),
    SL2(7),
    SL2(8),
    SL2(9),
    AbelianProduct((6,)),
    AbelianProduct((2, 4)),
    AbelianProduct((2, 2, 2, 5)),
    alternating_group(4),
    alternating_group(5),
]


# ---------------------------------------------------------------------------
# axioms and the composition convention
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group", BACKENDS, ids=lambda g: g.name)
def test_identity_and_inverses(group):
    e = group.identity
    for a in group.elements():
        assert group.mul(e, a) == a
        assert group.mul(a, e) == a
        assert group.mul(a, group.inv(a)) == e
        assert group.mul(group.inv(a), a) == e


def _definition(group):
    """(element objects by handle, their product, the identity object), computed
    from what each backend's elements are rather than from its tables."""
    if isinstance(group, SL2):
        add, mul, _ = (t.tolist() for t in _field_tables(group.q))

        def matmul(x, y):
            (a1, b1, c1, d1), (a2, b2, c2, d2) = x, y
            return (add[mul[a1][a2]][mul[b1][c2]], add[mul[a1][b2]][mul[b1][d2]],
                    add[mul[c1][a2]][mul[d1][c2]], add[mul[c1][b2]][mul[d1][d2]])
        return [tuple(row) for row in group.mats.tolist()], matmul, (1, 0, 0, 1)

    def compose(p, q):                   # apply q first, then p
        return tuple(p[x - 1] for x in q)

    if isinstance(group, SymmetricGroup):
        return [group.image(a) for a in group.elements()], compose, tuple(range(1, group.r + 1))
    if isinstance(group, AbelianProduct):
        def add(x, y):
            return tuple((u + v) % k for u, v, k in zip(x, y, group.moduli))
        return [group.digits(a) for a in group.elements()], add, (0,) * len(group.moduli)
    # alternating_group(r): the even permutations of S_r, in lex order
    r = int(group.name[1:])
    S = SymmetricGroup(r)
    evens = [S.image(g) for g in S.elements() if S.parity(g) == 0]
    return evens, compose, tuple(range(1, r + 1))


@pytest.mark.parametrize("group", BACKENDS, ids=lambda g: g.name)
def test_tables_match_scalar_mul(group):
    elems, product, one = _definition(group)
    handle = {x: k for k, x in enumerate(elems)}
    assert len(handle) == group.order
    mul_t, inv_t = group.tables()
    expected = [[handle[product(x, y)] for y in elems] for x in elems]
    assert np.array_equal(mul_t, np.array(expected))
    assert elems[group.identity] == one
    assert all(mul_t[a, inv_t[a]] == group.identity for a in group.elements())


@pytest.mark.parametrize("group", BACKENDS, ids=lambda g: g.name)
def test_array_products_match_the_tables(group):
    mul_t, inv_t = group.tables()
    x, y = np.random.default_rng(group.order).integers(group.order, size=(2, 7))
    # 0-d, 1-d and broadcast 2-d handle arrays
    for a, b in [(np.asarray(x[0]), np.asarray(y[0])), (x, y), (x[:, None], y[None, :5])]:
        product = group.products(a, b)
        assert product.shape == np.broadcast_shapes(a.shape, b.shape)
        assert np.array_equal(product, mul_t[a, b])
        assert np.array_equal(group.inverses(a), inv_t[a])
        rows, cols = group.row_products(a), group.column_products(b)
        assert rows.shape == a.shape + (group.order,) and cols.shape == b.shape + (group.order,)
        assert np.array_equal(rows, mul_t[a[..., None], np.arange(group.order)])
        assert np.array_equal(cols, mul_t[np.arange(group.order), b[..., None]])
    assert group.products(x[0], y[0]) == group.mul(int(x[0]), int(y[0]))


def test_no_module_but_groups_reads_the_tables():
    # every other module multiplies through the array product methods
    src = pathlib.Path(braidrep.__file__).parent
    table_access = re.compile(r"\.tables\(\)|_mul_table|_inv_table")
    readers = [path.name for path in sorted(src.glob("*.py"))
               if path.name != "groups.py" and table_access.search(path.read_text())]
    assert readers == []


# sha256 of mul_t.tobytes() and inv_t.tobytes(), and the identity, as the
# whole-table searchsorted builders made them
PINNED_TABLES = {
    "S6": ("9a5043d70bf02b9fa8f2fbf31246b273b5d4a3703fc625cf8cf6b94536a8b9c6",
           "1a360fd8f8c25dc167603af6aafa77d723136ff5dff851597917d86d85cc9a5f", 0),
    "SL2(11)": ("6c2f6b19fc77b67bcd292f4687ef8b53ecc22ebb936d3f87dbad23f9113925d5",
                "54e7fb57ced05055832c6819ae21c7eaaa47670e14405a9dccbd453130c16ea0", 110),
    "SL2(13)": ("65a9f3410d3e84053e05b5b35a042fc9ff917663df22eaef789918cd4877281f",
                "9e80c0e322dee2dd36bb744197efd9be71fede1fc5cfa789d7df7904ad5e0c4d", 156),
}


@pytest.mark.parametrize("spec", PINNED_TABLES)
def test_pinned_tables(spec):
    group = parse_group_spec(spec)
    mul_t, inv_t = group.tables()
    assert (hashlib.sha256(mul_t.tobytes()).hexdigest(), hashlib.sha256(inv_t.tobytes()).hexdigest(),
            group.identity) == PINNED_TABLES[spec]


def test_lex_tables_refuses_a_product_that_is_no_element():
    P = np.array(SymmetricGroup(3).perms) - 1
    rows = P[:-1]                        # S3 without (3 2 1): not closed
    with pytest.raises(VerificationError):
        _lex_tables(rows, 3, lambda X: [X[:, col] for col in rows.T], np.argsort(rows, axis=1))


@pytest.mark.parametrize("block_rows", [1, 2])
def test_lex_tables_walk_refuses_a_generator_row_that_is_no_element(monkeypatch, block_rows):
    # only the first block_rows rows are computed as a block; the rest come from generators
    monkeypatch.setattr(groups, "_TABLE_BLOCK_CELLS", block_rows * 5)
    P = np.array(SymmetricGroup(3).perms) - 1
    rows = P[:-1]                        # S3 without (3 2 1): not closed
    with pytest.raises(VerificationError, match="no element"):
        _lex_tables(rows, 3, lambda X: [X[:, col] for col in rows.T], np.argsort(rows, axis=1))


def test_lex_tables_refuses_rows_with_one_key():
    P = np.array(SymmetricGroup(3).perms) - 1
    rows = np.concatenate([P, P[:1]])        # the identity row twice
    with pytest.raises(VerificationError, match="same key"):
        _lex_tables(rows, 3, lambda X: [X[:, col] for col in rows.T], np.argsort(rows, axis=1))


def test_element_orders_stop_at_the_group_order():
    # element 1 squares to itself, so no power of it is the identity
    broken = FiniteGroup()
    broken.name, broken.order, broken.identity = "broken", 2, 0
    broken._set_tables(np.array([[0, 1], [1, 1]], dtype=np.int32), np.array([0, 1], dtype=np.int32))
    with pytest.raises(VerificationError, match="no power up to 2"):
        element_orders(broken)


def _reference_lex_tables(digits, radix, row_product, inverse_digits):
    """The former builder: one int64 key per row, the table filled row by row,
    row_product(row) the (m x k) digits of row times every element."""
    m, k = digits.shape
    weights = radix ** np.arange(k - 1, -1, -1, dtype=np.int64)
    handle = np.full(radix ** k, -1, dtype=np.int32)
    handle[digits @ weights] = np.arange(m, dtype=np.int32)
    table = np.empty((m, m), dtype=np.int32)
    for a in range(m):
        table[a] = handle[row_product(digits[a]) @ weights]
    inv = handle[inverse_digits @ weights]
    if table.min() < 0 or inv.min() < 0:
        raise VerificationError("a product or inverse of enumerated elements is no element")
    return table, inv


def _reference_tables(group):
    if isinstance(group, SymmetricGroup):
        P = np.array(group.perms, dtype=np.int64) - 1
        return _reference_lex_tables(P, group.r, lambda x: x[P], np.argsort(P, axis=1))
    add, mul, neg = _field_tables(group.q)
    a, b, c, d = group.mats.T

    def row_product(row):           # the matrix product row * (a, b; c, d), entry by entry
        a1, b1, c1, d1 = row
        return np.stack([add[mul[a1, a], mul[b1, c]], add[mul[a1, b], mul[b1, d]],
                         add[mul[c1, a], mul[d1, c]], add[mul[c1, b], mul[d1, d]]], axis=1)
    return _reference_lex_tables(group.mats, group.q, row_product, np.stack([d, neg[b], neg[c], a], axis=1))


@pytest.mark.parametrize("rows", [None, 1, 3], ids=["default-block", "one-row", "three-rows"])
@pytest.mark.parametrize("spec", ["S1", "S2", "S3", "S4", "S5", "S6",
                                  "SL2(2)", "SL2(3)", "SL2(4)", "SL2(5)", "SL2(8)", "SL2(9)", "SL2(11)"])
def test_block_table_build_matches_the_row_by_row_builder(monkeypatch, spec, rows):
    group = parse_group_spec(spec)
    if rows is not None:
        monkeypatch.setattr(groups, "_TABLE_BLOCK_CELLS", rows * group.order)
    mul_t, inv_t = group._build_tables()
    ref_mul, ref_inv = _reference_tables(group)
    assert mul_t.dtype == inv_t.dtype == np.int32
    assert np.array_equal(mul_t, ref_mul) and np.array_equal(inv_t, ref_inv)


def _peak_rss_growth_mb(statement: str) -> float:
    """How far `statement` raises the peak resident set of a fresh interpreter
    that has already imported braidrep.groups.  The child reads its own VmHWM:
    Linux folds the starting process's peak into a child's ru_maxrss."""
    script = ("import re\nfrom braidrep.groups import *\n"
              "def peak():\n"
              "    return int(re.search(r'VmHWM:\\s*(\\d+)', open('/proc/self/status').read()).group(1))\n"
              f"before = peak()\n{statement}\nprint(peak() - before)")
    src = str(pathlib.Path(braidrep.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024     # kB


def test_symmetric_group_build_allocates_no_cube():
    # S6's table is 2 MB; a whole-table gather P[:, P] and its keys take ~50 MB
    assert _peak_rss_growth_mb("SymmetricGroup(6)") < 16


def test_composition_applies_right_factor_first():
    # In S3 (lex handles 0..5): handle 1 is (2 3), handle 2 is (1 2); doing
    # (1 2) first and then (2 3) sends 1 -> 2 -> 3, i.e. gives (1 2 3), which
    # is the lex-rank-5 permutation (3, 1, 2) at handle 4.
    S = SymmetricGroup(3)
    assert S.image(1) == (1, 3, 2)
    assert S.image(2) == (2, 1, 3)
    assert S.mul(1, 2) == 4
    assert S.image(4) == (3, 1, 2)

    # Same check in S4 with 1-based lex ranks: rank2 * rank7 = rank8.
    T = SymmetricGroup(4)
    assert T.mul(1, 6) == 7


def test_power_and_conjugation_relabel_points():
    S = SymmetricGroup(4)
    g = S.index_of((2, 3, 4, 1))  # 4-cycle
    assert S.power(g, 4) == S.identity
    assert S.power(g, -1) == S.inv(g)
    t = S.index_of((2, 1, 3, 4))
    # conjugating the transposition (1 2) by the 4-cycle g = (1 2 3 4)
    # relabels its moved points: g (1 2) g^-1 = (2 3)
    assert S.image(S.mul(S.mul(g, t), S.inv(g))) == (1, 3, 2, 4)


@pytest.mark.parametrize("group", [*BACKENDS, CayleyTableGroup(BACKENDS[0].tables()[0], name="S3 table")],
                         ids=lambda g: g.name)
def test_label_checks_its_handle(group):
    # elements have no labels any more; every backend still checks a handle
    assert group.check_element(group.order - 1) == group.order - 1
    for bad in (-1, group.order, 2.0):
        with pytest.raises(UsageError):
            group.check_element(bad)


def test_check_element_range():
    S = SymmetricGroup(3)
    assert S.check_element(5) == 5
    with pytest.raises(UsageError):
        S.check_element(6)
    with pytest.raises(UsageError):
        S.check_element(-1)
    with pytest.raises(UsageError):
        S.check_element("2")


# ---------------------------------------------------------------------------
# lexicographic ranking of permutations
# ---------------------------------------------------------------------------

def test_lex_rank_small_cases():
    assert lex_rank((1, 2, 3)) == 1
    assert lex_rank((1, 3, 2)) == 2
    assert lex_rank((3, 2, 1)) == 6
    assert lex_unrank(1, 4) == (1, 2, 3, 4)
    # the three double transpositions of S4 sit at ranks 8, 17, 24
    assert lex_unrank(8, 4) == (2, 1, 4, 3)
    assert lex_unrank(17, 4) == (3, 4, 1, 2)
    assert lex_unrank(24, 4) == (4, 3, 2, 1)


def test_lex_rank_matches_symmetric_group_handles():
    for r in (1, 2, 3, 4):
        S = SymmetricGroup(r)
        for a in S.elements():
            assert lex_rank(S.image(a)) == a + 1
            assert lex_unrank(a + 1, r) == S.image(a)


def test_lex_rank_rejects_bad_input():
    with pytest.raises(UsageError):
        lex_rank((1, 1, 2))
    with pytest.raises(UsageError):
        lex_unrank(0, 3)
    with pytest.raises(UsageError):
        lex_unrank(7, 3)


@given(st.integers(min_value=1, max_value=6), st.data())
def test_lex_rank_unrank_roundtrip(r, data):
    rank = data.draw(st.integers(min_value=1, max_value=math.factorial(r)))
    assert lex_rank(lex_unrank(rank, r)) == rank


# ---------------------------------------------------------------------------
# symmetric-group specifics
# ---------------------------------------------------------------------------

def test_parity_values_and_additivity():
    S = SymmetricGroup(4)
    assert S.parity(S.identity) == 0
    assert S.parity(S.index_of((2, 1, 3, 4))) == 1
    assert S.parity(S.index_of((2, 3, 1, 4))) == 0
    for a in range(0, 24, 5):
        for b in range(0, 24, 7):
            assert S.parity(S.mul(a, b)) == S.parity(a) ^ S.parity(b)


def test_index_of_rejects_non_permutation():
    S = SymmetricGroup(3)
    with pytest.raises(UsageError):
        S.index_of((1, 1, 2))
    with pytest.raises(UsageError):
        S.index_of((2, 1))              # a permutation of another degree


def test_degree_must_be_positive():
    with pytest.raises(UsageError):
        SymmetricGroup(0)


# ---------------------------------------------------------------------------
# SL(2, q)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_sl2_order(q):
    assert SL2(q).order == q ** 3 - q


@pytest.mark.parametrize("q", [1, 6, 10, 16])
def test_sl2_unsupported_field_size(q):
    with pytest.raises(UsageError):
        SL2(q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_field_tables_form_a_field(q):
    add, mul, neg = _field_tables(q)
    x = np.arange(q)
    for op in (add, mul):                # commutative and associative
        assert np.array_equal(op, op.T)
        assert np.array_equal(op[op], op[x[:, None, None], op[None]])
    assert np.array_equal(add[0], x) and np.array_equal(add[x, neg], np.zeros(q))
    assert np.array_equal(mul[0], np.zeros(q))
    nonzero = mul[1:, 1:]
    assert np.array_equal(mul[1], x)
    assert (np.sort(nonzero, axis=0) == x[1:, None]).all() and (np.sort(nonzero, axis=1) == x[1:]).all()
    # a (b + c) = a b + a c
    assert np.array_equal(mul[x[:, None, None], add[None]], add[mul[:, :, None], mul[:, None, :]])


def test_sl2_inverse_closed_form():
    G = SL2(5)
    for a in range(0, G.order, 11):
        assert G.mul(a, G.inv(a)) == G.identity


# ---------------------------------------------------------------------------
# abelian products
# ---------------------------------------------------------------------------

def test_abelian_product_orders():
    Z6 = AbelianProduct((6,))
    assert Z6.order == 6 and Z6.is_abelian()
    assert element_orders(Z6).tolist() == [1, 6, 3, 2, 3, 6]
    Z24 = AbelianProduct((2, 4))
    assert Z24.order == 8 and Z24.is_abelian()
    assert Z24.name == "Z2xZ4"
    assert element_orders(Z24).max() == 4


def test_abelian_product_mixed_radix_handles():
    G = AbelianProduct((2, 4))
    assert G.digits(0) == (0, 0)
    assert G.digits(5) == (1, 1)
    assert G.digits(G.mul(5, 7)) == ((1 + 1) % 2, (1 + 3) % 4)
    # more factors than numpy's 64 array dimensions; the Z1 factors are digit 0
    H = AbelianProduct((1,) * 70 + (3,))
    assert H.order == 3 and H.mul(2, 2) == 1 and H.inv(1) == 2


def test_abelian_product_rejects_bad_moduli():
    with pytest.raises(UsageError):
        AbelianProduct(())
    with pytest.raises(UsageError):
        AbelianProduct((0, 3))


# ---------------------------------------------------------------------------
# explicit Cayley tables
# ---------------------------------------------------------------------------

def test_cayley_table_reproduces_source_group():
    S = SymmetricGroup(3)
    mul_t, _ = S.tables()
    G = CayleyTableGroup(mul_t.tolist(), name="copyS3")
    assert G.order == 6 and G.identity == S.identity
    for a in G.elements():
        for b in G.elements():
            assert G.mul(a, b) == S.mul(a, b)


def test_cayley_table_with_shifted_identity():
    # relabel Z3 so the identity lands at handle 2
    sigma = [2, 0, 1]  # old handle -> new handle
    inv_sigma = [1, 2, 0]
    Z3 = AbelianProduct((3,))
    table = [[sigma[Z3.mul(inv_sigma[a], inv_sigma[b])] for b in range(3)] for a in range(3)]
    G = CayleyTableGroup(table)
    assert G.identity == 2
    assert G.mul(0, 0) == 1


def test_cayley_table_rejects_malformed_input():
    with pytest.raises(UsageError):
        CayleyTableGroup([[0, 1], [1]])  # ragged
    with pytest.raises(UsageError):
        CayleyTableGroup([[0, 1], [1, 2]])  # entry out of range
    with pytest.raises(UsageError):
        CayleyTableGroup([[0, 1], [1, 1]])  # repeated entry in a row
    with pytest.raises(UsageError):
        CayleyTableGroup([])


@pytest.mark.parametrize("entry", [2 ** 32, -2 ** 32])
def test_cayley_table_refuses_entries_an_int32_cast_would_wrap(entry):
    # 2**32 wraps to 0 in int32, which would make this the table of Z2
    with pytest.raises(UsageError, match="element indices"):
        CayleyTableGroup(np.array([[0, 1], [1, entry]]))
    with pytest.raises(UsageError):
        CayleyTableGroup([[0, 1], [1, entry]])


@pytest.mark.parametrize("cells", [None, 1, 3], ids=["default-block", "one-row", "three-rows"])
@pytest.mark.parametrize("k", [0, 1, 4, 10, 11])
def test_cayley_table_names_the_first_bad_row_or_column(monkeypatch, cells, k):
    m = 12
    if cells is not None:
        monkeypatch.setattr(groups, "_TABLE_BLOCK_CELLS", cells * m)
    x = np.arange(m)
    z12 = (x[:, None] + x[None, :]) % m
    # a changed entry (i, j) breaks row i and column j: the first bad index is min(i, j)
    for i, j in [(k, m - 1), (m - 1, k), (k, k)]:
        table = z12.copy()
        table[i, j] = table[i, (j + 1) % m]
        with pytest.raises(UsageError, match=f"^Cayley table row/column {k} is not a permutation$"):
            CayleyTableGroup(table)


@pytest.mark.parametrize("cells", [None, 1, 3], ids=["default-block", "one-row", "three-rows"])
def test_cayley_table_reads_identity_and_inverses_in_blocks(monkeypatch, cells):
    group = relabelled(s3_x_z6(), 2)
    mul_t, inv_t = group.tables()
    if cells is not None:
        monkeypatch.setattr(groups, "_TABLE_BLOCK_CELLS", cells * group.order)
    again = CayleyTableGroup(mul_t)
    assert again.identity == group.identity
    assert np.array_equal(again.tables()[1], inv_t)
    assert all(mul_t[a, inv_t[a]] == mul_t[inv_t[a], a] == group.identity for a in range(group.order))


def test_cayley_table_rejects_missing_identity():
    # subtraction mod 5 is a latin square with only a one-sided identity
    table = [[(a - b) % 5 for b in range(5)] for a in range(5)]
    with pytest.raises(UsageError, match="identity"):
        CayleyTableGroup(table)


def test_cayley_table_rejects_nonassociative_loop():
    # smallest nonassociative loop: latin, two-sided identity, but
    # (1*1)*2 = 2 while 1*(1*2) = 4
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(UsageError, match="associative"):
        CayleyTableGroup(table)


def test_cayley_table_rejects_large_nonassociative_latin_square():
    # Z1000 with one intercalate swapped (rows 1/501, columns 2/502): still a
    # Latin square with a two-sided identity, but not associative
    x = np.arange(1000)
    table = (x[:, None] + x[None, :]) % 1000
    table[np.ix_([1, 501], [2, 502])] = table[np.ix_([1, 501], [502, 2])]
    with pytest.raises(UsageError, match="associative"):
        CayleyTableGroup(table)


def _first_nonassociative(arr, identity):
    """The message of Light's test as whole m x m arrays gave it."""
    m = len(arr)
    for g in groups._greedy_generators(arr, identity, np.ones(m, dtype=bool), np.zeros(m, dtype=bool)):
        bad = np.argwhere(arr[arr[:, g]] != arr[:, arr[g]])
        if bad.size:
            return f"table is not associative at ({bad[0][0]}, {g}, {bad[0][1]})"
    return None


@pytest.mark.parametrize("cells", [None, 1, 7], ids=["default-block", "one-row", "seven-rows"])
@pytest.mark.parametrize("i, k", [(1, 2), (3, 7), (149, 151), (299, 1), (10, 299), (280, 290)])
def test_light_test_in_row_blocks_names_the_first_bad_triple(monkeypatch, cells, i, k):
    # Z300 with the intercalate of rows i, i + 150 and columns k, k + 150 (mod
    # 300) swapped: a Latin square with a two-sided identity, not associative
    x = np.arange(300)
    table = (x[:, None] + x[None, :]) % 300
    rows, cols = [i, (i + 150) % 300], [k, (k + 150) % 300]
    table[np.ix_(rows, cols)] = table[np.ix_(rows, cols[::-1])]
    expected = _first_nonassociative(table, 0)
    assert expected is not None
    if cells is not None:
        monkeypatch.setattr(groups, "_TABLE_BLOCK_CELLS", cells * 300)
    with pytest.raises(UsageError, match=f"^{re.escape(expected)}$"):
        CayleyTableGroup(table)


def _benchmark_table():
    """The seed-1 relabelled S3 x Z6 table that the verify-small benchmark loads."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)    # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return CayleyTableGroup(workloads.relabelled(workloads.s3_x_z6_table(), 1))


# the generators a walk along the generators alone picks, one round per step
@pytest.mark.parametrize("make, expected", [
    (lambda: parse_group_spec("S4"), [1, 2, 6]),
    (lambda: parse_group_spec("S6"), [1, 2, 6, 24, 120]),
    (lambda: parse_group_spec("SL2(11)"), [0, 1]),
    (lambda: parse_group_spec("Z2xZ4xZ5"), [1, 5, 20]),
    (lambda: parse_group_spec("Z300"), [1]),
    (_benchmark_table, [0, 1]),
], ids=["S4", "S6", "SL2(11)", "Z2xZ4xZ5", "Z300", "S3xZ6-benchmark-seed-1"])
def test_generators_are_pinned(make, expected):
    assert make().generators() == expected


def _set_closure(group, candidates):
    """The identity's closure under right multiplication by `candidates`, as a set."""
    reached, frontier = {group.identity}, [group.identity]
    while frontier:
        frontier = [y for y in {group.mul(x, s) for x in frontier for s in candidates} if y not in reached]
        reached.update(frontier)
    return reached


@pytest.mark.parametrize("make", [lambda: SymmetricGroup(4), lambda: SL2(3), lambda: SL2(5)],
                         ids=["S4", "SL2(3)", "SL2(5)"])
def test_closure_matches_a_set_based_closure(make):
    group = make()
    for term in derived_series(group):
        elems = sorted(term)
        commutators = {group.mul(group.mul(group.inv(x), group.inv(y)), group.mul(x, y)) for x in elems for y in elems}
        for candidates in (elems, sorted(commutators)):
            mask = np.zeros(group.order, dtype=bool)
            mask[candidates] = True
            gens, reached = groups._closure(group, mask)
            assert set(gens) <= set(candidates)
            assert set(np.flatnonzero(reached).tolist()) == _set_closure(group, candidates)


class _CountingTable(np.ndarray):
    """A table that counts the gathers of rows named by an index array."""

    gathers = 0

    def __getitem__(self, key):
        if isinstance(key, np.ndarray) or (isinstance(key, tuple) and key and isinstance(key[0], np.ndarray)):
            type(self).gathers += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("m", [300, 1000])
def test_closure_of_a_cyclic_group_takes_logarithmic_rounds(monkeypatch, m):
    # each round is one gather of the frontier's rows; a walk along the
    # generator alone would take one round per element
    group = AbelianProduct((m,))
    monkeypatch.setattr(_CountingTable, "gathers", 0)
    reached = np.zeros(m, dtype=bool)
    gens = list(groups._greedy_generators(group.tables()[0].view(_CountingTable), group.identity,
                                          np.ones(m, dtype=bool), reached))
    assert gens == [1] and reached.all()
    assert 0 < _CountingTable.gathers <= 2 * math.ceil(math.log2(m)) + 2


def test_load_cayley_table_roundtrip(tmp_path):
    Z4 = AbelianProduct((4,))
    mul_t, _ = Z4.tables()
    path = tmp_path / "z4.txt"
    lines = ["4"] + [" ".join(str(int(x)) for x in row) for row in mul_t]
    path.write_text("\n".join(lines) + "\n")
    G = load_cayley_table(str(path))
    assert G.order == 4
    assert all(G.mul(a, b) == Z4.mul(a, b) for a in range(4) for b in range(4))
    via_spec = parse_group_spec(f"table:{path}")
    assert via_spec.order == 4


def test_load_cayley_table_errors(tmp_path):
    with pytest.raises(UsageError):
        load_cayley_table(str(tmp_path / "missing.txt"))
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 1 1\n")
    with pytest.raises(UsageError):
        load_cayley_table(str(bad))
    notint = tmp_path / "notint.txt"
    notint.write_text("2\n0 x 1 0\n")
    with pytest.raises(UsageError):
        load_cayley_table(str(notint))
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(UsageError):
        load_cayley_table(str(empty))
    huge_entry = tmp_path / "huge_entry.txt"
    huge_entry.write_text("2\n0 1 1 99999999999\n")
    with pytest.raises(UsageError):
        load_cayley_table(str(huge_entry))
    # the declared order is refused before the entries are counted or converted
    over_cap = tmp_path / "over_cap.txt"
    over_cap.write_text(f"{math.isqrt(groups.MAX_TABLE_ENTRIES) + 1}\n0 1\n")
    with pytest.raises(ResourceLimitError):
        load_cayley_table(str(over_cap))


def test_load_cayley_table_holds_no_token_objects(tmp_path):
    # a 3.9 MB table of Z1000; as Python lists its entries took ~107 MB
    x = np.arange(1000)
    path = tmp_path / "z1000.txt"
    path.write_text("1000\n" + "\n".join(" ".join(map(str, row)) for row in ((x[:, None] + x) % 1000).tolist()))
    assert _peak_rss_growth_mb(f"load_cayley_table({str(path)!r})") < 60


def test_load_cayley_table_parses_tokens_as_int_does(tmp_path):
    path = tmp_path / "z2.txt"
    path.write_text("2\n+0 0_1\n01 -0\n")
    G = load_cayley_table(str(path))
    assert G.tables()[0].tolist() == [[0, 1], [1, 0]]
    for token in ("0x1", "1.0", "1e3", "1\0", "4294967296"):    # 2**32 would wrap to 0 as int32
        path.write_text(f"2\n0 1\n1 {token}\n")
        with pytest.raises(UsageError):
            load_cayley_table(str(path))


def test_alternating_group_construction():
    A4 = alternating_group(4)
    assert A4.order == 12 and A4.name == "A4"
    # closed under multiplication by construction; spot-check an order-3 element
    assert (element_orders(A4) == 3).sum() == 8


# ---------------------------------------------------------------------------
# element statistics and the derived series
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r,count", [(2, 1), (3, 3), (4, 9)])
def test_involution_count_symmetric(r, count):
    assert (element_orders(SymmetricGroup(r)) == 2).sum() == count


@pytest.mark.parametrize("group", BACKENDS, ids=lambda g: g.name)
def test_element_order_divides_group_order(group):
    assert (group.order % element_orders(group) == 0).all()


def test_derived_series_sizes():
    terms = derived_series(SymmetricGroup(4))
    assert [len(t) for t in terms] == [24, 12, 4, 1]

    terms5 = derived_series(SymmetricGroup(5))
    assert [len(t) for t in terms5] == [120, 60]
    assert len(terms5[-1]) > 1         # not solvable

    assert [len(t) for t in derived_series(SL2(3))] == [24, 8, 2, 1]
    assert derived_series(AbelianProduct((6,)))[-1] == frozenset({0})


def test_derived_series_perfect_group():
    A5 = alternating_group(5)
    terms = derived_series(A5)
    assert terms == (frozenset(A5.elements()),)
    core, embed = perfect_core_group(A5)
    assert core.order == 60
    assert embed.tolist() == list(A5.elements())


def test_perfect_core_of_s5_is_a5():
    S5 = SymmetricGroup(5)
    core, embed = perfect_core_group(S5)
    assert core.order == 60
    assert embed.tolist() == [g for g in S5.elements() if S5.parity(g) == 0]
    A5 = alternating_group(5)
    mul_core, _ = core.tables()
    mul_a5, _ = A5.tables()
    assert np.array_equal(mul_core, mul_a5)


def _reference_derived_series(group):
    """The former derived series: every |H|^2 commutator, then products of the
    whole current set with itself until it stops growing."""
    mul_t, inv_t = group.tables()

    def closure(handles):
        current = np.unique(np.append(handles, group.identity))
        while True:
            products = np.unique(mul_t[np.ix_(current, current)])
            if products.size == current.size:
                return frozenset(current.tolist())
            current = products

    terms = [frozenset(group.elements())]
    while True:
        E = np.array(sorted(terms[-1]))
        nxt = closure(mul_t[mul_t[inv_t[E][:, None], inv_t[E][None, :]], mul_t[E[:, None], E[None, :]]])
        if nxt == terms[-1]:
            return tuple(terms)
        terms.append(nxt)


@pytest.mark.parametrize("make", [
    *[lambda r=r: SymmetricGroup(r) for r in range(1, 7)],
    lambda: alternating_group(5),
    *[lambda q=q: SL2(q) for q in (3, 5, 7, 11)],
    lambda: AbelianProduct((6,)),
    lambda: AbelianProduct((2, 4, 5)),
    lambda: relabelled(s3_x_z6(), 1),
], ids=["S1", "S2", "S3", "S4", "S5", "S6", "A5", "SL2(3)", "SL2(5)", "SL2(7)", "SL2(11)", "Z6", "Z2xZ4xZ5",
        "S3xZ6-relabelled-1"])
def test_derived_series_matches_the_all_pairs_closure(make):
    group = make()
    assert derived_series(group) == _reference_derived_series(group)


def test_derived_series_allocates_no_square_array():
    # one int32 m x m array of SL2(13) is 4 * 2184^2 bytes = 18.2 MB; all
    # commutators of the group would take three of them
    group = SL2(13)
    tracemalloc.start()
    try:
        derived_series(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * group.order ** 2


# ---------------------------------------------------------------------------
# specification strings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "spec,name,order",
    [
        ("S4", "S4", 24),
        ("s3", "S3", 6),
        ("SL2(3)", "SL2(3)", 24),
        ("sl2(2)", "SL2(2)", 6),
        ("Z6", "Z6", 6),
        ("Z2xZ4", "Z2xZ4", 8),
        ("z2Xz2", "Z2xZ2", 4),
    ],
)
def test_parse_group_spec(spec, name, order):
    g = parse_group_spec(spec)
    assert g.name == name
    assert g.order == order


@pytest.mark.parametrize("spec", ["", "S", "Q8", "Zx", "SL3(2)", "Z2x", "S4b"])
def test_parse_group_spec_rejects(spec):
    with pytest.raises(UsageError):
        parse_group_spec(spec)


@settings(max_examples=60)
@given(st.data())
def test_associativity_sampled(data):
    group = data.draw(st.sampled_from(BACKENDS))
    a = data.draw(st.integers(min_value=0, max_value=group.order - 1))
    b = data.draw(st.integers(min_value=0, max_value=group.order - 1))
    c = data.draw(st.integers(min_value=0, max_value=group.order - 1))
    assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
    assert group.inv(group.mul(a, b)) == group.mul(group.inv(b), group.inv(a))
