"""Randomised invariants across backends."""
from __future__ import annotations

import csv
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep.analysis import abelian_cycle_length
from braidrep.groups import SL2, AbelianProduct, SymmetricGroup, alternating_group, element_order
from braidrep.report import _text, paper_shift_lines, shift_to_csv
from braidrep.shift import decompose, predecessor, successor

GROUPS = [
    SymmetricGroup(3),
    SymmetricGroup(4),
    SL2(2),
    SL2(3),
    AbelianProduct((6,)),
    AbelianProduct((2, 4)),
    alternating_group(4),
]

moduli_st = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=2).map(tuple)


def draw_vertex(data, group):
    handle = st.integers(min_value=0, max_value=group.order - 1)
    return data.draw(handle), data.draw(handle)


@settings(max_examples=80)
@given(st.data())
def test_successor_predecessor_are_mutually_inverse(data):
    group = data.draw(st.sampled_from(GROUPS))
    v = draw_vertex(data, group)
    assert predecessor(group, successor(group, v)) == v
    assert successor(group, predecessor(group, v)) == v


@settings(max_examples=80)
@given(st.data())
def test_successor_walk_follows_recurrence(data):
    group = data.draw(st.sampled_from(GROUPS))
    v = draw_vertex(data, group)
    a0, a1 = v
    _, a2 = successor(group, v)
    assert a2 == group.mul(group.inv(a0), a1)


@settings(max_examples=40)
@given(moduli_st, st.data())
def test_abelian_sixth_iterate_is_identity(moduli, data):
    group = AbelianProduct(moduli)
    v = draw_vertex(data, group)
    w = v
    for _ in range(6):
        w = successor(group, w)
    assert w == v


@settings(max_examples=20, deadline=None)
@given(moduli_st)
def test_abelian_lengths_match_closed_form(moduli):
    group = AbelianProduct(moduli)
    d = decompose(group)
    assert set(d.period_census) <= {1, 2, 3, 6}
    for c in d.cycles:
        assert abelian_cycle_length(group, c.rep_vertex) == c.length


@settings(max_examples=80)
@given(st.data())
def test_element_order_divides_group_order(data):
    group = data.draw(st.sampled_from(GROUPS))
    a = data.draw(st.integers(min_value=0, max_value=group.order - 1))
    k = element_order(group, a)
    assert group.order % k == 0
    assert group.power(a, k) == group.identity


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([g for g in GROUPS if g.order <= 24]), st.data())
def test_bracket_word_is_a_rotation(group, data):
    d = decompose(group)
    i = data.draw(st.integers(min_value=0, max_value=d.lengths.size - 1))
    c = d.cycle(i)
    row = list(csv.reader(io.StringIO(_text(shift_to_csv, d))))[1 + i]
    word = [int(x) for x in row[5].split()]
    assert sorted(word) == sorted(x + 1 for x in c.a_seq)
    p = c.length
    k = 2 % p
    assert word == [x + 1 for x in c.a_seq[k:] + c.a_seq[:k]]
    # the paper stanza carries the same word and ends on its rep vertex
    i0, i1 = c.rep_vertex
    assert word[-2:] == [i0 + 1, i1 + 1][:p]
    assert _text(paper_shift_lines, d).split("\n")[4 * i] == f"B[{i0 + 1}, {i1 + 1}] = [{', '.join(map(str, word))}]"
