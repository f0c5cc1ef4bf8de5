"""Rendering: bracket stanzas, golden blocks, JSON/CSV/DOT serialisations."""
from __future__ import annotations

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from braidrep.errors import UsageError
from braidrep.extension import compute_tower
from braidrep.groups import SL2, CayleyTableGroup, SymmetricGroup, parse_group_spec
from braidrep.report import (
    _CHUNK,
    SHIFT_SCHEMA,
    TOWER_SCHEMA,
    _text,
    decomposition_to_dot,
    paper_shift_lines,
    paper_tower_lines,
    shift_from_json,
    shift_to_csv,
    shift_to_json,
    stage4_b3_block,
    tower_from_json,
    tower_to_csv,
    tower_to_json,
)
from braidrep.shift import decompose
from braidrep.verify import SUITE_NAMES, run_suites

from conftest import (cycle_index, cycle_map, expanding_to, golden_text, level_rows, make_cycle, normalize_tokens,
                      per_vertex_walk, relabelled)


# ---------------------------------------------------------------------------
# bracket notation and golden blocks
# ---------------------------------------------------------------------------

def test_bracket_word_examples(s3):
    d = decompose(s3)
    rows = list(csv.reader(io.StringIO(_text(shift_to_csv, d))))[1:]
    words = [[int(x) for x in row[5].split()] for row in rows]
    assert words[int(cycle_index(d, s3.identity, s3.identity))] == [1]
    assert words[int(cycle_index(d, 3, 4))] == [4, 5]
    word = words[int(cycle_index(d, 1, 2))]
    assert len(word) == 9
    # display indices are 1-based: the word ends on the representative pair
    assert word[-2:] == [2, 3]


def test_cycle_stanza_shape(s3):
    d = decompose(s3)
    lines = _text(paper_shift_lines, d).splitlines()
    # one three-line stanza per cycle, in cycle order, a blank line between two
    assert len(lines) == 4 * d.lengths.size - 1
    assert set(lines[3::4]) == {""}
    stanzas = [lines[k:k + 3] for k in range(0, len(lines), 4)]
    assert stanzas[int(cycle_index(d, 3, 4))] == ["B[4, 5] = [4, 5]", "", "2"]


def test_type_ii_block_matches_golden_s3(s3):
    ours = _text(paper_shift_lines, decompose(s3), type2_only=True)
    assert normalize_tokens(ours) == normalize_tokens(golden_text("n3_r3.txt"))


def test_type_ii_block_matches_golden_s4(s4):
    ours = _text(paper_shift_lines, decompose(s4), type2_only=True)
    assert normalize_tokens(ours) == normalize_tokens(golden_text("n3_r4.txt"))


def test_stage4_block_matches_golden_s4(tower_s4):
    ours = "\n".join(stage4_b3_block(tower_s4))
    assert normalize_tokens(ours) == normalize_tokens(golden_text("n4_r4.txt"))


def test_stage4_block_equals_the_class_listing(document_tower):
    e = document_tower.group.identity
    by_b3 = {}
    for cycle, b, _ in level_rows(document_tower.level(4)):
        if b[0] != e:
            by_b3.setdefault(b[0], []).append(cycle.rep_vertex)
    assert stage4_b3_block(document_tower) == [
        f"[{b3 + 1}, " + ", ".join(f"[{i + 1}, {j + 1}]" for i, j in sorted(by_b3[b3])) + "]" for b3 in sorted(by_b3)]


def test_tower_lines_contain_counts(tower_s4):
    lines = _text(paper_tower_lines, tower_s4).splitlines()
    assert "K3: classes=88 reps=576" in lines
    assert "K4: classes=118 reps=672" in lines
    assert "K5: classes=1 reps=1" in lines
    assert "B6: classes=24 reps=24" in lines


# ---------------------------------------------------------------------------
# the JSON documents, against a reference built as dicts
# ---------------------------------------------------------------------------

def _shift_reference(decomp):
    return {
        "schema": SHIFT_SCHEMA,
        "group": decomp.group.name,
        "order": decomp.group.order,
        "indexing": "0-based",
        "period_census": {str(p): n for p, n in decomp.period_census.items()},
        "cycles": [{"a_seq": list(c.a_seq), "type": c.cycle_type} for c in decomp.cycles],
    }


def _tower_reference(tower):
    levels = []
    for lvl in tower.levels:
        classes = [{"a_seq": list(cycle.a_seq), "type": cycle.cycle_type, "b": list(b), "c_set": list(cs)}
                   for cycle, b, cs in level_rows(lvl)]
        levels.append({"n": lvl.n, "class_count": lvl.class_count, "rep_count": lvl.rep_count,
                       "classes": classes, "braid_class_count": lvl.braid_class_count,
                       "braid_rep_count": lvl.braid_rep_count})
    return {
        "schema": TOWER_SCHEMA,
        "group": tower.group.name,
        "order": tower.group.order,
        "indexing": "0-based",
        "n_max": tower.n_max,
        "levels": levels,
    }


def _rendered(write, obj) -> str:
    out = io.StringIO()
    write(obj, out)
    return out.getvalue()


def _doc(write, obj) -> dict:
    return json.loads(_rendered(write, obj))


def _odd_name_group():
    """Z3 under a name that JSON must escape."""
    table = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    return CayleyTableGroup(table, name='Z3 "odd" \\ caf\u00e9 \u2028')


# (label, fixture holding a stage-6 tower or None, group factory)
_DOCUMENT_GROUPS = [
    ("S1", None, lambda: SymmetricGroup(1)),
    ("S2", "tower_s2", None),
    ("S3", "tower_s3", None),
    ("S4", "tower_s4", None),
    ("S5", "tower_s5", None),
    ("SL2(3)", None, lambda: SL2(3)),
    ("SL2(5)", None, lambda: SL2(5)),
    ("Z1", None, lambda: parse_group_spec("Z1")),
    ("Z2xZ4xZ5", None, lambda: parse_group_spec("Z2xZ4xZ5")),
    *((f"S4-seed{seed}", None, lambda seed=seed: relabelled(SymmetricGroup(4), seed)) for seed in (1, 2, 3)),
    ("odd-name", None, _odd_name_group),
]


@pytest.fixture(scope="module", params=_DOCUMENT_GROUPS, ids=[label for label, *_ in _DOCUMENT_GROUPS])
def document_tower(request):
    _, fixture, make = request.param
    return request.getfixturevalue(fixture) if fixture else compute_tower(make(), 6)


def test_shift_document_is_json_dumps_of_the_reference(document_tower):
    d = document_tower.decomposition
    assert _rendered(shift_to_json, d) == json.dumps(_shift_reference(d), indent=2) + "\n"


def test_tower_document_is_json_dumps_of_the_reference(document_tower):
    assert _rendered(tower_to_json, document_tower) == json.dumps(_tower_reference(document_tower), indent=2) + "\n"


def test_stored_counts_equal_the_sums_over_the_views(document_tower):
    for lvl in document_tower.levels:
        rows = level_rows(lvl)
        assert lvl.class_count == len(rows) == lvl.expand()[3].size
        assert lvl.rep_count == sum(cycle.length for cycle, _, _ in rows)
        assert lvl.braid_class_count == sum(len(cs) for _, _, cs in rows)
        assert lvl.braid_rep_count == sum(cycle.length * len(cs) for cycle, _, cs in rows)


def test_cycle_views_equal_the_per_vertex_walk(document_tower):
    d = document_tower.decomposition
    m = d.group.order
    cycles, _, _ = per_vertex_walk(d.group)
    assert d.cycles == cycles
    assert [make_cycle(d, i) for i in range(d.lengths.size)] == cycles
    assert d.is_type_I.tolist() == [c.cycle_type == "I" for c in cycles]
    assert d.a_flat.dtype == np.int32 and d.a_flat.size == m * m
    assert (d.offsets == np.cumsum(d.lengths) - d.lengths).all()
    assert d.lengths.sum() == m * m


@pytest.mark.parametrize("handle", [-1, 6])
def test_a_handle_outside_the_group_raises(s3, handle):
    d = decompose(s3)
    a_flat = d.a_flat.copy()
    a_flat[-1] = handle
    bad = dataclasses.replace(d, a_flat=a_flat)
    with pytest.raises(KeyError):
        shift_to_json(bad, io.StringIO())


@pytest.mark.parametrize("field", ["b", "c"])
@pytest.mark.parametrize("handle", [-1, 6])
def test_a_tower_handle_outside_the_group_raises(tower_s3, field, handle):
    arrays = dict(zip(["cycle_ids", "b", "c", "c_count"], tower_s3.level(4).expand()))
    assert arrays[field].size
    arrays[field].flat[-1] = handle
    with pytest.raises(KeyError):
        tower_to_json(expanding_to(tower_s3, 4, tuple(arrays.values())), io.StringIO())


class _Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_documents_stream_in_chunks(tower_s5):
    for write, obj, reference in [(shift_to_json, decompose(SL2(7)), _shift_reference),
                                  (tower_to_json, tower_s5, _tower_reference)]:
        expected = json.dumps(reference(obj), indent=2) + "\n"
        assert len(expected) > 8 * _CHUNK
        out = _Recorder()
        write(obj, out)
        assert len(out.writes) > 1
        assert max(map(len, out.writes)) < 2 * _CHUNK
        assert "".join(out.writes) == expected


LISTINGS = [(paper_shift_lines, {}), (paper_shift_lines, {"type2_only": True}), (shift_to_csv, {}),
            (decomposition_to_dot, {}), (paper_tower_lines, {}), (paper_tower_lines, {"count_only": True}),
            (tower_to_csv, {})]


@pytest.mark.parametrize("write, options", LISTINGS, ids=[" ".join([w.__name__, *o]) for w, o in LISTINGS])
def test_listings_stream_in_chunks(tower_s5, write, options):
    obj = tower_s5 if write in (paper_tower_lines, tower_to_csv) else tower_s5.decomposition
    out = _Recorder()
    write(obj, out, **options)
    # writes of one to two chunks, then the remainder
    assert max(map(len, out.writes)) <= 2 * _CHUNK
    assert len(out.writes[-1]) < _CHUNK
    assert "".join(out.writes) == _text(write, obj, **options)


# ---------------------------------------------------------------------------
# loading documents back
# ---------------------------------------------------------------------------

def test_shift_json_roundtrip(s3):
    d = decompose(s3)
    doc = _doc(shift_to_json, d)
    assert doc["schema"] == SHIFT_SCHEMA
    assert doc["indexing"] == "0-based"
    restored = shift_from_json(doc)
    assert _rendered(shift_to_json, restored) == _rendered(shift_to_json, d)
    # every vertex lies on the same cycle, at the same phase
    assert cycle_map(d).tolist() == cycle_map(restored).tolist()
    n = d.lengths.size
    assert d.vertex_codes(0, n).tolist() == restored.vertex_codes(0, n).tolist()


def test_shift_json_rejects_bad_documents(s3):
    doc = _doc(shift_to_json, decompose(s3))
    with pytest.raises(UsageError):
        shift_from_json({**doc, "schema": "something.else"})
    with pytest.raises(UsageError):
        shift_from_json({**doc, "order": 7})
    with pytest.raises(UsageError):
        shift_from_json({**doc, "cycles": doc["cycles"][:-1]})


def _with_cycle(doc, k, a_seq):
    cycles = [dict(c) for c in doc["cycles"]]
    cycles[k]["a_seq"] = a_seq
    return {**doc, "cycles": cycles}


def test_shift_json_rejects_an_extra_overlapping_cycle(s3):
    doc = _doc(shift_to_json, decompose(s3))
    with pytest.raises(UsageError):
        shift_from_json({**doc, "cycles": doc["cycles"] + [doc["cycles"][1]]})


def test_shift_json_rejects_a_false_census(s3):
    doc = _doc(shift_to_json, decompose(s3))
    census = {**doc["period_census"], "1": 2}
    with pytest.raises(UsageError):
        shift_from_json({**doc, "period_census": census})


def test_shift_json_rejects_a_reversed_sequence(s3):
    doc = _doc(shift_to_json, decompose(s3))
    assert doc["cycles"][3]["a_seq"] == [0, 3, 3, 0, 4, 4]
    with pytest.raises(UsageError):
        shift_from_json(_with_cycle(doc, 3, [4, 4, 0, 3, 3, 0]))


def test_shift_json_rejects_an_out_of_range_handle(s3):
    doc = _doc(shift_to_json, decompose(s3))
    with pytest.raises(UsageError):
        shift_from_json(_with_cycle(doc, 1, [0, 1, 99]))


def test_tower_json_roundtrip(tower_s3):
    doc = _doc(tower_to_json, tower_s3)
    assert doc["schema"] == TOWER_SCHEMA
    restored = tower_from_json(doc)
    assert _rendered(tower_to_json, restored) == _rendered(tower_to_json, tower_s3)
    for n in (3, 4, 5):
        assert restored.level(n).rep_count == tower_s3.level(n).rep_count
        assert restored.level(n).braid_rep_count == tower_s3.level(n).braid_rep_count


def test_tower_json_rejects_wrong_schema(tower_s3):
    doc = _doc(tower_to_json, tower_s3)
    with pytest.raises(UsageError):
        tower_from_json({**doc, "schema": SHIFT_SCHEMA})


def _with_level(doc, n, **fields):
    levels = [dict(item) for item in doc["levels"]]
    levels[n - 3].update(fields)
    return {**doc, "levels": levels}


def test_tower_json_rejects_an_inadmissible_image(tower_s3):
    doc = _doc(tower_to_json, tower_s3)
    classes = [dict(c) for c in doc["levels"][1]["classes"]]
    classes[0]["b"] = [99]
    with pytest.raises(UsageError):
        tower_from_json(_with_level(doc, 4, classes=classes))


def test_tower_json_rejects_a_wrong_class_count(tower_s3):
    doc = _doc(tower_to_json, tower_s3)
    with pytest.raises(UsageError):
        tower_from_json(_with_level(doc, 4, class_count=doc["levels"][1]["class_count"] + 1))


def test_loaded_tower_runs_the_verify_suites(s3, tower_s3):
    restored = tower_from_json(_doc(tower_to_json, tower_s3))
    results = run_suites(restored)
    assert [res.name for res in results][:len(SUITE_NAMES)] == SUITE_NAMES
    assert all(res.ok for res in results)


# ---------------------------------------------------------------------------
# CSV and DOT
# ---------------------------------------------------------------------------

def test_shift_csv_shape(s3):
    d = decompose(s3)
    rows = list(csv.reader(io.StringIO(_text(shift_to_csv, d))))
    assert rows[0] == ["cycle", "a0", "a1", "length", "type", "word"]
    assert len(rows) == 1 + len(d.cycles)
    lengths = sorted(int(r[3]) for r in rows[1:])
    assert lengths == sorted(c.length for c in d.cycles)


def test_tower_csv_shape(tower_s2):
    rows = list(csv.reader(io.StringIO(_text(tower_to_csv, tower_s2))))
    assert rows[0][0] == "n"
    assert len(rows) == 1 + sum(lvl.class_count for lvl in tower_s2.levels)
    # braid data present: c_count column is an integer
    assert all(r[6].isdigit() for r in rows[1:])


def test_dot_output(s3):
    d = decompose(s3)
    dot = _text(decomposition_to_dot, d)
    assert dot.startswith("digraph shift {")
    assert dot.rstrip().endswith("}")
    assert dot.count("->") == 36
    assert "lightblue" in dot and "khaki" in dot
    assert '[label="(1,1)"' in dot
