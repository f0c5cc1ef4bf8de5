"""Rendering: bracket stanzas, golden blocks, JSON/CSV/DOT serialisations."""
from __future__ import annotations

import csv
import io
import json

import pytest

from braidrep.errors import UsageError
from braidrep.extension import compute_tower
from braidrep.report import (
    SHIFT_SCHEMA,
    TOWER_SCHEMA,
    bracket_word,
    cycle_stanza,
    decomposition_to_dot,
    normalize_tokens,
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

from conftest import golden_text


# ---------------------------------------------------------------------------
# bracket notation and golden blocks
# ---------------------------------------------------------------------------

def test_bracket_word_examples(s3):
    d = decompose(s3)
    assert bracket_word(d.trivial_cycle) == [1]
    assert bracket_word(d.cycle_at((3, 4))) == [4, 5]
    word = bracket_word(d.cycle_at((1, 2)))
    assert len(word) == 9
    # display indices are 1-based: the word ends on the representative pair
    assert word[-2:] == [2, 3]


def test_cycle_stanza_shape(s3):
    d = decompose(s3)
    stanza = cycle_stanza(d.cycle_at((3, 4)))
    assert stanza == ["B[4, 5] = [4, 5]", "", "2"]


def test_type_ii_block_matches_golden_s3(s3):
    ours = "\n".join(paper_shift_lines(decompose(s3), type2_only=True))
    assert normalize_tokens(ours) == normalize_tokens(golden_text("n3_r3.txt"))


def test_type_ii_block_matches_golden_s4(s4):
    ours = "\n".join(paper_shift_lines(decompose(s4), type2_only=True))
    assert normalize_tokens(ours) == normalize_tokens(golden_text("n3_r4.txt"))


def test_stage4_block_matches_golden_s4(tower_s4):
    ours = "\n".join(stage4_b3_block(tower_s4))
    assert normalize_tokens(ours) == normalize_tokens(golden_text("n4_r4.txt"))


def test_tower_lines_contain_counts(tower_s4):
    lines = paper_tower_lines(tower_s4)
    assert "K3: classes=88 reps=576" in lines
    assert "K4: classes=118 reps=672" in lines
    assert "K5: classes=1 reps=1" in lines
    assert "B6: classes=24 reps=24" in lines


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------

def test_shift_json_roundtrip(s3):
    d = decompose(s3)
    doc = shift_to_json(d)
    assert doc["schema"] == SHIFT_SCHEMA
    assert doc["indexing"] == "0-based"
    restored = shift_from_json(json.loads(json.dumps(doc)))
    assert shift_to_json(restored) == doc
    for v0 in s3.elements():
        for v1 in s3.elements():
            c1, k1 = d.phase_of((v0, v1))
            c2, k2 = restored.phase_of((v0, v1))
            assert (c1.a_seq, k1) == (c2.a_seq, k2)


def test_shift_json_rejects_bad_documents(s3):
    doc = shift_to_json(decompose(s3))
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
    doc = shift_to_json(decompose(s3))
    with pytest.raises(UsageError):
        shift_from_json({**doc, "cycles": doc["cycles"] + [doc["cycles"][1]]})


def test_shift_json_rejects_a_false_census(s3):
    doc = shift_to_json(decompose(s3))
    census = {**doc["period_census"], "1": 2}
    with pytest.raises(UsageError):
        shift_from_json({**doc, "period_census": census})


def test_shift_json_rejects_a_reversed_sequence(s3):
    doc = shift_to_json(decompose(s3))
    assert doc["cycles"][3]["a_seq"] == [0, 3, 3, 0, 4, 4]
    with pytest.raises(UsageError):
        shift_from_json(_with_cycle(doc, 3, [4, 4, 0, 3, 3, 0]))


def test_shift_json_rejects_an_out_of_range_handle(s3):
    doc = shift_to_json(decompose(s3))
    with pytest.raises(UsageError):
        shift_from_json(_with_cycle(doc, 1, [0, 1, 99]))


def test_tower_json_roundtrip(tower_s3):
    doc = tower_to_json(tower_s3)
    assert doc["schema"] == TOWER_SCHEMA
    restored = tower_from_json(json.loads(json.dumps(doc)))
    assert tower_to_json(restored) == doc
    for n in (3, 4, 5):
        assert restored.level(n).rep_count == tower_s3.level(n).rep_count
        assert restored.level(n).braid_rep_count == tower_s3.level(n).braid_rep_count


def test_tower_json_without_braid(s3):
    t = compute_tower(s3, 4, with_braid=False)
    doc = tower_to_json(t)
    assert all("c_set" not in cls for lvl in doc["levels"] for cls in lvl["classes"])
    assert all("braid_rep_count" not in lvl for lvl in doc["levels"])
    restored = tower_from_json(doc)
    with pytest.raises(UsageError):
        restored.level(3).braid_rep_count


def test_tower_json_rejects_wrong_schema(tower_s3):
    doc = tower_to_json(tower_s3)
    with pytest.raises(UsageError):
        tower_from_json({**doc, "schema": SHIFT_SCHEMA})


def _with_level(doc, n, **fields):
    levels = [dict(item) for item in doc["levels"]]
    levels[n - 3].update(fields)
    return {**doc, "levels": levels}


def test_tower_json_rejects_an_inadmissible_image(tower_s3):
    doc = tower_to_json(tower_s3)
    classes = [dict(c) for c in doc["levels"][1]["classes"]]
    classes[0]["b"] = [99]
    with pytest.raises(UsageError):
        tower_from_json(_with_level(doc, 4, classes=classes))


def test_tower_json_rejects_a_wrong_class_count(tower_s3):
    doc = tower_to_json(tower_s3)
    with pytest.raises(UsageError):
        tower_from_json(_with_level(doc, 4, class_count=doc["levels"][1]["class_count"] + 1))


def test_loaded_tower_runs_the_verify_suites(s3, tower_s3):
    restored = tower_from_json(json.loads(json.dumps(tower_to_json(tower_s3))))
    results = run_suites(restored.group, restored.n_max, tower=restored)
    assert [res.name for res in results][:len(SUITE_NAMES)] == SUITE_NAMES
    assert all(res.ok for res in results)


# ---------------------------------------------------------------------------
# CSV and DOT
# ---------------------------------------------------------------------------

def test_shift_csv_shape(s3):
    d = decompose(s3)
    rows = list(csv.reader(io.StringIO(shift_to_csv(d))))
    assert rows[0] == ["cycle", "a0", "a1", "length", "type", "word"]
    assert len(rows) == 1 + len(d.cycles)
    lengths = sorted(int(r[3]) for r in rows[1:])
    assert lengths == sorted(c.length for c in d.cycles)


def test_tower_csv_shape(tower_s2):
    rows = list(csv.reader(io.StringIO(tower_to_csv(tower_s2))))
    assert rows[0][0] == "n"
    assert len(rows) == 1 + sum(lvl.class_count for lvl in tower_s2.levels)
    # braid data present: c_count column is an integer
    assert all(r[6].isdigit() for r in rows[1:])


def test_dot_output(s3):
    d = decompose(s3)
    dot = decomposition_to_dot(d)
    assert dot.startswith("digraph shift {")
    assert dot.rstrip().endswith("}")
    assert dot.count("->") == 36
    assert "lightblue" in dot and "khaki" in dot
    assert '[label="(1,1)"' in dot
