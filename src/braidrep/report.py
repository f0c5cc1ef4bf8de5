"""Rendering and parsing of results: bracket-notation text, JSON, CSV and DOT.

Bracket notation and CSV display element handles 1-based (for symmetric groups
that is the lexicographic rank of the permutation); JSON carries the internal
0-based handles and says so in its "indexing" field.

The shift and tower JSON documents are written straight from the engine's
objects, as exactly the text `print(json.dumps(doc, indent=2))` prints for the
equivalent dict: keys and indentation are literals, each list of element
handles is one join over a table of pre-indented lines keyed by handle, and
the text reaches the stream in writes of about `_CHUNK` characters.  The
loaders parse that same text to compare, so each document has one definition.
"""
from __future__ import annotations

import csv
import io
import json
from collections.abc import Callable, Iterable, Iterator, Sequence
from json.encoder import encode_basestring_ascii
from typing import TextIO

from .errors import UsageError
from .extension import TowerResult, compute_tower
from .groups import FiniteGroup, parse_group_spec
from .shift import Cycle, ShiftDecomposition, decompose

__all__ = [
    "bracket_word",
    "cycle_stanza",
    "paper_shift_lines",
    "stage4_b3_block",
    "paper_tower_lines",
    "shift_to_json",
    "shift_from_json",
    "tower_to_json",
    "tower_from_json",
    "shift_to_csv",
    "tower_to_csv",
    "decomposition_to_dot",
    "normalize_tokens",
]

SHIFT_SCHEMA = "braidrep.shift.v1"
TOWER_SCHEMA = "braidrep.tower.v1"


# ---------------------------------------------------------------------------
# bracket notation
# ---------------------------------------------------------------------------

def bracket_word(cycle: Cycle) -> list[int]:
    """The cycle's sequence rotated to end on its representative, 1-based."""
    p = cycle.length
    k = 2 % p
    rotated = cycle.a_seq[k:] + cycle.a_seq[:k]
    return [x + 1 for x in rotated]


def cycle_stanza(cycle: Cycle) -> list[str]:
    i, j = cycle.rep_vertex
    word = ", ".join(str(x) for x in bracket_word(cycle))
    return [f"B[{i + 1}, {j + 1}] = [{word}]", "", str(cycle.length)]


def paper_shift_lines(decomp: ShiftDecomposition, *, type2_only: bool = False) -> list[str]:
    cycles = decomp.type_II() if type2_only else decomp.cycles
    lines: list[str] = []
    for cycle in cycles:
        if lines:
            lines.append("")
        lines.extend(cycle_stanza(cycle))
    return lines


def stage4_b3_block(tower: TowerResult) -> list[str]:
    """Nontrivial b3 values at stage 4, each with the cycles that admit it."""
    e = tower.group.identity
    by_b3: dict[int, list[tuple[int, int]]] = {}
    for cls in tower.level(4).classes:
        if cls.b[0] != e:
            by_b3.setdefault(cls.b[0], []).append(cls.cycle.rep_vertex)
    lines = []
    for b3 in sorted(by_b3):
        cells = ", ".join(f"[{i + 1}, {j + 1}]" for i, j in sorted(by_b3[b3]))
        lines.append(f"[{b3 + 1}, {cells}]")
    return lines


def paper_tower_lines(tower: TowerResult) -> list[str]:
    lines = []
    for lvl in tower.levels:
        lines.append(f"K{lvl.n}: classes={lvl.class_count} reps={lvl.rep_count}")
        if lvl.n == 4:
            lines.extend(stage4_b3_block(tower))
        lines.append(f"B{lvl.n}: classes={lvl.braid_class_count} reps={lvl.braid_rep_count}")
    return lines


def normalize_tokens(text: str) -> list[str]:
    """Whitespace-normalized token stream for golden-file comparison."""
    return text.split()


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

_CHUNK = 1 << 16   # characters handed to `out.write` at a time


def _write(out: TextIO, pieces: Iterable[str]) -> None:
    """Hand `pieces` to `out` joined, in writes of about `_CHUNK` characters."""
    batch: list[str] = []
    size = 0
    for s in pieces:
        batch.append(s)
        size += len(s)
        if size >= _CHUNK:
            out.write("".join(batch))
            batch.clear()
            size = 0
    out.write("".join(batch))


def _int_list(group: FiniteGroup, depth: int) -> Callable[[Sequence[int]], str]:
    """Renders a sequence of the group's handles as a JSON list whose items sit
    at `depth`.  Each item is one line of a table keyed by handle, so a handle
    outside 0..order-1 raises KeyError."""
    line = {h: "\n" + "  " * depth + str(h) for h in range(group.order)}.__getitem__
    close = "\n" + "  " * (depth - 1) + "]"

    def render(seq: Sequence[int]) -> str:
        return "[" + ",".join(map(line, seq)) + close if seq else "[]"
    return render


def _head(schema: str, group: FiniteGroup) -> str:
    return (f'{{\n  "schema": "{schema}",\n  "group": {encode_basestring_ascii(group.name)},\n'
            f'  "order": {group.order},\n  "indexing": "0-based",\n')


def shift_to_json(decomp: ShiftDecomposition, out: TextIO) -> None:
    """Write the shift document of `decomp` to `out`: schema, group, order,
    indexing, period_census (period -> cycle count) and cycles (a_seq, type)."""
    ints = _int_list(decomp.group, 4)

    def pieces() -> Iterator[str]:
        census = ",\n".join(f'    "{p}": {n}' for p, n in decomp.period_census.items())
        yield _head(SHIFT_SCHEMA, decomp.group) + f'  "period_census": {{\n{census}\n  }},\n  "cycles": ['
        sep = "\n    "
        for c in decomp.cycles:
            yield f'{sep}{{\n      "a_seq": {ints(c.a_seq)},\n      "type": "{c.cycle_type}"\n    }}'
            sep = ",\n    "
        yield "\n  ]\n}\n"
    _write(out, pieces())


def _text(write: Callable[[object, TextIO], None], obj: object) -> str:
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


def _document_group(doc: dict, schema: str) -> FiniteGroup:
    """The group a document names, after checking its schema and order."""
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        raise UsageError(f"not a {schema} document")
    if not isinstance(doc.get("group"), str):
        raise UsageError("document names no group spec")
    group = parse_group_spec(doc["group"])
    if group.order != doc.get("order"):
        raise UsageError("group spec and recorded order disagree")
    return group


def shift_from_json(doc: dict) -> ShiftDecomposition:
    """The decomposition a shift document records, recomputed and compared in full."""
    decomp = decompose(_document_group(doc, SHIFT_SCHEMA))
    if doc != json.loads(_text(shift_to_json, decomp)):
        raise UsageError(f"document does not match the cycle decomposition of {decomp.group.name}")
    return decomp


def tower_to_json(tower: TowerResult, out: TextIO) -> None:
    """Write the tower document of `tower` to `out`: schema, group, order,
    indexing, n_max and levels (n, class and rep counts, classes with a_seq,
    type, b and c_set, braid class and rep counts)."""
    ints = _int_list(tower.group, 6)

    def pieces() -> Iterator[str]:
        yield _head(TOWER_SCHEMA, tower.group) + f'  "n_max": {tower.n_max},\n  "levels": ['
        sep = "\n    "
        for lvl in tower.levels:
            yield (f'{sep}{{\n      "n": {lvl.n},\n      "class_count": {lvl.class_count},\n'
                   f'      "rep_count": {lvl.rep_count},\n      "classes": [')
            item = "\n        "
            for cls, cs in zip(lvl.classes, lvl.braid_c):
                yield (f'{item}{{\n          "a_seq": {ints(cls.cycle.a_seq)},\n'
                       f'          "type": "{cls.cycle.cycle_type}",\n          "b": {ints(cls.b)},\n'
                       f'          "c_set": {ints(cs)}\n        }}')
                item = ",\n        "
            yield (f'\n      ],\n      "braid_class_count": {lvl.braid_class_count},\n'
                   f'      "braid_rep_count": {lvl.braid_rep_count}\n    }}')
            sep = ",\n    "
        yield "\n  ]\n}\n"
    _write(out, pieces())


def tower_from_json(doc: dict) -> TowerResult:
    """The tower a tower document records, recomputed and compared in full."""
    group = _document_group(doc, TOWER_SCHEMA)
    n_max, levels = doc.get("n_max"), doc.get("levels")
    if type(n_max) is not int or not isinstance(levels, list):
        raise UsageError("tower document needs an integer n_max and a list of levels")
    tower = compute_tower(group, n_max)
    if doc != json.loads(_text(tower_to_json, tower)):
        raise UsageError(f"document does not match the tower over {group.name} to stage {n_max}")
    return tower


# ---------------------------------------------------------------------------
# CSV (1-based display indices, like the bracket notation)
# ---------------------------------------------------------------------------

def shift_to_csv(decomp: ShiftDecomposition) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["cycle", "a0", "a1", "length", "type", "word"])
    for k, cycle in enumerate(decomp.cycles):
        i, j = cycle.rep_vertex
        w.writerow([k, i + 1, j + 1, cycle.length, cycle.cycle_type,
                    " ".join(str(x) for x in bracket_word(cycle))])
    return buf.getvalue()


def tower_to_csv(tower: TowerResult) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["n", "a0", "a1", "length", "type", "b", "c_count", "c_set"])
    for lvl in tower.levels:
        for cls, cs in zip(lvl.classes, lvl.braid_c):
            i, j = cls.cycle.rep_vertex
            w.writerow([lvl.n, i + 1, j + 1, cls.cycle.length, cls.cycle.cycle_type,
                        " ".join(str(x + 1) for x in cls.b), len(cs), " ".join(str(c + 1) for c in cs)])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

_TYPE_COLOR = {"I": "lightblue", "II": "khaki"}


def decomposition_to_dot(decomp: ShiftDecomposition) -> str:
    """The successor graph with one node per vertex, cycles colored by type."""
    m = decomp.group.order
    out = ["digraph shift {", "  rankdir=LR;"]
    for cycle in decomp.cycles:
        color = _TYPE_COLOR[cycle.cycle_type]
        verts = cycle.vertices()
        for x, y in verts:
            out.append(f'  v{x * m + y} [label="({x + 1},{y + 1})" style=filled fillcolor={color}];')
        for k, (x, y) in enumerate(verts):
            nx, ny = verts[(k + 1) % len(verts)]
            out.append(f"  v{x * m + y} -> v{nx * m + ny};")
    out.append("}")
    return "\n".join(out)
