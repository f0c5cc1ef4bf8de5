"""Rendering and parsing of results: bracket-notation text, JSON, CSV and DOT.

Bracket notation and CSV display element handles 1-based (for symmetric groups
that is the lexicographic rank of the permutation); JSON carries the internal
0-based handles and says so in its "indexing" field.
"""
from __future__ import annotations

import csv
import io
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
    "write_json",
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

def _cycle_json(cycle: Cycle) -> dict:
    return {"a_seq": list(cycle.a_seq), "type": cycle.cycle_type}


def shift_to_json(decomp: ShiftDecomposition) -> dict:
    return {
        "schema": SHIFT_SCHEMA,
        "group": decomp.group.name,
        "order": decomp.group.order,
        "indexing": "0-based",
        "period_census": {str(p): n for p, n in decomp.period_census.items()},
        "cycles": [_cycle_json(c) for c in decomp.cycles],
    }


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
    if doc != shift_to_json(decomp):
        raise UsageError(f"document does not match the cycle decomposition of {decomp.group.name}")
    return decomp


def tower_to_json(tower: TowerResult) -> dict:
    levels = []
    for lvl in tower.levels:
        classes = [{"a_seq": list(cls.cycle.a_seq), "type": cls.cycle.cycle_type,
                    "b": list(cls.b), "c_set": list(cs)}
                   for cls, cs in zip(lvl.classes, lvl.braid_c)]
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


def tower_from_json(doc: dict) -> TowerResult:
    """The tower a tower document records, recomputed and compared in full."""
    group = _document_group(doc, TOWER_SCHEMA)
    n_max, levels = doc.get("n_max"), doc.get("levels")
    if type(n_max) is not int or not isinstance(levels, list):
        raise UsageError("tower document needs an integer n_max and a list of levels")
    tower = compute_tower(group, n_max)
    if doc != tower_to_json(tower):
        raise UsageError(f"document does not match the tower over {group.name} to stage {n_max}")
    return tower


_CHUNK = 1 << 16   # characters handed to `out.write` at a time
_INTS = {int}


class _IntLines(dict):
    """`prefix + str(i)` for each int i, made on first use."""

    def __init__(self, prefix: str) -> None:
        super().__init__()
        self.prefix = prefix

    def __missing__(self, i: int) -> str:
        line = self[i] = self.prefix + str(i)
        return line


def write_json(doc: object, out: TextIO) -> None:
    """Write `doc` to `out` exactly as `print(json.dumps(doc, indent=2))` would.

    The output is the same bytes, but it reaches `out` in writes of about
    `_CHUNK` characters, so neither the whole text nor a list of all its
    pieces is ever held.  A list of plain ints (the element handles of
    `a_seq`, `b` and `c_set`) is one join over a per-depth table of
    `"\n" + indent + str(i)` lines.  `doc` may hold dicts with str keys,
    lists, str, int, bool and None; any other type raises `TypeError`.
    """
    pieces: list[str] = []
    size = 0
    int_lines: list[_IntLines] = []   # int_lines[d] serves list items at depth d

    def emit(v: object, depth: int) -> None:
        nonlocal size
        t = type(v)
        if t is dict:
            if not v:
                s = "{}"
            else:
                inner = "\n" + "  " * (depth + 1)
                sep = "{" + inner
                for k, item in v.items():
                    if type(k) is not str:
                        raise TypeError(f"keys must be str, not {type(k).__name__}")
                    s = sep + encode_basestring_ascii(k) + ": "
                    pieces.append(s)
                    size += len(s)
                    emit(item, depth + 1)
                    sep = "," + inner
                s = "\n" + "  " * depth + "}"
        elif t is list:
            if not v:
                s = "[]"
            elif set(map(type, v)) == _INTS:
                while len(int_lines) <= depth + 1:
                    int_lines.append(_IntLines("\n" + "  " * len(int_lines)))
                s = "[" + ",".join(map(int_lines[depth + 1].__getitem__, v)) + "\n" + "  " * depth + "]"
            else:
                inner = "\n" + "  " * (depth + 1)
                sep = "[" + inner
                for item in v:
                    pieces.append(sep)
                    size += len(sep)
                    emit(item, depth + 1)
                    sep = "," + inner
                s = "\n" + "  " * depth + "]"
        elif t is str:
            s = encode_basestring_ascii(v)
        elif t is int:
            s = str(v)
        elif v is None:
            s = "null"
        elif v is True:
            s = "true"
        elif v is False:
            s = "false"
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
        pieces.append(s)
        size += len(s)
        if size >= _CHUNK:
            out.write("".join(pieces))
            pieces.clear()
            size = 0

    emit(doc, 0)
    pieces.append("\n")
    out.write("".join(pieces))


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
