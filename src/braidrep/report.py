"""Rendering and parsing of results: bracket-notation text, JSON, CSV and DOT.

Bracket notation and CSV display element handles 1-based (for symmetric groups
that is the lexicographic rank of the permutation); JSON carries the internal
0-based handles and says so in its "indexing" field.

Every writer is `writer(obj, out, **options)`: it reads the arrays a block of
`_BLOCK` cycles or classes at a time and hands its text to `out` through
`_write`, so no listing is held whole; `_text` gives it as one string.  The
braid and subgroups documents, a line per stage, go through `_write` too.

The shift and tower JSON documents are exactly the text
`print(json.dumps(doc, indent=2))` prints for the equivalent dict.  Each
document has one table of lines: every handle as the first item of a list and
as a later, comma-led item, pre-indented, plus the document's framing
literals.  Each block of up to `_BLOCK` cycles or classes becomes one int
array of codes into that table, which is joined in pieces of at most `_CHUNK`
characters; a handle outside the group raises KeyError.  Only the per-level
headers are formatted one by one.  The loaders parse that same text to
compare, so each document has one definition.
"""
from __future__ import annotations

import io
import json
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import TextIO

import numpy as np

from .analysis import TransitivityReport
from .errors import UsageError
from .extension import TowerLevel, TowerResult, _ranges, compute_tower
from .groups import FiniteGroup, parse_group_spec
from .shift import ShiftDecomposition, decompose

__all__ = [
    "paper_shift_lines",
    "stage4_b3_block",
    "paper_tower_lines",
    "paper_braid_lines",
    "paper_subgroup_lines",
    "shift_to_json",
    "shift_from_json",
    "tower_to_json",
    "tower_from_json",
    "subgroups_to_json",
    "shift_to_csv",
    "tower_to_csv",
    "subgroups_to_csv",
    "decomposition_to_dot",
]

SHIFT_SCHEMA = "braidrep.shift.v1"
TOWER_SCHEMA = "braidrep.tower.v1"


# ---------------------------------------------------------------------------
# bracket notation
# ---------------------------------------------------------------------------

def _bracket_rows(decomp: ShiftDecomposition, ids: np.ndarray, sep: str) -> Iterator[tuple[str, str, int, bool, str]]:
    """Each cycle of `ids` as (a0, a1, length, type I, word), read a block of
    `_BLOCK` cycles at a time: (a0, a1) is its rep vertex, 1-based, and the
    word its a-sequence rotated left by 2 mod p, so that it ends on the rep
    vertex, 1-based and joined by `sep`."""
    names = np.array([str(h + 1) for h in range(decomp.group.order)], dtype=object)
    for i in range(0, ids.size, _BLOCK):
        block = ids[i:i + _BLOCK]
        p = decomp.lengths[block]
        a0, a1 = decomp.rep_vertices(block)
        k = _ranges(np.zeros_like(p), p)            # each position's place in its cycle
        word = names[decomp.a_flat[np.repeat(decomp.offsets[block], p) + (k + 2) % np.repeat(p, p)]].tolist()
        ends = np.cumsum(p).tolist()
        yield from zip(names[a0].tolist(), names[a1].tolist(), p.tolist(), decomp.is_type_I[block].tolist(),
                       (sep.join(word[s:e]) for s, e in zip([0, *ends], ends)))


def paper_shift_lines(decomp: ShiftDecomposition, out: TextIO, *, type2_only: bool = False) -> None:
    """Write a stanza per cycle, or per type II cycle: `B[a0, a1] = [word]`, a
    blank line and the length, stanzas separated by a blank line."""
    ids = np.flatnonzero(~decomp.is_type_I) if type2_only else np.arange(decomp.lengths.size)

    def pieces() -> Iterator[str]:
        sep = ""
        for i, j, p, _, word in _bracket_rows(decomp, ids, ", "):
            yield f"{sep}B[{i}, {j}] = [{word}]\n\n{p}"
            sep = "\n\n"
        yield "\n"
    _write(out, pieces())


def stage4_b3_block(tower: TowerResult) -> list[str]:
    """Nontrivial b3 values at stage 4, each with the cycles that admit it."""
    lvl = tower.level(4)
    nontrivial = lvl.b[:, 0] != tower.group.identity
    b3 = lvl.b[nontrivial, 0]
    a0, a1 = tower.decomposition.rep_vertices(lvl.cycle_ids[nontrivial])
    # classes are ordered by rep vertex, so a stable sort by b3 keeps each b3's cells in order
    order = np.argsort(b3, kind="stable")
    rows = zip(b3[order].tolist(), (a0[order] + 1).tolist(), (a1[order] + 1).tolist())
    return [f"[{value + 1}, " + ", ".join(f"[{i}, {j}]" for _, i, j in cells) + "]"
            for value, cells in groupby(rows, key=itemgetter(0))]


def _braid_line(lvl: TowerLevel) -> str:
    return f"B{lvl.n}: classes={lvl.braid_class_count} reps={lvl.braid_rep_count}\n"


def paper_tower_lines(tower: TowerResult, out: TextIO, *, count_only: bool = False) -> None:
    """Write each stage's class and rep counts, then, at stage 4 and unless
    `count_only`, the b3 block, then its braid class and rep counts."""
    def pieces() -> Iterator[str]:
        for lvl in tower.levels:
            yield f"K{lvl.n}: classes={lvl.class_count} reps={lvl.rep_count}\n"
            if lvl.n == 4 and not count_only:
                yield from (line + "\n" for line in stage4_b3_block(tower))
            yield _braid_line(lvl)
    _write(out, pieces())


def paper_braid_lines(tower: TowerResult, out: TextIO) -> None:
    """Write each stage's braid class and rep counts, as `paper_tower_lines` does."""
    _write(out, map(_braid_line, tower.levels))


def paper_subgroup_lines(rep: TransitivityReport, out: TextIO) -> None:
    """Write each stage's transitive rep count and index-r subgroup count."""
    _write(out, (f"K{lvl.n}: transitive reps = {lvl.transitive_rep_count}, "
                 f"subgroups of index {rep.group.r} = {lvl.subgroup_count}\n" for lvl in rep.levels))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

_CHUNK = 1 << 16   # characters handed to `out.write` at a time
_BLOCK = 4096      # cycles or classes turned into one code array


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


def _head(schema: str, group: FiniteGroup) -> str:
    return (f'{{\n  "schema": "{schema}",\n  "group": {encode_basestring_ascii(group.name)},\n'
            f'  "order": {group.order},\n  "indexing": "0-based",\n')


class _CodeTable:
    """The lines of one document, numbered.

    Codes 0..m-1 are the group's handles as the first item of a JSON list whose
    items sit at `depth`, codes m..2m-1 the same handles as later items (led by
    a comma), and code 2m + k is the framing literal literals[k].  A run of
    document text is an int array of codes.
    """

    def __init__(self, group: FiniteGroup, depth: int, literals: Sequence[str]) -> None:
        first = ["\n" + "  " * depth + str(h) for h in range(group.order)]
        self.order = group.order
        self.lines = np.array([*first, *("," + s for s in first), *literals], dtype=object)
        # codes per piece, so that one piece holds at most _CHUNK characters
        self.step = _CHUNK // max(map(len, self.lines))

    def literal(self, k) -> np.ndarray:
        return 2 * self.order + np.asarray(k, dtype=np.int64)

    def items(self, flat: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """The codes of handle lists laid end to end in `flat`, counts[i] items
        in list i.  A handle outside 0..m-1 raises KeyError."""
        bad = (flat < 0) | (flat >= self.order)
        if bad.any():
            raise KeyError(int(flat[bad][0]))
        codes = flat.astype(np.int64) + self.order
        codes[(np.cumsum(counts) - counts)[counts > 0]] -= self.order
        return codes

    def text(self, parts: Sequence[tuple[np.ndarray, np.ndarray]]) -> Iterator[str]:
        """The text of a block of rows, in pieces of at most _CHUNK characters.

        Each part is (codes, counts), its runs laid end to end, one run per
        row: row i is part 0's run i, then part 1's run i, and so on.
        """
        counts = np.stack([n for _, n in parts], axis=1)
        start = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)
        codes = np.empty(int(counts.sum()), dtype=np.int64)
        for j, (part, n) in enumerate(parts):
            codes[_ranges(start[:, j], n)] = part
        for i in range(0, codes.size, self.step):
            yield "".join(self.lines[codes[i:i + self.step]].tolist())


def shift_to_json(decomp: ShiftDecomposition, out: TextIO) -> None:
    """Write the shift document of `decomp` to `out`: schema, group, order,
    indexing, period_census (period -> cycle count) and cycles (a_seq, type)."""
    table = _CodeTable(decomp.group, 4, [
        *(f'{sep}{{\n      "a_seq": [' for sep in ("\n    ", ",\n    ")),   # 0, 1: open, first or later
        *(f'\n      ],\n      "type": "{t}"\n    }}' for t in ("I", "II")),  # 2, 3: close, by type
    ])

    def pieces() -> Iterator[str]:
        census = ",\n".join(f'    "{p}": {n}' for p, n in decomp.period_census.items())
        yield _head(SHIFT_SCHEMA, decomp.group) + f'  "period_census": {{\n{census}\n  }},\n  "cycles": ['
        for i in range(0, decomp.lengths.size, _BLOCK):
            lengths = decomp.lengths[i:i + _BLOCK]
            start = int(decomp.offsets[i])
            flat = decomp.a_flat[start:start + int(lengths.sum())]
            one = np.ones_like(lengths)
            opens = one.copy()
            opens[0] = i > 0
            yield from table.text([(table.literal(opens), one), (table.items(flat, lengths), lengths),
                                   (table.literal(2 + ~decomp.is_type_I[i:i + _BLOCK]), one)])
        yield "\n  ]\n}\n"
    _write(out, pieces())


def _text(write: Callable[..., None], obj: object, **options: bool) -> str:
    buf = io.StringIO()
    write(obj, buf, **options)
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
    end = "\n          ]"
    table = _CodeTable(tower.group, 6, [
        # 0, 1: open, first class of its level or later
        *(f'{sep}{{\n          "a_seq": [' for sep in ("\n        ", ",\n        ")),
        # 2-5: after a_seq, by type and by whether b has items
        *(f'{end},\n          "type": "{t}",\n          "b": {lst}' for t in ("I", "II") for lst in ("[]", "[")),
        # 6-9: after b, by whether b and c_set have items
        *(f'{b_end},\n          "c_set": {lst}' for b_end in ("", end) for lst in ("[]", "[")),
        # 10, 11: close, by whether c_set has items
        *(f'{c_end}\n        }}' for c_end in ("", end)),
    ])
    decomp = tower.decomposition

    def level_pieces(lvl: TowerLevel) -> Iterator[str]:
        width = lvl.n - 3
        c_start = np.concatenate([[0], np.cumsum(lvl.c_count)])
        for i in range(0, lvl.class_count, _BLOCK):
            j = min(i + _BLOCK, lvl.class_count)
            ids = lvl.cycle_ids[i:j]
            lengths = decomp.lengths[ids]
            one = np.ones_like(lengths)
            b_count = np.full_like(lengths, width)
            c_count = lvl.c_count[i:j]
            has_b, has_c = int(width > 0), (c_count > 0).astype(np.int64)
            opens = one.copy()
            opens[0] = i > 0
            yield from table.text([
                (table.literal(opens), one),
                (table.items(decomp.a_flat[_ranges(decomp.offsets[ids], lengths)], lengths), lengths),
                (table.literal(2 + 2 * ~decomp.is_type_I[ids] + has_b), one),
                (table.items(lvl.b[i:j].ravel(), b_count), b_count),
                (table.literal(6 + 2 * has_b + has_c), one),
                (table.items(lvl.c[c_start[i]:c_start[j]], c_count), c_count),
                (table.literal(10 + has_c), one),
            ])

    def pieces() -> Iterator[str]:
        yield _head(TOWER_SCHEMA, tower.group) + f'  "n_max": {tower.n_max},\n  "levels": ['
        sep = "\n    "
        for lvl in tower.levels:
            yield (f'{sep}{{\n      "n": {lvl.n},\n      "class_count": {lvl.class_count},\n'
                   f'      "rep_count": {lvl.rep_count},\n      "classes": [')
            yield from level_pieces(lvl)
            yield (f'\n      ],\n      "braid_class_count": {lvl.braid_class_count},\n'
                   f'      "braid_rep_count": {lvl.braid_rep_count}\n    }}')
            sep = ",\n    "
        yield "\n  ]\n}\n"
    _write(out, pieces())


def subgroups_to_json(rep: TransitivityReport, out: TextIO) -> None:
    """Write the subgroups document of `rep` to `out`: schema, group and, per
    stage, n, r and the transitive rep and index-r subgroup counts."""
    doc = {"schema": "braidrep.subgroups.v1", "group": rep.group.name,
           "levels": [{"n": lvl.n, "r": rep.group.r, "transitive_reps": lvl.transitive_rep_count,
                       "subgroups": lvl.subgroup_count} for lvl in rep.levels]}
    _write(out, [json.dumps(doc, indent=2), "\n"])


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

def shift_to_csv(decomp: ShiftDecomposition, out: TextIO) -> None:
    """Write a row per cycle: number, rep vertex, length, type and word.  No
    field holds a comma or a quote, so none is quoted; rows end in CRLF."""
    def pieces() -> Iterator[str]:
        yield "cycle,a0,a1,length,type,word\r\n"
        for k, (i, j, p, type_I, word) in enumerate(_bracket_rows(decomp, np.arange(decomp.lengths.size), " ")):
            yield f"{k},{i},{j},{p},{'I' if type_I else 'II'},{word}\r\n"
    _write(out, pieces())


def tower_to_csv(tower: TowerResult, out: TextIO) -> None:
    """Write a row per class of every stage: n, rep vertex, length, type, b,
    and the size and items of its c set; unquoted, rows end in CRLF."""
    decomp = tower.decomposition

    def pieces() -> Iterator[str]:
        yield "n,a0,a1,length,type,b,c_count,c_set\r\n"
        for lvl in tower.levels:
            c_start = np.concatenate([[0], np.cumsum(lvl.c_count)])
            for i in range(0, lvl.class_count, _BLOCK):
                j = min(i + _BLOCK, lvl.class_count)
                ids = lvl.cycle_ids[i:j]
                a0, a1 = decomp.rep_vertices(ids)
                c = [str(x) for x in (lvl.c[c_start[i]:c_start[j]] + 1).tolist()]
                ends = (c_start[i + 1:j + 1] - c_start[i]).tolist()
                for x, y, p, type_I, b, start, end in zip(
                        (a0 + 1).tolist(), (a1 + 1).tolist(), decomp.lengths[ids].tolist(),
                        decomp.is_type_I[ids].tolist(), (lvl.b[i:j] + 1).tolist(), [0, *ends], ends):
                    yield (f"{lvl.n},{x},{y},{p},{'I' if type_I else 'II'},{' '.join(map(str, b))},"
                           f"{end - start},{' '.join(c[start:end])}\r\n")
    _write(out, pieces())


def subgroups_to_csv(rep: TransitivityReport, out: TextIO) -> None:
    """Write a row per stage: n, r, transitive rep count and index-r subgroup
    count; rows end in CRLF."""
    _write(out, ["n,r,transitive_reps,subgroups\r\n",
                 *(f"{lvl.n},{rep.group.r},{lvl.transitive_rep_count},{lvl.subgroup_count}\r\n"
                   for lvl in rep.levels)])


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

def decomposition_to_dot(decomp: ShiftDecomposition, out: TextIO) -> None:
    """Write the successor graph, cycles colored by type: each cycle's nodes,
    its vertex codes a_k * m + a_{k+1} from its rep vertex, then its edges."""
    m = decomp.group.order

    def pieces() -> Iterator[str]:
        yield "digraph shift {\n  rankdir=LR;\n"
        for i in range(0, decomp.lengths.size, _BLOCK):
            p = decomp.lengths[i:i + _BLOCK]
            codes = decomp.vertex_codes(i, i + _BLOCK)
            ends = np.cumsum(p)
            succ = np.roll(codes, -1)
            succ[ends - 1] = codes[ends - p]            # a cycle's last vertex goes to its first
            x, y = np.divmod(codes, m)
            color = np.repeat(np.where(decomp.is_type_I[i:i + _BLOCK], "lightblue", "khaki"), p)
            codes = codes.tolist()
            nodes = [f'  v{v} [label="({a},{b})" style=filled fillcolor={c}];\n'
                     for v, a, b, c in zip(codes, (x + 1).tolist(), (y + 1).tolist(), color.tolist())]
            edges = [f"  v{v} -> v{w};\n" for v, w in zip(codes, succ.tolist())]
            for s, e in zip((ends - p).tolist(), ends.tolist()):
                yield "".join(nodes[s:e]) + "".join(edges[s:e])
        yield "}\n"
    _write(out, pieces())
