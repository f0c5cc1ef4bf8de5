"""The benchmark's workloads: the CLI invocations each one runs and the
reference counts every invocation's output is checked against.

An operation is one `braidrep.cli.main(argv)` call.  Its check gets the exit
code and the captured stdout and returns None when the output is right, or a
one-line reason when it is not.  The `tiny-*` workloads run the same code
paths on small groups; `selfcheck.py` uses them.
"""
from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Check = Callable[[int, str], "str | None"]

# Where seeded inputs are written, relative to the checkout root.
WORK_DIR = Path("perfbench") / "_work"


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    make_ops: Callable[[int], list[Op]]
    # traced spans that must record at least one call in every pass
    layers: tuple[str, ...]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def tower_check(cycles: int, classes: dict[int, int]) -> Check:
    """`tower --format json`: stage-3 class count is the cycle count, the
    listed stages have these class counts, and the top stage is trivial."""
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        levels = {lvl["n"]: lvl for lvl in json.loads(out)["levels"]}
        got = {n: levels[n]["class_count"] for n in [3, *classes] if n in levels}
        want = {3: cycles, **classes}
        if got != want:
            return f"class counts {got}, expected {want}"
        top = levels[max(levels)]["classes"]
        if not (len(top) == 1 and len(top[0]["a_seq"]) == 1 and set(top[0]["b"]) == set(top[0]["a_seq"])):
            return f"stage {max(levels)} is not trivial"
        return None
    return check


def shift_check(cycles: int, vertices: int) -> Check:
    """`shift --format json`: cycle count, and a census that sums to |G|^2."""
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        doc = json.loads(out)
        total = sum(int(p) * k for p, k in doc["period_census"].items())
        if (len(doc["cycles"]), total) != (cycles, vertices):
            return f"{len(doc['cycles'])} cycles over {total} vertices, expected {cycles} over {vertices}"
        return None
    return check


_SUITE_LINE = re.compile(r"^([\w-]+): (PASS|FAIL) - (.*)$")


def verify_check(details: dict[str, str] | None = None) -> Check:
    """`verify`: exit 0 and every suite PASS; with `details`, the named
    suites must also print exactly these detail lines."""
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        got = {}
        for line in out.splitlines():
            m = _SUITE_LINE.match(line)
            if m is None:
                return f"unexpected output line {line!r}"
            if m.group(2) != "PASS":
                return line
            got[m.group(1)] = m.group(3)
        for suite, detail in (details or {}).items():
            if got.get(suite) != detail:
                return f"{suite}: {got.get(suite)!r}, expected {detail!r}"
        return None
    return check


# ---------------------------------------------------------------------------
# the seeded Cayley table: S3 x Z6, relabelled by a permutation from the seed
# ---------------------------------------------------------------------------

def s3_x_z6_table() -> list[list[int]]:
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    elems = [(s, k) for s in range(6) for k in range(6)]
    pos = {x: i for i, x in enumerate(elems)}

    def mul(x, y):
        (s, i), (t, j) = x, y
        ps, pt = perms[s], perms[t]
        return (index[tuple(ps[v] for v in pt)], (i + j) % 6)

    return [[pos[mul(x, y)] for y in elems] for x in elems]


def relabelled(table: list[list[int]], seed: int) -> list[list[int]]:
    """The same group with element x renamed to label[x], label drawn from the seed."""
    m = len(table)
    label = list(range(m))
    random.Random(seed).shuffle(label)
    out = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            out[label[x]][label[y]] = label[table[x][y]]
    return out


def write_table(table: list[list[int]], seed: int) -> str:
    """Write the table file the CLI reads and return its `table:` spec."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = WORK_DIR / f"s3xz6-seed{seed}.txt"
    rows = "\n".join(" ".join(map(str, row)) for row in table)
    path.write_text(f"{len(table)}\n{rows}\n")
    return f"table:{path.as_posix()}"


# Counts verify prints for S3 x Z6 at stage 6; relabelling must not change them.
S3_X_Z6_DETAILS = {
    "census": "sum p*n_p = 1296, |G|^2 = 1296, fixed points = 1",
    "prop1": "158 cycle products checked, 0 non-identity",
    "prop2": "158 stage-4 classes checked",
    "prop3": "0 nontrivial classes at stages >= 5 checked",
    "prop4": "stage-6 census vs perfect core census",
    "oracle-eq": "K6: 1 representations match",
}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

_CORE = ("cli.main", "groups.parse", "groups.tables", "shift.decompose")
_SCANS = ("extension.compute_tower", "extension.scan_b3", "extension.scan_bn", "extension.scan_c")


def _tower_s6(seed: int) -> list[Op]:
    return [Op(("tower", "S6", "7", "--format", "json"),
               tower_check(33150, {4: 34950, 5: 721, 6: 721, 7: 1}))]


def _verify_small(seed: int) -> list[Op]:
    table = write_table(relabelled(s3_x_z6_table(), seed), seed)
    return [
        Op(("verify", "Z2xZ2xZ2xZ5", "5"), verify_check()),
        Op(("verify", "Z2xZ4xZ5", "5"), verify_check()),
        Op(("verify", "S4", "6"), verify_check()),
        Op(("verify", "SL2(3)", "6"), verify_check()),
        Op(("verify", table, "6"), verify_check(S3_X_Z6_DETAILS)),
    ]


def _sl2_shift(seed: int) -> list[Op]:
    return [Op(("shift", "SL2(11)", "--format", "json"), shift_check(85814, 1742400))]


def _tiny_tower(seed: int) -> list[Op]:
    return [Op(("tower", "S4", "6", "--format", "json"), tower_check(88, {4: 118, 5: 1, 6: 1}))]


def _tiny_verify(seed: int) -> list[Op]:
    table = write_table(relabelled(s3_x_z6_table(), seed), seed)
    return [Op(("verify", "S4", "6"), verify_check()),
            Op(("verify", table, "6"), verify_check(S3_X_Z6_DETAILS))]


def _tiny_shift(seed: int) -> list[Op]:
    return [Op(("shift", "SL2(3)", "--format", "json"), shift_check(76, 576))]


_VERIFY = _CORE + _SCANS + ("oracle.kn", "verify.run_suites", "analysis.perfect_core")
_RENDER = _CORE + ("report",)

# The seed only relabels the Cayley table of the verify workloads; the other
# workloads have fixed inputs.
WORKLOADS = {
    "tower-s6": Workload(_tower_s6, _RENDER + _SCANS),
    "verify-small": Workload(_verify_small, _VERIFY),
    "sl2-shift": Workload(_sl2_shift, _RENDER),
    "tiny-tower": Workload(_tiny_tower, _RENDER + _SCANS),
    "tiny-verify": Workload(_tiny_verify, _VERIFY),
    "tiny-shift": Workload(_tiny_shift, _RENDER),
}
