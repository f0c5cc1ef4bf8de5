#!/usr/bin/env python3
"""Regenerate the recorded result blocks and headline counts in one run.

Prints, in order:
  * the type-II stanza blocks over S3 and S4,
  * the stage-4 b3 block over S4,
  * class/representation counts per stage for S2..S6 (with timings),
  * subgroup counts from transitive classes,
  * braid-group representation counts.

Run from the repository root:  python3 scripts/reproduce_tables.py
"""
from __future__ import annotations

import argparse
import sys
import time

from braidrep.analysis import count_subgroups, transitivity_report
from braidrep.extension import compute_tower
from braidrep.groups import SymmetricGroup
from braidrep.report import paper_shift_lines, paper_tower_lines, stage4_b3_block
from braidrep.shift import decompose


def banner(title: str) -> None:
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()

    banner("Type-II cycles over S3 (n = 3, r = 3)")
    paper_shift_lines(decompose(SymmetricGroup(3)), sys.stdout, type2_only=True)

    banner("Type-II cycles over S4 (n = 3, r = 4)")
    s4 = SymmetricGroup(4)
    d4 = decompose(s4)
    paper_shift_lines(d4, sys.stdout, type2_only=True)
    type1, type2 = d4.is_type_I, ~d4.is_type_I
    print()
    print(f"type-I:  {type1.sum()} cycles, {d4.lengths[type1].sum()} representations")
    print(f"type-II: {type2.sum()} cycles, {d4.lengths[type2].sum()} representations")
    print(f"total:   {d4.lengths.sum()} representations")

    banner("Nontrivial b3 extensions over S4 (n = 4, r = 4)")
    tower_s4 = compute_tower(s4, 6, decomposition=d4)
    print("\n".join(stage4_b3_block(tower_s4)))

    banner("Towers (headline counts per stage)")
    stage_span = {2: 5, 3: 5, 4: 6, 5: 6, 6: 7}
    towers = {}
    for r, n_max in stage_span.items():
        S = SymmetricGroup(r)
        t0 = time.monotonic()
        if r == 4:
            tower = tower_s4
        else:
            tower = compute_tower(S, n_max)
        dt = time.monotonic() - t0
        towers[r] = tower
        print(f"--- S{r} (stages 3..{n_max}, {dt:.2f}s) ---")
        paper_tower_lines(tower, sys.stdout, count_only=True)

    banner("Index-r subgroup counts from transitive classes")
    for r in (2, 3):
        rep = transitivity_report(towers[r])
        for lvl in rep.levels:
            print(f"n={lvl.n} r={r}: transitive reps = {lvl.transitive_rep_count}, "
                  f"subgroups = {lvl.subgroup_count}")
    for n, r in [(5, 2), (5, 3), (5, 4), (6, 4)]:
        print(f"n={n} r={r}: subgroups = {count_subgroups(n, r, towers[r])}")

    banner("Braid-group representation counts")
    for r in (2, 3, 4):
        tower = towers[r]
        for n in range(3, tower.n_max + 1):
            print(f"|Hom(B{n}, S{r})| = {tower.level(n).braid_rep_count}")


if __name__ == "__main__":
    main()
