"""Acceptance gate: ten headline criteria, one pass/fail line each.

Each test accumulates its checks and prints a single line
`criterion NN [title]: PASS|FAIL - details` before asserting, so a plain
pytest run of this file yields exactly one status line per criterion.
"""
from __future__ import annotations

from braidrep.analysis import (
    count_subgroups,
    nontrivial_implies_transitive,
    classes_all_even,
    perfect_core_census_match,
    pi_representation,
    type_I_census,
)
from braidrep.extension import compute_tower, extend_to_braid
from braidrep.groups import SL2, AbelianProduct, SymmetricGroup, alternating_group
from braidrep.oracle import brute_hom_Bn, brute_hom_Kn, engine_census_Bn, engine_census_Kn
from braidrep.report import _text, paper_shift_lines, stage4_b3_block
from braidrep.shift import decompose, successor
from braidrep.verify import run_suites

from conftest import golden_text, level_rows, normalize_tokens

Check = tuple[bool, str]


def _report(num: int, title: str, checks: list[Check]) -> None:
    ok = all(c for c, _ in checks)
    line = f"criterion {num:02d} [{title}]: {'PASS' if ok else 'FAIL'}"
    bad = [d for c, d in checks if not c]
    if bad:
        line += " - " + "; ".join(bad)
    print(line)
    assert ok, line


def test_criterion_01_s2_tower(tower_s2):
    counts = [tower_s2.level(n).rep_count for n in (3, 4, 5)]
    checks = [
        (counts == [4, 4, 1], f"stage 3..5 representation counts {counts} != [4, 4, 1]"),
        (tower_s2.is_trivial_at(5), "stage 5 over S2 is not trivial"),
    ]
    _report(1, "S2 tower", checks)


def test_criterion_02_s3_tower(tower_s3):
    d = tower_s3.decomposition
    type2 = {c.rep_vertex: c.length for c in d.cycles if c.cycle_type == "II"}
    type1 = [c for c in d.cycles if c.cycle_type == "I"]
    counts = [tower_s3.level(n).rep_count for n in (3, 4, 5)]
    checks = [
        (counts[0] == 36, f"stage-3 count {counts[0]} != 36"),
        (type2 == {(1, 2): 9, (1, 3): 9, (3, 4): 2},
         f"type-II cycle lengths {type2} unexpected"),
        (len(type1) == 5 and sum(c.length for c in type1) == 16,
         "type-I cycles/representations != (5, 16)"),
        (counts[1] == 36, f"stage-4 count {counts[1]} != 36"),
        (counts[2] == 1, f"stage-5 count {counts[2]} != 1"),
    ]
    _report(2, "S3 tower", checks)


def test_criterion_03_s4_stage3(tower_s4):
    d = tower_s4.decomposition
    type1_reps = int(d.lengths[d.is_type_I].sum())
    type2_reps = int(d.lengths[~d.is_type_I].sum())
    type2_count = int((~d.is_type_I).sum())
    ours = _text(paper_shift_lines, d, type2_only=True)
    golden = golden_text("n3_r4.txt")
    checks = [
        (type1_reps == 70, f"type-I representations {type1_reps} != 70"),
        (type2_reps == 506, f"type-II representations {type2_reps} != 506"),
        (tower_s4.level(3).rep_count == 576, "stage-3 total != 576"),
        (type2_count == 71, f"type-II cycle count {type2_count} != 71"),
        (normalize_tokens(ours) == normalize_tokens(golden),
         "type-II stanza block differs from the recorded one"),
    ]
    _report(3, "S4 stage 3 census and stanzas", checks)


def test_criterion_04_s4_stage4(tower_s4, s4):
    lvl = tower_s4.level(4)
    extra = [(cycle, b) for cycle, b, _ in level_rows(lvl) if b != (s4.identity,)]
    special = {cycle.rep_vertex for cycle, _ in extra}
    expected_vertices = {
        (3, 4), (3, 8), (3, 15), (3, 19), (4, 11),
        (4, 12), (4, 20), (8, 12), (11, 19), (15, 20),
    }
    b3_values = {b[0] for _, b in extra}
    ours = "\n".join(stage4_b3_block(tower_s4))
    golden = golden_text("n4_r4.txt")
    checks = [
        (normalize_tokens(ours) == normalize_tokens(golden),
         "stage-4 b3 block differs from the recorded one"),
        (special == expected_vertices, f"cycles with nontrivial b3: {sorted(special)}"),
        (b3_values == {7, 16, 23}, f"nontrivial b3 handles {sorted(b3_values)} != [7, 16, 23]"),
        (lvl.class_count == 88 + 30, f"stage-4 class count {lvl.class_count} != 118"),
        (lvl.rep_count == 672, f"stage-4 representation count {lvl.rep_count} != 672"),
    ]
    _report(4, "S4 stage 4 extensions", checks)


def test_criterion_05_high_stages_trivial(tower_s4, tower_s5, tower_s6, s6_tower_seconds):
    checks = [
        (tower_s4.is_trivial_at(5), "stage 5 over S4 is not trivial"),
        (tower_s5.is_trivial_at(6), "stage 6 over S5 is not trivial"),
        (tower_s6.is_trivial_at(7), "stage 7 over S6 is not trivial"),
        (s6_tower_seconds <= 120.0,
         f"S6 tower took {s6_tower_seconds:.1f}s (limit 120s)"),
    ]
    _report(5, f"high stages trivial (S6 tower {s6_tower_seconds:.1f}s)", checks)


def test_criterion_06_subgroup_counts(tower_s2, tower_s3, tower_s4, tower_s5):
    got = {
        (3, 2): count_subgroups(3, 2, tower_s2),
        (3, 3): count_subgroups(3, 3, tower_s3),
        (4, 2): count_subgroups(4, 2, tower_s2),
        (4, 3): count_subgroups(4, 3, tower_s3),
    }
    want = {(3, 2): 3, (3, 3): 13, (4, 2): 3, (4, 3): 13}
    zeros = [
        count_subgroups(5, 2, tower_s2), count_subgroups(5, 3, tower_s3),
        count_subgroups(5, 4, tower_s4), count_subgroups(6, 2, tower_s2),
        count_subgroups(6, 3, tower_s3), count_subgroups(6, 4, tower_s4),
        count_subgroups(6, 5, tower_s5),
    ]
    checks = [
        (got == want, f"low-stage subgroup counts {got} != {want}"),
        (all(z == 0 for z in zeros), f"high-stage subgroup counts {zeros} not all zero"),
    ]
    _report(6, "subgroup counts", checks)


def test_criterion_07_oracle_equivalence(tower_s2, tower_s3, tower_s4, tower_z6, tower_sl23):
    towers = {
        "S2": tower_s2, "S3": tower_s3, "S4": tower_s4,
        "SL2(2)": compute_tower(SL2(2), 5),
        "SL2(3)": tower_sl23, "Z6": tower_z6,
    }
    checks: list[Check] = []
    for name, tower in towers.items():
        for n in (3, 4, 5):
            res = brute_hom_Kn(tower.group, n)
            checks.append((res.census == engine_census_Kn(tower, n),
                           f"K{n} census mismatch over {name}"))
    for name in ("S2", "S3"):
        tower = towers[name]
        for n in (2, 3, 4):
            res = brute_hom_Bn(tower.group, n)
            checks.append((res.census == engine_census_Bn(tower, n),
                           f"B{n} census mismatch over {name}"))
    _report(7, "oracle equivalence (6 groups x K3..K5, 2 groups x B2..B4)", checks)


def test_criterion_08_structural_properties(s3, s4, tower_s4, tower_s5, tower_a5):
    checks: list[Check] = []

    # census identity and unique fixed point on every backend flavour
    for group in (SymmetricGroup(2), s3, s4, SL2(2), SL2(3),
                  AbelianProduct((6,)), AbelianProduct((2, 4)), alternating_group(4)):
        d = decompose(group)
        total = sum(p * k for p, k in d.period_census.items())
        checks.append((total == group.order ** 2 and d.period_census.get(1) == 1,
                       f"census identity fails over {group.name}"))

    # the named suites re-derive the cycle-product, b3 and higher-stage claims
    for res in run_suites(tower_s4):
        checks.append((res.ok, f"suite {res.name} failed over S4: {res.detail}"))

    # order-3 elements walk the six-vertex pattern
    e = s4.identity
    d4 = decompose(s4)
    for a in s4.elements():
        if s4.power(a, 3) == e and a != e:
            cyc = d4.cycle_at((e, a))
            ok = cyc.a_seq in ((e, a, a, e, s4.inv(a), s4.inv(a)),
                               (e, s4.inv(a), s4.inv(a), e, a, a))
            checks.append((ok, f"six-vertex pattern broken at element {a}"))

    # abelian: the sixth iterate of the successor is the identity map
    z6 = AbelianProduct((6,))
    for v0 in z6.elements():
        for v1 in z6.elements():
            w = (v0, v1)
            for _ in range(6):
                w = successor(z6, w)
            if w != (v0, v1):
                checks.append((False, f"sixth iterate moved {(v0, v1)}"))

    # closed-form type-I censuses
    checks.append((type_I_census(2) == (2, 4, 3), "r=2 type-I census formula"))
    checks.append((type_I_census(3) == (5, 16, 6), "r=3 type-I census formula"))
    checks.append((type_I_census(4) == (17, 70, 18), "r=4 type-I census formula"))

    # stage-6 classes over S5 are all even, and the census agrees with the
    # perfect core (A5); same comparison over S4 and its core
    checks.append((classes_all_even(tower_s5, 6), "stage-6 classes over S5 not all even"))
    checks.append((perfect_core_census_match(tower_s4), "S4 vs core census mismatch"))
    checks.append((perfect_core_census_match(tower_s5), "S5 vs A5 census mismatch"))
    checks.append((tower_a5.is_trivial_at(6), "stage 6 over A5 is not trivial"))

    _report(8, "structural properties", checks)


def test_criterion_09_pi_representation(tower_s5, tower_s6):
    checks: list[Check] = []
    for n in range(3, 7):
        for r in range(n, 7):
            cycle, _, b = pi_representation(n, r)
            checks.append((3 + len(b) == n and cycle.length == 2,
                           f"standard representation broken at (n={n}, r={r})"))
    cycle33, phase33, _ = pi_representation(3, 3)
    checks.append((cycle33.rep_vertex == (3, 4) and phase33 == 1,
                   f"(3,3) lands at {cycle33.rep_vertex} phase {phase33}"))
    checks.append((nontrivial_implies_transitive(tower_s5, 5),
                   "a nontrivial stage-5 class over S5 is intransitive"))
    checks.append((nontrivial_implies_transitive(tower_s6, 6),
                   "a nontrivial stage-6 class over S6 is intransitive"))
    _report(9, "standard representation and transitivity", checks)


def test_criterion_10_braid_counts(s3, s4, tower_s4, tower_z6, z6):
    engine_b6 = tower_s4.level(6).braid_rep_count
    oracle_b4 = brute_hom_Bn(z6, 4)
    engine_b4 = tower_z6.level(4).braid_rep_count
    triv_ok = True
    for group in (s3, s4, z6):
        d = decompose(group)
        trivial = int(d.cycle_index(group.identity, group.identity))
        rows, c = extend_to_braid(d, [trivial], [()])
        triv_ok = triv_ok and rows.tolist() == [0] * group.order and c.tolist() == sorted(group.elements())
    checks = [
        (engine_b6 == 24, f"engine |Hom(B6, S4)| = {engine_b6} != 24"),
        (tower_s4.is_trivial_at(6) and engine_b6 == s4.order,
         "abelianisation shortcut disagrees with the engine"),
        (oracle_b4.rep_count == 6, f"oracle |Hom(B4, Z6)| = {oracle_b4.rep_count} != 6"),
        (engine_b4 == 6, f"engine |Hom(B4, Z6)| = {engine_b4} != 6"),
        (oracle_b4.census == engine_census_Bn(tower_z6, 4), "B4/Z6 census mismatch"),
        (triv_ok, "trivial class does not extend by every element"),
    ]
    _report(10, "braid-group counts", checks)
