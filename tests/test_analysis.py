"""Transitivity, subgroup counts, type-I structure, abelian closed forms,
and the alternating-3-cycle sanity representation."""
from __future__ import annotations

import math

import numpy as np
import pytest

import braidrep.analysis as analysis
from braidrep.analysis import (
    _transitive,
    abelian_cycle_length,
    classes_all_even,
    count_braid_subgroups,
    count_subgroups,
    nontrivial_implies_transitive,
    perfect_core_census_match,
    pi_representation,
    transitivity_report,
    type_I_census,
)
from braidrep.errors import UsageError, VerificationError
from braidrep.extension import compute_tower
from braidrep.groups import AbelianProduct, SymmetricGroup, alternating_group
from braidrep.shift import decompose

from conftest import cycle_index, cycle_map, cycles_of, level_rows, make_cycle


# ---------------------------------------------------------------------------
# orbits and transitivity
# ---------------------------------------------------------------------------

def test_orbits_need_symmetric_backend(tower_z6):
    with pytest.raises(UsageError):
        transitivity_report(tower_z6)


def _transitive_set(S, gens):
    """Whether the one generator set `gens` acts transitively."""
    gens = np.array(sorted(gens), dtype=np.intp)
    return bool(_transitive(S, np.zeros(gens.size, dtype=np.intp), gens, 1)[0])


def test_is_transitive(s3):
    d = decompose(s3)

    def transitive(cycle):
        return _transitive_set(s3, set(cycle.a_seq))

    assert transitive(make_cycle(d, cycle_index(d, 3, 4)))
    assert not transitive(make_cycle(d, cycle_index(d, 0, 1)))
    assert not transitive(make_cycle(d, cycle_index(d, s3.identity, s3.identity)))


def test_transitivity_report_structure(tower_s4):
    report = transitivity_report(tower_s4)
    for lvl in report.levels:
        assert lvl.transitive_rep_count == lvl.subgroup_count * 6
    with pytest.raises(UsageError):
        report.level(99)


def _orbit_closure(S, gens):
    """Orbits of {1..r} by closing each point under the generators' images."""
    images = [S.image(g) for g in gens]
    orbits, seen = [], set()
    for start in range(1, S.r + 1):
        if start in seen:
            continue
        block, frontier = {start}, [start]
        while frontier:
            x = frontier.pop()
            for img in images:
                if img[x - 1] not in block:
                    block.add(img[x - 1])
                    frontier.append(img[x - 1])
        seen |= block
        orbits.append(tuple(sorted(block)))
    return tuple(orbits)


def _generators(cycle, b):
    return tuple(sorted(set(cycle.a_seq) | set(b)))


def _is_even(S, g):
    """Parity by counting the inversions of g's image."""
    image = S.image(g)
    return sum(x > y for i, x in enumerate(image) for y in image[i + 1:]) % 2 == 0


def test_transitivity_report_matches_orbit_closure(tower_s4, tower_s5):
    for tower in (tower_s4, tower_s5):
        S = tower.group
        report = transitivity_report(tower)
        for lvl, orbit_lvl in zip(tower.levels, report.levels):
            assert orbit_lvl.transitive_rep_count == sum(
                cycle.length for cycle, b, _ in level_rows(lvl) if len(_orbit_closure(S, _generators(cycle, b))) == 1)


def test_structural_claims_match_every_class(tower_s4, tower_s5):
    for tower in (tower_s4, tower_s5):
        S = tower.group
        e = S.identity
        for lvl in tower.levels:
            rows = level_rows(lvl)
            assert nontrivial_implies_transitive(tower, lvl.n) == all(
                len(_orbit_closure(S, _generators(cycle, b))) == 1
                for cycle, b, _ in rows if not (cycle.length == 1 and cycle.a_seq[0] == e and set(b) <= {e}))
            assert classes_all_even(tower, lvl.n) == all(
                _is_even(S, g) for cycle, b, _ in rows for g in _generators(cycle, b))


# ---------------------------------------------------------------------------
# subgroup counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,r,count",
    [(3, 2, 3), (3, 3, 13), (4, 2, 3), (4, 3, 13)],
)
def test_count_subgroups_low_stages(n, r, count):
    assert count_subgroups(n, r) == count


def test_count_subgroups_with_precomputed_towers(tower_s2, tower_s3, tower_s4, tower_s5):
    assert count_subgroups(3, 3, tower_s3) == 13
    assert count_subgroups(5, 2, tower_s2) == 0
    assert count_subgroups(5, 3, tower_s3) == 0
    assert count_subgroups(5, 4, tower_s4) == 0
    assert count_subgroups(6, 4, tower_s4) == 0
    assert count_subgroups(6, 5, tower_s5) == 0


def test_count_subgroups_degenerate_index():
    assert count_subgroups(3, 1) == 1
    assert count_subgroups(3, 0) == 0
    assert count_subgroups(3, -1) == 0
    assert count_braid_subgroups(3, 1) == 1
    assert count_braid_subgroups(3, 0) == 0
    assert count_braid_subgroups(3, -1) == 0


def test_count_braid_subgroups(tower_s2, tower_s3, tower_s4, tower_s5):
    assert count_braid_subgroups(6, 1) == 1
    assert count_braid_subgroups(6, 2, tower_s2) == 1
    assert count_braid_subgroups(6, 3, tower_s3) == 1
    assert count_braid_subgroups(6, 4, tower_s4) == 1
    assert count_braid_subgroups(6, 5, tower_s5) == 1


def test_count_braid_subgroups_needs_trivial_stage(tower_s5):
    with pytest.raises(UsageError):
        count_braid_subgroups(5, 5, tower_s5)


def test_count_subgroups_rejects_a_tower_over_another_group(tower_s4, tower_z6):
    with pytest.raises(UsageError):
        count_subgroups(4, 3, tower_s4)
    with pytest.raises(UsageError):
        count_subgroups(4, 6, tower_z6)


def test_count_braid_subgroups_rejects_a_tower_over_another_group(tower_s2, tower_z6):
    with pytest.raises(UsageError):
        count_braid_subgroups(5, 4, tower_s2)
    with pytest.raises(UsageError):
        count_braid_subgroups(4, 6, tower_z6)


def _free_group_subgroup_counts(r_max):
    """Index-r subgroup counts of the free group of rank 2 (M. Hall, 1949):
    a_r = r * r! - sum over k < r of (r - k)! * a_k."""
    a = {}
    for r in range(1, r_max + 1):
        a[r] = r * math.factorial(r) - sum(math.factorial(r - k) * a[k] for k in range(1, r))
    return a


def test_k3_subgroup_counts_are_the_free_group_counts(tower_s2, tower_s3, tower_s4, tower_s5, tower_s6):
    # K_3 is free of rank 2, so its index-r subgroups are F_2's
    a = _free_group_subgroup_counts(6)
    assert [a[r] for r in range(2, 7)] == [3, 13, 71, 461, 3447]
    for tower in (tower_s2, tower_s3, tower_s4, tower_s5, tower_s6):
        assert transitivity_report(tower).level(3).subgroup_count == a[tower.group.r]


@pytest.mark.parametrize("tower_name,n,count", [
    ("tower_s4", 5, 24), ("tower_s5", 6, 120), ("tower_s6", 7, 720),    # r < n: r!
    ("tower_s5", 5, 240), ("tower_s6", 6, 2160),                        # r = n: 2 * 5!, 3 * 6!
])
def test_braid_rep_counts_match_artins_closed_forms(request, tower_name, n, count):
    # Artin: for r < n every representation B_n -> S_r is cyclic, one for each
    # image of sigma_1; for r = n the conjugates of the standard representation
    # add r!, and for r = 6 those of its composite with S6's outer automorphism
    # add 6! more
    assert request.getfixturevalue(tower_name).level(n).braid_rep_count == count


def test_subgroups_path_builds_no_class_objects():
    tower = compute_tower(SymmetricGroup(5), 6)
    assert [lvl.transitive_rep_count for lvl in transitivity_report(tower).levels] == [
        11064, 11064, 120, 0]
    assert count_braid_subgroups(6, 5, tower) == 1
    assert nontrivial_implies_transitive(tower, 5)
    assert classes_all_even(tower, 6)
    assert "cycles" not in vars(tower.decomposition)


# ---------------------------------------------------------------------------
# type-I structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_type_I_census_formulas_match_enumeration(r):
    S = SymmetricGroup(r)
    d = decompose(S)
    cycles = [c for c in cycles_of(d) if c.cycle_type == "I"]
    reps = sum(c.length for c in cycles)
    transitive_reps = sum(
        c.length for c in cycles
        if _transitive_set(S, set(c.a_seq)))
    assert type_I_census(r) == (len(cycles), reps, transitive_reps)


def test_type_I_census_values():
    assert type_I_census(2) == (2, 4, 3)
    assert type_I_census(3) == (5, 16, 6)
    assert type_I_census(4) == (17, 70, 18)
    with pytest.raises(UsageError):
        type_I_census(1)


def test_type_I_census_r6_against_tower(tower_s6):
    d = tower_s6.decomposition
    assert type_I_census(6)[:2] == (int(d.is_type_I.sum()), int(d.lengths[d.is_type_I].sum()))


# ---------------------------------------------------------------------------
# abelian closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "moduli", [(6,), (2, 4), (5,), (2, 2)], ids=lambda m: "Z" + "xZ".join(map(str, m))
)
def test_abelian_cycle_length_matches_walk(moduli):
    G = AbelianProduct(moduli)
    d = decompose(G)
    cycle_of_code = cycle_map(d)
    for v0 in G.elements():
        for v1 in G.elements():
            assert abelian_cycle_length(G, (v0, v1)) == make_cycle(d, cycle_of_code[v0 * G.order + v1]).length


def test_abelian_census_z5():
    assert decompose(AbelianProduct((5,))).period_census == {1: 1, 6: 4}


def test_abelian_cycle_length_rejects_nonabelian(s3):
    with pytest.raises(UsageError):
        abelian_cycle_length(s3, (0, 1))


# ---------------------------------------------------------------------------
# the alternating-3-cycle representation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,r", [(n, r) for n in range(3, 7) for r in range(n, 7)])
def test_pi_representation_exists(n, r):
    i, phase, b = pi_representation(n, r)
    cycle = make_cycle(decompose(SymmetricGroup(r)), i)
    assert 3 + len(b) == n
    assert cycle.length == 2
    assert 0 <= phase < 2
    assert _transitive_set(SymmetricGroup(r), _generators(cycle, b)) == (r == n)


def test_pi_representation_location(s3):
    d = decompose(s3)
    i, phase, b = pi_representation(3, 3, d)
    cycle = make_cycle(d, i)
    assert cycle.rep_vertex == (3, 4)
    assert phase == 1
    assert (cycle.a_seq[phase], cycle.a_seq[(phase + 1) % 2]) == (4, 3)
    assert b == ()


def test_pi_representation_images(s5):
    i, phase, b = pi_representation(5, 5)
    cycle = make_cycle(decompose(s5), i)
    assert (cycle.a_seq[phase], cycle.a_seq[(phase + 1) % 2]) == (48, 30)
    assert b == (26, 25)
    assert s5.image(b[0]) == (2, 1, 4, 3, 5)
    assert s5.image(b[1]) == (2, 1, 3, 5, 4)


def test_pi_representation_class_is_found_by_tower(tower_s5):
    i, _, b = pi_representation(5, 5, tower_s5.decomposition)
    assert (make_cycle(tower_s5.decomposition, i), b) in [(c, bb) for c, bb, _ in level_rows(tower_s5.level(5))]


@pytest.mark.parametrize("scan,n", [("extend_to_K4", 4), ("extend_step", 5)])
def test_pi_representation_raises_when_the_scan_finds_no_image(monkeypatch, scan, n):
    empty = np.empty(0, dtype=np.intp)
    monkeypatch.setattr(analysis, scan, lambda *args: (empty, empty))
    with pytest.raises(VerificationError, match=f"breaks a stage-{n} relation"):
        pi_representation(n, n)


def test_pi_representation_argument_errors():
    with pytest.raises(UsageError):
        pi_representation(2, 5)
    with pytest.raises(UsageError):
        pi_representation(4, 3)
    with pytest.raises(UsageError):
        pi_representation(3, 4, decompose(SymmetricGroup(3)))


# ---------------------------------------------------------------------------
# structural claims on towers
# ---------------------------------------------------------------------------

def test_nontrivial_implies_transitive_high_stages(tower_s5, tower_s6):
    assert nontrivial_implies_transitive(tower_s5, 5)
    assert nontrivial_implies_transitive(tower_s6, 6)


def test_nontrivial_classes_can_be_intransitive_low_stages(tower_s4):
    assert not nontrivial_implies_transitive(tower_s4, 3)


def test_classes_all_even(tower_s4, tower_s5, tower_s6):
    assert not classes_all_even(tower_s4, 3)
    assert classes_all_even(tower_s5, 6)
    assert classes_all_even(tower_s6, 6)


@pytest.mark.parametrize("r", range(1, 7))
def test_parities_and_alternating_group_match_inversion_counts(r):
    S = SymmetricGroup(r)
    evens = [g for g in S.elements() if _is_even(S, g)]
    assert S.parities.tolist() == [0 if g in evens else 1 for g in S.elements()]
    if r >= 2:
        # A_r is the table of the even handles, renumbered in S_r's order
        mul_a, _ = alternating_group(r).tables()
        assert np.array_equal(np.array(evens)[mul_a], S.tables()[0][np.ix_(evens, evens)])


def test_perfect_core_census_match(tower_s4, tower_s5, s6):
    assert perfect_core_census_match(tower_s4)
    assert perfect_core_census_match(tower_s5)
    # stage 6 over S6 has 721 classes, not only the trivial one, all inside A6,
    # whose handles differ from S6's
    tower = compute_tower(s6, 6)
    assert tower.level(6).class_count == 721
    assert perfect_core_census_match(tower)
