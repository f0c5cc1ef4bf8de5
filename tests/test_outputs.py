"""Byte-exact CLI documents and the table-reproduction script."""
from __future__ import annotations

import hashlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

import braidrep.cli as cli
from braidrep.analysis import (classes_all_even, count_braid_subgroups, nontrivial_implies_transitive,
                               transitivity_report)
from braidrep.extension import compute_tower
from braidrep.groups import SL2
from braidrep.report import _text, paper_tower_lines, shift_to_json, tower_to_csv, tower_to_json
from braidrep.shift import decompose
from braidrep.verify import run_suites

ROOT = pathlib.Path(__file__).resolve().parent.parent

# sha256 of stdout; any change to these documents must be deliberate
PINNED = {
    ("tower", "S4", "6", "--format", "csv"):
        "6b436af5fe1fb9d98ce0fb7e0021f31fcdf0a30c9804adbf33e2afc512345a62",
    ("shift", "S4", "--format", "dot"):
        "5398c127b6fee1aeac477e65314ca62b803d7f4e76c29e26ddb6a1dc46eb094f",
    ("verify", "S4", "6"):
        "00fe2fefe852438b16d1519b890f41cc7469d597f515623f8b13a34eaf356d7c",
    ("tower", "S4", "6", "--format", "json"):
        "bb76413ee405193f1c25636f38611c51f4b6d83096f13ad58b256bfd956dc61f",
    ("shift", "SL2(7)", "--format", "json"):
        "22e900c1c8bdfabbea83562a721cdd3141ae9a32cccd9c0e32e0e47421cd5121",
    ("tower", "S5", "6", "--format", "json"):
        "d0a67da700fdfae51942259dc13acab63c18269988b798b1436b9b91e9207635",
    ("subgroups", "S4", "6", "--format", "json"):
        "ceaedf2257b1cc84caecaccee191af00dde79dd5be2f5db3f762997633436785",
    ("subgroups", "S6", "7"):
        "3763c1dbe6e24826f24cdefbb488b7fc59f2908033f4538374db458c314e083a",
    ("shift", "S5", "--format", "csv"):
        "7e9fff695734f3fde5f830dfb42f686869ddf4c68dc818111e386164d6c796b9",
    ("shift", "Z2xZ4xZ5", "--format", "json"):
        "cdcad8e946931d577781eb82e4e4f815b40b775a06f113517f3c53b4d05b7e52",
    ("tower", "S5", "6", "--format", "csv"):
        "74f5b2a901a6d2d199e81c45622116e502956c624526b7fa654681b6c0370755",
    ("verify", "S5", "6"):
        "df1166f50adb147e667aafd0a1e736355d614a22e4aabe1712bd2f7a9ba90d11",
    # paper stanzas byte for byte; SL2(3)'s identity handle is not 0; S1 is one cycle of period 1
    ("shift", "S4"):
        "69139fed6d0b261b5bb25a3a377f9b089d94cd642d3587c225b3b380a0601398",
    ("shift", "S4", "--type2"):
        "2a66de11292afd336232ccae6ea4e66d60005baf62ec1c44f9604507adcc5ac8",
    ("shift", "SL2(3)", "--format", "csv"):
        "2b51f2b69d96d9f2741ab38ad88652f95b2166a8aa496b10c645fcc4ba7fc6e8",
    ("shift", "SL2(3)", "--format", "dot"):
        "e9d432e03aefde6e523b1094f92ca94b19203005c2e6c3470262ac7d95467d3f",
    ("shift", "S1", "--format", "dot"):
        "d7317d77e95ff4e38dfd12b52f01d26d57f68b0c0f3301206b2110f24a6c3b2d",
    # no type II cycle: the listing is a lone newline
    ("shift", "S1", "--type2"):
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    ("shift", "Z2", "--type2"):
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    ("tower", "S1", "3", "--format", "csv"):
        "1d97b646f585cb6054b6f9e6ac49cd75f750145e18aa3d984c47860ca7cd6fa0",
    ("braid", "S5", "6"):
        "024a0b7fb1ef221a51fb7ff124104f43345be30c1a6daec75892c5130e8e0128",
}


@pytest.mark.parametrize("argv", PINNED, ids=" ".join)
def test_cli_output_bytes_are_pinned(capsys, argv):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[argv]


# sha256 of `tower S6 7 --format json`, the paper's headline computation
S6_TOWER_SHA256 = "f9c69c044e4cbfc1ace67d5e7fef11feedfb52c00a0ec2eb192dcde8b47f2449"


def test_headline_tower_document_is_pinned(tower_s6):
    out = io.StringIO()
    tower_to_json(tower_s6, out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == S6_TOWER_SHA256


def test_headline_path_builds_no_class_objects(tower_s6, tower_s5):
    # the tower's writers read its arrays
    out = io.StringIO()
    tower_to_json(tower_s6, out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == S6_TOWER_SHA256
    assert tower_s6.is_trivial_at(7) and not tower_s6.is_trivial_at(6)
    assert _text(paper_tower_lines, tower_s6).count("\n") == 2 * 5 + 45
    csv_sha = hashlib.sha256(_text(tower_to_csv, tower_s5).encode()).hexdigest()
    assert csv_sha == PINNED[("tower", "S5", "6", "--format", "csv")]
    # the engine, the suites and the orbit-weighted analysis read the arrays
    # too; S5 has 60 nontrivial classes at stage 5, which prop3 checks
    tower = compute_tower(tower_s5.group, 6)
    assert [r.detail for r in run_suites(tower)][2:4] == [
        "1418 stage-4 classes checked", "60 nontrivial classes at stages >= 5 checked"]
    assert [lvl.subgroup_count for lvl in transitivity_report(tower).levels] == [461, 461, 5, 0]
    assert count_braid_subgroups(6, 5, tower) == 1
    assert nontrivial_implies_transitive(tower, 5) and classes_all_even(tower, 5)


def test_headline_path_builds_no_cycle_objects(s6):
    decomp = decompose(SL2(7))
    out = io.StringIO()
    shift_to_json(decomp, out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED[("shift", "SL2(7)", "--format", "json")]
    assert "cycles" not in vars(decomp)
    tower = compute_tower(s6, 7)
    out = io.StringIO()
    tower_to_json(tower, out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == S6_TOWER_SHA256
    assert _text(paper_tower_lines, tower).count("\n") == 2 * 5 + 45
    assert "cycles" not in vars(tower.decomposition)


# headline counts per stage of S2..S6, as the script prints them
REPRODUCED_LINES = [
    "K3: classes=2 reps=4", "K4: classes=2 reps=4", "K5: classes=1 reps=1",
    "K3: classes=8 reps=36", "K4: classes=8 reps=36",
    "K3: classes=88 reps=576", "K4: classes=118 reps=672", "K6: classes=1 reps=1",
    "K3: classes=1268 reps=14400", "K4: classes=1418 reps=14880", "K5: classes=61 reps=121",
    "K3: classes=33150 reps=518400", "K4: classes=34950 reps=529920", "K5: classes=721 reps=1441",
    "K7: classes=1 reps=1",
]


def test_reproduce_tables_script_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce_tables.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for r in (2, 3, 4, 5, 6):
        assert any(line.startswith(f"--- S{r} (stages 3..") for line in lines)
    for line in REPRODUCED_LINES:
        assert line in lines
