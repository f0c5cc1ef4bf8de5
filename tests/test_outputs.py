"""Byte-exact CLI documents and the table-reproduction script."""
from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import braidrep.cli as cli

ROOT = pathlib.Path(__file__).resolve().parent.parent

# sha256 of stdout; any change to these documents must be deliberate
PINNED = {
    ("tower", "S4", "6", "--format", "csv"):
        "6b436af5fe1fb9d98ce0fb7e0021f31fcdf0a30c9804adbf33e2afc512345a62",
    ("shift", "S4", "--format", "dot"):
        "5398c127b6fee1aeac477e65314ca62b803d7f4e76c29e26ddb6a1dc46eb094f",
    ("verify", "S4", "6"):
        "00fe2fefe852438b16d1519b890f41cc7469d597f515623f8b13a34eaf356d7c",
    ("braid", "S4", "6", "--format", "json"):
        "bb76413ee405193f1c25636f38611c51f4b6d83096f13ad58b256bfd956dc61f",
}


@pytest.mark.parametrize("argv", PINNED, ids=" ".join)
def test_cli_output_bytes_are_pinned(capsys, argv):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[argv]


# headline counts per stage of S2..S5, as the script prints them
REPRODUCED_LINES = [
    "K3: classes=2 reps=4", "K4: classes=2 reps=4", "K5: classes=1 reps=1",
    "K3: classes=8 reps=36", "K4: classes=8 reps=36",
    "K3: classes=88 reps=576", "K4: classes=118 reps=672", "K6: classes=1 reps=1",
    "K3: classes=1268 reps=14400", "K4: classes=1418 reps=14880", "K5: classes=61 reps=121",
]


def test_reproduce_tables_script_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"), "--skip-s6"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for r in (2, 3, 4, 5):
        assert any(line.startswith(f"--- S{r} (stages 3..") for line in lines)
    for line in REPRODUCED_LINES:
        assert line in lines
    assert not any(line.startswith("--- S6") for line in lines)
