"""End-to-end command-line behaviour: output formats and exit codes."""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import pathlib
import resource
import subprocess
import sys

import pytest

import braidrep
import braidrep.cli as cli
from braidrep import groups
from braidrep.extension import TowerLevel
from braidrep.shift import Cycle
from braidrep.verify import SUITE_NAMES, SuiteResult

from conftest import golden_text, normalize_tokens
from test_outputs import PINNED


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# shift
# ---------------------------------------------------------------------------

def test_shift_type2_matches_golden_s3(capsys):
    code, out, _ = run_cli(capsys, "shift", "S3", "--type2")
    assert code == 0
    assert normalize_tokens(out) == normalize_tokens(golden_text("n3_r3.txt"))


def test_shift_type2_matches_golden_s4(capsys):
    code, out, _ = run_cli(capsys, "shift", "S4", "--type2")
    assert code == 0
    assert normalize_tokens(out) == normalize_tokens(golden_text("n3_r4.txt"))


def test_shift_count_only(capsys):
    code, out, _ = run_cli(capsys, "shift", "S4", "--type2", "--count-only")
    assert code == 0
    assert out.strip() == "71"
    code, out, _ = run_cli(capsys, "shift", "S3", "--count-only")
    assert out.strip() == "8"


@pytest.mark.parametrize("argv, count", [(("shift", "S4", "--count-only"), "88"),
                                         (("shift", "S4", "--type2", "--count-only"), "71"),
                                         (("shift", "S4", "--format", "json"), None),
                                         (("shift", "S4"), None),
                                         (("shift", "S4", "--type2"), None),
                                         (("shift", "S5", "--format", "csv"), None),
                                         (("shift", "S4", "--format", "dot"), None)])
def test_shift_counts_and_document_build_no_cycle(capsys, monkeypatch, argv, count):
    def refuse(*args):
        raise AssertionError("a Cycle object was built")
    monkeypatch.setattr(Cycle, "__init__", refuse)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if count is not None:
        assert out.strip() == count
    elif argv in PINNED:
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED[argv]
    else:
        assert len(json.loads(out)["cycles"]) == 88


def test_shift_json_format(capsys):
    code, out, _ = run_cli(capsys, "shift", "S3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "braidrep.shift.v1"
    assert doc["indexing"] == "0-based"
    assert len(doc["cycles"]) == 8


@pytest.mark.parametrize("fmt", ["json", "csv", "dot"])
def test_shift_type2_needs_paper_format(capsys, fmt):
    code, out, err = run_cli(capsys, "shift", "S3", "--type2", "--format", fmt)
    assert code == 2
    assert out == ""
    assert "--type2" in err


@pytest.mark.parametrize("argv", [
    ("shift", "S3", "--count-only", "--format", "json"),
    ("shift", "S3", "--count-only", "--format", "dot"),
    ("tower", "S3", "4", "--count-only", "--format", "json"),
    ("tower", "S3", "4", "--count-only", "--format", "csv"),
], ids=" ".join)
def test_count_only_needs_paper_format(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--count-only" in err


def test_shift_csv_format(capsys):
    code, out, _ = run_cli(capsys, "shift", "S3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("cycle,")
    assert len(lines) == 9


def test_shift_dot_format(capsys):
    code, out, _ = run_cli(capsys, "shift", "S2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph shift {")


# ---------------------------------------------------------------------------
# tower
# ---------------------------------------------------------------------------

def test_tower_paper_block_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "tower", "S4", "4")
    assert code == 0
    block = [l for l in out.splitlines() if l.startswith("[")]
    assert normalize_tokens("\n".join(block)) == normalize_tokens(golden_text("n4_r4.txt"))
    assert "K3: classes=88 reps=576" in out
    assert "K4: classes=118 reps=672" in out


def test_tower_count_only(capsys):
    code, out, _ = run_cli(capsys, "tower", "S4", "4", "--count-only")
    assert code == 0
    assert not any(l.startswith("[") for l in out.splitlines())
    assert "K4: classes=118 reps=672" in out
    assert "B4: " in out


def test_tower_counts_s2(capsys):
    code, out, _ = run_cli(capsys, "tower", "S2", "5", "--count-only")
    assert code == 0
    assert "K3: classes=2 reps=4" in out
    assert "K4: classes=2 reps=4" in out
    assert "K5: classes=1 reps=1" in out
    assert "B5: classes=2 reps=2" in out


def test_tower_json_format(capsys):
    code, out, _ = run_cli(capsys, "tower", "S3", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "braidrep.tower.v1"
    assert doc["n_max"] == 4
    assert doc["levels"][0]["rep_count"] == 36


def test_tower_csv_format(capsys):
    code, out, _ = run_cli(capsys, "tower", "S2", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,")
    assert len(lines) == 5  # header + 2 classes at stage 3 + 2 at stage 4


# ---------------------------------------------------------------------------
# subgroups and braid
# ---------------------------------------------------------------------------

def test_subgroups_s3(capsys):
    code, out, _ = run_cli(capsys, "subgroups", "S3", "4")
    assert code == 0
    assert "K3: transitive reps = 26, subgroups of index 3 = 13" in out
    assert "K4: transitive reps = 26, subgroups of index 3 = 13" in out


def test_subgroups_csv(capsys):
    code, out, _ = run_cli(capsys, "subgroups", "S2", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,r,transitive_reps,subgroups"
    assert lines[1] == "3,2,3,3"
    assert lines[-1] == "5,2,0,0"


def test_subgroups_csv_rows_end_in_crlf(capsys):
    # as in the shift and tower CSV listings
    code, out, _ = run_cli(capsys, "subgroups", "S2", "4", "--format", "csv")
    assert code == 0
    assert out == "n,r,transitive_reps,subgroups\r\n3,2,3,3\r\n4,2,3,3\r\n"


def test_subgroups_requires_symmetric_group(capsys):
    code, _, err = run_cli(capsys, "subgroups", "Z6", "4")
    assert code == 2
    assert "symmetric" in err


def test_braid_count_only(capsys):
    code, out, _ = run_cli(capsys, "braid", "S4", "6", "--count-only")
    assert code == 0
    assert out.strip() == "24"


def test_braid_has_no_format_option(capsys):
    # the tower document is `tower --format json|csv`
    with pytest.raises(SystemExit) as exc:
        cli.main(["braid", "S3", "4", "--format", "csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_braid_paper_lines(capsys):
    code, out, _ = run_cli(capsys, "braid", "S3", "5")
    assert code == 0
    assert "B3: classes=9 reps=12" in out
    assert "B4: classes=9 reps=12" in out
    assert "B5: classes=6 reps=6" in out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_s3(capsys):
    code, out, _ = run_cli(capsys, "verify", "S3", "4")
    assert code == 0
    for name in SUITE_NAMES:
        assert f"{name}: PASS" in out
    assert "FAIL" not in out


def test_verify_notes_trivial_stage(capsys):
    code, out, _ = run_cli(capsys, "verify", "S2", "5")
    assert code == 0
    assert "note: PASS - stage 5 is trivial over S2" in out
    assert "oracle-eq: PASS" in out


def test_verify_budget_exhaustion_exit_code(capsys):
    code, _, err = run_cli(capsys, "verify", "S3", "4", "--budget", "10")
    assert code == 3
    assert "resource limit" in err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_verify_budget_below_one_is_a_usage_error(capsys, monkeypatch, budget):
    monkeypatch.setattr(cli, "parse_group_spec", lambda spec: pytest.fail("group parsed before the budget was checked"))
    code, out, err = run_cli(capsys, "verify", "S3", "4", "--budget", budget)
    assert code == 2
    assert out == ""
    assert f"error: relation-check budget must be at least 1, got {budget}" in err


def test_a_reused_parser_carries_nothing_between_runs(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda fn=cli.build_parser: built.append(1) or fn())
    monkeypatch.setattr(cli, "_parser", None)
    assert run_cli(capsys, "verify", "S4", "6", "--budget", "0")[0] == 2
    code, out, _ = run_cli(capsys, "verify", "S4", "6")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[("verify", "S4", "6")]
    together = [run_cli(capsys, "tower", "S3", "4", "--count-only"),
                run_cli(capsys, "tower", "S3", "4", "--format", "json")]
    assert built == [1]
    alone = []
    for argv in (["--count-only"], ["--format", "json"]):
        monkeypatch.setattr(cli, "_parser", None)
        alone.append(run_cli(capsys, "tower", "S3", "4", *argv))
    assert together == alone
    assert all(code == 0 and out and not err for code, out, err in together)


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suites",
                        lambda *a, **k: [SuiteResult("census", False, "forced")])
    code, out, err = run_cli(capsys, "verify", "S2", "3")
    assert code == 4
    assert "census: FAIL - forced" in out
    assert "verification failure" in err


# ---------------------------------------------------------------------------
# graph export: the successor graph is `shift --format dot`
# ---------------------------------------------------------------------------

def test_export_graph_to_file(tmp_path):
    # a file is written by redirecting stdout, as `braidrep shift S2 --format dot > s2.dot`
    target = tmp_path / "s2.dot"
    with open(target, "w") as fh:
        proc = subprocess.run([sys.executable, "-m", "braidrep.cli", "shift", "S2", "--format", "dot"],
                              stdout=fh, stderr=subprocess.PIPE, text=True, timeout=20, env=_cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    text = target.read_text()
    assert text.startswith("digraph shift {")
    assert text.count("->") == 4


def test_export_graph_stdout(capsys):
    code, out, _ = run_cli(capsys, "shift", "S2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph shift {")
    assert out.count("->") == 4


# ---------------------------------------------------------------------------
# exit codes for bad invocations
# ---------------------------------------------------------------------------

def test_unknown_group_exits_2(capsys):
    code, _, err = run_cli(capsys, "shift", "Q8")
    assert code == 2
    assert "error:" in err


def test_missing_group_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["shift"])
    assert exc.value.code == 2
    assert "GROUP" in capsys.readouterr().err


def test_missing_nmax_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tower", "S3"])
    assert exc.value.code == 2
    assert "NMAX" in capsys.readouterr().err


def test_settable_values_per_command():
    # every option, flag and positional a user can set; a new knob edits this on purpose
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    counts = {name: sum(not isinstance(a, argparse._HelpAction) for a in p._actions)
              for name, p in sub.choices.items()}
    assert counts == {"shift": 4, "tower": 4, "subgroups": 3, "braid": 3, "verify": 3}
    assert sum(counts.values()) == 17


def test_nmax_below_tower_start_exits_2(capsys):
    code, _, err = run_cli(capsys, "tower", "S3", "2")
    assert code == 2


# the least S_r and Z_k whose tables are over the cap
_OVER_CAP_R = next(r for r in itertools.count(1) if math.factorial(r) ** 2 > groups.MAX_TABLE_ENTRIES)
_OVER_CAP_K = math.isqrt(groups.MAX_TABLE_ENTRIES) + 1


@pytest.mark.parametrize("argv", [("shift", f"S{_OVER_CAP_R}"), ("shift", "S12"),
                                  ("tower", "SL2(101)", "4"), ("shift", f"Z{_OVER_CAP_K}")])
def test_group_over_table_cap_exits_3(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert f"MAX_TABLE_ENTRIES = {groups.MAX_TABLE_ENTRIES}" in err


def _refuse_expand(self):
    raise AssertionError("a level was expanded")


# counts and subgroups read the rows the scans found, never the listing
@pytest.mark.parametrize("argv", [("tower", "S6", "7", "--count-only"), ("braid", "S6", "7"),
                                  ("braid", "S6", "7", "--count-only"),
                                  *(("subgroups", "S6", "7", "--format", f) for f in ("paper", "json", "csv"))],
                         ids=" ".join)
def test_counts_and_subgroups_expand_no_level(capsys, monkeypatch, argv):
    expected = run_cli(capsys, *argv)
    assert expected[0] == 0 and expected[1]
    monkeypatch.setattr(TowerLevel, "expand", _refuse_expand)
    assert run_cli(capsys, *argv) == expected


def _cli_env() -> dict:
    src = str(pathlib.Path(braidrep.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("spec", [
    "S100000",
    "S1000000",
    "SL2(1000000000000000000000007)",
    "S" + "9" * 5000,
    "Z" + "9" * 5000,
], ids=["S100000", "S1000000", "SL2-25-digit-prime", "S-5000-digits", "Z-5000-digits"])
def test_oversized_spec_exits_cleanly(spec):
    # a fresh interpreter with a timeout, so that a hang fails instead of stalling the suite
    proc = subprocess.run([sys.executable, "-m", "braidrep.cli", "shift", spec],
                          capture_output=True, text=True, timeout=20, env=_cli_env())
    assert proc.returncode in (2, 3)
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(("error:", "resource limit:")), proc.stderr


def test_tower_verify_and_shift_leave_numpy_ma_unimported():
    # numpy imports numpy.ma on the first np.unique call, about 13 ms of every
    # fresh process; the commands find distinct handles with masks instead
    code = ("import contextlib, io, sys\n"
            "from braidrep.cli import main\n"
            "for argv in (['tower', 'S4', '6', '--format', 'json'], ['verify', 'S4', '6'],\n"
            "             ['shift', 'SL2(3)', '--format', 'json']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=_cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("case", ["unset", "preset", "numpy-first"])
def test_a_run_keeps_one_thread_and_the_environment(case):
    # importing braidrep loads numpy with OPENBLAS_NUM_THREADS=1 and removes it
    # again, unless the host imported numpy first or set a thread count itself
    env = {k: v for k, v in _cli_env().items() if k not in _THREAD_VARS}
    if case == "preset":
        env["OPENBLAS_NUM_THREADS"] = "2"
    code = ("import contextlib, io, json, os\n"
            + ("import numpy\n" if case == "numpy-first" else "")
            + "before = dict(os.environ)\n"
            "from braidrep.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['tower', 'S4', '6', '--count-only']) == 0\n"
            "print(json.dumps([len(os.listdir('/proc/self/task')),\n"
            "                  os.environ.get('OPENBLAS_NUM_THREADS'), dict(os.environ) == before]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    threads, variable, unchanged = json.loads(proc.stdout)
    assert unchanged
    if case == "unset":
        assert threads == 1 and variable is None
    elif case == "preset":
        assert variable == "2"
    else:
        assert variable is None


def _limit_address_space():
    # 1.5 GB: the interpreter and numpy fit, an unbounded read of /dev/zero does not
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


def _run_limited(*argv):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=20,
                          env=_cli_env(), preexec_fn=_limit_address_space)


@pytest.mark.parametrize("endless,message", [(True, "does not give its order in its first 16 bytes"),
                                             (False, "is longer than 160 bytes")], ids=["dev-zero", "over-long"])
def test_endless_or_over_long_table_file_exits_cleanly(tmp_path, endless, message):
    path = "/dev/zero"
    if not endless:
        # a valid table of Z3 (20 bytes), then zero bytes far past its bound of
        # 16 * (3^2 + 1) = 160 bytes: 2 GB, more than the address space, in a sparse file
        path = tmp_path / "z3.txt"
        with open(path, "wb") as fh:
            fh.write(b"3\n0 1 2\n1 2 0\n2 0 1\n")
            fh.truncate(2 << 30)
    proc = _run_limited("-m", "braidrep.cli", "shift", f"table:{path}")
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: Cayley table file {path} {message}"), proc.stderr


def test_document_naming_an_endless_table_file_is_a_usage_error():
    code = ("from braidrep.report import shift_from_json\n"
            "doc = {'schema': 'braidrep.shift.v1', 'group': 'table:/dev/zero', 'order': 3}\n"
            "try:\n    shift_from_json(doc)\n"
            "except ValueError as exc:\n    print(type(exc).__name__, exc)\n")
    proc = _run_limited("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("UsageError Cayley table file /dev/zero ")


# listings far larger than a pipe buffer, each with how it starts
STREAMED = [
    (("tower", "S5", "6", "--format", "json"), b'{\n  "schema": "braidrep.tower.v1"'),
    (("shift", "S6"), b"B[1, 1] = [1]\n\n1\n\nB[1, 2] = [2, 1, 2]"),
    (("shift", "S6", "--format", "csv"), b"cycle,a0,a1,length,type,word\r\n0,1,1,1,I,1\r\n"),
    (("shift", "S6", "--format", "dot"), b"digraph shift {\n  rankdir=LR;\n  v0 "),
    (("tower", "S6", "7", "--format", "csv"), b"n,a0,a1,length,type,b,c_count,c_set\r\n3,1,1,1,I,,"),
]


@pytest.mark.parametrize("argv, start", STREAMED, ids=[" ".join(argv) for argv, _ in STREAMED])
def test_closed_stdout_exits_1_without_traceback(argv, start):
    # writes continue after the close
    proc = subprocess.Popen([sys.executable, "-m", "braidrep.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    try:
        head = proc.stdout.read(100)
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stderr.close()
    assert head.startswith(start)
    assert code == 1
    assert "Traceback" not in err, err


def test_stage_cap(capsys):
    code, _, err = run_cli(capsys, "tower", "S2", "101")
    assert code == 3
    assert "MAX_STAGE = 100" in err
    code, out, _ = run_cli(capsys, "tower", "S2", "100", "--count-only")
    assert code == 0
    assert "K100: classes=1 reps=1" in out


def test_unknown_subcommand_is_rejected_by_argparse():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate", "S3"])
