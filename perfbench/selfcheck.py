"""Fast self-check of the benchmark harness, about twenty seconds.

    python3 perfbench/selfcheck.py        # from the root of a checkout

1. Reference counts are enforced: each output check accepts real output of a
   small group and rejects it against a perturbed reference, a FAIL line or a
   non-zero exit code.
2. Tracing patches every module-level binding of a traced function and
   restores them; a traced pass that misses a required layer is reported.
3. The seeded table is relabelled differently by two seeds.
4. Every tiny workload goes through run.py, with one seed under --trace 0 and
   another under --trace 1: the result line has the contract's keys, is
   correct, and carries exactly the BENCHMARK.json metrics with their units.
5. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (imports braidrep from ./src)
from tracing import Tracer  # noqa: E402
from workloads import (S3_X_Z6_DETAILS, WORK_DIR, WORKLOADS, Workload,  # noqa: E402
                       relabelled, s3_x_z6_table, shift_check, tower_check,
                       verify_check, write_table)

TINY = ["tiny-tower", "tiny-verify", "tiny-shift"]


def cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = worker.braidrep.cli.main(list(argv))
    return rc, buf.getvalue()


def check_references() -> None:
    rc, out = cli("tower", "S4", "6", "--format", "json")
    assert tower_check(88, {4: 118, 5: 1, 6: 1})(rc, out) is None
    assert tower_check(89, {4: 118, 5: 1, 6: 1})(rc, out)
    assert tower_check(88, {4: 117, 5: 1, 6: 1})(rc, out)
    assert tower_check(88, {4: 118, 5: 1, 6: 1})(4, out)

    rc, out = cli("shift", "SL2(3)", "--format", "json")
    assert shift_check(76, 576)(rc, out) is None
    assert shift_check(75, 576)(rc, out)
    assert shift_check(76, 577)(rc, out)

    rc, out = cli("verify", write_table(relabelled(s3_x_z6_table(), 5), 5), "6")
    assert verify_check(S3_X_Z6_DETAILS)(rc, out) is None
    assert verify_check({**S3_X_Z6_DETAILS, "prop2": "159 stage-4 classes checked"})(rc, out)
    assert verify_check()(rc, out.replace("prop1: PASS", "prop1: FAIL"))
    assert verify_check()(4, out)


def check_tracing() -> None:
    # `from braidrep import shift` would give the function, not the module
    braidrep, analysis, extension, shift, verify = (
        importlib.import_module(name) for name in
        ("braidrep", "braidrep.analysis", "braidrep.extension", "braidrep.shift", "braidrep.verify"))
    bindings = [(braidrep, "compute_tower"), (worker.braidrep.cli, "compute_tower"),
                (verify, "compute_tower"), (analysis, "compute_tower"),
                (extension, "compute_tower"), (extension, "decompose"),
                (worker.braidrep.cli, "decompose"), (shift, "decompose")]
    before = [getattr(m, k) for m, k in bindings]
    tracer = Tracer()
    tracer.install()
    try:
        patched = [getattr(m, k) for m, k in bindings]
        assert all(new is not old and new.__wrapped__ is old for new, old in zip(patched, before))
    finally:
        tracer.uninstall()
    assert all(getattr(m, k) is old for (m, k), old in zip(bindings, before))

    WORKLOADS["selfcheck-missing"] = Workload(WORKLOADS["tiny-shift"].make_ops, ("oracle.kn", "shift"))
    try:
        doc = worker.run_pass("selfcheck-missing", 0, traced=True)
    finally:
        del WORKLOADS["selfcheck-missing"]
    assert doc["missing_layers"] == ["oracle.kn"], doc["missing_layers"]
    assert doc["layers"]["shift.cycles"] == 76


def check_relabelling() -> None:
    base = s3_x_z6_table()
    one, two = relabelled(base, 1), relabelled(base, 2)
    assert one != two and one != base
    assert sorted(map(sorted, one)) == sorted(map(sorted, base))


def run(argv: list[str], cwd: Path) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout.splitlines()


def check_runs(root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for trace, seed, key in ((0, 1, "end_to_end"), (1, 2, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in TINY:
            rc, lines = run(["--workload", name, "--seed", str(seed), "--seconds", "1",
                             "--trace", str(trace)], root)
            assert rc == 0, (name, trace, lines)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            assert {k: v["unit"] for k, v in result["metrics"].items()} == want, (name, trace)
            summary = json.loads(lines[-2].removeprefix("summary: "))
            assert {"nproc", "cpu", "python", "numpy", "commit"} <= set(summary["machine"])
            print(f"ok  {name} --seed {seed} --trace {trace}")


def check_bare_dir(root: Path) -> None:
    bare = root / WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(root / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        rc, lines = run(["--workload", "tower-s6", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        assert rc != 0 and not any(line.startswith("{") for line in lines), (rc, lines)
    finally:
        shutil.rmtree(root / WORK_DIR, ignore_errors=True)


def main() -> int:
    root = Path.cwd()
    check_references()
    check_tracing()
    check_relabelling()
    shutil.rmtree(root / WORK_DIR, ignore_errors=True)
    print("ok  reference checks, tracing, relabelling")
    check_runs(root)
    check_bare_dir(root)
    print("ok  bare directory exits non-zero")
    return 0


if __name__ == "__main__":
    sys.exit(main())
