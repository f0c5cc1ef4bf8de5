"""braidrep benchmark: run one workload for a fixed time and report its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tower-s6 --seed 1 --seconds 25 --trace 0

The run is a closed loop of passes, one after another.  Each pass is a fresh
interpreter (`worker.py`) that imports braidrep from ./src and calls
`braidrep.cli.main(argv)` once per operation of the workload, with the default
`--threads 1`.  Passes start until --seconds have elapsed, so the last one
may run past it.  Before each pass, two more interpreters only import
`braidrep.cli`, so that set-up time has enough samples.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, each the median
over the passes.  --trace 1 alternates untraced and traced passes and reports
the per-layer metrics (medians over the traced passes) and the tracing
overhead.  Metric names and units come from BENCHMARK.json.

Every operation's output is checked against reference counts.  The last line
of stdout is the result JSON; the line before it is a human-readable summary
with the machine, the per-pass values and fail_rate.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 2          # set-up-only interpreters before each pass
RUN_LIMIT_S = 170          # every run must end well inside 180 s

# Per-layer numbers the tracer measures but BENCHMARK.json does not list.
UNLISTED = {
    "oracle.bn_s": "verify skips the B_n oracle when |G|^(n-1) > 500000, "
                   "which holds for every verify-small operation",
    "oracle.bn_relation_checks": "as oracle.bn_s",
}


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spawn(extra: list[str], timeout: float) -> dict | None:
    """Start one worker interpreter and return its JSON result, or None."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--t0", repr(t0), *extra]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"worker timed out: {' '.join(extra)}", file=sys.stderr)
            return None
    if proc.returncode != 0 or not out.strip():
        print(f"worker exited with {proc.returncode}: {' '.join(extra)}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args) -> tuple[list[dict | None], list[tuple[bool, dict | None]]]:
    """Passes until --seconds have elapsed, each after a few set-up probes.

    The probes are spread over the run so that set-up time is sampled at the
    same moments as the passes."""
    started = time.monotonic()
    remaining = lambda: RUN_LIMIT_S - (time.monotonic() - started)  # noqa: E731
    probes: list[dict | None] = []
    passes: list[tuple[bool, dict | None]] = []
    while (time.monotonic() - started < args.seconds
           or (args.trace and len(passes) < 2)) and remaining() > 0:
        probes += [spawn([], remaining()) for _ in range(SETUP_PROBES)]
        traced = bool(args.trace) and len(passes) % 2 == 1
        extra = ["--workload", args.workload, "--seed", str(args.seed)] + (["--traced"] if traced else [])
        passes.append((traced, spawn(extra, remaining())))
    return probes, passes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not Path("src/braidrep/cli.py").is_file():
        print("error: run from the root of a braidrep checkout (src/braidrep not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORK_DIR, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    n_ops = len(WORKLOADS[args.workload].make_ops(args.seed))   # also writes the seeded inputs
    try:
        probes, passes = measure(args)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if any(p is None for p in probes):
        print("error: a set-up probe failed", file=sys.stderr)
        return 2

    attempted = failed = 0
    problems = []
    for traced, doc in passes:
        attempted += n_ops
        if doc is None:
            failed += n_ops
            problems.append("a pass crashed or timed out")
            continue
        bad = [op for op in doc["ops"] if op["error"]]
        if traced and doc["missing_layers"]:
            problems.append(f"traced pass recorded no calls of {doc['missing_layers']}")
            bad = doc["ops"]
        failed += len(bad)
        problems += [f"{' '.join(op['argv'])}: {op['error']}" for op in bad if op["error"]]
    good = [(traced, doc) for traced, doc in passes if doc is not None]
    plain = [doc for traced, doc in good if not traced]
    traced_docs = [doc for traced, doc in good if traced]
    if not plain or (args.trace and not traced_docs):
        print("error: no pass completed", file=sys.stderr)
        for p in problems:
            print(p, file=sys.stderr)
        return 1

    med = lambda key, docs=plain: statistics.median(d[key] for d in docs)  # noqa: E731
    setups = [d["setup_s"] for d in probes + [doc for _, doc in good]]
    e2e = {
        "wall_s": metric(med("wall_s"), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "cpu_s": metric(med("cpu_s"), "s"),
        "peak_rss_mb": metric(med("peak_rss_mb"), "MB"),
        "fail_rate": metric(failed / attempted, "ratio"),
    }
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": {**machine(), "numpy": probes[0]["numpy"]},
        "passes": len(passes), "traced_passes": len(traced_docs),
        "end_to_end": e2e,
        "pass_wall_s": [round(d["wall_s"], 4) for d in plain],
        "setup_samples_s": [round(s, 4) for s in setups],
        "problems": problems[:10],
    }
    if args.trace:
        layers = {k: statistics.median(d["layers"][k] for d in traced_docs)
                  for k in traced_docs[0]["layers"]}
        layers["trace.overhead_s"] = med("wall_s", traced_docs) - med("wall_s")
        summary["traced_wall_s"] = [round(d["wall_s"], 4) for d in traced_docs]
        summary["unlisted_layers"] = {k: {"value": layers[k], "why": why} for k, why in UNLISTED.items()}
        values = layers
    else:
        values = {k: m["value"] for k, m in e2e.items()}
    print("summary: " + json.dumps(summary))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metric(values[name], unit) for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
