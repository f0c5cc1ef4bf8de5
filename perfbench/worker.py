"""One pass of a workload in a fresh interpreter; `run.py` starts it.

Usage: worker.py --t0 T [--workload NAME --seed N [--traced]]

T is the parent's CLOCK_MONOTONIC reading taken just before it started this
interpreter, so `setup_s` spans interpreter start-up through the import of
`braidrep.cli`.  Without --workload the worker only reports its set-up time.
The result is one JSON line on stdout; the operations' own output is captured
in memory.
"""
import os
import sys
import time

sys.path.insert(0, os.path.abspath("src"))
import braidrep.cli  # noqa: E402

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _run_op(argv: list[str]) -> tuple[int | None, str, str | None]:
    """Call the CLI in-process; return (exit code, stdout, error)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = braidrep.cli.main(argv)
    except SystemExit as exc:          # argparse exits on a usage error
        return exc.code, buf.getvalue(), None
    except Exception:                  # a crash fails this operation, not the pass
        return None, buf.getvalue(), traceback.format_exc(limit=3)
    return rc, buf.getvalue(), None


def run_pass(name: str, seed: int, traced: bool) -> dict:
    workload = WORKLOADS[name]
    ops = workload.make_ops(seed)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    runs = []
    try:
        for op in ops:
            t, cpu0 = time.perf_counter(), _cpu_s()
            rc, out, err = _run_op(list(op.argv))
            runs.append((op, time.perf_counter() - t, _cpu_s() - cpu0, rc, out, err))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss   # before the checks parse outputs
    finally:
        if tracer:
            tracer.uninstall()

    results = []
    for op, wall, cpu, rc, out, err in runs:
        if err is None:
            try:
                err = op.check(rc, out)
            except (ValueError, KeyError, TypeError) as exc:
                err = f"unreadable output: {exc!r}"
        results.append({"argv": list(op.argv), "wall_s": wall, "cpu_s": cpu, "error": err})
    doc = {
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": peak_kb / 1024,
        "bytes_out": sum(len(r[4].encode()) for r in runs),
        "ops": results,
    }
    if tracer:
        calls = tracer.calls()
        doc["layers"] = tracer.layer_metrics()
        doc["layers"]["report.bytes_out"] = doc["bytes_out"]
        doc["missing_layers"] = [layer for layer in workload.layers
                                 if not any(n == layer or n.startswith(layer + ".") for n in calls)]
    return doc


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    src = os.path.abspath("src") + os.sep
    if not os.path.abspath(braidrep.cli.__file__).startswith(src):
        print(f"braidrep was imported from {braidrep.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    doc = {"setup_s": READY - args.t0, "numpy": numpy.__version__}
    if args.workload:
        doc.update(run_pass(args.workload, args.seed, args.traced))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
