"""Command-line driver.

Subcommands: shift, tower, subgroups, braid, verify, export-graph.
Exit codes: 0 success, 2 usage error, 3 resource limit, 4 verification failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import report
from .analysis import count_subgroups, transitivity_report
from .errors import ResourceLimitError, UsageError, VerificationError
from .extension import compute_tower
from .groups import SPEC_GRAMMAR, SymmetricGroup, parse_group_spec
from .shift import decompose
from .verify import run_suites

__all__ = ["RunConfig", "build_parser", "main"]

FORMATS = ("paper", "json", "csv", "dot")


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: what to run and how to print it."""

    command: str
    group_spec: str
    nmax: int | None = None
    fmt: str = "paper"
    type2: bool = False
    count_only: bool = False
    budget: int = 100_000_000
    max_vertices: int = 10_000_000
    output: str | None = None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        spec = args.group_opt or args.group_pos
        if spec is None:
            raise UsageError(f"no group given; pass it positionally or with -g ({SPEC_GRAMMAR})")
        nmax = getattr(args, "nmax_opt", None)
        if nmax is None:
            nmax = getattr(args, "nmax_pos", None)
        if getattr(args, "needs_nmax", False) and nmax is None:
            raise UsageError("this command needs the maximal stage; pass it positionally or with --nmax")
        return cls(
            command=args.command,
            group_spec=spec,
            nmax=nmax,
            fmt=getattr(args, "format", "paper"),
            type2=getattr(args, "type2", False),
            count_only=getattr(args, "count_only", False),
            budget=getattr(args, "budget", 100_000_000),
            max_vertices=getattr(args, "max_vertices", 10_000_000),
            output=getattr(args, "output", None),
        )


def _add_group_args(p: argparse.ArgumentParser, *, with_nmax: bool) -> None:
    p.add_argument("group_pos", nargs="?", metavar="GROUP", help=f"group spec: {SPEC_GRAMMAR}")
    p.add_argument("-g", "--group", dest="group_opt", help="group spec (alternative to the positional)")
    if with_nmax:
        p.add_argument("nmax_pos", nargs="?", type=int, metavar="NMAX", help="maximal stage n")
        p.add_argument("--nmax", dest="nmax_opt", type=int, help="maximal stage n (alternative)")
        p.set_defaults(needs_nmax=True)
    p.add_argument("--budget", type=int, default=100_000_000, help="relation-check budget for brute scans")
    p.add_argument("--max-vertices", type=int, default=10_000_000, help="cap on |G|^2 for the decomposition")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="braidrep", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shift", help="cycle decomposition of the pair space")
    _add_group_args(p, with_nmax=False)
    p.add_argument("--type2", action="store_true", help="list type-II cycles only")
    p.add_argument("--count-only", action="store_true", help="print only the cycle count")
    p.add_argument("--format", choices=FORMATS, default="paper")

    p = sub.add_parser("tower", help="classes at stages 3..n with braid extensions")
    _add_group_args(p, with_nmax=True)
    p.add_argument("--count-only", action="store_true", help="suppress the per-class listing")
    p.add_argument("--format", choices=("paper", "json", "csv"), default="paper")

    p = sub.add_parser("subgroups", help="index-r subgroup counts via transitive classes")
    _add_group_args(p, with_nmax=True)
    p.add_argument("--format", choices=("paper", "json", "csv"), default="paper")

    p = sub.add_parser("braid", help="braid-group representation counts per stage")
    _add_group_args(p, with_nmax=True)
    p.add_argument("--count-only", action="store_true", help="print only the stage-n count")
    p.add_argument("--format", choices=("paper", "json", "csv"), default="paper")

    p = sub.add_parser("verify", help="run the named verification suites")
    _add_group_args(p, with_nmax=True)

    p = sub.add_parser("export-graph", help="successor graph in DOT format")
    _add_group_args(p, with_nmax=False)
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.add_argument("--format", choices=("dot",), default="dot")

    return ap


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_shift(cfg: RunConfig) -> int:
    group = parse_group_spec(cfg.group_spec)
    decomp = decompose(group, max_vertices=cfg.max_vertices)
    cycles = decomp.type_II() if cfg.type2 else decomp.cycles
    if cfg.count_only:
        print(len(cycles))
        return 0
    if cfg.fmt == "paper":
        print("\n".join(report.paper_shift_lines(decomp, type2_only=cfg.type2)))
    elif cfg.fmt == "json":
        doc = report.shift_to_json(decomp)
        if cfg.type2:
            doc["cycles"] = [c for c in doc["cycles"] if c["type"] == "II"]
        print(json.dumps(doc, indent=2))
    elif cfg.fmt == "csv":
        sys.stdout.write(report.shift_to_csv(decomp))
    else:
        print(report.decomposition_to_dot(decomp))
    return 0


def _cmd_tower(cfg: RunConfig) -> int:
    group = parse_group_spec(cfg.group_spec)
    tower = compute_tower(group, cfg.nmax, max_vertices=cfg.max_vertices)
    if cfg.fmt == "paper":
        lines = report.paper_tower_lines(tower)
        if cfg.count_only:
            lines = [l for l in lines if not l.startswith("[")]
        print("\n".join(lines))
    elif cfg.fmt == "json":
        print(json.dumps(report.tower_to_json(tower), indent=2))
    else:
        sys.stdout.write(report.tower_to_csv(tower))
    return 0


def _cmd_subgroups(cfg: RunConfig) -> int:
    group = parse_group_spec(cfg.group_spec)
    if not isinstance(group, SymmetricGroup):
        raise UsageError("subgroup counting runs over a symmetric group S<r>")
    tower = compute_tower(group, cfg.nmax, with_braid=False, max_vertices=cfg.max_vertices)
    rep = transitivity_report(tower)
    rows = [(lvl.n, group.r, lvl.transitive_rep_count, lvl.subgroup_count) for lvl in rep.levels]
    if cfg.fmt == "paper":
        for n, r, treps, subs in rows:
            print(f"K{n}: transitive reps = {treps}, subgroups of index {r} = {subs}")
    elif cfg.fmt == "json":
        print(json.dumps({"schema": "braidrep.subgroups.v1", "group": group.name,
                          "levels": [{"n": n, "r": r, "transitive_reps": t, "subgroups": s}
                                     for n, r, t, s in rows]}, indent=2))
    else:
        print("n,r,transitive_reps,subgroups")
        for row in rows:
            print(",".join(map(str, row)))
    return 0


def _cmd_braid(cfg: RunConfig) -> int:
    group = parse_group_spec(cfg.group_spec)
    tower = compute_tower(group, cfg.nmax, max_vertices=cfg.max_vertices)
    if cfg.count_only:
        print(tower.level(cfg.nmax).braid_rep_count)
        return 0
    if cfg.fmt == "paper":
        for lvl in tower.levels:
            print(f"B{lvl.n}: classes={lvl.braid_class_count} reps={lvl.braid_rep_count}")
    elif cfg.fmt == "json":
        print(json.dumps(report.tower_to_json(tower), indent=2))
    else:
        sys.stdout.write(report.tower_to_csv(tower))
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    group = parse_group_spec(cfg.group_spec)
    results = run_suites(group, cfg.nmax, budget=cfg.budget, max_vertices=cfg.max_vertices)
    failed = False
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        print(f"{res.name}: {status} - {res.detail}")
        failed = failed or not res.ok
    if failed:
        raise VerificationError("one or more verification suites failed")
    return 0


def _cmd_export_graph(cfg: RunConfig) -> int:
    group = parse_group_spec(cfg.group_spec)
    decomp = decompose(group, max_vertices=cfg.max_vertices)
    dot = report.decomposition_to_dot(decomp)
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(dot + "\n")
    else:
        print(dot)
    return 0


_COMMANDS = {
    "shift": _cmd_shift,
    "tower": _cmd_tower,
    "subgroups": _cmd_subgroups,
    "braid": _cmd_braid,
    "verify": _cmd_verify,
    "export-graph": _cmd_export_graph,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
