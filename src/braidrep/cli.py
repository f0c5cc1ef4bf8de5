"""Command-line driver.

Subcommands: shift, tower, subgroups, braid, verify.
Exit codes: 0 success, 1 stdout closed by the reader, 2 usage error,
3 resource limit, 4 verification failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import report
from .analysis import transitivity_report
from .errors import ResourceLimitError, UsageError, VerificationError
from .extension import compute_tower
from .groups import SPEC_GRAMMAR, FiniteGroup, SymmetricGroup, parse_group_spec
from .oracle import DEFAULT_BUDGET, check_budget
from .shift import decompose
from .verify import run_suites

__all__ = ["build_parser", "main"]

FORMATS = ("paper", "json", "csv", "dot")


def _add_group_args(p: argparse.ArgumentParser, *, with_nmax: bool) -> None:
    p.add_argument("group", metavar="GROUP", help=f"group spec: {SPEC_GRAMMAR}")
    if with_nmax:
        p.add_argument("nmax", type=int, metavar="NMAX", help="maximal stage n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="braidrep", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shift", help="cycle decomposition of the pair space")
    _add_group_args(p, with_nmax=False)
    p.add_argument("--type2", action="store_true", help="type-II cycles only (paper format)")
    p.add_argument("--count-only", action="store_true", help="print only the cycle count (paper format)")
    p.add_argument("--format", choices=FORMATS, default="paper")

    p = sub.add_parser("tower", help="classes at stages 3..n with braid extensions")
    _add_group_args(p, with_nmax=True)
    p.add_argument("--count-only", action="store_true",
                   help="suppress the per-class listing (paper format)")
    p.add_argument("--format", choices=("paper", "json", "csv"), default="paper")

    p = sub.add_parser("subgroups", help="index-r subgroup counts via transitive classes")
    _add_group_args(p, with_nmax=True)
    p.add_argument("--format", choices=("paper", "json", "csv"), default="paper")

    p = sub.add_parser("braid", help="braid-group representation counts per stage")
    _add_group_args(p, with_nmax=True)
    p.add_argument("--count-only", action="store_true", help="print only the stage-n count")

    p = sub.add_parser("verify", help="run the named verification suites")
    _add_group_args(p, with_nmax=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="relation-check budget for brute scans")

    return ap


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_shift(args: argparse.Namespace, group: FiniteGroup) -> None:
    if args.type2 and args.format != "paper":
        raise UsageError(f"--type2 needs the paper format, not --format {args.format}")
    decomp = decompose(group)
    if args.count_only:
        print(int((~decomp.is_type_I).sum()) if args.type2 else decomp.lengths.size)
        return
    # looked up per call, so that writers patched after import are the ones called
    write = {"paper": partial(report.paper_shift_lines, type2_only=args.type2), "json": report.shift_to_json,
             "csv": report.shift_to_csv, "dot": report.decomposition_to_dot}[args.format]
    write(decomp, sys.stdout)


def _cmd_tower(args: argparse.Namespace, group: FiniteGroup) -> None:
    tower = compute_tower(group, args.nmax)
    write = {"paper": partial(report.paper_tower_lines, count_only=args.count_only),
             "json": report.tower_to_json, "csv": report.tower_to_csv}[args.format]
    write(tower, sys.stdout)


def _cmd_subgroups(args: argparse.Namespace, group: FiniteGroup) -> None:
    if not isinstance(group, SymmetricGroup):
        raise UsageError("subgroup counting runs over a symmetric group S<r>")
    rep = transitivity_report(compute_tower(group, args.nmax))
    write = {"paper": report.paper_subgroup_lines, "json": report.subgroups_to_json,
             "csv": report.subgroups_to_csv}[args.format]
    write(rep, sys.stdout)


def _cmd_braid(args: argparse.Namespace, group: FiniteGroup) -> None:
    tower = compute_tower(group, args.nmax)
    if args.count_only:
        print(tower.level(args.nmax).braid_rep_count)
    else:
        report.paper_braid_lines(tower, sys.stdout)


def _cmd_verify(args: argparse.Namespace, group: FiniteGroup) -> None:
    results = run_suites(compute_tower(group, args.nmax), budget=args.budget)
    failed = False
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        print(f"{res.name}: {status} - {res.detail}")
        failed = failed or not res.ok
    if failed:
        raise VerificationError("one or more verification suites failed")


_COMMANDS = {
    "shift": _cmd_shift,
    "tower": _cmd_tower,
    "subgroups": _cmd_subgroups,
    "braid": _cmd_braid,
    "verify": _cmd_verify,
}


# main's parser, built on its first call rather than at import; argparse
# translates every help string as it builds, so each build costs about a ms
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # `braid` has no --format: its counts are paper lines
        if getattr(args, "count_only", False) and getattr(args, "format", "paper") != "paper":
            raise UsageError(f"--count-only needs the paper format, not --format {args.format}")
        if args.command == "verify":
            check_budget(args.budget)
        _COMMANDS[args.command](args, parse_group_spec(args.group))
        sys.stdout.flush()
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # The reader closed stdout (`| head`).  Point its descriptor at the null
        # device, so that the flush at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
