"""Span tracing of braidrep's layers, done entirely from outside the package.

`Tracer.install()` replaces each traced callable by a wrapper that records a
span (name, parent span, start, end).  A module-level function is replaced in
every braidrep module that binds it, matched by object identity, because the
package imports its functions by name: `compute_tower` lives in `extension`
and is also bound in `cli`, `verify`, `analysis` and the package itself, and a
call through any of those names must be seen.  Methods are patched on every
class of their module that defines them.

Spans stay in memory for one pass; `layer_metrics()` turns them into the
per-layer numbers.  Small helpers called in inner loops (`mul`, `tables()`,
`element_order`, the scan kernels) are left unwrapped so that tracing costs a
few wrapper calls per class, not per group operation.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# span name -> (module under braidrep, attribute).  An attribute "Cls.meth"
# names a method; it is patched on every class of the module that defines it.
TRACED = {
    "cli.main": ("cli", "main"),
    "groups.parse": ("groups", "parse_group_spec"),
    "groups.tables": ("groups", "FiniteGroup._build_tables"),
    "shift.decompose": ("shift", "decompose"),
    "extension.compute_tower": ("extension", "compute_tower"),
    "extension.scan_b3": ("extension", "extend_to_K4"),
    "extension.scan_bn": ("extension", "extend_step"),
    "extension.scan_c": ("extension", "extend_to_braid"),
    "oracle.kn": ("oracle", "brute_hom_Kn"),
    "oracle.bn": ("oracle", "brute_hom_Bn"),
    "verify.run_suites": ("verify", "run_suites"),
    "analysis.perfect_core": ("analysis", "perfect_core_census_match"),
    "report.shift_to_json": ("report", "shift_to_json"),
    "report.tower_to_json": ("report", "tower_to_json"),
    "report.paper_shift_lines": ("report", "paper_shift_lines"),
    "report.paper_tower_lines": ("report", "paper_tower_lines"),
    "report.shift_to_csv": ("report", "shift_to_csv"),
    "report.tower_to_csv": ("report", "tower_to_csv"),
    "report.decomposition_to_dot": ("report", "decomposition_to_dot"),
}


def _observe(counts: Counter, name: str, result) -> None:
    """Counts taken from a traced call's return value."""
    if name == "groups.parse":
        counts["groups.order"] += result.order
    elif name == "shift.decompose":
        counts["shift.vertices"] += result.group.order ** 2
        counts["shift.cycles"] += len(result.cycles)
    elif name == "extension.compute_tower":
        counts["extension.classes_total"] += sum(lvl.class_count for lvl in result.levels)
    elif name == "extension.scan_b3":
        counts["extension.b3_nontrivial"] += len(result) - 1   # the identity is always admissible
    elif name == "extension.scan_c":
        counts["extension.c_nonempty"] += bool(result)
    elif name == "oracle.kn":
        counts["oracle.kn_relation_checks"] += result.relation_checks
    elif name == "oracle.bn":
        counts["oracle.bn_relation_checks"] += result.relation_checks


class Tracer:
    """Records spans of the traced callables while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1)
            _observe(counts, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every binding of every traced callable; raise if one is missing.

        Modules are resolved with importlib: `from braidrep import shift`
        would give the function `shift`, not the module."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "braidrep" or key.startswith("braidrep."))]
        for name, (mod_name, attr) in TRACED.items():
            mod = importlib.import_module(f"braidrep.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                base = getattr(mod, cls_name)
                owners = [c for c in vars(mod).values()
                          if isinstance(c, type) and issubclass(c, base) and meth in vars(c)]
                if not owners:
                    raise AttributeError(f"no class in braidrep.{mod_name} defines {meth}")
                for cls in owners:
                    self._patch(cls, meth, self._wrap(name, vars(cls)[meth]))
                continue
            fn = getattr(mod, attr)
            wrapper = self._wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, key: str, new) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, old = self._patches.pop()
            setattr(owner, key, old)

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of the spans recorded so far (one pass)."""
        total: defaultdict[str, float] = defaultdict(float)
        self_time: defaultdict[str, float] = defaultdict(float)
        calls = self.calls()
        child_time = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for idx, (name, parent, t0, t1) in enumerate(self.spans):
            total[name] += t1 - t0
            self_time[name] += t1 - t0 - child_time[idx]
        c = self.counts
        b3_calls = calls["extension.scan_b3"]
        c_calls = calls["extension.scan_c"]
        return {
            "groups.parse_s": total["groups.parse"],
            "groups.tables_s": total["groups.tables"],
            "groups.order": c["groups.order"],
            # decompose builds the tables on first use; that part is groups.tables_s
            "shift.decompose_s": self_time["shift.decompose"],
            "shift.vertices": c["shift.vertices"],
            "shift.cycles": c["shift.cycles"],
            "extension.compute_tower_s": total["extension.compute_tower"],
            "extension.self_s": self_time["extension.compute_tower"],
            "extension.scan_b3_s": total["extension.scan_b3"],
            "extension.scan_b3_calls": b3_calls,
            "extension.scan_bn_s": total["extension.scan_bn"],
            "extension.scan_bn_calls": calls["extension.scan_bn"],
            "extension.scan_c_s": total["extension.scan_c"],
            "extension.scan_c_calls": c_calls,
            "extension.classes_total": c["extension.classes_total"],
            "extension.b3_nontrivial_ratio": c["extension.b3_nontrivial"] / b3_calls if b3_calls else 0.0,
            "extension.c_nonempty_ratio": c["extension.c_nonempty"] / c_calls if c_calls else 0.0,
            "oracle.kn_s": total["oracle.kn"],
            "oracle.kn_relation_checks": c["oracle.kn_relation_checks"],
            "oracle.bn_s": total["oracle.bn"],
            "oracle.bn_relation_checks": c["oracle.bn_relation_checks"],
            "verify.run_suites_s": total["verify.run_suites"],
            "verify.self_s": self_time["verify.run_suites"],
            "analysis.perfect_core_s": total["analysis.perfect_core"],
            "report.render_s": sum((v for k, v in total.items() if k.startswith("report.")), 0.0),
            "cli.main_s": total["cli.main"],
            "cli.self_s": self_time["cli.main"],
        }
