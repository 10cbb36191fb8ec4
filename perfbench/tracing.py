"""Traced run: spans at the package's layer boundaries, recorded from outside.

Package modules bind names at import (``from .lp import solve_lp``), so a
layer is traced by replacing the name in every module that calls it.  Spans
(name, start, end, parent, instance) are kept in memory and written out when
the run ends; self times are derived from them afterwards.
"""

from __future__ import annotations

import json
import time
from importlib import import_module

import numpy as np
from motline.rearrangement import CascadeStep

import gates

# (module whose global is replaced, global name, span name)
PATCHES = (
    ("motline.nested", "solve_lp", "lp.solve_lp"),
    ("motline.mot", "solve_lp", "lp.solve_lp"),
    ("motline.transport", "solve_lp", "lp.solve_lp"),
    ("motline.nested", "project_to_martingale", "nested.project"),
    ("motline.rearrangement", "project_to_martingale", "nested.project"),
    ("motline.nested", "nested_w_p", "nested.nested_w_p"),
    ("motline.nested", "solve_transport", "transport.solve_transport"),
    ("motline.mot", "solve_transport", "transport.solve_transport"),
    ("motline.nested", "w_p_1d", "transport.w_p_1d"),
    ("motline.mot", "mot_solve", "mot.mot_solve"),
    ("motline.mot", "penalized_ot", "mot.penalized_ot"),
    ("motline.mot", "monotonicity_check", "mot.monotonicity_check"),
    ("motline.mot", "competitor_improve", "mot.competitor_improve"),
    ("motline.cli", "main", "cli.main"),
    ("motline.cli", "rearrange", "rearrangement.rearrange"),
    ("motline.cli", "load_coupling", "jsonio.load_coupling"),
    ("motline.cli", "canonical_dumps", "jsonio.canonical_dumps"),
    ("motline.cli", "barycentre_report", "measures.barycentre_report"),
    ("motline.cli", "convex_order", "measures.convex_order"),
    ("motline.nested", "barycentre_report", "measures.barycentre_report"),
    ("motline.rearrangement", "barycentre_report", "measures.barycentre_report"),
    ("motline.rearrangement", "convex_order", "measures.convex_order"),
    ("motline.nested", "make_coupling", "measures.make_coupling"),
    ("motline.mot", "make_coupling", "measures.make_coupling"),
    ("motline.rearrangement", "make_coupling", "measures.make_coupling"),
    ("motline.transport", "make_coupling", "measures.make_coupling"),
    ("motline.jsonio", "make_coupling", "measures.make_coupling"),
)

ROOT_SPAN = "instance"
_RAISED = object()


class Tracer:
    """Span recorder plus the per-instance captures the layer metrics need."""

    def __init__(self, tol_mart: float):
        self.tol_mart = tol_mart
        self.spans = []  # [name, start, end, parent index or -1, instance id]
        self._stack = []
        self._saved = []
        self.instance = -1
        self.lps = []  # (LinearProgram, status, objective) of the current instance
        self.rearranged = []  # RearrangementResult of the current instance
        self.counts = {"lp.nonoptimal": 0, "cli.exit_nonzero": 0, "jsonio.bytes_out": 0,
                       "rearrangement.steps_switch": 0, "rearrangement.steps_cascade": 0,
                       "snaps": 0, "snaps_useful": 0, "lp.rows_max": 0, "lp.cols_max": 0,
                       "lp.highs_status_mismatch": 0}
        self.lp_highs_s = 0.0
        self.lp_rel_diff_max = 0.0

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, on_result):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.instance])
            stack.append(idx)
            result = _RAISED
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
                if on_result is not None:
                    on_result(args, result)

        return traced

    def _on_lp(self, args, result):
        status = "raised" if result is _RAISED else result.status
        objective = result.objective if status == "optimal" else None
        self.lps.append((args[0], status, objective))
        if status != "optimal":
            self.counts["lp.nonoptimal"] += 1

    def _on_rearrange(self, args, result):
        if result is not _RAISED:
            self.rearranged.append(result)

    def _on_main(self, args, result):
        if result is _RAISED or result != 0:
            self.counts["cli.exit_nonzero"] += 1

    def _on_dumps(self, args, result):
        if result is not _RAISED:
            self.counts["jsonio.bytes_out"] += len(result.encode("utf-8")) + 1

    def install(self) -> None:
        hooks = {"lp.solve_lp": self._on_lp, "rearrangement.rearrange": self._on_rearrange,
                 "cli.main": self._on_main, "jsonio.canonical_dumps": self._on_dumps}
        for module_name, attr, span in PATCHES:
            module = import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original, hooks.get(span)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def run_instance(self, ident: int, fn, *args):
        """Call ``fn`` under the root span of instance ``ident``."""
        self.instance = ident
        return self._wrap(ROOT_SPAN, fn, None)(*args)

    # -- after each instance, outside the timed region ------------------

    def after_instance(self) -> None:
        """Re-solve the captured LPs with HiGHS and score the snaps."""
        from scipy.optimize import linprog  # benchmark-only dependency

        for lp, status, objective in self.lps:
            m_ub = lp.a_ub.shape[0] + int(np.isfinite(lp.upper).sum())
            rows, cols = lp.a_eq.shape[0] + m_ub, lp.n_vars + m_ub
            self.counts["lp.rows_max"] = max(self.counts["lp.rows_max"], rows)
            self.counts["lp.cols_max"] = max(self.counts["lp.cols_max"], cols)
            start = time.perf_counter()
            res = linprog(lp.objective,
                          A_ub=lp.a_ub if lp.a_ub.shape[0] else None,
                          b_ub=lp.b_ub if lp.a_ub.shape[0] else None,
                          A_eq=lp.a_eq if lp.a_eq.shape[0] else None,
                          b_eq=lp.b_eq if lp.a_eq.shape[0] else None,
                          bounds=np.column_stack([lp.lower, lp.upper]), method="highs")
            self.lp_highs_s += time.perf_counter() - start
            highs_status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "other")
            if highs_status != status:
                self.counts["lp.highs_status_mismatch"] += 1
            elif status == "optimal":
                diff = abs(objective - res.fun) / max(1.0, abs(res.fun))
                self.lp_rel_diff_max = max(self.lp_rel_diff_max, diff)
        for result in self.rearranged:
            for step in result.trace:
                kind = "cascade" if isinstance(step, CascadeStep) else "switch"
                self.counts[f"rearrangement.steps_{kind}"] += 1
            if result.presnap is not None:
                self.counts["snaps"] += 1
                residual = gates.martingale_residual(gates.points_of(result.presnap))
                self.counts["snaps_useful"] += residual > self.tol_mart
        self.lps.clear()
        self.rearranged.clear()

    # -- derived metrics ---------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics over every traced instance, as {name: (value, unit)}."""
        n = len(self.spans)
        child = np.zeros(n)
        duration = np.zeros(n)
        names = []
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            duration[i] = end - start
            names.append(name)
            if parent >= 0:
                child[parent] += end - start
        self_time = duration - child
        names = np.array(names)

        def total(name):
            return float(duration[names == name].sum())

        def own(name):
            return float(self_time[names == name].sum())

        def calls(name):
            return int(np.count_nonzero(names == name))

        parents = np.array([span[3] for span in self.spans], dtype=int)
        is_snap = (names == "nested.project") & (parents >= 0)
        is_snap[is_snap] = names[parents[is_snap]] == "rearrangement.rearrange"
        snap_s = float(duration[is_snap].sum())
        rearrange_s = total("rearrangement.rearrange")
        wall = total(ROOT_SPAN)
        lp_durations = duration[names == "lp.solve_lp"]
        c = self.counts
        rows, cols = c["lp.rows_max"], c["lp.cols_max"]

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "lp.calls": (calls("lp.solve_lp"), "count"),
            "lp.self_s": (own("lp.solve_lp"), "s"),
            "lp.share": (ratio(own("lp.solve_lp"), wall), "frac"),
            "lp.s_per_call_p50": (float(np.median(lp_durations)) if lp_durations.size else 0.0,
                                  "s"),
            "lp.rows_max": (rows, "count"),
            "lp.cols_max": (cols, "count"),
            "lp.tableau_mb_max": (8.0 * (rows + 1) * (cols + 1) / 1e6 if rows else 0.0, "MB"),
            "lp.nonoptimal": (c["lp.nonoptimal"], "count"),
            "lp.highs_s": (self.lp_highs_s, "s"),
            "lp.highs_obj_rel_diff_max": (self.lp_rel_diff_max, "ratio"),
            "lp.highs_status_mismatch": (c["lp.highs_status_mismatch"], "count"),
            "nested.project.self_s": (own("nested.project"), "s"),
            "nested.nested_w_p.self_s": (own("nested.nested_w_p"), "s"),
            "rearrangement.calls": (calls("rearrangement.rearrange"), "count"),
            "rearrangement.loop_s": (rearrange_s - snap_s, "s"),
            "rearrangement.snap_s": (snap_s, "s"),
            "rearrangement.snap_frac": (ratio(snap_s, rearrange_s), "frac"),
            "rearrangement.snap_useful_frac": (ratio(c["snaps_useful"], c["snaps"]), "frac"),
            "rearrangement.steps_switch": (c["rearrangement.steps_switch"], "count"),
            "rearrangement.steps_cascade": (c["rearrangement.steps_cascade"], "count"),
            "mot.mot_solve.self_s": (own("mot.mot_solve"), "s"),
            "mot.penalized_ot.self_s": (own("mot.penalized_ot"), "s"),
            "mot.monotonicity_check.self_s": (own("mot.monotonicity_check"), "s"),
            "mot.competitor_lps": (calls("mot.competitor_improve"), "count"),
            "transport.solve_transport.self_s": (own("transport.solve_transport"), "s"),
            "transport.w_p_1d.s": (total("transport.w_p_1d"), "s"),
            "measures.make_coupling.calls": (calls("measures.make_coupling"), "count"),
            "measures.make_coupling.s": (total("measures.make_coupling"), "s"),
            "measures.barycentre_report.s": (total("measures.barycentre_report"), "s"),
            "measures.convex_order.s": (total("measures.convex_order"), "s"),
            "jsonio.load_s": (total("jsonio.load_coupling"), "s"),
            "jsonio.dump_s": (total("jsonio.canonical_dumps"), "s"),
            "jsonio.bytes_out": (c["jsonio.bytes_out"], "bytes"),
            "cli.self_s": (own("cli.main"), "s"),
            "cli.exit_nonzero": (c["cli.exit_nonzero"], "count"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, instance in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "instance": instance}) + "\n")
