"""Span tracing of the package's public functions, for traced runs only.

The tracer replaces functions in the package's module namespaces for the
duration of a `with tracer.installed():` block and restores them after.
Each call becomes a span (name, start, end, parent, call id); self time
is a span's duration minus what its child spans cover.  Hot leaf
functions (one call per developed crossing or tile pair) are folded into
per-name totals instead of span records, which keeps memory flat.

Two namespace traps are handled by patching every `brokensurf*` module
that holds the original object: the package attribute `brokensurf.develop`
is the function, not the module, and `cli.py` binds `develop`,
`path_holonomy` and `cusp_closure_residual` by `from .develop import ...`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

now = time.perf_counter

# Per-layer counts that must repeat exactly on every pass of one seed.
WORK_COUNTERS = (
    "minkowski.extend_across.calls", "triangulation.ball_nodes",
    "triangulation.loop_crossings", "forms.svd.calls", "forms.svd_cells",
    "develop.path_holonomy.calls", "develop.path_holonomy.failed",
    "develop.tile_separation.calls", "render.svg_bytes", "fileio.json_bytes",
)


class Tracer:
    def __init__(self) -> None:
        self.call_id = 0
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, call id)
        self.inclusive = defaultdict(float)  # outermost spans of a name, seconds
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.resid_log10: list[float] = []
        self._stack: list[list] = []  # [name, start, child seconds, span index]
        self._open = Counter()

    # --- span bookkeeping -------------------------------------------

    def _push(self, name: str, leaf: bool) -> list:
        parent = self._stack[-1][3] if self._stack else None
        index = None
        if not leaf:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.call_id))
        frame = [name, now(), 0.0, index]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _pop(self, frame: list) -> float:
        end = now()
        name, start, child, index = frame
        self._stack.pop()
        duration = end - start
        self._open[name] -= 1
        if not self._open[name]:
            self.inclusive[name] += duration
        self.self_time[name] += duration - child
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if index is not None:
            self.spans[index] = (name, start, end, self.spans[index][3], self.call_id)
        return duration

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def wrap(self, name, fn, leaf=False, on_result=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            frame = tracer._push(span, leaf)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer._pop(frame)
                if on_error:
                    on_error(tracer, span)
                raise
            tracer._pop(frame)
            if on_result:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    # --- installation -------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, leaf, on_result, on_error) rows."""
        mods = {
            m: importlib.import_module(f"brokensurf.{m}")
            for m in (
                "triangulation", "minkowski", "hyperbolic", "foliation",
                "forms", "develop", "render", "fileio", "cli",
            )
        }
        T = mods["triangulation"]
        H = mods["hyperbolic"].DecoratedBrokenHyperbolic
        M = mods["foliation"].BrokenMeasure

        def ball_nodes(tr, args, kwargs, result):
            tr.counts["ball_nodes"] += len(result.nodes)

        def loop_crossings(tr, args, kwargs, result):
            tr.counts["loop_crossings"] += sum(len(loop) for loop in result)

        def crossing(tr, args, kwargs, result):
            if tr.inside("develop.develop"):
                tr.counts["develop_crossings"] += 1

        def holonomy_ok(tr, args, kwargs, result):
            r = max(result.lorentz_residual(), 1e-18)
            tr.resid_log10.append(math.log10(r))

        def holonomy_failed(tr, span):
            tr.counts["path_holonomy_failed"] += 1

        def svg_bytes(tr, args, kwargs, result):
            tr.counts["svg_bytes"] += len(result)

        def json_bytes(tr, args, kwargs, result):
            tr.counts["json_bytes"] += len(result)

        def rank_name(args, kwargs):
            constrained = kwargs.get("constrained", args[2] if len(args) > 2 else False)
            return "forms.constrained_rank" if constrained else "forms.rank_report"

        return [
            ("triangulation.build", T.IdealTriangulation, "__init__", False, None, None),
            ("triangulation.unfold_ball", T, "unfold_ball", False, ball_nodes, None),
            ("triangulation.dual_loops", T, "dual_loops", False, loop_crossings, None),
            ("minkowski.extend_across", mods["minkowski"], "extend_across", True, crossing, None),
            ("minkowski.solve_triangle", mods["minkowski"], "solve_triangle", True, None, None),
            ("minkowski.horocycle_arc", mods["minkowski"], "horocycle_arc", True, None, None),
            ("hyperbolic.validate", H, "validate", False, None, None),
            ("hyperbolic.puncture_holonomy", H, "puncture_holonomy", True, None, None),
            ("foliation.validate", M, "validate", False, None, None),
            ("forms.pullback_residual", mods["forms"], "pullback_residual", False, None, None),
            (rank_name, mods["forms"], "rank_report", False, None, None),
            ("forms.unbroken_rank_report", mods["forms"], "unbroken_rank_report", False, None, None),
            ("develop.develop", mods["develop"], "develop", False, None, None),
            ("develop.deck_candidates", mods["develop"], "deck_candidates", False, None, None),
            ("develop.path_holonomy", mods["develop"], "path_holonomy", False, holonomy_ok, holonomy_failed),
            ("develop.cusp_closure", mods["develop"], "cusp_closure_residual", False, None, None),
            ("develop.tile_separation", mods["develop"], "tile_separation", True, None, None),
            ("render.ball_svg", mods["render"], "ball_svg", False, svg_bytes, None),
            ("fileio.load", mods["fileio"], "load", False, None, None),
            ("fileio.canonical_json", mods["fileio"], "canonical_json", False, json_bytes, None),
            ("cli.main", mods["cli"], "main", False, None, None),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Patch every namespace holding a traced function; restore on exit."""
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            for name, owner, attr, leaf, on_result, on_error in self._targets():
                original = owner.__dict__[attr]
                traced = self.wrap(name, original, leaf, on_result, on_error)
                patch(owner, attr, traced)
                if isinstance(owner, type):
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if (
                        mod is not owner
                        and mod_name.split(".")[0] == "brokensurf"
                        and mod.__dict__.get(attr) is original
                    ):
                        patch(mod, attr, traced)

            def svd_cells(tr, args, kwargs, result):
                shape = np.shape(args[0])
                tr.counts["svd_cells"] += int(shape[-2]) * int(shape[-1])

            patch(
                np.linalg,
                "svd",
                self.wrap("forms.svd", np.linalg.svd, True, svd_cells),
            )
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- per-layer metrics --------------------------------------------

    def layer_metrics(self) -> dict:
        ms = lambda name: 1e3 * self.inclusive.get(name, 0.0)  # noqa: E731
        calls = lambda name: self.counts.get(name + ".calls", 0)  # noqa: E731
        crossings = self.counts.get("develop_crossings", 0)
        resid = max(self.resid_log10) if self.resid_log10 else 0.0
        return {
            "triangulation.build_ms": ms("triangulation.build"),
            "triangulation.unfold_ball_ms": ms("triangulation.unfold_ball"),
            "triangulation.ball_nodes": self.counts.get("ball_nodes", 0),
            "triangulation.dual_loops_ms": ms("triangulation.dual_loops"),
            "triangulation.loop_crossings": self.counts.get("loop_crossings", 0),
            "minkowski.extend_across.calls": calls("minkowski.extend_across"),
            "minkowski.extend_across_ms": ms("minkowski.extend_across"),
            "minkowski.solve_triangle.calls": calls("minkowski.solve_triangle"),
            "minkowski.horocycle_arc_ms": ms("minkowski.horocycle_arc"),
            "hyperbolic.validate_ms": ms("hyperbolic.validate"),
            "hyperbolic.puncture_holonomy_ms": ms("hyperbolic.puncture_holonomy"),
            "foliation.validate_ms": ms("foliation.validate"),
            "forms.pullback_residual_ms": ms("forms.pullback_residual"),
            "forms.rank_report_ms": ms("forms.rank_report"),
            "forms.unbroken_rank_report_ms": ms("forms.unbroken_rank_report"),
            "forms.constrained_rank_ms": ms("forms.constrained_rank"),
            "forms.svd.calls": calls("forms.svd"),
            "forms.svd_cells": self.counts.get("svd_cells", 0),
            "develop.develop_ms": ms("develop.develop"),
            "develop.per_crossing_us": (
                1e6 * self.inclusive.get("develop.develop", 0.0) / crossings
                if crossings else 0.0
            ),
            "develop.deck_candidates_ms": ms("develop.deck_candidates"),
            "develop.path_holonomy_ms": ms("develop.path_holonomy"),
            "develop.path_holonomy.calls": calls("develop.path_holonomy"),
            "develop.path_holonomy.failed": self.counts.get("path_holonomy_failed", 0),
            "develop.cusp_closure_ms": ms("develop.cusp_closure"),
            "develop.holonomy_resid_log10": resid,
            "develop.tile_separation_ms": ms("develop.tile_separation"),
            "develop.tile_separation.calls": calls("develop.tile_separation"),
            "render.ball_svg_ms": ms("render.ball_svg"),
            "render.svg_bytes": self.counts.get("svg_bytes", 0),
            "fileio.load_ms": ms("fileio.load"),
            "fileio.canonical_json_ms": ms("fileio.canonical_json"),
            "fileio.json_bytes": self.counts.get("json_bytes", 0),
            "cli.self_ms": 1e3 * self.self_time.get("cli.main", 0.0),
        }
