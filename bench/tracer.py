"""Per-layer tracing from outside the package.

Tracer.install() wraps the public functions of each layer (cli, quandle,
variety, ring, affine, collapse) in every namespace that bound them: the
defining module, modules that imported the name, the package's re-exports,
and class attributes including aliases such as RingElem.__rmul__.
uninstall() puts the originals back.

Every timed wrapper adds its wall time to the caller's child time, so each
function's self time is its duration minus that of the wrapped calls it
made.  Coarse functions also record a span (name, start, end, parent,
op index) kept in memory and written out at the end; hot microsecond-scale
functions keep aggregate counts only, and Congruence.union and
Congruence.blocks are counted without a clock.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

PACKAGE = "quandleworks"
SPAN, AGGREGATE, COUNT = "span", "aggregate", "count"

# (module, attribute path, metric name, kind)
TARGETS = (
    ("cli", "main", "cli.main", SPAN),
    ("quandle", "check_axioms", "quandle.check_axioms", SPAN),
    ("quandle", "parse_table_text", "quandle.parse_table_text", SPAN),
    ("quandle", "render_table_text", "quandle.render_table_text", SPAN),
    ("quandle", "FiniteQuandle.inverse_translations", "quandle.inverse_translations", AGGREGATE),
    ("quandle", "FiniteQuandle.is_medial", "quandle.is_medial", SPAN),
    ("quandle", "FiniteQuandle.is_n_quandle", "quandle.is_n_quandle", SPAN),
    ("quandle", "FiniteQuandle.orbits", "quandle.orbits", SPAN),
    ("quandle", "FiniteQuandle.reverse_orbit", "quandle.reverse_orbit", SPAN),
    ("variety", "quotient_by_identity", "variety.quotient_by_identity", SPAN),
    ("variety", "Congruence.is_compatible", "variety.is_compatible", SPAN),
    ("variety", "Congruence.union", "variety.union", COUNT),
    ("variety", "Congruence.blocks", "variety.blocks", COUNT),
    ("ring", "RingElem.__mul__", "ring.mul", AGGREGATE),
    ("ring", "reduce", "ring.reduce", AGGREGATE),
    ("ring", "RingElem.scale_t", "ring.scale_t", AGGREGATE),
    ("affine", "op", "affine.op", AGGREGATE),
    ("affine", "op_inv", "affine.op_inv", AGGREGATE),
    ("affine", "reversed_op", "affine.reversed_op", AGGREGATE),
    ("affine", "orbit_witness", "affine.orbit_witness", AGGREGATE),
    ("affine", "AffineExpr.evaluate", "affine.evaluate", AGGREGATE),
    ("affine", "AffineExpr.substitute", "affine.substitute", AGGREGATE),
    ("collapse", "verify_theorem", "collapse.verify_theorem", SPAN),
    ("collapse", "expand_lhs", "collapse.expand", SPAN),
    ("collapse", "expand_rhs", "collapse.expand", SPAN),
    ("collapse", "derive_relation", "collapse.derive_relation", SPAN),
    ("collapse", "hnf_close", "collapse.hnf_close", SPAN),
    ("collapse", "orbit2_collapse", "collapse.orbit2_collapse", SPAN),
    ("collapse", "CollapseReport.render", "collapse.render", SPAN),
)
TIMED = tuple(dict.fromkeys(name for *_, name, kind in TARGETS if kind != COUNT))


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.merges = 0
        self.spans: list[tuple] = []
        self.op_index = 0
        self._child = [0.0]      # child-time accumulator per open call
        self._open = [None]      # ids of the open spans
        self._undo: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------

    def _timed(self, fn, name: str, span: bool):
        calls, self_s, child, open_spans, spans = (
            self.calls, self.self_s, self._child, self._open, self.spans)

        def wrapper(*args, **kwargs):
            child.append(0.0)
            if span:
                sid = len(spans)
                spans.append(None)
                open_spans.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                inner = child.pop()
                child[-1] += end - start
                calls[name] += 1
                self_s[name] += end - start - inner
                if span:
                    open_spans.pop()
                    spans[sid] = (sid, open_spans[-1], self.op_index, name, start, end)
        return wrapper

    def _counted(self, fn, name: str):
        calls = self.calls
        if name != "variety.union":
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def union(*args):
            calls[name] += 1
            merged = fn(*args)
            if merged:
                self.merges += 1
            return merged
        return union

    # --- patching -------------------------------------------------------

    def _namespaces(self, owner):
        if isinstance(owner, type):
            return [owner]
        return [m for key, m in sorted(sys.modules.items())
                if key == PACKAGE or key.startswith(PACKAGE + ".")]

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module, path, name, kind in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = (self._counted(original, name) if kind == COUNT
                       else self._timed(original, name, kind == SPAN))
            for ns in self._namespaces(owner):
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._undo.append((ns, key, value))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            ns, key, value = self._undo.pop()
            setattr(ns, key, value)

    # --- results --------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans and aggregate counts as one JSON document."""
        fields = ("id", "parent", "op", "name", "start", "end")
        doc = {"calls": dict(self.calls), "self_s": dict(self.self_s),
               "union_merges": self.merges,
               "spans": [dict(zip(fields, s)) for s in self.spans]}
        path.write_text(json.dumps(doc), encoding="utf-8")
