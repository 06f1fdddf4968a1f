"""Span recorder that wraps the package's layer boundaries from outside.

Nothing in the package changes: `install` replaces each target on its
defining module or class and on every adelweil module that re-bound
the same object by import.  Each call records a span (id, parent,
name, start, end) in memory, its self time (span time minus the time
of its child spans), its call count and optional size counters.
Spans are written once, by `write_spans`, when the traced pass ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

clock = time.perf_counter

# spans kept in full; aggregates are exact whatever the cap
SPAN_CAP = 200_000


def _rref_sizes(tracer, args):
    rows = args[0].rows
    cols = len(rows[0]) if rows else 0
    tracer.counters["exactalg.QMatrix.rref.cells"] += len(rows) * cols
    tracer.counters["exactalg.QMatrix.rref.nnz"] += sum(
        1 for row in rows for x in row if x)


def _poly_pairs(tracer, args):
    other = getattr(args[1], "coeffs", None)
    tracer.counters["exactalg.MultiPoly.mul.term_pairs"] += \
        len(args[0].coeffs) * (len(other) if other is not None else 1)


def _form_pairs(tracer, args):
    other = getattr(args[1], "terms", None)
    tracer.counters["dgforms.DiffForm.mul.term_pairs"] += \
        len(args[0].terms) * (len(other) if other is not None else 1)


def _nullspace_rows(tracer, args):
    tracer.counters["sullivan.sparse_nullspace.rows"] += len(args[0])


def _family_dims(tracer, args, result, state):
    cx = args[0]
    tracer.item_sizes.setdefault("family_dims", {})[str(cx.cap)] = \
        [cx.dim(q) for q in range(cx.L + 1)]


def _fast_path_enter(tracer, args):
    return tracer.calls["exactalg.artinian_length"]


def _fast_path_exit(tracer, args, result, before):
    # the general path always computes the colength first
    if tracer.calls["exactalg.artinian_length"] == before:
        tracer.counters["residues.residue_general.fast_path"] += 1


_RATFUNC_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__", "__rtruediv__")

# (module, attribute path, metric, pre hook, post hook)
TARGETS = [
    ("exactalg", "QMatrix.rref", "exactalg.QMatrix.rref", _rref_sizes, None),
    ("exactalg", "QMatrix.solve", "exactalg.QMatrix.solve", None, None),
    ("exactalg", "LinearSpan.add", "exactalg.LinearSpan.add", None, None),
    ("exactalg", "artinian_length", "exactalg.artinian_length", None, None),
    ("exactalg", "MultiPoly.__mul__", "exactalg.MultiPoly.mul",
     _poly_pairs, None),
    ("exactalg", "MultiPoly.__rmul__", "exactalg.MultiPoly.mul",
     _poly_pairs, None),
    ("exactalg", "TruncatedSeries.__mul__", "exactalg.TruncatedSeries.mul",
     None, None),
    ("exactalg", "TruncatedSeries.__rmul__", "exactalg.TruncatedSeries.mul",
     None, None),
    *[("exactalg", f"RatFunc.{op}", "exactalg.RatFunc.arith", None, None)
      for op in _RATFUNC_ARITH],
    ("dgforms", "DiffForm.__mul__", "dgforms.DiffForm.mul", _form_pairs, None),
    ("dgforms", "DiffForm.d", "dgforms.DiffForm.d", None, None),
    ("dgforms", "FormMatrix.invariant", "dgforms.FormMatrix.invariant",
     None, None),
    ("dgforms", "invariant_eval", "dgforms.invariant_eval", None, None),
    ("dgforms", "transgression", "dgforms.transgression", None, None),
    ("simplicial", "pullback_along", "simplicial.pullback_along", None, None),
    ("simplicial", "fiber_integrate", "simplicial.fiber_integrate",
     None, None),
    ("simplicial", "integrate_over_simplex",
     "simplicial.integrate_over_simplex", None, None),
    ("simplicial", "aw_product", "simplicial.aw_product", None, None),
    ("sullivan", "verify_de_rham", "sullivan.verify_de_rham", None, None),
    ("sullivan", "SullivanComplex.__init__", "sullivan.SullivanComplex.init",
     None, _family_dims),
    ("sullivan", "sparse_nullspace", "sullivan.sparse_nullspace",
     _nullspace_rows, None),
    ("sullivan", "SullivanComplex.d_matrix", "sullivan.d_matrix", None, None),
    ("sullivan", "CochainComplexView.__post_init__",
     "sullivan.CochainComplexView.init", None, None),
    ("residues", "gauss_bonnet_local", "residues.gauss_bonnet_local",
     None, None),
    ("residues", "residue_general", "residues.residue_general",
     _fast_path_enter, _fast_path_exit),
    ("residues", "local_invariant", "residues.local_invariant", None, None),
    ("adelic", "mixed_connection", "adelic.mixed_connection", None, None),
    ("adelic", "whitney_check", "adelic.whitney_check", None, None),
    ("adelic", "localization_check", "adelic.localization_check", None, None),
    ("adelic", "chern_form_component", "adelic.chern_form_component",
     None, None),
    ("scenarios", "bott_sum", "scenarios.bott_sum", None, None),
    ("scenarios", "curve_chain_rows", "scenarios.curve_chain_rows",
     None, None),
    *[("parsing", name, "parsing.load", None, None)
      for name in ("load_json", "fraction_from_json", "scenario_from_json",
                   "sset_from_json", "chart_from_json")],
    ("report", "Report.to_text", "report.render", None, None),
    ("report", "Report.to_json", "report.render", None, None),
    ("cli", "main", "cli.main", None, None),
]


class Tracer:
    """In-memory spans and per-metric aggregates for one process."""

    def __init__(self):
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.counters: dict = defaultdict(int)
        self.spans: list = []
        self.dropped = 0
        self.names: dict = {}
        self.item_sizes: dict = {}
        self._stack: list = []
        self._next_id = 1

    def wrap(self, metric: str, fn, pre=None, post=None):
        stack, spans = self._stack, self.spans
        calls, self_s = self.calls, self.self_s
        name_id = self.names.setdefault(metric, len(self.names))
        tracer = self

        def traced(*args, **kwargs):
            state = pre(tracer, args) if pre is not None else None
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][2] if stack else 0
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                self_s[metric] += dur - frame[1]
                calls[metric] += 1
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, name_id, frame[0], end))
                else:
                    tracer.dropped += 1
            if post is not None:
                post(tracer, args, result, state)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", metric)
        traced.__qualname__ = getattr(fn, "__qualname__", metric)
        return traced

    def install(self) -> int:
        """Wrap every target; returns the number of bindings replaced."""
        replaced = 0
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "adelweil" or name.startswith("adelweil.")]
        for mod_name, path, metric, pre, post in TARGETS:
            module = sys.modules[f"adelweil.{mod_name}"]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapped = self.wrap(metric, original, pre, post)
            setattr(owner, attr, wrapped)
            replaced += 1
            if owner_name:
                continue
            # names re-bound by importers, e.g. adelweil.cli.verify_de_rham
            for other in loaded:
                for key, value in list(vars(other).items()):
                    if value is original and other is not module:
                        setattr(other, key, wrapped)
                        replaced += 1
        return replaced

    def aggregates(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}

    def write_spans(self, path: str) -> None:
        names = {i: n for n, i in self.names.items()}
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "dropped": self.dropped,
                       "spans": [(s, p, names[n], round(a, 9), round(b, 9))
                                 for s, p, n, a, b in self.spans]}, fh)
