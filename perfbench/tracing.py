"""Spans around calls into each layer's public functions, for the traced run.

The program is not changed: ``install`` rebinds each traced name, in every
dunklsphere module namespace that binds it (``from x import y`` copies the
binding, so ``jacobi_rule`` lives in gegenbauer and operators alike), to a
wrapper that records a span and counters, and ``uninstall`` puts the
originals back.  Spans are (name, start, end, parent index, op id), kept in
memory and written out once by the caller.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name, counter hook); a "Class.method" attribute is
# patched on the class, which every instance sees
TRACED = (
    ("reflection", "generate_group", "reflection.generate_group", None),
    ("gegenbauer", "coefficient_profile", "gegenbauer.coefficient_profile",
     "_count_entries"),
    ("gegenbauer", "jacobi_rule", "gegenbauer.jacobi_rule", "_count_rule_builds"),
    ("gegenbauer", "lambda_coefficient", "gegenbauer.lambda_coefficient", None),
    ("operators", "harmonic_basis", "operators.harmonic_basis", "_count_elements"),
    ("operators", "dunkl_apply", "operators.dunkl_apply", None),
    ("operators", "kernel_translate_batch", "operators.kernel_translate_batch",
     "_count_kernel_evals"),
    ("operators", "translate_as_polynomial", "operators.translate_as_polynomial", None),
    ("multipoly", "MultiPoly.substitute_linear", "multipoly.substitute_linear", None),
    ("multipoly", "MultiPoly.divide_by_linear_form", "multipoly.divide_by_linear_form",
     None),
    ("multipoly", "MultiPoly.eval_many", "multipoly.eval_many", "_count_term_points"),
    ("sphere", "SphereMeasure.quad_points", "sphere.quad_points", "_count_grid"),
    ("fundamentality", "is_fundamental", "fundamentality.is_fundamental", None),
    ("fundamentality", "union_fundamental", "fundamentality.union_fundamental", None),
    ("fundamentality", "funk_hecke_residual", "fundamentality.funk_hecke_residual", None),
    ("fundamentality", "density_demo", "fundamentality.density_demo", None),
)

# per-layer metrics: (name, unit, better)
LAYER_METRICS = (
    ("reflection.generate_group.s", "s", "lower"),
    ("reflection.generate_group.calls", "count", "lower"),
    ("gegenbauer.coefficient_profile.s", "s", "lower"),
    ("gegenbauer.coefficient_profile.calls", "count", "lower"),
    ("mpmath.quad.s", "s", "lower"),
    ("mpmath.quad.calls", "count", "lower"),
    ("gegenbauer.entries", "count", "higher"),
    ("gegenbauer.entries_structural", "count", "higher"),
    ("gegenbauer.entries_indeterminate", "count", "lower"),
    ("gegenbauer.resolved_ratio", "ratio", "higher"),
    ("gegenbauer.jacobi_rule.s", "s", "lower"),
    ("gegenbauer.jacobi_rule.calls", "count", "lower"),
    ("gegenbauer.jacobi_rule.nodes_built", "count", "lower"),
    ("gegenbauer.jacobi_rule.hit_ratio", "ratio", "higher"),
    ("gegenbauer.lambda_coefficient.s", "s", "lower"),
    ("gegenbauer.lambda_coefficient.calls", "count", "lower"),
    ("operators.harmonic_basis.s", "s", "lower"),
    ("operators.harmonic_basis.calls", "count", "lower"),
    ("operators.harmonic_basis.elements", "count", "higher"),
    ("operators.dunkl_apply.s", "s", "lower"),
    ("operators.dunkl_apply.calls", "count", "lower"),
    ("multipoly.substitute_linear.s", "s", "lower"),
    ("multipoly.substitute_linear.calls", "count", "lower"),
    ("multipoly.divide_by_linear_form.s", "s", "lower"),
    ("multipoly.divide_by_linear_form.calls", "count", "lower"),
    ("operators.kernel_translate_batch.s", "s", "lower"),
    ("operators.kernel_translate_batch.calls", "count", "lower"),
    ("operators.kernel_evals", "count", "lower"),
    ("operators.translate_as_polynomial.s", "s", "lower"),
    ("operators.translate_as_polynomial.calls", "count", "lower"),
    ("multipoly.eval_many.s", "s", "lower"),
    ("multipoly.eval_many.calls", "count", "lower"),
    ("multipoly.eval_many.term_points", "count", "lower"),
    ("sphere.quad_points.s", "s", "lower"),
    ("sphere.grid_points", "count", "lower"),
    ("sphere.grid_bytes", "bytes", "lower"),
    ("fundamentality.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("fail_frac", "ratio", "lower"),
    ("indeterminate_frac", "ratio", "lower"),
    ("bound_miss_frac", "ratio", "lower"),
)

_SELF_TIMED = ("fundamentality.", "cli.")


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, op]
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._saved = []           # (owner, attribute, original, had it)

    # -- spans ---------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn, counter=None):
        hook = getattr(self, counter) if counter else None

        def wrapper(*args, **kwargs):
            if hook is None:
                return self.call(name, fn, *args, **kwargs)
            return hook(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters at the layer boundaries -----------------------------------

    def _count_entries(self, name, fn, args, kwargs):
        prof = self.call(name, fn, *args, **kwargs)
        self.counts["gegenbauer.entries"] += len(prof.entries)
        self.counts["gegenbauer.entries_structural"] += sum(e.structural for e in prof.entries)
        self.counts["gegenbauer.entries_indeterminate"] += sum(
            e.flag == "indeterminate" for e in prof.entries)
        return prof

    def _count_rule_builds(self, name, fn, args, kwargs):
        before = fn.cache_info().misses
        out = self.call(name, fn, *args, **kwargs)
        if fn.cache_info().misses > before:
            self.counts["gegenbauer.jacobi_rule.misses"] += 1
            self.counts["gegenbauer.jacobi_rule.nodes_built"] += len(out[0])
        return out

    def _count_elements(self, name, fn, args, kwargs):
        basis = self.call(name, fn, *args, **kwargs)
        self.counts["operators.harmonic_basis.elements"] += len(basis)
        return basis

    def _count_kernel_evals(self, name, fn, args, kwargs):
        out = self.call(name, fn, *args, **kwargs)
        ctx = args[0]
        quad = args[4] if len(args) > 4 else kwargs.get("quad_order", 48)
        active = 0 if ctx.kappa_is_zero else sum(k > 0 for k in ctx.kappa_by_axis())
        self.counts["operators.kernel_evals"] += len(out) * quad ** active
        return out

    def _count_term_points(self, name, fn, args, kwargs):
        out = self.call(name, fn, *args, **kwargs)
        self.counts["multipoly.eval_many.term_points"] += len(args[0].terms) * len(out)
        return out

    def _count_grid(self, name, fn, args, kwargs):
        built = args[0]._grid is None
        pts, wts = self.call(name, fn, *args, **kwargs)
        if built:
            self.counts["sphere.grid_points"] += len(pts)
            self.counts["sphere.grid_bytes"] += pts.nbytes + wts.nbytes
        return pts, wts

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("dunklsphere.") and mod is not None}
        for mod_name, attr, span, counter in TRACED:
            owner = mods[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(span, getattr(cls, meth), counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original, counter)
            for mod in [sys.modules["dunklsphere"], *mods.values()]:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)
        from mpmath import mp
        self._patch(mp, "quad", self._wrap("mpmath.quad", mp.quad))

    def _patch(self, owner, attr, value):
        had = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr) if had else None, had))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original, had in reversed(self._saved):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer totals.  ``.s`` counts the outermost span of a name only,
        so recursion (translate_as_polynomial on sums) is not counted twice;
        ``self_s`` is a span's duration minus that of its direct children."""
        total = defaultdict(float)
        calls = Counter()
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            # a span is nested in a same-named one when an ancestor shares its name
            anc, nested = parent, False
            while anc >= 0:
                if self.spans[anc][0] == name:
                    nested = True
                    break
                anc = self.spans[anc][3]
            if not nested:
                total[name + ".s"] += end - start
            prefix = next((p for p in _SELF_TIMED if name.startswith(p)), None)
            if prefix:
                total[prefix + "self_s"] += (end - start) - child_time[idx]
        out = {}
        for metric, _, _ in LAYER_METRICS:
            base = metric.rsplit(".", 1)[0]
            if metric.endswith(".s"):
                out[metric] = total.get(metric, 0.0)
            elif metric.endswith(".calls"):
                out[metric] = calls.get(base, 0)
            elif metric.endswith("self_s"):
                out[metric] = total.get(metric, 0.0)
            elif metric in self.counts:
                out[metric] = self.counts[metric]
        jr = calls.get("gegenbauer.jacobi_rule", 0)
        out["gegenbauer.jacobi_rule.hit_ratio"] = (
            (jr - self.counts["gegenbauer.jacobi_rule.misses"]) / jr if jr else 0.0)
        entries = self.counts["gegenbauer.entries"] - self.counts["gegenbauer.entries_structural"]
        out["gegenbauer.resolved_ratio"] = (
            (entries - self.counts["gegenbauer.entries_indeterminate"]) / entries
            if entries else 0.0)
        for metric, _, _ in LAYER_METRICS:
            out.setdefault(metric, 0)
        return out

    def span_records(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
