"""Per-layer tracing of one heckecell job, installed from outside the package.

`install()` wraps public functions and methods of every heckecell module at
each place they are bound (module globals and class attributes), so the
program's own code is unchanged. Each wrapped call is a span: the tracer
keeps a stack of open spans, and a span's self time is its duration minus
the time covered by the spans opened inside it. Hot scalar kernels whose
only metric is a call count get a counting wrapper instead of a span; their
time stays with the span that called them.

Everything is kept in memory. Per-target totals (calls, self time, raised)
are aggregated; individual span records (name, start, end, parent, raised)
are kept only for the stage-level targets, of which a job has at most a few
hundred. `Tracer.dump()` returns both for the worker to write out at exit.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

LAYERS = ("coxeter", "hecke", "reps", "matrices", "scalars", "fields",
          "asymptotic", "cellular", "cli")

# Kinds: "span" is timed and counted; "stage" is a span that is also recorded
# individually; "count" only counts calls.
SPAN, STAGE, COUNT = "span", "stage", "count"

# (layer, "module:Class.attr" or "module:function", kind, time metric, count metric)
TARGETS = [
    ("coxeter", "coxeter:ElementTable.__init__", STAGE, "coxeter.table_s", None),
    ("hecke", "hecke:HeckeAlgebra.cprime", SPAN, "hecke.kl_s", None),
    ("hecke", "hecke:HeckeAlgebra.h_rows", STAGE, "hecke.h_table_s", None),
    ("hecke", "hecke:HeckeAlgebra.lr_cells", STAGE, "hecke.cells_s", None),
    ("hecke", "hecke:HeckeAlgebra.gen_row", SPAN, "hecke.cells_s", None),
    ("reps", "reps:builtin_family", STAGE, "reps.family_s", None),
    ("reps", "reps:load_rep", STAGE, "reps.family_s", None),
    ("reps", "reps:schur_data", STAGE, "reps.schur_s", None),
    ("reps", "reps:invariant_gram", STAGE, "reps.gram_s", None),
    ("reps", "reps:balance", STAGE, "reps.balance_s", "reps.rebalanced"),
    ("reps", "reps:is_balanced", STAGE, "reps.balance_check_s", "reps.is_balanced_calls"),
    ("reps", "reps:leading_tensor", STAGE, "reps.tensor_s", None),
    ("reps", "reps:verify_schur_relations", STAGE, "reps.verify_schur_s", None),
    ("matrices", "matrices:KMatrix.__mul__", COUNT, None, "matrices.mul_calls"),
    ("matrices", "matrices:KMatrix.det", SPAN, "matrices.det_s", "matrices.det_calls"),
    ("matrices", "matrices:f_det", SPAN, "matrices.det_s", "matrices.det_calls"),
    ("matrices", "matrices:KMatrix.inverse", SPAN, "matrices.inverse_s", "matrices.inverse_calls"),
    ("matrices", "matrices:f_inverse", SPAN, "matrices.inverse_s", "matrices.inverse_calls"),
    ("matrices", "matrices:KMatrix.__eq__", SPAN, "matrices.eq_s", None),
    ("matrices", "matrices:KMatrix.from_fractions", SPAN, "matrices.from_fractions_s", None),
    ("scalars", "scalars:LaurentPoly.__mul__", COUNT, None, "scalars.poly_mul_calls"),
    ("scalars", "scalars:LaurentFraction.__add__", SPAN, "scalars.frac_ops_s", "scalars.frac_ops_calls"),
    ("scalars", "scalars:LaurentFraction.__sub__", SPAN, "scalars.frac_ops_s", "scalars.frac_ops_calls"),
    ("scalars", "scalars:LaurentFraction.__mul__", SPAN, "scalars.frac_ops_s", "scalars.frac_ops_calls"),
    ("scalars", "scalars:LaurentFraction.__truediv__", SPAN, "scalars.frac_ops_s", "scalars.frac_ops_calls"),
    ("fields", "fields:CycloNumber.__mul__", COUNT, None, "fields.mul_calls"),
    ("fields", "fields:CycloNumber.__rmul__", COUNT, None, "fields.mul_calls"),
    ("fields", "fields:RealCyclotomicField.inverse", SPAN, None, "fields.inverse_calls"),
    ("fields", "fields:RealCyclotomicField.sign", SPAN, None, "fields.sign_calls"),
    ("asymptotic", "asymptotic:AsymptoticRing.__init__", STAGE, "asymptotic.build_s", None),
    ("asymptotic", "asymptotic:AsymptoticRing.verify", STAGE, "asymptotic.verify_s", None),
    ("asymptotic", "asymptotic:AsymptoticRing.compare_with_kl", STAGE, "asymptotic.compare_kl_s", None),
    ("cellular", "cellular:build_cell_datum", STAGE, "cellular.datum_s", None),
    ("cellular", "cellular:verify_cell_datum", STAGE, "cellular.verify_datum_s", None),
    ("cellular", "cellular:verify_phi", STAGE, "cellular.phi_s", None),
    ("cellular", "cellular:hecke_to_asym", SPAN, "cellular.phi_s", None),
    ("cellular", "cellular:verify_bimodule_identity", STAGE, "cellular.bimodule_s", None),
    ("cellular", "cellular:specialize_datum", STAGE, "cellular.specialize_s", None),
    ("cellular", "cellular:verify_specialized", STAGE, "cellular.verify_specialized_s", None),
] + [
    ("cli", f"cli:Session.{name}", STAGE, "cli.emit_s", None)
    for name in ("artifact_kl", "artifact_h", "artifact_cells", "artifact_reps",
                 "artifact_jring", "artifact_cell", "artifact_phi")
] + [
    ("cli", "cli:_emit", STAGE, "cli.emit_s", None),
]

# Per-layer metrics that are not a target's time or call count. Each is
# filled by a hook below; together with TARGETS and the per-layer totals
# they make up `metric_names()`.
HOOK_METRICS = [
    "coxeter.elements", "hecke.kl_nonzero", "hecke.h_nonzero", "reps.irreducibles",
    "reps.max_den_terms", "scalars.frac_unequal_den_adds", "asymptotic.gamma_nonzero",
    "asymptotic.assoc_cases", "asymptotic.assoc_cases_sampled",
    "cellular.bimodule_cases", "cellular.bimodule_cases_sampled", "cli.artifact_bytes",
]

clock = time.perf_counter


def metric_names() -> list:
    """Every per-layer metric a traced job reports, in a fixed order."""
    names = []
    for _, _, _, tmetric, cmetric in TARGETS:
        for m in (tmetric, cmetric):
            if m and m not in names:
                names.append(m)
    names += HOOK_METRICS
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.raised"]
    return names


def metric_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


class Tracer:
    def __init__(self):
        self.stack = []          # one [child time] cell per open span
        self.stage_stack = []    # indices into self.spans of open stage spans
        self.spans = []          # [name, start, end, parent index, raised]
        self.covered = 0.0       # time inside some span (outermost spans only)
        self.totals = {}         # target -> [calls, self time, raised]
        self.extra = dict.fromkeys(HOOK_METRICS, 0)
        self._seen = {}          # memoized results already counted, per hook
        self._keep = []          # objects whose id() is a key in _seen

    # -- wrappers -----------------------------------------------------------------

    def wrap(self, target: str, kind: str, orig, hook=None):
        cell = self.totals.setdefault(target, [0, 0.0, 0])
        if kind == COUNT:
            def counted(*args, **kwargs):
                cell[0] += 1
                return orig(*args, **kwargs)
            return counted

        stack, stage_stack, spans = self.stack, self.stage_stack, self.spans
        record = kind == STAGE
        tracer = self

        def traced(*args, **kwargs):
            if hook is not None:
                hook(tracer, "pre", args, kwargs, None)
            child = [0.0]
            stack.append(child)
            if record:
                spans.append([target, 0.0, 0.0,
                              stage_stack[-1] if stage_stack else None, False])
                stage_stack.append(len(spans) - 1)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                cell[2] += 1
                if record:
                    spans[stage_stack[-1]][4] = True
                raise
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                cell[0] += 1
                cell[1] += dur - child[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.covered += dur
                if record:
                    span = spans[stage_stack.pop()]
                    span[1], span[2] = start, end
            if hook is not None:
                hook(tracer, "post", args, kwargs, result)
            return result
        return traced

    def first_time(self, key_obj, key) -> bool:
        """True once per (object, key): counts memoized results only once."""
        seen = self._seen.setdefault(id(key_obj), set())
        if not seen:
            self._keep.append(key_obj)
        if key in seen:
            return False
        seen.add(key)
        return True

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict:
        out = dict.fromkeys(metric_names(), 0)
        out.update(self.extra)
        for layer, target, _, tmetric, cmetric in TARGETS:
            calls, self_s, raised = self.totals.get(target, (0, 0.0, 0))
            if tmetric:
                out[tmetric] += self_s
            if cmetric:
                out[cmetric] += calls
            out[f"{layer}.self_s"] += self_s
            out[f"{layer}.raised"] += raised
        return out

    def dump(self) -> dict:
        return {"metrics": self.metrics(), "covered_s": self.covered,
                "spans": self.spans}


# -- hooks: counts read from arguments and results ----------------------------------


def _elements(tr, when, args, kwargs, result):
    if when == "post":
        tr.extra["coxeter.elements"] += args[0].size


def _kl_nonzero(tr, when, args, kwargs, result):
    if when == "post" and tr.first_time(args[0], ("cprime", args[1])):
        tr.extra["hecke.kl_nonzero"] += sum(1 for p in result.values() if p)


def _h_nonzero(tr, when, args, kwargs, result):
    if when == "post" and tr.first_time(args[0], "h_rows"):
        tr.extra["hecke.h_nonzero"] += sum(
            1 for row in result for cell in row for h in cell.values() if h)


def _irreducibles(tr, when, args, kwargs, result):
    if when == "post":
        tr.extra["reps.irreducibles"] += len(result)


def _den_terms(tr, when, args, kwargs, result):
    if when == "pre":
        terms = max(len(g.den.terms) for g in args[0].gens)
        tr.extra["reps.max_den_terms"] = max(tr.extra["reps.max_den_terms"], terms)


def _unequal_dens(tr, when, args, kwargs, result):
    if when != "pre":
        return
    this, other = args[0], args[1]
    den = getattr(other, "den", None)
    if den is None:
        unequal = not (this.den.is_constant() and this.den.constant_coefficient() == 1)
    else:
        unequal = not (den is this.den or den == this.den)
    if unequal:
        tr.extra["scalars.frac_unequal_den_adds"] += 1


def _gamma_nonzero(tr, when, args, kwargs, result):
    if when == "post":
        tr.extra["asymptotic.gamma_nonzero"] += sum(1 for g in args[0].gamma.values() if g)


def _bound(orig, args, kwargs):
    bound = inspect.signature(orig).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _assoc_cases(orig):
    def hook(tr, when, args, kwargs, result):
        if when != "pre":
            return
        a = _bound(orig, args, kwargs)
        size = a["self"].size
        if size <= a["exhaustive_max"]:
            tr.extra["asymptotic.assoc_cases"] += size ** 3
        else:
            tr.extra["asymptotic.assoc_cases"] += a["random_triples"]
            tr.extra["asymptotic.assoc_cases_sampled"] += a["random_triples"]
    return hook


def _bimodule_cases(orig):
    def hook(tr, when, args, kwargs, result):
        if when != "pre":
            return
        a = _bound(orig, args, kwargs)
        alg = a["alg"]
        size = alg.table.size
        if size <= a["exhaustive_max"]:
            _, cells, cell_of = alg.lr_cells()
            quads = sum(len(cells[cell_of[w]]) for w in range(size)) * size * size
            tr.extra["cellular.bimodule_cases"] += quads
        else:
            tr.extra["cellular.bimodule_cases"] += a["samples"]
            tr.extra["cellular.bimodule_cases_sampled"] += a["samples"]
    return hook


def _artifact_bytes(tr, when, args, kwargs, result):
    if when == "post":
        data, out, name = args[:3]
        if out is not None:
            tr.extra["cli.artifact_bytes"] += os.path.getsize(os.path.join(out, name))


HOOKS = {
    "coxeter:ElementTable.__init__": _elements,
    "hecke:HeckeAlgebra.cprime": _kl_nonzero,
    "hecke:HeckeAlgebra.h_rows": _h_nonzero,
    "reps:builtin_family": _irreducibles,
    "reps:is_balanced": _den_terms,
    "scalars:LaurentFraction.__add__": _unequal_dens,
    "scalars:LaurentFraction.__sub__": _unequal_dens,
    "asymptotic:AsymptoticRing.__init__": _gamma_nonzero,
    "asymptotic:AsymptoticRing.verify": _assoc_cases,
    "cellular:verify_bimodule_identity": _bimodule_cases,
    "cli:_emit": _artifact_bytes,
}
# Hooks that need the unwrapped function (to bind default arguments).
NEEDS_ORIG = {_assoc_cases, _bimodule_cases}


def install() -> Tracer:
    """Wrap every target in the imported heckecell package; return the tracer."""
    import heckecell  # noqa: F401 - ensures every module is imported
    modules = [m for name, m in sys.modules.items()
               if name == "heckecell" or name.startswith("heckecell.")]
    tracer = Tracer()
    for layer, target, kind, _, _ in TARGETS:
        mod_name, path = target.split(":")
        mod = sys.modules[f"heckecell.{mod_name}"]
        hook = HOOKS.get(target)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            static = inspect.getattr_static(cls, attr)
            is_cm = isinstance(static, classmethod)
            orig = static.__func__ if is_cm else static
            if hook in NEEDS_ORIG:
                hook = hook(orig)
            wrapped = tracer.wrap(target, kind, orig, hook)
            setattr(cls, attr, classmethod(wrapped) if is_cm else wrapped)
        else:
            orig = getattr(mod, path)
            if hook in NEEDS_ORIG:
                hook = hook(orig)
            wrapped = tracer.wrap(target, kind, orig, hook)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapped)
    return tracer
