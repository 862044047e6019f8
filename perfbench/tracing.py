"""Per-layer spans around latconf's public functions.

The benchmark never edits the library: ``Tracer.install`` replaces each
listed function (or method) with a wrapper, in every ``latconf`` module
that binds it, and ``Tracer.uninstall`` puts the originals back.  A
wrapper records one span per call; a layer's self time is its span's
duration minus the time covered by the spans of the traced functions it
called.  Spans are aggregated in memory (calls and self time per
function), because the work is single-threaded and nothing waits.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

from latconf import finite_forms, lattices, matrices

Matrix = matrices.Matrix
FiniteForm = finite_forms.FiniteForm
Lattice = lattices.Lattice

# (layer, metric name, owner, attribute).  The owner is a module path
# for module-level functions, or a class for methods.
TRACED = (
    ("matrices", "rref", Matrix, "rref"),
    ("matrices", "det", Matrix, "det"),
    ("matrices", "rank", Matrix, "rank"),
    ("matrices", "inverse", Matrix, "inverse"),
    ("matrices", "kernel_basis", Matrix, "kernel_basis"),
    ("matrices", "mul", Matrix, "__mul__"),
    ("matrices", "snf", "latconf.matrices", "snf"),
    ("matrices", "hnf", "latconf.matrices", "hnf"),
    ("jacobian", "period_map", "latconf.jacobian", "period_map"),
    ("jacobian", "invariant_deformations", "latconf.jacobian", "invariant_deformations"),
    ("jacobian", "kappa_target", "latconf.jacobian", "kappa_target"),
    ("finite_forms", "finite_form_automorphisms", "latconf.finite_forms", "finite_form_automorphisms"),
    ("finite_forms", "finite_form_isometric", "latconf.finite_forms", "finite_form_isometric"),
    ("finite_forms", "all_subgroups", FiniteForm, "all_subgroups"),
    ("finite_forms", "subgroup", FiniteForm, "subgroup"),
    ("finite_forms", "apply_images", "latconf.finite_forms", "apply_images"),
    ("finite_forms", "add", FiniteForm, "add"),
    ("finite_forms", "smul", FiniteForm, "smul"),
    ("lattices", "discriminant_form", Lattice, "discriminant_form"),
    ("lattices", "enumerate_integral_overlattices", "latconf.lattices", "enumerate_integral_overlattices"),
    ("lattices", "overlattice_from_isotropic", "latconf.lattices", "overlattice_from_isotropic"),
    ("lattices", "same_invariants", "latconf.lattices", "same_invariants"),
    ("lattices", "orthogonal_complement", "latconf.lattices", "orthogonal_complement"),
    ("lattices", "saturation", "latconf.lattices", "saturation"),
    ("lattices", "sublattice_index", "latconf.lattices", "sublattice_index"),
    ("lattices", "is_isometric_small", "latconf.lattices", "is_isometric_small"),
    ("isotropic", "enumerate_isotropic_vectors", "latconf.isotropic", "enumerate_isotropic_vectors"),
    ("isotropic", "scan_isotropic_planes", "latconf.isotropic", "scan_isotropic_planes"),
    ("isotropic", "classify_isotropic_vector", "latconf.isotropic", "classify_isotropic_vector"),
    ("isotropic", "classify_isotropic_plane", "latconf.isotropic", "classify_isotropic_plane"),
    ("isotropic", "certificate_matches", "latconf.isotropic", "certificate_matches"),
    ("configs", "stability", "latconf.configs", "stability"),
    ("configs", "canonical_form", "latconf.configs", "canonical_form"),
    ("configs", "cremona", "latconf.configs", "cremona"),
    ("configs", "equivalent", "latconf.configs", "equivalent"),
    ("configs", "orbit", "latconf.configs", "orbit"),
    ("configs", "triple_points", "latconf.configs", "triple_points"),
    ("configs", "smoothness", "latconf.configs", "smoothness"),
    ("configs", "drop_line", "latconf.configs", "drop_line"),
    ("configs", "seven_line_config", "latconf.configs", "seven_line_config"),
)

# Modules searched for bindings of a traced function (``from .x import f``).
LATCONF_MODULES = (
    "latconf.matrices", "latconf.lattices", "latconf.finite_forms",
    "latconf.isotropic", "latconf.configs", "latconf.f2space",
    "latconf.jacobian", "latconf.verify", "latconf.cli",
)


def span_names():
    return [f"{layer}.{name}" for layer, name, _owner, _attr in TRACED]


class Tracer:
    """Aggregated spans of one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.rref_cells = 0
        self.automorphisms_yielded = 0
        self.planes_found = 0
        self.scan_saturations = 0
        self.collinear_rejects = 0
        self.systems = set()
        self.active = False
        self._stack = []  # [span name, time covered by child spans]
        self._patches = []  # (namespace, attribute, original)

    # -- installing and removing wrappers ------------------------------

    def install(self):
        modules = [importlib.import_module(m) for m in LATCONF_MODULES]
        for layer, name, owner, attr in TRACED:
            span = f"{layer}.{name}"
            if isinstance(owner, str):
                original = getattr(sys.modules[owner], attr)
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            else:
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(span, original))
        self.active = True

    def uninstall(self):
        self.active = False
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    # -- spans ---------------------------------------------------------

    def _wrap(self, span, fn):
        tracer = self
        hook = _HOOKS.get(span)
        consume = span == "finite_forms.finite_form_automorphisms"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if consume:
                    # a generator does its work while it is iterated:
                    # iterate it inside the span
                    result = iter(list(result))
                if hook is not None:
                    hook(tracer, args, result)
                return result
            except Exception as exc:
                if span == "configs.cremona" and type(exc).__name__ == "VerticesCollinear":
                    tracer.collinear_rejects += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                tracer.calls[span] += 1
                tracer.self_s[span] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    # -- results -------------------------------------------------------

    def metrics(self):
        """Every per-layer metric of the traced pass, zeros included."""
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        systems = len(self.systems)
        planes = self.planes_found
        out["matrices.rref.cells"] = (self.rref_cells, "count")
        out["jacobian.source_pieces_per_system"] = (
            self.calls["jacobian.invariant_deformations"] / systems if systems else 0.0,
            "ratio",
        )
        out["finite_forms.automorphisms_yielded"] = (self.automorphisms_yielded, "count")
        out["isotropic.planes_found"] = (planes, "count")
        out["isotropic.saturations_per_plane"] = (
            self.scan_saturations / planes if planes else 0.0, "ratio"
        )
        out["configs.cremona.collinear_rejects"] = (self.collinear_rejects, "count")
        return out


def _rref_hook(tracer, args, result):
    m = args[0]
    tracer.rref_cells += m.rows * m.cols


def _automorphisms_hook(tracer, args, result):
    tracer.automorphisms_yielded += result.__length_hint__()


def _period_map_hook(tracer, args, result):
    q = args[0]
    tracer.systems.add(q.data if isinstance(q, Matrix) else repr(q))


def _scan_hook(tracer, args, result):
    tracer.planes_found += result.count


def _saturation_hook(tracer, args, result):
    if any(frame[0] == "isotropic.scan_isotropic_planes" for frame in tracer._stack):
        tracer.scan_saturations += 1


_HOOKS = {
    "matrices.rref": _rref_hook,
    "finite_forms.finite_form_automorphisms": _automorphisms_hook,
    "jacobian.period_map": _period_map_hook,
    "isotropic.scan_isotropic_planes": _scan_hook,
    "lattices.saturation": _saturation_hook,
}
