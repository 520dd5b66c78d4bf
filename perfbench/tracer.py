"""Outside-in spans around the public functions of each `filtra` module.

`install` rebinds every public function of a layer module in every `filtra`
module that imported it (`from .group import join` gives `filters.join`,
which patching `filtra.group.join` alone would miss), and wraps the class
methods listed in `METHODS` on their class.  Each call records a span:
name, metric key, start, end, parent span and job id.  Spans stay in memory
until the end of the run.

A function named in `NAMED` reports under its own metric key.  Any other
wrapped function reports under the key of its caller when the caller is a
span of the same module (it is part of that call's work), and otherwise
under `<module>.self`.  Self time is a span's duration minus the durations
of its child spans, so recursion (`composition_factors`) and re-entry
(`jacobson_radical` inside `verify_radical`) are counted once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("group", "filters", "liering", "bimap", "modlinalg", "algrep", "refine", "cli", "ring")

NAMED = {
    "group.UnipotentGroup.__init__": "group.build",
    "group.join": "group.join",
    "group.commutator_subgroup": "group.commutator_subgroup",
    "group.power_subgroup": "group.power_subgroup",
    "group.SectionBasis.__init__": "group.section_basis",
    "group.SectionBasis.preimage": "group.preimage",
    "group.is_normal": "group.is_normal",
    "filters.series_filter": "filters.series",
    "filters.gamma_filter": "filters.series",
    "filters.eta_filter": "filters.series",
    "filters.kappa_filter": "filters.series",
    "filters.generate": "filters.generate",
    "filters.verify_axioms": "filters.verify_axioms",
    "liering.GradedLieRing.product_tensor": "liering.product_tensor",
    "liering.GradedLieRing.check_antisymmetry": "liering.checks",
    "liering.GradedLieRing.check_bilinear": "liering.checks",
    "liering.GradedLieRing.check_jacobi": "liering.checks",
    "liering.GradedLieRing.check_well_defined": "liering.checks",
    "bimap.solve_ring": "bimap.solve_ring",
    "modlinalg.rref": "modlinalg.rref",
    "modlinalg.nullspace": "modlinalg.nullspace",
    "modlinalg.Subspace.__init__": "modlinalg.subspace",
    "modlinalg.Subspace.contains": "modlinalg.subspace",
    "algrep.algebra_closure": "algrep.algebra_closure",
    "algrep.jacobson_radical": "algrep.jacobson_radical",
    "algrep.verify_radical": "algrep.verify_radical",
    "refine.ring_at": "refine.ring_at",
}

METHODS = {
    "group": {"UnipotentGroup": ("__init__",), "SectionBasis": ("__init__", "preimage")},
    "liering": {"GradedLieRing": ("product_tensor", "check_antisymmetry", "check_bilinear",
                                  "check_jacobi", "check_well_defined")},
    "modlinalg": {"Subspace": ("__init__", "contains")},
}

# One-line helpers called once per matrix product or per pivot.  A span on
# each would cost more than their work; their time stays with the caller.
UNWRAPPED = {"group.batch_mul", "group.batch_inv", "group.is_unipotent",
             "modlinalg.inv_mod", "modlinalg.as_array", "modlinalg.is_prime",
             "modlinalg.check_prime"}

KEYS = sorted(set(NAMED.values()) | {f"{m}.self" for m in LAYERS})


def _count(key: str, amount):
    def hook(counts, args, result):
        counts[key] += amount(args, result)
    return hook


def _system_cells(blocks: int, with_z: bool):
    """rows x unknowns of a ring's constraint system, from the tensor shape."""
    def amount(args, ring):
        a, b, c = ring.tensor.shape
        return blocks * a * b * c * (a * a + b * b + (c * c if with_z else 0))
    return _count("bimap.system_cells", amount)


def _try_split(counts, args, result):
    counts["algrep.try_split_calls"] += 1
    verdict, data = result
    counts["algrep.splits" if verdict == "sub" else f"algrep.certs_{data[0]}"] += 1


HOOKS = {
    "group.UnipotentGroup.__init__": _count("group.build_order", lambda a, r: a[0].order()),
    "group.SectionBasis.__init__": _count("group.section_elements",
                                          lambda a, r: a[0].num.order()),
    "bimap.adjoint_ring": _system_cells(1, False),
    "bimap.centroid_ring": _system_cells(2, True),
    "bimap.derivation_ring": _system_cells(1, True),
    "modlinalg.rref": _count("modlinalg.rref_cells", lambda a, r: int(np.prod(np.shape(a[0])))),
    "algrep.try_split": _try_split,
    "algrep.spin": _count("algrep.spin_calls", lambda a, r: 1),
    "refine.refine_once": _count("refine.rounds", lambda a, r: 1),
}


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, key, module, start, end, parent, job]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job = ""

    def wrap(self, fn, name: str, module: str):
        key = NAMED.get(name)
        hook = HOOKS.get(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            k = key
            if k is None:
                k = spans[parent][1] if parent >= 0 and spans[parent][2] == module \
                    else module + ".self"
            rec = [name, k, module, clock(), 0.0, parent, tracer.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def self_times(self, start: float, end: float) -> dict[str, tuple[float, int]]:
        """(self seconds, span count) per key over spans inside [start, end]."""
        child = [0.0] * len(self.spans)
        for name, key, module, s, e, parent, job in self.spans:
            if parent >= 0:
                child[parent] += e - s
        out: dict[str, list] = {k: [0.0, 0] for k in KEYS}
        for i, (name, key, module, s, e, parent, job) in enumerate(self.spans):
            if s >= start and e <= end:
                out[key][0] += e - s - child[i]
                out[key][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def covered(self, start: float, end: float) -> float:
        """Seconds of [start, end] covered by top-level spans."""
        return sum(e - s for _, _, _, s, e, parent, _ in self.spans
                   if parent < 0 and s >= start and e <= end)


def install(tracer: Tracer) -> int:
    """Wrap the layer modules' public functions and listed methods; return
    the number of wrapped callables."""
    wrapped: dict = {}
    for module in LAYERS:
        mod = importlib.import_module(f"filtra.{module}")
        for attr, obj in vars(mod).items():
            name = f"{module}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in UNWRAPPED):
                wrapped[obj] = tracer.wrap(obj, name, module)
        for cls_name, methods in METHODS.get(module, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(fn, f"{module}.{cls_name}.{meth}", module))
    for modname, mod in list(sys.modules.items()):
        if modname == "filtra" or modname.startswith("filtra."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
    return len(wrapped) + sum(len(m) for c in METHODS.values() for m in c.values())
