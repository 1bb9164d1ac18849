"""Spans around mengerkit's public functions, installed from outside.

Each traced function is replaced by a wrapper in every ``mengerkit``
module that holds it, since modules import names from each other (both
``mengerkit.represent.verify_homomorphism`` and
``mengerkit.theorems.verify_homomorphism`` are wrapped).  Methods are
wrapped on their class.  Spans stay in memory as per-name aggregates and
are written out when the pass ends.

Two modes, run in separate processes so that one does not distort the
other: ``time`` records span durations, ``memory`` runs ``tracemalloc``
only inside the memory spans and records their peaks.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc

# per-layer metric -> traced functions; a layer's time is the inclusive
# duration of its outermost spans (a span nested in one of the same layer
# is not counted twice)
LAYERS = {
    "tables.close_s": ["tables.close_under_operations"],
    "algebra.abstract_s": ["algebra.abstract_from_concrete"],
    "algebra.laws_s": ["algebra.check_associativity", "algebra.check_menger_identities",
                       "algebra.check_representability"],
    "algebra.states_s": ["algebra.reachable_states"],
    "relations.predicates_s": ["relations.is_l_regular", "relations.is_l_cancellative",
                               "relations.is_v_negative",
                               "relations.is_zero_quasi_equivalence",
                               "relations.check_compatibility"],
    "relations.closure_s": ["relations.build_closure", "relations.seed_relations"],
    "relations.word_systems_s": ["relations.check_word_system"],
    "bitrel.closure_s": ["bitrel.BinRelation.transitive_closure"],
    "bitrel.then_s": ["bitrel.BinRelation.then"],
    "represent.universe_s": ["represent.build_universe"],
    "represent.parts_s": ["represent.sum_over_pairs", "represent.sum_over_points",
                          "represent.sum_representations"],
    "represent.hom_s": ["represent.verify_homomorphism"],
    "represent.relations_s": ["represent.representation_relations",
                              "represent.is_faithful"],
    "fileio.load_s": ["fileio.load_algebra", "fileio.load_relation"],
}
# self time: span duration minus the duration of its child spans
SELF_LAYERS = {
    "theorems.self_s": ["theorems.verify_conditions", "theorems.roundtrip",
                        "theorems.word_system_crosscheck"],
}
# tracemalloc peak inside the outermost span, in the memory mode
MEMORY_LAYERS = {
    "represent.parts_peak_mb": LAYERS["represent.parts_s"],
    "represent.hom_peak_mb": LAYERS["represent.hom_s"],
}
CLOSE = "tables.close_under_operations"


def _resolve(qualified: str):
    """(owner, attribute, original) for 'module.func' or 'module.Class.meth'."""
    parts = qualified.split(".")
    if len(parts) == 2:
        owner = importlib.import_module("mengerkit." + parts[0])
    else:
        owner = getattr(importlib.import_module("mengerkit." + parts[0]), parts[1])
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    def __init__(self, mode: str):
        if mode not in ("time", "memory"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.layer_of = {}
        self.self_layer_of = {}
        layers = LAYERS if mode == "time" else MEMORY_LAYERS
        for layer, names in layers.items():
            for name in names:
                self.layer_of[name] = layer
        if mode == "time":
            for layer, names in SELF_LAYERS.items():
                for name in names:
                    self.self_layer_of[name] = layer
        self.totals = {layer: 0.0 for layer in list(layers) + list(
            SELF_LAYERS if mode == "time" else ())}
        self.calls = {}
        self.open = {}  # layer -> number of its spans on the stack
        self.stack = []  # child durations of the spans on the stack
        self.close_calls = 0
        self.close_capped = 0
        self.close_wasted_s = 0.0

    def install(self):
        import mengerkit  # noqa: F401  (loads every submodule the wrappers need)

        for name in set(self.layer_of) | set(self.self_layer_of):
            owner, attr, original = _resolve(name)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for modname, module in list(sys.modules.items()):
                if modname == "mengerkit" or modname.startswith("mengerkit."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def _wrap(self, name, fn):
        layer = self.layer_of.get(name)
        self_layer = self.self_layer_of.get(name)
        memory = self.mode == "memory"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = layer is not None and not self.open.get(layer)
            if layer is not None:
                self.open[layer] = self.open.get(layer, 0) + 1
            memory_here = memory and outermost and not tracemalloc.is_tracing()
            if memory_here:
                tracemalloc.start()
            self.stack.append(0.0)
            capped = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                capped = type(exc).__name__ == "CapacityError"
                raise
            finally:
                duration = time.perf_counter() - start
                children = self.stack.pop()
                if self.stack:
                    self.stack[-1] += duration
                self.calls[name] = self.calls.get(name, 0) + 1
                if layer is not None:
                    self.open[layer] -= 1
                if memory_here:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.totals[layer] = max(self.totals[layer], peak)
                elif outermost and not memory:
                    self.totals[layer] += duration
                if self_layer is not None:
                    self.totals[self_layer] += duration - children
                if name == CLOSE:
                    self.close_calls += 1
                    if capped:
                        self.close_capped += 1
                        self.close_wasted_s += duration

        return traced

    def report(self) -> dict:
        out = dict(self.totals)
        if self.mode == "time":
            out["tables.close_wasted_s"] = self.close_wasted_s
            out["close_calls"] = self.close_calls
            out["close_capped"] = self.close_capped
        out["calls"] = dict(sorted(self.calls.items()))
        return out
