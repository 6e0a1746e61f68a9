"""Spans and counters around quatype's public functions, from outside.

`Tracer.install(Q)` replaces each traced function at every place it is
looked up (module globals of every quatype module that imported it, and
class attributes of `Multivector`, `SubspacePattern` and `SplitMix64`) by
a wrapper, and `uninstall()` puts the originals back.

Every wrapped call updates an aggregate per name: calls, inclusive seconds
and self seconds (its duration minus the time of traced calls inside it).
Calls of the hot names below are only aggregated; every other call is also
kept as a span ``(id, name, start, end, parent id)`` in memory.  A call
nested directly inside a call of the same name counts once.
"""

from __future__ import annotations

import time
from collections import defaultdict

HOT = frozenset({
    "blades.canonical_sign", "multivector.product", "multivector.bracket",
    "multivector.construct", "multivector.qtype_project", "qtype.leakage",
    "qtype.matches", "qtype.detect_qtype", "verify.sample",
})

# (module, attribute) -> trace name, for module-level functions.
FUNCTIONS = (
    ("quatype.blades", "canonical_sign", "blades.canonical_sign"),
    ("quatype.qtype", "detect_qtype", "qtype.detect_qtype"),
    ("quatype.verify", "sample_pattern_mv", "verify.sample"),
    ("quatype.verify", "sample_type_mv", "verify.sample"),
    ("quatype.verify", "sample_rank_mv", "verify.sample"),
    ("quatype.exprio", "parse_expression", "exprio.parse"),
    ("quatype.exprio", "format_expression", "exprio.format"),
    ("quatype.exprio", "mv_to_document", "exprio.document"),
    ("quatype.exprio", "mv_from_document", "exprio.document"),
)

# (class name, attribute) -> trace name, for methods.
METHODS = (
    ("Multivector", "geometric_product", "multivector.product"),
    ("Multivector", "commutator", "multivector.bracket"),
    ("Multivector", "anticommutator", "multivector.bracket"),
    ("Multivector", "exp", "multivector.exp"),
    ("Multivector", "__init__", "multivector.construct"),
    ("Multivector", "qtype_project", "multivector.qtype_project"),
    ("SubspacePattern", "leakage", "qtype.leakage"),
    ("SubspacePattern", "matches", "qtype.matches"),
)

MODULES = ("quatype", "quatype.blades", "quatype.multivector", "quatype.qtype",
           "quatype.verify", "quatype.exprio", "quatype.cli")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.counts = defaultdict(int)
        self.leaf_pairs = defaultdict(int)
        self.leaf = None
        self._stack: list[list] = []  # [name, start, child seconds, span id]
        self._next_id = 0
        self._exp_depth = 0
        self._undo: list[tuple] = []

    # -- recording ------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one traced call named ``name``."""
        stack = self._stack
        span_id = None
        if name not in HOT:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, 0.0, 0.0, span_id]
        stack.append(frame)
        frame[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dt = end - frame[1]
            a = self.agg[name]
            if not (stack and stack[-1][0] == name):
                a[0] += 1
                a[1] += dt
            a[2] += dt - frame[2]
            if stack:
                stack[-1][2] += dt
            if span_id is not None:
                parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                self.spans.append((span_id, name, frame[1], end, parent))

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        return traced

    def _product(self, fn):
        tracer = self

        def traced(a, b):
            pairs = len(a.terms) * len(b.terms)
            tracer.counts["multivector.product.term_pairs"] += pairs
            if tracer.leaf is not None:
                tracer.leaf_pairs[tracer.leaf] += pairs
            if tracer._exp_depth:
                tracer.counts["multivector.exp.products"] += 1
            return tracer.call("multivector.product", fn, a, b)

        return traced

    def _exp(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._exp_depth += 1
            try:
                return tracer.call("multivector.exp", fn, *args, **kwargs)
            finally:
                tracer._exp_depth -= 1

        return traced

    def _draws(self, fn):
        counts = self.counts

        def traced(rng):
            counts["verify.rng.draws"] += 1
            return fn(rng)

        return traced

    def _sign_table(self, fn):
        """Time only the calls that build a table (cache misses)."""
        tracer = self

        def traced(sig):
            before = fn.cache_info().misses
            t0 = time.perf_counter()
            table = fn(sig)
            if fn.cache_info().misses != before:
                dt = time.perf_counter() - t0
                tracer.counts["blades.sign_table.builds"] += 1
                tracer.counts["blades.sign_table.s"] += dt
                if tracer._stack:  # not part of the caller's self time
                    tracer._stack[-1][2] += dt
            return table

        return traced

    # -- installation ---------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, modules, original, new) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, new)

    def install(self, Q) -> None:
        import importlib

        modules = [importlib.import_module(m) for m in MODULES]
        by_name = dict(zip(MODULES, modules))
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(by_name[mod_name], attr, None)
            if original is not None:
                self._replace_everywhere(modules, original, self.wrap(name, original))
        sign_table = getattr(by_name["quatype.blades"], "sign_table", None)
        if sign_table is not None and hasattr(sign_table, "cache_info"):
            self._replace_everywhere(modules, sign_table, self._sign_table(sign_table))
        classes = {"Multivector": Q.Multivector, "SubspacePattern": Q.SubspacePattern}
        for cls_name, attr, name in METHODS:
            cls = classes[cls_name]
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            if attr == "geometric_product":
                new = self._product(original)
            elif attr == "exp":
                new = self._exp(original)
            else:
                new = self.wrap(name, original)
            self._replace(cls, attr, new)
        if "next_u64" in Q.SplitMix64.__dict__:
            self._replace(Q.SplitMix64, "next_u64", self._draws(Q.SplitMix64.next_u64))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.agg[name][0] if name in self.agg else 0

    def total_s(self, name: str) -> float:
        return self.agg[name][1] if name in self.agg else 0.0

    def self_s(self, name: str) -> float:
        return self.agg[name][2] if name in self.agg else 0.0
