"""Outside-in tracing of the gentrop layers.

``Tracer.install`` wraps the public functions of each module and rebinds
every wrapper in every ``gentrop.*`` namespace that holds the original, so
calls made through ``from .groebner import buchberger`` style imports and the
package re-exports are seen too.  Each call records a span (name, start, end,
parent span) in memory; ``Tracer.summary`` turns the spans into per-layer
call counts, inclusive times and module self times once, at the end.

A few wrappers also read the call's arguments or result: Buchberger runs are
split by order kind into cache hits and runs, with size statistics of every
computed basis; transform applications count distinct (ideal, matrix)
pairs; transforms drawn above the requested bound count as escalations.
"""

from __future__ import annotations

import functools
import sys
import time

MODULES = ("cli", "poly", "groebner", "invariants", "fans", "generic", "tropmult")

# (module, function, span name); functions sharing a span name are summed
TRACED = [
    ("cli", "main", "cli.main"),
    ("cli", "parse_ideal_file", "cli.parse_ideal_file"),
    ("poly", "parse_polynomial", "poly.parse_polynomial"),
    ("poly", "initial_form", "poly.initial_form"),
    ("groebner", "buchberger", None),  # named per order kind, see _buchberger
    ("groebner", "saturate", "groebner.saturate"),
    ("groebner", "contains_monomial", "groebner.contains_monomial"),
    ("groebner", "initial_ideal", "groebner.initial_ideal"),
    ("generic", "apply_transform", "generic.apply_transform"),
    ("generic", "random_transform", "generic.random_transform"),
    ("generic", "gin", "generic.gin"),
    ("generic", "cone_constancy", "generic.cone_constancy"),
    ("generic", "adjacent_distinct", "generic.adjacent_distinct"),
    ("generic", "tropical_member", "generic.tropical_member"),
    ("invariants", "dimension", "invariants.dimension"),
    ("invariants", "hilbert", "invariants.hilbert"),
    ("invariants", "minimalize", "invariants.minimalize"),
    ("invariants", "is_strongly_stable", "invariants.is_strongly_stable"),
    ("fans", "interior_points", "fans.interior_points"),
    ("fans", "maximal_cones", "fans.enumerate"),
    ("fans", "refinement_maximal_cones", "fans.enumerate"),
    ("fans", "adjacent_pairs", "fans.enumerate"),
    ("tropmult", "intrinsic_multiplicity", "tropmult.intrinsic_multiplicity"),
    ("tropmult", "topdim_monomial_free", "tropmult.topdim_monomial_free"),
]

BUCHBERGER_KINDS = ("grevlex", "weighted")


class Tracer:
    def __init__(self, requested_bound: int):
        self.requested_bound = requested_bound
        self.names: list = []
        self._ids: dict = {}
        self.spans: list = []   # (name id, start, end, parent span index or -1)
        self._stack: list = []
        self.counts: dict = {}
        self.maxima = {"groebner.basis_len.max": 0, "groebner.basis_degree.max": 0,
                       "groebner.coeff_bits.max": 0}
        self._transforms: set = set()
        self._failures: list = []
        self._failure_type: tuple | type = ()  # GenericityFailure once installed

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name_of, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        failure_type = self._failure_type

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except failure_type as exc:
                if not any(exc is seen for seen in self._failures):
                    self._failures.append(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every loaded gentrop namespace."""
        import gentrop.cli  # noqa: F401  (loads every module)
        from gentrop.generic import GenericityFailure
        from gentrop.poly import GREVLEX

        self._failure_type = GenericityFailure
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if m is not None and (k == "gentrop" or k.startswith("gentrop."))]
        for module, func, span in TRACED:
            original = getattr(sys.modules[f"gentrop.{module}"], func)
            if func == "buchberger":
                wrapper = self._buchberger(original, GREVLEX)
            else:
                name_id = self._name_id(span)
                wrapper = self._wrap(original, lambda a, k, i=name_id: i,
                                     self._observer(func))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)

    def _observer(self, func: str):
        if func == "apply_transform":
            def observe(args, result):
                self._transforms.add((args[0].key(), args[1].matrix))
            return observe
        if func == "random_transform":
            def observe(args, result):
                if args[1].bound > self.requested_bound:
                    self._count("generic.escalations")
            return observe
        if func in ("maximal_cones", "refinement_maximal_cones", "adjacent_pairs"):
            return lambda args, result: self._count("fans.cones.enumerated", len(result))
        return None

    def _buchberger(self, original, default_order):
        ids = {kind: self._name_id(f"groebner.buchberger.{kind}") for kind in BUCHBERGER_KINDS}
        pending: list = []  # (kind, was cached) of the calls in flight

        def name_of(args, kwargs):
            ideal = args[0] if args else kwargs["I"]
            order = args[1] if len(args) > 1 else kwargs.get("order", default_order)
            kind = "grevlex" if order.weight is None else "weighted"
            pending.append((kind, order in ideal.gb_cache))
            return ids[kind]

        def observe(args, gb):
            kind, cached = pending.pop()
            if cached:
                self._count(f"groebner.buchberger.{kind}.hits")
                return
            self._count(f"groebner.buchberger.{kind}.runs")
            m = self.maxima
            m["groebner.basis_len.max"] = max(m["groebner.basis_len.max"], len(gb))
            for g in gb:
                m["groebner.basis_degree.max"] = max(m["groebner.basis_degree.max"], g.degree)
                for _, c in g.terms:
                    bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                    if bits > m["groebner.coeff_bits.max"]:
                        m["groebner.coeff_bits.max"] = bits

        wrapper = self._wrap(original, name_of, observe)

        @functools.wraps(original)
        def guarded(*args, **kwargs):
            depth = len(pending)
            try:
                return wrapper(*args, **kwargs)
            finally:
                del pending[depth:]  # a raising run leaves its entry behind

        return guarded

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls and inclusive seconds (outermost spans only, so a
        recursive call is not counted twice), per-module self seconds, and
        the seconds covered by top-level spans."""
        spans = [s for s in self.spans if s is not None]
        names = self.names
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict = {}
        inclusive: dict = {}
        self_s = {m: 0.0 for m in MODULES}
        covered = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            label = names[name]
            dur = end - start
            calls[label] = calls.get(label, 0) + 1
            self_s[label.split(".", 1)[0]] += dur - child_time[index]
            if parent < 0:
                covered += dur
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                inclusive[label] = inclusive.get(label, 0.0) + dur
        counts = dict(self.counts)
        counts.update(self.maxima)
        counts["generic.apply_transform.distinct"] = len(self._transforms)
        counts["generic.failures"] = len(self._failures)
        return {"calls": calls, "seconds": inclusive, "self_s": self_s,
                "covered_s": covered, "spans": len(spans), "counts": counts}
