"""Per-layer measurement from outside the program.

`Tracer` wraps public functions of the `unramified` modules and records one
span per call: id, parent id, name, start, end, the verdict it belongs to
and a few counts taken at the boundary.  A name imported with
`from .groebner import buchberger` is a separate binding in every importing
module, so the wrapper is bound wherever the original object is found.

`profile_pass` runs a pass under the standard `cProfile` for the layers whose
functions run millions of times.  Their call counts are read from the
profile, never patched in.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import pstats
import sys
import time

PACKAGE = "unramified"

# (module, attribute, span name, extra count).  Order is the binding order;
# names missing from the program are skipped and reported as missing.
TRACED = (
    ("unramified.groebner", "buchberger", "groebner.buchberger", None),
    ("unramified.groebner", "normal_form", "groebner.normal_form", None),
    ("unramified.groebner", "staircase", "groebner.staircase", "entries"),
    ("unramified.groebner", "staircase_of_degree", "groebner.staircase_of_degree", None),
    ("unramified.linalg", "row_reduce", "linalg.row_reduce", "cells"),
    ("unramified.algebras", "make_quotient", "algebras.make_quotient", None),
    ("unramified.algebras", "tensor_many", "algebras.tensor_many", None),
    ("unramified.algebras", "quotient_by", "algebras.quotient_by", None),
    ("unramified.algebras", "artinian_local_model", "algebras.artinian_local_model", None),
    ("unramified.algebras", "nilpotency_index", "algebras.nilpotency_index", None),
    ("unramified.algebras", "is_injective", "algebras.is_injective", None),
    ("unramified.differentials", "KaehlerModule.__init__", "differentials.KaehlerModule",
     "relation_vectors"),
    ("unramified.differentials", "kaehler", "differentials.kaehler", "cache_hits"),
    ("unramified.differentials", "derivation_kernel_in_degree",
     "differentials.derivation_kernel_in_degree", None),
    ("unramified.constructions", "killing_step", "constructions.killing_step", None),
    ("unramified.constructions", "B_tensor_power", "constructions.B_tensor_power", None),
    ("unramified.constructions", "gabber_B", "constructions.gabber_B", None),
    ("unramified.constructions", "check_theorem_local_case",
     "constructions.check_theorem_local_case", None),
    ("unramified.parsing", "parse_presentation", "parsing.parse_presentation", None),
)

# Exact call counts read from the profile: metric -> (module, qualified name).
PROFILE_COUNTS = {
    "groebner.reduction_steps": ("unramified.groebner", "_Budget.spend"),
    "groebner.spairs": ("unramified.groebner", "_spair"),
    "polynomials.mono_div.calls": ("unramified.polynomials", "mono_div"),
    "polynomials.monomial_key.calls": ("unramified.polynomials", "PolyRing.monomial_key"),
    "fields.elements_created": ("unramified.fields", "FieldElement.__init__"),
}
# Self time read from the profile: metric -> module whose file is summed.
PROFILE_SELF = {
    "polynomials.self_s": "unramified.polynomials",
    "fields.self_s": "unramified.fields",
    "fields.fractions_self_s": "fractions",
}


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, object) for a dotted name, or None when absent."""
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = inspect.getattr_static(owner, attr, None)
    return None if value is None else (owner, attr, value)


class _Bindings:
    """Rebinds names and remembers how to undo it."""

    def __init__(self):
        self.undo: list = []

    def bind(self, owner, attr: str, original, replacement):
        """Bind `replacement` wherever `original` is bound: on the class for
        a method, else in every module of the package."""
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [(module, key)
                       for name, module in list(sys.modules.items())
                       if name == PACKAGE or name.startswith(PACKAGE + ".")
                       for key, value in list(vars(module).items())
                       if value is original]
        for target, key in targets:
            setattr(target, key, replacement)
            self.undo.append((target, key, original))

    def restore(self):
        for target, key, original in reversed(self.undo):
            setattr(target, key, original)
        self.undo = []


def _extra(kind: str, args: tuple, result) -> int:
    if kind == "entries":
        return len(result.monomials) if result.finite else 0
    if kind == "cells":
        return len(args[0]) * args[1]
    if kind == "relation_vectors":
        return len(args[0].relation_vectors)
    raise ValueError(kind)


class Tracer:
    """Spans kept in memory: [id, parent, name, start, end, root, count].
    `root` is the id of the outermost span, so the spans of one verdict share
    it."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.missing = [name for module, attr, name, _ in TRACED
                        if _resolve(module, attr) is None]
        kaehler = _resolve("unramified.differentials", "kaehler")
        if kaehler is None or not hasattr(kaehler[2], "cache_info"):
            self.missing.append("differentials.kaehler.cache_hits")
        self._bindings = _Bindings()

    def _wrap(self, original, name: str, kind):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0,
                    stack[0] if stack else len(spans), 0]
            spans.append(span)
            stack.append(span[0])
            hits = original.cache_info().hits if kind == "cache_hits" else 0
            span[3] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if kind == "cache_hits":
                span[6] = original.cache_info().hits - hits
            elif kind is not None:
                span[6] = _extra(kind, args, result)
            return result

        return wrapper

    def install(self):
        for module, attr, name, kind in TRACED:
            found = _resolve(module, attr)
            if found is not None:
                owner, attr_name, original = found
                if kind == "cache_hits" and not hasattr(original, "cache_info"):
                    kind = None
                self._bindings.bind(owner, attr_name, original,
                                    self._wrap(original, name, kind))

    def uninstall(self):
        self._bindings.restore()

    def root(self, fn, name: str):
        """`fn` wrapped as a root span, such as one verdict."""
        return self._wrap(fn, name, None)


def summarize(spans: list) -> dict:
    """Per span name: calls, total_s, self_s (duration minus the time its
    direct children cover) and the summed extra count."""
    child_time = [0.0] * len(spans)
    index = {s[0]: i for i, s in enumerate(spans)}
    for s in spans:
        if s[1] is not None and s[1] in index:
            child_time[index[s[1]]] += s[4] - s[3]
    out: dict = {}
    for i, s in enumerate(spans):
        entry = out.setdefault(s[2], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "extra": 0})
        entry["calls"] += 1
        entry["total_s"] += s[4] - s[3]
        entry["self_s"] += s[4] - s[3] - child_time[i]
        entry["extra"] += s[6]
    return out


class SpairCounter:
    """Counts S-pairs whose S-vector is zero or reduces to zero.  Wraps
    `_spair` and `_reduce_terms`: Buchberger reduces each nonzero S-vector
    right after building it, so the reduction of that exact dict is the
    S-pair's outcome."""

    def __init__(self):
        self.spairs = 0
        self.zero = 0
        self.available = all(_resolve("unramified.groebner", n) is not None
                             for n in ("_spair", "_reduce_terms"))
        self._bindings = _Bindings()
        self._pending = None

    def install(self):
        if not self.available:
            return
        groebner = importlib.import_module("unramified.groebner")
        spair, reduce_terms = groebner._spair, groebner._reduce_terms

        def counted_spair(*args, **kwargs):
            s = spair(*args, **kwargs)
            self.spairs += 1
            if s:
                self._pending = s
            else:
                self.zero += 1
            return s

        def counted_reduce(ring, terms, *args, **kwargs):
            out = reduce_terms(ring, terms, *args, **kwargs)
            if terms is self._pending:
                self._pending = None
                if not out:
                    self.zero += 1
            return out

        self._bindings.bind(groebner, "_spair", spair, counted_spair)
        self._bindings.bind(groebner, "_reduce_terms", reduce_terms, counted_reduce)

    def uninstall(self):
        self._bindings.restore()
        self._pending = None


def _code_key(code) -> tuple:
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profile_pass(run) -> tuple:
    """Run `run()` under cProfile.  Returns (its result, counts, self times);
    a count whose function no longer exists is absent, never 0."""
    counter = SpairCounter()
    profiler = cProfile.Profile()
    counter.install()
    try:
        profiler.enable()
        try:
            result = run()
        finally:
            profiler.disable()
    finally:
        counter.uninstall()
    stats = pstats.Stats(profiler).stats
    counts: dict = {}
    for metric, (module, qualname) in PROFILE_COUNTS.items():
        found = _resolve(module, qualname)
        code = getattr(found[2], "__code__", None) if found else None
        if code is not None:
            entry = stats.get(_code_key(code))
            counts[metric] = entry[1] if entry else 0
    if counter.available:
        counts["groebner.spairs_wrapped"] = counter.spairs
        counts["groebner.spairs_zero"] = counter.zero
    selfs: dict = {}
    for metric, module in PROFILE_SELF.items():
        filename = importlib.import_module(module).__file__
        selfs[metric] = sum(v[2] for k, v in stats.items() if k[0] == filename)
    return result, counts, selfs
