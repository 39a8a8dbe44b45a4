"""Spans around orbichar's public functions, installed from outside.

`install(tracer)` replaces each listed function with a timing wrapper in
every orbichar module that binds it: `cli`, `classify`, `constructions` and
`sectors` import names with `from .core import ...`, so patching only the
defining module would miss their calls. Generator functions get one span
per `next()`. Spans are kept in flat arrays and written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

# Span name -> layer metric group. Names are "<module>.<qualname>".
FUNCTIONS = {
    "cli": ["main"],
    "classify": ["reconstruct", "minimal_recurrence", "search_collisions", "char_sequence"],
    "core": ["parse_signature", "chi_level", "chi_gamma", "power_sum"],
    "constructions": [
        "build_collision_pair", "expand_family", "general_gamma_family", "same_level_family",
    ],
    "sectors": [
        "group_by_name", "cyclic_group", "dihedral_group", "direct_product",
        "enumerate_homs", "hom_classes", "chi_gamma_quotient", "chi_gamma_mirrored",
    ],
}
GENERATORS = {"classify": ["iter_signatures_by_chi_es"]}
METHODS = {("core", "OrbifoldSignature"): ["__init__", "to_json"]}
CLASSMETHODS = {
    ("core", "OrbifoldSignature"): ["from_orders", "from_json"],
    ("sectors", "FiniteGroup"): ["from_json"],
}

SIGNATURE = {
    "core.OrbifoldSignature.__init__", "core.OrbifoldSignature.from_orders",
    "core.OrbifoldSignature.from_json", "core.parse_signature",
}
CHI = {"core.chi_level", "classify.char_sequence", "core.chi_gamma", "core.power_sum"}
CONSTRUCTIONS = {f"constructions.{name}" for name in FUNCTIONS["constructions"]}
GROUP_BUILDERS = {
    "sectors.cyclic_group", "sectors.dihedral_group", "sectors.direct_product",
    "sectors.FiniteGroup.from_json",
}
GROUP_BUILD = GROUP_BUILDERS | {"sectors.group_by_name"}
SUMS = {"sectors.chi_gamma_quotient", "sectors.chi_gamma_mirrored"}


class Tracer:
    """Spans as parallel arrays; a span's index is its opening order, so a
    parent always precedes its children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.stack: list[int] = []
        self.request_id = -1
        self.counters: Counter = Counter()
        self.max_count = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        span = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.request_id)
        self.end.append(0)
        self.stack.append(span)
        self.start.append(time.perf_counter_ns())
        return span

    def close(self, span: int) -> None:
        self.end[span] = time.perf_counter_ns()
        self.stack.pop()

    def write(self, path: str, about: dict) -> None:
        """One JSON header line, then the five arrays as raw uint16/int64."""
        header = {
            **about,
            "names": self.names,
            "count": len(self.name),
            "arrays": ["name:uint16", "start_ns:int64", "end_ns:int64", "parent:int64", "request:int64"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for column in (self.name, self.start, self.end, self.parent, self.request):
                column.tofile(handle)


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it its children cover.

    Spans must be listed in opening order (children after their parent,
    siblings by start time). Overlapping children are merged, and children
    are clipped to the parent's interval.
    """
    n = len(start)
    covered = [0] * n
    reach = list(start)  # per parent: end of the children's union so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def _span(tracer: Tracer, name: str, fn, observe=None):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if observe is not None:
            observe(args, result)
        return result

    return traced


def _generator_span(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            span = tracer.open(nid)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(span)
            tracer.counters["classify.signatures_yielded"] += 1
            yield item

    return traced


def install(tracer: Tracer):
    """Wrap every listed function and method; returns the undo callable."""
    import orbichar
    from orbichar import classify, cli, constructions, core, sectors

    modules = {"core": core, "classify": classify, "constructions": constructions,
               "sectors": sectors, "cli": cli}
    bindings = [orbichar, *modules.values()]
    undo = []

    def observe_reconstruct(args, result):
        tracer.counters["classify.resolved"] += isinstance(result, core.OrbifoldSignature)

    def observe_homs(args, result):
        tracer.counters["sectors.homs_enumerated"] += len(result)

    def observe_signature(args, result):
        for _, count in args[0].cones:
            if count > tracer.max_count:
                tracer.max_count = count

    observers = {
        "classify.reconstruct": observe_reconstruct,
        "sectors.enumerate_homs": observe_homs,
        "core.OrbifoldSignature.__init__": observe_signature,
    }

    def rebind(original, wrapper):
        for module in bindings:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    for mod_name, names in FUNCTIONS.items():
        for fn_name in names:
            original = getattr(modules[mod_name], fn_name)
            name = f"{mod_name}.{fn_name}"
            rebind(original, _span(tracer, name, original, observers.get(name)))
    for mod_name, names in GENERATORS.items():
        for fn_name in names:
            original = getattr(modules[mod_name], fn_name)
            rebind(original, _generator_span(tracer, f"{mod_name}.{fn_name}", original))
    for (mod_name, cls_name), names in METHODS.items():
        cls = getattr(modules[mod_name], cls_name)
        for meth in names:
            original = cls.__dict__[meth]
            name = f"{mod_name}.{cls_name}.{meth}"
            setattr(cls, meth, _span(tracer, name, original, observers.get(name)))
            undo.append((cls, meth, original))
    for (mod_name, cls_name), names in CLASSMETHODS.items():
        cls = getattr(modules[mod_name], cls_name)
        for meth in names:
            original = cls.__dict__[meth]
            wrapped = _span(tracer, f"{mod_name}.{cls_name}.{meth}", original.__func__)
            setattr(cls, meth, classmethod(wrapped))
            undo.append((cls, meth, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _digits(n: int) -> int:
    digits = max(1, int((n.bit_length() - 1) * 0.30102999566398120) + 1)
    return digits + 1 if n >= 10**digits else digits


def layer_metrics(tracer: Tracer, bytes_out: int, scale: float = 1.0) -> dict[str, float]:
    """Per-layer totals over a traced run: counts, and seconds times `scale`."""
    names = tracer.names
    kind = [names[i] for i in tracer.name]
    own = self_times(tracer.start, tracer.end, tracer.parent)
    seconds: Counter = Counter()
    calls: Counter = Counter()
    for name, ns in zip(kind, own):
        seconds[name] += ns * scale / 1e9
        calls[name] += 1

    def total(group):
        return sum(seconds[name] for name in group)

    def count(group):
        return sum(calls[name] for name in group)

    # Time in top-level core.chi_* calls made under a constructions span.
    in_constructions = [False] * len(kind)
    verify_ns = 0
    for i, name in enumerate(kind):
        p = tracer.parent[i]
        if p >= 0:
            in_constructions[i] = in_constructions[p] or kind[p] in CONSTRUCTIONS
            if name in CHI and kind[p] not in CHI and in_constructions[i]:
                verify_ns += tracer.end[i] - tracer.start[i]

    reconstructs = calls["classify.reconstruct"]
    sums = count(SUMS)
    return {
        "cli.self_s": seconds["cli.main"],
        "cli.bytes_out": bytes_out,
        "classify.enumerate_s": seconds["classify.iter_signatures_by_chi_es"],
        "classify.signatures_yielded": tracer.counters["classify.signatures_yielded"],
        "classify.reconstruct_s": seconds["classify.reconstruct"],
        "classify.recurrence_s": seconds["classify.minimal_recurrence"],
        "classify.reconstruct_calls": reconstructs,
        "classify.resolved_ratio": tracer.counters["classify.resolved"] / reconstructs if reconstructs else 0.0,
        "classify.search_s": seconds["classify.search_collisions"],
        "core.signature_s": total(SIGNATURE),
        "core.signatures_built": calls["core.OrbifoldSignature.__init__"],
        "core.chi_s": total(CHI),
        "core.chi_calls": count(CHI),
        "core.to_json_s": seconds["core.OrbifoldSignature.to_json"],
        "core.max_count_digits": _digits(tracer.max_count) if tracer.max_count else 0,
        "constructions.build_s": seconds["constructions.build_collision_pair"],
        "constructions.expand_s": seconds["constructions.expand_family"],
        "constructions.verify_s": verify_ns * scale / 1e9,
        "constructions.calls": count(CONSTRUCTIONS),
        "sectors.group_build_s": total(GROUP_BUILD),
        "sectors.groups_built": count(GROUP_BUILDERS),
        "sectors.homs_s": seconds["sectors.enumerate_homs"],
        "sectors.homs_enumerated": tracer.counters["sectors.homs_enumerated"],
        "sectors.hom_enumerations_per_sum": calls["sectors.enumerate_homs"] / sums if sums else 0.0,
        "sectors.classes_s": seconds["sectors.hom_classes"],
        "sectors.quotient_s": seconds["sectors.chi_gamma_quotient"],
        "sectors.mirrored_s": seconds["sectors.chi_gamma_mirrored"],
    }


PER_LAYER_UNITS = {
    "cli.bytes_out": "bytes",
    "core.max_count_digits": "digits",
    "classify.resolved_ratio": "ratio",
    "sectors.hom_enumerations_per_sum": "ratio",
    "trace_overhead": "ratio",
}


def unit_of(metric: str) -> str:
    if metric in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[metric]
    return "s" if metric.endswith("_s") else "count"
