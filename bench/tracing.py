"""Spans and counters around the public functions of ``chordalnet``.

The tracer wraps functions from outside the program: it replaces every
module binding of each spanned name (``network_violations`` is bound in
both ``networks`` and ``serial``, ``dumps_network`` in both ``serial`` and
``cli``), so calls between modules are seen too.  Spans are kept in memory
and written out once, when the run ends.  The hot lookup methods get
counters instead of spans, because a span per call would cost more than
the call.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Span name -> (module, function names grouped under it).
SPANS = {
    "graphs.moralise_graph": ("graphs", ("moralise_graph",)),
    "graphs.triangulate_graph": ("graphs", ("triangulate_graph",)),
    "graphs.is_ordered_chordal": ("graphs", ("is_ordered_chordal",)),
    "graphs.d_separated": ("graphs", ("d_separated",)),
    "graphs.u_separated": ("graphs", ("u_separated",)),
    "graphs.junction_tree": ("graphs", ("junction_tree",)),
    "graphs.running_intersection_holds": ("graphs", ("running_intersection_holds",)),
    "factors.factor_product": ("factors", ("factor_product",)),
    "factors.factor_marginalize": ("factors", ("factor_marginalize",)),
    "factors.normalize_to_kernel": ("factors", ("normalize_to_kernel",)),
    "factors.kernel_to_factor": ("factors", ("kernel_to_factor",)),
    "networks.network_violations": ("networks", ("network_violations",)),
    "networks.full_table": ("networks", ("mn_unnormalized", "bn_joint", "cn_product")),
    "networks.mn_partition": ("networks", ("mn_partition",)),
    "networks.marginal_distribution": ("networks", ("marginal_distribution",)),
    "transforms.moralise_bn": ("transforms", ("moralise_bn",)),
    "transforms.triangulate_bn": ("transforms", ("triangulate_bn",)),
    "transforms.triangulate_mn": ("transforms", ("triangulate_mn",)),
    "transforms.variable_elimination": ("transforms", ("variable_elimination",)),
    "transforms.mn_to_bn": ("transforms", ("mn_to_bn",)),
    "serial.loads_network": ("serial", ("loads_network",)),
    "serial.dumps_network": ("serial", ("dumps_network",)),
    "cli.main": ("cli", ("main",)),
}

# Counter name -> (module, class, method names grouped under it).
COUNTERS = {
    "factors.VariableTable.index": ("factors", "VariableTable", ("index",)),
    "graphs.adjacency": (
        "graphs",
        ("OrderedDag", "OrderedUGraph"),
        ("parents_of", "children_of", "neighbours_of"),
    ),
}

# Structural counts are taken over the traced set-up and this many
# operations, a fixed prefix, so that they repeat exactly for a seed.
STRUCTURE_OPS = 16

MODULES = ("factors", "graphs", "networks", "transforms", "serial", "cli", "morphisms")


class Tracer:
    """Span and counter recorder for one run.

    ``op`` is the index of the operation in progress, ``-1`` during
    set-up; per-operation metrics only count spans with ``op >= 0``.
    """

    def __init__(self, mods):
        self.mods = mods
        self.op = -1
        self.spans: list[tuple] = []
        self.counters: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.sums: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.triangulations: list[tuple] = []
        self.chordal_tables: list[object] = []
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    # Recording.

    def _call(self, name, fn, args, kwargs):
        frame = [next(self._ids), 0.0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += t1 - t0
            self.spans.append((frame[0], parent, self.op, name, t0, t1, t1 - t0 - frame[1]))

    def _span(self, name, fn, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            if note is not None:
                note(self, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counter = self.counters[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[1] += perf_counter() - t0
                counter[0] += 1

        return wrapper

    # Installing and removing the wrappers.

    def install(self) -> None:
        for name, (home, fnames) in SPANS.items():
            for fname in fnames:
                original = getattr(getattr(self.mods, home), fname)
                wrapper = self._span(name, original, NOTES.get(fname))
                for mod_name in MODULES + ("package",):
                    mod = getattr(self.mods, mod_name)
                    if getattr(mod, fname, None) is original:
                        self._patch(mod, fname, wrapper)
        for name, (home, classes, methods) in COUNTERS.items():
            for cls_name in (classes,) if isinstance(classes, str) else classes:
                cls = getattr(getattr(self.mods, home), cls_name)
                for method in methods:
                    if method in vars(cls):
                        self._patch(cls, method, self._counted(name, vars(cls)[method]))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset_counters(self) -> None:
        # The wrappers hold their counter lists, so zero them in place.
        for counter in self.counters.values():
            counter[:] = [0, 0.0]
        self.sums.clear()
        self.maxima.clear()

    # Results.

    def per_op_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation totals over spans recorded with ``op >= 0``."""
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0.0
        for _, _, op, name, t0, t1, self_s in self.spans:
            if op >= 0:
                out[f"{name}.s"] += t1 - t0
                out[f"{name}.self_s"] += self_s
                out[f"{name}.calls"] += 1
        for name in COUNTERS:
            calls, seconds = self.counters.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = seconds
        for name in SUMS:
            out[name] = self.sums.get(name, 0.0)
        out = {k: v / ops for k, v in out.items()}
        for name in MAXIMA:
            out[name] = self.maxima.get(name, 0.0)
        out.update(self.structure())
        return out

    def structure(self) -> dict[str, float]:
        """Fill, width and table sizes of the captured triangulations."""
        fill = [len(out.edges) - len(h.edges) for h, out in self.triangulations]
        width = 0
        for _, out in self.triangulations:
            indegree = defaultdict(int)
            for _, v in out.edges:
                indegree[v] += 1
            width = max(width, max(indegree.values(), default=0))
        sizes = [[k.values.size for k in net.kernels.values()] for net in self.chordal_tables]
        return {
            "graphs.fill_edges": sum(fill) / len(fill) if fill else 0.0,
            "graphs.induced_width": float(width),
            "transforms.table_entries": (
                sum(map(sum, sizes)) / len(sizes) if sizes else 0.0
            ),
            "transforms.max_family_entries": float(max(map(max, sizes), default=0)),
        }

    def write(self, path: Path) -> None:
        """Write every span, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "op", "name", "start", "end", "self"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Notes taken after a call returns: sizes of outputs and captured structure.


def _note_product(tracer, args, result):
    tracer.sums["factors.factor_product.out_entries"] += result.values.size


def _note_full_table(tracer, args, result):
    key = "networks.full_table.max_entries"
    tracer.maxima[key] = max(tracer.maxima[key], result.values.size)


def _note_loads(tracer, args, result):
    tracer.sums["serial.bytes_in"] += len(args[0])


def _note_dumps(tracer, args, result):
    tracer.sums["serial.bytes_out"] += len(result)


def _note_triangulation(tracer, args, result):
    if tracer.op < STRUCTURE_OPS:
        tracer.triangulations.append((args[0], result))


def _note_kernels(tracer, args, result):
    if tracer.op < STRUCTURE_OPS:
        tracer.chordal_tables.append(result)


NOTES = {
    "factor_product": _note_product,
    "mn_unnormalized": _note_full_table,
    "bn_joint": _note_full_table,
    "cn_product": _note_full_table,
    "loads_network": _note_loads,
    "dumps_network": _note_dumps,
    "triangulate_graph": _note_triangulation,
    "triangulate_mn": _note_kernels,
    "triangulate_bn": _note_kernels,
}
SUMS = (
    "factors.factor_product.out_entries",
    "serial.bytes_in",
    "serial.bytes_out",
)
MAXIMA = ("networks.full_table.max_entries",)


def metric_names() -> list[str]:
    """Every per-operation metric the tracer reports, in a fixed order."""
    names = [f"{s}.{k}" for s in SPANS for k in ("s", "self_s", "calls")]
    names += [f"{c}.{k}" for c in COUNTERS for k in ("calls", "s")]
    names += list(SUMS) + list(MAXIMA)
    names += [
        "graphs.fill_edges",
        "graphs.induced_width",
        "transforms.table_entries",
        "transforms.max_family_entries",
    ]
    return names
