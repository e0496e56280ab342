"""Span recording around calls into capatree's layers, from outside the package.

``install`` rebinds each traced function under every name through which
callers look it up (the defining module, re-exports, and ``from x import y``
bindings in sibling modules), so calls made inside the package are traced
too.  Nothing under ``src/`` is edited.

Coarse calls (one per item or per query) keep a full span: name, id, parent
id, start and end.  Hot kernels called tens of thousands of times per item
(``phi_apply``, ``cap_component``, ``kappa_value``, ``quad``, ``minimize``)
are aggregated in place instead, so memory stays flat; they still sit on the
span stack, so their time is removed from their parent's self time.
``LogValue.__add__`` is only counted: a span around a 1.5 us call would
distort every layer above it.
"""

from __future__ import annotations

import collections
import functools
import importlib
import time

# (module, attribute, span name, keep full spans)
FUNCTIONS = (
    ("capatree.capacity", "phi_apply", "capacity.phi_apply", False),
    ("capatree.capacity", "capacity_recursive", "capacity.capacity_recursive", True),
    ("capatree.capacity", "finite_tree_capacity", "capacity.finite_tree_capacity", True),
    ("capatree.capacity", "cap_component", "capacity.cap_component", False),
    ("capatree.oracle", "solve_capacity", "oracle.solve_capacity", True),
    ("capatree.dobinski", "classify", "dobinski.classify", True),
    ("capatree.dobinski", "capacity_bounds", "dobinski.capacity_bounds", True),
    ("capatree.dobinski", "comparability_report", "dobinski.comparability_report", True),
    ("capatree.dobinski", "dimension_profile", "dobinski.dimension_profile", True),
    ("capatree.dobinski", "kappa_value", "dobinski.kappa_value", False),
    ("capatree.circle", "kernel_integral", "circle.kernel_integral", True),
    ("capatree.circle", "product_identity", "circle.product_identity", True),
    ("capatree.circle", "run_lengths", "circle.run_lengths", True),
    ("capatree.circle", "quad", "circle.quad", False),
    ("capatree.cli", "main", "cli.main", True),
    # solve_capacity imports minimize at call time, so the scipy binding is the one to wrap
    ("scipy.optimize", "minimize", "oracle.minimize", False),
)

# (module, class, attribute, span name)
METHODS = (
    ("capatree.tree", "CylinderSet", "from_words", "tree.from_words"),
    ("capatree.tree", "CylinderSet", "spanning_nodes", "tree.spanning_nodes"),
)
# (module, class, attribute, counter name): counted, no span
COUNTED_METHODS = (("capatree.exponents", "LogValue", "__add__", "exponents.logvalue_add"),)

PACKAGE_MODULES = (
    "capatree",
    "capatree.capacity",
    "capatree.circle",
    "capatree.cli",
    "capatree.dobinski",
    "capatree.exponents",
    "capatree.oracle",
    "capatree.tree",
)


class Tracer:
    """Spans and per-name aggregates, kept in memory until written out."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int]] = []  # id, name, parent, start, end
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.edges: collections.Counter = collections.Counter()  # (parent, child) -> calls
        self.counts: collections.Counter = collections.Counter()
        self.missing: list[str] = []  # traced names the package no longer has
        self._stack = [[0, "", 0]]  # frames: [child_ns, name, span id]
        self._next_id = 1

    def span(self, name: str, fn, keep: bool):
        stack = self._stack
        stats = self.stats.setdefault(name, [0, 0, 0])
        edges = self.edges
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = 0
            if keep:
                span_id = self._next_id
                self._next_id += 1
            frame = [0, name, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                edges[(parent[1], name)] += 1
                if keep:
                    spans.append((span_id, name, parent[2], start, end))

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[2] / 1e9

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def merge(self, other: dict) -> None:
        """Fold in the aggregates a traced child process wrote (see ``dump``)."""
        for name, (calls, total, own) in other["stats"].items():
            mine = self.stats.setdefault(name, [0, 0, 0])
            mine[0] += calls
            mine[1] += total
            mine[2] += own
        for parent, child, calls in other["edges"]:
            self.edges[(parent, child)] += calls
        self.counts.update(other["counts"])
        self.missing += [m for m in other["missing"] if m not in self.missing]

    def dump(self) -> dict:
        return {
            "stats": self.stats,
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "counts": dict(self.counts),
            "missing": self.missing,
            "spans": self.spans,
        }


def install(tracer: Tracer):
    """Wrap every traced name; returns a function that restores the originals.

    A name the package no longer has is skipped and listed in
    ``tracer.missing``; its metrics then read zero rather than failing the run.
    """
    modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
    restore: list[tuple[object, str, object]] = []
    for mod_name, attr, name, keep in FUNCTIONS:
        original = getattr(importlib.import_module(mod_name), attr, None)
        if original is None:
            if name not in tracer.missing:
                tracer.missing.append(name)
            continue
        wrapped = tracer.span(name, original, keep)
        owners = {id(m): m for m in modules + [importlib.import_module(mod_name)]}
        for owner in owners.values():
            for key, value in list(vars(owner).items()):
                if value is original:
                    restore.append((owner, key, value))
                    setattr(owner, key, wrapped)
    for mod_name, cls_name, attr, name in METHODS + COUNTED_METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        raw = None if cls is None else cls.__dict__.get(attr)
        if raw is None:
            if name not in tracer.missing:
                tracer.missing.append(name)
            continue
        if (mod_name, cls_name, attr, name) in COUNTED_METHODS:
            wrapped = tracer.counter(name, raw)
        elif isinstance(raw, classmethod):
            wrapped = classmethod(tracer.span(name, raw.__func__, True))
        else:
            wrapped = tracer.span(name, raw, True)
        restore.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def undo() -> None:
        for owner, key, value in reversed(restore):
            setattr(owner, key, value)

    return undo
