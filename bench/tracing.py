"""Span tracing of the package's layers, installed from outside.

Each public kernel of a layer is replaced, in every module that holds a
reference to it, by a wrapper that records a span: name, start, end,
the enclosing span and the benchmark operation (request) it belongs to.
Spans are aggregated per (operation kind, span name) as they close, as
call count, total time and self time (duration minus the child spans);
the first RAW_SPAN_LIMIT raw spans are also kept and written out at the
end.  Nothing in the package is edited: uninstall() restores it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from cslcolour import cli, coincidence, cyclo8, lattice, ratmat, render

RAW_SPAN_LIMIT = 20000

# (span name, attribute, modules that bind it).  Several kernels are
# imported by name into other modules, so each of those bindings is
# replaced too; a call through any of them is seen.
FUNCTIONS = (
    ("ratmat._hermite", "_hermite", (ratmat, lattice, coincidence)),
    ("ratmat.snf", "snf", (ratmat, lattice, coincidence)),
    ("ratmat.rat_inverse", "rat_inverse", (ratmat, lattice, coincidence)),
    ("lattice.lattice_new", "lattice_new", (lattice, cyclo8, cli)),
    ("lattice.intersect", "intersect", (lattice, coincidence)),
    ("lattice.transform", "transform", (lattice, coincidence)),
    ("lattice.index", "index", (lattice, coincidence)),
    ("lattice.coset_reps", "coset_reps", (lattice,)),
    ("lattice.coset_meets_lattice", "coset_meets_lattice", (lattice, coincidence)),
    ("lattice.colour_of", "colour_of", (lattice, coincidence)),
    ("coincidence.csl", "csl", (coincidence, render)),
    ("coincidence.colour_permutation", "colour_permutation", (coincidence,)),
    ("coincidence.analyze", "analyze", (coincidence, cli)),
    ("coincidence.window_census", "window_census", (coincidence, cli)),
    ("cyclo8.multiplication_map", "multiplication_map", (cyclo8, cli)),
    ("render.render_svg", "render_svg", (render, cli)),
    ("cli.load_job_config", "load_job_config", (cli,)),
    ("cli.build_report", "build_report", (cli,)),
)
METHODS = (
    ("lattice.Colouring", lattice.Colouring, "__init__"),
    ("lattice.colour_of_coords", lattice.Colouring, "colour_of_coords"),
)


class Tracer:
    def __init__(self):
        self.kind = "other"
        self.request = 0
        self.stack: list[list] = []
        self.next_id = 1
        # (kind, name) -> [calls, total seconds, self seconds]
        self.agg: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.hermite_max_bits = 0
        self.meets_hits = 0
        self.raw: list[tuple] = []
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, attr, modules in FUNCTIONS:
            original = getattr(modules[0], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, attr) is not original:
                    raise RuntimeError(f"{mod.__name__}.{attr} is not {name}")
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)
        for name, owner, attr in METHODS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        hermite = name == "ratmat._hermite"
        meets = name == "lattice.coset_meets_lattice"

        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [0.0, tracer.next_id]
            tracer.next_id += 1
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                dur = end - start
                if parent is not None:
                    parent[0] += dur
                agg = tracer.agg[(tracer.kind, name)]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if len(tracer.raw) < RAW_SPAN_LIMIT and tracer.kind != "other":
                    tracer.raw.append((frame[1], parent[1] if parent else 0,
                                       tracer.request, name, start, end))
            if hermite and tracer.kind == "analysis":
                # the form H only: the transform U depends on the input
                # basis, which the seed varies, while H is canonical
                bits = max(abs(x) for row in result[0] for x in row).bit_length()
                if bits > tracer.hermite_max_bits:
                    tracer.hermite_max_bits = bits
            elif meets and result is not None and tracer.kind == "analysis":
                tracer.meets_hits += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- operations --------------------------------------------------------

    @contextmanager
    def operation(self, kind: str):
        """A root span around one benchmark operation."""
        self.kind = kind
        self.request += 1
        frame = [0.0, self.next_id]
        self.next_id += 1
        self.stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            agg = self.agg[(kind, "bench." + kind)]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - frame[0]
            if len(self.raw) < RAW_SPAN_LIMIT:
                self.raw.append((frame[1], 0, self.request, "bench." + kind, start, end))
            self.kind = "other"

    def calls(self, kind: str, name: str) -> int:
        return self.agg[(kind, name)][0] if (kind, name) in self.agg else 0

    def total(self, kind: str, name: str) -> float:
        return self.agg[(kind, name)][1] if (kind, name) in self.agg else 0.0

    def self_time(self, kind: str, name: str) -> float:
        return self.agg[(kind, name)][2] if (kind, name) in self.agg else 0.0

    def calls_any(self, name: str) -> tuple[int, float]:
        calls = sum(v[0] for (k, n), v in self.agg.items() if n == name)
        total = sum(v[1] for (k, n), v in self.agg.items() if n == name)
        return calls, total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, request, name, start, end in self.raw:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end}) + "\n")
