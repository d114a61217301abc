"""The benchmark's tracer must find every kernel it wraps, and put it back.

``bench/tracing.py`` replaces each kernel it lists, in every module that
binds it by name, and raises when one of those bindings is missing.  It
is loaded here by path, so renaming or unbinding a kernel fails this
suite, not only a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from cslcolour import coincidence, lattice

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner.__dict__[attr]


def bindings(tracing):
    """(owner, attribute, current object) for everything the tracer wraps."""
    pairs = [(mod, attr) for _, attr, modules in tracing.FUNCTIONS for mod in modules]
    pairs += [(owner, attr) for _, owner, attr in tracing.METHODS]
    return [(owner, attr, current(owner, attr)) for owner, attr in pairs]


def test_tracer_wraps_every_kernel_and_restores_them():
    tracing = load_tracing()
    before = bindings(tracing)
    parent = lattice.standard_lattice(2)
    rotation = coincidence.commensurable_map([["4/5", "-3/5"], ["3/5", "4/5"]])
    # the 3-4-5 rotation is a colour coincidence of diag(3, 1), not of
    # the colouring of planar example 1
    subs = [lattice.lattice_new(rows) for rows in ([[3, 0], [0, 1]], [[6, 0], [2, 1]])]
    tracer = tracing.Tracer()
    tracer.install()
    hermite = []
    try:
        for owner, attr, original in before:
            wrapped = current(owner, attr)
            assert wrapped is not original, f"{owner.__name__}.{attr} not wrapped"
            assert wrapped.__wrapped__ is original
        # called through module attributes, as the benchmark does
        for sub in subs:
            analysis = coincidence.analyze(lattice.Colouring(parent, sub), rotation)
            hermite.append((analysis.colour_coincidence, tracer.calls("other", "ratmat._hermite")))
    finally:
        tracer.uninstall()
    for owner, attr, original in before:
        assert current(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    # the calls made through the package's own bindings were seen
    assert tracer.calls("other", "coincidence.analyze") == 2
    assert tracer.calls("other", "lattice.Colouring") == 2
    # 7 lattice forms, then 1 form of the colour graph for a colour
    # coincidence or 2 forms of the key subgroups I and J otherwise
    assert hermite == [(True, 8), (False, 8 + 9)]
