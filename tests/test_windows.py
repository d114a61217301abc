"""Window census and render against their per-point references.

`window_census` and `render_svg` read a window as columns of
coordinates and compute colours and positions as one list operation
per coordinate; the census reads each image off its own walk, with
csl1_inv's basis rows walked beside their images, and the render
writes its lines from columns of strings.  The references
below visit one point at a time, with one `vec_mat` and one
`colour_of_coords` per point.  The census reference maps each point
through its own conjugated map T = H.A^T.H^-1 (H the parent's Hermite
basis), which nothing in the package computes; both paths must give
the same census and the same SVG bytes.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from itertools import product

import pytest
from conftest import CUBIC_SUBLATTICES, SUBLATTICE_BASES, cayley_rotation, hls_palette_entry

from cslcolour import cli, coincidence, render
from cslcolour.coincidence import (
    commensurable_map,
    csl,
    enumerate_square_rotations,
    window_census,
)
from cslcolour.cyclo8 import (
    AMMANN_BEENKER_ROTATION,
    cyc8,
    multiplication_map,
    principal_submodule,
)
from cslcolour.errors import InternalInvariantViolation
from cslcolour.lattice import (
    Colouring,
    _window_columns,
    lattice_new,
    standard_lattice,
)
from cslcolour.ratmat import _inverse_det, mat_mul, vec_mat

Z2 = standard_lattice(2)
ROT = commensurable_map([["4/5", "-3/5"], ["3/5", "4/5"]])
ROT13 = commensurable_map([["5/13", "-12/13"], ["12/13", "5/13"]])
Z4 = standard_lattice(4)
# (1 + xi^2).Z[xi]: Z^4 / it is Z_2 x Z_2
ONE_PLUS_XI2 = principal_submodule(cyc8(1, 0, 1, 0))
Z_XI = multiplication_map(AMMANN_BEENKER_ROTATION)
RATIONAL_PARENT = lattice_new([["1/2", 1], [0, "5/2"]])
# the eightfold module z.Z[xi] (den 3) coloured by its double: m = 16, four Smith factors
MODULE_DEN3 = principal_submodule(AMMANN_BEENKER_ROTATION)
DOUBLE_DEN3 = lattice_new([[2 * x for x in row] for row in MODULE_DEN3.basis])


def _window_points(parent, lat, radius):
    """The points of `_window_columns` as coordinate tuples, in the same order."""
    return list(zip(*_window_columns(parent, lat, radius)))


def census_one_point_at_a_time(colouring, amap, radius):
    """The census by one image product and one colour lookup per point."""
    parent = colouring.parent
    fwd = _window_points(parent, csl(parent, amap), radius)
    inv = _window_points(parent, csl(parent, amap.inverse_map), radius)
    colour_at = colouring.colour_of_coords
    a_num, a_den = amap.forward
    h_inv, h_den, _ = _inverse_det(parent.hnf_rows)
    t_num = mat_mul(mat_mul(parent.hnf_rows, a_num), h_inv)
    t_den = a_den * h_den
    transfer = {}
    for coords in inv:
        image = []
        for val in vec_mat(coords, t_num):
            q, r = divmod(val, t_den)
            assert not r, "image of a csl-inv point left the parent lattice"
            image.append(q)
        transfer.setdefault(colour_at(coords), set()).add(colour_at(tuple(image)))
    return {
        "radius": radius,
        "points_scanned": (2 * radius + 1) ** parent.dim,
        "count_csl": len(fwd),
        "count_csl_inv": len(inv),
        "observed_I": sorted(transfer),
        "observed_J": sorted({colour_at(coords) for coords in fwd}),
        "transfer": [[i, sorted(js)] for i, js in sorted(transfer.items())],
    }


def render_one_point_at_a_time(
    colouring, amap, mode, radius, palette=None, highlight_csl=False, star_embedding=False
):
    """The SVG by one position and one colour lookup per point."""
    parent = colouring.parent
    den = parent.den
    sqrt2 = render.SQRT2

    def embed(coords):
        row = vec_mat(coords, parent.hnf_rows)
        if not star_embedding:
            return row[0] / den, row[1] / den
        a0, a1, a2, a3 = row
        return a0 / den + (a1 - a3) / (2 * den) * sqrt2, a2 / den + (a1 + a3) / (2 * den) * sqrt2

    dot = 0.12 if star_embedding else 0.22
    colours = palette
    if palette is None:
        colours = [hls_palette_entry(i) for i in range(colouring.m)]
    shown, ringed = parent, set()
    if mode != "parent":
        shown = csl(parent, amap.inverse_map if mode == "csl-inv" else amap)
    elif highlight_csl:
        ringed = set(_window_points(parent, csl(parent, amap), radius))
    pts = []
    for coords in _window_points(parent, shown, radius):
        x, y = embed(coords)
        pts.append((coords, x, -y, colouring.colour_of_coords(coords), coords in ringed))
    xs = [p[1] for p in pts]
    ys = [p[2] for p in pts]
    margin = 4 * dot
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{min(xs) - margin:.4f} {min(ys) - margin:.4f} '
        f'{max(xs) - min(xs) + 2 * margin:.4f} {max(ys) - min(ys) + 2 * margin:.4f}">',
    ]
    for coords, x, y, colour, ring in pts:
        attrs = (
            f'class="pt" cx="{x:.4f}" cy="{y:.4f}" r="{dot:.4f}" '
            f'fill="{colours[colour]}" data-coords="{",".join(map(str, coords))}" '
            f'data-colour="{colour}"'
        )
        if ring:
            attrs += f' stroke="#000000" stroke-width="{dot / 4:.4f}"'
        out.append(f"  <circle {attrs}/>")
        if all(c == 0 for c in coords):
            out.append(
                f'  <circle class="origin" cx="{x:.4f}" cy="{y:.4f}" '
                f'r="{dot * 1.9:.4f}" fill="none" stroke="#000000" '
                f'stroke-width="{dot / 3:.4f}"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _cubic(sub_rows):
    return Colouring(standard_lattice(3), lattice_new(sub_rows))


CUBIC_SIGMA3 = commensurable_map(cayley_rotation(1, 1, 1, 0))
CUBIC_SIGMA7 = commensurable_map(cayley_rotation(1, 2, 1, 1))


CENSUS_CASES = [
    pytest.param(
        Colouring(Z2, lattice_new([[6, 0], [2, 1]]), reps=[[i, 0] for i in range(6)]),
        ROT,
        9,
        id="custom-reps",
    ),
    # Z_2 x Z_6, reps listed out of the mixed-radix order
    pytest.param(
        Colouring(
            Z2, lattice_new([[2, 0], [0, 6]]), reps=[[a, b] for b in range(6) for a in (0, 1)]
        ),
        ROT13,
        8,
        id="custom-reps-two-factors",
    ),
    pytest.param(Colouring(Z2, Z2), ROT13, 7, id="m1"),
    pytest.param(
        Colouring(RATIONAL_PARENT, lattice_new([[1, "9/2"], [0, "15/2"]])), ROT, 8, id="den2"
    ),
    pytest.param(
        Colouring(standard_lattice(1), lattice_new([[5]])),
        commensurable_map([[-1]]),
        12,
        id="d1",
    ),
    pytest.param(
        Colouring(standard_lattice(1), standard_lattice(1)),
        commensurable_map([[1]]),
        3,
        id="d1-m1",
    ),
    *(
        pytest.param(_cubic(rows), CUBIC_SIGMA3, 4, id=f"d3-{i}")
        for i, rows in enumerate(CUBIC_SUBLATTICES)
    ),
    pytest.param(_cubic(CUBIC_SUBLATTICES[0]), CUBIC_SIGMA7, 3, id="d3-sigma7"),
    pytest.param(
        Colouring(Z4, ONE_PLUS_XI2), Z_XI, 2, id="d4"
    ),
    pytest.param(Colouring(MODULE_DEN3, DOUBLE_DEN3), Z_XI, 2, id="d4-den3"),
]


@pytest.mark.parametrize("colouring, amap, radius", CENSUS_CASES)
def test_census_columns_match_the_per_point_census(colouring, amap, radius):
    census = window_census(colouring, amap, radius)
    assert census == census_one_point_at_a_time(colouring, amap, radius)


def _corpus_render_sample(count, seed):
    """A seeded sample of corpus renders: rotation x index-1..12 sublattice.

    Case i has radius i mod 7; every third case scales parent and sub by
    1/2 (a parent with den 2, which every rotation still maps into
    coincidence), and every fourth one, from the second, lists its reps
    shuffled and each moved by a sub vector, so colours go through the
    table.
    """
    rng = random.Random(seed)
    rotations = enumerate_square_rotations(40)
    cases = []
    for i in range(count):
        amap = rng.choice(rotations)
        rows = rng.choice(SUBLATTICE_BASES)
        scale = Fraction(1, 2) if i % 3 == 2 else 1
        parent = lattice_new([[scale, 0], [0, scale]])
        sub = lattice_new([[scale * x for x in row] for row in rows])
        colouring = Colouring(parent, sub)
        if i % 4 == 1:
            reps = colouring.reps[1:]
            rng.shuffle(reps)
            moved = []
            for rep in reps:
                k, row = rng.randrange(-2, 3), rng.choice(sub.basis)
                moved.append([a + k * b for a, b in zip(rep, row)])
            colouring = Colouring(parent, sub, reps=colouring.reps[:1] + moved)
        cases.append(pytest.param(colouring, amap, i % 7, False, id=f"corpus{i}"))
    return cases


RENDER_CASES = [
    pytest.param(
        Colouring(Z2, lattice_new([[6, 0], [2, 1]]), reps=[[i, 0] for i in range(6)]),
        ROT,
        6,
        False,
        id="custom-reps",
    ),
    pytest.param(Colouring(Z2, Z2), ROT13, 5, False, id="m1"),
    pytest.param(Colouring(Z2, lattice_new([[2, 1], [0, 5]])), ROT13, 6, False, id="z2"),
    pytest.param(
        Colouring(RATIONAL_PARENT, lattice_new([[1, "9/2"], [0, "15/2"]])),
        ROT,
        5,
        False,
        id="den2",
    ),
    pytest.param(Colouring(Z4, ONE_PLUS_XI2), Z_XI, 2, True, id="d4-star"),
    pytest.param(Colouring(MODULE_DEN3, DOUBLE_DEN3), Z_XI, 1, True, id="d4-star-den3"),
    *_corpus_render_sample(48, 7),
]


@pytest.mark.parametrize("colouring, amap, radius, star", RENDER_CASES)
@pytest.mark.parametrize(
    "mode, highlight, with_palette",
    list(product(render.RENDER_MODES, (False, True), (False, True))),
)
def test_render_columns_match_the_per_point_render(
    colouring, amap, radius, star, mode, highlight, with_palette
):
    palette = [f"#{7 * i % 256:02x}00{i % 256:02x}" for i in range(colouring.m)]
    options = {
        "palette": palette if with_palette else None,
        "highlight_csl": highlight,
        "star_embedding": star,
    }
    svg = render.render_svg(colouring, amap, mode, radius, **options)
    assert svg == render_one_point_at_a_time(colouring, amap, mode, radius, **options)


@pytest.mark.parametrize(
    "colouring, amap, radius, star",
    [
        pytest.param(Colouring(Z2, lattice_new([[2, 1], [0, 5]])), ROT13, 3, False, id="plane"),
        pytest.param(
            Colouring(RATIONAL_PARENT, lattice_new([[1, "9/2"], [0, "15/2"]])),
            ROT,
            6,
            False,
            id="plane-den2",
        ),
        pytest.param(Colouring(Z4, ONE_PLUS_XI2), Z_XI, 2, True, id="star"),
    ],
)
def test_points_on_an_axis_keep_the_sign_of_their_zero(colouring, amap, radius, star):
    """y is negated for SVG, so a point with y = 0 is written at cy -0.0000
    and one with x = 0 at cx 0.0000; 0.0 and -0.0 compare and hash alike,
    and a render that shared one string between them would lose one."""
    parent = colouring.parent
    svg = render.render_svg(colouring, amap, "parent", radius, star_embedding=star)
    on_x_axis = on_y_axis = 0
    circles = re.findall(r'class="pt" cx="([^"]*)" cy="([^"]*)".*data-coords="([^"]*)"', svg)
    for cx, cy, coords in circles:
        a = vec_mat([int(c) for c in coords.split(",")], parent.hnf_rows)
        # x = a0 + (a1 - a3) sqrt 2 / 2 and y = a2 + (a1 + a3) sqrt 2 / 2 in the star
        x, y = ([a[0]], [a[1]]) if not star else ([a[0], a[1] - a[3]], [a[2], a[1] + a[3]])
        if not any(x):
            on_y_axis += 1
            assert cx == "0.0000", coords
        if not any(y):
            on_x_axis += 1
            assert cy == "-0.0000", coords
    assert on_x_axis > 1 and on_y_axis > 1
    origin = re.search(r'<circle class="origin" cx="([^"]*)" cy="([^"]*)"', svg)
    assert origin.groups() == ("0.0000", "-0.0000")


@pytest.mark.parametrize("radius", [0, 1, 4])
def test_window_points_are_the_columns_transposed(radius):
    sub = lattice_new([[2, 1], [0, 5]])
    columns = _window_columns(Z2, sub, radius)
    # the points a.(2, 1) + b.(0, 5) in the box, in product order, which
    # render_svg relies on to find the origin by bisection
    box = set(product(range(-radius, radius + 1), repeat=2))
    spanned = {(2 * a, a + 5 * b) for a in range(-9, 10) for b in range(-9, 10)}
    assert len(columns) == 2
    assert list(zip(*columns)) == sorted(spanned & box)


def test_census_raises_when_a_csl_inv_image_leaves_the_parent(monkeypatch, tmp_path, capsys):
    """With csl1_inv taken as the whole parent, the images of its points
    under the 3-4-5 rotation are not all parent points, and the census
    must say so instead of colouring a point that is not there."""
    colouring = Colouring(Z2, lattice_new([[3, 0], [0, 1]]))
    monkeypatch.setattr(coincidence, "csl", lambda lat, amap: lat)
    with pytest.raises(InternalInvariantViolation, match="left the parent lattice"):
        window_census(colouring, ROT, 3)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dim": 2,
        "parent_basis": [["1", "0"], ["0", "1"]],
        "sub_basis": [["3", "0"], ["0", "1"]],
        "map": [["4/5", "-3/5"], ["3/5", "4/5"]],
        "oracle_radius": 3,
    }))
    capsys.readouterr()
    assert cli.main(["oracle", str(config)]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "InternalInvariantViolation"
    assert "left the parent lattice" in error["message"]


def test_colour_walk_raises_when_an_image_leaves_the_parent():
    """The colour sets are read off a lattice's rows beside their images,
    with or without the colour graph; the images of Z^2's rows under the
    3-4-5 rotation are not parent points, which is a broken invariant,
    not a bad input."""
    colouring = Colouring(Z2, lattice_new([[3, 0], [0, 1]]))
    for graph in (True, False):
        with pytest.raises(InternalInvariantViolation, match="left the parent lattice"):
            colouring._colour_sets(Z2, ROT.forward, graph=graph)
