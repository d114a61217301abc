"""Deterministic SVG renderings of coloured lattice windows.

One circle per lattice point, fill taken from the palette by colour
index, origin marked with an extra ring.  All classification is exact;
positions are correctly rounded int / int divisions of integer rows,
written with a fixed format, so repeated renders are byte-identical.
The window comes as columns of coordinates (`lattice._window_columns`),
and the rows and colours of its points are computed as columns too,
one list operation per coordinate.  The SVG is written the same way:
one circle template per render, its fields filled from columns of
strings, each string formatted once per distinct value (a position,
a coordinate, a colour) and looked up per point, and one join per line.
"""

from __future__ import annotations

import colorsys
import math
from bisect import bisect_left, bisect_right
from itertools import chain, repeat
from operator import add, sub
from typing import Any, Callable, Optional, Sequence

from cslcolour.coincidence import CommensurableMap, _require_coincidence, csl
from cslcolour.errors import UnsupportedDimension
from cslcolour.lattice import Colouring, Lattice, _forms, _mixed_radix, _window_columns

# the six base colours, extended deterministically past index 5
BASE_PALETTE = ["#000000", "#ffff00", "#0000ff", "#ff0000", "#808080", "#008000"]

RENDER_MODES = ("parent", "csl", "csl-inv")


def _palette_entry(i: int) -> str:
    """Colour i of the default palette: a base colour, then golden-angle HSL steps."""
    if i < len(BASE_PALETTE):
        return BASE_PALETTE[i]
    hue = (137.508 * (i - 5)) % 360.0
    r, g, b = colorsys.hls_to_rgb(hue / 360.0, 0.5, 0.65)
    return f"#{round(r * 255):02x}{round(g * 255):02x}{round(b * 255):02x}"


def default_palette(m: int) -> list[str]:
    """The first m colours of the default palette (`_palette_entry`)."""
    return [_palette_entry(i) for i in range(m)]


SQRT2 = math.sqrt(2.0)


def _embed(
    parent: Lattice, columns: list[list[int]], star: bool
) -> tuple[list, list, Callable[[Any], float]]:
    """Keys (kx, ky) of the planar positions of the points given as columns, and position(key).

    The ambient integer rows over den are one linear form per entry
    (`_forms`).  In the plane a key is the entry itself and its
    position entry / den, int / int correctly rounded: the same float
    as the exact Fraction.  The star embedding, xi -> (1 + i)/sqrt 2, of
    the row over den is x = a0/den + (a1 - a3)/(2 den) sqrt 2 and
    y = a2/den + (a1 + a3)/(2 den) sqrt 2, each rational part rounded
    once the same way; a key is the pair of integers (a0, a1 - a3) or
    (a2, a1 + a3).  Points with one key share one position.  Keys are
    integers, so a memo over them cannot merge 0.0 and -0.0, which
    compare and hash alike but are written differently.
    """
    den = parent.den
    rows = list(_forms(columns, parent.hnf_rows))
    if not star:
        xs, ys = rows
        return xs, ys, lambda key: key / den
    a0, a1, a2, a3 = rows
    half = 2 * den
    return (
        list(zip(a0, map(sub, a1, a3))),
        list(zip(a2, map(add, a1, a3))),
        lambda key: key[0] / den + key[1] / half * SQRT2,
    )


def render_svg(
    colouring: Colouring,
    amap: CommensurableMap,
    mode: str,
    radius: int,
    palette: Optional[Sequence[str]] = None,
    highlight_csl: bool = False,
    star_embedding: bool = False,
) -> str:
    """Render one window of the colouring as an SVG document string.

    mode "parent" draws every parent point with integer basis
    coordinates in [-radius, radius]^d; "csl" and "csl-inv" draw only
    the points of the forward / inverse coincidence site lattice.
    A point of colour i is filled with palette[i], so `palette` needs m
    entries.  Without one, the fills are `default_palette(m)`, but
    only the entries of the colours drawn are computed.
    """
    if mode not in RENDER_MODES:
        raise ValueError(f"mode must be one of {RENDER_MODES}")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    parent = colouring.parent
    d = parent.dim
    if star_embedding:
        if d != 4:
            raise UnsupportedDimension("star embedding needs dimension 4")
        dot = 0.12
    elif d == 2:
        dot = 0.22
    else:
        raise UnsupportedDimension(
            f"cannot draw dimension {d} without a star embedding"
        )
    if palette is None:
        entry = _palette_entry
    elif len(palette) < colouring.m:
        raise ValueError(f"palette needs at least {colouring.m} colours")
    else:
        entry = palette.__getitem__
    _require_coincidence(parent, amap)
    # walk only the lattice shown; the parent's walk covers the whole box
    shown = parent
    if mode != "parent":
        shown = csl(parent, amap.inverse_map if mode == "csl-inv" else amap)
    columns = _window_columns(parent, shown, radius)
    rings = [""] * len(columns[0])
    if mode == "parent" and highlight_csl:
        # the parent's walk is the whole box in product order: a point's
        # place in it is its coordinates + radius read in base 2 radius + 1
        ringed = _window_columns(parent, csl(parent, amap), radius)
        places = ([x + radius for x in column] for column in ringed)
        stroke = f' stroke="#000000" stroke-width="{dot / 4:.4f}"'
        for i in _mixed_radix(places, (2 * radius + 1,) * d, len(ringed[0])):
            rings[i] = stroke
    kx, ky, position = _embed(parent, columns, star_embedding)
    # y points down in SVG; a point on the x-axis is written at y = -0.0
    xs = {key: position(key) for key in set(kx)}
    ys = {key: -position(key) for key in set(ky)}
    cx = {key: f"{x:.4f}" for key, x in xs.items()}
    cy = {key: f"{y:.4f}" for key, y in ys.items()}
    colour_column = colouring._colours_of_columns(columns)
    fill = {colour: f"{entry(colour)}" for colour in set(colour_column)}
    # every integer written: a coordinate or a colour
    text = {n: str(n) for n in set(fill).union(*columns)}
    margin = 4 * dot
    x0 = min(xs.values()) - margin
    y0 = min(ys.values()) - margin
    width = max(xs.values()) - min(xs.values()) + 2 * margin
    height = max(ys.values()) - min(ys.values()) + 2 * margin
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0:.4f} {y0:.4f} {width:.4f} {height:.4f}">',
    ]
    # one template per render; each line joins its constant pieces with
    # one string from each column of field values
    template = (
        f'  <circle class="pt" cx="{{}}" cy="{{}}" r="{dot:.4f}" fill="{{}}" '
        f'data-coords="{",".join(["{}"] * d)}" data-colour="{{}}"{{}}/>'
    )
    fields = [
        map(cx.__getitem__, kx),
        map(cy.__getitem__, ky),
        map(fill.__getitem__, colour_column),
        *(map(text.__getitem__, column) for column in columns),
        map(text.__getitem__, colour_column),
        rings,
    ]
    pieces = template.split("{}")
    out += map("".join, zip(*chain(*zip(map(repeat, pieces), fields)), repeat(pieces[-1])))
    # the walk is in lexicographic order: the origin is the one point
    # whose every coordinate is 0 within the run of the ones before
    lo, hi = 0, len(kx)
    for column in columns:
        lo, hi = bisect_left(column, 0, lo, hi), bisect_right(column, 0, lo, hi)
    out.insert(
        3 + lo,
        f'  <circle class="origin" cx="{cx[kx[lo]]}" cy="{cy[ky[lo]]}" '
        f'r="{dot * 1.9:.4f}" fill="none" stroke="#000000" '
        f'stroke-width="{dot / 3:.4f}"/>',
    )
    out.append("</svg>\n")
    return "\n".join(out)
