"""Deterministic SVG renderings of coloured lattice windows.

One circle per lattice point, fill taken from the palette by colour
index, origin marked with an extra ring.  All classification is exact;
positions are correctly rounded int / int divisions of integer rows,
written with a fixed format, so repeated renders are byte-identical.
The window comes as columns of coordinates (`lattice._window_columns`),
and the rows and colours of its points are computed as columns too,
one list operation per coordinate; only the formatting visits points
one at a time.
"""

from __future__ import annotations

import colorsys
import math
from typing import Optional, Sequence

from cslcolour.coincidence import CommensurableMap, _require_coincidence, csl
from cslcolour.errors import UnsupportedDimension
from cslcolour.lattice import Colouring, Lattice, _forms, _window_columns, _window_points

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


class _DrawnPalette(dict):
    """The default palette, each entry computed when a point first draws it."""

    def __missing__(self, i: int) -> str:
        entry = self[i] = _palette_entry(i)
        return entry


SQRT2 = math.sqrt(2.0)


def _embed(
    parent: Lattice, columns: list[list[int]], star: bool
) -> tuple[list[float], list[float]]:
    """Planar positions (xs, ys) of the points given as columns of parent coordinates.

    The ambient integer rows over den are one linear form per entry
    (`_forms`); int / int is correctly rounded, the same float as the
    exact Fraction.  The star embedding is cyclo8.star_coords of the
    row over den, each rational part rounded once the same way.
    """
    den = parent.den
    rows = list(_forms(columns, parent.hnf_rows))
    if not star:
        xs, ys = rows
        return [x / den for x in xs], [y / den for y in ys]
    a0, a1, a2, a3 = rows
    half = 2 * den
    return (
        [x / den + (b - c) / half * SQRT2 for x, b, c in zip(a0, a1, a3)],
        [y / den + (b + c) / half * SQRT2 for y, b, c in zip(a2, a1, a3)],
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
        colours = _DrawnPalette()
    elif len(palette) < colouring.m:
        raise ValueError(f"palette needs at least {colouring.m} colours")
    else:
        colours = palette
    _require_coincidence(parent, amap)
    # walk only the lattice shown; the parent's walk covers the whole box
    shown, ringed = parent, set()
    if mode != "parent":
        shown = csl(parent, amap.inverse_map if mode == "csl-inv" else amap)
    elif highlight_csl:
        ringed = set(_window_points(parent, csl(parent, amap), radius))
    columns = _window_columns(parent, shown, radius)
    xs, ys = _embed(parent, columns, star_embedding)
    ys = [-y for y in ys]
    points = list(zip(*columns))
    colour_column = colouring._colours_of_columns(columns)
    pts = zip(points, xs, ys, colour_column, map(ringed.__contains__, points))
    margin = 4 * dot
    x0 = min(xs) - margin
    y0 = min(ys) - margin
    width = max(xs) - min(xs) + 2 * margin
    height = max(ys) - min(ys) + 2 * margin
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0:.4f} {y0:.4f} {width:.4f} {height:.4f}">',
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
