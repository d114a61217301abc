"""Deterministic SVG renderings of coloured lattice windows.

One circle per lattice point, fill taken from the palette by colour
index, origin marked with an extra ring.  All classification is exact;
floats appear only when coordinates are written out, with a fixed
format, so repeated renders are byte-identical.
"""

from __future__ import annotations

import colorsys
import math
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from cslcolour.coincidence import CommensurableMap, csl
from cslcolour.cyclo8 import star_coords
from cslcolour.errors import UnsupportedDimension
from cslcolour.lattice import Colouring
from cslcolour.ratmat import vec_mat

# the six base colours, extended deterministically past index 5
BASE_PALETTE = ["#000000", "#ffff00", "#0000ff", "#ff0000", "#808080", "#008000"]

RENDER_MODES = ("parent", "csl", "csl-inv")


def default_palette(m: int) -> list[str]:
    """First six fixed colours, then golden-angle HSL steps."""
    colours = list(BASE_PALETTE[:m])
    while len(colours) < m:
        hue = (137.508 * (len(colours) - 5)) % 360.0
        r, g, b = colorsys.hls_to_rgb(hue / 360.0, 0.5, 0.65)
        colours.append(f"#{round(r * 255):02x}{round(g * 255):02x}{round(b * 255):02x}")
    return colours


SQRT2 = math.sqrt(2.0)


def _embed_planar(colouring: Colouring, coords: Sequence[int]) -> tuple[float, float]:
    parent = colouring.parent
    x, y = vec_mat(coords, parent.hnf_rows)
    # int / int is correctly rounded, the same float as the exact Fraction
    return x / parent.den, y / parent.den


def _embed_star(colouring: Colouring, coords: Sequence[int]) -> tuple[float, float]:
    parent = colouring.parent
    ambient = [Fraction(a, parent.den) for a in vec_mat(coords, parent.hnf_rows)]
    (xr, xs), (yr, ys) = star_coords(ambient)
    return float(xr) + float(xs) * SQRT2, float(yr) + float(ys) * SQRT2


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
        embed = _embed_star
        dot = 0.12
    elif d == 2:
        embed = _embed_planar
        dot = 0.22
    else:
        raise UnsupportedDimension(
            f"cannot draw dimension {d} without a star embedding"
        )
    colours = list(palette) if palette is not None else default_palette(colouring.m)
    if len(colours) < colouring.m:
        raise ValueError(f"palette needs at least {colouring.m} colours")
    # a point lies in a CSL exactly when it has colour 0 in the
    # colouring of the parent by that CSL
    fwd_colour = Colouring(parent, csl(parent, amap)).colour_of_coords
    inv_colour = Colouring(parent, csl(parent, amap.inverse_map)).colour_of_coords
    box = range(-radius, radius + 1)
    pts = []
    for coords in product(box, repeat=d):
        if mode == "csl" and fwd_colour(coords) != 0:
            continue
        if mode == "csl-inv" and inv_colour(coords) != 0:
            continue
        x, y = embed(colouring, coords)
        colour = colouring.colour_of_coords(coords)
        ring = highlight_csl and mode == "parent" and fwd_colour(coords) == 0
        pts.append((coords, x, -y, colour, ring))
    xs = [p[1] for p in pts]
    ys = [p[2] for p in pts]
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
