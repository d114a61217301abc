"""Deterministic SVG renderings of coloured lattice windows.

One circle per lattice point, fill taken from the palette by colour
index, origin marked with an extra ring.  All classification is exact;
positions are correctly rounded int / int divisions of integer rows,
written with a fixed format, so repeated renders are byte-identical.
"""

from __future__ import annotations

import colorsys
import math
from typing import Optional, Sequence

from cslcolour.coincidence import CommensurableMap, csl, is_coincidence
from cslcolour.errors import NotCoincidence, UnsupportedDimension
from cslcolour.lattice import Colouring, _window_points
from cslcolour.ratmat import vec_mat

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


def _embed_planar(colouring: Colouring, coords: Sequence[int]) -> tuple[float, float]:
    parent = colouring.parent
    x, y = vec_mat(coords, parent.hnf_rows)
    # int / int is correctly rounded, the same float as the exact Fraction
    return x / parent.den, y / parent.den


def _embed_star(colouring: Colouring, coords: Sequence[int]) -> tuple[float, float]:
    den = colouring.parent.den
    a0, a1, a2, a3 = vec_mat(coords, colouring.parent.hnf_rows)
    # cyclo8.star_coords of the row over den, each rational part rounded once as above
    return a0 / den + (a1 - a3) / (2 * den) * SQRT2, a2 / den + (a1 + a3) / (2 * den) * SQRT2


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
        embed = _embed_star
        dot = 0.12
    elif d == 2:
        embed = _embed_planar
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
    if not is_coincidence(parent, amap):
        raise NotCoincidence(f"|det| = {abs(amap.det)} != 1")
    # walk only the lattice shown; the parent's walk covers the whole box
    shown, ringed = parent, set()
    if mode != "parent":
        shown = csl(parent, amap.inverse_map if mode == "csl-inv" else amap)
    elif highlight_csl:
        ringed = set(_window_points(parent, csl(parent, amap), radius))
    pts = []
    for coords in _window_points(parent, shown, radius):
        x, y = embed(colouring, coords)
        pts.append((coords, x, -y, colouring.colour_of_coords(coords), coords in ringed))
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
