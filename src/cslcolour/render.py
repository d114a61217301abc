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
The lines are joined only as they are read (`_svg_lines`), so the CLI
writes a document without holding it; a default palette entry is
computed in closed form, without `colorsys`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import chain, islice, repeat
from operator import add, sub
from typing import Any, Callable, Iterator, Optional, Sequence

from cslcolour.coincidence import CommensurableMap, _require_coincidence, csl
from cslcolour.errors import UnsupportedDimension
from cslcolour.lattice import Colouring, Lattice, _forms, _mixed_radix, _window_columns

# the six base colours, extended deterministically past index 5
BASE_PALETTE = ["#000000", "#ffff00", "#0000ff", "#ff0000", "#808080", "#008000"]

RENDER_MODES = ("parent", "csl", "csl-inv")


# colorsys.hls_to_rgb(h, 0.5, 0.65) with its constants and its float
# operations in its order, so every entry is the same float it computes
_M2 = 0.5 * (1.0 + 0.65)
_M1 = 2.0 * 0.5 - _M2
_ONE_THIRD = 1.0 / 3.0
_ONE_SIXTH = 1.0 / 6.0
_TWO_THIRD = 2.0 / 3.0
_HEX = [f"{v:02x}" for v in range(256)]


def _channel(hue: float) -> str:
    """One channel of the entry at hue, as two hex digits (colorsys._v)."""
    hue = hue % 1.0
    if hue < _ONE_SIXTH:
        v = _M1 + (_M2 - _M1) * hue * 6.0
    elif hue < 0.5:
        v = _M2
    elif hue < _TWO_THIRD:
        v = _M1 + (_M2 - _M1) * (_TWO_THIRD - hue) * 6.0
    else:
        v = _M1
    return _HEX[round(v * 255)]


def _palette_entry(i: int) -> str:
    """Colour i of the default palette: a base colour, then golden-angle HSL steps.

    Past index 5, colour i is the HSL colour of hue 137.508 (i - 5)
    degrees, lightness 0.5 and saturation 0.65, each channel rounded to
    0..255: what `colorsys.hls_to_rgb` gives, computed in closed form.
    """
    if i < len(BASE_PALETTE):
        return BASE_PALETTE[i]
    h = (137.508 * (i - 5)) % 360.0 / 360.0
    return "#" + _channel(h + _ONE_THIRD) + _channel(h) + _channel(h - _ONE_THIRD)


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
    entries.  Without one, colour i is filled with `_palette_entry(i)`,
    computed only for the colours drawn.  The document is `_svg_lines`
    joined by newlines.
    """
    return "\n".join(
        _svg_lines(colouring, amap, mode, radius, palette, highlight_csl, star_embedding)
    )


def _svg_lines(
    colouring: Colouring,
    amap: CommensurableMap,
    mode: str,
    radius: int,
    palette: Optional[Sequence[str]] = None,
    highlight_csl: bool = False,
    star_embedding: bool = False,
) -> Iterator[str]:
    """The lines of `render_svg`'s document, the last one ending in a newline.

    Every check runs, and every field string is formatted, before this
    returns; the circle lines are joined only as the iterator is read,
    so a caller that writes them as they come never holds the document.
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
    header = (
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0:.4f} {y0:.4f} {width:.4f} {height:.4f}">',
    )
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
    body = map("".join, zip(*chain(*zip(map(repeat, pieces), fields)), repeat(pieces[-1])))
    # the walk is in lexicographic order: the origin is the one point
    # whose every coordinate is 0 within the run of the ones before
    lo, hi = 0, len(kx)
    for column in columns:
        lo, hi = bisect_left(column, 0, lo, hi), bisect_right(column, 0, lo, hi)
    origin = (
        f'  <circle class="origin" cx="{cx[kx[lo]]}" cy="{cy[ky[lo]]}" '
        f'r="{dot * 1.9:.4f}" fill="none" stroke="#000000" '
        f'stroke-width="{dot / 3:.4f}"/>'
    )
    # the origin's ring goes right after the origin's own line
    return chain(header, islice(body, lo + 1), (origin,), body, ("</svg>\n",))
