"""Full-rank lattices in Q^d with exact set algebra and coset machinery.

A lattice is stored in a canonical pair (den, hnf_rows): `den` is the
smallest positive integer for which den*L is an integer lattice, and
`hnf_rows` is the Hermite form basis of den*L.  Scaling a lattice
scales its Hermite form, so dividing out gcd(den, all entries) leaves
the minimal den (`_canonical`), and two lattices are equal exactly when
their stored pairs are equal.  That turns lattice equality, the
backbone of the colour-coincidence criterion, into tuple comparison.

Every operation works on integer rows over a common denominator: an
image maps hnf_rows . N over den . q for a map N / q; a meet is the
Hermite form of the lower-right block of the stacked Zassenhaus matrix
once Euclid alone has made its left half triangular (`_stacked`), and
the triangular rows above, a basis of the sum that is never reduced,
decide whether a coset meets a lattice; coordinates in a lattice are
one forward substitution against the triangular hnf_rows, scaled once
(`_solve_upper_triangular`).  A sublattice's basis in parent
coordinates is one staircase substitution, each of its Hermite rows
solved from its pivot with the two dens as one scalar
(`_relative_basis`).  It is triangular too (an index is the
product of its diagonal), and so is the Hermite form of a colour
subgroup: one walk over a triangular basis cut to a
box (`_box_columns`) lists, as one list per column, a lattice's points
in a window (`_window_columns`), the prefixes of the colours a lattice
meets (`_walk`) and the Hermite box of the default reps (`_radix_reps`);
with each basis row beside its image (`_rows_beside_images`), a point
walks beside its image.  What is read from those points is a linear form
over the columns (`_forms`), evaluated one coordinate at a time as a list
operation: ambient rows, and the keys and so the colours, which
come from one method (`Colouring._keys`, through `_colours_of_columns`).
``fractions.Fraction`` appears only at the edges, where each input is
read once by the one reader, `ratmat.clear_denominators` (`lattice_new`,
`transform`, and every point by `_point_ints`), and rational output is
formed (`basis`, `Colouring.reps` and `coset_reps`, witnesses); a repr
writes each entry through `ratmat._bounded`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Optional, Sequence

from cslcolour.errors import (
    DimensionMismatch,
    InternalInvariantViolation,
    NotASublattice,
    NotInParent,
    RankDeficient,
)
# rat_inverse is not used here; the name stays bound because
# bench/tracing.py wraps it in this module
from cslcolour.ratmat import (  # noqa: F401
    IntMatrix,
    RatMatrix,
    Vector,
    _bounded,
    _hermite,
    clear_denominators,
    mat_mul,
    rat_inverse,
    snf,
    transpose,
    vec_mat,
)


@dataclass(frozen=True)
class Lattice:
    """Canonical form of a full-rank Z-span of d vectors in Q^d."""

    dim: int
    den: int
    hnf_rows: IntMatrix

    @property
    def basis(self) -> RatMatrix:
        """Canonical rational basis (rows generate the lattice)."""
        return tuple(
            tuple(Fraction(x, self.den) for x in row) for row in self.hnf_rows
        )

    def __repr__(self) -> str:
        rows = ", ".join(
            "(" + ", ".join(_bounded(Fraction(x, self.den)) for x in row) + ")"
            for row in self.hnf_rows
        )
        return f"Lattice[{rows}]"


def _canonical(h: Sequence[Sequence[int]], den: int) -> Lattice:
    """The lattice with Hermite basis rows h over `den`, with minimal den.

    h / g is again a Hermite form for g = gcd(den, all entries); at g = 1
    the rows are only made tuples.
    """
    g = gcd(den, *chain.from_iterable(h))
    if g == 1:
        return Lattice(dim=len(h), den=den, hnf_rows=tuple(map(tuple, h)))
    return Lattice(
        dim=len(h), den=den // g, hnf_rows=tuple(tuple(x // g for x in row) for row in h)
    )


def _from_ints(rows: Sequence[Sequence[int]], den: int) -> Lattice:
    """The lattice spanned by the integer rows over `den`, canonicalized.

    The rows may number more than d but must have rank d.  Raises
    RankDeficient when the rows do not span rank d.
    """
    h, rank = _hermite(rows)
    d = len(h[0])
    if rank < d:
        raise RankDeficient("basis rows are linearly dependent")
    return _canonical(h[:d], den)


def lattice_new(basis: Sequence[Sequence]) -> Lattice:
    """Build the lattice spanned by the rows of `basis` (canonicalized).

    Entries may be ints, Fractions, or "p/q" strings.  Raises
    RankDeficient when the rows are dependent.
    """
    rows, den = clear_denominators(basis)
    d = len(rows)
    if d == 0 or len(rows[0]) != d:
        raise RankDeficient("basis must be square and nonempty")
    return _from_ints(rows, den)


def standard_lattice(d: int) -> Lattice:
    """Z^d."""
    return Lattice(
        dim=d, den=1, hnf_rows=tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    )


def _solve_upper_triangular(
    h: Sequence[Sequence[int]], w: Sequence[int], scale: int = 1
) -> Optional[tuple[int, ...]]:
    """Solve x . (scale.h) = w over Z for upper triangular h with nonzero pivots.

    x . (scale.h) is scale.(x . h), so scale divides every w_j or there is
    no solution; that is checked once, and x . h = w / scale is solved
    with no scale in the loop, skipping the zero coordinates.  Only the
    first len(h) columns of h are read.
    """
    if scale != 1 and any(v % scale for v in w):
        return None
    x: list[int] = []
    for j, row in enumerate(h):
        acc = w[j] // scale
        for i, xi in enumerate(x):
            if xi:
                acc -= xi * h[i][j]
        q, r = divmod(acc, row[j])
        if r:
            return None
        x.append(q)
    return tuple(x)


def _coords(lat: Lattice, w: Sequence[int], q: int) -> Optional[tuple[int, ...]]:
    """Integer coordinates over lat's basis of the point w / q, or None.

    x . hnf_rows / den = w / q is x . (q . hnf_rows) = den . w.
    """
    if lat.den != 1:
        w = [lat.den * x for x in w]
    return _solve_upper_triangular(lat.hnf_rows, w, q)


def _point_ints(v: Sequence, dim: int, what: str) -> tuple[tuple[int, ...], int]:
    """The one reader of rational points: (w, q) for v = w / q in lowest terms."""
    (w,), q = clear_denominators([v])
    if len(w) != dim:
        raise DimensionMismatch(f"point has dimension {len(w)}, {what} {dim}")
    return w, q


def index(sup: Lattice, sub: Lattice) -> int:
    """Group index [sup : sub]; requires sub to be a sublattice of sup.

    sub's basis in sup's coordinates is triangular with a positive
    diagonal, since both bases are Hermite forms; the index is its
    determinant, the product of that diagonal.
    """
    if sub.dim != sup.dim:
        raise DimensionMismatch("lattices live in different dimensions")
    rel = _relative_basis(sup, sub)
    return prod(rel[i][i] for i in range(sup.dim))


def _stacked(l1: Lattice, l2: Lattice) -> tuple[list, list, int]:
    """The sum rows and the meet of [[A, A], [B, 0]], and their scale (Zassenhaus).

    A and B are the Hermite bases of scale*l1 and scale*l2, scale the
    lcm of their dens.  The rows span the pairs (x.A + y.B, x.A).  Column
    by column, Euclid's subtract-and-swap alone makes the left half
    upper triangular; it has rank d, so rows 0..d-1 come out with
    nonzero pivots of either sign, their left halves a triangular basis
    of scale*(l1 + l2), and are left as they are: a row (w, x.A) of them
    splits w into x.A in scale*l1 and w - x.A = y.B in scale*l2.  Rows
    d..2d-1 are zero on the left, x.A = -y.B, so their right halves span
    scale*(l1 meet l2), and their Hermite form, the one `_hermite` call,
    is the meet's basis.  It is the lower-right block of the whole
    stacked form: the reductions that form adds above each pivot and its
    sign flips touch only the rows above, so rows d..2d-1 get exactly the
    row operations made here.
    """
    if l1.dim != l2.dim:
        raise DimensionMismatch("lattices live in different dimensions")
    d = l1.dim
    scale = lcm(l1.den, l2.den)
    f1, f2 = scale // l1.den, scale // l2.den
    zero = [0] * d
    h = [[f1 * x for x in row] * 2 for row in l1.hnf_rows] + [
        [f2 * x for x in row] + zero for row in l2.hnf_rows
    ]
    width = 2 * d
    for col in range(d):
        live = [r for r in range(col, width) if h[r][col]]
        if not live:
            raise InternalInvariantViolation("stacked bases must have rank 2d")
        span = range(col, width)
        p = h[live[0]]
        h[live[0]] = h[col]
        for r in live[1:]:
            b = h[r]
            while b[col]:
                q = p[col] // b[col]
                if q:
                    for j in span:
                        p[j] -= q * b[j]
                p, b = b, p
            h[r] = b
        h[col] = p
    meet, rank = _hermite([row[d:] for row in h[d:]])
    if rank != d:
        raise InternalInvariantViolation("stacked bases must have rank 2d")
    return h[:d], meet, scale


def intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """Set intersection, again a full-rank lattice (see `_stacked`)."""
    meet, scale = _stacked(l1, l2)[1:]
    return _canonical(meet, scale)


def _image(lat: Lattice, num: IntMatrix, den: int) -> Lattice:
    """Image of the lattice under v -> v . (num / den), num an integer matrix."""
    return _from_ints(mat_mul(lat.hnf_rows, num), lat.den * den)


def transform(lat: Lattice, map_matrix: Sequence[Sequence]) -> Lattice:
    """Image of the lattice under the map v -> v . M^T.

    `map_matrix` is the matrix A of the linear map in the ambient
    coordinates; basis rows map to rows of basis . A^T.
    """
    num, q = clear_denominators(map_matrix)
    if len(num) != lat.dim or len(num[0]) != lat.dim:
        raise DimensionMismatch("map and lattice dimensions differ")
    return _image(lat, transpose(num), q)


def _relative_basis(parent: Lattice, sub: Lattice) -> IntMatrix:
    """Integer matrix expressing sub's basis rows in parent coordinates.

    Row i solves x . hnf_rows / parent.den = w / sub.den by forward
    substitution.  Both dens are minimal, so sub lies in parent only if
    sub.den divides parent.den, and then the equation is x . hnf_rows =
    f.w for the one scalar f = parent.den / sub.den.  Both bases are
    upper triangular, so w and x are zero left of column i: the solve
    starts at the row's pivot.  The result is upper triangular too.
    """
    f, r = divmod(parent.den, sub.den)
    if r:
        raise NotASublattice("sub is not inside parent")
    h, d = parent.hnf_rows, parent.dim
    out = []
    for i, w in enumerate(sub.hnf_rows):
        x = [0] * d
        for j in range(i, d):
            acc = f * w[j]
            for k in range(i, j):
                if x[k]:
                    acc -= x[k] * h[k][j]
            x[j], r = divmod(acc, h[j][j])
            if r:
                raise NotASublattice("sub is not inside parent")
        out.append(tuple(x))
    return tuple(out)


def _rows_beside_images(parent: Lattice, lat: Lattice, num: IntMatrix, q: int) -> list:
    """lat's basis rows beside their images under v -> v . num / q, in parent coordinates.

    A sum of them is a point of lat beside its image (callers pass csl(A^-1)).
    """
    images = [_coords(parent, b, lat.den * q) for b in mat_mul(lat.hnf_rows, num)]
    if None in images:
        raise InternalInvariantViolation("image of a csl-inv point left the parent lattice")
    return [x + y for x, y in zip(_relative_basis(parent, lat), images)]


def _runs(
    column: Sequence[int], step: int, firsts: Sequence[int], counts: Sequence[int]
) -> list[int]:
    """column[i] + x . step for x from firsts[i], counts[i] values, for every i in turn."""
    if not step:
        return list(chain.from_iterable(map(repeat, column, counts)))
    starts = [v + x * step for v, x in zip(column, firsts)]
    stops = [a + c * step for a, c in zip(starts, counts)]
    return list(chain.from_iterable(map(range, starts, stops, repeat(step))))


def _box_columns(
    h: Sequence[Sequence[int]], lo: Sequence[int], hi: Sequence[int], depth: int
) -> list[list[int]]:
    """The sums x . h[:depth] whose first `depth` coordinates lie in the box, as columns.

    h is upper triangular with positive pivots, so once coordinates
    0..j-1 of a sum are fixed, coordinate j runs over an arithmetic
    progression with step h[j][j], cut to [lo[j], hi[j]].  The sums come
    out in lexicographic order of those coordinates, one list per column
    of h, at a cost proportional to their number, not to the box: a level
    is one range per run of a column, or one repeat where h[j] is 0
    (`_runs`).  A box narrower than the pivot holds at most one value per
    run, so the columns shift in place and the empty runs are dropped.
    """
    columns = [[0] for _ in h[0]]
    for j in range(depth):
        row, p, low, high = h[j], h[j][j], lo[j], hi[j]
        # the first x of each run: x . p + column j is the least value >= low
        firsts = [-((a - low) // p) for a in columns[j]]
        if high - low >= p:
            counts = [(high - a) // p + 1 - x for a, x in zip(columns[j], firsts)]
            columns = [_runs(col, r, firsts, counts) for col, r in zip(columns, row)]
            continue
        columns = [
            [v + x * r for v, x in zip(col, firsts)] if r else col
            for col, r in zip(columns, row)
        ]
        if high - low + 1 < p:
            kept = [a <= high for a in columns[j]]
            columns = [list(compress(col, kept)) for col in columns]
    return columns


def _window_columns(parent: Lattice, lat: Lattice, radius: int) -> list[list[int]]:
    """Parent coordinates in [-radius, radius]^d of the points of lat, as d columns.

    Both Hermite bases are upper triangular with positive pivots, so
    lat's basis in parent coordinates is too, and the points are its
    `_box_columns`, in the order of product(box, repeat=d).
    """
    d = parent.dim
    return _box_columns(_relative_basis(parent, lat), (-radius,) * d, (radius,) * d, d)


def _forms(
    columns: Sequence[Sequence[int]], matrix: Sequence[Sequence[int]]
) -> Iterator[list[int]]:
    """x . matrix for every point x given as columns, one list per column of matrix.

    Each list is built one coordinate at a time and yielded as soon as it
    is complete, so a reader that drops it keeps one at a time.  A form
    that is one coordinate is that column itself, not a copy.
    """
    for k in range(len(matrix[0])):
        line = None
        for column, row in zip(columns, matrix):
            s = row[k]
            if not s:
                continue
            if line is None:
                line = column if s == 1 else [s * x for x in column]
            else:
                line = [a + s * x for a, x in zip(line, column)]
        yield [0] * len(columns[0]) if line is None else line


def _mixed_radix(digits: Iterable[Sequence[int]], moduli: Sequence[int], size: int) -> list[int]:
    """The mixed-radix index of each of `size` points, first digit most significant.

    `digits` holds one list per modulus, each digit in [0, n); the index
    is built by Horner's rule, one list operation per digit.
    """
    index = None
    for line, n in zip(digits, moduli):
        index = line if index is None else [i * n + x for i, x in zip(index, line)]
    return [0] * size if index is None else index


def _walk(
    gens: Sequence[Sequence[int]], moduli: tuple[int, ...], graph: bool = False
) -> tuple[list[int], list[int]]:
    """Colours of the subgroup of Z_n1 x ... x Z_nk generated by `gens`.

    The subgroup is the lattice span(gens) + diag(n).Z^k read modulo n:
    its elements are that lattice's points in the box prod [0, n_j),
    and an element's colour is its mixed-radix index, first digit most
    significant, as `Colouring` numbers its keys.  The lattice's Hermite
    form is upper triangular with pivots p_j that divide n_j, so the
    last digit, of weight 1, runs over acc mod p + p.N below n for each
    prefix acc of the box (`_box_columns` to depth k - 1), and joins it
    as one range: the colours come out in increasing order.

    With `graph`, each generator is a pair (key | image key) and the
    walk runs over moduli + moduli.  The pairs span the graph of a map
    exactly when rows k..2k-1 of the form are (0 | diag(n)); then the
    right half of each point is fixed by its left half, and the colours
    of the right halves, reduced mod n, are returned in the order of the
    left ones.  Returns (colours, images); images is empty without
    `graph`.
    """
    k = len(moduli)
    if k == 0:
        return [0], [0] if graph else []
    mods = moduli * 2 if graph else moduli
    width = len(mods)
    h, _ = _hermite(
        [list(g) for g in gens]
        + [[n * (i == j) for j in range(width)] for i, n in enumerate(mods)]
    )
    if graph and any(
        h[k + i] != [0] * k + [n * (i == j) for j in range(k)]
        for i, n in enumerate(moduli)
    ):
        raise InternalInvariantViolation("colour graph is not a function")
    prefixes = _box_columns(h, (0,) * k, [n - 1 for n in moduli], k - 1)
    last, p, n = prefixes[k - 1], h[k - 1][k - 1], moduli[-1]
    # each prefix's last digit runs from its residue mod p, by p, n / p times
    starts = _mixed_radix([*prefixes[: k - 1], [a % p for a in last]], moduli, len(last))
    colours: list[int] = []
    for s in starts:
        colours += range(s, s + n, p)
    if not graph:
        return colours, []
    # along each run the right half steps by row k - 1's
    firsts, counts = [-(a // p) for a in last], [n // p] * len(last)
    right = zip(prefixes[k:], h[k - 1][k:], moduli)
    digits = [[x % q for x in _runs(column, r, firsts, counts)] for column, r, q in right]
    return colours, _mixed_radix(digits, moduli, len(colours))


def _radix_reps(colouring: Colouring) -> tuple[tuple[int, ...], ...]:
    """Each coset's one point in the box prod range(rel[j][j]), by colour, as `rep_rows`.

    The box has exactly m points, the `_box_columns` of the identity
    basis; their rows (`_forms` of hnf_rows) and colours
    (`Colouring._colours_of_columns`) are list operations over its
    columns.  Two points in one coset would leave a colour without a row.
    """
    d = colouring.parent.dim
    highs = [row[j] - 1 for j, row in enumerate(colouring._rel)]
    box = _box_columns(standard_lattice(d).hnf_rows, (0,) * d, highs, d)
    rows = zip(*_forms(box, colouring.parent.hnf_rows))
    reps = dict(zip(colouring._colours_of_columns(box), rows))
    if len(reps) < colouring.m:
        raise InternalInvariantViolation("two points of the Hermite box share a coset")
    return tuple(map(reps.__getitem__, range(colouring.m)))


def coset_reps(parent: Lattice, sub: Lattice) -> list[Vector]:
    """Deterministic coset representatives of sub inside parent.

    These are the default reps of `Colouring(parent, sub)`: each
    coset's one point in the box of the pivots of sub's basis in parent
    coordinates, listed by colour, so reps[0] is the zero vector.
    """
    return Colouring(parent, sub).reps


class Colouring:
    """A colouring of `parent` by the m cosets of `sub`.

    Colours are numbered by Smith normal form coordinates.  With
    D = U.rel.V the SNF of sub's basis in parent coordinates, for some
    unimodular U that is never built, the point with integer parent
    coordinates c lies in the coset keyed by (c.V)_j mod d_j, and its
    colour is the mixed-radix index of that key, first factor most
    significant.  The reps are kept as integer
    rows over parent.den (`rep_rows`), and `reps` is their rational
    view.  The default rows are built on first access: rel is
    triangular, so each coset has one point in the box
    prod range(rel[j][j]), stored at its colour, and row 0 is 0.
    Custom representatives may be supplied (validated); they renumber
    the colours through a table indexed by the same mixed-radix key.
    """

    def __init__(
        self,
        parent: Lattice,
        sub: Lattice,
        reps: Optional[Sequence[Sequence]] = None,
    ):
        if sub.dim != parent.dim:
            raise DimensionMismatch("lattices live in different dimensions")
        self.parent = parent
        self.sub = sub
        try:
            self._rel = _relative_basis(parent, sub)
        except NotASublattice:
            raise NotASublattice("colouring needs sub inside parent") from None
        d, v = snf(self._rel)
        # the SNF elementary divisors d_1 | d_2 | ... of parent/sub
        self.moduli = tuple(d[j][j] for j in range(parent.dim))
        self.m = prod(self.moduli)
        # the factors d_j > 1, and the columns of V that key them
        factors = [j for j, n in enumerate(self.moduli) if n > 1]
        self._factors = tuple(self.moduli[j] for j in factors)
        self._v = tuple(tuple(row[j] for j in factors) for row in v)
        self._table: Optional[list] = None
        self._rep_rows: Optional[tuple[tuple[int, ...], ...]] = None
        if reps is not None:
            points = [_point_ints(rep, parent.dim, "parent") for rep in reps]
            if len(points) != self.m:
                raise ValueError(
                    f"expected {_bounded(self.m)} representatives, got {len(points)}"
                )
            if any(points[0][0]):
                raise ValueError("first representative must be the zero vector")
            # the reps before the first one outside the parent are checked
            # first; with no table yet, their colours are the keys' indices
            coords = [_coords(parent, *point) for point in points]
            inside = coords.index(None) if None in coords else self.m
            columns = list(zip(*coords[:inside]))
            keys = self._colours_of_columns(columns)
            if len(set(keys)) < inside:
                raise ValueError("representatives are congruent mod sub")
            if inside < self.m:
                self._coords_of_ints(*points[inside])
            self._table = sorted(range(self.m), key=keys.__getitem__)
            self._rep_rows = tuple(zip(*_forms(columns, parent.hnf_rows)))

    @property
    def rep_rows(self) -> tuple[tuple[int, ...], ...]:
        """The reps as integer rows: reps[i] is rep_rows[i] / parent.den."""
        if self._rep_rows is None:
            self._rep_rows = _radix_reps(self)
        return self._rep_rows

    @property
    def reps(self) -> list[Vector]:
        """Colour i is the coset reps[i] + sub; reps[0] is the zero vector."""
        den = self.parent.den
        return [tuple(Fraction(x, den) for x in row) for row in self.rep_rows]

    def _coords_of_ints(self, w: Sequence[int], q: int) -> tuple[int, ...]:
        """Integer parent coordinates of the point w / q; raises NotInParent."""
        coords = _coords(self.parent, w, q)
        if coords is None:
            point = ", ".join(_bounded(Fraction(x, q)) for x in w)
            raise NotInParent(f"({point}) is not in the parent lattice")
        return coords

    def _colour_sets(
        self, csl_inv: Lattice, amap_ints: tuple[IntMatrix, int], graph: bool
    ) -> tuple[tuple[int, ...], tuple[int, ...], Optional[tuple[tuple[int, int], ...]]]:
        """I, J and the colour permutation, read off csl_inv's rows beside their images.

        amap_ints = (N, q) is the map A: v -> v . N / q, which carries
        csl_inv onto csl(A).  I and J, the colours that csl_inv and
        csl(A) meet, are the subgroups of parent/sub that the keys of
        csl_inv's basis rows and of their images generate (`_walk`).
        With `graph`, A carries each colour of I to one colour of J, so
        one walk of the key pairs gives I beside the image of each
        colour, the permutation; without it, I and J are one walk each
        and the permutation is None.
        """
        d = csl_inv.dim
        columns = list(zip(*_rows_beside_images(self.parent, csl_inv, *amap_ints)))
        left, right = (list(zip(*self._keys(half))) for half in (columns[:d], columns[d:]))
        # the walk's colours come out in increasing order; a table renumbers
        # them out of order, and only then are they sorted: re-sorting sorted
        # lists is linear, but at m in the thousands it is a tenth of an analysis
        if not graph:
            set_i, set_j = (self._renamed(_walk(keys, self._factors)[0]) for keys in (left, right))
            if self._table is not None:
                set_i, set_j = sorted(set_i), sorted(set_j)
            return tuple(set_i), tuple(set_j), None
        colours, images = _walk([a + b for a, b in zip(left, right)], self._factors, graph=True)
        colours, images = self._renamed(colours), self._renamed(images)
        if self._table is not None:
            pairs = sorted(zip(colours, images))
            colours, images = [c for c, _ in pairs], [j for _, j in pairs]
        return tuple(colours), tuple(sorted(images)), tuple(zip(colours, images))

    def _renamed(self, colours: list[int]) -> list[int]:
        """Mixed-radix key indices as colours: renumbered through the custom-reps table, if any."""
        return colours if self._table is None else list(map(self._table.__getitem__, colours))

    def _keys(self, columns: Sequence[Sequence[int]]) -> Iterator[list[int]]:
        """The key of every point c given as columns of integer parent coordinates.

        (c . V_j) mod d_j, one list per factor d_j > 1: every key and colour is made here.
        """
        for line, n in zip(_forms(columns, self._v), self._factors):
            yield [x % n for x in line]

    def _colours_of_columns(self, columns: Sequence[Sequence[int]]) -> list[int]:
        """The colour of every point given as columns of integer parent coordinates.

        The mixed-radix index of the point's key (`_keys`, `_mixed_radix`);
        custom reps renumber it through the table.
        """
        return self._renamed(_mixed_radix(self._keys(columns), self._factors, len(columns[0])))

    def colour_of_coords(self, coords: Sequence[int]) -> int:
        """Colour index of a point given in integer parent coordinates (`_colours_of_columns`).

        Raises DimensionMismatch for other than `parent.dim` coordinates,
        and ValueError for a coordinate that is not an int (bool included).
        """
        dim = self.parent.dim
        if len(coords) != dim:
            raise DimensionMismatch(f"point has dimension {len(coords)}, colouring {dim}")
        for x in coords:
            if type(x) is not int:
                raise ValueError(f"coordinates must be ints, not {type(x).__name__}")
        return self._colours_of_columns([[x] for x in coords])[0]

    def __repr__(self) -> str:
        return f"Colouring(m={_bounded(self.m)}, parent={self.parent!r}, sub={self.sub!r})"


def colour_of(colouring: Colouring, v: Sequence) -> int:
    """Colour index of an ambient point; raises NotInParent when outside."""
    w, q = _point_ints(v, colouring.parent.dim, "colouring")
    return colouring.colour_of_coords(colouring._coords_of_ints(w, q))


def coset_meets_lattice(
    rep: Sequence, sub: Lattice, lat: Lattice
) -> Optional[Vector]:
    """The point of (rep + sub) intersected with lat in the meet's Hermite box, or None.

    The coset meets lat exactly when rep lies in sub + lat, which lies
    in Z^d / scale and has the left halves of the stacked sum rows as a
    triangular basis (see `_stacked`).  Solving gamma . sums = (w, x.A)
    there, against pivots of either sign, x.A lies in sub and w - x.A =
    y.B in lat.  The points of the coset in lat are a coset of sub meet
    lat, so reducing y.B by the rows of the meet's Hermite form leaves
    the one point whose coordinate j lies in [0, pivot j) / scale: the
    witness depends on the coset, not on the elimination.  It is
    verified against both memberships.
    """
    w, q = _point_ints(rep, sub.dim, "lattice")
    d = sub.dim
    sums, meet, scale = _stacked(sub, lat)
    if scale % q:
        return None
    w = tuple(scale // q * x for x in w)
    gamma = _solve_upper_triangular(sums, w)
    if gamma is None:
        return None
    witness = [x - s for x, s in zip(w, vec_mat(gamma, sums)[d:])]
    for j, row in enumerate(meet):
        k = witness[j] // row[j]
        if k:
            witness = [x - k * r for x, r in zip(witness, row)]
    shift = [x - y for x, y in zip(w, witness)]
    if _coords(lat, witness, scale) is None or _coords(sub, shift, scale) is None:
        raise InternalInvariantViolation("witness failed membership verification")
    return tuple(Fraction(x, scale) for x in witness)
