"""Full-rank lattices in Q^d with exact set algebra and coset machinery.

A lattice is stored in a canonical pair (den, hnf_rows): `den` is the
smallest positive integer for which den*L is an integer lattice, and
`hnf_rows` is the Hermite form basis of den*L.  Scaling a lattice
scales its Hermite form, so dividing out gcd(den, all entries) leaves
the minimal den (`_canonical`), and two lattices are equal exactly when
their stored pairs are equal.  That turns lattice equality, the
backbone of the colour-coincidence criterion, into tuple comparison.

Every operation works on integer rows over a common denominator: an
image maps hnf_rows . N over den . q for a map N / q; a meet and a sum
are the two diagonal blocks of one stacked Hermite form (`_stacked`),
which also decides whether a coset meets a lattice; membership and
coordinates are one forward substitution against the triangular
hnf_rows, and an index is a ratio of pivot products.  A sublattice's
basis in parent coordinates is triangular too, and so is the Hermite
form of a colour subgroup: one walk over a triangular basis
(`_box_prefixes`) lists a lattice's points in a window and the colours
a lattice meets.
``fractions.Fraction`` appears only at the edges, where rational input
is parsed (`lattice_new`, `transform`, and every point by `_point_ints`)
and rational output is formed (`basis`, `det_abs`, `Colouring.reps` and
`coset_reps`, witnesses).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Optional, Sequence

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
    _hermite,
    clear_denominators,
    mat_mul,
    rat_inverse,
    rat_matrix,
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

    @property
    def det_abs(self) -> Fraction:
        d = 1
        for i in range(self.dim):
            d *= self.hnf_rows[i][i]
        return Fraction(d, self.den ** self.dim)

    def __repr__(self) -> str:
        rows = ", ".join(
            "(" + ", ".join(str(Fraction(x, self.den)) for x in row) + ")"
            for row in self.hnf_rows
        )
        return f"Lattice[{rows}]"


def _canonical(h: Sequence[Sequence[int]], den: int) -> Lattice:
    """The lattice with Hermite basis rows h over `den`, with minimal den.

    h / g is again a Hermite form for g = gcd(den, all entries).
    """
    g = gcd(den, *(x for row in h for x in row))
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
    rows = rat_matrix(basis)
    d = len(rows)
    if d == 0 or len(rows[0]) != d:
        raise RankDeficient("basis must be square and nonempty")
    return _from_ints(*clear_denominators(rows))


def standard_lattice(d: int) -> Lattice:
    """Z^d."""
    return Lattice(
        dim=d, den=1, hnf_rows=tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    )


def _solve_upper_triangular(
    h: IntMatrix, w: Sequence[int], scale: int = 1
) -> Optional[tuple[int, ...]]:
    """Solve x . (scale.h) = w over Z for upper triangular h with nonzero pivots."""
    d = len(h)
    x = [0] * d
    for j in range(d):
        acc = w[j]
        for i in range(j):
            acc -= scale * x[i] * h[i][j]
        q, r = divmod(acc, scale * h[j][j])
        if r:
            return None
        x[j] = q
    return tuple(x)


def _coords(lat: Lattice, w: Sequence[int], q: int = 1) -> Optional[tuple[int, ...]]:
    """Integer coordinates over lat's basis of the point w / q, or None.

    x . hnf_rows / den = w / q is x . (q . hnf_rows) = den . w.
    """
    return _solve_upper_triangular(lat.hnf_rows, [lat.den * x for x in w], q)


def _point_ints(v: Sequence, dim: int, what: str) -> tuple[tuple[int, ...], int]:
    """The one reader of rational points: (w, q) for v = w / q in lowest terms."""
    vec = [Fraction(x) for x in v]
    if len(vec) != dim:
        raise DimensionMismatch(f"point has dimension {len(vec)}, {what} {dim}")
    (w,), q = clear_denominators([vec])
    return w, q


def contains(lat: Lattice, v: Sequence) -> bool:
    """Exact membership of a rational point in the lattice."""
    return _coords(lat, *_point_ints(v, lat.dim, "lattice")) is not None


def is_sublattice(sub: Lattice, sup: Lattice) -> bool:
    """True iff every basis row of sub lies in sup."""
    if sub.dim != sup.dim:
        raise DimensionMismatch("lattices live in different dimensions")
    return all(_coords(sup, row, sub.den) is not None for row in sub.hnf_rows)


def index(sup: Lattice, sub: Lattice) -> int:
    """Group index [sup : sub]; requires sub to be a sublattice of sup.

    The ratio of the covolumes, prod(pivots) / den^d on each side.
    """
    if not is_sublattice(sub, sup):
        raise NotASublattice(f"{sub!r} is not inside {sup!r}")
    d = sup.dim
    ratio, rest = divmod(
        prod(sub.hnf_rows[i][i] for i in range(d)) * sup.den**d,
        prod(sup.hnf_rows[i][i] for i in range(d)) * sub.den**d,
    )
    if rest:
        raise InternalInvariantViolation("index of a sublattice must be integral")
    return ratio


def _stacked(l1: Lattice, l2: Lattice) -> tuple[list, int]:
    """Hermite form of [[A, A], [B, 0]] and its scale (Zassenhaus).

    A and B are the Hermite bases of scale*l1 and scale*l2, scale the
    lcm of their dens.  The rows span the pairs (x.A + y.B, x.A), so the
    upper-left d x d block of the form is the Hermite basis of
    scale*(l1 + l2), and the rows whose left half is zero, x.A = -y.B,
    leave the Hermite basis of scale*(l1 meet l2) in the lower-right
    block.  The matrix has |det| = |det A.det B| > 0, so all 2d rows are
    pivots.
    """
    if l1.dim != l2.dim:
        raise DimensionMismatch("lattices live in different dimensions")
    scale = lcm(l1.den, l2.den)
    f1, f2 = scale // l1.den, scale // l2.den
    zero = [0] * l1.dim
    h, rank = _hermite(
        [[f1 * x for x in row] * 2 for row in l1.hnf_rows]
        + [[f2 * x for x in row] + zero for row in l2.hnf_rows]
    )
    if rank != 2 * l1.dim:
        raise InternalInvariantViolation("stacked bases must have rank 2d")
    return h, scale


def intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """Set intersection, again a full-rank lattice (see `_stacked`)."""
    h, scale = _stacked(l1, l2)
    d = l1.dim
    return _canonical([row[d:] for row in h[d:]], scale)


def lattice_sum(l1: Lattice, l2: Lattice) -> Lattice:
    """Smallest lattice containing both inputs (see `_stacked`)."""
    h, scale = _stacked(l1, l2)
    d = l1.dim
    return _canonical([row[:d] for row in h[:d]], scale)


def _image(lat: Lattice, num: IntMatrix, den: int) -> Lattice:
    """Image of the lattice under v -> v . (num / den), num an integer matrix."""
    return _from_ints(mat_mul(lat.hnf_rows, num), lat.den * den)


def transform(lat: Lattice, map_matrix: Sequence[Sequence]) -> Lattice:
    """Image of the lattice under the map v -> v . M^T.

    `map_matrix` is the matrix A of the linear map in the ambient
    coordinates; basis rows map to rows of basis . A^T.
    """
    m = rat_matrix(map_matrix)
    if len(m) != lat.dim or len(m[0]) != lat.dim:
        raise DimensionMismatch("map and lattice dimensions differ")
    return _image(lat, *clear_denominators(transpose(m)))


def _relative_basis(parent: Lattice, sub: Lattice) -> IntMatrix:
    """Integer matrix expressing sub's basis rows in parent coordinates."""
    out = []
    for row in sub.hnf_rows:
        coords = _coords(parent, row, sub.den)
        if coords is None:
            raise NotASublattice("sub basis does not lie in parent")
        out.append(coords)
    return tuple(out)


def _box_prefixes(
    h: Sequence[Sequence[int]], lo: Sequence[int], hi: Sequence[int], depth: int
) -> list[tuple[int, ...]]:
    """The sums x . h[:depth] whose first `depth` coordinates lie in the box.

    h is upper triangular with positive pivots, so once coordinates
    0..j-1 of a sum are fixed, coordinate j runs over an arithmetic
    progression with step h[j][j], cut to [lo[j], hi[j]].  The sums come
    out in lexicographic order of those coordinates, at a cost
    proportional to their number, not to the box.
    """
    sums = [(0,) * len(h[0])]
    for j in range(depth):
        row, p, low, high = h[j], h[j][j], lo[j], hi[j]
        longer = []
        for acc in sums:
            for x in range(-((acc[j] - low) // p), (high - acc[j]) // p + 1):
                longer.append(tuple(a + x * r for a, r in zip(acc, row)))
        sums = longer
    return sums


def _window_points(parent: Lattice, lat: Lattice, radius: int) -> list[tuple[int, ...]]:
    """Parent coordinates in [-radius, radius]^d of the points of lat.

    Both Hermite bases are upper triangular with positive pivots, so
    lat's basis rel in parent coordinates is too (`_box_prefixes`).
    The points come out in the order of product(box, repeat=d).
    """
    rel = _relative_basis(parent, lat)
    d = len(rel)
    # the last coordinate joins each prefix as a slice of one column of
    # 1-tuples, with no arithmetic per point
    column = [(c,) for c in range(-radius, radius + 1)]
    step = rel[-1][-1]
    points = []
    for acc in _box_prefixes(rel, (-radius,) * d, (radius,) * d, d - 1):
        points.extend(map(acc[:-1].__add__, column[(acc[-1] + radius) % step :: step]))
    return points


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
    prefix acc of the box (`_box_prefixes`), and joins it as one range:
    the colours come out in increasing order.

    With `graph`, each generator is a pair (key | image key) and the
    walk runs over moduli + moduli.  The pairs span the graph of a map
    exactly when rows k..2k-1 of the form are (0 | diag(n)); then the
    right half of each point is fixed by its left half, and the colours
    of the right halves are returned in the order of the left ones.
    Returns (colours, images); images is empty without `graph`.
    """
    k = len(moduli)
    if k == 0:
        return [0], [0] if graph else []
    weights = [prod(moduli[j + 1:]) for j in range(k)]
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
    row, p, n = h[k - 1], h[k - 1][k - 1], moduli[-1]
    colours: list[int] = []
    images: list[int] = []
    for acc in _box_prefixes(h, (0,) * k, [x - 1 for x in moduli], k - 1):
        base = sum(map(mul, acc[: k - 1], weights))
        colours.extend(range(base + acc[k - 1] % p, base + n, p))
        if graph:
            first = -(acc[k - 1] // p)
            steps = range(first, first + n // p)
            columns = [
                [(a + c * r) % q * w for c in steps]
                for a, r, q, w in zip(acc[k:], row[k:], moduli, weights)
            ]
            images.extend(map(sum, zip(*columns)))
    return colours, images


def _radix_reps(colouring: Colouring) -> tuple[tuple[int, ...], ...]:
    """Each coset's one point in the box prod range(rel[j][j]), by colour, as `rep_rows`.

    The box has exactly m points, in the order of product(range(p_j)).
    Each entry of a point's row c . hnf_rows, and each factor's key
    c . V_j before reduction, is built over the whole box as one flat
    list, one coordinate at a time, so the colours are one mixed-radix
    sum per point, as `colour_of_coords` gives them.  Two points in one
    coset would leave a colour without a row.
    """
    h = colouring.parent.hnf_rows
    radix = colouring._radix
    # the step that coordinate j adds to each row entry and to each key
    steps = [(*h[j], *(col[j] for col, _, _ in radix)) for j in range(len(h))]
    lines = [[0] for _ in steps[0]]
    for j, row in enumerate(colouring._rel):
        box = range(row[j])
        lines = [[a + t * s for a in line for t in box] for line, s in zip(lines, steps[j])]
    colours = [0] * len(lines[0])
    for (_, n, w), keys in zip(radix, lines[len(h):]):
        colours = [c + k % n * w for c, k in zip(colours, keys)]
    reps: list = [None] * colouring.m
    for colour, point in zip(colours, zip(*lines[: len(h)])):
        reps[colour] = point
    if None in reps:
        raise InternalInvariantViolation("two points of the Hermite box share a coset")
    return tuple(reps)


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
    D = U.rel.V the SNF of sub's basis in parent coordinates, the point
    with integer parent coordinates c lies in the coset keyed by
    (c.V)_j mod d_j, and its colour is the mixed-radix index of that
    key, first factor most significant.  The reps are kept as integer
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
        d, _, v = snf(self._rel)
        # the SNF elementary divisors d_1 | d_2 | ... of parent/sub
        self.moduli = tuple(d[j][j] for j in range(parent.dim))
        self.m = prod(self.moduli)
        # (column j of V, d_j, mixed-radix weight) for each factor d_j > 1
        radix = []
        weight = 1
        for j in reversed(range(parent.dim)):
            if self.moduli[j] > 1:
                radix.append((tuple(row[j] for row in v), self.moduli[j], weight))
            weight *= self.moduli[j]
        self._radix = tuple(reversed(radix))
        self._table: Optional[list] = None
        self._rep_rows: Optional[tuple[tuple[int, ...], ...]] = None
        if reps is not None:
            points = [_point_ints(rep, parent.dim, "parent") for rep in reps]
            if len(points) != self.m:
                raise ValueError(f"expected {self.m} representatives, got {len(points)}")
            if any(points[0][0]):
                raise ValueError("first representative must be the zero vector")
            # no table yet, so colour_of_coords gives the mixed-radix index
            table = [None] * self.m
            rows = []
            for i, point in enumerate(points):
                coords = self._coords_of_ints(*point)
                key = self.colour_of_coords(coords)
                if table[key] is not None:
                    raise ValueError("representatives are congruent mod sub")
                table[key] = i
                rows.append(vec_mat(coords, parent.hnf_rows))
            self._table = table
            self._rep_rows = tuple(rows)

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

    def _coords_of_ints(self, w: Sequence[int], q: int = 1) -> tuple[int, ...]:
        """Integer parent coordinates of the point w / q; raises NotInParent."""
        coords = _coords(self.parent, w, q)
        if coords is None:
            point = ", ".join(str(Fraction(x, q)) for x in w)
            raise NotInParent(f"({point}) is not in the parent lattice")
        return coords

    def _colours_met(
        self, lat: Lattice, amap_ints: Optional[tuple[IntMatrix, int]] = None
    ) -> tuple[list[int], list[int]]:
        """The colours that lat meets, increasing, and the colours of their images.

        They form the subgroup of parent/sub that the keys of lat's basis
        rows generate (`_walk`).  With amap_ints = (N, q), a map
        v -> v . N / q that carries each colour of lat to one colour, each
        key is paired with the key of its row's image, and images[i] is
        the image of colours[i]; without it images is empty.
        """

        def key(w, q):
            coords = self._coords_of_ints(w, q)
            return tuple(sum(map(mul, coords, col)) % n for col, n, _ in self._radix)

        keys = [key(b, lat.den) for b in lat.hnf_rows]
        if amap_ints is not None:
            num, q = amap_ints
            rows = mat_mul(lat.hnf_rows, num)
            keys = [x + key(b, lat.den * q) for x, b in zip(keys, rows)]
        moduli = tuple(n for _, n, _ in self._radix)
        colours, images = _walk(keys, moduli, graph=amap_ints is not None)
        if self._table is None:
            return colours, images
        # the table renumbers the walk's mixed-radix indices out of order
        rename = self._table.__getitem__
        if amap_ints is None:
            return sorted(map(rename, colours)), images
        pairs = sorted(zip(map(rename, colours), map(rename, images)))
        return [c for c, _ in pairs], [j for _, j in pairs]

    def colour_of_coords(self, coords: Sequence[int]) -> int:
        """Colour index of a point given in integer parent coordinates."""
        # the mixed-radix index of the key, inlined: this runs once per
        # point of a census or a render
        index = 0
        for col, modulus, weight in self._radix:
            index += sum(map(mul, coords, col)) % modulus * weight
        return index if self._table is None else self._table[index]

    def __repr__(self) -> str:
        return f"Colouring(m={self.m}, parent={self.parent!r}, sub={self.sub!r})"


def colour_of(colouring: Colouring, v: Sequence) -> int:
    """Colour index of an ambient point; raises NotInParent when outside."""
    w, q = _point_ints(v, colouring.parent.dim, "colouring")
    return colouring.colour_of_coords(colouring._coords_of_ints(w, q))


def coset_meets_lattice(
    rep: Sequence, sub: Lattice, lat: Lattice
) -> Optional[Vector]:
    """A point of (rep + sub) intersected with lat, or None if empty.

    The coset meets lat exactly when rep lies in sub + lat, the
    upper-left block of the stacked form (see `_stacked`), which lies in
    Z^d / scale.  Solving gamma . h[:d] = (w, shift) there, the right
    half is shift = x.A in sub, and w - shift = y.B lies in lat.  When
    present the witness is verified against both memberships.
    """
    w, q = _point_ints(rep, sub.dim, "lattice")
    d = sub.dim
    h, scale = _stacked(sub, lat)
    if scale % q:
        return None
    w = tuple(scale // q * x for x in w)
    gamma = _solve_upper_triangular(h[:d], w)
    if gamma is None:
        return None
    shift = vec_mat(gamma, h[:d])[d:]
    witness = tuple(x - s for x, s in zip(w, shift))
    if _coords(lat, witness, scale) is None or _coords(sub, shift, scale) is None:
        raise InternalInvariantViolation("witness failed membership verification")
    return tuple(Fraction(x, scale) for x in witness)
