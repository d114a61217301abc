"""Full-rank lattices in Q^d with exact set algebra and coset machinery.

A lattice is stored in a canonical pair (den, hnf_rows): `den` is the
smallest positive integer for which den*L is an integer lattice, and
`hnf_rows` is the Hermite form basis of den*L.  Because every basis row
is itself a lattice vector, the lcm of the entry denominators of any
basis equals that minimal den, so two lattices are equal exactly when
their stored pairs are equal.  That turns lattice equality, the
backbone of the colour-coincidence criterion, into tuple comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod
from operator import mul
from typing import Optional, Sequence

from cslcolour.errors import (
    DimensionMismatch,
    InternalInvariantViolation,
    NotASublattice,
    NotInParent,
    RankDeficient,
)
from cslcolour.ratmat import (
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


def lattice_new(basis: Sequence[Sequence]) -> Lattice:
    """Build the lattice spanned by the rows of `basis` (canonicalized).

    Entries may be ints, Fractions, or "p/q" strings.  Raises
    RankDeficient when the rows are dependent.
    """
    rows = rat_matrix(basis)
    d = len(rows)
    if d == 0 or len(rows[0]) != d:
        raise RankDeficient("basis must be square and nonempty")
    ints, den = clear_denominators(rows)
    h, _, rank = _hermite(ints)
    if rank < d:
        raise RankDeficient("basis rows are linearly dependent")
    return Lattice(dim=d, den=den, hnf_rows=tuple(tuple(r) for r in h))


def standard_lattice(d: int) -> Lattice:
    """Z^d."""
    return Lattice(
        dim=d, den=1, hnf_rows=tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    )


def _solve_upper_triangular(h: IntMatrix, w: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Solve x . h = w over Z for upper triangular h with nonzero pivots."""
    d = len(h)
    x = [0] * d
    for j in range(d):
        acc = w[j]
        for i in range(j):
            acc -= x[i] * h[i][j]
        q, r = divmod(acc, h[j][j])
        if r:
            return None
        x[j] = q
    return tuple(x)


def contains(lat: Lattice, v: Sequence) -> bool:
    """Exact membership of a rational point in the lattice."""
    vec = tuple(Fraction(x) for x in v)
    if len(vec) != lat.dim:
        raise DimensionMismatch(f"point has dimension {len(vec)}, lattice {lat.dim}")
    w = []
    for x in vec:
        scaled = x * lat.den
        if scaled.denominator != 1:
            return False
        w.append(scaled.numerator)
    return _solve_upper_triangular(lat.hnf_rows, w) is not None


def is_sublattice(sub: Lattice, sup: Lattice) -> bool:
    """True iff every basis row of sub lies in sup."""
    if sub.dim != sup.dim:
        raise DimensionMismatch("lattices live in different dimensions")
    return all(contains(sup, row) for row in sub.basis)


def index(sup: Lattice, sub: Lattice) -> int:
    """Group index [sup : sub]; requires sub to be a sublattice of sup."""
    if not is_sublattice(sub, sup):
        raise NotASublattice(f"{sub!r} is not inside {sup!r}")
    ratio = sub.det_abs / sup.det_abs
    if ratio.denominator != 1:
        raise InternalInvariantViolation("index of a sublattice must be integral")
    return ratio.numerator


def _common_integer_bases(l1: Lattice, l2: Lattice) -> tuple[IntMatrix, IntMatrix, int]:
    """Integer bases of scale*l1 and scale*l2 for a common scale."""
    scale = lcm(l1.den, l2.den)
    f1 = scale // l1.den
    f2 = scale // l2.den
    a = tuple(tuple(f1 * x for x in row) for row in l1.hnf_rows)
    b = tuple(tuple(f2 * x for x in row) for row in l2.hnf_rows)
    return a, b, scale


def intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """Set intersection, again a full-rank lattice.

    With integer bases A, B of the commonly-scaled inputs, the rows
    (alpha, beta) of the left kernel of the stacked matrix [A; B]
    satisfy alpha.A = -beta.B, and those products run over exactly the
    intersection.  The kernel rows fall out of the Hermite transform.
    """
    if l1.dim != l2.dim:
        raise DimensionMismatch("lattices live in different dimensions")
    d = l1.dim
    a, b, scale = _common_integer_bases(l1, l2)
    stacked = a + b
    _, u, rank = _hermite(stacked)
    if rank != d:
        raise InternalInvariantViolation("stacked bases must have rank d")
    kernel = u[rank:]
    gens = [vec_mat(row[:d], a) for row in kernel]
    if len(gens) != d:
        raise InternalInvariantViolation("kernel rank must be d")
    return lattice_new([[Fraction(x, scale) for x in g] for g in gens])


def lattice_sum(l1: Lattice, l2: Lattice) -> Lattice:
    """Smallest lattice containing both inputs (span of the union)."""
    if l1.dim != l2.dim:
        raise DimensionMismatch("lattices live in different dimensions")
    d = l1.dim
    a, b, scale = _common_integer_bases(l1, l2)
    h, _, rank = _hermite(a + b)
    if rank != d:
        raise InternalInvariantViolation("sum of full-rank lattices lost rank")
    return lattice_new([[Fraction(x, scale) for x in row] for row in h[:d]])


def transform(lat: Lattice, map_matrix: Sequence[Sequence]) -> Lattice:
    """Image of the lattice under the map v -> v . M^T.

    `map_matrix` is the matrix A of the linear map in the ambient
    coordinates; basis rows map to rows of basis . A^T.
    """
    m = rat_matrix(map_matrix)
    if len(m) != lat.dim or len(m[0]) != lat.dim:
        raise DimensionMismatch("map and lattice dimensions differ")
    return lattice_new(mat_mul(lat.basis, transpose(m)))


def _relative_basis(parent: Lattice, sub: Lattice) -> IntMatrix:
    """Integer matrix expressing sub's basis rows in parent coordinates."""
    rel = mat_mul(sub.basis, rat_inverse(parent.basis))
    out = []
    for row in rel:
        ints = []
        for x in row:
            if x.denominator != 1:
                raise NotASublattice("sub basis does not lie in parent")
            ints.append(x.numerator)
        out.append(tuple(ints))
    return tuple(out)


def _residue(rel_hnf: IntMatrix, coords: Sequence[int]) -> tuple[int, ...]:
    """Canonical residue of integer parent-coordinates mod the row span.

    Reduces coordinate j into [0, H[j][j]) in ascending order; the
    result is a complete, canonical system of coset labels.
    """
    d = len(rel_hnf)
    x = list(coords)
    for j in range(d):
        q = x[j] // rel_hnf[j][j]
        if q:
            row = rel_hnf[j]
            for k in range(j, d):
                x[k] -= q * row[k]
    return tuple(x)


def _radix_reps(
    parent: Lattice, rel: IntMatrix, moduli: Sequence[int], v: IntMatrix
) -> list[Vector]:
    """Coset reps in mixed-radix order of the SNF coordinates (see coset_reps)."""
    v_inv_rat = rat_inverse(v)
    if any(x.denominator != 1 for row in v_inv_rat for x in row):
        raise InternalInvariantViolation("unimodular inverse must be integral")
    v_inv = tuple(tuple(x.numerator for x in row) for row in v_inv_rat)
    rel_h, _, rank = _hermite(rel)
    if rank != parent.dim:
        raise InternalInvariantViolation("relative basis lost rank")
    reps = []
    seen = set()
    # one Fraction per distinct entry, shared by all the reps that hold it:
    # the reps live as long as the colouring, and every object they hold
    # is one more for each full garbage collection to scan
    entries: dict[int, Fraction] = {}
    for radix in product(*(range(n) for n in moduli)):
        coords = _residue(rel_h, vec_mat(radix, v_inv))
        if coords in seen:
            raise InternalInvariantViolation("coset enumeration repeated a coset")
        seen.add(coords)
        rep = []
        for x in vec_mat(coords, parent.hnf_rows):
            entry = entries.get(x)
            if entry is None:
                entry = entries[x] = Fraction(x, parent.den)
            rep.append(entry)
        reps.append(tuple(rep))
    return reps


def coset_reps(parent: Lattice, sub: Lattice) -> list[Vector]:
    """Deterministic coset representatives of sub inside parent.

    Uses the Smith-form mixed-radix enumeration: with D = U.rel.V, the
    quotient is the product of cyclic groups Z_d1 x ... x Z_dn, whose
    elements r pull back to r . V^{-1} in parent coordinates.  Each is
    then reduced to its canonical residue, mapped to ambient
    coordinates, first rep always the zero vector.
    """
    rel = _relative_basis(parent, sub)
    d, _, v = snf(rel)
    return _radix_reps(parent, rel, [d[i][i] for i in range(parent.dim)], v)


class Colouring:
    """A colouring of `parent` by the m cosets of `sub`.

    Colours are numbered by Smith normal form coordinates.  With
    D = U.rel.V the SNF of sub's basis in parent coordinates, the point
    with integer parent coordinates c lies in the coset keyed by
    (c.V)_j mod d_j, and its colour is the mixed-radix index of that
    key, first factor most significant.  That is the order coset_reps
    enumerates, so colour i is the coset reps[i] + sub and reps[0] is
    always 0.  The default reps are computed on first access.  Custom
    representatives may be supplied (validated); they renumber the
    colours through a table indexed by the same mixed-radix key.
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
        self._parent_inv = rat_inverse(parent.basis)
        try:
            self._rel = tuple(self._coords_of_point(row) for row in sub.basis)
        except NotInParent:
            raise NotASublattice("colouring needs sub inside parent") from None
        d, _, self._v = snf(self._rel)
        # the SNF elementary divisors d_1 | d_2 | ... of parent/sub
        self.moduli = tuple(d[j][j] for j in range(parent.dim))
        self.m = prod(self.moduli)
        # (column j of V, d_j, mixed-radix weight) for each factor d_j > 1
        radix = []
        weight = 1
        for j in reversed(range(parent.dim)):
            if self.moduli[j] > 1:
                radix.append((tuple(row[j] for row in self._v), self.moduli[j], weight))
            weight *= self.moduli[j]
        self._radix = tuple(reversed(radix))
        self._key_moduli = tuple(n for _, n, _ in self._radix)
        self._table: Optional[list] = None
        self._reps: Optional[list[Vector]] = None
        if reps is not None:
            chosen = [tuple(row) for row in rat_matrix(reps)]
            if len(chosen) != self.m:
                raise ValueError(f"expected {self.m} representatives, got {len(chosen)}")
            if any(x != 0 for x in chosen[0]):
                raise ValueError("first representative must be the zero vector")
            # no table yet, so colour_of_coords gives the mixed-radix index
            table = [None] * self.m
            for i, rep in enumerate(chosen):
                key = self.colour_of_coords(self._coords_of_point(rep))
                if table[key] is not None:
                    raise ValueError("representatives are congruent mod sub")
                table[key] = i
            self._table = table
            self._reps = chosen

    @property
    def reps(self) -> list[Vector]:
        """Colour i is the coset reps[i] + sub; reps[0] is the zero vector."""
        if self._reps is None:
            self._reps = _radix_reps(self.parent, self._rel, self.moduli, self._v)
        return self._reps

    def _coords_of_point(self, v: Sequence[Fraction]) -> tuple[int, ...]:
        coords = vec_mat(tuple(v), self._parent_inv)
        ints = []
        for x in coords:
            if x.denominator != 1:
                raise NotInParent(f"{tuple(v)} is not in the parent lattice")
            ints.append(x.numerator)
        return tuple(ints)

    def _key_of_coords(self, coords: Sequence[int]) -> tuple[int, ...]:
        """The coset of parent coordinates as an element of Z_d1 x ... (d_j > 1)."""
        return tuple(sum(map(mul, coords, col)) % modulus for col, modulus, _ in self._radix)

    def _colour_of_key(self, key: Sequence[int]) -> int:
        index = sum(k * weight for k, (_, _, weight) in zip(key, self._radix))
        return index if self._table is None else self._table[index]

    def colour_of_coords(self, coords: Sequence[int]) -> int:
        """Colour index of a point given in integer parent coordinates."""
        # _colour_of_key(_key_of_coords(coords)) inlined: this runs once per
        # point of a census or a render
        index = 0
        for col, modulus, weight in self._radix:
            index += sum(map(mul, coords, col)) % modulus * weight
        return index if self._table is None else self._table[index]

    def __repr__(self) -> str:
        return f"Colouring(m={self.m}, parent={self.parent!r}, sub={self.sub!r})"


def colour_of(colouring: Colouring, v: Sequence) -> int:
    """Colour index of an ambient point; raises NotInParent when outside."""
    vec = tuple(Fraction(x) for x in v)
    if len(vec) != colouring.parent.dim:
        raise DimensionMismatch("point dimension differs from colouring")
    return colouring.colour_of_coords(colouring._coords_of_point(vec))


def coset_meets_lattice(
    rep: Sequence, sub: Lattice, lat: Lattice
) -> Optional[Vector]:
    """A point of (rep + sub) intersected with lat, or None if empty.

    The coset meets lat exactly when rep lies in sub + lat; a witness
    falls out of expressing rep over the stacked bases.  When present
    the witness is verified against both memberships.
    """
    vec = tuple(Fraction(x) for x in rep)
    if sub.dim != lat.dim or len(vec) != sub.dim:
        raise DimensionMismatch("dimension mismatch")
    d = sub.dim
    rep_den = 1
    for x in vec:
        rep_den = lcm(rep_den, x.denominator)
    scale = lcm(lcm(sub.den, lat.den), rep_den)
    a = tuple(tuple(scale // sub.den * x for x in row) for row in sub.hnf_rows)
    b = tuple(tuple(scale // lat.den * x for x in row) for row in lat.hnf_rows)
    w = tuple((x * scale).numerator for x in vec)
    h, u, rank = _hermite(a + b)
    if rank != d:
        raise InternalInvariantViolation("stacked bases must have rank d")
    gamma = _solve_upper_triangular(tuple(tuple(r) for r in h[:d]), w)
    if gamma is None:
        return None
    # (alpha, beta) = gamma . U[:d] satisfies alpha.A + beta.B = w, so
    # rep - alpha.A/scale = beta.B/scale lies in lat and differs from
    # rep by a sub vector.
    alpha = vec_mat(gamma, u[:d])[:d]
    shift = vec_mat(alpha, a)
    witness = tuple(x - Fraction(s, scale) for x, s in zip(vec, shift))
    offset = tuple(x - y for x, y in zip(vec, witness))
    if not contains(lat, witness) or not contains(sub, offset):
        raise InternalInvariantViolation("witness failed membership verification")
    return witness
