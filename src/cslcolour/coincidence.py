"""Coincidence site lattices, index diagrams, and colour coincidences.

Everything here reduces to exact lattice algebra.  For an invertible
rational map A with |det A| = 1 and a lattice L, the coincidence site
lattice is L meet A(L); its index in L is the coincidence index.  For a
colouring of a parent lattice by the cosets of a sublattice, `analyze`
assembles the full diagram of intermediate lattices between the
sublattice, its image, the parent CSL, and the sublattice CSL, and
decides colour coincidence through a single lattice equality,
A(sub) meet csl(A) = sub meet csl(A).  A is a colour coincidence exactly
when it fixes the zero colour, i.e. maps sub meet csl(A^-1) onto
sub meet csl(A); A maps csl(A^-1) onto csl(A), so the image of
sub meet csl(A^-1) is A(sub) meet csl(A), a lattice the diagram holds.

Cost model: each lattice of the diagram is built once, seven Hermite
forms per analysis (three images and four meets) whatever the number
of colours m.  The colouring numbers the colours that csl(A^-1) and
csl(A) meet, the sets I and J, and under a colour coincidence the
permutation between them, in one more small Hermite form under a
colour coincidence and two otherwise, and none per colour (see
`cslcolour.lattice`).

Maps and lattices meet as integers: a CommensurableMap is A^T and A^-T
as (integer matrix, denominator) pairs from its construction, and
every image, meet, index and colour key of the diagram is computed on
integer rows over a denominator (see `cslcolour.lattice`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt
from typing import Optional, Sequence

from cslcolour.errors import (
    DimensionMismatch,
    InternalInvariantViolation,
    NotCoincidence,
    NotColourCoincidence,
)
# _hermite, colour_of, coset_meets_lattice, transform, rat_inverse and
# snf are not used here; the names stay bound because bench/tracing.py
# wraps every module's binding
from cslcolour.lattice import (  # noqa: F401
    Colouring,
    Lattice,
    _hermite,
    _image,
    _point_ints,
    _window_points,
    colour_of,
    coset_meets_lattice,
    index,
    intersect,
    transform,
)
from cslcolour.ratmat import (  # noqa: F401
    IntMatrix,
    RatMatrix,
    clear_denominators,
    det_rat,
    int_inverse,
    mat_mul,
    rat_inverse,
    rat_matrix,
    snf,
    transpose,
    vec_mat,
)


@dataclass(frozen=True)
class CommensurableMap:
    """Invertible rational map acting on row vectors as v -> v . A^T.

    `forward` is A^T and `backward` is A^-T, each a pair (N, q) for N / q
    over its least common denominator, so equal maps compare equal;
    `matrix` is A as Fractions, built per access.  Build through
    :func:`commensurable_map`, which validates invertibility.
    """

    forward: tuple[IntMatrix, int]
    backward: tuple[IntMatrix, int]
    det: Fraction

    @property
    def dim(self) -> int:
        return len(self.forward[0])

    @property
    def matrix(self) -> RatMatrix:
        """A, the rational view of `forward`."""
        num, q = self.forward
        return tuple(tuple(Fraction(x, q) for x in col) for col in zip(*num))

    @cached_property
    def inverse_map(self) -> "CommensurableMap":
        return CommensurableMap(forward=self.backward, backward=self.forward, det=1 / self.det)

    def apply(self, v: Sequence) -> tuple[Fraction, ...]:
        w, q = _point_ints(v, self.dim, "map")
        num, den = self.forward
        return tuple(Fraction(x, q * den) for x in vec_mat(w, num))

    def is_orthogonal(self) -> bool:
        """A^T . A = identity; meaningful for the standard embedding only."""
        num, q = self.forward
        gram = mat_mul(num, transpose(num))
        return all(x == q * q * (i == j) for i, row in enumerate(gram) for j, x in enumerate(row))


def commensurable_map(rows: Sequence[Sequence]) -> CommensurableMap:
    """Validate and wrap a square invertible rational matrix; A^T = N / q, A^-T = q . N^-1."""
    m = rat_matrix(rows)
    det = det_rat(m)
    num, q = clear_denominators(transpose(m))
    inv, den = int_inverse(num)
    g = gcd(q, den)
    backward = tuple(tuple(q // g * x for x in row) for row in inv), den // g
    return CommensurableMap(forward=(num, q), backward=backward, det=det)


def is_coincidence(lat: Lattice, amap: CommensurableMap) -> bool:
    """True iff the map intersects `lat` with finite index both ways.

    For rational maps that is exactly |det| = 1: the intersection is
    then full rank and has equal index in the lattice and its image.
    """
    if amap.dim != lat.dim:
        raise DimensionMismatch("map and lattice dimensions differ")
    return amap.det in (1, -1)


def _image_and_csl(lat: Lattice, amap: CommensurableMap) -> tuple[Lattice, Lattice]:
    """A(`lat`) and the coincidence site lattice `lat` meet A(`lat`)."""
    if not is_coincidence(lat, amap):
        raise NotCoincidence(f"|det| = {abs(amap.det)} != 1")
    image = _image(lat, *amap.forward)
    return image, intersect(lat, image)


def csl(lat: Lattice, amap: CommensurableMap) -> Lattice:
    """The coincidence site lattice: `lat` meet A(`lat`)."""
    return _image_and_csl(lat, amap)[1]


def _two_sided_index(lat: Lattice, image: Lattice, inter: Lattice) -> int:
    """[lat : inter], cross-checked against [image : inter]."""
    from_lat = index(lat, inter)
    from_image = index(image, inter)
    if from_lat != from_image:
        raise InternalInvariantViolation(
            f"two-sided index mismatch: {from_lat} vs {from_image}"
        )
    return from_lat


def sigma(lat: Lattice, amap: CommensurableMap) -> int:
    """Coincidence index [lat : csl]; cross-checked against the image side."""
    return _two_sided_index(lat, *_image_and_csl(lat, amap))


@dataclass(frozen=True)
class ColouringAnalysis:
    """Complete index diagram of one colouring under one map.

    m is the number of colours; sigma1/sigma2 the coincidence indices
    of parent and sublattice; s, t, u, v the four intermediate indices
    (s and t count the colours present in the colourings of csl1_inv
    and csl1); set_I/set_J list those colours; the permutation is
    present exactly for colour coincidences.
    """

    m: int
    sigma1: int
    sigma2: int
    s: int
    t: int
    u: int
    v: int
    csl1: Lattice
    csl1_inv: Lattice
    csl2: Lattice
    colour_coincidence: bool
    permutation: Optional[tuple[tuple[int, int], ...]]
    set_I: tuple[int, ...]
    set_J: tuple[int, ...]


def _check_analysis(a: ColouringAnalysis) -> None:
    """Every structural identity the diagram must satisfy; failures are bugs."""
    checks = [
        (a.sigma2 * a.m == a.t * a.u * a.sigma1, "index formula (t.u form)"),
        (a.sigma2 * a.m == a.s * a.v * a.sigma1, "index formula (s.v form)"),
        (a.m % a.s == 0, "s divides m"),
        (a.m % a.t == 0, "t divides m"),
        (a.s % a.u == 0, "u divides s"),
        (a.t % a.v == 0, "v divides t"),
        (a.t * a.u == a.s * a.v, "t.u = s.v"),
        (len(a.set_I) == a.s, "|I| = s"),
        (len(a.set_J) == a.t, "|J| = t"),
        ((a.s == a.t) == (a.u == a.v), "s = t iff u = v"),
        ((a.m * a.sigma2) % a.sigma1 == 0, "sigma1 divides m.sigma2"),
        ((a.m * a.sigma1) % a.sigma2 == 0, "sigma2 divides m.sigma1"),
        (a.set_I[0] == 0 and a.set_J[0] == 0, "colour 0 appears on both sides"),
        (
            (a.permutation is not None) == a.colour_coincidence,
            "permutation present iff colour coincidence",
        ),
    ]
    if a.colour_coincidence:
        checks.append((a.sigma1 % a.sigma2 == 0, "sigma2 divides sigma1"))
    if a.s == a.t == a.m:
        checks.append(
            (
                a.colour_coincidence == (a.sigma1 == a.sigma2),
                "full-colour case: coincidence iff equal indices",
            )
        )
    if a.permutation is not None:
        sources, images = zip(*a.permutation)
        checks += [
            (sources == a.set_I, "permutation domain is I"),
            (sorted(images) == list(a.set_J), "permutation image is J"),
            (dict(a.permutation).get(0) == 0, "permutation fixes colour 0"),
        ]
    for ok, label in checks:
        if not ok:
            raise InternalInvariantViolation(f"analysis invariant failed: {label}")


def analyze(colouring: Colouring, amap: CommensurableMap) -> ColouringAnalysis:
    """Compute the complete index diagram for one colouring and one map.

    Each lattice of the diagram is built once, in 7 Hermite forms.  I
    and J are the colours that csl1_inv and csl1 meet; under a colour
    coincidence A carries each colour of csl1_inv to one colour of
    csl1, and the colouring reads I, J and that permutation off the
    images of csl1_inv's basis rows (`Colouring._colours_met`).  All
    reported numbers come from pure lattice algebra; every identity
    that must relate them is verified before returning.
    """
    parent = colouring.parent
    sub = colouring.sub
    image_parent, csl1 = _image_and_csl(parent, amap)
    csl1_inv = _image(csl1, *amap.backward)
    image_sub, csl2 = _image_and_csl(sub, amap)
    sub_in_csl = intersect(sub, csl1)
    image_sub_in_csl = intersect(image_sub, csl1)
    # A(sub meet csl1_inv) = A(sub) meet A(csl1_inv) = A(sub) meet csl1
    cc = image_sub_in_csl == sub_in_csl

    perm = None
    if cc:
        sources, images = colouring._colours_met(csl1_inv, amap.forward)
        perm = tuple(zip(sources, images))
        set_i = tuple(sources)
        set_j = tuple(sorted(images))
    else:
        set_i = tuple(colouring._colours_met(csl1_inv)[0])
        set_j = tuple(colouring._colours_met(csl1)[0])
    analysis = ColouringAnalysis(
        m=colouring.m,
        sigma1=_two_sided_index(parent, image_parent, csl1),
        sigma2=_two_sided_index(sub, image_sub, csl2),
        s=index(csl1, image_sub_in_csl),
        t=index(csl1, sub_in_csl),
        u=index(sub_in_csl, csl2),
        v=index(image_sub_in_csl, csl2),
        csl1=csl1,
        csl1_inv=csl1_inv,
        csl2=csl2,
        colour_coincidence=cc,
        permutation=perm,
        set_I=set_i,
        set_J=set_j,
    )
    _check_analysis(analysis)
    return analysis


def is_colour_coincidence(colouring: Colouring, amap: CommensurableMap) -> bool:
    """Decide colour coincidence by the zero-colour-fixing criterion.

    The map is a colour coincidence exactly when it carries the zero
    colour of csl1_inv, sub meet csl(parent, A^-1), onto the zero colour
    of csl1, sub meet csl(parent, A).  A maps csl1_inv onto csl1, so the
    left side is A(sub) meet csl1, and the criterion is the single
    lattice equality A(sub) meet csl1 = sub meet csl1.  It is equivalent
    to the partition-bijection definition, and the window census
    cross-checks the equivalence.
    """
    return analyze(colouring, amap).colour_coincidence


def colour_permutation(
    colouring: Colouring, amap: CommensurableMap
) -> tuple[tuple[int, int], ...]:
    """The colour bijection induced by a colour coincidence.

    Pairs (i, j) in order of i: colour i of csl1_inv maps to colour j of
    csl1.  Raises NotColourCoincidence when the map is not one.
    """
    perm = analyze(colouring, amap).permutation
    if perm is None:
        raise NotColourCoincidence("map does not fix the zero colour")
    return perm


def enumerate_square_rotations(max_den: int) -> list[CommensurableMap]:
    """Deterministic duplicate-free corpus of rational rotations of Z^2.

    Emits (1/n).[[a, -b], [b, a]] for the coprime pairs (a, b) with
    a^2 + b^2 = n^2, by n = 1..max_den and then by (-a, -b).
    Coprimality makes every (a, b, n) triple primitive, so no rotation
    repeats.  For n > 1 the legs {|a|, |b|} are {p^2 - q^2, 2pq} with
    n = p^2 + q^2 for exactly one pair p > q > 0 that is coprime and of
    opposite parity (Euclid), so the work is proportional to the output.
    """
    pairs: dict[int, list[tuple[int, int]]] = {}
    if max_den >= 1:
        pairs[1] = [(1, 0), (0, 1), (0, -1), (-1, 0)]
    p = 2
    while p * p + 1 <= max_den:
        for q in range(1 + p % 2, min(p, isqrt(max_den - p * p) + 1), 2):
            if gcd(p, q) == 1:
                legs = ((p * p - q * q, 2 * p * q), (2 * p * q, p * p - q * q))
                pairs.setdefault(p * p + q * q, []).extend(
                    (sa * a, sb * b) for a, b in legs for sa in (1, -1) for sb in (1, -1)
                )
        p += 1
    maps = []
    for n in sorted(pairs):
        for a, b in sorted(pairs[n], reverse=True):
            # A = ((a, -b), (b, a)) / n has det 1 and A^-T = A, both in
            # lowest terms: gcd(a, n) = gcd(b, n) = 1 for n > 1
            forward, backward = (((a, b), (-b, a)), n), (((a, -b), (b, a)), n)
            maps.append(CommensurableMap(forward, backward, det=Fraction(1)))
    return maps


def window_census(
    colouring: Colouring, amap: CommensurableMap, radius: int
) -> dict:
    """Brute-force window survey, the independent oracle for `analyze`.

    Over the parent points with integer basis coordinates in
    [-radius, radius]^d, records the colours of the points of csl1 and
    of csl1_inv, and for csl1_inv points the colour of the image.  The
    CSLs are built the other way from `analyze`: csl1_inv as
    csl(parent, A^-1), csl1 as its image, 3 Hermite forms.  Only their
    points are visited (`lattice._window_points`).  Pure integer
    arithmetic end to end.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    parent = colouring.parent
    csl1_inv = csl(parent, amap.inverse_map)
    fwd = _window_points(parent, _image(csl1_inv, *amap.forward), radius)
    inv = _window_points(parent, csl1_inv, radius)
    colour_at = colouring.colour_of_coords
    # the map in parent coordinates: x -> x . T with T = H . A^T . H^-1,
    # H the parent's integer Hermite basis (its den cancels)
    a_num, a_den = amap.forward
    h_inv, h_den = int_inverse(parent.hnf_rows)
    t_num = mat_mul(mat_mul(parent.hnf_rows, a_num), h_inv)
    t_den = a_den * h_den
    transfer: dict[int, set[int]] = {}
    for coords in inv:
        image = []
        for val in vec_mat(coords, t_num):
            q, r = divmod(val, t_den)
            if r:
                raise InternalInvariantViolation(
                    "image of a csl-inv point left the parent lattice"
                )
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


def census_contradictions(analysis: ColouringAnalysis, census: dict) -> list[str]:
    """Ways the window census can disprove the lattice-algebra analysis.

    A finite window can only see a subset of each colour set and of the
    transfer relation, so the checks are one-sided: observed colours
    must be among the predicted ones, and under a colour coincidence
    every observed image colour must match the permutation.
    """
    problems = []
    extra_i = set(census["observed_I"]) - set(analysis.set_I)
    if extra_i:
        problems.append(f"colours {sorted(extra_i)} observed in csl1_inv but not predicted")
    extra_j = set(census["observed_J"]) - set(analysis.set_J)
    if extra_j:
        problems.append(f"colours {sorted(extra_j)} observed in csl1 but not predicted")
    if analysis.colour_coincidence:
        perm = dict(analysis.permutation)
        for i, js in census["transfer"]:
            # a colour outside I is already reported above
            if i in perm and js != [perm[i]]:
                problems.append(
                    f"colour {i} observed mapping to {js}, permutation says {perm[i]}"
                )
    return problems
