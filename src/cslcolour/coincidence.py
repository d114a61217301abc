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
of colours m.  The colour sets I and J are the images of csl(A^-1) and
csl(A) in the finite group parent/sub = Z_n1 x ... x Z_nk, of orders s
and t, each the subgroup generated by the keys of d basis rows.  A
subgroup is walked over the triangular basis of one small Hermite form,
(d + k) x k, and comes out as ranges of colour numbers in increasing
order (`_walk`).  Under a colour coincidence one walk of the
permutation's graph, a subgroup of (parent/sub)^2 with a (d + 2k) x 2k
form, gives I, J and the permutation together; otherwise I and J take
a walk each.  So an analysis takes 7 + 1 or 7 + 2 Hermite forms, and
none per colour.

Maps and lattices meet as integers: a CommensurableMap carries A^T and
A^-T as (integer matrix, denominator) pairs, built once per map, and
every image, meet, index and colour key of the diagram is computed on
integer rows over a denominator (see `cslcolour.lattice`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, prod
from typing import Optional, Sequence

from cslcolour.errors import (
    DimensionMismatch,
    InternalInvariantViolation,
    NotCoincidence,
    NotColourCoincidence,
)
# colour_of, coset_meets_lattice, transform and snf are not used here;
# the names stay bound because bench/tracing.py wraps every module's
# binding
from cslcolour.lattice import (  # noqa: F401
    Colouring,
    Lattice,
    _hermite,
    _image,
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
    identity,
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

    Carries its exact inverse and determinant.  Build through
    :func:`commensurable_map`, which validates invertibility.  The
    integer forms of A^T and A^-T, which the lattice algebra uses, are
    built on first use and kept.
    """

    matrix: RatMatrix
    inverse: RatMatrix
    det: Fraction

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @cached_property
    def inverse_map(self) -> "CommensurableMap":
        return CommensurableMap(
            matrix=self.inverse, inverse=self.matrix, det=1 / self.det
        )

    @cached_property
    def _forward_ints(self) -> tuple[IntMatrix, int]:
        """A^T as (N, q) with A^T = N / q: v -> v . A^T on integer rows."""
        return clear_denominators(transpose(self.matrix))

    @cached_property
    def _backward_ints(self) -> tuple[IntMatrix, int]:
        """A^-T as (N, q), the same form for the inverse map."""
        return clear_denominators(transpose(self.inverse))

    def apply(self, v: Sequence) -> tuple[Fraction, ...]:
        vec = tuple(Fraction(x) for x in v)
        if len(vec) != self.dim:
            raise DimensionMismatch("point dimension differs from map")
        return vec_mat(vec, transpose(self.matrix))

    def is_orthogonal(self) -> bool:
        """A^T . A = identity; meaningful for the standard embedding only."""
        return mat_mul(transpose(self.matrix), self.matrix) == rat_matrix(
            identity(self.dim)
        )


def commensurable_map(rows: Sequence[Sequence]) -> CommensurableMap:
    """Validate and wrap a square invertible rational matrix."""
    m = rat_matrix(rows)
    det = det_rat(m)
    inv = rat_inverse(m)
    return CommensurableMap(matrix=m, inverse=inv, det=det)


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
    image = _image(lat, *amap._forward_ints)
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


def _walk(
    gens: Sequence[Sequence[int]], moduli: tuple[int, ...], graph: bool = False
) -> tuple[list[int], list[int]]:
    """Colours of the subgroup of Z_n1 x ... x Z_nk generated by `gens`.

    The subgroup is the lattice span(gens) + diag(n).Z^k read modulo n:
    its elements are that lattice's points in the box prod [0, n_j),
    and an element's colour is its mixed-radix index, first digit most
    significant, as `Colouring` numbers its keys.  The lattice's Hermite
    form is upper triangular with pivots p_j that divide n_j, so once
    digits 0..j-1 are fixed, digit j runs over acc_j mod p_j + p_j.N
    below n_j, acc being the sum of the chosen rows reduced mod n.  The
    last digit has weight 1, so each prefix adds the colours from
    base + acc mod p to base + n in steps of p as one range: the colours
    come out in increasing order, in Python steps proportional to the
    number of prefixes, not of elements.

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
    # (colour of the fixed digits, accumulator) for each prefix
    prefixes = [(0, (0,) * width)]
    for j in range(k - 1):
        row, p, n, w = h[j], h[j][j], moduli[j], weights[j]
        longer = []
        for base, acc in prefixes:
            first = -(acc[j] // p)
            for c in range(first, first + n // p):
                x = tuple((a + c * r) % q for a, r, q in zip(acc, row, mods))
                longer.append((base + x[j] * w, x))
        prefixes = longer
    row, p, n = h[k - 1], h[k - 1][k - 1], moduli[-1]
    colours: list[int] = []
    images: list[int] = []
    for base, acc in prefixes:
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


def analyze(colouring: Colouring, amap: CommensurableMap) -> ColouringAnalysis:
    """Compute the complete index diagram for one colouring and one map.

    Each lattice of the diagram is built once, in 7 Hermite forms.  The
    colour sets are the images of csl1 and csl1_inv in parent/sub, the
    subgroups generated by the keys of their basis rows, each walked
    through one (d + k) x k Hermite form (`_walk`).  Under a colour
    coincidence the pairs (colour of x, colour of A.x) over csl1_inv
    form a subgroup of (parent/sub)^2, generated by the pairs of the
    basis rows, and that subgroup is the permutation's graph: one walk
    of its (d + 2k) x 2k form gives I, J and the permutation.  Basis
    rows are read as integer rows over each lattice's den.  All reported
    numbers come from pure lattice algebra; every identity that must
    relate them is verified before returning.
    """
    parent = colouring.parent
    sub = colouring.sub
    image_parent, csl1 = _image_and_csl(parent, amap)
    csl1_inv = _image(csl1, *amap._backward_ints)
    image_sub, csl2 = _image_and_csl(sub, amap)
    sub_in_csl = intersect(sub, csl1)
    image_sub_in_csl = intersect(image_sub, csl1)
    # A(sub meet csl1_inv) = A(sub) meet A(csl1_inv) = A(sub) meet csl1
    cc = image_sub_in_csl == sub_in_csl

    key = colouring._key_of_coords
    coords = colouring._coords_of_ints
    moduli = colouring._key_moduli
    # custom reps renumber the mixed-radix indices through a table
    table = colouring._table
    rename = (lambda cs: cs) if table is None else (lambda cs: [table[c] for c in cs])
    inv_keys = [key(coords(b, csl1_inv.den)) for b in csl1_inv.hnf_rows]
    perm = None
    if cc:
        # A.b = b . A^T: the rows hnf_rows . N over den . q
        num, den = amap._forward_ints
        image_keys = [
            key(coords(b, csl1_inv.den * den)) for b in mat_mul(csl1_inv.hnf_rows, num)
        ]
        sources, images = _walk(
            [x + y for x, y in zip(inv_keys, image_keys)], moduli, graph=True
        )
        sources, images = rename(sources), rename(images)
        if table is not None:
            # the walk lists the sources by index, not by their table colours
            sources, images = zip(*sorted(zip(sources, images)))
        perm = tuple(zip(sources, images))
        set_i = tuple(sources)
        set_j = tuple(sorted(images))
    else:
        fwd_keys = [key(coords(b, csl1.den)) for b in csl1.hnf_rows]
        set_i = tuple(sorted(rename(_walk(inv_keys, moduli)[0])))
        set_j = tuple(sorted(rename(_walk(fwd_keys, moduli)[0])))
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
            maps.append(
                commensurable_map(
                    [[Fraction(a, n), Fraction(-b, n)], [Fraction(b, n), Fraction(a, n)]]
                )
            )
    return maps


def window_census(
    colouring: Colouring, amap: CommensurableMap, radius: int
) -> dict:
    """Brute-force window survey, the independent oracle for `analyze`.

    Over the parent points with integer basis coordinates in
    [-radius, radius]^d, records the colours of the points of csl1 and
    of csl1_inv, and for csl1_inv points the colour of the image.  Both
    CSLs are built here from the map, csl1_inv as csl(parent, A^-1)
    rather than the image of csl1 that `analyze` uses, and only their
    points are visited (`lattice._window_points`).  Pure integer
    arithmetic end to end.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    parent = colouring.parent
    fwd = _window_points(parent, csl(parent, amap), radius)
    inv = _window_points(parent, csl(parent, amap.inverse_map), radius)
    colour_at = colouring.colour_of_coords
    # the map in parent coordinates: x -> x . T with T = H . A^T . H^-1,
    # H the parent's integer Hermite basis (its den cancels)
    a_num, a_den = amap._forward_ints
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
            if js != [perm[i]]:
                problems.append(
                    f"colour {i} observed mapping to {js}, permutation says {perm[i]}"
                )
    return problems
