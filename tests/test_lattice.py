"""Lattice algebra tests: canonical form, membership, meet/join, cosets.

Brute-force oracles (Cramer membership, exhaustive searches) are local
to this file or in conftest (membership, sublattices and sums in
Fractions) and independent of the code under test.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cslcolour.lattice as lattice_module
from cslcolour.coincidence import commensurable_map, is_coincidence
from cslcolour.errors import (
    CslcolourError,
    DimensionMismatch,
    NotASublattice,
    NotInParent,
    RankDeficient,
)
from cslcolour.lattice import (
    Colouring,
    Lattice,
    colour_of,
    coset_meets_lattice,
    coset_reps,
    index,
    intersect,
    lattice_new,
    standard_lattice,
    transform,
)
from cslcolour.ratmat import _hermite, mat_mul, snf, vec_mat
from conftest import apply, contains, is_sublattice, lattice_sum, ref_det, ref_solve

Z2 = standard_lattice(2)
EX1_SUB = lattice_new([[6, 0], [2, 1]])
ROT = [["4/5", "-3/5"], ["3/5", "4/5"]]
ROT_INV = [["4/5", "3/5"], ["-3/5", "4/5"]]


def oracle_in_span2(basis, p):
    """Membership in the row span of a rational 2x2 basis, by Cramer."""
    b = [[Fraction(x) for x in row] for row in basis]
    det = b[0][0] * b[1][1] - b[0][1] * b[1][0]
    assert det != 0
    a = (Fraction(p[0]) * b[1][1] - b[1][0] * Fraction(p[1])) / det
    c = (b[0][0] * Fraction(p[1]) - b[0][1] * Fraction(p[0])) / det
    return a.denominator == 1 and c.denominator == 1


small_bases = (
    st.lists(
        st.lists(st.integers(-4, 4), min_size=2, max_size=2),
        min_size=2, max_size=2,
    ).filter(lambda m: ref_det(m) != 0)
)


# ---------------------------------------------------------------------------
# construction and canonical form


def test_lattice_new_canonicalizes_worked_example():
    assert EX1_SUB.basis == ((Fraction(2), Fraction(1)), (Fraction(0), Fraction(3)))
    assert abs(ref_det(EX1_SUB.basis)) == 6


def test_lattice_new_examples():
    assert abs(ref_det(Z2.basis)) == 1
    assert abs(ref_det(lattice_new([[3, 0], [0, 1]]).basis)) == 3


def test_lattice_new_rejects_dependent_rows():
    with pytest.raises(RankDeficient):
        lattice_new([[1, 2], [2, 4]])
    with pytest.raises(RankDeficient, match="square"):
        lattice_new([[1, 0, 0], [0, 1, 0]])


def test_equality_is_basis_independent():
    alt = lattice_new([[2, 1], [2, 4]])  # row ops of the example basis
    assert alt == EX1_SUB
    assert hash(alt) == hash(EX1_SUB)
    assert lattice_new([[2, 1], [0, 3]]) == EX1_SUB


def test_denominator_is_minimal():
    half = lattice_new([["1/2", "0"], ["0", "1/2"]])
    assert half.den == 2
    # a basis whose entries have mixed denominators still stores den = lcm
    skew = lattice_new([["1/2", "1/3"], ["0", "1/3"]])
    assert skew.den == 6
    assert contains(skew, ("1/2", "1/3"))


def test_scaled_lattice_not_equal():
    assert lattice_new([[2, 0], [0, 2]]) != Z2


# ---------------------------------------------------------------------------
# membership


def test_contains_examples():
    assert contains(Z2, (7, -2))
    assert not contains(EX1_SUB, (1, 0))
    assert contains(EX1_SUB, (4, 2))


def test_contains_dimension_check():
    with pytest.raises(DimensionMismatch):
        contains(Z2, (1, 2, 3))


Z3 = standard_lattice(3)
# each operation on two operands, given a plane and a space
MIXED_DIMENSIONS = {
    "is_sublattice": lambda: is_sublattice(Z2, Z3),
    "index": lambda: index(Z3, Z2),
    "intersect": lambda: intersect(Z2, Z3),
    "transform": lambda: transform(Z2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    "is_coincidence": lambda: is_coincidence(Z3, commensurable_map(ROT)),
}


@pytest.mark.parametrize("name", MIXED_DIMENSIONS)
def test_operations_refuse_mixed_dimensions(name):
    with pytest.raises(DimensionMismatch):
        MIXED_DIMENSIONS[name]()


@settings(max_examples=60)
@given(small_bases)
def test_contains_agrees_with_cramer_oracle(basis):
    lat = lattice_new(basis)
    for p in product(range(-6, 7), repeat=2):
        assert contains(lat, p) == oracle_in_span2(basis, p)


def test_contains_rational_points():
    half = lattice_new([["1/2", "0"], ["0", "1"]])
    assert contains(half, ("3/2", "4"))
    assert not contains(half, ("1/3", "0"))


# ---------------------------------------------------------------------------
# sublattice and index


def test_is_sublattice_cases():
    assert is_sublattice(EX1_SUB, Z2)
    assert not is_sublattice(Z2, EX1_SUB)
    assert is_sublattice(EX1_SUB, EX1_SUB)


def test_index_cases():
    assert index(Z2, EX1_SUB) == 6
    assert index(EX1_SUB, EX1_SUB) == 1
    assert index(Z2, lattice_new([[2, 0], [0, 2]])) == 4


def test_index_requires_containment():
    with pytest.raises(NotASublattice):
        index(EX1_SUB, Z2)


# a = 10^3999 + 1, c = 10^3999, d = 10^4000 - 1: each entry of FAR_SUB
# is within Python's int-to-str limit of 4300 digits, a.d is not
A, C, D = 10**3999 + 1, 10**3999, 10**4000 - 1
FAR_SUB = lattice_new([[A, Fraction(1, 2)], [C, D]])
# calls whose error message would hold a.d, or an entry of FAR_SUB's Hermite form
OVER_THE_DIGIT_LIMIT = {
    "Colouring": (lambda: Colouring(Z2, FAR_SUB), NotASublattice),
    "index": (lambda: index(Z2, FAR_SUB), NotASublattice),
    "colour_of": (
        lambda: colour_of(Colouring(Z2, lattice_new([[2, 0], [0, 1]])), [Fraction(A * D, 2), 0]),
        NotInParent,
    ),
}


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python writes ints of any length"
)
@pytest.mark.parametrize("name", OVER_THE_DIGIT_LIMIT)
def test_an_error_message_converts_no_unbounded_number(name):
    call, error = OVER_THE_DIGIT_LIMIT[name]
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default
    try:
        with pytest.raises(error) as info:
            call()
    finally:
        sys.set_int_max_str_digits(saved)
    assert len(str(info.value)) < 200


# a lattice and a colouring of FAR_SUB's, whose reprs would hold
# entries over the digit limit; a small one is written in full
FAR_REPRS = {
    "Lattice": (
        lambda: Z2,
        "Lattice[(1, 0), (0, 1)]",
        lambda: FAR_SUB,
    ),
    "Colouring": (
        lambda: Colouring(lattice_new([["1/2", 0], [0, 1]]), lattice_new([[3, 0], [0, 1]])),
        "Colouring(m=6, parent=Lattice[(1/2, 0), (0, 1)], sub=Lattice[(3, 0), (0, 1)])",
        lambda: Colouring(FAR_SUB, lattice_new([[2 * x for x in row] for row in FAR_SUB.basis])),
    ),
}


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python writes ints of any length"
)
@pytest.mark.parametrize("name", FAR_REPRS)
def test_a_repr_converts_no_unbounded_number(name):
    small, text, far = FAR_REPRS[name]
    assert repr(small()) == text
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default
    try:
        written = repr(far())
    finally:
        sys.set_int_max_str_digits(saved)
    assert len(written) < 200 and "about 10^" in written


# ---------------------------------------------------------------------------
# intersection and sum


def test_intersect_self():
    assert intersect(EX1_SUB, EX1_SUB) == EX1_SUB


def test_intersect_rotated_square_lattice():
    rotated = transform(Z2, ROT)
    inter = intersect(Z2, rotated)
    assert index(Z2, inter) == 5
    assert is_sublattice(inter, Z2)
    assert is_sublattice(inter, rotated)


def test_intersect_coprime_scalings():
    two = lattice_new([[2, 0], [0, 2]])
    three = lattice_new([[3, 0], [0, 3]])
    assert intersect(two, three) == lattice_new([[6, 0], [0, 6]])


def test_sum_examples():
    assert lattice_sum(EX1_SUB, EX1_SUB) == EX1_SUB
    two = lattice_new([[2, 0], [0, 2]])
    three = lattice_new([[3, 0], [0, 3]])
    assert lattice_sum(two, three) == Z2


def test_sum_multiplicativity_through_tower():
    csl1 = intersect(Z2, transform(Z2, ROT))
    joined = lattice_sum(EX1_SUB, csl1)
    assert index(Z2, joined) * index(joined, EX1_SUB) == 6


def test_meet_sum_and_witness_take_one_hermite_form_each(monkeypatch):
    calls = []
    original = lattice_module._hermite

    def counting(m):
        calls.append(len(m))
        return original(m)

    monkeypatch.setattr(lattice_module, "_hermite", counting)
    rotated = transform(Z2, ROT)
    for op in (
        lambda: intersect(EX1_SUB, rotated),
        lambda: coset_meets_lattice((1, 0), EX1_SUB, rotated),
        lambda: coset_meets_lattice(("1/2", 0), EX1_SUB, rotated),
    ):
        calls.clear()
        op()
        # the left half is made triangular without _hermite, and the meet
        # block is one d x d form
        assert calls == [2]


@settings(max_examples=50)
@given(small_bases, small_bases)
def test_meet_join_are_lattice_bounds(b1, b2):
    l1 = lattice_new(b1)
    l2 = lattice_new(b2)
    meet = intersect(l1, l2)
    join = lattice_sum(l1, l2)
    assert is_sublattice(meet, l1) and is_sublattice(meet, l2)
    assert is_sublattice(l1, join) and is_sublattice(l2, join)


@settings(max_examples=50)
@given(small_bases, small_bases)
def test_second_isomorphism_index_identity(b1, b2):
    l1 = lattice_new(b1)
    l2 = lattice_new(b2)
    assert index(lattice_sum(l1, l2), l2) == index(l1, intersect(l1, l2))


@settings(max_examples=40)
@given(small_bases, small_bases, small_bases)
def test_index_multiplicativity(b1, c2, c3):
    l1 = lattice_new(b1)
    l2 = lattice_new(mat_mul(c2, l1.basis))
    l3 = lattice_new(mat_mul(c3, l2.basis))
    assert index(l1, l3) == index(l1, l2) * index(l2, l3)


# ---------------------------------------------------------------------------
# the integer kernel against a plain-Fraction reference, d = 2, 3, 4
#
# The reference solves x . B = v by Gaussian elimination over Fraction
# (`conftest.ref_solve`) and compares lattices by mutual containment of
# their rows; nothing below it calls the package.


def ref_mat_mul(a, b):
    return [[sum(Fraction(x) * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def ref_contains(basis, v):
    return all(x.denominator == 1 for x in ref_solve(basis, v))


def ref_inside(rows, basis):
    return all(ref_contains(basis, row) for row in rows)


def ref_same(rows, basis):
    return ref_inside(rows, basis) and ref_inside(basis, rows)


def primes_of(n):
    n, p, out = abs(n), 2, []
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def rank_mod(rows, p):
    work = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(work[0])):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, p)
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col] * inv
                work[r] = [(a - f * b) % p for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def ref_is_meet(rows, b1, b2):
    """The rows span exactly the intersection of the spans of b1 and b2.

    With R the span of the rows inside both, R is the whole meet I unless
    I/R has an element of prime order p: some r/p, r in R but not in pR,
    inside both lattices.  Over b1 and b2 the rows are integer matrices
    M1 and M2, and such an r is a nonzero c mod p with c.M1 = c.M2 = 0
    mod p.  So [M1 | M2] must have full rank mod each prime p dividing
    [b1 : R] = |det M1|, which |I/R| divides.
    """
    m1 = [ref_solve(b1, r) for r in rows]
    m2 = [ref_solve(b2, r) for r in rows]
    if any(x.denominator != 1 for row in m1 + m2 for x in row):
        return False
    stacked = [[int(x) for x in r1 + r2] for r1, r2 in zip(m1, m2)]
    return all(rank_mod(stacked, p) == len(rows) for p in primes_of(int(ref_det(m1))))


def assert_minimal_den(lat):
    """den.L is integral and no proper divisor of den makes it so."""
    entries = [x for row in lat.basis for x in row]
    assert all((x * lat.den).denominator == 1 for x in entries)
    for p in primes_of(lat.den):
        assert any((x * (lat.den // p)).denominator != 1 for x in entries)


def rational_matrices(d):
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 12))
    row = st.lists(entry, min_size=d, max_size=d)
    return st.lists(row, min_size=d, max_size=d).filter(lambda m: ref_det(m) != 0)


def integer_matrices(d):
    row = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    return st.lists(row, min_size=d, max_size=d).filter(lambda m: ref_det(m) != 0)


dims = st.sampled_from([2, 3, 4])


@settings(max_examples=60, deadline=None)
@given(dims.flatmap(lambda d: st.tuples(rational_matrices(d), rational_matrices(d))))
def test_kernel_transform_against_reference(pair):
    basis, amap = pair
    lat = lattice_new(basis)
    assert ref_same(lat.basis, basis)
    assert_minimal_den(lat)
    image = transform(lat, amap)
    rows = ref_mat_mul(basis, list(zip(*amap)))  # basis . A^T
    assert ref_same(image.basis, rows)
    assert_minimal_den(image)
    assert image == lattice_new(rows)


@settings(max_examples=60, deadline=None)
@given(dims.flatmap(lambda d: st.tuples(rational_matrices(d), rational_matrices(d))))
def test_kernel_intersect_against_reference(pair):
    b1, b2 = pair
    meet = intersect(lattice_new(b1), lattice_new(b2))
    assert ref_is_meet(meet.basis, b1, b2)
    assert_minimal_den(meet)
    assert meet == intersect(lattice_new(b2), lattice_new(b1))


def ref_covolume(rows):
    """Covolume of the span of rational rows of rank d: the gcd of their d x d minors.

    The gcd of a/b and c/e in Q is gcd(a.e, c.b) / (b.e).
    """
    d = len(rows[0])
    g = Fraction(0)
    for chosen in combinations(rows, d):
        minor = abs(ref_det(chosen))
        g = Fraction(gcd(g.numerator * minor.denominator, minor.numerator * g.denominator),
                     g.denominator * minor.denominator)
    return g


@settings(max_examples=60, deadline=None)
@given(dims.flatmap(lambda d: st.tuples(rational_matrices(d), rational_matrices(d))))
def test_kernel_sum_against_reference(pair):
    b1, b2 = pair
    join = lattice_sum(lattice_new(b1), lattice_new(b2))
    # the sum contains both inputs and has the covolume of their union
    assert ref_inside(b1, join.basis) and ref_inside(b2, join.basis)
    assert abs(ref_det(join.basis)) == ref_covolume(b1 + b2)
    assert_minimal_den(join)
    assert join == lattice_sum(lattice_new(b2), lattice_new(b1))


@settings(max_examples=60, deadline=None)
@given(
    dims.flatmap(
        lambda d: st.tuples(
            rational_matrices(d),
            rational_matrices(d),
            st.lists(
                st.lists(st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3])),
                         min_size=2 * d, max_size=2 * d),
                min_size=1, max_size=4,
            ),
        )
    )
)
def test_kernel_coset_meets_lattice_against_reference(triple):
    b_sub, b_lat, coefficient_rows = triple
    sub, lat = lattice_new(b_sub), lattice_new(b_lat)
    covolume = ref_covolume(b_sub + b_lat)
    for x in coefficient_rows:
        rep = ref_mat_mul([x], b_sub + b_lat)[0]
        # rep meets sub + lat exactly when appending it keeps the covolume
        meets = ref_covolume(b_sub + b_lat + [rep]) == covolume
        witness = coset_meets_lattice(rep, sub, lat)
        assert (witness is not None) == meets
        if meets:
            assert ref_contains(b_lat, witness)
            assert ref_contains(b_sub, [w - r for w, r in zip(witness, rep)])
            # the coset's one point in the Hermite box of sub meet lat,
            # the same from another rep of the coset
            meet = intersect(sub, lat)
            assert all(0 <= x < Fraction(row[j], meet.den)
                       for j, (x, row) in enumerate(zip(witness, meet.hnf_rows)))
            moved = [r + a - b for r, a, b in zip(rep, b_sub[0], b_sub[-1])]
            assert coset_meets_lattice(moved, sub, lat) == witness


@settings(max_examples=60, deadline=None)
@given(
    dims.flatmap(
        lambda d: st.tuples(rational_matrices(d), integer_matrices(d), rational_matrices(d))
    )
)
def test_kernel_index_and_sublattice_against_reference(triple):
    basis, coeffs, other = triple
    lat = lattice_new(basis)
    sub = lattice_new(ref_mat_mul(coeffs, basis))
    assert is_sublattice(sub, lat)
    assert index(lat, sub) == abs(ref_det(coeffs)) == abs(ref_det(sub.basis) / ref_det(basis))
    assert_minimal_den(sub)
    foreign = lattice_new(other)
    assert is_sublattice(foreign, lat) == ref_inside(other, basis)
    if ref_inside(other, basis):
        assert index(lat, foreign) == abs(ref_det(other) / ref_det(basis))
    else:
        with pytest.raises(NotASublattice):
            index(lat, foreign)


@settings(max_examples=60, deadline=None)
@given(
    dims.flatmap(
        lambda d: st.tuples(
            rational_matrices(d),
            st.lists(
                st.lists(st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3])),
                         min_size=d, max_size=d),
                min_size=1, max_size=6,
            ),
        )
    )
)
def test_kernel_contains_against_reference(pair):
    basis, coefficient_rows = pair
    lat = lattice_new(basis)
    for x in coefficient_rows:
        point = ref_mat_mul([x], basis)[0]
        expected = all(c.denominator == 1 for c in x)
        assert ref_contains(basis, point) == expected
        assert contains(lat, point) == expected


# ---------------------------------------------------------------------------
# transform


def test_transform_identity():
    assert transform(EX1_SUB, [[1, 0], [0, 1]]) == EX1_SUB


def test_transform_rotation_image():
    rotated = transform(Z2, ROT)
    assert abs(ref_det(rotated.basis)) == 1
    assert rotated != Z2
    assert not contains(rotated, (1, 0))
    assert contains(rotated, ("4/5", "3/5"))


def test_transform_scaling():
    assert transform(Z2, [[2, 0], [0, 2]]) == lattice_new([[2, 0], [0, 2]])


def test_transform_row_convention():
    # v -> v . A^T means the image of (1, 0) is the first column of A
    img = transform(Z2, [[1, 2], [0, 3]])
    assert contains(img, (1, 0))
    assert contains(img, (2, 3))
    assert not contains(img, (1, 2))  # the first-row image would be this instead


# ---------------------------------------------------------------------------
# cosets and colours


def test_coset_reps_worked_example():
    reps = coset_reps(Z2, EX1_SUB)
    assert len(reps) == 6
    assert reps[0] == (0, 0)
    # the reps biject with {(i, 0)} mod the sublattice
    colouring = Colouring(Z2, EX1_SUB)
    seen = {colour_of(colouring, (i, 0)) for i in range(6)}
    assert seen == set(range(6))


def test_coset_reps_trivial_and_square():
    assert coset_reps(EX1_SUB, EX1_SUB) == [(0, 0)]
    reps = coset_reps(Z2, lattice_new([[2, 0], [0, 2]]))
    assert len(reps) == 4
    assert sorted(tuple(int(x) % 2 for x in r) for r in reps) == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]


def test_coset_reps_deterministic():
    assert coset_reps(Z2, EX1_SUB) == coset_reps(Z2, EX1_SUB)


def test_coset_reps_classify_to_distinct_colours():
    for sub in [EX1_SUB, lattice_new([[3, 0], [0, 1]]), lattice_new([[4, 1], [0, 3]])]:
        colouring = Colouring(Z2, sub)
        m = colouring.m
        assert sorted(colour_of(colouring, rep) for rep in colouring.reps) == list(range(m))


def radix_reps_one_colour_at_a_time(colouring):
    """The default rows by one colour and one product per box point.

    The reference for `lattice._radix_reps`, which builds the same rows
    as lists over the whole box.  Each colour is the mixed-radix index
    of the key (c . V_j) mod d_j, read off a Smith form of the relative
    basis here, and `colour_of_coords` must agree with it.
    """
    d, v = snf(colouring._rel)
    factors = [(d[j][j], [row[j] for row in v]) for j in range(len(d))]
    rows = [None] * colouring.m
    for coords in product(*(range(row[j]) for j, row in enumerate(colouring._rel))):
        colour = 0
        for n, column in factors:
            colour = colour * n + sum(c * x for c, x in zip(coords, column)) % n
        assert colour == colouring.colour_of_coords(coords)
        assert rows[colour] is None, "two points of the Hermite box share a coset"
        rows[colour] = vec_mat(coords, colouring.parent.hnf_rows)
    return tuple(rows)


@st.composite
def rational_parents_and_subs(draw):
    """A parent of den up to 6 in d = 1..4 and a sublattice of index <= 5000.

    Every sublattice has an upper triangular basis in parent coordinates
    with positive pivots, so drawing the pivots, in a drawn order, and
    the entries above them reaches every sublattice of small index.
    """
    d = draw(st.integers(1, 4))
    den = draw(st.integers(1, 6))
    parent = lattice_new([[Fraction(x, den) for x in row] for row in draw(integer_matrices(d))])
    coords = [[0] * d for _ in range(d)]
    left = 5000
    for j in draw(st.permutations(range(d))):
        coords[j][j] = draw(st.integers(1, left))
        left //= coords[j][j]
        above = d - j - 1
        coords[j][j + 1:] = draw(st.lists(st.integers(-9, 9), min_size=above, max_size=above))
    return parent, lattice_new([vec_mat(row, parent.basis) for row in coords])


@settings(max_examples=80, deadline=None)
@given(rational_parents_and_subs())
# three SNF factors above 1, which the drawn pivots rarely give
@example((standard_lattice(3), lattice_new([[2, 2, 0], [0, 6, 0], [0, 0, 12]])))
@example((lattice_new([["1/2", 1, 0, 0], [0, "1/3", 0, 0], [0, 0, 1, "1/2"], [0, 0, 0, 1]]),
          lattice_new([[6, 0, 0, 0], [0, 2, 0, 0], [0, 0, 4, 0], [0, 0, 2, 4]])))
def test_default_rows_match_the_one_colour_at_a_time_reference(pair):
    parent, sub = pair
    colouring = Colouring(parent, sub)
    assert colouring.m <= 5000
    assert colouring.rep_rows == radix_reps_one_colour_at_a_time(colouring)
    assert all(type(x) is int for row in colouring.rep_rows for x in row)


def test_colouring_rep_override_validation():
    good = Colouring(Z2, EX1_SUB, reps=[[0, 0], [1, 0], [2, 0], [3, 0], [4, 0], [5, 0]])
    assert good.reps[1] == (1, 0)
    with pytest.raises(ValueError):
        Colouring(Z2, EX1_SUB, reps=[[1, 0]] * 6)  # wrong first rep
    with pytest.raises(ValueError):
        Colouring(Z2, EX1_SUB, reps=[[0, 0], [1, 0]])  # wrong count
    with pytest.raises(ValueError):
        # (0,0) and (6,0) are congruent mod the sublattice
        Colouring(Z2, EX1_SUB, reps=[[0, 0], [6, 0], [2, 0], [3, 0], [4, 0], [5, 0]])
    with pytest.raises(NotInParent):
        Colouring(Z2, EX1_SUB, reps=[["0", "0"], ["1/2", "0"], ["2", "0"],
                                     ["3", "0"], ["4", "0"], ["5", "0"]])
    # with both faults, the one at the earlier rep is reported
    with pytest.raises(ValueError, match="congruent"):
        Colouring(Z2, EX1_SUB, reps=[[0, 0], [6, 0], ["1/2", 0], [3, 0], [4, 0], [5, 0]])
    with pytest.raises(NotInParent):
        Colouring(Z2, EX1_SUB, reps=[[0, 0], ["1/2", 0], [6, 0], [3, 0], [4, 0], [5, 0]])


@pytest.mark.parametrize("reps", [[[0, 0, 0], [1, 0, 9]], [[0], [1]]])
def test_colouring_rejects_reps_of_the_wrong_dimension(reps):
    with pytest.raises(DimensionMismatch):
        Colouring(Z2, lattice_new([[2, 0], [0, 1]]), reps=reps)


@pytest.mark.parametrize("parent_dim, sub_dim", [(2, 3), (3, 2)])
def test_coset_reps_rejects_mismatched_dimensions(parent_dim, sub_dim):
    with pytest.raises(DimensionMismatch):
        coset_reps(standard_lattice(parent_dim), standard_lattice(sub_dim))


def test_colour_of_examples():
    colouring = Colouring(
        Z2, EX1_SUB, reps=[[0, 0], [1, 0], [2, 0], [3, 0], [4, 0], [5, 0]]
    )
    assert colour_of(colouring, (0, 0)) == 0
    assert colour_of(colouring, (1, 0)) == 1
    assert colour_of(colouring, (4, 2)) == 0
    with pytest.raises(NotInParent):
        colour_of(colouring, ("1/2", "0"))


@pytest.mark.parametrize("coords", [(), (1,), (1, 0, 5)])
def test_colour_of_coords_rejects_a_point_of_another_dimension(coords):
    with pytest.raises(DimensionMismatch, match=f"point has dimension {len(coords)}, colouring 2"):
        Colouring(Z2, EX1_SUB).colour_of_coords(coords)


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(1), 1.0, "1", True, None])
def test_colour_of_coords_rejects_a_coordinate_that_is_not_an_int(entry):
    with pytest.raises(ValueError, match=f"coordinates must be ints, not {type(entry).__name__}"):
        Colouring(Z2, EX1_SUB).colour_of_coords((entry, 0))


def test_colour_of_matches_coset_membership():
    colouring = Colouring(
        Z2, EX1_SUB, reps=[[0, 0], [1, 0], [2, 0], [3, 0], [4, 0], [5, 0]]
    )
    for p in product(range(-5, 6), repeat=2):
        i = colour_of(colouring, p)
        rep = colouring.reps[i]
        assert contains(EX1_SUB, (p[0] - rep[0], p[1] - rep[1]))


# ---------------------------------------------------------------------------
# coset-meets-lattice witnesses


def test_coset_meets_lattice_zero_rep():
    got = coset_meets_lattice((0, 0), EX1_SUB, Z2)
    assert got is not None


def test_coset_meets_lattice_worked_example():
    csl_inv = intersect(Z2, transform(Z2, ROT_INV))
    for i in range(6):
        witness = coset_meets_lattice((i, 0), EX1_SUB, csl_inv)
        assert witness is not None
        assert contains(csl_inv, witness)
        assert contains(EX1_SUB, (witness[0] - i, witness[1]))


def test_coset_meets_lattice_absent():
    two = lattice_new([[2, 0], [0, 2]])
    assert coset_meets_lattice((1, 0), two, two) is None


def test_coset_meets_lattice_absent_iff_outside_sum():
    # integer points, then sixths: on a pair with dens 2 and 3 every
    # sixth can meet the sum, on an integer pair only the integers
    thirds_and_halves = [Fraction(k, 6) for k in range(-12, 13)]
    for sub_rows, lat_rows, coords in (
        ([[2, 0], [0, 4]], [[4, 0], [0, 2]], range(-4, 5)),
        ([["1/2", 0], [1, 2]], [[1, "1/3"], [0, "2/3"]], thirds_and_halves),
        ([[2, 0], [0, 4]], [[4, 0], [0, 2]], thirds_and_halves),
    ):
        sub = lattice_new(sub_rows)
        lat = lattice_new(lat_rows)
        joined = lattice_sum(sub, lat)
        for p in product(coords, repeat=2):
            witness = coset_meets_lattice(p, sub, lat)
            assert (witness is not None) == contains(joined, p)


# ---------------------------------------------------------------------------
# the one reader of rational points


ROT_MAP = commensurable_map(ROT)
# each reader of a point, on the plane; the conftest oracles `contains`
# and `apply` must read a point as the package does
POINT_READERS = {
    "contains": lambda p: contains(EX1_SUB, p),
    "colour_of": lambda p: colour_of(Colouring(Z2, EX1_SUB), p),
    "coset_meets_lattice": lambda p: coset_meets_lattice(p, EX1_SUB, transform(Z2, ROT)),
    "reps": lambda p: Colouring(Z2, lattice_new([[2, 0], [0, 1]]), reps=[[0, 0], p]).rep_rows,
    "apply": lambda p: apply(ROT_MAP, p),
}


def outcome(read, point):
    """What a reader returns for the point, or the type of what it raises."""
    try:
        return read(point)
    except (CslcolourError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("name", POINT_READERS)
def test_every_point_reader_reads_int_fraction_and_string_alike(name):
    read = POINT_READERS[name]
    # one point written three ways: ints, Fractions, "p/q" strings
    for forms in (
        [(3, -2), (Fraction(6, 2), Fraction(-2)), ("6/2", "-4/2")],
        [(0, 5), (Fraction(0), Fraction(10, 2)), ("0/7", "5")],
        [(1, 1), (Fraction(1), Fraction(3, 3)), ("2/2", "1/1")],
        [(Fraction(1, 2), 1), ("1/2", "2/2"), ("2/4", Fraction(1))],
    ):
        outcomes = [outcome(read, p) for p in forms]
        assert outcomes[1:] == outcomes[:1] * 2, forms


@pytest.mark.parametrize("name", POINT_READERS)
@pytest.mark.parametrize("point", [(1,), (1, 0, 0), ()])
def test_every_point_reader_refuses_the_wrong_dimension(name, point):
    with pytest.raises(DimensionMismatch):
        POINT_READERS[name](point)


# ---------------------------------------------------------------------------
# the box walk over a triangular basis, against a box scan


def box_scan_prefixes(h, lo, hi, depth):
    """Every point of the box on the first `depth` coordinates, in product
    order, kept when it is x . h[:depth] for an integer x (solved in
    Fractions), as that full sum."""
    out = []
    for y in product(*(range(lo[j], hi[j] + 1) for j in range(depth))):
        x = []
        for j in range(depth):
            xj = Fraction(y[j] - sum(x[i] * h[i][j] for i in range(j)), h[j][j])
            if xj.denominator != 1:
                break
            x.append(int(xj))
        else:
            out.append(tuple(sum(x[i] * h[i][c] for i in range(depth)) for c in range(len(h[0]))))
    return out


@st.composite
def triangular_boxes(draw, narrow=False):
    """Upper triangular h with positive pivots, d = 1..4 rows, and a box lo <= hi.

    h has up to max(2, d) columns beyond its d rows, which the walk
    carries along, as the census carries each point's image.  With `narrow`,
    each side of the box is shorter than its pivot, so every run holds
    zero values or one.
    """
    d = draw(st.integers(1, 4))
    width = d + draw(st.integers(0, max(2, d)))
    pivots = [draw(st.integers(1, 4)) for _ in range(d)]
    h = [
        [0] * j + [pivots[j]] + [draw(st.integers(-5, 5)) for _ in range(width - j - 1)]
        for j in range(d)
    ]
    lo = [draw(st.integers(-6, 3)) for _ in range(d)]
    hi = [low + draw(st.integers(0, p - 1 if narrow else 6)) for low, p in zip(lo, pivots)]
    return h, lo, hi


@settings(max_examples=150, deadline=None)
@given(st.one_of(triangular_boxes(), triangular_boxes(narrow=True)))
def test_box_columns_match_a_box_scan(case):
    h, lo, hi = case
    for depth in range(len(h) + 1):
        sums = box_scan_prefixes(h, lo, hi, depth)
        columns = [[s[c] for s in sums] for c in range(len(h[0]))]
        assert lattice_module._box_columns(h, lo, hi, depth) == columns


# ---------------------------------------------------------------------------
# triangular substitution, against the per-row loops it replaced


def solve_by_scaled_loop(h, w, scale=1):
    """x . (scale.h) = w over Z by forward substitution with scale in every term, or None.

    The test oracle for `_solve_upper_triangular`, which checks scale's
    divisibility once; only the first len(h) columns of h are read.
    """
    x = [0] * len(h)
    for j in range(len(h)):
        acc = w[j]
        for i in range(j):
            acc -= scale * x[i] * h[i][j]
        q, r = divmod(acc, scale * h[j][j])
        if r:
            return None
        x[j] = q
    return tuple(x)


def coords_by_scaled_loop(lat, w, q):
    """lat's coordinates of w / q, or None, through the oracle solve of den.w."""
    return solve_by_scaled_loop(lat.hnf_rows, [lat.den * x for x in w], q)


def relative_basis_by_rows(parent, sub):
    """sub's basis in parent coordinates, one whole-row solve per row.

    The test oracle for `_relative_basis`, which solves each row from its
    pivot with the two dens as one scalar.
    """
    out = []
    for row in sub.hnf_rows:
        coords = coords_by_scaled_loop(parent, row, sub.den)
        if coords is None:
            raise NotASublattice("sub is not inside parent")
        out.append(coords)
    return tuple(out)


def canonical_by_division(h, den):
    """The lattice of Hermite rows h over den, every entry divided by the gcd, g = 1 too."""
    g = gcd(den, *(x for row in h for x in row))
    rows = tuple(tuple(x // g for x in row) for row in h)
    return Lattice(dim=len(h), den=den // g, hnf_rows=rows)


def solved_or_refused(fn, *args):
    """fn's value, or the type and message of the NotASublattice it raises."""
    try:
        return fn(*args)
    except NotASublattice as exc:
        return NotASublattice, str(exc)


@st.composite
def lattice_pairs(draw):
    """Two lattices of d = 1..6 with dens up to 6, and their meet, in every order.

    The meet lies in both; the other orders are sublattices only by chance.
    """
    d = draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    matrix = st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)
    a, b = (lattice_new(m) for m in draw(st.lists(
        matrix.filter(lambda m: ref_det(m) != 0), min_size=2, max_size=2)))
    meet = intersect(a, b)
    return [(a, meet), (b, meet), (a, b), (b, a), (meet, a), (a, a)]


@settings(max_examples=120, deadline=None)
@given(lattice_pairs())
@example([(Z2, EX1_SUB), (EX1_SUB, Z2), (lattice_new([["1/2", 0], [0, 1]]), Z2),
          (Z2, lattice_new([["1/2", 0], [0, 1]])), (lattice_new([["1/6", 0], [0, 1]]),
                                                    lattice_new([["1/3", 0], [0, "1/2"]]))])
def test_relative_basis_equals_the_per_row_solve(pairs):
    for parent, sub in pairs:
        solved = solved_or_refused(lattice_module._relative_basis, parent, sub)
        assert solved == solved_or_refused(relative_basis_by_rows, parent, sub)
        for row in sub.hnf_rows + parent.hnf_rows:
            for q in (1, sub.den, 2 * parent.den):
                assert lattice_module._coords(parent, row, q) == coords_by_scaled_loop(
                    parent, row, q)


@st.composite
def triangular_systems(draw):
    """(h, w, scale): h upper triangular, d = 1..6 rows of d or 2d columns, pivots +-1..5.

    w is scale.(x . h) for a drawn x, then left alone, nudged in one
    coordinate, or not a multiple of scale, so that both the solvable and
    the None cases occur.
    """
    d = draw(st.integers(1, 6))
    width = draw(st.sampled_from([d, 2 * d]))
    h = [
        [0] * j + [draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1]))]
        + [draw(st.integers(-9, 9)) for _ in range(width - j - 1)]
        for j in range(d)
    ]
    scale = draw(st.sampled_from([1, 1, 2, 3, 6, 25]))
    x = draw(st.lists(st.integers(-7, 7), min_size=d, max_size=d))
    w = [scale * sum(x[i] * h[i][j] for i in range(d)) for j in range(d)]
    change = draw(st.sampled_from(["none", "nudge", "scale"]))
    if change != "none":
        j = draw(st.integers(0, d - 1))
        w[j] += draw(st.integers(1, 4)) * (scale if change == "nudge" else 1)
    return h, w, scale


@settings(max_examples=300, deadline=None)
@given(triangular_systems())
# x = (1, 1) gives w = (4, 8); nudged by a multiple of scale times the last
# pivot it is solvable, by scale alone it is not, and an odd w_j is no multiple of scale
@example(([[2, 1], [0, 3]], [4, 8 + 6], 2))
@example(([[2, 1], [0, 3]], [4, 8 + 2], 2))
@example(([[2, 1], [0, 3]], [4, 8 + 1], 2))
# the 2d-wide rows of a stacked form, as `coset_meets_lattice` passes them
@example(([[1, 0, 3, 1], [0, 2, 0, 5]], [3, 4], 1))
def test_scaled_solve_equals_the_loop_with_scale_in_every_term(system):
    h, w, scale = system
    assert lattice_module._solve_upper_triangular(h, w, scale) == solve_by_scaled_loop(h, w, scale)


@settings(max_examples=100, deadline=None)
@given(dims.flatmap(rational_matrices), st.sampled_from([1, 2, 3, 10]))
def test_canonical_equals_the_division_pass(basis, k):
    lat = lattice_new(basis)
    # lat's own rows have g = 1; k times them over k.den have g = k
    rows = [[k * x for x in row] for row in lat.hnf_rows]
    assert lattice_module._canonical(rows, k * lat.den) == canonical_by_division(
        rows, k * lat.den) == lat
    assert lattice_module._canonical([list(row) for row in lat.hnf_rows], lat.den) == lat


# ---------------------------------------------------------------------------
# the stacked Zassenhaus form, against the full Hermite form it replaced


def stacked_by_full_hermite(l1, l2):
    """The whole Hermite form of [[A, A], [B, 0]] and its scale, with the sum block reduced.

    The test oracle for `_stacked`, which makes the left half triangular
    by Euclid alone and takes one Hermite form of the meet block.
    """
    scale = lcm(l1.den, l2.den)
    f1, f2 = scale // l1.den, scale // l2.den
    zero = [0] * l1.dim
    h, rank = _hermite(
        [[f1 * x for x in row] * 2 for row in l1.hnf_rows]
        + [[f2 * x for x in row] + zero for row in l2.hnf_rows]
    )
    assert rank == 2 * l1.dim
    return h, scale


@settings(max_examples=120, deadline=None)
@given(lattice_pairs())
@example([(Z2, EX1_SUB), (EX1_SUB, transform(Z2, ROT)),
          (lattice_new([["1/6", 0], [0, 1]]), lattice_new([["1/3", 0], [0, "1/2"]]))])
def test_stacked_meet_block_is_that_of_the_full_form(pairs):
    for l1, l2 in pairs:
        d = l1.dim
        sums, meet, scale = lattice_module._stacked(l1, l2)
        full, full_scale = stacked_by_full_hermite(l1, l2)
        assert scale == full_scale
        assert meet == [row[d:] for row in full[d:]]
        # the sum rows: triangular on the left, pivots of either sign
        assert len(sums) == d
        for i, row in enumerate(sums):
            assert len(row) == 2 * d and row[i] != 0 and not any(row[:i])
        assert _hermite([row[:d] for row in sums]) == ([row[:d] for row in full[:d]], d)
        # each sum row is (x.A + y.B, x.A): x.A in l1 and y.B in l2, over scale
        for row in sums:
            left, right = row[:d], row[d:]
            assert contains(l1, [Fraction(x, scale) for x in right])
            assert contains(l2, [Fraction(a - b, scale) for a, b in zip(left, right)])
