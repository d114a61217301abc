"""Lattice algebra tests: canonical form, membership, meet/join, cosets.

Brute-force oracles (Cramer membership, exhaustive searches) are local
to this file and independent of the code under test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cslcolour.lattice as lattice_module
from cslcolour.coincidence import commensurable_map
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
    contains,
    coset_meets_lattice,
    coset_reps,
    index,
    intersect,
    is_sublattice,
    lattice_new,
    lattice_sum,
    standard_lattice,
    transform,
)
from cslcolour.ratmat import det_rat, mat_mul, vec_mat

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
    ).filter(lambda m: det_rat(m) != 0)
)


# ---------------------------------------------------------------------------
# construction and canonical form


def test_lattice_new_canonicalizes_worked_example():
    assert EX1_SUB.basis == ((Fraction(2), Fraction(1)), (Fraction(0), Fraction(3)))
    assert EX1_SUB.det_abs == 6


def test_lattice_new_examples():
    assert Z2.det_abs == 1
    assert lattice_new([[3, 0], [0, 1]]).det_abs == 3


def test_lattice_new_rejects_dependent_rows():
    with pytest.raises(RankDeficient):
        lattice_new([[1, 2], [2, 4]])


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
        lambda: lattice_sum(EX1_SUB, rotated),
        lambda: coset_meets_lattice((1, 0), EX1_SUB, rotated),
        lambda: coset_meets_lattice(("1/2", 0), EX1_SUB, rotated),
    ):
        calls.clear()
        op()
        assert calls == [4]  # one stacked 2d x 2d form


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
# and compares lattices by mutual containment of their rows; nothing
# below it calls the package.


def ref_solve(basis, v):
    """The x with x . basis = v, by Fraction Gauss-Jordan elimination."""
    n = len(basis)
    aug = [[Fraction(basis[i][j]) for i in range(n)] + [Fraction(v[j])] for j in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col] / aug[col][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def ref_det(m):
    work = [[Fraction(x) for x in row] for row in m]
    n = len(work)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det *= work[col][col]
        for r in range(col + 1, n):
            f = work[r][col] / work[col][col]
            work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return det


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
    assert rotated.det_abs == 1
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
    """The default rows by one colour lookup and one product per box point.

    The reference for `lattice._radix_reps`, which builds the same rows
    as flat lists over the whole box.
    """
    rows = [None] * colouring.m
    for coords in product(*(range(row[j]) for j, row in enumerate(colouring._rel))):
        colour = colouring.colour_of_coords(coords)
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
# each reader of a point, on the plane
POINT_READERS = {
    "contains": lambda p: contains(EX1_SUB, p),
    "colour_of": lambda p: colour_of(Colouring(Z2, EX1_SUB), p),
    "coset_meets_lattice": lambda p: coset_meets_lattice(p, EX1_SUB, transform(Z2, ROT)),
    "reps": lambda p: Colouring(Z2, lattice_new([[2, 0], [0, 1]]), reps=[[0, 0], p]).rep_rows,
    "apply": ROT_MAP.apply,
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
# the prefix walk over a triangular basis, against a box scan


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
def triangular_boxes(draw):
    """Upper triangular h with positive pivots, d = 1..4, and a box lo <= hi."""
    d = draw(st.integers(1, 4))
    h = [
        [0] * j + [draw(st.integers(1, 4))] + [draw(st.integers(-5, 5)) for _ in range(d - j - 1)]
        for j in range(d)
    ]
    lo = [draw(st.integers(-6, 3)) for _ in range(d)]
    hi = [low + draw(st.integers(0, 6)) for low in lo]
    return h, lo, hi


@settings(max_examples=150, deadline=None)
@given(triangular_boxes())
def test_box_prefixes_match_a_box_scan(case):
    h, lo, hi = case
    for depth in range(len(h) + 1):
        assert lattice_module._box_prefixes(h, lo, hi, depth) == box_scan_prefixes(h, lo, hi, depth)
