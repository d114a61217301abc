"""Kernel tests: parsing, determinants, inverses, HNF/SNF.

Expected values for the nontrivial cases were frozen from independent
brute-force oracles that live in this file (a Cramer membership test
and a window-based quotient-group builder), not from the code under
test.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslcolour.coincidence import commensurable_map
from cslcolour.cyclo8 import cyc8
from cslcolour.errors import RankDeficient, Singular
from cslcolour.lattice import (
    Colouring,
    colour_of,
    coset_meets_lattice,
    lattice_new,
    standard_lattice,
    transform,
)
from cslcolour.ratmat import (
    _bounded,
    _hermite,
    _inverse_det,
    clear_denominators,
    format_rational,
    int_matrix,
    mat_mul,
    parse_rational,
    rat_inverse,
    rat_matrix,
    snf,
    transpose,
)
from conftest import adjugate, det, identity, ref_det

# ---------------------------------------------------------------------------
# independent oracles


def is_unimodular(m):
    return abs(ref_det(m)) == 1


def oracle_in_span2(m, p):
    """Membership of p in the row span of a 2x2 integer matrix, by Cramer."""
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assert det != 0
    num_a = p[0] * m[1][1] - m[1][0] * p[1]
    num_b = m[0][0] * p[1] - m[0][1] * p[0]
    return num_a % det == 0 and num_b % det == 0


def oracle_quotient_orders(basis, window=12):
    """Orders of the elements of Z^2 / span(basis), built by brute force.

    Collects one representative per coset from a window of Z^2 points,
    then walks multiples of each to find its order in the quotient.
    Only usable for tiny indices.
    """
    pts = [(x, y) for x in range(window) for y in range(window)]
    reps = []
    for p in pts:
        for r in reps:
            if oracle_in_span2(basis, (p[0] - r[0], p[1] - r[1])):
                break
        else:
            reps.append(p)
    orders = []
    for r in reps:
        k = 1
        while not oracle_in_span2(basis, (k * r[0], k * r[1])):
            k += 1
            assert k <= 100, "runaway order walk"
        orders.append(k)
    return sorted(orders)


# ---------------------------------------------------------------------------
# rational parsing


def test_parse_and_format_round_trip():
    for text in ["0", "7", "-3", "2/5", "-11/4", "+6/4"]:
        f = parse_rational(text)
        assert parse_rational(format_rational(f)) == f
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(-8, 2)) == "-4"
    assert parse_rational("4/6") == Fraction(2, 3)


def test_bounded_writes_short_numbers_in_full_and_long_ones_as_a_power_of_ten():
    assert _bounded(0) == "0"
    assert _bounded(Fraction(6, 4)) == "3/2"
    assert _bounded(10**30 - 1) == "9" * 30
    assert _bounded(Fraction(1, 10**30 - 1)) == "1/" + "9" * 30
    assert _bounded(10**30) == "about 10^30"
    assert _bounded(7 * 10**50) == "about 10^50"
    assert _bounded(Fraction(1, 10**40)) == "about 10^-40"
    # of order 10^0 but not 1: the digit counts, not `about 10^0`
    near_one = Fraction((10**15 + 1) ** 2, 10**30)
    assert _bounded(near_one) == "a 31-digit/31-digit fraction"
    assert _bounded(1 / near_one) == "a 31-digit/31-digit fraction"
    assert _bounded(Fraction(10**40 + 1, 10**40)) == "a 41-digit/41-digit fraction"
    # over Python's int-to-str digit limit, and never converted
    assert _bounded(10**5000 + 1) == "about 10^5000"
    # a negative number is its sign and the bound of its size
    assert _bounded(Fraction(-1, 2)) == "-1/2"
    assert _bounded(-(10**5000)) == "-about 10^5000"
    # log10(10^31 - 1) rounds up to 31.0
    assert _bounded(Fraction(10**31 - 1, 10**31 - 2)) == "a 31-digit/31-digit fraction"


@pytest.mark.parametrize(
    "bad", ["", "1/0", "1/-2", "a", "1.5", "2 /3", "--1", "1/+2", "5\n", "4/5\n", "-3\n"]
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_a_long_literal_is_echoed_as_a_prefix_and_its_length():
    for text, error in (
        ("1." + "0" * 100_000, "not a rational literal"),
        ("1/" + "0" * 1000, "zero denominator"),
    ):
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        assert str(info.value) == f"{error}: {text[:40]!r}... ({len(text)} characters)"
    # up to 40 characters a literal is echoed whole
    with pytest.raises(ValueError, match=r"^not a rational literal: '1\.0{38}'$"):
        parse_rational("1." + "0" * 38)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python reads ints of any length"
)
def test_a_literal_past_the_digit_limit_is_refused_by_name():
    over, zeros = "1" + "0" * 5000, "1/" + "0" * 5000
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default
    try:
        for text, error in (
            (over, "over the limit of 4300 digits"),
            ("-1/" + over, "over the limit of 4300 digits"),
            (zeros, "zero denominator"),
        ):
            with pytest.raises(ValueError) as info:
                parse_rational(text)
            assert str(info.value) == f"{error}: {text[:40]!r}... ({len(text)} characters)"
        # a run of exactly the limit is read
        assert parse_rational("9" * 4300) == 10**4300 - 1
        sys.set_int_max_str_digits(0)  # no limit: the literal is read
        assert parse_rational(over) == 10**5000
        with pytest.raises(ValueError, match="^zero denominator"):
            parse_rational(zeros)
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python writes ints of any length"
)
def test_a_non_integer_entry_past_the_digit_limit_is_named_by_its_size():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default
    try:
        with pytest.raises(ValueError) as info:
            snf([[Fraction(10**5000 + 1, 2), 0], [0, 1]])
    finally:
        sys.set_int_max_str_digits(saved)
    assert str(info.value) == "non-integer entry about 10^4999"
    with pytest.raises(ValueError, match="^non-integer entry 3/2$"):
        int_matrix([["6/4", 0]])


def test_rat_matrix_coercion():
    m = rat_matrix([["4/5", "-3/5"], ["3/5", "4/5"]])
    assert m[0][0] == Fraction(4, 5)
    with pytest.raises(ValueError):
        rat_matrix([[1, 2], [3]])


def test_clear_denominators():
    m = rat_matrix([["1/2", "0"], ["1/3", "1"]])
    ints, den = clear_denominators(m)
    assert den == 6
    assert ints == ((3, 0), (2, 6))


# every public entry point that reads numbers, with x placed in an input
# it accepts; QUARTER is (1/4)Z x Z, so 3/4 and -3 both lie in it
QUARTER = lattice_new([["1/4", "0"], ["0", "1"]])
READERS = {
    "lattice_new": lambda x: lattice_new([[x, 0], [0, 1]]),
    "transform": lambda x: transform(QUARTER, [[x, 0], [0, 1]]),
    "commensurable_map": lambda x: commensurable_map([[x, 0], [0, 1]]),
    "colour_of": lambda x: colour_of(Colouring(QUARTER, standard_lattice(2)), [x, 0]),
    "coset_meets_lattice": lambda x: coset_meets_lattice([x, 0], standard_lattice(2), QUARTER),
    "Colouring(reps=...)": lambda x: Colouring(
        QUARTER, lattice_new([["1/4", 0], [0, 2]]), reps=[[0, 0], [x, 1]]
    ).reps,
    "rat_inverse": lambda x: rat_inverse([[x, 0], [0, 1]]),
    "rat_matrix": lambda x: rat_matrix([[x, "1/2"]]),
    "clear_denominators": lambda x: clear_denominators([[x, "1/2"]]),
    "snf": lambda x: snf([[x, 0], [0, 1]]),
    "cyc8": lambda x: cyc8(x, 0, "1/2", 0),
}


def _outcome(read, x):
    """What read(x) returns, or the ValueError it raises (snf refuses 3/4)."""
    try:
        return read(x)
    except ValueError as exc:
        return "ValueError", str(exc)


@pytest.mark.parametrize("name", READERS)
def test_every_reader_reads_numbers_by_one_rule(name):
    read = READERS[name]
    for bad in ("1e3", " 3/1 ", "1.5", "1_0", "3/-4"):
        with pytest.raises(ValueError, match="not a rational literal"):
            read(bad)
    assert _outcome(read, "3/4") == _outcome(read, Fraction(3, 4))
    assert _outcome(read, "-3") == _outcome(read, -3)


# ---------------------------------------------------------------------------
# determinant and inverse


def test_det_small_cases():
    assert commensurable_map(identity(3)).det == 1
    assert commensurable_map([[6, 0], [2, 1]]).det == 6
    assert commensurable_map([[0, 1], [1, 0]]).det == -1
    assert commensurable_map(rat_matrix([["4/5", "-3/5"], ["3/5", "4/5"]])).det == 1
    assert commensurable_map([["1/2", 0], [0, "1/3"]]).det == Fraction(1, 6)
    with pytest.raises(Singular, match="matrix is singular"):
        commensurable_map([[1, 2], [2, 4]])


@st.composite
def square_int_matrices(draw):
    """Integer matrices of size 1 to 5 with entries up to 2^64 in size, some singular."""
    d = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-2, 2), st.integers(-(2**64), 2**64))
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
    if draw(st.booleans()):
        # the last row a combination of the others (zero when d = 1)
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=d - 1, max_size=d - 1))
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(d)]
    return rows


@settings(max_examples=200, deadline=None)
@given(square_int_matrices())
def test_one_pass_gives_the_laplace_det_and_adjugate(m):
    expected = det(m)
    if not expected:
        with pytest.raises(Singular, match="matrix is singular"):
            _inverse_det(m)
        return
    inv, den, got = _inverse_det(m)
    assert got == expected
    assert den > 0 and gcd(den, *(x for row in inv for x in row)) == 1
    # m^-1 = adj(m) / det(m)
    assert [[expected * x for x in row] for row in inv] == [
        [den * x for x in row] for row in adjugate(m)
    ]


def test_rat_inverse_rotation_is_transpose():
    r = rat_matrix([["4/5", "-3/5"], ["3/5", "4/5"]])
    assert rat_inverse(r) == transpose(r)
    assert rat_inverse(identity(2)) == rat_matrix(identity(2))


def test_rat_inverse_singular():
    with pytest.raises(Singular):
        rat_inverse([[1, 2], [2, 4]])


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                 min_size=4, max_size=4),
        min_size=4, max_size=4,
    ).filter(lambda m: ref_det(m) != 0)
)
def test_rat_inverse_multiplies_back(m):
    assert mat_mul(m, rat_inverse(m)) == rat_matrix(identity(4))


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=4, max_size=4
    ).filter(lambda m: ref_det(m) != 0)
)
def test_int_inverse_is_exact_and_lowest_terms(m):
    inv, den, _ = _inverse_det(m)
    assert den > 0
    assert mat_mul(m, inv) == tuple(tuple(den * x for x in row) for row in identity(4))
    assert gcd(den, *(x for row in inv for x in row)) == 1
    assert abs(ref_det(m)) % den == 0


def test_int_inverse_singular():
    with pytest.raises(Singular):
        _inverse_det([[1, 2], [2, 4]])


# ---------------------------------------------------------------------------
# Hermite form


def hnf(m):
    """(H, U) with H = U . M: the kernel's Hermite form of [M | I] is [H | U]."""
    k = len(m[0])
    h, _ = _hermite([list(row) + list(e) for row, e in zip(m, identity(len(m)))])
    return tuple(tuple(r[:k]) for r in h), tuple(tuple(r[k:]) for r in h)


def test_hnf_identity():
    h, u = hnf(identity(2))
    assert h == identity(2)
    assert u == identity(2)


def test_hnf_worked_example():
    m = ((6, 0), (2, 1))
    h, u = hnf(m)
    assert h == ((2, 1), (0, 3))
    assert mat_mul(u, m) == h
    assert abs(ref_det(u)) == 1


def test_hnf_idempotent():
    for m in [((6, 0), (2, 1)), ((5, 3), (1, 2)), ((4, 0, 1), (0, 2, 7), (0, 0, 3))]:
        h, _ = hnf(m)
        h2, _ = hnf(h)
        assert h2 == h


def test_hnf_rejects_rank_deficient():
    # the kernel reports the rank; callers refuse a form of rank < rows
    assert _hermite(((1, 2), (2, 4)))[1] == 1
    assert _hermite(((0, 0), (0, 0)))[1] == 0
    assert _hermite(((1, 0), (0, 1), (1, 1)))[1] == 2  # more rows than columns
    assert _hermite(((2, 4, 6), (1, 2, 3)))[1] == 1


def test_hnf_of_a_wide_matrix():
    m = ((2, 4, 6), (1, 3, 5))
    h, u = hnf(m)
    assert h == ((1, 1, 1), (0, 2, 4))
    assert mat_mul(u, m) == h
    assert abs(ref_det(u)) == 1


def _random_unimodular(rng, n, steps=12):
    u = [list(row) for row in identity(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            f = rng.randint(-3, 3)
            for col in range(n):
                u[i][col] += f * u[j][col]
        elif kind == 1 and i != j:
            u[i], u[j] = u[j], u[i]
        elif kind == 2:
            u[i] = [-x for x in u[i]]
    return tuple(tuple(r) for r in u)


def test_hnf_invariant_under_unimodular_row_action():
    rng = random.Random(8128)
    mats = [
        ((6, 0), (2, 1)),
        ((3, 1), (0, 4)),
        ((2, 0, 0), (1, 3, 0), (7, -5, 4)),
        ((1, 2, 3, 4), (0, 1, 0, 2), (5, 0, 2, 1), (3, 3, 3, 1)),
    ]
    for m in mats:
        h, _ = hnf(m)
        for _ in range(20):
            u_prime = _random_unimodular(rng, len(m))
            assert is_unimodular(u_prime)
            h2, _ = hnf(mat_mul(u_prime, m))
            assert h2 == h


def test_hnf_shape_normalization():
    # pivots positive, entries above pivots inside [0, pivot)
    rng = random.Random(496)
    for _ in range(30):
        n = rng.randrange(2, 5)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        if ref_det(m) == 0:
            continue
        h, u = hnf(m)
        assert mat_mul(u, m) == h
        assert abs(ref_det(u)) == 1
        for i in range(n):
            assert h[i][i] > 0
            for j in range(i):
                assert h[i][j] == 0
            for r in range(i):
                assert 0 <= h[r][i] < h[i][i]


# ---------------------------------------------------------------------------
# Smith form


def test_snf_identity():
    d, u, v = snf(identity(3))
    assert d == identity(3)
    assert u == identity(3)
    assert v == identity(3)


def test_snf_worked_example_matches_quotient_oracle():
    m = ((6, 0), (2, 1))
    d, u, v = snf(m)
    assert d == ((1, 0), (0, 6))
    assert mat_mul(mat_mul(u, m), v) == d
    assert is_unimodular(u) and is_unimodular(v)
    # oracle: the quotient group Z^2 / span{(6,0),(2,1)} is cyclic of
    # order 6, i.e. element orders are the divisors seen with the right
    # multiplicities (1 of order 1, 1 of order 2, 2 of order 3, 2 of 6)
    assert oracle_quotient_orders(m) == [1, 2, 3, 3, 6, 6]


def test_snf_already_diagonal():
    d, u, v = snf(((2, 0), (0, 4)))
    assert d == ((2, 0), (0, 4))


def test_snf_rejects_singular():
    with pytest.raises(RankDeficient):
        snf(((1, 2), (2, 4)))
    with pytest.raises(ValueError, match="square"):
        snf(((1, 0, 0), (0, 1, 0)))


def test_snf_refuses_the_empty_matrix_as_hnf_does():
    with pytest.raises(ValueError, match="^empty matrix$"):
        snf([])


@settings(max_examples=80)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=3, max_size=3,
    ).filter(lambda m: ref_det(m) != 0)
)
def test_snf_divisor_chain_and_determinant(m):
    d, u, v = snf(m)
    n = len(m)
    assert mat_mul(mat_mul(u, int_matrix(m)), v) == d
    assert is_unimodular(u) and is_unimodular(v)
    prod = 1
    for i in range(n):
        assert d[i][i] > 0
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
        prod *= d[i][i]
    for i in range(n - 1):
        assert d[i + 1][i + 1] % d[i][i] == 0
    assert prod == abs(ref_det(m))
