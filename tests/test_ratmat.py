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
from hypothesis import example, given, settings
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
from conftest import adjugate, det, identity, ref_det, ref_solve

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


def ref_rank(m):
    """The rank of m by Gaussian elimination over Fraction."""
    work = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for r in range(rank + 1, len(work)):
            f = work[r][col] / work[rank][col]
            work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def assert_hermite_form(m):
    """The kernel's form of m meets the definition of a row Hermite form of m."""
    h, u = hnf(m)
    got, rank = _hermite(m)
    assert rank == ref_rank(m)
    assert got == [list(row) for row in h]
    assert mat_mul(u, m) == h
    assert abs(ref_det(u)) == 1
    # a staircase of `rank` rows with positive pivots, entries above each
    # pivot inside [0, pivot), and zero rows after it
    pivots = [next(j for j, x in enumerate(row) if x) for row in h[:rank]]
    assert pivots == sorted(set(pivots))
    for i, j in enumerate(pivots):
        assert h[i][j] > 0
        assert all(0 <= h[r][j] < h[i][j] for r in range(i))
    assert not any(any(row) for row in h[rank:])


def test_hnf_shape_normalization():
    rng = random.Random(496)
    for _ in range(30):
        n = rng.randrange(2, 5)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        assert_hermite_form(m)


@pytest.mark.parametrize("shape", ["wide", "tall", "rank-deficient"])
def test_hnf_of_64_bit_matrices_meets_the_definition(shape):
    rng = random.Random(f"hermite:{shape}")
    for _ in range(12):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        if shape == "wide":
            cols += rows
        elif shape == "tall":
            rows, cols = rows + cols, rows
        if shape == "rank-deficient":
            # a (rows + 2) x (cols + 2) product through rank <= min(rows, cols)
            r = min(rows, cols)
            left = [[rng.randint(-(2**32), 2**32) for _ in range(r)] for _ in range(rows + 2)]
            right = [[rng.randint(-(2**32), 2**32) for _ in range(cols + 2)] for _ in range(r)]
            m = mat_mul(left, right)
        else:
            m = [[rng.randint(-(2**64), 2**64) for _ in range(cols)] for _ in range(rows)]
        assert_hermite_form(m)


def _add_row_multiple(rows, dst, src, factor):
    rows[dst] = [x + factor * y for x, y in zip(rows[dst], rows[src])]


def hermite_by_whole_rows(m):
    """The Hermite loop with every row operation on whole rows, as a test oracle."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    h = [list(row) for row in m]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if h[r][col]), None)
        if piv is None:
            continue
        h[rank], h[piv] = h[piv], h[rank]
        for r in range(rank + 1, nrows):
            while h[r][col]:
                _add_row_multiple(h, rank, r, -(h[rank][col] // h[r][col]))
                h[rank], h[r] = h[r], h[rank]
        if h[rank][col] < 0:
            h[rank] = [-x for x in h[rank]]
        for r in range(rank):
            _add_row_multiple(h, r, rank, -(h[r][col] // h[rank][col]))
        rank += 1
    return h, rank


@st.composite
def hermite_inputs(draw):
    """1-9 x 1-9 integer matrices of 2-, 10- or 64-bit entries, some with a
    zero column or a row that is a combination of two others."""
    nrows, ncols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    bits = draw(st.sampled_from([2, 10, 64]))
    entry = st.integers(-(2**bits), 2**bits)
    m = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                      min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        zero = draw(st.integers(0, ncols - 1))
        for row in m:
            row[zero] = 0
    if nrows > 1 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, nrows - 1), min_size=2, max_size=2))
        f, g = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m[-1] = [f * x + g * y for x, y in zip(m[a], m[b])]
    return m


# the shapes the package passes in: a d x d image, a 2d x 2d stack
# [[A, A], [B, 0]] (d = 2 and 4), and a (d + 2k) x 2k graph walk
@settings(max_examples=300, deadline=None)
@given(hermite_inputs())
@example(((-241, 0, -241, -44), (44, -241, 0, -241), (0, 44, -482, -44), (44, 0, 44, -482)))
@example(((17, 0, 17, 0), (0, 17, 0, 17), (1, 38, 0, 0), (0, 289, 0, 0)))
@example((
    (1, 0, 1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 1, 0, 1), (0, 0, 2, 0, 0, 0, 2, 0),
    (0, 0, 0, 2, 0, 0, 0, 2), (1, 0, 1, 221, 0, 0, 0, 0), (0, 1, 221, 728, 0, 0, 0, 0),
    (0, 0, 729, 0, 0, 0, 0, 0), (0, 0, 0, 729, 0, 0, 0, 0),
))
@example((
    (1, 8, 16, 4), (0, 13, 11, 5),
    (23, 0, 0, 0), (0, 23, 0, 0), (0, 0, 23, 0), (0, 0, 0, 23),
))
def test_hermite_equals_the_whole_row_loop(m):
    assert _hermite(m) == hermite_by_whole_rows(m)


# ---------------------------------------------------------------------------
# Smith form


def smith_u(m, d, v):
    """The U of D = U . M . V, as D . (M . V)^-1 by the Fraction oracle `ref_solve`.

    snf does not build U; D = U . M . V holds for a unimodular U exactly
    when this one is an integer matrix of det +-1, which is asserted.
    """
    mv = mat_mul(int_matrix(m), v)
    n = len(mv)
    inverse = [ref_solve(mv, [int(i == j) for j in range(n)]) for i in range(n)]
    u = [[sum(d[i][k] * inverse[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert all(x.denominator == 1 for row in u for x in row)
    assert is_unimodular(u)
    return tuple(tuple(int(x) for x in row) for row in u)


def test_snf_identity():
    d, v = snf(identity(3))
    assert d == identity(3)
    assert smith_u(identity(3), d, v) == identity(3)
    assert v == identity(3)


def test_snf_worked_example_matches_quotient_oracle():
    m = ((6, 0), (2, 1))
    d, v = snf(m)
    assert d == ((1, 0), (0, 6))
    u = smith_u(m, d, v)
    assert mat_mul(mat_mul(u, m), v) == d
    assert is_unimodular(v)
    # oracle: the quotient group Z^2 / span{(6,0),(2,1)} is cyclic of
    # order 6, i.e. element orders are the divisors seen with the right
    # multiplicities (1 of order 1, 1 of order 2, 2 of order 3, 2 of 6)
    assert oracle_quotient_orders(m) == [1, 2, 3, 3, 6, 6]


def test_snf_already_diagonal():
    d, v = snf(((2, 0), (0, 4)))
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
    d, v = snf(m)
    n = len(m)
    u = smith_u(m, d, v)
    assert mat_mul(mat_mul(u, int_matrix(m)), v) == d
    assert is_unimodular(v)
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
