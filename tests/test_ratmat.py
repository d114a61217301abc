"""Kernel tests: parsing, determinants, inverses, HNF/SNF.

Expected values for the nontrivial cases were frozen from independent
brute-force oracles that live in this file (a Cramer membership test
and a window-based quotient-group builder), not from the code under
test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslcolour.errors import RankDeficient, Singular
from cslcolour.ratmat import (
    clear_denominators,
    det_rat,
    format_rational,
    hnf,
    identity,
    int_inverse,
    int_matrix,
    mat_mul,
    parse_rational,
    rat_inverse,
    rat_matrix,
    snf,
    transpose,
)

# ---------------------------------------------------------------------------
# independent oracles


def is_unimodular(m):
    return abs(det_rat(m)) == 1


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


@pytest.mark.parametrize("bad", ["", "1/0", "1/-2", "a", "1.5", "2 /3", "--1", "1/+2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


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


# ---------------------------------------------------------------------------
# determinant and inverse


def test_det_small_cases():
    assert det_rat(identity(3)) == 1
    assert det_rat([[6, 0], [2, 1]]) == 6
    assert det_rat([[1, 2], [2, 4]]) == 0
    assert det_rat(rat_matrix([["4/5", "-3/5"], ["3/5", "4/5"]])) == 1


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
    ).filter(lambda m: det_rat(m) != 0)
)
def test_rat_inverse_multiplies_back(m):
    assert mat_mul(m, rat_inverse(m)) == rat_matrix(identity(4))


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=4, max_size=4
    ).filter(lambda m: det_rat(m) != 0)
)
def test_int_inverse_is_exact_and_lowest_terms(m):
    inv, den = int_inverse(m)
    assert den > 0
    assert mat_mul(m, inv) == tuple(tuple(den * x for x in row) for row in identity(4))
    assert gcd(den, *(x for row in inv for x in row)) == 1
    assert abs(det_rat(m)) % den == 0


def test_int_inverse_singular():
    with pytest.raises(Singular):
        int_inverse([[1, 2], [2, 4]])


# ---------------------------------------------------------------------------
# Hermite form


def test_hnf_identity():
    h, u = hnf(identity(2))
    assert h == identity(2)
    assert u == identity(2)


def test_hnf_worked_example():
    m = ((6, 0), (2, 1))
    h, u = hnf(m)
    assert h == ((2, 1), (0, 3))
    assert mat_mul(u, m) == h
    assert abs(det_rat(u)) == 1


def test_hnf_idempotent():
    for m in [((6, 0), (2, 1)), ((5, 3), (1, 2)), ((4, 0, 1), (0, 2, 7), (0, 0, 3))]:
        h, _ = hnf(m)
        h2, _ = hnf(h)
        assert h2 == h


def test_hnf_rejects_rank_deficient():
    with pytest.raises(RankDeficient):
        hnf(((1, 2), (2, 4)))
    with pytest.raises(RankDeficient):
        hnf(((0, 0), (0, 0)))


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
        if det_rat(m) == 0:
            continue
        h, u = hnf(m)
        assert mat_mul(u, m) == h
        assert abs(det_rat(u)) == 1
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


@settings(max_examples=80)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=3, max_size=3,
    ).filter(lambda m: det_rat(m) != 0)
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
    assert prod == abs(det_rat(m))
