"""Rank-4 module tests: the 8th cyclotomic ring and its rotation glue.

Ring identities are checked by hypothesis over random small elements;
the distinguished rotation of the rank-4 module is pinned to its exact
analysis values.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cslcolour.render as render_module
from cslcolour.coincidence import analyze, sigma
from cslcolour.cyclo8 import (
    AMMANN_BEENKER_ROTATION,
    CYC8_ONE,
    CYC8_XI,
    cyc8,
    cyc8_mul_matrix,
    cyc8_norm,
    is_unit_modulus,
    multiplication_map,
    principal_submodule,
    star_coords,
)
from cslcolour.errors import ZeroElement
from cslcolour.lattice import (
    Colouring,
    _window_points,
    contains,
    coset_reps,
    index,
    lattice_new,
    standard_lattice,
    transform,
)
from cslcolour.ratmat import det_rat, mat_mul, vec_mat

Z4 = standard_lattice(4)
ONE_PLUS_XI2 = cyc8(1, 0, 1, 0)

coeff = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6
)
elements = st.tuples(coeff, coeff, coeff, coeff).map(cyc8)


# ---------------------------------------------------------------------------
# ring arithmetic


def test_basic_products():
    assert CYC8_XI * CYC8_XI == cyc8(0, 0, 1, 0)
    fourth = cyc8(0, 0, 0, 1) * CYC8_XI
    assert fourth == cyc8(-1, 0, 0, 0)  # xi^4 = -1
    assert (CYC8_ONE + CYC8_XI) * (CYC8_ONE - CYC8_XI) == cyc8(1, 0, -1, 0)


@settings(max_examples=80)
@given(elements, elements, elements)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a.conjugate() * b.conjugate() == (a * b).conjugate()


@settings(max_examples=60)
@given(elements, elements)
def test_norm_is_multiplicative(a, b):
    assert cyc8_norm(a * b) == cyc8_norm(a) * cyc8_norm(b)


def test_galois_structure():
    assert CYC8_XI.conjugate() == cyc8(0, 0, 0, -1)  # xi^-1 = -xi^3
    z = cyc8("1/2", 2, -1, "3/4")
    assert z.galois(3).galois(3) == z
    assert z.galois(5).galois(5) == z
    assert z.galois(7) == z.conjugate()
    with pytest.raises(ValueError):
        z.galois(2)


# ---------------------------------------------------------------------------
# multiplication matrices


def test_mul_matrix_of_one_and_xi():
    assert cyc8_mul_matrix(CYC8_ONE) == tuple(
        tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)
    )
    assert cyc8_mul_matrix(CYC8_XI) == (
        (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0),
    )


def test_mul_matrix_rejects_zero():
    with pytest.raises(ZeroElement):
        cyc8_mul_matrix(cyc8(0, 0, 0, 0))


@settings(max_examples=60)
@given(elements, elements)
def test_mul_matrix_is_a_homomorphism(a, b):
    assume(not a.is_zero() and not b.is_zero() and not (a * b).is_zero())
    assert mat_mul(cyc8_mul_matrix(a), cyc8_mul_matrix(b)) == cyc8_mul_matrix(a * b)


@settings(max_examples=60)
@given(elements)
def test_mul_matrix_det_is_the_norm(z):
    assume(not z.is_zero())
    assert det_rat(cyc8_mul_matrix(z)) == cyc8_norm(z)


def test_norm_values():
    assert cyc8_norm(CYC8_ONE) == 1
    assert cyc8_norm(CYC8_XI) == 1
    assert cyc8_norm(ONE_PLUS_XI2) == 4
    assert cyc8_norm(AMMANN_BEENKER_ROTATION) == 1


def test_multiplication_map_applies_ring_product():
    z = AMMANN_BEENKER_ROTATION
    w = cyc8(2, -1, 0, 3)
    assert multiplication_map(z).apply(w.coeffs) == (w * z).coeffs


def test_multiplication_map_image_is_principal_submodule():
    for z in [CYC8_XI, ONE_PLUS_XI2, cyc8(1, 1, 0, 0)]:
        assert transform(Z4, multiplication_map(z).matrix) == principal_submodule(z)


# ---------------------------------------------------------------------------
# submodules


def test_principal_submodule_units_give_whole_module():
    assert principal_submodule(CYC8_ONE) == Z4
    assert principal_submodule(CYC8_XI) == Z4


def test_principal_submodule_index_equals_norm():
    sub = principal_submodule(ONE_PLUS_XI2)
    assert index(Z4, sub) == 4
    assert sub == lattice_new(
        [[1, 0, 1, 0], [0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, 1]]
    )


def test_quotient_by_one_plus_xi2_is_two_two():
    sub = principal_submodule(ONE_PLUS_XI2)
    reps = coset_reps(Z4, sub)
    assert len(reps) == 4
    # every doubled representative falls back in: the quotient is (Z/2)^2
    for r in reps:
        assert contains(sub, tuple(2 * x for x in r))


def test_is_unit_modulus_cases():
    assert is_unit_modulus(CYC8_XI)
    assert is_unit_modulus(AMMANN_BEENKER_ROTATION)
    assert not is_unit_modulus(ONE_PLUS_XI2)


# ---------------------------------------------------------------------------
# the distinguished rank-4 rotation


def test_rank4_rotation_analysis_exact():
    amap = multiplication_map(AMMANN_BEENKER_ROTATION)
    assert sigma(Z4, amap) == 9
    colouring = Colouring(
        Z4,
        principal_submodule(ONE_PLUS_XI2),
        reps=[[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]],
    )
    a = analyze(colouring, amap)
    assert (a.m, a.sigma1, a.sigma2) == (4, 9, 9)
    assert (a.s, a.t, a.u, a.v) == (4, 4, 1, 1)
    assert a.colour_coincidence is True
    assert a.permutation == ((0, 0), (1, 1), (2, 2), (3, 3))


def test_rank4_rotation_inverse_symmetry():
    amap = multiplication_map(AMMANN_BEENKER_ROTATION)
    conj_map = multiplication_map(AMMANN_BEENKER_ROTATION.conjugate())
    assert amap.inverse_map.matrix == conj_map.matrix
    assert sigma(Z4, amap.inverse_map) == 9


# ---------------------------------------------------------------------------
# star embedding


def test_star_coords_exact_values():
    assert star_coords((1, 0, 0, 0)) == ((1, 0), (0, 0))
    assert star_coords((0, 1, 0, 0)) == (
        (0, Fraction(1, 2)), (0, Fraction(1, 2))
    )
    assert star_coords((0, 0, 1, 0)) == ((0, 0), (1, 0))
    z = AMMANN_BEENKER_ROTATION
    assert star_coords(z.coeffs) == (
        (Fraction(-1, 3), 0), (0, Fraction(2, 3))
    )


def test_star_coords_numeric_rotation_check():
    # the distinguished rotation must sit on the unit circle numerically
    (xr, xs), (yr, ys) = star_coords(AMMANN_BEENKER_ROTATION.coeffs)
    s2 = 2 ** 0.5
    x = float(xr) + float(xs) * s2
    y = float(yr) + float(ys) * s2
    assert x == pytest.approx(-1 / 3)
    assert x * x + y * y == pytest.approx(1.0)


@pytest.mark.parametrize(
    "parent", [Z4, principal_submodule(AMMANN_BEENKER_ROTATION)], ids=["Z4", "den3-submodule"]
)
def test_star_render_embedding_is_the_star_coords_formula(parent):
    colouring = Colouring(parent, parent)
    sqrt2 = math.sqrt(2.0)
    points = _window_points(parent, parent, 2)
    assert len(points) == 5**4
    for coords in points:
        ambient = [Fraction(a, parent.den) for a in vec_mat(coords, parent.hnf_rows)]
        (xr, xs), (yr, ys) = star_coords(ambient)
        want = (float(xr) + float(xs) * sqrt2, float(yr) + float(ys) * sqrt2)
        assert render_module._embed_star(colouring, coords) == want


@settings(max_examples=40)
@given(elements, elements)
def test_star_coords_additive(a, b):
    sa = star_coords(a.coeffs)
    sb = star_coords(b.coeffs)
    sc = star_coords((a + b).coeffs)
    assert sc == tuple(
        (pa + qa, pb + qb) for (pa, pb), (qa, qb) in zip(sa, sb)
    )
