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
from cslcolour.coincidence import analyze, commensurable_map, sigma
from cslcolour.cyclo8 import (
    AMMANN_BEENKER_ROTATION,
    CYC8_ONE,
    CYC8_XI,
    cyc8,
    cyc8_mul_matrix,
    multiplication_map,
    principal_submodule,
)
from cslcolour.errors import ZeroElement
from cslcolour.lattice import (
    Colouring,
    _window_columns,
    coset_reps,
    index,
    lattice_new,
    standard_lattice,
    transform,
)
from cslcolour.ratmat import mat_mul, transpose, vec_mat
from conftest import apply, contains, cyc8_norm, ref_det, star_coords

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
    assert all(type(x) is Fraction for x in fourth.coeffs)


def test_elements_are_integers_over_one_denominator_in_lowest_terms():
    assert AMMANN_BEENKER_ROTATION.num == (-1, 2, 0, 2)
    assert AMMANN_BEENKER_ROTATION.den == 3
    half = cyc8("2/4", 0, 0, "-3/6")
    assert (half.num, half.den) == ((1, 0, 0, -1), 2)
    # sums, products and conjugates come back reduced, so equal elements compare equal
    total = half + half
    assert (total.num, total.den) == ((1, 0, 0, -1), 1)
    product = AMMANN_BEENKER_ROTATION * AMMANN_BEENKER_ROTATION.conjugate()
    assert (product.num, product.den) == ((1, 0, 0, 0), 1) and product == CYC8_ONE
    assert half - half == cyc8(0, 0, 0, 0) and (half - half).den == 1


@settings(max_examples=80)
@given(elements, elements, elements)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (-a) * b == -(a * b) and a + (-a) == a - a
    assert a.conjugate() * b.conjugate() == (a * b).conjugate()


@settings(max_examples=60)
@given(elements, elements)
def test_norm_is_multiplicative(a, b):
    assert cyc8_norm(a * b) == cyc8_norm(a) * cyc8_norm(b)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: cyc8(1, 0, 0), ValueError),
        (lambda: principal_submodule(cyc8(0, 0, 0, 0)), ZeroElement),
        (lambda: multiplication_map(cyc8(0, 0, 0, 0)), ZeroElement),
    ],
    ids=["cyc8-of-3", "principal-submodule-of-zero", "multiplication-map-of-zero"],
)
def test_malformed_elements_are_refused(build, error):
    with pytest.raises(error):
        build()


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
    assert ref_det(cyc8_mul_matrix(z)) == cyc8_norm(z)


def test_norm_values():
    assert cyc8_norm(CYC8_ONE) == 1
    assert cyc8_norm(CYC8_XI) == 1
    assert cyc8_norm(ONE_PLUS_XI2) == 4
    assert cyc8_norm(AMMANN_BEENKER_ROTATION) == 1


def test_multiplication_map_applies_ring_product():
    z = AMMANN_BEENKER_ROTATION
    w = cyc8(2, -1, 0, 3)
    assert apply(multiplication_map(z), w.coeffs) == (w * z).coeffs


def test_multiplication_map_image_is_principal_submodule():
    for z in [CYC8_XI, ONE_PLUS_XI2, cyc8(1, 1, 0, 0)]:
        assert transform(Z4, multiplication_map(z).matrix) == principal_submodule(z)


def assert_is_the_rational_path_map(z):
    """multiplication_map(z), built from z's integers, equals the map parsed
    from the rational multiplication matrix, field by field."""
    amap = multiplication_map(z)
    ref = commensurable_map(transpose(cyc8_mul_matrix(z)))
    assert (amap.forward, amap.backward, amap.det) == (ref.forward, ref.backward, ref.det)


@settings(max_examples=80)
@given(elements)
def test_multiplication_map_is_the_rational_path_map(z):
    assume(not z.is_zero())
    assert_is_the_rational_path_map(z)


@pytest.mark.parametrize("g", [1, 3, 5, 7])
def test_multiplication_map_of_rotation_powers_is_the_rational_path_map(g):
    z = AMMANN_BEENKER_ROTATION.galois(g)
    power = z
    for _ in range(8):
        assert_is_the_rational_path_map(power)
        power = power * z


def test_multiplication_map_makes_one_fraction(monkeypatch):
    z = AMMANN_BEENKER_ROTATION * AMMANN_BEENKER_ROTATION * cyc8("1/2", 3, "-5/8", "7/3")
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    amap = multiplication_map(z)
    monkeypatch.undo()
    assert len(made) == 1 and amap.det == cyc8_norm(z)


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


@pytest.mark.parametrize(
    "z",
    [cyc8(1, -2, 3, 5), cyc8("1/3", "2/3", 0, "-4/3"), cyc8("5/27", 1, "-2/9", 0)]
    + [AMMANN_BEENKER_ROTATION.galois(g) for g in (1, 3, 5, 7)],
    ids=["den-1", "den-3", "den-27", "z", "z-galois-3", "z-galois-5", "z-galois-7"],
)
def test_principal_submodule_is_the_lattice_of_the_rational_matrix(z):
    """Built from z's integers, it equals the lattice read from cyc8_mul_matrix's Fractions."""
    assert principal_submodule(z) == lattice_new(cyc8_mul_matrix(z))


def test_is_unit_modulus_cases():
    # z encodes a plane rotation exactly when z . conj(z) = 1
    assert CYC8_XI * CYC8_XI.conjugate() == CYC8_ONE
    assert AMMANN_BEENKER_ROTATION * AMMANN_BEENKER_ROTATION.conjugate() == CYC8_ONE
    assert ONE_PLUS_XI2 * ONE_PLUS_XI2.conjugate() != CYC8_ONE


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
    sqrt2 = math.sqrt(2.0)
    columns = _window_columns(parent, parent, 2)
    kx, ky, position = render_module._embed(parent, columns, star=True)
    points = list(zip(*columns))
    assert len(points) == len(kx) == len(ky) == 5**4
    for coords, x, y in zip(points, map(position, kx), map(position, ky)):
        ambient = [Fraction(a, parent.den) for a in vec_mat(coords, parent.hnf_rows)]
        (xr, xq), (yr, yq) = star_coords(ambient)
        assert (x, y) == (float(xr) + float(xq) * sqrt2, float(yr) + float(yq) * sqrt2)


@settings(max_examples=40)
@given(elements, elements)
def test_star_coords_additive(a, b):
    sa = star_coords(a.coeffs)
    sb = star_coords(b.coeffs)
    sc = star_coords((a + b).coeffs)
    assert sc == tuple(
        (pa + qa, pb + qb) for (pa, pb), (qa, qb) in zip(sa, sb)
    )
