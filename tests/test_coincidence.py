"""Coincidence machinery tests: CSLs, index diagrams, colour coincidences.

The worked planar examples are pinned to their exact expected values;
structural identities are then exercised across the whole rotation
corpus and a list of sublattices of index up to 12.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import (
    CUBIC_SUBLATTICES,
    SUBLATTICE_BASES,
    apply,
    cayley_rotation,
    contains,
    cubic_rotations,
    hls_palette_entry,
    is_orthogonal,
    ref_det,
)

from cslcolour import cli, render
from cslcolour.coincidence import (
    analyze,
    census_contradictions,
    colour_permutation,
    commensurable_map,
    csl,
    enumerate_square_rotations,
    is_coincidence,
    is_colour_coincidence,
    sigma,
    window_census,
)
from cslcolour.cyclo8 import (
    AMMANN_BEENKER_ROTATION,
    cyc8,
    multiplication_map,
    principal_submodule,
)
from cslcolour.errors import (
    NotCoincidence,
    NotColourCoincidence,
    Singular,
    UnsupportedDimension,
)
from cslcolour.lattice import (
    Colouring,
    colour_of,
    index,
    intersect,
    lattice_new,
    standard_lattice,
    transform,
)
from cslcolour.ratmat import (
    clear_denominators,
    mat_mul,
    rat_inverse,
    rat_matrix,
    transpose,
    vec_mat,
)

CONFIG_DIR = Path(cli.__file__).parent / "configs"

Z2 = standard_lattice(2)
ROT = commensurable_map([["4/5", "-3/5"], ["3/5", "4/5"]])
IDENTITY = commensurable_map([[1, 0], [0, 1]])

EX1 = Colouring(
    Z2,
    lattice_new([[6, 0], [2, 1]]),
    reps=[[0, 0], [1, 0], [2, 0], [3, 0], [4, 0], [5, 0]],
)
EX2 = Colouring(Z2, lattice_new([[3, 0], [0, 1]]), reps=[[0, 0], [1, 0], [2, 0]])
RECT = Colouring(Z2, lattice_new([[2, 0], [0, 1]]))


def corpus(max_den=5):
    return enumerate_square_rotations(max_den)


def sublattices():
    return [lattice_new(b) for b in SUBLATTICE_BASES]


# ---------------------------------------------------------------------------
# maps and plain CSLs


def test_commensurable_map_carries_exact_inverse():
    assert apply(ROT, (1, 0)) == (pytest.approx(0.8), pytest.approx(0.6))
    assert apply(ROT.inverse_map, apply(ROT, (2, 7))) == (2, 7)
    assert ROT.det == 1
    assert is_orthogonal(ROT)


@st.composite
def invertible_matrices(draw):
    """Square rational matrices of size 1 to 4 with nonzero determinant."""
    d = draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
    assume(ref_det(rows) != 0)
    return rows


@settings(max_examples=100, deadline=None)
@given(invertible_matrices())
def test_a_map_is_its_integer_forms_in_lowest_terms(rows):
    a = rat_matrix(rows)
    amap = commensurable_map(rows)
    assert amap.forward == clear_denominators(transpose(a))
    assert amap.backward == clear_denominators(transpose(rat_inverse(a)))
    assert amap.matrix == a
    assert amap.det == ref_det(a)
    assert amap.inverse_map.matrix == rat_inverse(a)
    assert amap.inverse_map.inverse_map == amap


@pytest.mark.parametrize(
    "rows, error",
    [
        ([[1, 0], [0]], ValueError),  # ragged
        ([[1, 0, 0], [0, 1, 0]], ValueError),  # not square
        ([[1, 2], ["1/2", 1]], Singular),
        ([], ValueError),  # empty
    ],
)
def test_commensurable_map_refuses_what_is_not_invertible(rows, error):
    with pytest.raises(error):
        commensurable_map(rows)


def test_is_coincidence_cases():
    assert is_coincidence(Z2, IDENTITY)
    assert is_coincidence(Z2, ROT)
    stretch = commensurable_map([[2, 0], [0, "1/2"]])
    assert is_coincidence(Z2, stretch)  # |det| = 1 without orthogonality
    assert not is_orthogonal(stretch)
    assert not is_coincidence(Z2, commensurable_map([[2, 0], [0, 1]]))


def test_csl_worked_example():
    inter = csl(Z2, ROT)
    assert inter == lattice_new([[1, 2], [-2, 1]])
    assert sigma(Z2, ROT) == 5


def test_csl_non_orthogonal_coincidence():
    stretch = commensurable_map([[2, 0], [0, "1/2"]])
    assert csl(Z2, stretch) == lattice_new([[2, 0], [0, 1]])
    assert sigma(Z2, stretch) == 2


def test_csl_rejects_non_coincidence():
    with pytest.raises(NotCoincidence):
        csl(Z2, commensurable_map([[2, 0], [0, 1]]))


def test_sigma_of_inverse_equals_sigma():
    for amap in corpus():
        assert sigma(Z2, amap) == sigma(Z2, amap.inverse_map)


# ---------------------------------------------------------------------------
# worked examples, pinned


def test_analyze_example1_exact():
    a = analyze(EX1, ROT)
    assert (a.m, a.sigma1, a.sigma2) == (6, 5, 10)
    assert (a.s, a.t, a.u, a.v) == (6, 6, 2, 2)
    assert a.colour_coincidence is False
    assert a.permutation is None
    assert a.set_I == tuple(range(6))
    assert a.set_J == tuple(range(6))
    assert a.csl1 == lattice_new([[1, 2], [-2, 1]])


def test_analyze_example2_exact():
    a = analyze(EX2, ROT)
    assert (a.m, a.sigma1, a.sigma2) == (3, 5, 5)
    assert (a.s, a.t, a.u, a.v) == (3, 3, 1, 1)
    assert a.colour_coincidence is True
    assert a.permutation == ((0, 0), (1, 2), (2, 1))


def test_analyze_rectangular_index2():
    # s = t = m with distinct coincidence indices: not a colour coincidence
    a = analyze(RECT, ROT)
    assert (a.m, a.sigma1, a.sigma2) == (2, 5, 10)
    assert (a.s, a.t, a.u, a.v) == (2, 2, 2, 2)
    assert a.colour_coincidence is False


def test_analyze_identity_map():
    a = analyze(EX1, IDENTITY)
    assert (a.sigma1, a.sigma2) == (1, 1)
    assert (a.s, a.t, a.u, a.v) == (6, 6, 1, 1)
    assert a.colour_coincidence is True
    assert a.permutation == tuple((i, i) for i in range(6))


# ---------------------------------------------------------------------------
# colour coincidence criterion


def test_is_colour_coincidence_examples():
    assert is_colour_coincidence(EX2, ROT)
    assert not is_colour_coincidence(EX1, ROT)
    assert is_colour_coincidence(EX1, IDENTITY)


def test_colour_permutation_requires_coincidence():
    with pytest.raises(NotColourCoincidence):
        colour_permutation(EX1, ROT)


def test_colour_coincidence_symmetric_in_inversion():
    subs = sublattices()
    for amap in corpus():
        for sub in subs:
            colouring = Colouring(Z2, sub)
            fwd = is_colour_coincidence(colouring, amap)
            assert fwd == is_colour_coincidence(colouring, amap.inverse_map)
            if fwd:
                perm = dict(colour_permutation(colouring, amap))
                back = dict(colour_permutation(colouring, amap.inverse_map))
                assert back == {j: i for i, j in perm.items()}


def colour_coincidence_pairs(colourings, rotations, count, seed):
    """`count` seeded triples (colouring, A, B), A and B colour coincidences of it.

    Also returns the verdicts over every (colouring, rotation), so that a
    caller can check that both occur.
    """
    found = {}
    verdicts = Counter()
    for colouring in colourings:
        found[colouring] = []
        for amap in rotations:
            verdict = is_colour_coincidence(colouring, amap)
            verdicts[verdict] += 1
            if verdict:
                found[colouring].append(amap)
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        colouring = rng.choice(colourings)
        pairs.append((colouring, rng.choice(found[colouring]), rng.choice(found[colouring])))
    return pairs, verdicts


def corpus_colourings():
    return [Colouring(Z2, lattice_new(rows)) for rows in SUBLATTICE_BASES]


def cubic_colourings():
    return [Colouring(standard_lattice(3), lattice_new(rows)) for rows in CUBIC_SUBLATTICES]


def cubic_maps(max_norm):
    return [commensurable_map(rows) for _, rows in cubic_rotations(max_norm)]


def product_map(a, b):
    """The map AB: x -> A(B(x))."""
    return commensurable_map(mat_mul(a.matrix, b.matrix))


def test_colour_coincidences_compose_on_a_corpus_sample():
    """The product of two colour coincidences of a colouring is again one.

    The paper extends colour symmetry to coincidence isometries; only its
    abstract is at hand here, so this checks closure on these inputs, not
    a stated theorem: 300 seeded ordered pairs among the colour
    coincidences in `enumerate_square_rotations(65)`, on each of the 12
    corpus sublattices.  With closure under inverses (above), the colour
    coincidences form a group on this sample.
    """
    pairs, verdicts = colour_coincidence_pairs(
        corpus_colourings(), enumerate_square_rotations(65), 300, 20261019
    )
    assert verdicts[True] and verdicts[False]
    nontrivial = 0
    for colouring, a, b in pairs:
        ab = product_map(a, b)
        assert is_colour_coincidence(colouring, ab)
        nontrivial += sigma(Z2, ab) > 1
    assert nontrivial > 100


def test_colour_coincidences_compose_on_a_cubic_sample():
    """The same closure on Z^3, on these inputs only: 150 seeded ordered
    pairs among the colour coincidences of the 192 rotations R(q) with
    |q|^2 <= 9 (`cubic_rotations`), on each of the four `CUBIC_SUBLATTICES`.
    Both verdicts occur among the 768 (sublattice, rotation) cases.
    """
    rotations = cubic_maps(9)
    assert len(rotations) == 192
    pairs, verdicts = colour_coincidence_pairs(cubic_colourings(), rotations, 150, 20261020)
    assert verdicts[True] and verdicts[False]
    nontrivial = 0
    for colouring, a, b in pairs:
        ab = product_map(a, b)
        assert is_colour_coincidence(colouring, ab)
        nontrivial += sigma(colouring.parent, ab) > 1
    assert nontrivial > 50


@pytest.mark.parametrize("dim", [2, 3])
def test_colour_permutations_compose_at_points(dim):
    """perm_AB(colour(x)) = perm_A(perm_B(colour(x))), point by point.

    For x in csl(B^-1) with B(x) in csl(A^-1), x lies in csl((AB)^-1),
    and both sides are the colour of A(B(x)).  The permutations come from
    `analyze`; the window points are read one at a time by `contains`,
    `apply` and `colour_of`, with no walk.  Seeded pairs of colour
    coincidences on the corpus (d = 2) and cubic (d = 3) sublattices.
    """
    if dim == 2:
        colourings, rotations, radius = corpus_colourings(), enumerate_square_rotations(25), 8
    else:
        colourings, rotations, radius = cubic_colourings(), cubic_maps(9), 2
    pairs, _ = colour_coincidence_pairs(colourings, rotations, 25, 20261021 + dim)
    checked = moved = 0
    for colouring, a, b in pairs:
        ab = product_map(a, b)
        perm_a, perm_b, perm_ab = (dict(colour_permutation(colouring, m)) for m in (a, b, ab))
        inv_a, inv_b, inv_ab = (csl(colouring.parent, m.inverse_map) for m in (a, b, ab))
        for x in product(range(-radius, radius + 1), repeat=dim):
            if not (contains(inv_b, x) and contains(inv_a, apply(b, x))):
                continue
            assert contains(inv_ab, x)
            colour = colour_of(colouring, x)
            image = colour_of(colouring, apply(ab, x))
            assert perm_ab[colour] == perm_a[perm_b[colour]] == image
            checked += 1
            moved += image != colour
    assert checked > 150 and moved > 30


# ---------------------------------------------------------------------------
# structural identities across the corpus


def test_nested_meet_identity():
    subs = sublattices()
    special = 0
    for amap in corpus():
        csl1 = csl(Z2, amap)
        for sub in subs:
            image = transform(sub, amap.matrix)
            sub_in_csl = intersect(sub, csl1)
            image_in_csl = intersect(image, csl1)
            csl2 = intersect(sub, image)
            assert intersect(sub_in_csl, image_in_csl) == csl2
            if sub_in_csl == image_in_csl:
                special += 1
                assert sub_in_csl == csl2
    # the identity rotation alone makes every sublattice a special case
    assert special >= len(subs)


def test_index_formula_and_divisibilities():
    subs = sublattices()
    seen_unequal_st = 0
    for amap in corpus():
        for sub in subs:
            a = analyze(Colouring(Z2, sub), amap)
            assert a.sigma2 * a.m == a.t * a.u * a.sigma1
            assert a.sigma2 * a.m == a.s * a.v * a.sigma1
            assert a.m % a.s == 0 and a.m % a.t == 0
            assert a.s % a.u == 0 and a.t % a.v == 0
            assert a.t * a.u == a.s * a.v
            assert len(a.set_I) == a.s and len(a.set_J) == a.t
            assert (a.s == a.t) == (a.u == a.v)
            assert (a.m * a.sigma2) % a.sigma1 == 0
            assert (a.m * a.sigma1) % a.sigma2 == 0
            if a.colour_coincidence:
                assert a.sigma1 % a.sigma2 == 0
            if a.s != a.t:
                seen_unequal_st += 1
    assert seen_unequal_st > 0  # the corpus must exercise the asymmetric case


def test_full_colour_case_both_directions():
    # when s = t = m, colour coincidence is exactly sigma1 == sigma2
    a_true = analyze(EX2, ROT)
    assert a_true.s == a_true.t == a_true.m and a_true.colour_coincidence
    a_false = analyze(RECT, ROT)
    assert a_false.s == a_false.t == a_false.m and not a_false.colour_coincidence


def test_zero_colour_density_in_csl():
    # within csl1, a fraction of exactly 1/t of the points carry colour 0
    for amap in [ROT, commensurable_map([["3/5", "-4/5"], ["4/5", "3/5"]])]:
        for colouring in [EX1, EX2, RECT]:
            a = analyze(colouring, amap)
            box = range(a.t)  # t is a multiple of the quotient exponent
            hits = 0
            for z in product(box, repeat=2):
                point = vec_mat(z, a.csl1.basis)
                if colour_of(colouring, point) == 0:
                    hits += 1
            assert hits * a.t == a.t ** 2


# ---------------------------------------------------------------------------
# rotation corpus


def test_enumerate_max_den_one():
    maps = enumerate_square_rotations(1)
    assert len(maps) == 4
    assert maps[0].matrix == IDENTITY.matrix
    quarter = commensurable_map([[0, -1], [1, 0]])
    assert any(m.matrix == quarter.matrix for m in maps)


def test_enumerate_all_orthogonal_and_distinct():
    maps = enumerate_square_rotations(5)
    assert len(maps) == 12
    assert len({m.matrix for m in maps}) == 12
    for m in maps:
        assert is_orthogonal(m)
        assert abs(m.det) == 1
    assert any(m.matrix == ROT.matrix for m in maps)


def test_enumerate_deterministic():
    first = [m.matrix for m in enumerate_square_rotations(13)]
    second = [m.matrix for m in enumerate_square_rotations(13)]
    assert first == second


def scanned_rotations(max_den):
    """(a, b, n) by the definition: every a from n down to -n, b = +-sqrt(n^2 - a^2)."""
    out = []
    for n in range(1, max_den + 1):
        for a in range(n, -n - 1, -1):
            b = isqrt(n * n - a * a)
            if b * b == n * n - a * a:
                out += [(a, sb, n) for sb in ((b, -b) if b else (0,)) if gcd(a, sb) == 1]
    return out


@pytest.mark.parametrize("max_den", [0, 1, 4, 5, 24, 25, 65, 299, 300])
def test_enumerate_matches_the_quadratic_scan(max_den):
    maps = enumerate_square_rotations(max_den)
    got = [
        (m.matrix[0][0] * n, m.matrix[1][0] * n, n)
        for m in maps
        for n in [lcm(*(x.denominator for row in m.matrix for x in row))]
    ]
    assert got == scanned_rotations(max_den)
    # inverse and det are written down, not computed: they match the
    # validated construction
    assert maps == [commensurable_map(m.matrix) for m in maps]


# ---------------------------------------------------------------------------
# the cubic lattice: a closed form that shares no code with intersect


def test_sigma_of_cubic_rotations_is_odd_part_of_quaternion_norm():
    """Grimmer (1974), Baake (1997): for a primitive integer quaternion q,
    the rotation R(q) of Z^3 has coincidence index |q|^2 / 2^l, the odd
    part of |q|^2."""
    z3 = standard_lattice(3)
    rotations = cubic_rotations(30)
    identities = 0
    for q, rows in rotations:
        odd = sum(x * x for x in q)
        while odd % 2 == 0:
            odd //= 2
        amap = commensurable_map(rows)
        assert is_orthogonal(amap) and amap.det == 1
        assert sigma(z3, amap) == odd, q
        identities += odd == 1
    # the 24 rotations of the cube are exactly the coincidences of index 1
    assert identities == 24
    assert len(rotations) > 2000


def test_count_of_cubic_csls_by_index():
    """Baake (1997): for odd n, the number of distinct CSLs of Z^3 of
    index n is Dedekind's psi(n) = n . prod_{p | n} (1 + 1/p), and no
    CSL of Z^3 has even index.

    Every coincidence rotation of Z^3 is R(q) for a primitive integer
    quaternion q, of index the odd part of |q|^2.  A primitive q has
    |q|^2 not divisible by 8 (a sum of four squares is 0 mod 8 only when
    all four are even), so its index is |q|^2, |q|^2 / 2 or |q|^2 / 4.
    A norm bound of 4N therefore covers every index up to N: 44 for 11.
    """
    def psi(n):
        out = n
        for p in range(2, n + 1):
            if n % p == 0 and all(p % k for k in range(2, p)):
                out = out // p * (p + 1)
        return out

    z3 = standard_lattice(3)
    by_index: dict[int, set] = {}
    for _, rows in cubic_rotations(44):
        lat = csl(z3, commensurable_map(rows))
        n = index(z3, lat)
        if n <= 11:
            by_index.setdefault(n, set()).add(lat)
    counts = {n: len(lats) for n, lats in by_index.items()}
    assert counts == {n: psi(n) for n in range(1, 12, 2)}


# ---------------------------------------------------------------------------
# the inverse map: a metamorphic relation across d = 2 and 3


def assert_inverse_relation(colouring, amap):
    """analyze under A^-1 swaps I and J, s and t, u and v, and inverts
    the permutation; m, both indices and the verdict stay."""
    fwd = analyze(colouring, amap)
    back = analyze(colouring, amap.inverse_map)
    assert (back.m, back.sigma1, back.sigma2) == (fwd.m, fwd.sigma1, fwd.sigma2)
    assert (back.s, back.t, back.u, back.v) == (fwd.t, fwd.s, fwd.v, fwd.u)
    assert (back.set_I, back.set_J) == (fwd.set_J, fwd.set_I)
    assert (back.csl1, back.csl1_inv) == (fwd.csl1_inv, fwd.csl1)
    assert back.colour_coincidence == fwd.colour_coincidence
    if fwd.permutation is not None:
        assert back.permutation == tuple(sorted((j, i) for i, j in fwd.permutation))
    return fwd


PLANAR_INVERSE_SAMPLE = random.Random(20261018).sample(
    [(r, b) for r in range(52) for b in range(len(SUBLATTICE_BASES))], 120
)


def test_inverse_map_relation_on_planar_corpus_sample():
    rotations = enumerate_square_rotations(40)
    verdicts = Counter(
        assert_inverse_relation(
            Colouring(Z2, lattice_new(SUBLATTICE_BASES[b])), rotations[r]
        ).colour_coincidence
        for r, b in PLANAR_INVERSE_SAMPLE
    )
    assert verdicts[True] and verdicts[False]


def test_inverse_map_relation_on_cubic_sublattices():
    z3 = standard_lattice(3)
    verdicts = Counter(
        assert_inverse_relation(
            Colouring(z3, lattice_new(sub_rows)), commensurable_map(rows)
        ).colour_coincidence
        for _, rows in cubic_rotations(9)
        for sub_rows in CUBIC_SUBLATTICES
    )
    assert verdicts[True] and verdicts[False]


def random_invertible(rng, d):
    """A seeded random invertible rational d x d matrix."""
    while True:
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)] for _ in range(d)]
        if ref_det(m):
            return m


def conjugate(colouring, amap, m):
    """The colouring and map in new coordinates: rows L -> L.M, A^T -> M^-1.A^T.M."""
    parent = lattice_new(mat_mul(colouring.parent.basis, m))
    sub = lattice_new(mat_mul(colouring.sub.basis, m))
    a_t = mat_mul(mat_mul(rat_inverse(m), transpose(amap.matrix)), m)
    return Colouring(parent, sub), commensurable_map(transpose(a_t))


CONJUGATION_SAMPLE = random.Random(20261019).sample(
    [(r, b) for r in range(52) for b in range(len(SUBLATTICE_BASES))], 100
)


def change_of_coordinates_cases():
    """100 planar corpus cases, the cubic rotations of norm <= 9 on the
    cubic sublattices, and z^1..z^3 on three sublattices of the
    eightfold module (two submodules and one that is not)."""
    rotations = enumerate_square_rotations(40)
    cases = [
        (Colouring(Z2, lattice_new(SUBLATTICE_BASES[b])), rotations[r])
        for r, b in CONJUGATION_SAMPLE
    ]
    z3 = standard_lattice(3)
    cases += [
        (Colouring(z3, lattice_new(sub_rows)), commensurable_map(rows))
        for _, rows in cubic_rotations(9)
        for sub_rows in CUBIC_SUBLATTICES
    ]
    z4 = standard_lattice(4)
    module_subs = [
        principal_submodule(cyc8(1, 0, 1, 0)),
        principal_submodule(cyc8(1, 1, 0, 1)),
        lattice_new([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    ]
    cases += [(Colouring(z4, sub), _module8_power(k)) for k in (1, 2, 3) for sub in module_subs]
    return cases


def test_analysis_is_invariant_under_change_of_coordinates():
    """Conjugating parent, sub and map by M keeps every index and the
    verdict; I, J and the permutation agree once each colour is renamed
    to the colour of its rep . M."""
    rng = random.Random(7)
    verdicts = Counter()
    renamed = Counter()
    for colouring, amap in change_of_coordinates_cases():
        d = colouring.parent.dim
        m = random_invertible(rng, d)
        conj, conj_map = conjugate(colouring, amap, m)
        before = analyze(colouring, amap)
        after = analyze(conj, conj_map)
        fields = ("m", "sigma1", "sigma2", "s", "t", "u", "v", "colour_coincidence")
        assert [getattr(after, f) for f in fields] == [getattr(before, f) for f in fields]
        assert after.csl1 == lattice_new(mat_mul(before.csl1.basis, m))
        rename = [colour_of(conj, vec_mat(rep, m)) for rep in colouring.reps]
        assert sorted(rename) == list(range(colouring.m))
        renamed[d] += rename != sorted(rename)
        assert after.set_I == tuple(sorted(rename[i] for i in before.set_I))
        assert after.set_J == tuple(sorted(rename[j] for j in before.set_J))
        if before.permutation is not None:
            assert after.permutation == tuple(
                sorted((rename[i], rename[j]) for i, j in before.permutation)
            )
        verdicts[d, before.colour_coincidence] += 1
    for d in (2, 3, 4):
        assert verdicts[d, True] and verdicts[d, False]
        assert renamed[d]


def test_coincidence_index_of_a_product_divides_the_product_of_indices():
    """Baake (1997): sigma(AB) divides sigma(A).sigma(B), with equality
    for rotations of Z^2 whose indices are coprime."""
    rng = random.Random(11)
    rotations = enumerate_square_rotations(40)
    coprime = strict = 0
    for _ in range(300):
        a, b = rng.choice(rotations), rng.choice(rotations)
        ab = commensurable_map(mat_mul(a.matrix, b.matrix))
        sa, sb, sab = sigma(Z2, a), sigma(Z2, b), sigma(Z2, ab)
        assert (sa * sb) % sab == 0
        if gcd(sa, sb) == 1:
            coprime += 1
            assert sab == sa * sb
        strict += sab < sa * sb
    assert coprime and strict


def test_count_of_square_rotations_by_index():
    """Pleasants, Baake & Roth (1996): among the rotations of Z^2, the
    number with coincidence index n is 4.2^w(n) when every prime factor
    of n is 1 mod 4, w(n) the number of distinct primes, and 0
    otherwise.  Every rotation of index n <= 400 has denominator n."""
    def expected(n):
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % k for k in range(2, p))]
        return 4 * 2 ** len(primes) if all(p % 4 == 1 for p in primes) else 0

    counts = Counter(sigma(Z2, amap) for amap in enumerate_square_rotations(400))
    assert counts == Counter({n: expected(n) for n in range(1, 401) if expected(n)})
    assert sum(counts.values()) == 508


# ---------------------------------------------------------------------------
# window census


def test_window_census_example1():
    census = window_census(EX1, ROT, 10)
    assert census["points_scanned"] == 441
    assert census["observed_I"] == list(range(6))
    assert census["observed_J"] == list(range(6))
    assert census["transfer"] == [
        [0, [0, 3]], [1, [2, 5]], [2, [1, 4]],
        [3, [0, 3]], [4, [2, 5]], [5, [1, 4]],
    ]
    assert census["count_csl"] == census["count_csl_inv"] > 0


def test_window_census_example2_matches_permutation():
    a = analyze(EX2, ROT)
    census = window_census(EX2, ROT, 10)
    assert census["transfer"] == [[i, [j]] for i, j in a.permutation]
    assert census_contradictions(a, census) == []


def test_window_census_identity():
    census = window_census(EX1, IDENTITY, 1)
    assert census["count_csl"] == 9
    assert census["count_csl_inv"] == 9
    for i, js in census["transfer"]:
        assert js == [i]


def test_window_census_rejects_bad_radius():
    with pytest.raises(ValueError):
        window_census(EX1, ROT, 0)


def test_window_census_grows_towards_prediction():
    a = analyze(EX1, ROT)
    small = window_census(EX1, ROT, 2)
    large = window_census(EX1, ROT, 10)
    assert set(small["observed_I"]) <= set(large["observed_I"])
    assert set(small["observed_J"]) <= set(large["observed_J"])
    assert large["observed_I"] == list(a.set_I)
    assert large["observed_J"] == list(a.set_J)


def test_census_contradictions_accepts_consistent_pairs():
    for colouring, amap in [(EX1, ROT), (EX2, ROT), (RECT, ROT), (EX1, IDENTITY)]:
        a = analyze(colouring, amap)
        census = window_census(colouring, amap, 6)
        assert census_contradictions(a, census) == []


def test_census_contradictions_detects_tampering():
    a = analyze(EX2, ROT)
    census = window_census(EX2, ROT, 6)
    bad_transfer = dict(census)
    bad_transfer["transfer"] = [[0, [0]], [1, [1]], [2, [2]]]
    problems = census_contradictions(a, bad_transfer)
    assert len(problems) == 2 and "permutation says" in problems[0]
    bad_colours = dict(census)
    bad_colours["observed_J"] = census["observed_J"] + [8]
    assert census_contradictions(a, bad_colours) == [
        "colours [8] observed in csl1 but not predicted"
    ]
    bad_colours = dict(census)
    bad_colours["observed_I"] = census["observed_I"] + [7]
    assert census_contradictions(a, bad_colours) != []
    # an unpredicted csl1_inv colour with a transfer is reported once, not looked up
    bad_colours["transfer"] = census["transfer"] + [[7, [0]]]
    assert census_contradictions(a, bad_colours) == [
        "colours [7] observed in csl1_inv but not predicted"
    ]


def test_census_observes_subsets_across_corpus():
    subs = [lattice_new(b) for b in SUBLATTICE_BASES[:6]]
    for amap in corpus(3):
        for sub in subs:
            colouring = Colouring(Z2, sub)
            a = analyze(colouring, amap)
            census = window_census(colouring, amap, 4)
            assert census_contradictions(a, census) == []


# ---------------------------------------------------------------------------
# census and render membership


def _box_scan(parent, amap, radius):
    """Parent coordinates in the window of the points of each CSL, by `contains`."""
    fwd = csl(parent, amap)
    inv = csl(parent, amap.inverse_map)
    in_fwd = set()
    in_inv = set()
    for coords in product(range(-radius, radius + 1), repeat=parent.dim):
        point = vec_mat(coords, parent.basis)
        if contains(fwd, point):
            in_fwd.add(coords)
        if contains(inv, point):
            in_inv.add(coords)
    return in_fwd, in_inv


def _module8_power(k):
    z = AMMANN_BEENKER_ROTATION
    for _ in range(k - 1):
        z = z * AMMANN_BEENKER_ROTATION
    return multiplication_map(z)


MEMBERSHIP_CASES = [
    # parent/CSL is Z_3^k x Z_3^k: two nontrivial SNF factors
    # (radius 4 sees only the origin of the CSLs of z^3)
    *(
        pytest.param(
            Colouring(standard_lattice(4), principal_submodule(cyc8(1, 0, 1, 0))),
            _module8_power(k),
            radius,
            id=f"module8-z{k}",
        )
        for k, radius in ((1, 3), (2, 3), (3, 5))
    ),
    pytest.param(
        Colouring(standard_lattice(3), lattice_new([[2, 0, 0], [0, 2, 0], [0, 0, 2]])),
        commensurable_map(cayley_rotation(1, 2, 1, 1)),
        4,
        id="cubic-sigma7",
    ),
    # the window, 21 points wide, is narrower than the exponents of
    # parent/sub (600) and parent/CSL (25)
    pytest.param(
        Colouring(Z2, lattice_new([[1, 7], [0, 600]])),
        commensurable_map([["7/25", "-24/25"], ["24/25", "7/25"]]),
        10,
        id="large-index",
    ),
    # a parent with den 2 and a non-diagonal Hermite basis, [[1, 2], [0, 5]] / 2:
    # half the Gaussian ideal (1 + 2i), so the CSLs have index 5
    pytest.param(
        Colouring(lattice_new([["1/2", 1], [0, "5/2"]]), lattice_new([[1, "9/2"], [0, "15/2"]])),
        ROT,
        6,
        id="rational-parent",
    ),
]


@pytest.mark.parametrize("colouring, amap, radius", MEMBERSHIP_CASES)
def test_census_and_render_membership_match_a_box_scan(colouring, amap, radius):
    in_fwd, in_inv = _box_scan(colouring.parent, amap, radius)
    census = window_census(colouring, amap, radius)
    assert census["count_csl"] == len(in_fwd)
    assert census["count_csl_inv"] == len(in_inv)
    assert census["observed_J"] == sorted({colouring.colour_of_coords(c) for c in in_fwd})
    assert census["observed_I"] == sorted({colouring.colour_of_coords(c) for c in in_inv})
    if colouring.parent.dim == 2:
        for mode, points in (("csl", in_fwd), ("csl-inv", in_inv)):
            svg = render.render_svg(colouring, amap, mode, radius)
            drawn = re.findall(r'class="pt" [^>]*data-coords="([^"]*)"', svg)
            # the points are drawn in box-scan order
            assert [tuple(map(int, c.split(","))) for c in drawn] == sorted(points)


@pytest.mark.parametrize(
    "options, error, message",
    [
        ({"mode": "chart"}, ValueError, "mode must be one of"),
        ({"star_embedding": True}, UnsupportedDimension, "star embedding needs dimension 4"),
        ({"palette": ["#000000"] * 5}, ValueError, "palette needs at least 6 colours"),
    ],
    ids=["mode", "star-embedding-in-d2", "short-palette"],
)
def test_render_svg_refuses_a_bad_request(options, error, message):
    request = {"mode": "parent", "radius": 2, **options}
    with pytest.raises(error, match=message):
        render.render_svg(EX1, ROT, **request)
    # the lines are refused when asked for, before any is read
    with pytest.raises(error, match=message):
        render._svg_lines(EX1, ROT, **request)


def test_render_svg_rejects_negative_radius_before_building_a_csl(monkeypatch):
    def no_csl(*args):
        raise AssertionError("a CSL was built")

    monkeypatch.setattr(render, "csl", no_csl)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        render.render_svg(EX1, ROT, "parent", -1)


@pytest.mark.parametrize(
    "mode, highlight, built",
    [
        ("parent", False, []),
        ("parent", True, ["forward"]),
        ("csl", False, ["forward"]),
        ("csl", True, ["forward"]),
        ("csl-inv", False, ["inverse"]),
        ("csl-inv", True, ["inverse"]),
    ],
)
def test_render_svg_builds_only_the_csl_its_mode_reads(monkeypatch, mode, highlight, built):
    calls = []
    original = render.csl

    def counting(lat, amap):
        calls.append("forward" if amap is ROT else "inverse")
        assert amap in (ROT, ROT.inverse_map)
        return original(lat, amap)

    monkeypatch.setattr(render, "csl", counting)
    render.render_svg(EX1, ROT, mode, 3, highlight_csl=highlight)
    assert calls == built


def bundled_render_job(name):
    """(colouring, map, radius, render options) of a bundled config."""
    cfg = cli.load_job_config(str(CONFIG_DIR / name))
    options = {"highlight_csl": cfg.highlight_csl, "star_embedding": cfg.star_embedding}
    return cli.build_colouring(cfg), cfg.amap, cfg.render_radius, options


RENDER_JOBS = {
    "example1": lambda: bundled_render_job("example1.json"),
    "ammann_beenker": lambda: bundled_render_job("ammann_beenker.json"),
    "z2-m4000": lambda: (
        Colouring(Z2, lattice_new([[4000, 0], [0, 1]])), ROT, 8, {"highlight_csl": True}
    ),
}


@pytest.mark.parametrize("job", RENDER_JOBS)
def test_render_svg_without_a_palette_draws_the_default_palette(job):
    colouring, amap, radius, options = RENDER_JOBS[job]()
    full = render.default_palette(colouring.m)
    for mode in render.RENDER_MODES:
        assert render.render_svg(colouring, amap, mode, radius, **options) == render.render_svg(
            colouring, amap, mode, radius, palette=full, **options
        )


def test_render_svg_computes_default_entries_only_for_the_colours_drawn(monkeypatch):
    calls = []
    original = render._palette_entry
    monkeypatch.setattr(render, "_palette_entry", lambda i: calls.append(i) or original(i))
    colouring = Colouring(Z2, lattice_new([[10**5, 0], [0, 1]]))
    svg = render.render_svg(colouring, ROT, "parent", 8, highlight_csl=True)
    drawn = set(re.findall(r'data-colour="(\d+)"', svg))
    assert 0 < len(calls) <= len(drawn) < 300


def test_render_svg_refuses_a_non_coincidence_in_every_mode():
    stretch = commensurable_map([[2, 0], [0, 1]])
    for mode in render.RENDER_MODES:
        with pytest.raises(NotCoincidence):
            render.render_svg(EX1, stretch, mode, 2)
        with pytest.raises(NotCoincidence):
            render._svg_lines(EX1, stretch, mode, 2)


def test_default_palette_matches_colorsys_below_the_colour_budget():
    n = cli.COLOUR_BUDGET
    got = [render._palette_entry(i) for i in range(n)]
    want = [hls_palette_entry(i) for i in range(n)]
    assert got == want, next(i for i in range(n) if got[i] != want[i])

