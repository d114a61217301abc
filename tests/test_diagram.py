"""The index diagram against an independent oracle, its cost, the colour
walk, and lazy reps.

The oracle below decides colour coincidence from the partition-bijection
definition and shares no code with ``cslcolour.coincidence``: colours are
cosets of the sublattice S in Z^d, keyed by x.adj(S) mod |det S|; the
CSLs are scanned modulo n.Z^d (n the denominator of the rotation, so
n.Z^d lies in both CSLs) and closed under addition.  Colour indices are
read off the colouring's representatives.  It runs for d = 2 and 3.
The same closure is the reference for `lattice._walk`, which lists a
subgroup of Z_n1 x ... x Z_nk from one Hermite form.
"""

from __future__ import annotations

import dataclasses
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cslcolour.coincidence as coincidence_module
import cslcolour.lattice as lattice_module
import cslcolour.ratmat as ratmat_module
from cslcolour import (
    AMMANN_BEENKER_ROTATION,
    Colouring,
    InternalInvariantViolation,
    analyze,
    colour_of,
    colour_permutation,
    commensurable_map,
    coset_reps,
    csl,
    cyc8,
    enumerate_square_rotations,
    index,
    intersect,
    is_colour_coincidence,
    lattice_new,
    multiplication_map,
    principal_submodule,
    rat_inverse,
    standard_lattice,
    transform,
    window_census,
)
from cslcolour.ratmat import transpose
from conftest import (
    CUBIC_SUBLATTICES,
    SUBLATTICE_BASES,
    adjugate,
    cayley_rotation,
    cubic_rotations,
    cyc8_norm,
    det,
    eightfold_rotations,
    lattice_sum,
    ratio_to_conjugate,
    ref_det,
)

Z2 = standard_lattice(2)


def rotation(a: int, b: int, n: int):
    return commensurable_map(
        [[Fraction(a, n), Fraction(-b, n)], [Fraction(b, n), Fraction(a, n)]]
    )


def gauss(a: int, b: int):
    """Basis of the Gaussian-integer ideal generated by a + b.i."""
    return [[a, b], [-b, a]]


# the 25 cosets of 5.Z^2, listed in an order unlike the SNF one
SCRAMBLED_5Z2_REPS = [[0, 0]] + [
    [i, j] for j in range(5) for i in range(5) if (i, j) != (0, 0)
][::-1]


# ---------------------------------------------------------------------------
# the oracle


def _closure(gens, add, zero, limit=None):
    """Subgroup generated by gens: keep adding each generator until stable.

    Returns None as soon as the subgroup exceeds `limit` elements.
    """
    elems = {zero}
    for g in gens:
        frontier = set(elems)
        while frontier:
            frontier = {add(h, g) for h in frontier} - elems
            elems |= frontier
            if limit is not None and len(elems) > limit:
                return None
    return elems


def oracle(sub_rows, map_rows, reps):
    """(I, J, colour coincidence, permutation) by the definition."""
    d = len(sub_rows)
    order = abs(det(sub_rows))
    adj = adjugate(sub_rows)

    def key(x):
        return tuple(sum(x[i] * adj[i][j] for i in range(d)) % order for j in range(d))

    def add(p, q):
        return tuple((x + y) % order for x, y in zip(p, q))

    colour = {key([int(c) for c in rep]): i for i, rep in enumerate(reps)}
    assert len(colour) == order == len(reps)

    a = [[Fraction(x) for x in row] for row in map_rows]
    a_det = det(a)
    a_inv = [[x / a_det for x in row] for row in adjugate(a)]

    def apply(m, x):  # x -> x.M^T
        return [sum(m[i][j] * x[j] for j in range(d)) for i in range(d)]

    n = lcm(*(x.denominator for row in a for x in row))
    box = list(product(range(n), repeat=d))
    box += [tuple(n * int(i == j) for j in range(d)) for i in range(d)]
    inv_pts = [x for x in box if all(c.denominator == 1 for c in apply(a, x))]
    fwd_pts = [x for x in box if all(c.denominator == 1 for c in apply(a_inv, x))]
    zero = (0,) * d
    set_i = sorted(colour[k] for k in _closure([key(x) for x in inv_pts], add, zero))
    set_j = sorted(colour[k] for k in _closure([key(x) for x in fwd_pts], add, zero))
    # the pairs (colour of x, colour of A.x) over csl1_inv cover I and J;
    # they form a bijection exactly when there are no more of them than
    # colours on either side
    pairs = _closure(
        [(key(x), key([int(c) for c in apply(a, x)])) for x in inv_pts],
        lambda p, q: (add(p[0], q[0]), add(p[1], q[1])),
        (zero, zero),
        limit=len(set_i),
    )
    if pairs is None or len(set_i) != len(set_j):
        return tuple(set_i), tuple(set_j), False, None
    perm = tuple(sorted((colour[p], colour[q]) for p, q in pairs))
    return tuple(set_i), tuple(set_j), True, perm


def assert_agrees(sub_rows, amap, reps=None):
    colouring = Colouring(standard_lattice(len(sub_rows)), lattice_new(sub_rows), reps=reps)
    got = analyze(colouring, amap)
    set_i, set_j, cc, perm = oracle(sub_rows, amap.matrix, colouring.reps)
    assert got.set_I == set_i
    assert got.set_J == set_j
    assert got.colour_coincidence == cc
    assert got.permutation == perm
    return got


# ---------------------------------------------------------------------------
# agreement with the oracle


CORPUS_SAMPLE = random.Random(20101001).sample(
    [(r, b) for r in range(52) for b in range(len(SUBLATTICE_BASES))], 80
)


@pytest.mark.parametrize("rot_index, sub_index", CORPUS_SAMPLE)
def test_oracle_agrees_on_corpus_sample(rot_index, sub_index):
    amap = enumerate_square_rotations(40)[rot_index]
    assert_agrees(SUBLATTICE_BASES[sub_index], amap)


# the cases of index m <= 700 among the large-index benchmark cases:
# (rotation (a, b, n), sublattice basis)
LARGE_INDEX_CASES = [
    ((7, 24, 25), [[25, 0], [0, 25]]),
    ((7, 24, 25), [[625, 0], [0, 1]]),
    ((3, 4, 5), [[25, 0], [0, 25]]),
    ((5, 12, 13), [[26, 0], [0, 26]]),
    ((3, 4, 5), [[1, 7], [0, 600]]),
    ((3, 4, 5), [[1, 0], [0, 500]]),
    ((7, 24, 25), [[5, 0], [0, 125]]),
    ((7, 24, 25), gauss(8, 19)),
    ((5, 12, 13), gauss(23, 0)),
    ((3, 4, 5), gauss(23, 10)),
    ((5, 12, 13), gauss(18, 13)),
]


@pytest.mark.parametrize("rot, sub_rows", LARGE_INDEX_CASES)
def test_oracle_agrees_on_large_index(rot, sub_rows):
    assert_agrees(sub_rows, rotation(*rot))


def test_oracle_agrees_with_custom_reps():
    for rot in [(3, 4, 5), (5, 12, 13), (7, 24, 25)]:
        assert_agrees([[5, 0], [0, 5]], rotation(*rot), reps=SCRAMBLED_5Z2_REPS)
    # the ideal (1 + 2i) is prime to 13, so the rotation permutes its colours
    ideal = assert_agrees(gauss(1, 2), rotation(5, 12, 13),
                          reps=[[0, 0], [4, 0], [3, 0], [2, 0], [1, 0]])
    assert ideal.colour_coincidence
    assert ideal.permutation != tuple((i, i) for i in range(5))
    example1 = assert_agrees([[6, 0], [2, 1]], rotation(4, 3, 5),
                             reps=[[i, 0] for i in range(6)])
    assert not example1.colour_coincidence


def scrambled_reps(colouring, seed):
    """Other reps of the same cosets: renumbered, and moved by sublattice vectors."""
    rng = random.Random(seed)
    rows = colouring.sub.basis
    others = colouring.reps[1:]
    rng.shuffle(others)
    return [colouring.reps[0]] + [
        tuple(x + a * r + b * s for x, r, s in zip(rep, *rows))
        for rep in others
        for a, b in [(rng.randint(-2, 2), rng.randint(-2, 2))]
    ]


# sublattices of Z^2 whose quotients are not cyclic, with their SNF
# moduli and the verdicts of the 3-4-5 and 5-12-13 rotations: 5 divides
# three of the moduli, and diag(23, 115) is no ideal of Z[i]
LARGE_QUOTIENTS = [
    ([[47, 0], [0, 47]], (47, 47), (True, True)),
    ([[23, 0], [0, 115]], (23, 115), (False, False)),
    ([[40, 0], [0, 40]], (40, 40), (False, True)),
    ([[25, 0], [0, 25]], (25, 25), (False, True)),
]


@pytest.mark.parametrize("custom", [False, True], ids=["default-reps", "custom-reps"])
@pytest.mark.parametrize(
    "sub_rows, moduli, verdicts", LARGE_QUOTIENTS, ids=[f"{a}x{b}" for _, (a, b), _ in LARGE_QUOTIENTS]
)
def test_oracle_agrees_on_large_non_cyclic_quotients(sub_rows, moduli, verdicts, custom):
    colouring = Colouring(Z2, lattice_new(sub_rows))
    assert colouring.moduli == moduli
    reps = scrambled_reps(colouring, sum(moduli)) if custom else None
    got = tuple(
        assert_agrees(sub_rows, rotation(*rot), reps=reps).colour_coincidence
        for rot in [(3, 4, 5), (5, 12, 13)]
    )
    assert got == verdicts


@pytest.mark.parametrize("d", [2, 3])
def test_a_single_colour(d):
    amap = rotation(3, 4, 5) if d == 2 else commensurable_map(cayley_rotation(1, 2, 2, 0))
    got = assert_agrees([[int(i == j) for j in range(d)] for i in range(d)], amap)
    assert (got.m, got.set_I, got.set_J, got.permutation) == (1, (0,), (0,), ((0, 0),))


# rotations R(q) of Z^3 from quaternions of norm 2, 3, 4, 5, 7, 9 and 11
CUBIC_QUATERNIONS = [
    (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1), (1, 2, 0, 0), (2, 1, 1, 1), (1, 2, 2, 0),
    (3, 1, 1, 0),
]


def test_oracle_agrees_on_cubic_sublattices():
    verdicts = {
        assert_agrees(sub_rows, commensurable_map(cayley_rotation(*q))).colour_coincidence
        for q in CUBIC_QUATERNIONS
        for sub_rows in CUBIC_SUBLATTICES
    }
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# the verdict against the zero-colour form of the criterion


def reference_verdict(colouring, amap):
    """A fixes the zero colour: A(sub meet csl(A^-1)) = sub meet csl(A)."""
    parent, sub = colouring.parent, colouring.sub
    image = transform(intersect(sub, csl(parent, amap.inverse_map)), amap.matrix)
    return image == intersect(sub, csl(parent, amap))


def assert_verdicts_agree(cases):
    verdicts = Counter()
    for colouring, amap in cases:
        verdict = analyze(colouring, amap).colour_coincidence
        assert verdict == reference_verdict(colouring, amap)
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def corpus_cases():
    """The 12 SUBLATTICE_BASES of Z^2 under the 52 rotations of denominator <= 40."""
    subs = [lattice_new(rows) for rows in SUBLATTICE_BASES]
    return [(Colouring(Z2, sub), amap) for amap in enumerate_square_rotations(40) for sub in subs]


def test_verdict_is_the_zero_colour_criterion_on_the_corpus():
    cases = corpus_cases()
    assert len(cases) == 624
    assert_verdicts_agree(cases)


def test_verdict_is_the_zero_colour_criterion_on_cubic_sublattices():
    z3 = standard_lattice(3)
    assert_verdicts_agree(
        (Colouring(z3, lattice_new(sub_rows)), commensurable_map(cayley_rotation(*q)))
        for q in CUBIC_QUATERNIONS
        for sub_rows in CUBIC_SUBLATTICES
    )


# principal submodules of the eightfold module (index 1, 2, 4, 9, 16, 81),
# which every power of the rotation maps to themselves, and two
# sublattices of Z^4 that are not submodules
MODULE8_SUBLATTICES = [
    principal_submodule(cyc8(*gen))
    for gen in [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 1, 0, 1), (2, 0, 0, 0), (3, 0, 0, 0)]
] + [
    lattice_new([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    lattice_new([[3, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]]),
]


def module8_cases():
    """The MODULE8_SUBLATTICES of Z^4 under the first four powers of the rotation."""
    z4 = standard_lattice(4)
    power = AMMANN_BEENKER_ROTATION
    powers = []
    for _ in range(4):
        powers.append(multiplication_map(power))
        power = power * AMMANN_BEENKER_ROTATION
    return [(Colouring(z4, sub), amap) for amap in powers for sub in MODULE8_SUBLATTICES]


def test_verdict_is_the_zero_colour_criterion_on_module8():
    assert_verdicts_agree(module8_cases())


@pytest.mark.parametrize("cases", [corpus_cases, module8_cases], ids=["corpus", "module8"])
def test_the_diagram_equals_its_lattices_built_one_at_a_time(cases):
    # under a colour coincidence analyze takes csl2 as sub meet csl1 and
    # solves t = s and v = u once; here each meet and index is its own call
    verdicts = Counter()
    for colouring, amap in cases():
        got = analyze(colouring, amap)
        sub, csl1 = colouring.sub, csl(colouring.parent, amap)
        image_sub = lattice_module._image(sub, *amap.forward)
        csl2 = intersect(sub, image_sub)
        sub_in_csl, image_sub_in_csl = intersect(sub, csl1), intersect(image_sub, csl1)
        assert got.csl2 == csl2
        assert (got.s, got.t, got.u, got.v) == (
            index(csl1, image_sub_in_csl),
            index(csl1, sub_in_csl),
            index(sub_in_csl, csl2),
            index(image_sub_in_csl, csl2),
        )
        verdicts[got.colour_coincidence] += 1
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("verdict", [is_colour_coincidence, colour_permutation])
def test_every_verdict_passes_the_invariant_web(monkeypatch, verdict):
    def failing(analysis):
        raise InternalInvariantViolation("invariant web reached")

    monkeypatch.setattr(coincidence_module, "_check_analysis", failing)
    colouring = Colouring(Z2, lattice_new([[3, 0], [0, 1]]))
    with pytest.raises(InternalInvariantViolation, match="invariant web reached"):
        verdict(colouring, rotation(4, 3, 5))


@pytest.mark.parametrize(
    "change, label",
    [
        ({"permutation": None}, "permutation present iff colour coincidence"),
        ({"permutation": ((0, 1), (1, 0), (2, 2))}, "permutation fixes colour 0"),
        # empty or zero entries fail an identity, not an index or a division
        ({"set_I": ()}, "|I| = s"),
        ({"set_J": ()}, "|J| = t"),
        ({"permutation": ()}, "permutation domain is I"),
        ({"s": 0}, "index formula (s.v form)"),
    ],
)
def test_the_invariant_web_names_the_identity_a_broken_analysis_fails(change, label):
    # example 2: sub diag(3, 1) under the 3-4-5 rotation is a colour coincidence
    analysis = analyze(Colouring(Z2, lattice_new([[3, 0], [0, 1]])), rotation(4, 3, 5))
    with pytest.raises(InternalInvariantViolation, match=f"^analysis invariant failed: {re.escape(label)}$"):
        coincidence_module._check_analysis(dataclasses.replace(analysis, **change))


# ---------------------------------------------------------------------------
# cost: a fixed number of Hermite forms, no per-colour search


@pytest.fixture
def hermite_calls(monkeypatch):
    """The row count of each _hermite call, made through any module's binding."""
    calls = []
    original = ratmat_module._hermite

    def counting(m):
        calls.append(len(m))
        return original(m)

    for module in (ratmat_module, lattice_module, coincidence_module):
        monkeypatch.setattr(module, "_hermite", counting)
    return calls


def test_hermite_calls_do_not_grow_with_m(monkeypatch, hermite_calls):

    def never(*args):
        raise AssertionError("coset_meets_lattice called during analyze")

    for module in (lattice_module, coincidence_module):
        monkeypatch.setattr(module, "coset_meets_lattice", never)
    counts = {}
    for k in (5, 200):
        colouring = Colouring(Z2, lattice_new([[k, 0], [0, k]]))
        hermite_calls.clear()
        result = analyze(colouring, rotation(3, 4, 5))
        counts[k] = len(hermite_calls)
        assert result.m == k * k
    assert counts[5] == counts[200]


@pytest.mark.parametrize(
    "sub_rows, cc",
    [([[3, 0], [0, 1]], True), ([[6, 0], [2, 1]], False)],
    ids=["colour-coincidence", "otherwise"],
)
def test_an_analysis_takes_six_or_seven_lattice_forms(hermite_calls, sub_rows, cc):
    colouring = Colouring(Z2, lattice_new(sub_rows))
    hermite_calls.clear()
    assert analyze(colouring, rotation(4, 3, 5)).colour_coincidence == cc
    # 3 images and the meet blocks of sub meet csl1, A(sub) meet csl1 and
    # csl1 are d x d forms; csl2 is sub meet csl1 under a colour
    # coincidence and one more meet otherwise.  Both colourings have
    # k = 1 modulus above 1: the graph's form is (d + 2k) rows, and the
    # two walks of I and J are (d + k) rows each
    assert hermite_calls == ([2] * 6 + [4] if cc else [2] * 7 + [3, 3])


def test_a_census_takes_three_hermite_forms(hermite_calls):
    cubic = Colouring(standard_lattice(3), lattice_new(CUBIC_SUBLATTICES[1]))
    for colouring, amap in (
        (Colouring(Z2, lattice_new([[3, 0], [0, 1]])), rotation(3, 4, 5)),
        (cubic, commensurable_map(cayley_rotation(1, 2, 2, 0))),
    ):
        hermite_calls.clear()
        window_census(colouring, amap, 3)
        # csl(parent, A^-1) is an image and the meet block of a stacked
        # form, csl1 its image
        d = colouring.parent.dim
        assert hermite_calls == [d, d, d]


def test_a_graph_that_is_not_a_function_is_caught(monkeypatch):
    original = lattice_module._hermite

    def with_second_image(rows):
        if len(rows) <= len(rows[0]):
            # a lattice's form; only the walk's, generators plus diag(n),
            # has more rows than columns
            return original(rows)
        # the pair (0 | e_0) sends colour 0 to a second colour as well
        half = len(rows[0]) // 2
        return original(list(rows) + [[0] * half + [1] + [0] * (half - 1)])

    monkeypatch.setattr(lattice_module, "_hermite", with_second_image)
    colouring = Colouring(Z2, lattice_new([[3, 0], [0, 1]]))
    with pytest.raises(InternalInvariantViolation, match="not a function"):
        analyze(colouring, rotation(4, 3, 5))


# ---------------------------------------------------------------------------
# the walk over the key subgroup's triangular basis, against the closure


def radix(key, moduli):
    """Mixed-radix index of a key, first digit most significant."""
    index = 0
    for x, n in zip(key, moduli):
        index = index * n + x
    return index


walk = lattice_module._walk


def adder(moduli):
    return lambda p, q: tuple((x + y) % n for x, y, n in zip(p, q, moduli))


@st.composite
def key_groups(draw):
    """Moduli d1 | d2 | ... | dk, k = 1..4, d1 > 1, at most 1000 elements."""
    moduli = [draw(st.integers(2, 5))]
    for _ in range(draw(st.integers(0, 3))):
        factor = draw(st.integers(1, 3))
        if prod(moduli) * moduli[-1] * factor > 1000:
            factor = 1
        moduli.append(moduli[-1] * factor)
    return tuple(moduli)


def keys(draw, moduli):
    return draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in moduli)), max_size=4))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_walk_is_the_subgroup_in_increasing_order(data):
    moduli = data.draw(key_groups())
    gens = keys(data.draw, moduli)
    group = _closure(gens, adder(moduli), (0,) * len(moduli))
    colours, images = walk(gens, moduli)
    assert colours == sorted(radix(x, moduli) for x in group)
    assert images == []


@pytest.mark.parametrize("moduli", [(7,), (2, 4), (3, 3, 6), (2, 2, 2, 4)])
def test_walk_of_no_generators_and_of_generating_sets(moduli):
    k = len(moduli)
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    for gens in ([], [(0,) * k], [(0,) * k] * 3):
        assert walk(gens, moduli) == ([0], [])
    assert walk(units, moduli) == (list(range(prod(moduli))), [])
    assert walk(units[::-1] + [(1,) * k], moduli)[0] == list(range(prod(moduli)))


def test_walk_of_the_trivial_group():
    assert walk([()], ()) == ([0], [])
    assert walk([()], (), graph=True) == ([0], [0])


@st.composite
def automorphisms(draw, moduli):
    """x -> x.M mod n: a product of unit scalings and transvections."""
    k = len(moduli)
    m = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if i == j:
            unit = draw(st.sampled_from([u for u in range(1, moduli[i]) if gcd(u, moduli[i]) == 1]))
            op = [[unit if a == b == i else int(a == b) for b in range(k)] for a in range(k)]
        else:
            # e_i -> e_i + c.e_j is a homomorphism when n_i.c = 0 mod n_j
            c = draw(st.integers(1, 5)) * (moduli[j] // gcd(moduli[i], moduli[j]))
            op = [[int(a == b) + c * (a == i and b == j) for b in range(k)] for a in range(k)]
        m = [[sum(row[t] * op[t][b] for t in range(k)) % moduli[b] for b in range(k)] for row in m]
    return m


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_graph_walk_of_an_automorphism(data):
    moduli = data.draw(key_groups())
    m = data.draw(automorphisms(moduli))

    def phi(x):
        return tuple(sum(x[t] * m[t][j] for t in range(len(x))) % n for j, n in enumerate(moduli))

    gens = keys(data.draw, moduli)
    group = sorted(_closure(gens, adder(moduli), (0,) * len(moduli)), key=lambda x: radix(x, moduli))
    colours, images = walk([g + phi(g) for g in gens], moduli, graph=True)
    assert colours == [radix(x, moduli) for x in group]
    assert images == [radix(phi(x), moduli) for x in group]
    # an automorphism is one-to-one
    assert len(set(images)) == len(images)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_graph_walk_raises_exactly_when_the_pairs_are_no_function(data):
    moduli = data.draw(key_groups())
    pairs = keys(data.draw, moduli + moduli)
    k = len(moduli)
    # a graph has no more elements than the group
    graph = _closure(pairs, adder(moduli + moduli), (0,) * (2 * k), limit=prod(moduli))
    if graph is None or len({p[:k] for p in graph}) < len(graph):
        with pytest.raises(InternalInvariantViolation, match="not a function"):
            walk(pairs, moduli, graph=True)
        return
    colours, images = walk(pairs, moduli, graph=True)
    image_of = {radix(p[:k], moduli): radix(p[k:], moduli) for p in graph}
    assert colours == sorted(image_of)
    assert images == [image_of[c] for c in colours]


# ---------------------------------------------------------------------------
# lazy representatives


# (parent basis, None for Z^d; sublattice basis)
REPS_CASES = [
    (None, [[6, 0], [2, 1]]),
    (None, [[25, 0], [0, 25]]),
    (None, gauss(8, 19)),
    (None, [[2, 0, 0, 0], [0, 2, 0, 0], [1, 0, 3, 0], [0, 1, 1, 3]]),
    # den 6 and a non-diagonal Hermite basis; the sublattice has index 6
    ([["1/2", "1/3"], [0, "5/3"]], [[1, "7/3"], [0, 5]]),
    # den 2, half the Gaussian ideal (1 + 2i); index 6
    ([["1/2", 1], [0, "5/2"]], [[1, "9/2"], [0, "15/2"]]),
]


@pytest.mark.parametrize(
    "parent_rows, sub_rows", REPS_CASES, ids=[f"sub_rows{i}" for i in range(len(REPS_CASES))]
)
def test_default_reps_are_coset_reps_and_lazy(monkeypatch, parent_rows, sub_rows):
    parent = standard_lattice(len(sub_rows)) if parent_rows is None else lattice_new(parent_rows)
    sub = lattice_new(sub_rows)
    built = []
    original = lattice_module._radix_reps
    monkeypatch.setattr(
        lattice_module, "_radix_reps", lambda *args: built.append(1) or original(*args)
    )
    colouring = Colouring(parent, sub)
    assert built == []
    assert colouring.reps == coset_reps(parent, sub)
    assert colouring.rep_rows is colouring.rep_rows
    assert len(built) == 2  # once for the colouring, once for coset_reps
    assert colouring.reps == [
        tuple(Fraction(x, parent.den) for x in row) for row in colouring.rep_rows
    ]
    for i, rep in enumerate(colouring.reps):
        assert colour_of(colouring, rep) == i


def test_custom_reps_number_the_colours():
    reps = SCRAMBLED_5Z2_REPS
    colouring = Colouring(Z2, lattice_new([[5, 0], [0, 5]]), reps=reps)
    assert colouring.reps == [tuple(Fraction(x) for x in rep) for rep in reps]
    assert colouring.rep_rows == tuple(tuple(rep) for rep in reps)
    with pytest.raises(AttributeError):
        colouring.rep_rows = ()
    for i, rep in enumerate(colouring.reps):
        assert colour_of(colouring, rep) == i
        assert colour_of(colouring, (rep[0] + 5, rep[1] - 10)) == i


# ---------------------------------------------------------------------------
# the dual diagram


def dual(lat):
    """L* = {y : y . x in Z for every x in L}, spanned by the rows of B^-T."""
    return lattice_new(transpose(rat_inverse(lat.basis)))


def dual_map(amap):
    """The adjoint A^-T, which carries L* onto (A.L)*."""
    return commensurable_map(transpose(rat_inverse(amap.matrix)))


# det-1 maps of Z^2 that are not rotations
SHEARS = [
    commensurable_map(rows)
    for rows in (
        [[2, 1], [1, 1]],
        [[1, "1/3"], [0, 1]],
        [[2, 0], [0, "1/2"]],
        [["3/2", "1/2"], ["1/2", "5/6"]],
        [["5/3", 1], ["2/3", 1]],
    )
]


def dual_cases():
    """A seeded sample of rotations and shears of Z^2 and of cubic rotations,
    and 5 eightfold maps on 8 sublattices of Z^4."""
    z2, z3, z4 = standard_lattice(2), standard_lattice(3), standard_lattice(4)
    power, eightfold = AMMANN_BEENKER_ROTATION, [multiplication_map(cyc8(1, 1, 0, -1))]
    for _ in range(4):
        eightfold.append(multiplication_map(power))
        power = power * AMMANN_BEENKER_ROTATION
    squares = [lattice_new(rows) for rows in SUBLATTICE_BASES]
    cubes = [lattice_new(rows) for rows in CUBIC_SUBLATTICES]
    rng = random.Random(20260101)
    planar = [(z2, sub, amap) for amap in enumerate_square_rotations(65) + SHEARS for sub in squares]
    cubic = [(z3, sub, commensurable_map(rows)) for _, rows in cubic_rotations(9) for sub in cubes]
    module = [(z4, sub, amap) for amap in eightfold for sub in MODULE8_SUBLATTICES]
    return rng.sample(planar, 400) + rng.sample(cubic, 250) + module


def test_the_dual_diagram_is_fixed_by_the_diagram():
    """The dual colouring, of sub* by parent* under A^-T, has the diagram
    m' = m, sigma1' = sigma2, sigma2' = sigma1, u' = m/s and v' = m/t.

    Duality reverses inclusion, keeps indices ([N : M] = [M* : N*] for
    M in N), turns sums into meets ((L + M)* = L* meet M*) and images
    into adjoint images ((A.L)* = A^-T.L*).  So L* meet A^-T.L* =
    (L + A.L)*, whence (L meet A.L)* = L* + A^-T.L*, and
    [L* : L* meet A^-T.L*] = [L + A.L : L] = [A.L : L meet A.L], which is
    [L : L meet A.L] when |det A| = 1: duality keeps the coincidence
    index.  Hence m' = [sub* : parent*] = m, sigma1' = sigma(sub) =
    sigma2 and sigma2' = sigma(parent) = sigma1.

    With csl1' = (sub + A.sub)* and sub' = parent* inside sub*,
    sub' meet csl1' = (parent + A.sub)* and csl2' = (parent + A.parent)*,
    so u' = [parent + A.parent : parent + A.sub].  For lattices M in N
    and P, N -> (P + N)/(P + M) is onto with kernel
    N meet (P + M) = M + (N meet P), so
    [N : M] = [P + N : P + M] . [P meet N : P meet M].  With P = parent,
    N = A.parent and M = A.sub this is m = u'.s, since
    s = [csl1 : A.sub meet csl1] = [parent meet A.parent : parent meet A.sub];
    with P = A.parent, N = parent and M = sub it is m = v'.t.  The index
    formula then gives s' = t.sigma1/sigma2 and t' = s.sigma1/sigma2.
    Colour-coincidence verdicts are not preserved, and nothing is
    asserted about them.
    """
    for parent, sub, amap in dual_cases():
        adjoint = dual_map(amap)
        # the adjoint of A is A^-1 transposed, the inverse of forward's transpose
        assert adjoint.forward == (transpose(amap.backward[0]), amap.backward[1])
        a = analyze(Colouring(parent, sub), amap)
        b = analyze(Colouring(dual(sub), dual(parent)), adjoint)
        assert b.m == a.m
        assert (b.sigma1, b.sigma2) == (a.sigma2, a.sigma1)
        assert (b.u * a.s, b.v * a.t) == (a.m, a.m)
        assert (b.s * a.sigma2, b.t * a.sigma2) == (a.t * a.sigma1, a.s * a.sigma1)
        # (L meet A.L)* = L* + A^-T.L* for L = parent (csl1) and sub (csl2),
        # and for their duals, since L** = L
        for lat, meet in ((parent, a.csl1), (sub, a.csl2)):
            star = dual(lat)
            assert dual(meet) == lattice_sum(star, transform(star, adjoint.matrix))
        for lat, meet in ((sub, b.csl1), (parent, b.csl2)):
            assert dual(meet) == lattice_sum(lat, transform(lat, amap.matrix))


# ---------------------------------------------------------------------------
# closed forms on the principal ideal domains Z[i] = Z^2 and Z[xi] = Z^4
#
# Take a rotation eps = alpha / conj(alpha) with alpha coprime to
# conj(alpha), and colour by the ideal (beta).  From conj(alpha).x =
# alpha.y, alpha divides x, so csl(eps) = (alpha), csl(eps^-1) =
# (conj alpha) and sigma1 = sigma2 = N(alpha).  The colouring's diagram
# is then m = N(beta), u = N(gcd(beta, alpha)), t = m / u,
# v = N(gcd(beta, conj alpha)) and s = m / v, and eps is a colour
# coincidence exactly when gcd(beta, alpha . conj alpha) = 1.  A gcd is
# the lattice sum of two ideals and its norm the |det| of that sum's
# basis, as Z^d has covolume 1; no index, meet or image of the package
# is used.  Each rotation is analysed once, though several alpha give it,
# and each ideal once, though several beta generate it.


def assert_closed_form_diagrams(parent, box, ideal, conj, mul, norm, rotation):
    """Compare `analyze` with the closed form over alpha in box and beta a product
    of two box elements; return the counts of dropped alpha, rotations, ideals,
    non-coincidences and pairs with u, v > 1."""

    def gcd_norm(lat, x):
        return abs(ref_det(lattice_sum(lat, ideal(x)).basis))

    maps, dropped = {}, 0
    for alpha in box:
        if gcd_norm(ideal(alpha), conj(alpha)) == 1:
            maps.setdefault(rotation(alpha), alpha)
        else:
            dropped += 1
    ideals = {}
    for i, b in enumerate(box):
        for c in box[i:]:
            ideals.setdefault(ideal(mul(b, c)), mul(b, c))
    misses = both = 0
    for amap, alpha in maps.items():
        for sub, beta in ideals.items():
            m, u, v = norm(beta), gcd_norm(sub, alpha), gcd_norm(sub, conj(alpha))
            cc = gcd_norm(sub, mul(alpha, conj(alpha))) == 1
            a = analyze(Colouring(parent, sub), amap)
            got = (a.m, a.sigma1, a.sigma2, a.s, a.t, a.u, a.v, a.colour_coincidence)
            assert got == (m, norm(alpha), norm(alpha), m // v, m // u, u, v, cc), (alpha, beta)
            misses += not cc
            both += u > 1 and v > 1
    return dropped, len(maps), len(ideals), misses, both


def gauss_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def gauss_rotation(alpha):
    """alpha / conj(alpha) = alpha^2 / N(alpha) as a map of Z^2."""
    return rotation(*gauss_mul(alpha, alpha), alpha[0] ** 2 + alpha[1] ** 2)


def test_gaussian_diagrams_are_the_closed_form():
    # alpha in [-3, 3]^2: the smallest square box that holds, besides the
    # units, primes over two split rational primes (2 + i over 5 and
    # 3 + 2i over 13), so sigma is 1, 5 or 13; it also holds the ramified
    # 1 + i and the inert 3, which a kept alpha must avoid.  Products of
    # two box elements give beta = 5 = (2 + i)(2 - i), whose gcds with
    # alpha and conj(alpha) are both non-trivial
    box = [x for x in product(range(-3, 4), repeat=2) if any(x)]
    counts = assert_closed_form_diagrams(
        Z2, box, lambda x: lattice_new(gauss(*x)), lambda x: (x[0], -x[1]), gauss_mul,
        lambda x: x[0] ** 2 + x[1] ** 2, gauss_rotation,
    )
    # 20 alpha kept (alpha and -alpha give one rotation), 28 dropped
    assert counts[:3] == (28, 10, 63)
    assert counts[3] > 0 and counts[4] > 0


def eightfold_rotation(alpha):
    """The multiplication map of alpha / conj(alpha)."""
    return multiplication_map(ratio_to_conjugate(alpha))


def test_eightfold_diagrams_are_the_closed_form():
    # alpha in {-1, 0, 1}^4: the smallest box of coefficients that holds
    # the paper's rotation z (sigma 9), the units (xi and 1 + sqrt 2 =
    # 1 + xi - xi^3) and the ramified 1 - xi, which a kept alpha must
    # avoid; the next box, {-2..2}^4, has 624 elements.  Products of two
    # box elements give the paper's colouring by (1 + xi^2) and beta = 3,
    # the product of the two primes of norm 9, whose gcds with alpha and
    # conj(alpha) are both non-trivial
    box = [cyc8(*x) for x in product((-1, 0, 1), repeat=4) if any(x)]
    assert multiplication_map(AMMANN_BEENKER_ROTATION) in {eightfold_rotation(x) for x in box}
    counts = assert_closed_form_diagrams(
        standard_lattice(4), box, principal_submodule, lambda x: x.conjugate(),
        lambda x, y: x * y, cyc8_norm, eightfold_rotation,
    )
    # 40 alpha kept (12 rotations), 40 dropped
    assert counts[:3] == (40, 12, 18)
    assert counts[3] > 0 and counts[4] > 0


def csm_count(n):
    """The number of CSMs of Z[xi] of index n (Pleasants, Baake & Roth, J. Math.
    Phys. 37 (1996) 1029): multiplicative, 4k at p^k for p = 1 mod 8, 2 at p^2k
    for p = 3 or 5 mod 8, and 0 at every other prime power."""
    count, p = 1, 2
    while n > 1:
        k = 0
        while n % p == 0:
            n, k = n // p, k + 1
        if k and p % 8 == 1:
            count *= 4 * k
        elif k and p % 8 in (3, 5) and k % 2 == 0:
            count *= 2
        elif k:
            return 0
        p += 1
    return count


def test_csm_counts_by_index_are_the_closed_form():
    """The distinct csl(Z[xi], w / conj(w)) of each index n <= 428 number csm_count(n).

    Every CSM is the CSM of some w / conj(w), and one of index n has a w
    of norm n, unique up to a unit; a unit changes w / conj(w) by a unit,
    which leaves the CSM alone.  Multiplying w by the unit
    1 + sqrt 2 = 1 + xi - xi^3 multiplies |s1(w)| / |s3(w)| by
    (1 + sqrt 2)^2, where s1 and s3 are the embeddings xi -> xi and
    xi -> xi^3, so some w brings that ratio into
    [(1 + sqrt 2)^-1, 1 + sqrt 2].  With |s1(w)|.|s3(w)| = sqrt(n), each
    coefficient of w, a mean of its four conjugates times roots of unity,
    satisfies |a_i| <= (|s1(w)| + |s3(w)|) / 2 <= sqrt((1 + sqrt 2) / 2).n^(1/4),
    about 1.0987.n^(1/4).  So the box [-4, 4]^4 holds such a w for every
    n <= 428; [-3, 3]^4 misses seven indices, from 257 to 425.
    """
    z4, limit = standard_lattice(4), 428
    csms = {}
    for z in eightfold_rotations(4):
        lat = csl(z4, multiplication_map(z))
        n = index(z4, lat)
        if n <= limit:
            csms.setdefault(n, set()).add(lat)
    counts = {n: csm_count(n) for n in range(1, limit + 1)}
    assert {n: len(csms.get(n, ())) for n in counts} == counts
