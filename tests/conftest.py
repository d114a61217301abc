"""Shared test fixtures: the sublattice corpus, oracles and acceptance reporting.

The oracles below share no code with the package's kernels: they read
its objects through their rational views (`Lattice.basis`,
`CommensurableMap.matrix`, `Cyc8.coeffs` and its ring operations) and
compute from there in Fractions and plain integers.  Acceptance tests register one line per
criterion; the terminal-summary hook prints them after the run so the
PASS/FAIL lines survive pytest's output capture.
"""

from __future__ import annotations

import colorsys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt, lcm

from cslcolour.errors import DimensionMismatch
from cslcolour.lattice import lattice_new

# square-lattice sublattices of index 1..12, used by property tests
SUBLATTICE_BASES = [
    [[1, 0], [0, 1]],    # index 1
    [[2, 0], [0, 1]],    # 2
    [[1, 1], [-1, 1]],   # 2
    [[3, 0], [0, 1]],    # 3
    [[2, 0], [0, 2]],    # 4
    [[1, 2], [-2, 1]],   # 5
    [[6, 0], [2, 1]],    # 6
    [[2, 1], [0, 4]],    # 8
    [[3, 0], [0, 3]],    # 9
    [[2, 1], [0, 5]],    # 10
    [[4, 1], [0, 3]],    # 12
    [[12, 0], [0, 1]],   # 12
]

# cubic sublattices: 2.Z^3, diag(1, 1, 3), and two sublattices of index 2
CUBIC_SUBLATTICES = [
    [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 3]],
    [[1, 1, 0], [-1, 1, 0], [0, 0, 1]],
    [[1, 1, 0], [1, 0, 1], [0, 1, 1]],
]


def cayley_rotation(a: int, b: int, c: int, d: int) -> list[list[Fraction]]:
    """The rotation of R^3 of the quaternion q = a + bi + cj + dk (Cayley).

    Rows of R(q) / |q|^2, the matrix acting on column vectors.
    """
    n = a * a + b * b + c * c + d * d
    rows = [
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ]
    return [[Fraction(x, n) for x in row] for row in rows]


def cubic_rotations(max_norm: int) -> list[tuple[tuple[int, ...], list]]:
    """(q, R(q)) for primitive integer quaternions with |q|^2 <= max_norm.

    q and -q give the same rotation; each rotation is listed once.
    """
    bound = isqrt(max_norm)
    seen = set()
    out = []
    for q in product(range(-bound, bound + 1), repeat=4):
        if sum(x * x for x in q) > max_norm or gcd(*q) != 1:
            continue
        rows = cayley_rotation(*q)
        key = tuple(map(tuple, rows))
        if key not in seen:
            seen.add(key)
            out.append((q, rows))
    return out


# ---------------------------------------------------------------------------
# exact determinant oracles that share no code with the package


def ref_det(m):
    """det m by Gaussian elimination over Fraction."""
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


def det(m):
    """Laplace expansion along the first row; small matrices only (a 0 x 0 one has det 1)."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def adjugate(m):
    """adj(M) with M . adj(M) = det(M) . I: entry (i, j) is a cofactor of (j, i)."""
    n = len(m)
    return [
        [
            (-1) ** (i + j) * det([row[:i] + row[i + 1:] for k, row in enumerate(m) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# lattice, map and ring oracles that share no code with the package


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


@lru_cache(maxsize=64)
def ref_inverse_basis(lat):
    """lat.basis^-1 as (N, D), integers over their common denominator (rows by `ref_solve`)."""
    rows = [ref_solve(lat.basis, [int(i == j) for j in range(lat.dim)]) for i in range(lat.dim)]
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * den) for x in row] for row in rows], den


def contains(lat, v):
    """Exact membership of a rational point: its coordinates v . basis^-1 are integers."""
    if len(v) != lat.dim:
        raise DimensionMismatch(f"point has dimension {len(v)}, lattice {lat.dim}")
    inverse, den = ref_inverse_basis(lat)
    point = [Fraction(x) for x in v]
    q = lcm(*(x.denominator for x in point))
    scale = q * den
    w = [int(x * q) for x in point]
    return all(sum(a * row[j] for a, row in zip(w, inverse)) % scale == 0 for j in range(lat.dim))


def is_sublattice(sub, sup):
    """Every basis row of sub lies in sup."""
    if sub.dim != sup.dim:
        raise DimensionMismatch("lattices live in different dimensions")
    return all(contains(sup, row) for row in sub.basis)


def lattice_sum(l1, l2):
    """The smallest lattice holding both: their 2d basis rows cut to d by Euclid, column by column.

    Only the canonical form of the d rows left comes from `lattice_new`.
    """
    rows = [*l1.basis, *l2.basis]
    den = lcm(*(x.denominator for row in rows for x in row))
    work = [[int(x * den) for x in row] for row in rows]
    basis = []
    for col in range(l1.dim):
        # subtract the row of least nonzero entry until one row is left nonzero here
        while sum(1 for row in work if row[col]) > 1:
            work.sort(key=lambda row: (not row[col], abs(row[col])))
            for row in work[1:]:
                q = row[col] // work[0][col]
                row[:] = [a - q * b for a, b in zip(row, work[0])]
        pivot = next(row for row in work if row[col])
        work.remove(pivot)
        basis.append([Fraction(x, den) for x in pivot])
    return lattice_new(basis)


def apply(amap, v):
    """The image v . A^T of a rational point, with A = amap.matrix."""
    if len(v) != amap.dim:
        raise DimensionMismatch(f"point has dimension {len(v)}, map {amap.dim}")
    return tuple(sum(a * Fraction(x) for a, x in zip(row, v)) for row in amap.matrix)


def is_orthogonal(amap):
    """A^T . A = identity, with A = amap.matrix."""
    a, d = amap.matrix, amap.dim
    return all(sum(row[i] * row[j] for row in a) == (i == j) for i in range(d) for j in range(d))


def cyc8_norm(z):
    """Field norm: the product of all four Galois conjugates, a rational."""
    n = z
    for k in (3, 5, 7):
        n = n * z.galois(k)
    assert not any(n.coeffs[1:]), "norm must be rational"
    return n.coeffs[0]


def star_coords(coeffs):
    """Exact planar coordinates of a0 + a1.xi + a2.xi^2 + a3.xi^3, split over 1 and sqrt(2).

    ((xr, xs), (yr, ys)): the real part is xr + xs.sqrt(2) and the
    imaginary part yr + ys.sqrt(2), since xi = (1 + i) / sqrt(2),
    xi^2 = i and xi^3 = (-1 + i) / sqrt(2).
    """
    a0, a1, a2, a3 = map(Fraction, coeffs)
    return (a0, (a1 - a3) / 2), (a2, (a1 + a3) / 2)


# ---------------------------------------------------------------------------
# render oracle that shares no code with the package


def hls_palette_entry(i: int) -> str:
    """Colour i of the default palette by `colorsys`: the six base colours,
    then hue 137.508 (i - 5) degrees at lightness 0.5 and saturation 0.65."""
    base = ["#000000", "#ffff00", "#0000ff", "#ff0000", "#808080", "#008000"]
    if i < len(base):
        return base[i]
    hue = (137.508 * (i - 5)) % 360.0
    r, g, b = colorsys.hls_to_rgb(hue / 360.0, 0.5, 0.65)
    return f"#{round(r * 255):02x}{round(g * 255):02x}{round(b * 255):02x}"


ACCEPTANCE_LINES: list[str] = []


@contextmanager
def record_acceptance(number: int, label: str):
    """Record one acceptance criterion outcome for the terminal summary."""
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"ACCEPTANCE {number} FAIL  {label}")
        raise
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {number} PASS  {label}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
