"""Exact integer matrix kernel, with rational edges.

Internally a rational matrix is an integer matrix plus one common
denominator, ``(N, q)`` meaning N / q: Hermite and Smith forms and the
integer inverse all run on Python ints only.
``fractions.Fraction`` values appear at the edges: parsing ``p/q``
text and user matrices (:func:`parse_rational`, :func:`rat_matrix`,
:func:`clear_denominators`), the public rational results
(:func:`rat_inverse`, :func:`det_rat`) and formatting.  Matrices are
immutable tuples of row tuples.  Everything is exact: no floats, no
rounding, ever.

Conventions, fixed package-wide:

* bases are matrices whose ROWS are the generators,
* points are row vectors, so a matrix acts on a vector from the right
  (``v . M``),
* Hermite form is row-style: ``H = U . M`` with U unimodular, H upper
  triangular with positive pivots and the entries above each pivot
  reduced into ``[0, pivot)``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from cslcolour.errors import RankDeficient, Singular

RatMatrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]
Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the textual form ``p/q`` (or plain ``p``) into a Fraction.

    The sign may appear on p only and q must be a positive integer.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(x: Fraction | int) -> str:
    """Inverse of :func:`parse_rational`; emits ``p`` when q = 1."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def rat_matrix(rows: Sequence[Sequence]) -> RatMatrix:
    """Coerce nested sequences of int/str/Fraction entries to a RatMatrix."""
    out = []
    width = None
    for row in rows:
        vals = tuple(
            parse_rational(x) if isinstance(x, str) else Fraction(x) for x in row
        )
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ValueError("ragged rows")
        out.append(vals)
    return tuple(out)


def int_matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Validate an integer matrix; other entries must have integral Fraction values."""
    out = []
    for row in rows:
        vals = []
        for x in row:
            if type(x) is not int:
                f = Fraction(x)
                if f.denominator != 1:
                    raise ValueError(f"non-integer entry {x}")
                x = f.numerator
            vals.append(x)
        out.append(tuple(vals))
    return tuple(out)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def vec_mat(v, m):
    """Row vector times matrix: ``(v . m)_j = sum_i v_i m_ij``."""
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0])))


def det_rat(m: Sequence[Sequence]) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    work = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, n):
            if work[r][col]:
                f = work[r][col] * inv
                for j in range(col, n):
                    work[r][j] -= f * work[col][j]
    return det


def int_inverse(m: Sequence[Sequence[int]]) -> tuple[IntMatrix, int]:
    """Inverse of a square integer matrix as (N, q) with m^-1 = N / q.

    q > 0 is the least common denominator of the inverse's entries.
    Fraction-free Gauss-Jordan on [m | I]: each row keeps R . m = L for
    its left part L and right part R, a row operation cross-multiplies
    by the pivot, and every changed row is divided by the gcd of its
    entries, which keeps them small.  At the end L is diagonal, so row r
    of the inverse is R_r / L_rr, already in lowest terms.  Raises
    Singular.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse needs a square matrix")
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise Singular("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        prow = work[col]
        p = prow[col]
        for r in range(n):
            f = work[r][col]
            if r != col and f:
                row = [p * x - f * y for x, y in zip(work[r], prow)]
                g = gcd(*row)
                work[r] = [x // g for x in row]
    den = lcm(*(abs(work[r][r]) for r in range(n)))
    return (
        tuple(tuple(den // work[r][r] * x for x in work[r][n:]) for r in range(n)),
        den,
    )


def rat_inverse(m: Sequence[Sequence]) -> RatMatrix:
    """Exact rational inverse; raises Singular.

    With m = M / q for an integer M, the inverse is q . M^-1, read off
    :func:`int_inverse`.
    """
    ints, q = clear_denominators(m)
    inv, den = int_inverse(ints)
    return tuple(tuple(Fraction(q * x, den) for x in row) for row in inv)


def clear_denominators(m: Sequence[Sequence]) -> tuple[IntMatrix, int]:
    """Return (den*m as IntMatrix, den) with den the lcm of all denominators."""
    rows = [[Fraction(x) for x in row] for row in m]
    den = 1
    for row in rows:
        for x in row:
            den = lcm(den, x.denominator)
    ints = tuple(
        tuple(x.numerator * (den // x.denominator) for x in row) for row in rows
    )
    return ints, den


def _row_addmul(rows, dst, src, factor):
    r = rows[dst]
    s = rows[src]
    for j in range(len(r)):
        r[j] += factor * s[j]


def _hermite(m: Sequence[Sequence[int]]) -> tuple[list, list, int]:
    """Row Hermite form of an arbitrary integer matrix, with transform.

    Returns (h, u, rank) where h = u . m, u unimodular, the first `rank`
    rows of h are the staircase and the rest are zero.  Rows of u below
    `rank` therefore span the left kernel of m.  Eliminations reduce as
    they go, which keeps intermediate entries small.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    h = [list(row) for row in m]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if h[r][col]), None)
        if piv is None:
            continue
        h[rank], h[piv] = h[piv], h[rank]
        u[rank], u[piv] = u[piv], u[rank]
        for r in range(rank + 1, nrows):
            # gcd the pivot against row r by euclidean subtract-and-swap
            while h[r][col]:
                q = h[rank][col] // h[r][col]
                _row_addmul(h, rank, r, -q)
                _row_addmul(u, rank, r, -q)
                h[rank], h[r] = h[r], h[rank]
                u[rank], u[r] = u[r], u[rank]
        if h[rank][col] < 0:
            h[rank] = [-x for x in h[rank]]
            u[rank] = [-x for x in u[rank]]
        for r in range(rank):
            q = h[r][col] // h[rank][col]
            if q:
                _row_addmul(h, r, rank, -q)
                _row_addmul(u, r, rank, -q)
        rank += 1
        if rank == nrows:
            break
    return h, u, rank


def hnf(m: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix]:
    """Hermite normal form H = U . M of a full-row-rank integer matrix.

    H is the unique upper-triangular canonical form of the row span
    (positive pivots, entries above each pivot in [0, pivot)); U is
    unimodular.  Raises RankDeficient when the rows are dependent.
    """
    mi = int_matrix(m)
    if not mi or not mi[0]:
        raise ValueError("empty matrix")
    h, u, rank = _hermite(mi)
    if rank < len(mi):
        raise RankDeficient(f"row rank {rank} < {len(mi)}")
    return tuple(tuple(r) for r in h), tuple(tuple(r) for r in u)


def _col_addmul(rows, dst, src, factor):
    for row in rows:
        row[dst] += factor * row[src]


def _col_swap(rows, a, b):
    for row in rows:
        row[a], row[b] = row[b], row[a]


def snf(m: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form D = U . M . V of a square nonsingular matrix.

    D is diagonal with positive entries in a divisor chain d1 | d2 | ...;
    U and V are unimodular.  Raises RankDeficient when det M = 0.
    """
    mi = int_matrix(m)
    n = len(mi)
    if any(len(row) != n for row in mi):
        raise ValueError("snf needs a square matrix")
    d = [list(row) for row in mi]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(n):
        while True:
            piv = None
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    a = abs(d[i][j])
                    if a and (best is None or a < best):
                        best = a
                        piv = (i, j)
            if piv is None:
                raise RankDeficient("matrix is singular")
            pi, pj = piv
            if pi != k:
                d[k], d[pi] = d[pi], d[k]
                u[k], u[pi] = u[pi], u[k]
            if pj != k:
                _col_swap(d, k, pj)
                _col_swap(v, k, pj)
            clean = True
            for i in range(k + 1, n):
                if d[i][k]:
                    q = d[i][k] // d[k][k]
                    _row_addmul(d, i, k, -q)
                    _row_addmul(u, i, k, -q)
                    if d[i][k]:
                        clean = False
            for j in range(k + 1, n):
                if d[k][j]:
                    q = d[k][j] // d[k][k]
                    _col_addmul(d, j, k, -q)
                    _col_addmul(v, j, k, -q)
                    if d[k][j]:
                        clean = False
            if not clean:
                continue
            # force the divisor chain: fold in any entry the pivot misses
            offender = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if d[i][j] % d[k][k]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _row_addmul(d, k, offender, 1)
            _row_addmul(u, k, offender, 1)
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            u[k] = [-x for x in u[k]]
    return (
        tuple(tuple(r) for r in d),
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in v),
    )

