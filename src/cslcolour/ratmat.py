"""Exact integer matrix kernel, with rational edges.

Internally a rational matrix is an integer matrix plus one common
denominator, ``(N, q)`` meaning N / q: Hermite and Smith forms
(:func:`_hermite`, and :func:`snf`, which returns D and V of
D = U . M . V without building U), and the one elimination that gives
an inverse and a determinant (:func:`_inverse_det`), all run on Python
ints only.  ``fractions.Fraction`` values appear at the edges: reading
input numbers, the rational inverse (:func:`rat_inverse`) and
formatting; a message echoes a long literal by a prefix and its length
(:func:`_literal`), and a long number by its size (:func:`_bounded`).
Every number the package is given is read by one reader,
:func:`_rational` (a string by :func:`parse_rational`, anything else by
``Fraction``), most through :func:`clear_denominators`.  Matrices are
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
import sys
from fractions import Fraction
from math import floor, gcd, lcm, log10
from operator import mul
from typing import Sequence

from cslcolour.errors import RankDeficient, Singular

RatMatrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]
Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
# messages write a number in full only below this, and a literal only up
# to this many characters, so they stay one short line
_ECHO_BOUND = 10**30
_ECHO_CHARS = 40


def parse_rational(text: str) -> Fraction:
    """Parse the textual form ``p/q`` (or plain ``p``) into a Fraction.

    The sign may appear on p only and q must be a positive integer.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {_literal(text)}")
    num, _, den = text.partition("/")
    if den and not den.strip("0"):
        raise ValueError(f"zero denominator: {_literal(text)}")
    limit = _digit_limit()
    if limit and max(len(num.lstrip("+-")), len(den)) > limit:
        raise ValueError(f"over the limit of {limit} digits: {_literal(text)}")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _digit_limit() -> int:
    """Python's limit on the digits int() reads from a string, or 0 where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _literal(text) -> str:
    """A literal for a message: its repr, or that of its first 40 characters and its length."""
    if isinstance(text, str) and len(text) > _ECHO_CHARS:
        return f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)"
    return repr(text)


def format_rational(x: Fraction | int) -> str:
    """Inverse of :func:`parse_rational`; emits ``p`` when q = 1."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _digits(n: int) -> int:
    """The number of decimal digits of n > 0, without converting n to a string."""
    k = floor(log10(n))
    if 10**k > n:
        return k
    return k + 2 if 10 ** (k + 1) <= n else k + 1


def _bounded(x: Fraction | int) -> str:
    """A number for a message: `format_rational`, or its sign and size when long.

    Above 30 digits in the numerator or denominator only the order of
    magnitude is written, `about 10^k`, so no message grows with its
    input and no number over Python's int-to-str digit limit is
    converted.  A long fraction of order 10^0 is written by the digit
    counts of its numerator and denominator instead, since `about 10^0`
    would not tell it from 1.
    """
    f = Fraction(x)
    if f < 0:
        return "-" + _bounded(-f)
    if f.numerator < _ECHO_BOUND and f.denominator < _ECHO_BOUND:
        return format_rational(f)
    k = floor(log10(f.numerator) - log10(f.denominator))
    if k:
        return f"about 10^{k}"
    return f"a {_digits(f.numerator)}-digit/{_digits(f.denominator)}-digit fraction"


def _rational(x) -> Fraction:
    """The one reader of an input number: a str by `parse_rational`, else `Fraction(x)`."""
    return parse_rational(x) if isinstance(x, str) else Fraction(x)


def rat_matrix(rows: Sequence[Sequence]) -> RatMatrix:
    """Coerce nested sequences of int/str/Fraction entries to a RatMatrix (`_rational`)."""
    out = []
    width = None
    for row in rows:
        vals = tuple(map(_rational, row))
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ValueError("ragged rows")
        out.append(vals)
    return tuple(out)


def int_matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Validate an integer matrix; other entries must read (`_rational`) as integers."""
    out = []
    for row in rows:
        vals = []
        for x in row:
            if type(x) is not int:
                f = _rational(x)
                if f.denominator != 1:
                    raise ValueError(f"non-integer entry {_bounded(f)}")
                x = f.numerator
            vals.append(x)
        out.append(tuple(vals))
    return tuple(out)


def transpose(m):
    return tuple(zip(*m))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(map(mul, row, col)) for col in bt) for row in a
    )


def vec_mat(v, m):
    """Row vector times matrix: ``(v . m)_j = sum_i v_i m_ij``."""
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0])))


def _inverse_det(m: Sequence[Sequence[int]]) -> tuple[IntMatrix, int, int]:
    """(N, q, det m) for a square integer matrix m, with m^-1 = N / q in lowest terms.

    One fraction-free Gauss-Jordan pass on [m | I] (Bareiss, Math. Comp.
    22 (1968) 565): each step cross-multiplies every other row by the
    pivot and divides it exactly by the previous pivot, so every entry
    stays a minor of [m | I].  The pass ends at [p.I | R] with R . m = p.I,
    so m^-1 = R / p and det m = p up to the sign of the row swaps.
    q > 0 is the least common denominator of the inverse's entries.
    Raises ValueError when m is empty or not square, Singular when det m = 0.
    """
    n = len(m)
    if not n or any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign = prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise Singular("matrix is singular")
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            sign = -sign
        prow = work[col]
        p = prow[col]
        for r in range(n):
            if r != col:
                f = work[r][col]
                work[r] = [(p * x - f * y) // prev for x, y in zip(work[r], prow)]
        prev = p
    g = gcd(p, *(x for row in work for x in row[n:]))
    if p < 0:
        g = -g
    return tuple(tuple(x // g for x in row[n:]) for row in work), p // g, sign * p


def rat_inverse(m: Sequence[Sequence]) -> RatMatrix:
    """Exact rational inverse; raises Singular.

    With m = M / q for an integer M, the inverse is q . M^-1, read off
    :func:`_inverse_det`.
    """
    ints, q = clear_denominators(m)
    inv, den = _inverse_det(ints)[:2]
    return tuple(tuple(Fraction(q * x, den) for x in row) for row in inv)


def clear_denominators(m: Sequence[Sequence]) -> tuple[IntMatrix, int]:
    """Return (den*m as IntMatrix, den) with den the lcm of all denominators of `rat_matrix(m)`."""
    rows = rat_matrix(m)
    den = lcm(*(x.denominator for row in rows for x in row))
    ints = tuple(
        tuple(x.numerator * (den // x.denominator) for x in row) for row in rows
    )
    return ints, den


def _row_addmul(rows, dst, src, factor):
    r = rows[dst]
    s = rows[src]
    for j in range(len(r)):
        r[j] += factor * s[j]


def _hermite(m: Sequence[Sequence[int]]) -> tuple[list, int]:
    """Row Hermite form of an arbitrary integer matrix, without transform.

    Returns (h, rank): h = u . m for a unimodular u that is not built
    (the form of [m | I] is [h | u]), the first `rank` rows
    of h are the staircase and the rest are zero.  In each column the
    rows below the pivot are cleared by Euclid's subtract-and-swap, and
    the entries above the pivot are then reduced into [0, pivot).
    Every row operation runs in place on the columns from the pivot
    column on: at pivot column col the rows from `rank` down, the pivot
    row among them, are zero left of col, so the multiples of the pivot
    row that are added, and the rows added to it, change nothing there.
    Nothing else is reduced: the rows still to be eliminated keep the
    multiples added to them, so their entries in later columns swell
    with the dimension and the bit length of m (README, "Dimension
    budget"), although the staircase that is returned is reduced.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    h = [list(row) for row in m]
    rank = 0
    for col in range(ncols):
        live = [r for r in range(rank, nrows) if h[r][col]]
        if not live:
            continue
        span = range(col, ncols)
        p = h[live[0]]
        h[live[0]] = h[rank]
        for r in live[1:]:
            # gcd the pivot against row r by euclidean subtract-and-swap
            b = h[r]
            while b[col]:
                q = p[col] // b[col]
                if q:
                    for j in span:
                        p[j] -= q * b[j]
                p, b = b, p
            h[r] = b
        if p[col] < 0:
            for j in span:
                p[j] = -p[j]
        h[rank] = p
        pc = p[col]
        for r in range(rank):
            row = h[r]
            q = row[col] // pc
            if q:
                for j in span:
                    row[j] -= q * p[j]
        rank += 1
    return h, rank


def _col_addmul(rows, dst, src, factor):
    for row in rows:
        row[dst] += factor * row[src]


def _col_swap(rows, a, b):
    for row in rows:
        row[a], row[b] = row[b], row[a]


def snf(m: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix]:
    """(D, V): the Smith normal form D = U . M . V of a square nonsingular matrix.

    D is diagonal with positive entries in a divisor chain d1 | d2 | ...;
    V is unimodular, and so is the U that the row operations amount to,
    which is not built.  Raises RankDeficient when det M = 0.
    """
    mi = int_matrix(m)
    if not mi:
        raise ValueError("empty matrix")
    n = len(mi)
    if any(len(row) != n for row in mi):
        raise ValueError("snf needs a square matrix")
    d = [list(row) for row in mi]
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
            if pj != k:
                _col_swap(d, k, pj)
                _col_swap(v, k, pj)
            clean = True
            for i in range(k + 1, n):
                if d[i][k]:
                    _row_addmul(d, i, k, -(d[i][k] // d[k][k]))
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
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
    return tuple(tuple(r) for r in d), tuple(tuple(r) for r in v)
