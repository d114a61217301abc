"""Shared test fixtures: the sublattice corpus and acceptance reporting.

Acceptance tests register one line per criterion; the terminal-summary
hook prints them after the run so the PASS/FAIL lines survive pytest's
output capture.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

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
