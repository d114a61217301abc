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
