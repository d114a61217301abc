"""Correctness checks that share no code with the program.

Every expected value here is computed from the case's raw inputs (the
integer sublattice basis S and the rational map A, acting on row
vectors as x -> x.A^T, parent Z^d) with small exact routines of this
file; nothing from cslcolour is imported.

* sigma from elementary divisors.  For a rational matrix T written as
  M/q with M integral, the k-th determinantal divisor D_k of M is the
  gcd of its k x k minors and e_k = D_k/D_(k-1).  [Z^d : Z^d meet Z^d.T]
  is the product of the numerators of the reduced fractions e_k/q, and
  for |det T| = 1 also of their denominators (Baake 1997).  sigma1
  uses T = A^T, sigma2 the map in sublattice coordinates S.A^T.S^-1.
* colour sets and the permutation from the partition-bijection
  definition.  A colour is a coset of S in Z^d, keyed by x.adj(S) mod
  |det S|.  csl1_inv = {x : x.A^T integral} is enumerated modulo
  n.Z^d (n the denominator of A) and closed under addition in
  Z^d/S; the colours met are I.  J likewise from csl1.  The pairs
  (colour of x, colour of A.x) over csl1_inv close to a subgroup of
  (Z^d/S)^2, and A is a colour coincidence exactly when that subgroup
  is the graph of a bijection.  When n^d is too large to enumerate,
  the program's csl basis is used instead, after it is shown to lie in
  the CSL and to have index sigma1 there.
* windows (census and SVG) by scanning the box directly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod

# largest n^d that the csl enumeration modulo n.Z^d may scan
SCAN_LIMIT = 20000


def det(m) -> Fraction | int:
    """Laplace expansion; exact on ints and Fractions, fine for d <= 4."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det(minor)
    return total


def adjugate(m) -> list[list]:
    n = len(m)
    if n == 1:
        return [[1]]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for k, row in enumerate(m) if k != i]
            out[j][i] = (-1) ** (i + j) * det(minor)
    return out


def inverse(m) -> list[list[Fraction]]:
    d = Fraction(det(m))
    return [[Fraction(x) / d for x in row] for row in adjugate(m)]


def mat_mul(a, b) -> list[list]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transpose(m) -> list[list]:
    return [list(col) for col in zip(*m)]


def integral(m) -> tuple[list[list[int]], int]:
    """(q.m as ints, q) with q the lcm of the entry denominators."""
    q = 1
    for row in m:
        for x in row:
            q = lcm(q, Fraction(x).denominator)
    return [[int(Fraction(x) * q) for x in row] for row in m], q


def coincidence_index(t) -> int:
    """[Z^d : Z^d meet Z^d.T] from the elementary divisors of T."""
    mi, q = integral(t)
    n = len(mi)
    divisors = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                g = gcd(g, det([[mi[r][c] for c in cols] for r in rows]))
        divisors.append(g)
    ratios = [Fraction(divisors[k] // divisors[k - 1], q) for k in range(1, n + 1)]
    num = prod(r.numerator for r in ratios)
    den = prod(r.denominator for r in ratios)
    if num != den:
        raise ValueError(f"|det| != 1: elementary divisors give {num}/{den}")
    return den


class Quotient:
    """Z^d / S with canonical integer keys x.adj(S) mod |det S|."""

    def __init__(self, sub_rows):
        self.rows = [[int(x) for x in row] for row in sub_rows]
        self.order = abs(det(self.rows))
        self.adj = adjugate(self.rows)
        self.zero = (0,) * len(self.rows)

    def key(self, x) -> tuple[int, ...]:
        n = self.order
        return tuple(
            sum(x[i] * self.adj[i][j] for i in range(len(x))) % n
            for j in range(len(x))
        )

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % self.order for x, y in zip(a, b))


def subgroup(gens, add, zero, accept=None):
    """The subgroup generated by gens, grown one cyclic extension at a time.

    accept, when given, sees every new element; the closure stops and
    returns None as soon as it refuses one.
    """
    elems = {zero}
    for g in gens:
        if g in elems:
            continue
        base = list(elems)
        shift = g
        while shift not in elems:
            fresh = [add(h, shift) for h in base]
            if accept is not None and not all(map(accept, fresh)):
                return None
            elems.update(fresh)
            shift = add(shift, g)
    return elems


def pair_graph(gens, quotient: Quotient):
    """Close {(colour x, colour A.x)} and return it as a dict, or None.

    None means two points of csl1_inv broke the bijection: same colour
    with different image colours, or the reverse.
    """
    fwd = {quotient.zero: quotient.zero}
    back = {quotient.zero: quotient.zero}

    def accept(pair):
        a, b = pair
        return fwd.setdefault(a, b) == b and back.setdefault(b, a) == a

    def add(p, q):
        return quotient.add(p[0], q[0]), quotient.add(p[1], q[1])

    zero = (quotient.zero, quotient.zero)
    return None if subgroup(gens, add, zero, accept) is None else fwd


def _vec_mat(x, m):
    return [sum(x[i] * m[i][j] for i in range(len(x))) for j in range(len(m[0]))]


class CaseOracle:
    """Independent expectations for one case; colour indices come from the
    program's representatives, which are validated first."""

    def __init__(self, case):
        self.case = case
        self.dim = case.dim
        a = [[Fraction(x) for x in row] for row in case.map_rows]
        self.at = transpose(a)
        self.at_inv = inverse(self.at)
        self.fwd_num, self.fwd_q = integral(self.at)        # x -> x.A^T
        self.inv_num, self.inv_q = integral(self.at_inv)    # x -> x.A^-T
        s = [[int(x) for x in row] for row in case.sub_rows]
        self.quotient = Quotient(s)
        self.m = self.quotient.order
        self.sigma1 = coincidence_index(self.at)
        self.sigma1_inv = coincidence_index(self.at_inv)
        self.sigma2 = coincidence_index(mat_mul(mat_mul(s, self.at), inverse(s)))
        self.colour = None
        self.reps = None
        self.full = None
        self.scans: dict[int, dict] = {}

    # -- cheap checks, every analysis ------------------------------------

    def index_problems(self, a) -> list[str]:
        p = []
        if self.sigma1 != self.sigma1_inv:
            p.append(f"two-sided sigma differs: {self.sigma1} vs {self.sigma1_inv}")
        if self.sigma1 != self.case.sigma_closed:
            p.append(f"elementary divisors give sigma {self.sigma1}, closed form {self.case.sigma_closed}")
        got = (a.m, a.sigma1, a.sigma2)
        want = (self.m, self.sigma1, self.sigma2)
        if got != want:
            p.append(f"(m, sigma1, sigma2) = {got}, expected {want}")
        if not (a.sigma2 * a.m == a.t * a.u * a.sigma1 == a.s * a.v * a.sigma1):
            p.append("index formula m.sigma2 = t.u.sigma1 = s.v.sigma1 fails")
        for big, small, what in ((a.m, a.s, "s | m"), (a.m, a.t, "t | m"),
                                 (a.s, a.u, "u | s"), (a.t, a.v, "v | t")):
            if small < 1 or big % small:
                p.append(f"divisibility {what} fails")
        if (len(a.set_I), len(a.set_J)) != (a.s, a.t):
            p.append("|I| != s or |J| != t")
        if (a.permutation is not None) != a.colour_coincidence:
            p.append("permutation present iff colour coincidence fails")
        return p

    # -- full checks, sampled cases --------------------------------------

    def bind_reps(self, reps) -> list[str]:
        """Key the program's representatives; they must be a transversal."""
        if self.reps is not None:
            return [] if reps == self.reps else ["representatives changed between rounds"]
        colour = {}
        for i, rep in enumerate(reps):
            x = [Fraction(v) for v in rep]
            if any(v.denominator != 1 for v in x):
                return [f"representative {i} is not in Z^{self.dim}"]
            colour.setdefault(self.quotient.key([int(v) for v in x]), i)
        if len(colour) != self.m or len(reps) != self.m:
            return [f"{len(reps)} representatives hit {len(colour)} of {self.m} cosets"]
        if colour.get(self.quotient.zero) != 0:
            return ["representative 0 is not in the sublattice"]
        self.colour = colour
        self.reps = reps
        return []

    def _csl_gens(self, num, q, program_basis) -> list[list[int]]:
        """Generators of {x in Z^d : x.num = 0 mod q}."""
        d = self.dim
        if q ** d <= SCAN_LIMIT:
            gens = [list(x) for x in product(range(q), repeat=d)
                    if all(v % q == 0 for v in _vec_mat(x, num))]
            gens += [[q * int(i == j) for j in range(d)] for i in range(d)]
            return gens
        basis = [[Fraction(v) for v in row] for row in program_basis]
        if any(v.denominator != 1 for row in basis for v in row):
            raise ValueError("csl basis is not integral")
        basis = [[int(v) for v in row] for row in basis]
        if any(v % q for row in basis for v in _vec_mat(row, num)):
            raise ValueError("csl basis leaves the coincidence site lattice")
        if abs(det(basis)) != self.sigma1:
            raise ValueError(f"csl basis has index {abs(det(basis))}, sigma is {self.sigma1}")
        return basis

    def full_expectation(self, analysis) -> dict:
        """I, J, verdict and permutation from the bijection definition."""
        if self.full is None:
            gens_inv = self._csl_gens(self.fwd_num, self.fwd_q, analysis.csl1_inv.basis)
            gens_fwd = self._csl_gens(self.inv_num, self.inv_q, analysis.csl1.basis)
            qt = self.quotient
            keys_i = subgroup([qt.key(x) for x in gens_inv], qt.add, qt.zero)
            keys_j = subgroup([qt.key(x) for x in gens_fwd], qt.add, qt.zero)
            pairs = [(qt.key(x), qt.key(self.image(x))) for x in gens_inv]
            graph = pair_graph(pairs, qt)
            self.full = {
                "set_I": tuple(sorted(self.colour[k] for k in keys_i)),
                "set_J": tuple(sorted(self.colour[k] for k in keys_j)),
                "colour_coincidence": graph is not None,
                "permutation": None if graph is None else tuple(
                    sorted((self.colour[a], self.colour[b]) for a, b in graph.items())
                ),
            }
        return self.full

    def image(self, x) -> list[int]:
        out = []
        for v in _vec_mat(x, self.fwd_num):
            if v % self.fwd_q:
                raise ValueError(f"{x} is not in csl1_inv")
            out.append(v // self.fwd_q)
        return out

    def full_problems(self, a) -> list[str]:
        want = self.full_expectation(a)
        got = {
            "set_I": tuple(a.set_I),
            "set_J": tuple(a.set_J),
            "colour_coincidence": a.colour_coincidence,
            "permutation": None if a.permutation is None else tuple(sorted(a.permutation)),
        }
        p = [f"{k}: got {got[k]}, expected {want[k]}" for k in want if got[k] != want[k]]
        u = Fraction(self.m * self.sigma2, len(want["set_J"]) * self.sigma1)
        v = Fraction(self.m * self.sigma2, len(want["set_I"]) * self.sigma1)
        if (a.s, a.t, a.u, a.v) != (len(want["set_I"]), len(want["set_J"]), u, v):
            p.append(f"(s, t, u, v) = {(a.s, a.t, a.u, a.v)}, expected "
                     f"{(len(want['set_I']), len(want['set_J']), u, v)}")
        return p

    def check(self, colouring, analysis, full: bool) -> list[str]:
        p = self.index_problems(analysis)
        if full:
            p += self.bind_reps(colouring.reps)
            if not p:
                try:
                    p += self.full_problems(analysis)
                except ValueError as exc:
                    p.append(str(exc))
        return p

    # -- windows ---------------------------------------------------------

    def colour_of(self, x) -> int:
        return self.colour[self.quotient.key(x)]

    def scan(self, radius: int) -> dict:
        """Every point of the box [-radius, radius]^d, classified directly."""
        if radius not in self.scans:
            colours = {}
            fwd, inv = [], []
            transfer: dict[int, set[int]] = {}
            for x in product(range(-radius, radius + 1), repeat=self.dim):
                c = self.colour_of(x)
                colours[x] = c
                if all(v % self.inv_q == 0 for v in _vec_mat(x, self.inv_num)):
                    fwd.append(x)
                if all(v % self.fwd_q == 0 for v in _vec_mat(x, self.fwd_num)):
                    inv.append(x)
                    transfer.setdefault(c, set()).add(self.colour_of(self.image(x)))
            census = {
                "radius": radius,
                "points_scanned": (2 * radius + 1) ** self.dim,
                "count_csl": len(fwd),
                "count_csl_inv": len(inv),
                "observed_I": sorted({colours[x] for x in inv}),
                "observed_J": sorted({colours[x] for x in fwd}),
                "transfer": [[i, sorted(js)] for i, js in sorted(transfer.items())],
            }
            self.scans[radius] = {"colours": colours, "fwd": set(fwd), "inv": set(inv),
                                  "census": census}
        return self.scans[radius]

    def census_problems(self, census: dict, radius: int) -> list[str]:
        if self.colour is None:
            return ["no verified representatives to colour the window with"]
        want = self.scan(radius)["census"]
        return [] if census == want else [f"census differs from the direct scan: {_diff(census, want)}"]

    def svg_problems(self, svg: str, mode: str, radius: int) -> list[str]:
        if self.colour is None:
            return ["no verified representatives to colour the window with"]
        scan = self.scan(radius)
        pts = {}
        for coords, colour in _SVG_POINT.findall(svg):
            x = tuple(int(v) for v in coords.split(","))
            if x in pts:
                return [f"point {x} drawn twice"]
            pts[x] = int(colour)
        want = {"parent": scan["colours"].keys(), "csl": scan["fwd"], "csl-inv": scan["inv"]}[mode]
        if mode == "parent" and len(pts) != (2 * radius + 1) ** self.dim:
            return [f"parent SVG has {len(pts)} points, expected {(2 * radius + 1) ** self.dim}"]
        if set(pts) != set(want):
            return [f"{mode} SVG draws {len(pts)} points, the window holds {len(want)}"]
        bad = [x for x, c in pts.items() if scan["colours"][x] != c]
        return [f"{len(bad)} points carry the wrong colour, e.g. {bad[0]}"] if bad else []

    def report_problems(self, report: dict, colouring, analysis, census_radius) -> list[str]:
        """A CLI report parsed back against the in-process analysis."""
        want = {
            "m": analysis.m, "sigma1": analysis.sigma1, "sigma2": analysis.sigma2,
            "s": analysis.s, "t": analysis.t, "u": analysis.u, "v": analysis.v,
            "colour_coincidence": analysis.colour_coincidence,
            "set_I": list(analysis.set_I), "set_J": list(analysis.set_J),
            "permutation": None if analysis.permutation is None
            else [list(p) for p in analysis.permutation],
            "reps": [[str(Fraction(x)) for x in rep] for rep in colouring.reps],
        }
        for name in ("csl1", "csl1_inv", "csl2"):
            want[f"{name}_basis"] = [[str(Fraction(x)) for x in row]
                                     for row in getattr(analysis, name).basis]
        p = [f"report {k} differs" for k in want if report.get(k) != want[k]]
        if census_radius is not None:
            p += self.census_problems(report.get("census"), census_radius)
            if report.get("consistent") is not True or report.get("contradictions") != []:
                p.append("oracle report is not consistent")
        return p


_SVG_POINT = re.compile(r'class="pt"[^>]*?data-coords="([-0-9,]+)" data-colour="([0-9]+)"')


def _diff(got, want) -> str:
    if not isinstance(got, dict):
        return f"got {type(got).__name__}"
    keys = [k for k in want if got.get(k) != want[k]]
    return ", ".join(f"{k}: {got.get(k)!r} vs {want[k]!r}" for k in keys[:3])
