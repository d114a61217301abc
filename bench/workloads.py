"""Seeded inputs for the benchmark workloads: corpus, large_index, module8.

A workload is a list of cases (parent Z^d, a sublattice, a coincidence
map) plus the census, render and CLI jobs that ride along with them.
The seed never changes which cases a workload holds, only how each is
presented and sampled:

* corpus and large_index conjugate every case by a seeded sign change
  g = diag(+-1, +-1) of the square lattice: the sublattice becomes S.g
  and the map g^T.A.g, a rotation by the opposite angle when det g = -1.
  The result is isomorphic, so m, sigma, s, t, u, v and the verdict are
  unchanged, while the bases the program sees differ.  Swaps of the
  axes are left out: they change the diagonal of the Hermite forms and
  with it the cost of every colour lookup.
* module8 applies a seeded Galois automorphism xi -> xi^g to both the
  rotation and the submodule generator, and multiplies the generator by
  a seeded unit xi^j.  Again an isomorphic problem.
* the order of the cases in a round, and the sample that gets censuses
  and brute-force checks, are drawn from the seed, stratified so that
  the cost of the sample does not depend on it; renders go to fixed
  cases.

The CLI configs are seed-independent so that report sizes repeat.

Run as a script, ``python3 bench/workloads.py <workload> <seed> <dir>``
builds one workload's inputs in a fresh interpreter, writes its config
files under <dir> and prints the monotonic clock reading at which the
inputs were ready; run.py times set-up with it.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "cslcolour" / "__init__.py").is_file():
    raise SystemExit(f"bench: the package source is missing: {SRC / 'cslcolour'}")
sys.path.insert(0, str(SRC))

from checks import mat_mul, transpose  # noqa: E402
from cslcolour import coincidence, cyclo8, lattice  # noqa: E402

CONFIG_DIR = SRC / "cslcolour" / "configs"
BUNDLED_CONFIGS = (
    "example1.json",
    "example2.json",
    "example2_rect.json",
    "ammann_beenker.json",
    "identity.json",
)
WORKLOADS = ("corpus", "large_index", "module8")

# the acceptance corpus: square-lattice sublattices of index 1..12
CORPUS_SUBLATTICES = (
    ((1, 0), (0, 1)),
    ((2, 0), (0, 1)),
    ((1, 1), (-1, 1)),
    ((3, 0), (0, 1)),
    ((2, 0), (0, 2)),
    ((1, 2), (-2, 1)),
    ((6, 0), (2, 1)),
    ((2, 1), (0, 4)),
    ((3, 0), (0, 3)),
    ((2, 1), (0, 5)),
    ((4, 1), (0, 3)),
    ((12, 0), (0, 1)),
)
# census sample of the corpus: sublattice i meets a rotation of
# denominator CORPUS_CENSUS_DENS[i]; the seed picks which one
CORPUS_CENSUS_DENS = (5, 13, 17, 25, 29, 37, 5, 13, 17, 25, 29, 37)
# renders take, for each of these denominators, the first census case
# that carries it
CORPUS_RENDER_DENS = (5, 13, 25, 37)

# primitive rotations of Z^2 with coincidence index 5, 13 and 25
SQUARE_ROTATIONS = {5: (3, 4), 13: (5, 12), 25: (7, 24)}


def _gauss(a: int, b: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Basis of the Z[i]-ideal generated by a + b.i, as a sublattice of Z^2."""
    return ((a, b), (-b, a))


# (rotation denominator, sublattice basis); m from about 500 to 4000.
# The ideal sublattices of Z[i] prime to the rotation's denominator are
# the colour coincidences; the rest are not.
LARGE_INDEX_CASES = (
    (25, ((25, 0), (0, 25))),      # m 625, s = t = 25
    (25, ((625, 0), (0, 1))),      # m 625, s = t = m
    (5, ((25, 0), (0, 25))),       # m 625, s = t = 125
    (13, ((26, 0), (0, 26))),      # m 676, s = t = 52
    (5, ((1, 7), (0, 600))),       # m 600, s = 120, t = 600
    (5, ((1, 0), (0, 500))),       # m 500, s = t = m
    (25, ((5, 0), (0, 125))),      # m 625, s = t = 125
    (25, _gauss(8, 19)),           # m 425, s = 17, t = 425
    (13, _gauss(23, 0)),           # m 529, colour coincidence
    (5, _gauss(23, 10)),           # m 629, colour coincidence, cyclic
    (13, _gauss(18, 13)),          # m 493, colour coincidence, cyclic
    (13, ((1, 5), (0, 1000))),     # m 1000, s = t = m
    (25, ((2, 0), (0, 1000))),     # m 2000, s = t = m
    (13, ((1, 0), (0, 2197))),     # m 2197, s = t = m
    (5, _gauss(46, 23)),           # m 2645, s = 2645, t = 529
    (5, ((40, 0), (0, 40))),       # m 1600, s = t = 320
    (25, ((1, 0), (0, 4000))),     # m 4000, s = t = m
    (13, ((5, 1), (0, 800))),      # m 4000, s = t = m
    (5, _gauss(47, 0)),            # m 2209, colour coincidence
)
# CLI configs of large_index: indices into LARGE_INDEX_CASES, unconjugated
LARGE_INDEX_CLI = (8, 1)

# module8: powers z^k of the Ammann-Beenker rotation, sigma = 9^k, over
# principal submodules generated by these coefficient vectors
MODULE8_POWERS = tuple(range(1, 9))
MODULE8_GENERATORS = (
    (1, 0, 0, 0),    # m 1
    (1, 1, 0, 0),    # m 2
    (1, 0, 1, 0),    # m 4
    (1, 1, 0, 1),    # m 9
    (2, 0, 0, 0),    # m 16
    (3, 0, 0, 0),    # m 81
)
# CLI configs of module8 beside the bundled ammann_beenker.json:
# (power, generator index)
MODULE8_CLI = ((2, 2), (4, 4), (8, 1))

# census and render window radii (on large_index the census radius is
# a cap), the tail percentile and the number of analyses a run must
# reach so that ten samples lie beyond it
SHAPES = {
    "corpus": dict(census_radius=50, render_radius=24, tail_pct=99.0, min_analyses=1000),
    "large_index": dict(census_radius=40, render_radius=15, tail_pct=75.0, min_analyses=40),
    "module8": dict(census_radius=3, render_radius=2, tail_pct=95.0, min_analyses=200),
}

SIGNS = tuple(((a, 0), (0, b)) for a in (1, -1) for b in (1, -1))


@dataclass
class Case:
    """One (sublattice, map) pair on the parent Z^d.

    sub_rows and map_rows are the exact inputs handed to the program;
    sigma_closed is the coincidence index of Z^d known in closed form
    (the rotation's denominator on Z^2, 9^k for z^k on the module).
    """

    label: str
    dim: int
    sub_rows: tuple
    map_rows: tuple
    sigma_closed: int
    star: bool = False
    reps: Optional[list] = None
    render_radius: int = 0
    oracle_radius: int = 0
    parent: object = None
    sub: object = None
    amap: object = None

    def build(self) -> "Case":
        self.parent = lattice.standard_lattice(self.dim)
        self.sub = lattice.lattice_new(self.sub_rows)
        if self.amap is None:
            self.amap = coincidence.commensurable_map(self.map_rows)
        return self


@dataclass
class CliJob:
    argv: list
    kind: str
    case: Case
    radius: int
    out: str


@dataclass
class Workload:
    name: str
    cases: list
    order: list
    sample: list
    census: dict          # case index -> census window radius
    render_cases: list
    render_radius: int
    cli_jobs: list
    tail_pct: float
    min_analyses: int


def _square_case(den: int, sub_rows, g, label: str) -> Case:
    a, b = SQUARE_ROTATIONS[den]
    rot = ((Fraction(a, den), Fraction(-b, den)), (Fraction(b, den), Fraction(a, den)))
    return _conjugated(rot, sub_rows, g, den, label)


def _conjugated(rot, sub_rows, g, den: int, label: str) -> Case:
    return Case(
        label=label,
        dim=2,
        sub_rows=mat_mul(sub_rows, g),
        map_rows=mat_mul(mat_mul(transpose(g), rot), g),
        sigma_closed=den,
    ).build()


def _denominator(rows) -> int:
    return lcm(*(x.denominator for row in rows for x in row))


def _corpus(rng: random.Random, tiny: bool) -> tuple[list, list, list, list]:
    rotations = coincidence.enumerate_square_rotations(40)
    subs = CORPUS_SUBLATTICES
    if tiny:
        rotations = [next(r for r in rotations if _denominator(r.matrix) == n) for n in (1, 5, 13)]
        subs = subs[:3]
    cases = []
    for ri, rot in enumerate(rotations):
        den = _denominator(rot.matrix)
        for si, sub_rows in enumerate(subs):
            cases.append(
                _conjugated(rot.matrix, sub_rows, rng.choice(SIGNS), den, f"r{ri}s{si}")
            )
    width = len(subs)
    census = []
    for si in range(width):
        want = CORPUS_CENSUS_DENS[si] if not tiny else (5, 13, 1)[si]
        rows = [ri for ri, r in enumerate(rotations) if _denominator(r.matrix) == want]
        census.append(rng.choice(rows) * width + si)
    render = []
    for den in CORPUS_RENDER_DENS if not tiny else (5,):
        render.append(next(c for c in census if cases[c].sigma_closed == den))
    rest = [i for i in range(len(cases)) if i not in census]
    extra = rng.sample(rest, 0 if tiny else 36)
    radius = SHAPES["corpus"]["census_radius"]
    return cases, {i: radius for i in census}, render, census + extra


def _large_index(rng: random.Random, tiny: bool) -> tuple[list, list, list, list]:
    specs = LARGE_INDEX_CASES if not tiny else LARGE_INDEX_CASES[:1] + LARGE_INDEX_CASES[8:10]
    cases = [
        _square_case(den, sub_rows, rng.choice(SIGNS), f"L{i}")
        for i, (den, sub_rows) in enumerate(specs)
    ]
    # each window is narrower than the quotient's exponent, so that the
    # residue memo of window_census never hits; too narrow ones are skipped
    cap = SHAPES["large_index"]["census_radius"]
    census = {}
    for i, c in enumerate(cases):
        radius = min(cap, (_exponent(c.sub_rows) - 2) // 2)
        if radius >= 20:
            census[i] = radius
    everything = list(range(len(cases)))
    render = []
    for den in sorted(SQUARE_ROTATIONS):
        render += [i for i in census if cases[i].sigma_closed == den][: 2 if not tiny else 1]
    return cases, census, sorted(render), everything


def _exponent(rows) -> int:
    """Exponent of Z^2 / S: |det S| over the gcd of the entries of S."""
    (a, b), (c, d) = rows
    return abs(a * d - b * c) // gcd(gcd(a, b), gcd(c, d))


def _power(z, k: int):
    out = cyclo8.CYC8_ONE
    for _ in range(k):
        out = out * z
    return out


def _module8_case(k: int, gen: tuple, galois: int, unit: int, label: str) -> Case:
    power = _power(cyclo8.AMMANN_BEENKER_ROTATION.galois(galois), k)
    w = cyclo8.cyc8(gen).galois(galois) * _power(cyclo8.CYC8_XI, unit)
    amap = cyclo8.multiplication_map(power)
    return Case(
        label=label,
        dim=4,
        sub_rows=cyclo8.cyc8_mul_matrix(w),
        map_rows=amap.matrix,
        sigma_closed=9 ** k,
        star=True,
        amap=amap,
    ).build()


def _module8(rng: random.Random, tiny: bool) -> tuple[list, list, list, list]:
    powers = MODULE8_POWERS if not tiny else (1, 3)
    gens = MODULE8_GENERATORS if not tiny else MODULE8_GENERATORS[1:3]
    cases = []
    for k in powers:
        for gi, gen in enumerate(gens):
            cases.append(
                _module8_case(
                    k, gen, rng.choice((1, 3, 5, 7)), rng.randrange(8), f"z{k}g{gi}"
                )
            )
    # each generator is censused under z and under one seeded higher
    # power; the higher one is also rendered for the first four
    width = len(gens)
    census, render = [], []
    for gi in range(width):
        high = rng.randrange(1, len(powers)) * width + gi
        census += [gi, high]
        if gi < 4:
            render.append(high)
    radius = SHAPES["module8"]["census_radius"]
    return cases, {i: radius for i in census}, render, census


def _config_case(path: Path) -> Case:
    """The Case a CLI config describes, parsed here rather than by the CLI."""
    raw = json.loads(path.read_text())
    dim = raw["dim"]
    parent = tuple(tuple(Fraction(x) for x in row) for row in raw["parent_basis"])
    if parent != tuple(tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)):
        raise ValueError(f"{path.name}: the checks need the parent Z^{dim}")
    sub_rows = tuple(tuple(int(Fraction(x)) for x in row) for row in raw["sub_basis"])
    spec = raw["map"]
    if isinstance(spec, dict) and "coeffs" in spec:
        z = cyclo8.cyc8([Fraction(x) for x in spec["coeffs"]])
        amap = cyclo8.multiplication_map(z)
        sigma = _module8_sigma(z)
        star = True
    else:
        rows = spec["matrix"] if isinstance(spec, dict) else spec
        amap = coincidence.commensurable_map([[Fraction(x) for x in row] for row in rows])
        sigma = _denominator(amap.matrix)
        star = False
    reps = None
    if raw.get("reps") is not None:
        reps = [[Fraction(x) for x in rep] for rep in raw["reps"]]
    case = Case(
        label=path.stem,
        dim=dim,
        sub_rows=sub_rows,
        map_rows=amap.matrix,
        sigma_closed=sigma,
        star=star,
        reps=reps,
        amap=amap,
    ).build()
    case.render_radius = raw["render"]["radius"]
    case.oracle_radius = raw["oracle_radius"]
    return case


def _module8_sigma(z) -> int:
    """9^k when z is a power z_AB^k of the rotation or its conjugate."""
    for k in range(17):
        if _power(cyclo8.AMMANN_BEENKER_ROTATION, k).coeffs in (z.coeffs, z.conjugate().coeffs):
            return 9 ** k
    raise ValueError("map is not a power of the Ammann-Beenker rotation")


def _write_config(case: Case, spec: dict, path: Path) -> None:
    payload = {
        "dim": case.dim,
        "parent_basis": [[str(int(i == j)) for j in range(case.dim)] for i in range(case.dim)],
        "sub_basis": [[str(x) for x in row] for row in case.sub_rows],
        "map": spec,
        "render": {"radius": case.render_radius},
        "oracle_radius": case.oracle_radius,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _cli_configs(name: str, workdir: Path, tiny: bool) -> list[Path]:
    if name == "corpus":
        return [CONFIG_DIR / c for c in (BUNDLED_CONFIGS if not tiny else BUNDLED_CONFIGS[:2])]
    paths = []
    if name == "large_index":
        picks = LARGE_INDEX_CLI if not tiny else LARGE_INDEX_CLI[:1]
        for i in picks:
            den, sub_rows = LARGE_INDEX_CASES[i]
            case = _square_case(den, sub_rows, SIGNS[0], f"L{i}")
            case.render_radius = case.oracle_radius = 10
            path = workdir / f"large_index_{i}.json"
            spec = [[str(x) for x in row] for row in case.map_rows]
            _write_config(case, spec, path)
            paths.append(path)
        return paths
    paths.append(CONFIG_DIR / "ammann_beenker.json")
    for k, gi in MODULE8_CLI if not tiny else MODULE8_CLI[:1]:
        case = _module8_case(k, MODULE8_GENERATORS[gi], 1, 0, f"z{k}g{gi}")
        power = _power(cyclo8.AMMANN_BEENKER_ROTATION, k)
        case.render_radius, case.oracle_radius = 2, 3
        path = workdir / f"module8_z{k}_g{gi}.json"
        _write_config(case, {"coeffs": [str(x) for x in power.coeffs]}, path)
        paths.append(path)
    return paths


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """All inputs of one workload: cases, samples and CLI config files."""
    rng = random.Random(f"{name}:{seed}")
    if name == "corpus":
        cases, census, render, sample = _corpus(rng, tiny)
    elif name == "large_index":
        cases, census, render, sample = _large_index(rng, tiny)
    elif name == "module8":
        cases, census, render, sample = _module8(rng, tiny)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    order = list(range(len(cases)))
    rng.shuffle(order)
    jobs = []
    for i, path in enumerate(_cli_configs(name, workdir, tiny)):
        case = _config_case(path)
        for kind in ("analyze", "oracle", "render"):
            out = str(workdir / f"cli_{i}_{kind}.out")
            argv = [kind, str(path), "--out", out]
            if kind == "render":
                argv[2:2] = ["--mode", "parent"]
            radius = case.render_radius if kind == "render" else case.oracle_radius
            jobs.append(CliJob(argv=argv, kind=kind, case=case, radius=radius, out=out))
    rng.shuffle(jobs)
    shape = SHAPES[name]
    return Workload(
        name=name,
        cases=cases,
        order=order,
        sample=sample,
        census=census,
        render_cases=render,
        render_radius=shape["render_radius"],
        cli_jobs=jobs,
        tail_pct=shape["tail_pct"],
        min_analyses=1 if tiny else shape["min_analyses"],
    )


if __name__ == "__main__":
    build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(repr(time.monotonic()))
