"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. The checker rejects perturbed outputs: sigma off by one, a swapped
   permutation pair, a colour missing from J, a census count off by
   one, an SVG point dropped, a CLI report with a wrong index.
2. A tiny size of each workload runs to its end, untraced and traced,
   with no failed operation and exactly the metrics BENCHMARK.json
   names; tracing leaves the package as it found it.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cslcolour import coincidence, lattice, render  # noqa: E402


def example_case() -> workloads.Case:
    """Z^2 coloured by 3.Z + Z under the 3-4-5 rotation: a colour
    coincidence whose permutation swaps colours 1 and 2."""
    rot = ((Fraction(4, 5), Fraction(-3, 5)), (Fraction(3, 5), Fraction(4, 5)))
    return workloads._conjugated(rot, ((3, 0), (0, 1)), workloads.SIGNS[0], 5, "example2")


def perturbed(a):
    perm = list(a.permutation)
    (i1, j1), (i2, j2) = perm[1], perm[2]
    perm[1], perm[2] = (i1, j2), (i2, j1)
    yield "sigma1 off by one", replace(a, sigma1=a.sigma1 + 1)
    yield "sigma2 off by one", replace(a, sigma2=a.sigma2 - 1)
    yield "swapped permutation pair", replace(a, permutation=tuple(perm))
    yield "colour missing from J", replace(a, set_J=a.set_J[:-1])
    yield "colour of J replaced", replace(a, set_J=a.set_J[:-1] + (a.set_J[-1] + 1,))


def checker_rejects() -> list[str]:
    failures = []
    case = example_case()
    oracle = checks.CaseOracle(case)
    colouring = lattice.Colouring(case.parent, case.sub)
    good = coincidence.analyze(colouring, case.amap)
    if good.permutation is None or len(good.permutation) < 3:
        return ["example case is not a three-colour coincidence"]
    if oracle.check(colouring, good, full=True):
        failures.append(f"correct analysis rejected: {oracle.check(colouring, good, full=True)}")
    for label, bad in perturbed(good):
        if not oracle.check(colouring, bad, full=True):
            failures.append(f"checker accepted: {label}")

    census = coincidence.window_census(colouring, case.amap, 6)
    if oracle.census_problems(census, 6):
        failures.append("correct census rejected")
    if not oracle.census_problems(dict(census, count_csl=census["count_csl"] + 1), 6):
        failures.append("checker accepted: census count off by one")
    if not oracle.census_problems(dict(census, transfer=census["transfer"][1:]), 6):
        failures.append("checker accepted: census transfer entry dropped")

    svg = render.render_svg(colouring, case.amap, "parent", 4)
    if oracle.svg_problems(svg, "parent", 4):
        failures.append("correct SVG rejected")
    lines = svg.splitlines()
    dropped = "\n".join(line for k, line in enumerate(lines) if k != 5)
    if not oracle.svg_problems(dropped, "parent", 4):
        failures.append("checker accepted: SVG point dropped")
    recoloured = svg.replace('data-colour="1"', 'data-colour="2"', 1)
    if not oracle.svg_problems(recoloured, "parent", 4):
        failures.append("checker accepted: SVG point recoloured")

    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT))
    try:
        config = workloads.CONFIG_DIR / "example2.json"
        out = workdir / "report.json"
        run.cli.main(["analyze", str(config), "--out", str(out)])
        cfg_case = workloads._config_case(config)
        ref = checks.CaseOracle(cfg_case)
        ref_colouring = lattice.Colouring(cfg_case.parent, cfg_case.sub, reps=cfg_case.reps)
        ref_analysis = coincidence.analyze(ref_colouring, cfg_case.amap)
        report = json.loads(out.read_text())
        if ref.report_problems(report, ref_colouring, ref_analysis, None):
            failures.append("correct CLI report rejected")
        if not ref.report_problems(dict(report, sigma1=report["sigma1"] + 1),
                                   ref_colouring, ref_analysis, None):
            failures.append("checker accepted: CLI report sigma1 off by one")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return failures


def tiny_runs() -> list[str]:
    failures = []
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    originals = {(mod.__name__, attr): getattr(mod, attr)
                 for _, attr, mods in tracing.FUNCTIONS for mod in mods}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT))
            try:
                result, details = run.run(name, 7, 0, trace, workdir, tiny=True)
            finally:
                (OUT / f"trace-{name}-seed7.jsonl").unlink(missing_ok=True)
                shutil.rmtree(workdir, ignore_errors=True)
            label = f"{name} trace={int(trace)}"
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: {result['attempted']} attempted, "
                                f"{result['failed']} failed: {details['problems']}")
            if set(result["metrics"]) != names[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ names[trace])}")
            print(f"selftest: {label}: {result['attempted']} operations, "
                  f"{result['failed']} failed")
    for (mod_name, attr), fn in originals.items():
        if getattr(sys.modules[mod_name], attr) is not fn:
            failures.append(f"tracing left {mod_name}.{attr} wrapped")
    return failures


def main() -> int:
    OUT.mkdir(exist_ok=True)
    failures = checker_rejects()
    print(f"selftest: checker: {len(failures)} problems")
    failures += tiny_runs()
    for failure in failures:
        print(f"selftest FAIL: {failure}")
    print("selftest: PASS" if not failures else "selftest: FAIL")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
