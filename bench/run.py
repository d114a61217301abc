"""Benchmark of cslcolour: one command, one workload per run.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

A run is single-threaded and closed-loop: each call is issued when the
previous one has returned.  It repeats whole rounds of the workload's
operations (analyses, window censuses, SVG renders, in-process CLI
jobs) until --seconds have passed and the workload's minimum number of
analyses is reached.  Every output is checked against the independent
computations of checks.py; a wrong result or an exception counts as a
failed operation.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics, their timings scaled to the reference speed of
yardstick.py by the machine speed measured around each call.  With
--trace 1 the rounds alternate between untraced and traced, and the
result carries the per-layer metrics of the traced rounds plus the
tracing overhead.  The line before it holds details: rounds, sample
counts, the tail percentile used, the run's speed and the unscaled
figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (exits when the package source is missing)
import checks  # noqa: E402
import tracing  # noqa: E402
import yardstick  # noqa: E402
from cslcolour import cli, coincidence, cyclo8, lattice, render  # noqa: E402

SETUP_PROBES = 7
RENDER_MODES = ("parent", "csl", "csl-inv")
MAX_REPORTED_PROBLEMS = 5


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure_setup(name: str, seed: int, workdir: Path) -> list[float]:
    """Fresh-interpreter set-up times: spawn to the workload's inputs ready."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), name, str(seed), str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - start)
    return times


class Runner:
    def __init__(self, wl: workloads.Workload, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.full = set(wl.sample)
        self.oracles = [checks.CaseOracle(c) for c in wl.cases]
        self.colourings: dict[int, object] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        # one (kind, start, end, work) per timed call; work is 1 or the
        # number of window points scanned
        self.spans: list[tuple[str, float, float, int]] = []
        self.svg_bytes = 0
        self.report_bytes = 0
        self.reports = 0
        self.verified: dict = {}
        self.round_rates: list[dict] = []
        self.stick = yardstick.Yardstick()
        self.schedule = self._schedule()
        self.references = {}
        for job in wl.cli_jobs:
            if id(job.case) not in self.references:
                self.references[id(job.case)] = self._reference(job.case)

    def _reference(self, case):
        """In-process analysis of a CLI config, checked independently."""
        oracle = checks.CaseOracle(case)
        colouring = lattice.Colouring(case.parent, case.sub, reps=case.reps)
        analysis = coincidence.analyze(colouring, case.amap)
        return oracle, colouring, analysis, oracle.check(colouring, analysis, full=True)

    def _op(self, kind: str):
        return self.tracer.operation(kind) if self.tracer else nullcontext()

    def _record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += 1
            if len(self.problems) < MAX_REPORTED_PROBLEMS:
                self.problems.append(f"{label}: {'; '.join(problems)}")

    def _crash(self, label: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(f"{label}: {traceback.format_exc(limit=3)}")

    def analysis(self, i: int) -> None:
        case = self.wl.cases[i]
        try:
            start = perf_counter()
            with self._op("analysis"):
                colouring = lattice.Colouring(case.parent, case.sub, reps=case.reps)
                result = coincidence.analyze(colouring, case.amap)
            self.spans.append(("analysis", start, perf_counter(), 1))
        except Exception:
            self._crash(f"analysis {case.label}")
            return
        self.colourings[i] = colouring
        self._record(f"analysis {case.label}",
                     self.oracles[i].check(colouring, result, full=i in self.full))

    def census(self, i: int) -> None:
        case = self.wl.cases[i]
        radius = self.wl.census[i]
        try:
            start = perf_counter()
            with self._op("census"):
                census = coincidence.window_census(self.colourings[i], case.amap, radius)
            self.spans.append(("census", start, perf_counter(), (2 * radius + 1) ** case.dim))
        except Exception:
            self._crash(f"census {case.label}")
            return
        self._record(f"census {case.label}", self.oracles[i].census_problems(census, radius))

    def render(self, i: int, mode: str) -> None:
        case = self.wl.cases[i]
        radius = self.wl.render_radius
        try:
            start = perf_counter()
            with self._op("render"):
                svg = render.render_svg(self.colourings[i], case.amap, mode, radius,
                                        star_embedding=case.star)
            self.spans.append(("render", start, perf_counter(), (2 * radius + 1) ** case.dim))
        except Exception:
            self._crash(f"render {case.label} {mode}")
            return
        self.svg_bytes += len(svg)
        key = ("svg", i, mode)
        if self.verified.get(key) != svg:
            problems = self.oracles[i].svg_problems(svg, mode, radius)
            self._record(f"render {case.label} {mode}", problems)
            if not problems:
                self.verified[key] = svg
        else:
            self._record(f"render {case.label} {mode}", [])

    def cli_job(self, j: int) -> None:
        job = self.wl.cli_jobs[j]
        label = f"cli {' '.join(job.argv[:1] + [Path(job.argv[1]).name])}"
        try:
            start = perf_counter()
            with self._op("cli"):
                code = cli.main(job.argv)
            self.spans.append(("cli", start, perf_counter(), 1))
            with open(job.out, encoding="utf-8") as fh:
                text = fh.read()
        except Exception:
            self._crash(label)
            return
        if job.kind != "render":
            self.report_bytes += len(text.encode())
            self.reports += 1
        if code != 0:
            self._record(label, [f"exit code {code}"])
            return
        if self.verified.get(("cli", j)) == text:
            self._record(label, [])
            return
        oracle, colouring, analysis, problems = self.references[id(job.case)]
        problems = list(problems)
        if job.kind == "render":
            problems += oracle.svg_problems(text, "parent", job.radius)
        else:
            radius = job.radius if job.kind == "oracle" else None
            problems += oracle.report_problems(json.loads(text), colouring, analysis, radius)
        self._record(label, problems)
        if not problems:
            self.verified[("cli", j)] = text

    def work(self, kind: str) -> int:
        return sum(w for k, _, _, w in self.spans if k == kind)

    def round(self) -> None:
        # the benchmark's own long-lived objects (checks, spans, verified
        # outputs) leave the collector's generations, so that collections
        # during a timed call cost what they would in the CLI
        gc.collect()
        gc.freeze()
        first = len(self.spans)
        calls, seconds = self.stick.calls, self.stick.seconds
        self._round()
        rates = _rates(self.spans[first:], _unscaled)
        rates["speed"] = _rate(self.stick.calls - calls, self.stick.seconds - seconds) \
            / yardstick.REFERENCE_RATE
        self.round_rates.append(rates)

    def _round(self) -> None:
        for op, args in self.schedule:
            op(*args)
            self.stick.pace()

    def _schedule(self) -> list:
        """One round: the analyses in the workload's order, each census
        and render right after its case's analysis, and the CLI jobs
        spread evenly, so that every kind of operation is sampled across
        the whole run."""
        wl = self.wl
        renders = set(wl.render_cases)
        slots = len(wl.order)
        jobs_at: dict[int, list[int]] = {}
        for j in range(len(wl.cli_jobs)):
            jobs_at.setdefault(int((j + 0.5) * slots / len(wl.cli_jobs)), []).append(j)
        ops = []
        for pos, i in enumerate(wl.order):
            ops.append((self.analysis, (i,)))
            if i in wl.census:
                ops.append((self.census, (i,)))
            if i in renders:
                ops += [(self.render, (i, mode)) for mode in RENDER_MODES]
            ops += [(self.cli_job, (j,)) for j in jobs_at.get(pos, [])]
        return ops


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


RATES = {
    "analysis": "analyses_per_s",
    "census": "census_points_per_s",
    "render": "render_points_per_s",
    "cli": "cli_jobs_per_s",
}


def _unscaled(start: float, end: float) -> float:
    return 1.0


def _rates(spans, scale) -> dict:
    """Work per second for each kind of call, each duration multiplied
    by scale(start, end)."""
    work = dict.fromkeys(RATES, 0)
    seconds = dict.fromkeys(RATES, 0.0)
    for kind, start, end, w in spans:
        work[kind] += w
        seconds[kind] += (end - start) * scale(start, end)
    return {name: _rate(work[kind], seconds[kind]) for kind, name in RATES.items()}


def end_to_end(r: Runner, setup_s: float, scale) -> dict:
    """The metrics of a run, each duration multiplied by scale(start, end):
    the machine speed measured around the call gives timings at the
    reference speed, _unscaled gives them as measured."""
    times = [(e - s) * scale(s, e) for k, s, e, _ in r.spans if k == "analysis"]
    rates = _rates(r.spans, scale)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "analyses_per_s": (rates["analyses_per_s"], "1/s"),
        "analysis_ms_p50": (1000 * statistics.median(times), "ms"),
        "analysis_ms_tail": (1000 * percentile(times, r.wl.tail_pct), "ms"),
        "census_points_per_s": (rates["census_points_per_s"], "1/s"),
        "render_points_per_s": (rates["render_points_per_s"], "1/s"),
        "cli_jobs_per_s": (rates["cli_jobs_per_s"], "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(r: Runner, tracer, overhead_pct: float) -> dict:
    n = max(1, tracer.calls("analysis", "bench.analysis"))

    def per_analysis(name):
        return tracer.calls("analysis", name) / n, 1000 * tracer.total("analysis", name) / n

    out = {}
    for metric, span in (
        ("ratmat.hermite", "ratmat._hermite"),
        ("ratmat.snf", "ratmat.snf"),
        ("ratmat.rat_inverse", "ratmat.rat_inverse"),
        ("lattice.lattice_new", "lattice.lattice_new"),
        ("lattice.intersect", "lattice.intersect"),
        ("lattice.transform", "lattice.transform"),
        ("lattice.index", "lattice.index"),
        ("lattice.coset_meets", "lattice.coset_meets_lattice"),
        ("coincidence.csl", "coincidence.csl"),
    ):
        calls, ms = per_analysis(span)
        out[f"{metric}_calls"] = (calls, "calls/analysis")
        out[f"{metric}_ms"] = (ms, "ms/analysis")
    out["ratmat.hermite_max_bits"] = (tracer.hermite_max_bits, "bits")
    out["lattice.colouring_ms"] = (per_analysis("lattice.Colouring")[1], "ms/analysis")
    out["lattice.coset_reps_ms"] = (per_analysis("lattice.coset_reps")[1], "ms/analysis")
    meets = tracer.calls("analysis", "lattice.coset_meets_lattice")
    out["lattice.coset_meets_hit_ratio"] = (tracer.meets_hits / meets if meets else 0.0, "ratio")
    out["coincidence.colour_permutation_ms"] = (
        per_analysis("coincidence.colour_permutation")[1], "ms/analysis")
    out["coincidence.analyze_self_ms"] = (
        1000 * tracer.self_time("analysis", "coincidence.analyze") / n, "ms/analysis")
    census_points, render_points = r.work("census"), r.work("render")
    census_kpoints = census_points / 1000.0
    out["coincidence.census_ms_per_kpoint"] = (
        1000 * tracer.total("census", "coincidence.window_census") / census_kpoints, "ms/kpoint")
    out["coincidence.census_colour_lookups_per_point"] = (
        tracer.calls("census", "lattice.colour_of_coords") / census_points, "lookups/point")
    calls, seconds = tracer.calls_any("cyclo8.multiplication_map")
    out["cyclo8.multiplication_map_ms"] = (1000 * seconds / calls, "ms/call")
    renders = tracer.calls("render", "render.render_svg")
    out["render.render_svg_ms"] = (
        1000 * tracer.total("render", "render.render_svg") / renders, "ms/call")
    out["render.colour_lookups_per_point"] = (
        tracer.calls("render", "lattice.colour_of_coords") / render_points, "lookups/point")
    out["render.svg_bytes_per_point"] = (r.svg_bytes / render_points, "bytes/point")
    loads = tracer.calls("cli", "cli.load_job_config")
    out["cli.load_job_config_ms"] = (
        1000 * tracer.total("cli", "cli.load_job_config") / loads, "ms/call")
    builds = tracer.calls("cli", "cli.build_report")
    out["cli.build_report_ms"] = (
        1000 * tracer.total("cli", "cli.build_report") / builds, "ms/call")
    out["cli.report_bytes"] = (r.report_bytes / r.reports, "bytes/report")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, details)."""
    setup_times = [] if trace else measure_setup(name, seed, workdir)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        with tracer.operation("setup"):
            wl = workloads.build(name, seed, workdir, tiny=tiny)
        if tracer.calls_any("cyclo8.multiplication_map")[0] == 0:
            # the workload never touches the module: time the layer on
            # the eight rotation powers so that it still has a figure
            with tracer.operation("setup"):
                power = cyclo8.AMMANN_BEENKER_ROTATION
                for _ in range(8):
                    cyclo8.multiplication_map(power)
                    power = power * cyclo8.AMMANN_BEENKER_ROTATION
    else:
        wl = workloads.build(name, seed, workdir, tiny=tiny)

    traced = Runner(wl, tracer) if trace else None
    plain = Runner(wl)
    rates = {"plain": [], "traced": []}
    rounds = 0
    start = perf_counter()
    while True:
        runner = traced if trace and rounds % 2 else plain
        if trace:
            (tracer.install if runner is traced else tracer.uninstall)()
        runner.round()
        last = runner.round_rates[-1]
        rates["traced" if runner is traced else "plain"].append(
            last["analyses_per_s"] / last["speed"])
        rounds += 1
        enough = plain.work("analysis") >= wl.min_analyses
        if trace:
            enough = enough and rounds >= 2
        if perf_counter() - start >= seconds and enough:
            break
    measured = perf_counter() - start
    if trace:
        tracer.uninstall()
        tracer.write(workdir.parent / f"trace-{name}-seed{seed}.jsonl")

    runners = [plain] + ([traced] if trace else [])
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    wrong = sum(r.wrong for r in runners)
    if trace:
        overhead = 100.0 * (statistics.median(rates["plain"])
                            / statistics.median(rates["traced"]) - 1.0)
        metrics = per_layer(traced, tracer, overhead)
        raw = {}
    else:
        # set-up, in other processes, is scaled by the speed of the whole run
        setup_s = statistics.median(setup_times)
        metrics = end_to_end(plain, setup_s * plain.stick.speed(), plain.stick.speed_around)
        raw = {k: v for k, (v, _) in end_to_end(plain, setup_s, _unscaled).items()}
    times = [e - s for k, s, e, _ in plain.spans if k == "analysis"]
    tail = percentile(times, wl.tail_pct)
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "rounds": rounds,
        "seconds_measured": round(measured, 3),
        "cases": len(wl.cases),
        "analyses": len(times),
        "tail_percentile": wl.tail_pct,
        "tail_samples_beyond": sum(1 for t in times if t > tail),
        "setup_samples": [round(t, 4) for t in setup_times],
        "speed": plain.stick.speed(),
        "raw_metrics": raw,
        "round_rates": [{k: round(v, 4) for k, v in r.items()} for r in plain.round_rates],
        "problems": [p for r in runners for p in r.problems],
    }
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in details["problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
