"""CLI tests: config validation, reports, renders, exit codes, goldens.

Every invocation goes through ``main(argv)`` so the tests exercise the
real argument parsing and error mapping.  Two tests run
``python -m cslcolour`` in a fresh interpreter: one compares its bytes
with ``main``'s, and one table holds the failures that a whole process
meets differently from an in-process call.  Bundled configs are read
from the installed package directory.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cslcolour
import cslcolour.cli as cli_module
import cslcolour.lattice as lattice_module
from cslcolour.cli import main
from cslcolour.coincidence import analyze, commensurable_map
from cslcolour.cyclo8 import AMMANN_BEENKER_ROTATION, multiplication_map
from cslcolour.errors import ConfigError
from cslcolour.lattice import Colouring, coset_reps, lattice_new
from cslcolour.ratmat import format_rational, mat_mul, rat_inverse
from cslcolour.render import render_svg

CONFIG_DIR = Path(cslcolour.__file__).parent / "configs"
GOLDEN_DIR = Path(__file__).parent / "golden"
ALL_CONFIGS = [
    "example1.json",
    "example2.json",
    "example2_rect.json",
    "ammann_beenker.json",
    "identity.json",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def config(name: str) -> str:
    return str(CONFIG_DIR / name)


def variant(tmp_path, base: str, **changes) -> str:
    """Copy a bundled config with top-level keys replaced (None deletes)."""
    raw = json.loads((CONFIG_DIR / base).read_text())
    for key, value in changes.items():
        if value is None:
            raw.pop(key, None)
        else:
            raw[key] = value
    out = tmp_path / f"variant_{base}"
    out.write_text(json.dumps(raw))
    return str(out)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_example1(capsys):
    code, out, err = run(capsys, "analyze", config("example1.json"))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["tool_version"] == cslcolour.__version__
    assert (report["m"], report["sigma1"], report["sigma2"]) == (6, 5, 10)
    assert (report["s"], report["t"], report["u"], report["v"]) == (6, 6, 2, 2)
    assert report["colour_coincidence"] is False
    assert report["permutation"] is None
    assert report["set_I"] == list(range(6))
    assert report["set_J"] == list(range(6))
    assert report["reps"][1] == ["1", "0"]
    assert report["csl1_basis"] == [["1", "2"], ["0", "5"]]
    assert report["csl1_inv_basis"] == [["1", "3"], ["0", "5"]]
    assert report["config"]["dim"] == 2


def test_analyze_example2(capsys):
    code, out, _ = run(capsys, "analyze", config("example2.json"))
    assert code == 0
    report = json.loads(out)
    assert (report["sigma1"], report["sigma2"]) == (5, 5)
    assert report["colour_coincidence"] is True
    assert report["permutation"] == [[0, 0], [1, 2], [2, 1]]


def test_analyze_rectangular_defaults_reps(capsys):
    code, out, _ = run(capsys, "analyze", config("example2_rect.json"))
    assert code == 0
    report = json.loads(out)
    assert (report["m"], report["sigma1"], report["sigma2"]) == (2, 5, 10)
    assert report["colour_coincidence"] is False
    assert len(report["reps"]) == 2
    assert report["reps"][0] == ["0", "0"]


# a parent with den 2 and a non-diagonal Hermite basis, [[1, 2], [0, 5]] / 2,
# coloured by a sublattice of index 6 under the 3-4-5 rotation
RATIONAL_PARENT = [["1/2", "1"], ["0", "5/2"]]
RATIONAL_PARENT_SUB = [["1", "9/2"], ["0", "15/2"]]
ROTATION_345 = [["4/5", "-3/5"], ["3/5", "4/5"]]


@pytest.mark.parametrize("custom", [False, True], ids=["default-reps", "custom-reps"])
def test_report_strings_on_a_rational_parent(capsys, tmp_path, custom):
    parent, sub = lattice_new(RATIONAL_PARENT), lattice_new(RATIONAL_PARENT_SUB)
    reps = None
    if custom:
        # the default reps, renumbered and moved by sublattice vectors
        default, (b0, b1) = Colouring(parent, sub).reps, sub.basis
        reps = [default[0]] + [
            tuple(x + (i % 3 - 1) * r + (i % 2) * t for x, r, t in zip(rep, b0, b1))
            for i, rep in enumerate(default[:0:-1])
        ]
    colouring = Colouring(parent, sub, reps=reps)
    analysis = analyze(colouring, commensurable_map(ROTATION_345))
    path = variant(
        tmp_path, "example1.json", parent_basis=RATIONAL_PARENT, sub_basis=RATIONAL_PARENT_SUB,
        map=ROTATION_345,
        reps=[[format_rational(x) for x in rep] for rep in reps] if custom else None,
    )
    code, out, err = run(capsys, "analyze", path)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["m"] == 6 and parent.den == 2
    assert report["reps"] == [[format_rational(x) for x in rep] for rep in colouring.reps]
    assert any("/" in x for rep in report["reps"] for x in rep)
    for name in ("csl1", "csl1_inv", "csl2"):
        basis = getattr(analysis, name).basis
        assert report[f"{name}_basis"] == [[format_rational(x) for x in row] for row in basis]


def rotation_block(a: int, b: int) -> list[list[str]]:
    """The rotation (p/c, -q/c; q/c, p/c) with c = a^2 + b^2, p = a^2 - b^2, q = 2ab."""
    c, p, q = a * a + b * b, a * a - b * b, 2 * a * b
    return [[f"{p}/{c}", f"{-q}/{c}"], [f"{q}/{c}", f"{p}/{c}"]]


def identity_rows(d: int) -> list[list[str]]:
    return [["1" if i == j else "0" for j in range(d)] for i in range(d)]


def block_diagonal(r1, r2) -> list[list[str]]:
    return [row + ["0", "0"] for row in r1] + [["0", "0"] + row for row in r2]


# Each input entry has at most 4300 digits, but the report does not:
# - d = 2, c of 4300 digits: csl2_basis has an entry of 4305 digits;
# - d = 4, two rotations with coprime c of 2200 digits: every basis
#   entry is short, but sigma1 = c1.c2 has 4400 digits.
DIGIT_LIMIT_CASES = {
    "basis-entry": dict(
        sub_basis=[["99991", "0"], ["0", "1"]],
        map=rotation_block(int("7" * 2150), int("3" * 2149)),
    ),
    "sigma": dict(
        dim=4, parent_basis=identity_rows(4), sub_basis=identity_rows(4),
        map=block_diagonal(
            rotation_block(int("7" * 1100), int("3" * 1099)),
            rotation_block(int("8" * 1100), int("1" * 1099)),
        ),
    ),
}


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python writes ints of any length"
)
@pytest.mark.parametrize("case", DIGIT_LIMIT_CASES)
def test_report_over_the_integer_digit_limit_is_one_config_error(capsys, tmp_path, case):
    path = variant(tmp_path, "example1.json", reps=None, **DIGIT_LIMIT_CASES[case])
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default
    try:
        code, out, err = run(capsys, "analyze", path)
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "ConfigError"
    assert "digit limit" in error["message"] and "4300" in error["message"]


def _at_the_digit_limit(capsys, *argv):
    """`run` with Python's default int-to-str limit of 4300 digits."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        return run(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python writes ints of any length"
)
@pytest.mark.parametrize("command", ["analyze", "oracle", "render"])
def test_a_sub_basis_outside_the_parent_over_the_digit_limit_is_one_config_error(
    capsys, tmp_path, command
):
    """Every entry has at most 4000 digits, but a product of two, and so a
    message that wrote the sublattice, has about 8000."""
    sub = [["1" + "0" * 3998 + "1", "1/2"], ["1" + "0" * 3999, "9" * 4000]]
    path = variant(tmp_path, "example1.json", reps=None, sub_basis=sub)
    code, out, err = _at_the_digit_limit(capsys, *_argv(command, path, tmp_path))
    assert code == 2 and out == ""
    assert _one_error(err) == {
        "type": "ConfigError", "message": "invalid colouring: colouring needs sub inside parent"
    }


def _one_error(err: str) -> dict:
    (line,) = err.splitlines()
    return json.loads(line)["error"]


def _argv(command: str, path: str, tmp_path) -> list[str]:
    """A command line for one of analyze, oracle and render of one config."""
    if command == "render":
        return [command, path, "--mode", "parent", "--out", str(tmp_path / "x.svg")]
    return [command, path]


# Counts a budget refuses that are over the digit limit when written out:
# a radius of 4000 digits gives a window of 8000 digits in d = 2, and
# diag(9...9, 9...9) with 4000 digits each gives m of 8000 digits.
OVER_LIMIT_BUDGET_CASES = {
    "render-radius": dict(render={"radius": int("9" * 4000)}),
    "oracle-radius": dict(oracle_radius=int("9" * 4000)),
    "colours": dict(sub_basis=[["9" * 4000, "0"], ["0", "9" * 4000]]),
}


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python writes ints of any length"
)
@pytest.mark.parametrize("command", ["analyze", "oracle", "render"])
@pytest.mark.parametrize("case", OVER_LIMIT_BUDGET_CASES)
def test_budget_refusal_over_the_integer_digit_limit_is_one_config_error(
    capsys, tmp_path, case, command
):
    path = variant(tmp_path, "example1.json", reps=None, **OVER_LIMIT_BUDGET_CASES[case])
    code, out, err = _at_the_digit_limit(capsys, *_argv(command, path, tmp_path))
    assert code == 2 and out == ""
    error = _one_error(err)
    assert error["type"] == "ConfigError"
    assert "budget" in error["message"] and "about 10^8000" in error["message"]
    # the radius is echoed bounded too, so the message stays one short line
    assert len(error["message"]) < 200


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python writes ints of any length"
)
@pytest.mark.parametrize("command", ["analyze", "oracle", "render"])
def test_colour_budget_is_checked_before_custom_reps(capsys, tmp_path, command):
    """example 1 keeps its 6 reps while sub_basis gives m of 8000 digits:
    the refusal names the colour budget, not the reps."""
    path = variant(tmp_path, "example1.json", **OVER_LIMIT_BUDGET_CASES["colours"])
    code, out, err = _at_the_digit_limit(capsys, *_argv(command, path, tmp_path))
    assert code == 2 and out == ""
    error = _one_error(err)
    assert error["type"] == "ConfigError"
    assert error["message"] == "sub_basis gives about 10^8000 colours, over the budget of 100000"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python writes ints of any length"
)
@pytest.mark.parametrize("command", ["analyze", "oracle", "render"])
def test_huge_determinant_is_one_not_coincidence_error(capsys, tmp_path, command):
    """A = diag(10^2200, 10^2200): |det| has 4401 digits, over the digit limit."""
    big = "1" + "0" * 2200
    path = variant(tmp_path, "example1.json", map=[[big, "0"], ["0", big]])
    code, out, err = _at_the_digit_limit(capsys, *_argv(command, path, tmp_path))
    assert code == 3 and out == ""
    assert _one_error(err) == {"type": "NotCoincidence", "message": "|det| = about 10^4400 != 1"}


def test_analyze_rank4(capsys):
    code, out, _ = run(capsys, "analyze", config("ammann_beenker.json"))
    assert code == 0
    report = json.loads(out)
    assert (report["m"], report["sigma1"], report["sigma2"]) == (4, 9, 9)
    assert report["colour_coincidence"] is True
    assert report["permutation"] == [[0, 0], [1, 1], [2, 2], [3, 3]]


def test_a_ring_element_map_gives_the_report_of_its_rational_matrix(capsys, tmp_path):
    """The Ammann-Beenker config with its map as {"coeffs": ...} and as the
    rational matrix of multiplication_map: the reports differ in the echoed
    config only."""
    matrix = multiplication_map(AMMANN_BEENKER_ROTATION).matrix
    as_matrix = [[format_rational(x) for x in row] for row in matrix]
    reports = []
    for path in (config("ammann_beenker.json"),
                 variant(tmp_path, "ammann_beenker.json", map=as_matrix)):
        code, out, err = run(capsys, "analyze", path)
        assert (code, err) == (0, "")
        reports.append({key: value for key, value in json.loads(out).items() if key != "config"})
    assert reports[0] == reports[1] and reports[0]["sigma1"] == 9


def test_analyze_identity(capsys):
    code, out, _ = run(capsys, "analyze", config("identity.json"))
    assert code == 0
    report = json.loads(out)
    assert (report["m"], report["sigma1"], report["sigma2"]) == (1, 1, 1)
    assert report["colour_coincidence"] is True


def test_analyze_out_file_matches_stdout(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", config("example1.json"), "--out", str(dest))
    assert code == 0 and out == ""
    code2, stdout_version, _ = run(capsys, "analyze", config("example1.json"))
    assert dest.read_text(encoding="utf-8") == stdout_version


# ---------------------------------------------------------------------------
# oracle


def test_oracle_example1(capsys):
    code, out, err = run(capsys, "oracle", config("example1.json"))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["consistent"] is True
    assert report["contradictions"] == []
    census = report["census"]
    assert census["radius"] == 10
    assert census["observed_I"] == list(range(6))
    assert census["transfer"] == [
        [0, [0, 3]], [1, [2, 5]], [2, [1, 4]],
        [3, [0, 3]], [4, [2, 5]], [5, [1, 4]],
    ]


def test_oracle_all_bundled_configs_consistent(capsys):
    for name in ALL_CONFIGS:
        code, out, _ = run(capsys, "oracle", config(name))
        assert code == 0, name
        report = json.loads(out)
        assert report["consistent"] is True, name
        assert report["contradictions"] == [], name


def test_oracle_covers_i_and_j_on_the_bundled_configs(capsys):
    for name in ALL_CONFIGS:
        report = json.loads(run(capsys, "oracle", config(name))[1])
        assert report["coverage"] == {"I": [report["s"]] * 2, "J": [report["t"]] * 2}, name


def test_oracle_shows_a_vacuous_window(capsys, tmp_path):
    # z^3 on the eightfold module has sigma 729: at radius 4 the window
    # meets csl1_inv only at the origin, which disproves nothing
    z = AMMANN_BEENKER_ROTATION
    cubed = {"coeffs": [format_rational(x) for x in (z * z * z).coeffs]}
    code, out, _ = run(capsys, "oracle", variant(tmp_path, "ammann_beenker.json", map=cubed))
    assert code == 0
    report = json.loads(out)
    assert report["sigma1"] == 729 and report["consistent"] is True
    assert report["coverage"] == {"I": [1, 4], "J": [1, 4]}
    assert list(report)[-1] == "coverage"


def test_oracle_contradiction_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        cli_module, "census_contradictions", lambda analysis, census: ["injected"]
    )
    code, out, err = run(capsys, "oracle", config("identity.json"))
    assert code == 4
    report = json.loads(out)
    assert report["consistent"] is False
    assert report["contradictions"] == ["injected"]
    assert json.loads(err)["error"]["type"] == "OracleContradiction"


def test_oracle_reports_an_unpredicted_colour_with_a_transfer(capsys, monkeypatch):
    # planar example 2 is a colour coincidence, so its transfer is read
    # against the permutation, which has no colour 7
    census = cli_module.window_census

    def with_colour_7(*args):
        out = census(*args)
        out["observed_I"].append(7)
        out["transfer"].append([7, [0]])
        return out

    monkeypatch.setattr(cli_module, "window_census", with_colour_7)
    code, out, err = run(capsys, "oracle", config("example2.json"))
    assert code == 4
    assert json.loads(out)["contradictions"] == [
        "colours [7] observed in csl1_inv but not predicted"
    ]
    assert json.loads(err)["error"]["type"] == "OracleContradiction"


# ---------------------------------------------------------------------------
# render


def circles(svg: str):
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    return [c for c in root.iter(f"{ns}circle")]


def test_render_example1_parent(capsys, tmp_path):
    dest = tmp_path / "fig.svg"
    code, _, _ = run(
        capsys, "render", config("example1.json"), "--mode", "parent", "--out", str(dest)
    )
    assert code == 0
    svg = dest.read_text(encoding="utf-8")
    pts = [c for c in circles(svg) if c.get("class") == "pt"]
    assert len(pts) == 17 * 17
    by_coords = {c.get("data-coords"): c for c in pts}
    assert by_coords["1,0"].get("fill") == "#ffff00"
    assert by_coords["2,1"].get("fill") == "#000000"
    assert by_coords["6,0"].get("fill") == "#000000"
    # csl points carry the highlight ring in parent mode
    highlighted = [c for c in pts if c.get("stroke")]
    assert len(highlighted) == 57
    assert by_coords["1,2"].get("stroke") == "#000000"
    origins = [c for c in circles(svg) if c.get("class") == "origin"]
    assert len(origins) == 1


def test_render_example1_csl_uses_all_colours(capsys, tmp_path):
    dest = tmp_path / "fig.svg"
    code, _, _ = run(
        capsys, "render", config("example1.json"), "--mode", "csl", "--out", str(dest)
    )
    assert code == 0
    pts = [c for c in circles(dest.read_text()) if c.get("class") == "pt"]
    assert len(pts) == 57
    assert {c.get("data-colour") for c in pts} == {"0", "1", "2", "3", "4", "5"}


def test_render_modes_differ(capsys, tmp_path):
    outs = {}
    for mode in ("parent", "csl", "csl-inv"):
        dest = tmp_path / f"{mode}.svg"
        code, _, _ = run(
            capsys, "render", config("example1.json"), "--mode", mode, "--out", str(dest)
        )
        assert code == 0
        outs[mode] = dest.read_text()
    assert outs["csl"] != outs["csl-inv"] != outs["parent"]


def test_render_rank4_star(capsys, tmp_path):
    dest = tmp_path / "ab.svg"
    code, _, _ = run(
        capsys, "render", config("ammann_beenker.json"), "--mode", "parent",
        "--out", str(dest),
    )
    assert code == 0
    svg = dest.read_text()
    pts = [c for c in circles(svg) if c.get("class") == "pt"]
    assert len(pts) == 5 ** 4
    xi = next(c for c in pts if c.get("data-coords") == "0,1,0,0")
    assert xi.get("data-colour") == "2"
    assert float(xi.get("cx")) == pytest.approx(2 ** 0.5 / 2, abs=1e-4)


def test_render_radius_zero(capsys, tmp_path):
    path = variant(tmp_path, "identity.json", render={"radius": 0})
    dest = tmp_path / "origin.svg"
    code, _, _ = run(capsys, "render", path, "--mode", "parent", "--out", str(dest))
    assert code == 0
    pts = [c for c in circles(dest.read_text()) if c.get("class") == "pt"]
    assert len(pts) == 1
    assert pts[0].get("data-coords") == "0,0"


def test_render_custom_palette(capsys, tmp_path):
    palette = ["#111111", "#222222"]
    path = variant(
        tmp_path, "example2_rect.json", render={"radius": 2, "palette": palette}
    )
    dest = tmp_path / "fig.svg"
    code, _, _ = run(capsys, "render", path, "--mode", "parent", "--out", str(dest))
    assert code == 0
    fills = {c.get("fill") for c in circles(dest.read_text()) if c.get("class") == "pt"}
    assert fills == set(palette)


def test_render_palette_too_short(capsys, tmp_path):
    path = variant(
        tmp_path, "example1.json", render={"radius": 2, "palette": ["#111111"]}
    )
    dest = tmp_path / "fig.svg"
    code, _, err = run(capsys, "render", path, "--mode", "parent", "--out", str(dest))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize(
    "entry", ["#zz</svg><script>x</script>", "#12345", "#1234567", "#12345g"]
)
def test_render_palette_entries_must_be_rrggbb(capsys, tmp_path, entry):
    # a palette entry is written into every fill attribute of its colour
    path = variant(
        tmp_path, "example2_rect.json", render={"radius": 2, "palette": ["#111111", entry]}
    )
    dest = tmp_path / "fig.svg"
    code, out, err = run(capsys, "render", path, "--mode", "parent", "--out", str(dest))
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "ConfigError" and "#rrggbb" in error["message"]
    assert not dest.exists()


def _rendered(path: str, mode: str) -> str:
    """`render_svg` of a config, as the library draws it."""
    cfg = cli_module.load_job_config(path)
    return render_svg(
        cli_module.build_colouring(cfg), cfg.amap, mode, cfg.render_radius,
        palette=cfg.palette, highlight_csl=cfg.highlight_csl,
        star_embedding=cfg.star_embedding,
    )


class _Writes(io.StringIO):
    """A stdout that counts its non-empty writes."""

    writes = 0

    def write(self, text):
        self.writes += bool(text)
        return super().write(text)


def _render_both_ways(capsys, monkeypatch, tmp_path, path, mode):
    """The SVG that render writes to stdout, the number of writes, and the file it writes."""
    stdout = _Writes()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        assert main(["render", path, "--mode", mode]) == 0
    dest = tmp_path / f"{mode}.svg"
    code, out, err = run(capsys, "render", path, "--mode", mode, "--out", str(dest))
    assert (code, out, err) == (0, "", "")
    return stdout.getvalue(), stdout.writes, dest.read_text(encoding="utf-8")


@pytest.mark.parametrize("mode", cli_module.RENDER_MODES)
@pytest.mark.parametrize("name", ALL_CONFIGS)
def test_render_writes_render_svg_to_stdout_and_to_out(capsys, monkeypatch, tmp_path, name, mode):
    svg = _rendered(config(name), mode)
    assert _render_both_ways(capsys, monkeypatch, tmp_path, config(name), mode) == (svg, 1, svg)


def test_render_writes_a_window_of_more_than_one_chunk(capsys, monkeypatch, tmp_path):
    # 257^2 = 66,049 points: the circle lines fill more than one chunk
    path = variant(tmp_path, "example1.json", render={"radius": 128, "highlight_csl": True})
    svg = _rendered(path, "parent")
    assert svg.count("\n") > cli_module._CHUNK_LINES
    # two chunks and the newline between them
    assert _render_both_ways(capsys, monkeypatch, tmp_path, path, "parent") == (svg, 3, svg)


FLAT3 = {
    "dim": 3,
    "reps": None,
    "parent_basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "sub_basis": [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "map": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
    "render": {"radius": 1},
}

# renders, and one oracle run, refused after the config is read:
# (command, base, changed keys, exit code, message)
REFUSED_RENDERS = {
    "dim-3-without-star": ("render", "example1.json", FLAT3, 2,
                           "cannot draw dimension 3 without a star embedding"),
    # a plain 4x4 matrix map gives no star embedding
    "dim-4-matrix-map": ("render", "ammann_beenker.json", {"map": {"matrix": identity_rows(4)}}, 2,
                         "cannot draw dimension 4 without a star embedding"),
    "non-coincidence": ("render", "example1.json", {"map": [["2", "0"], ["0", "1"]]}, 3,
                        "|det| = 2 != 1"),
    "palette-too-short": ("render", "example1.json",
                          {"render": {"radius": 2, "palette": ["#111111"]}}, 2,
                          "palette has 1 colours, colouring needs 6"),
    "no-render-section": ("render", "example1.json", {"render": None}, 2,
                          "render needs a render section in the config"),
    "oracle-without-radius": ("oracle", "identity.json", {"oracle_radius": None}, 2,
                              "oracle needs oracle_radius in the config"),
}


@pytest.mark.parametrize("name", REFUSED_RENDERS)
def test_a_refused_render_writes_no_file(capsys, tmp_path, name):
    command, base, changes, code, message = REFUSED_RENDERS[name]
    dest = tmp_path / "fig.svg"
    mode = ["--mode", "parent"] if command == "render" else []
    path = variant(tmp_path, base, **changes)
    got, out, err = run(capsys, command, path, *mode, "--out", str(dest))
    assert (got, out) == (code, "")
    kind = "ConfigError" if code == 2 else "NotCoincidence"
    assert _one_error(err) == {"type": kind, "message": message}
    assert not dest.exists()


# ---------------------------------------------------------------------------
# gen-rotations


def test_gen_rotations(capsys):
    code, out, _ = run(capsys, "gen-rotations", "--max", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 12
    assert payload["rotations"][0] == [["1", "0"], ["0", "1"]]
    assert [["4/5", "-3/5"], ["3/5", "4/5"]] in payload["rotations"]


def test_gen_rotations_rejects_bad_max(capsys):
    code, _, err = run(capsys, "gen-rotations", "--max", "0")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ConfigError"


def test_gen_rotations_budget(capsys, monkeypatch):
    budget = cli_module.ROTATION_BUDGET
    built = []
    monkeypatch.setattr(
        cli_module, "enumerate_square_rotations", lambda n: built.append(n) or []
    )
    code, out, _ = run(capsys, "gen-rotations", "--max", str(budget))
    assert code == 0 and built == [budget]
    assert json.loads(out)["count"] == 0
    code, out, err = run(capsys, "gen-rotations", "--max", str(budget + 1))
    assert code == 2
    assert out == "" and built == [budget]
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "ConfigError" and "budget" in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["gen-rotations", "--max", "abc"],
        ["gen-rotations"],
        ["render", "x.json", "--mode", "sideways", "--out", "x.svg"],
        ["frobnicate"],
        [],
    ],
    ids=["analyze-no-config", "max-not-int", "max-missing", "bad-mode", "bad-command", "empty"],
)
def test_argument_errors_are_one_json_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["type"] == "ConfigError"


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    """A second call parses with the parser the first one used, and reports alike."""
    first = run(capsys, "analyze", config("example1.json"))
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    second = run(capsys, "analyze", config("example1.json"))
    assert built == []
    assert first == second and first[0] == 0 and first[2] == ""


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cslcolour")


def python_m(*argv, **kwargs) -> subprocess.CompletedProcess:
    """`python -m cslcolour ARGV` in a new process, with this checkout's package.

    Its stdout is buffered and its int-to-str digit limit is 4300, as by
    default, whatever PYTHONUNBUFFERED and PYTHONINTMAXSTRDIGITS say here.
    """
    env = {
        key: value for key, value in os.environ.items()
        if key not in ("PYTHONUNBUFFERED", "PYTHONINTMAXSTRDIGITS")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cslcolour.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    )
    return subprocess.run([sys.executable, "-m", "cslcolour", *argv], env=env, **kwargs)


def test_python_dash_m_runs_main(capsys, tmp_path):
    """`python -m cslcolour` (the package's __main__) writes what main writes, and exits with its code."""
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    for path, want in [(config("example1.json"), 0), (str(broken), 2)]:
        proc = python_m("analyze", path, capture_output=True)
        code, out, err = run(capsys, "analyze", path)
        assert proc.returncode == code == want
        assert proc.stdout == out.encode() and proc.stderr == err.encode()
    assert len(err.splitlines()) == 1 and json.loads(err)["error"]["type"] == "ConfigError"


# one command line of each command, without its --out
OUTPUTS = {
    "analyze": ["analyze", config("example1.json")],
    "oracle": ["oracle", config("example1.json")],
    "render": ["render", config("example1.json"), "--mode", "parent"],
    "gen-rotations": ["gen-rotations", "--max", "5"],
}


@pytest.mark.parametrize("where", ["a-directory", "in-a-missing-directory"])
@pytest.mark.parametrize("command", OUTPUTS)
def test_an_out_that_cannot_be_written_is_one_config_error(capsys, tmp_path, command, where):
    dest = tmp_path if where == "a-directory" else tmp_path / "missing" / "x.out"
    with pytest.raises(OSError) as refused:
        open(dest, "w")
    code, out, err = run(capsys, *OUTPUTS[command], "--out", str(dest))
    assert (code, out) == (2, "")
    assert _one_error(err) == {
        "type": "ConfigError", "message": f"cannot write the output: {refused.value}"
    }
    assert list(tmp_path.iterdir()) == []


def _job(**changes) -> str:
    """example1.json with top-level keys replaced, as JSON text (None is null)."""
    return json.dumps({**json.loads((CONFIG_DIR / "example1.json").read_text()), **changes})


def _nested_note(depth: int) -> str:
    """example1.json with a note nested `depth` deep, written as text
    (json.dumps itself cannot write that depth)."""
    return _job(note=0).replace('"note": 0', '"note": ' + "[" * depth + "]" * depth)


BROKEN_PIPE = f"cannot write the output: {BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))}"
# rows that read Python's default int-to-str limit of 4300 digits
DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int-to-str digit limit"
)
# Failures that a whole process meets differently from `main` called in
# this one: the default int-to-str digit limit, the default recursion
# limit, the interpreter's last flush of stdout, and the exit status
# through sys.exit.  (command line, config text or None, stdout a pipe
# whose reader has gone, exit code, message); "JOB" in the command line
# is the config's path.
WHOLE_PROCESS_FAILURES = [
    # argparse swallows the failed write of the help text, and a report
    # that fits stdout's buffer fails when it is flushed
    pytest.param(["--help"], None, True, 2, BROKEN_PIPE, id="help-into-a-closed-pipe"),
    pytest.param(["analyze", "JOB"], _job(), True, 2, BROKEN_PIPE,
                 id="report-into-a-closed-pipe"),
    # 601^2 points fail in the render's first write
    pytest.param(["render", "JOB", "--mode", "parent"], _job(render={"radius": 300}), True, 2,
                 BROKEN_PIPE, id="render-into-a-closed-pipe"),
    # valid JSON past json.load's recursion limit on Python 3.10 to 3.13
    pytest.param(["analyze", "JOB"], _nested_note(100_000), False, 2,
                 "config is nested deeper than the JSON reader can read", id="deep-config"),
    pytest.param(["oracle", "JOB"],
                 _job(oracle_radius=0).replace('"oracle_radius": 0',
                                               '"oracle_radius": 1' + "0" * 5000),
                 False, 2, "config integer of 5001 digits is over the limit of 4300 digits",
                 id="json-integer-over-the-digit-limit", marks=DIGIT_LIMIT),
    # a rotation with a 4300-digit denominator: a csl2 entry has 4305 digits
    pytest.param(["analyze", "JOB"],
                 _job(reps=None, sub_basis=[["99991", "0"], ["0", "1"]],
                      map=rotation_block(int("7" * 2150), int("3" * 2149))),
                 False, 2, "a report entry is over the integer digit limit: Exceeds the limit "
                 "(4300 digits) for integer string conversion; use sys.set_int_max_str_digits() "
                 "to increase the limit",
                 id="report-entry-over-the-digit-limit", marks=DIGIT_LIMIT),
    pytest.param(["render", "JOB", "--mode", "parent", "--out", "fig.svg"],
                 _job(**OVER_LIMIT_BUDGET_CASES["render-radius"]), False, 2,
                 "render.radius about 10^4000 gives a window of about 10^8000 points in "
                 "dimension 2, over the budget of 2000000",
                 id="render-radius-over-the-digit-limit", marks=DIGIT_LIMIT),
    pytest.param(["oracle", "JOB"], _job(reps=None, **OVER_LIMIT_BUDGET_CASES["colours"]), False,
                 2, "sub_basis gives about 10^8000 colours, over the budget of 100000",
                 id="colours-over-the-digit-limit", marks=DIGIT_LIMIT),
    pytest.param(["analyze", "JOB"],
                 _job(reps=None, sub_basis=[["1" + "0" * 3998 + "1", "1/2"],
                                            ["1" + "0" * 3999, "9" * 4000]]),
                 False, 2, "invalid colouring: colouring needs sub inside parent",
                 id="sub-outside-the-parent-over-the-digit-limit", marks=DIGIT_LIMIT),
    pytest.param(["analyze", "JOB"], _job(map=[["1" + "0" * 2200, "0"], ["0", "1" + "0" * 2200]]),
                 False, 3, "|det| = about 10^4400 != 1",
                 id="determinant-over-the-digit-limit", marks=DIGIT_LIMIT),
]


@pytest.mark.parametrize("argv, text, closed, code, message", WHOLE_PROCESS_FAILURES)
def test_a_whole_process_failure_is_one_json_error(tmp_path, argv, text, closed, code, message):
    job = tmp_path / "job.json"
    if text is not None:
        job.write_text(text)
    argv = [str(job) if arg == "JOB" else arg for arg in argv]
    stdout = subprocess.PIPE
    if closed:
        read, stdout = os.pipe()
        os.close(read)
    try:
        proc = python_m(*argv, cwd=tmp_path, stdout=stdout, stderr=subprocess.PIPE)
    finally:
        if closed:
            os.close(stdout)
    assert proc.returncode == code and not proc.stdout
    err = proc.stderr.decode()
    assert "Traceback" not in err and "Exception ignored" not in err
    kind = "ConfigError" if code == 2 else "NotCoincidence"
    assert _one_error(err) == {"type": kind, "message": message}


# ---------------------------------------------------------------------------
# config validation and exit codes


def test_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/nope.json")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ConfigError"


def test_invalid_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2


def test_non_square_map_rejected(capsys, tmp_path):
    path = variant(tmp_path, "example1.json", map=[["1", "0", "0"], ["0", "1", "0"]])
    assert run(capsys, "analyze", path)[0] == 2


def test_singular_map_rejected(capsys, tmp_path):
    path = variant(tmp_path, "example1.json", map=[["1", "0"], ["1", "0"]])
    assert run(capsys, "analyze", path)[0] == 2


def test_bad_reps_rejected(capsys, tmp_path):
    path = variant(tmp_path, "example1.json", reps=[["0", "0"], ["1", "0"]])
    assert run(capsys, "analyze", path)[0] == 2


def test_ring_map_needs_dim4(capsys, tmp_path):
    path = variant(tmp_path, "example1.json", map={"coeffs": ["1", "0", "0", "0"]})
    assert run(capsys, "analyze", path)[0] == 2


def test_non_coincidence_map_exit3(capsys, tmp_path):
    path = variant(tmp_path, "example1.json", map=[["2", "0"], ["0", "1"]])
    code, _, err = run(capsys, "analyze", path)
    assert code == 3
    assert json.loads(err)["error"]["type"] == "NotCoincidence"


@pytest.mark.parametrize(
    "key, entry", [("map", "4/5\n"), ("sub_basis", "6\n"), ("parent_basis", "1\n")]
)
def test_an_entry_with_a_trailing_newline_is_one_config_error(capsys, tmp_path, key, entry):
    rows = json.loads((CONFIG_DIR / "example1.json").read_text())[key]
    rows[0][0] = entry
    code, out, err = run(capsys, "analyze", variant(tmp_path, "example1.json", **{key: rows}))
    assert code == 2 and out == ""
    assert "not a rational literal" in _one_error(err)["message"]


@pytest.mark.parametrize(
    "base, key, message",
    [
        ("example1.json", "parent_basis", "parent_basis: not a rational literal: '1.5'"),
        ("example1.json", "sub_basis", "sub_basis: not a rational literal: '1.5'"),
        ("example1.json", "map", "map: not a rational literal: '1.5'"),
        ("example1.json", "reps", "reps: not a rational literal: '1.5'"),
        ("ammann_beenker.json", "map.coeffs", "invalid map element: not a rational literal: '1.5'"),
    ],
)
def test_a_bad_literal_is_one_config_error_naming_it(capsys, tmp_path, base, key, message):
    raw = json.loads((CONFIG_DIR / base).read_text())
    if key == "map.coeffs":
        raw["map"]["coeffs"][0] = "1.5"
    else:
        raw[key][0][0] = "1.5"
    code, out, err = run(capsys, "analyze", variant(tmp_path, base, **raw))
    assert code == 2 and out == ""
    assert _one_error(err) == {"type": "ConfigError", "message": message}


@pytest.mark.parametrize("command", ["analyze", "oracle", "render"])
def test_a_long_bad_literal_is_echoed_as_a_prefix_and_its_length(capsys, tmp_path, command):
    literal = "1." + "0" * 100_000
    raw = json.loads((CONFIG_DIR / "example1.json").read_text())
    raw["map"][0][0] = literal
    path = variant(tmp_path, "example1.json", **raw)
    code, out, err = run(capsys, *_argv(command, path, tmp_path))
    assert code == 2 and out == "" and len(err) < 1000
    assert _one_error(err) == {
        "type": "ConfigError",
        "message": f"map: not a rational literal: {literal[:40]!r}... (100002 characters)",
    }


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python reads ints of any length"
)
@pytest.mark.parametrize("command", ["analyze", "oracle", "render"])
@pytest.mark.parametrize(
    "literal, error",
    [("1" + "0" * 5000, "over the limit of 4300 digits"), ("1/" + "0" * 5000, "zero denominator")],
    ids=["over-the-limit", "zero-denominator"],
)
def test_a_literal_past_the_digit_limit_is_one_short_config_error(
    capsys, tmp_path, command, literal, error
):
    raw = json.loads((CONFIG_DIR / "example1.json").read_text())
    raw["map"][0][0] = literal
    path = variant(tmp_path, "example1.json", **raw)
    code, out, err = _at_the_digit_limit(capsys, *_argv(command, path, tmp_path))
    assert code == 2 and out == "" and len(err) < 1000
    assert _one_error(err) == {
        "type": "ConfigError",
        "message": f"map: {error}: {literal[:40]!r}... ({len(literal)} characters)",
    }


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python reads ints of any length"
)
@pytest.mark.parametrize("command", ["analyze", "oracle", "render"])
def test_a_json_integer_past_the_digit_limit_is_one_short_config_error(
    capsys, tmp_path, command
):
    """oracle_radius 10^5000 is valid JSON past Python's int-to-str digit
    limit; the refusal gives its digits and the limit, and does not call
    the config invalid JSON."""
    raw = json.loads((CONFIG_DIR / "example1.json").read_text())
    raw["oracle_radius"] = 0
    path = tmp_path / "job.json"
    text = json.dumps(raw).replace('"oracle_radius": 0', '"oracle_radius": 1' + "0" * 5000)
    path.write_text(text)
    code, out, err = _at_the_digit_limit(capsys, *_argv(command, str(path), tmp_path))
    assert code == 2 and out == "" and len(err) < 1000
    assert _one_error(err) == {
        "type": "ConfigError",
        "message": "config integer of 5001 digits is over the limit of 4300 digits",
    }


def _entry(base: str, key: str, literal: str = "1.5") -> list:
    """The bundled config's `key` matrix with its first entry replaced by `literal`."""
    rows = json.loads((CONFIG_DIR / base).read_text())[key]
    rows[0][0] = literal
    return rows


E1, AB = "example1.json", "ammann_beenker.json"
SINGULAR = [["1", "2"], ["2", "4"]]
ROW_OF_ZEROS = [["0", "0"], ["0", "1"]]
SINGULAR_MAP = [["1", "0"], ["1", "0"]]
STRETCH = [["2", "0"], ["0", "1"]]
OVER_THE_COLOUR_BUDGET = [["100001", "0"], ["0", "1"]]
HALF_STEP = [["1/2", "0"], ["0", "1"]]
TWO_REPS = [["0", "0"], ["1", "0"]]
ZERO_COEFFS = {"coeffs": ["0", "0", "0", "0"]}
BAD_COEFFS = {"coeffs": ["1.5", "2/3", "0", "2/3"]}


def _reps(*xs: str) -> list:
    return [[x, "0"] for x in xs]


# broken configs: (base, changed keys, exit code, message); where a config
# has two faults, the message names the one reported, which fixes the order
# in which a config is checked
BROKEN_CONFIGS = {
    "dim-missing": (E1, {"dim": None}, 2, "dim must be a positive integer"),
    "dim-bool": (E1, {"dim": True}, 2, "dim must be a positive integer"),
    "parent-numbers": (E1, {"parent_basis": [[1, 0], [0, 1]]}, 2,
                       "parent_basis entries must be \"p/q\" strings"),
    "map-matrix-literal": (E1, {"map": {"matrix": _entry(E1, "map")}}, 2,
                           "map: not a rational literal: '1.5'"),
    "parent-zero-denominator": (E1, {"parent_basis": _entry(E1, "parent_basis", "1/0")}, 2,
                                "parent_basis: zero denominator: '1/0'"),
    "map-zero-denominator": (E1, {"map": [["1/0", "0"], ["0", "1"]]}, 2,
                             "map: zero denominator: '1/0'"),
    "parent-non-square": (E1, {"parent_basis": [["1", "0", "0"], ["0", "1", "0"]]}, 2,
                          "parent_basis must be a 2x2 array"),
    "sub-ragged": (E1, {"sub_basis": [["6", "0"], ["2"]]}, 2, "sub_basis must be a 2x2 array"),
    "map-non-square": (E1, {"map": [["1", "0", "0"], ["0", "1", "0"]]}, 2,
                       "map must be a 2x2 array"),
    "parent-singular": (E1, {"parent_basis": SINGULAR}, 2,
                        "invalid basis: basis rows are linearly dependent"),
    "sub-rank-deficient": (E1, {"sub_basis": ROW_OF_ZEROS}, 2,
                           "invalid basis: basis rows are linearly dependent"),
    "map-singular": (E1, {"map": SINGULAR_MAP}, 2, "invalid map: matrix is singular"),
    "map-zero": (E1, {"map": [["0", "0"], ["0", "0"]]}, 2, "invalid map: matrix is singular"),
    "coeffs-zero": (AB, {"map": ZERO_COEFFS}, 2,
                    "invalid map element: multiplication matrix of zero is singular"),
    "coeffs-short": (AB, {"map": {"coeffs": ["1", "0", "0"]}}, 2,
                     "map.coeffs must be 4 \"p/q\" strings"),
    "coeffs-in-dim-2": (E1, {"map": {"coeffs": ["1", "0", "0", "0"]}}, 2,
                        "a ring-element map needs dim = 4"),
    "non-coincidence": (E1, {"map": STRETCH}, 3, "|det| = 2 != 1"),
    "ring-non-coincidence": (AB, {"map": {"coeffs": ["1", "1", "0", "0"]}}, 3, "|det| = 2 != 1"),
    "render-radius-budget": (E1, {"render": {"radius": 10**6}}, 2,
                             "render.radius 1000000 gives a window of 4000004000001 points "
                             "in dimension 2, over the budget of 2000000"),
    "oracle-radius-budget": (E1, {"oracle_radius": 10**6}, 2,
                             "oracle_radius 1000000 gives a window of 4000004000001 points "
                             "in dimension 2, over the budget of 2000000"),
    "render-radius-bool": (E1, {"render": {"radius": True}}, 2,
                           "render.radius must be a non-negative integer"),
    "oracle-radius-bool": (E1, {"oracle_radius": True}, 2,
                           "oracle_radius must be a positive integer"),
    "highlight-csl-string": (E1, {"render": {"radius": 8, "highlight_csl": "false"}}, 2,
                             "render.highlight_csl must be true or false"),
    "colour-budget": (E1, {"reps": None, "sub_basis": OVER_THE_COLOUR_BUDGET}, 2,
                      "sub_basis gives 100001 colours, over the budget of 100000"),
    "dim-budget": (E1, {"dim": 17}, 2, "dim 17 is over the budget of 16"),
    "sub-outside-parent": (E1, {"reps": None, "sub_basis": HALF_STEP}, 2,
                           "invalid colouring: colouring needs sub inside parent"),
    "reps-count": (E1, {"reps": TWO_REPS}, 2,
                   "invalid representatives: expected 6 representatives, got 2"),
    "reps-first-not-zero": (E1, {"reps": _reps("1", "0", "2", "3", "4", "5")}, 2,
                            "invalid representatives: first representative must be the zero "
                            "vector"),
    "reps-congruent": (E1, {"reps": _reps("0", "1", "2", "3", "4", "7")}, 2,
                       "invalid representatives: representatives are congruent mod sub"),
    "reps-outside-parent": (E1, {"reps": _reps("0", "1", "2", "-1/2", "4", "5")}, 2,
                            "invalid colouring: (-1/2, 0) is not in the parent lattice"),
    "reps-short-row": (E1, {"reps": [["0", "0"], ["1"]]}, 2, "each rep must be 2 \"p/q\" strings"),
    "reps-empty": (E1, {"reps": []}, 2, "reps must be a nonempty array"),
    # two faults
    "parent-literal+sub-rank-deficient": (
        E1, {"parent_basis": _entry(E1, "parent_basis"), "sub_basis": ROW_OF_ZEROS}, 2,
        "parent_basis: not a rational literal: '1.5'"),
    "parent-singular+map-literal": (
        E1, {"parent_basis": SINGULAR, "map": _entry(E1, "map")}, 2,
        "invalid basis: basis rows are linearly dependent"),
    "parent-non-square+sub-literal": (
        E1, {"parent_basis": [["1", "0"]], "sub_basis": _entry(E1, "sub_basis")}, 2,
        "parent_basis must be a 2x2 array"),
    "sub-literal+reps-literal": (
        E1, {"sub_basis": _entry(E1, "sub_basis"), "reps": _entry(E1, "reps")}, 2,
        "sub_basis: not a rational literal: '1.5'"),
    "map-singular+reps-literal": (
        E1, {"map": SINGULAR_MAP, "reps": _entry(E1, "reps")}, 2,
        "invalid map: matrix is singular"),
    "map-literal+map-non-string": (
        E1, {"map": [["1.5", 0], ["0", "1"]]}, 2, "map entries must be \"p/q\" strings"),
    "reps-literal+colour-budget": (
        E1, {"sub_basis": OVER_THE_COLOUR_BUDGET, "reps": _entry(E1, "reps")}, 2,
        "reps: not a rational literal: '1.5'"),
    "non-coincidence+reps-count": (
        E1, {"map": STRETCH, "reps": TWO_REPS}, 2,
        "invalid representatives: expected 6 representatives, got 2"),
    "sub-outside-parent+reps-count": (
        E1, {"sub_basis": HALF_STEP, "reps": TWO_REPS}, 2,
        "invalid colouring: colouring needs sub inside parent"),
    "render-radius-budget+map-singular": (
        E1, {"render": {"radius": 10**6}, "map": SINGULAR_MAP}, 2,
        "invalid map: matrix is singular"),
    "dim-budget+parent-literal": (
        E1, {"dim": 17, "parent_basis": _entry(E1, "parent_basis")}, 2,
        "dim 17 is over the budget of 16"),
    "coeffs-literal+coeffs-in-dim-2": (
        E1, {"map": BAD_COEFFS}, 2, "a ring-element map needs dim = 4"),
    "coeffs-zero+sub-rank-deficient": (
        AB, {"map": ZERO_COEFFS, "sub_basis": [["0"] * 4] * 4}, 2,
        "invalid basis: basis rows are linearly dependent"),
    "colour-budget+non-coincidence": (
        E1, {"reps": None, "sub_basis": OVER_THE_COLOUR_BUDGET, "map": STRETCH}, 2,
        "sub_basis gives 100001 colours, over the budget of 100000"),
    "reps-congruent+reps-outside-parent": (
        E1, {"reps": _reps("0", "1", "1", "1/2", "4", "5")}, 2,
        "invalid representatives: representatives are congruent mod sub"),
}


@pytest.mark.parametrize("command", ["analyze", "oracle", "render"])
@pytest.mark.parametrize("name", BROKEN_CONFIGS)
def test_a_broken_config_keeps_its_exit_code_and_message(capsys, tmp_path, name, command):
    base, changes, code, message = BROKEN_CONFIGS[name]
    path = variant(tmp_path, base, **changes)
    got, out, err = run(capsys, *_argv(command, path, tmp_path))
    assert (got, out) == (code, "")
    kind = "ConfigError" if code == 2 else "NotCoincidence"
    assert _one_error(err) == {"type": kind, "message": message}
    assert not (tmp_path / "x.svg").exists()


def test_huge_oracle_radius_rejected_before_any_work(capsys, tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("work started on an over-budget window")

    for name in ("Colouring", "analyze", "window_census"):
        monkeypatch.setattr(cli_module, name, never)
    path = variant(tmp_path, "example1.json", oracle_radius=10**9)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "oracle", path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    message = json.loads(err)["error"]["message"]
    assert "oracle_radius" in message and "budget" in message
    assert peak < 1_000_000


def test_window_budget_boundary(tmp_path):
    def load(base="example1.json", **changes):
        return cli_module.load_job_config(variant(tmp_path, base, **changes))

    # the largest planar radius inside the budget, and one past it
    inside = max(r for r in range(1000) if (2 * r + 1) ** 2 <= cli_module.WINDOW_BUDGET)
    assert load(oracle_radius=inside).oracle_radius == inside
    assert load(render={"radius": inside}).render_radius == inside
    with pytest.raises(cslcolour.ConfigError, match="oracle_radius"):
        load(oracle_radius=inside + 1)
    with pytest.raises(cslcolour.ConfigError, match=r"render\.radius"):
        load(render={"radius": inside + 1})
    # the bound on the radius shrinks with the dimension: 41^4 > budget
    with pytest.raises(cslcolour.ConfigError, match="dimension 4"):
        load("ammann_beenker.json", render={"radius": 20})


def test_colour_budget_refuses_before_any_rep_or_analysis(capsys, tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("work started on an over-budget colouring")

    monkeypatch.setattr(lattice_module, "_radix_reps", never)
    for name in ("analyze", "_svg_lines", "window_census"):
        monkeypatch.setattr(cli_module, name, never)
    path = variant(
        tmp_path, "example1.json", sub_basis=[["10000000", "0"], ["0", "1"]],
        reps=None, render={"radius": 2}, oracle_radius=2,
    )
    for command in (["analyze", path], ["oracle", path],
                    ["render", path, "--mode", "parent", "--out", str(tmp_path / "x.svg")]):
        code, out, err = run(capsys, *command)
        assert code == 2
        assert out == ""
        (line,) = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "ConfigError"
        assert "10000000 colours" in error["message"] and "budget" in error["message"]


def test_colour_budget_boundary(tmp_path):
    budget = cli_module.COLOUR_BUDGET
    assert budget >= 4000  # the largest m of the configs, tests and benchmark

    def load(m):
        sub = [[str(m), "0"], ["0", "1"]]
        path = variant(tmp_path, "example1.json", sub_basis=sub, reps=None)
        return cli_module.load_job_config(path)

    assert cli_module.build_colouring(load(budget)).m == budget
    with pytest.raises(cslcolour.ConfigError, match="budget"):
        cli_module.build_colouring(load(budget + 1))


def _swell_config(d: int, seed: int) -> dict:
    """Z^d, sub diag(2, 1, ..., 1), and the cyclic shift conjugated by a unit
    upper-triangular P with entries in {-3..3}/2: its Hermite forms swell with d."""
    rng = random.Random(seed)
    p = [[Fraction(int(i == j)) if j <= i else Fraction(rng.randint(-3, 3), 2)
          for j in range(d)] for i in range(d)]
    shift = [[int(j == (i + 1) % d) for j in range(d)] for i in range(d)]
    a = mat_mul(mat_mul(rat_inverse(p), shift), p)
    return {
        "dim": d,
        "parent_basis": [[str(int(i == j)) for j in range(d)] for i in range(d)],
        "sub_basis": [[str((1 + (i == 0)) * (i == j)) for j in range(d)] for i in range(d)],
        "map": [[format_rational(x) for x in row] for row in a],
    }


@pytest.mark.parametrize("command", ["analyze", "oracle", "render"])
def test_dim_budget_refuses_before_any_lattice(capsys, tmp_path, monkeypatch, command):
    def never(*args, **kwargs):
        raise AssertionError("a lattice was built for an over-budget dim")

    monkeypatch.setattr(cli_module, "lattice_new", never)
    over = cli_module.DIM_BUDGET + 1
    path = tmp_path / "swell.json"
    raw = dict(_swell_config(over, seed=0), render={"radius": 0}, oracle_radius=1)
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, *_argv(command, str(path), tmp_path))
    assert code == 2 and out == ""
    assert _one_error(err) == {
        "type": "ConfigError",
        "message": f"dim {over} is over the budget of {cli_module.DIM_BUDGET}",
    }


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python writes ints of any length"
)
def test_dim_budget_echoes_a_long_dim_bounded(capsys, tmp_path):
    path = variant(tmp_path, "example1.json", dim=10**3999)
    code, out, err = _at_the_digit_limit(capsys, "analyze", path)
    assert code == 2 and out == ""
    assert _one_error(err)["message"] == (
        f"dim about 10^3999 is over the budget of {cli_module.DIM_BUDGET}"
    )


def test_the_swell_recipe_at_the_dim_budget_is_analyzed(capsys, tmp_path):
    d = cli_module.DIM_BUDGET
    path = tmp_path / "swell.json"
    path.write_text(json.dumps(_swell_config(d, seed=0)))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 0 and err == ""
    assert json.loads(out)["m"] == 2


def test_other_package_error_exit5(capsys, monkeypatch):
    def broken(colouring, amap):
        raise cslcolour.InternalInvariantViolation("injected invariant failure")

    monkeypatch.setattr(cli_module, "analyze", broken)
    code, out, err = run(capsys, "analyze", config("example1.json"))
    assert code == 5
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == {
        "type": "InternalInvariantViolation",
        "message": "injected invariant failure",
    }


# ---------------------------------------------------------------------------
# fuzzed configs: a documented exit code and one JSON error, never a traceback


RATIONALS = st.sampled_from(
    ["0", "1", "-1", "2", "3", "1/2", "4/5", "-3/5", "3/5", "1/0", "x", "", "1e3", " 2"]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-8, 8)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=5) | RATIONALS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=10,
)


def weighted(*strategies):
    """Draw from one of `strategies`, each as often as it is listed.

    (`st.one_of` would merge repeated strategies into one branch.)
    """
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


# the identity, the 3-4-5 rotation, small triangular bases and a shear
PLAUSIBLE_MATRICES = st.sampled_from([
    [["1", "0"], ["0", "1"]],
    [["4/5", "-3/5"], ["3/5", "4/5"]],
    [["2", "1"], ["0", "3"]],
    [["3", "0"], ["0", "1"]],
    [["1", "1"], ["0", "1"]],
])
# drawn three times as often as square arrays of rational-looking strings
MATRICES = weighted(
    PLAUSIBLE_MATRICES,
    PLAUSIBLE_MATRICES,
    PLAUSIBLE_MATRICES,
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=n, max_size=n)
    ),
)
PLAUSIBLE_CONFIGS = st.fixed_dictionaries(
    {
        "dim": st.sampled_from([2, 2, 2, 2, 2, 1, 4]),
        "parent_basis": MATRICES,
        "sub_basis": MATRICES,
        "map": weighted(
            MATRICES,
            MATRICES,
            st.fixed_dictionaries({"matrix": MATRICES}),
            st.fixed_dictionaries({"coeffs": st.lists(RATIONALS, min_size=4, max_size=4)}),
        ),
        "render": st.fixed_dictionaries(
            {"radius": st.integers(0, 4)},
            optional={
                "highlight_csl": st.booleans(),
                "palette": st.lists(st.sampled_from(["#000000", "#ff0000", "#00ff00"]), max_size=8),
            },
        ),
        "oracle_radius": st.integers(1, 4),
    },
    optional={
        "reps": weighted(
            st.just([["0", "0"], ["1", "0"], ["2", "0"]]),
            st.lists(st.lists(RATIONALS, max_size=3), max_size=7),
        ),
    },
)
CONFIG_KEYS = ["dim", "parent_basis", "sub_basis", "map", "reps", "render", "oracle_radius"]


def one_field_arbitrary(config):
    return st.tuples(st.sampled_from(CONFIG_KEYS), JSON_VALUES).map(
        lambda pair: {**config, pair[0]: pair[1]}
    )


CONFIG_TEXTS = weighted(
    PLAUSIBLE_CONFIGS.map(json.dumps),
    PLAUSIBLE_CONFIGS.map(json.dumps),
    PLAUSIBLE_CONFIGS.flatmap(one_field_arbitrary).map(json.dumps),
    PLAUSIBLE_CONFIGS.flatmap(one_field_arbitrary).map(json.dumps),
    JSON_VALUES.map(json.dumps),
    st.text(max_size=20),
)


@pytest.mark.parametrize("command", [["analyze"], ["oracle"], ["render", "--mode", "parent"]])
@settings(max_examples=60, deadline=None)
@given(text=CONFIG_TEXTS)
def test_fuzzed_configs_exit_with_a_documented_code_and_one_error(command, text):
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "job.json"
        path.write_text(text, encoding="utf-8")
        argv = [command[0], str(path), *command[1:]]
        if command[0] == "render":
            argv += ["--out", str(Path(workdir) / "fig.svg")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    if code == 0:
        assert err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert list(error) == ["error"]
        assert set(error["error"]) == {"type", "message"}


# bytes that json.load cannot decode, and the start of the message: NUL
# bytes make it guess UTF-16 or UTF-32, a truncated UTF-16 byte-order
# mark; nesting past the recursion limit is refused before the reader
# sees that it is not JSON
MALFORMED_CONFIG_BYTES = {
    "nul-bytes": ("\x00000000".encode(), "config is not valid JSON: "),
    "fuzzed-nul-bytes": ("0\x0000000".encode(), "config is not valid JSON: "),
    "truncated-utf16-bom": (b"\xff\xfe\x00", "config is not valid JSON: "),
    "deep-nesting": (b"[" * 200000, "config is nested deeper than the JSON reader can read"),
}


@pytest.mark.parametrize("name", list(MALFORMED_CONFIG_BYTES))
@pytest.mark.parametrize("command", [["analyze"], ["oracle"], ["render", "--mode", "parent"]])
def test_undecodable_config_bytes_are_one_config_error(capsys, tmp_path, command, name):
    text, prefix = MALFORMED_CONFIG_BYTES[name]
    path = tmp_path / "job.json"
    path.write_bytes(text)
    argv = [command[0], str(path), *command[1:]]
    if command[0] == "render":
        argv += ["--out", str(tmp_path / "fig.svg")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith(prefix)


# ---------------------------------------------------------------------------
# the report writer: json.dumps(report, indent=2) byte for byte


CELLS = st.text() | st.integers() | st.booleans()
# 1-40 rows of one width (1-4); each column draws its cells from one of
# str, int, bool or all three, so some lists are tables of columns
# (`cli._table`) and some must fall back to the row-by-row writer
ROWS = st.integers(1, 4).flatmap(
    lambda width: st.lists(st.sampled_from([st.text(), st.integers(), st.booleans(), CELLS]),
                           min_size=width, max_size=width)
).flatmap(lambda columns: st.lists(st.tuples(*columns).map(list), min_size=1, max_size=40))
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text()
    | st.integers() | st.integers(-(10**4000) + 1, 10**4000 - 1),
    lambda children: st.lists(children, max_size=5)
    | st.lists(st.text() | st.integers(), min_size=1, max_size=5)
    | st.dictionaries(st.text(), children, max_size=5)
    | ROWS,
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(JSON_TREES)
@example({
    "\u00e9\n\"\\\u2028": [
        [], {}, ["a", -3, "\u00e9"], [True, None, 1.5, float("nan"), -float("inf")]
    ],
    "": {"long": [10**3999, -(10**3999)], "k": [[[]], {"": {}}]},
})
@example([[str(i), f"{-i}/2"] for i in range(600)])  # a long str table
@example([[i, 23 * i % 529] for i in range(529)])  # a long int pair table
@example([[i, i] for i in range(9)] + [[True, 1]])  # a bool in an int column prints true
@example([[i if i % 2 else str(i), i] for i in range(10)])  # a column of str and int
@example([[1, 2]] * 5 + [[3]] * 5)  # ragged rows
@example([[], []])
@example([[]] * 8)
@example([[[i], [i, [i]]] for i in range(8)])  # rows of nested lists
@example([["a", "b"]] * 7 + ["cd"])  # a str among the rows is not a row
@example({"rows": [["\u00e9", '"', "\n", " "]] * 8})  # str cells that need escaping
def test_report_writer_is_json_dumps_indent_2(value):
    assert cli_module._report_json(value) == json.dumps(value, indent=2) + "\n"


ROTATION_3_4 = [["3/5", "-4/5"], ["4/5", "3/5"]]
LARGE_REPORTS = {
    # Z^2 colourings of m = 4000 and 47^2 = 2209 colours, the second an
    # ideal of Z[i] and so a colour coincidence with a pair per colour
    "diag-4000": (identity_rows(2), [["4000", "0"], ["0", "1"]], None),
    "gauss-47": (identity_rows(2), [["47", "0"], ["0", "47"]], 2209),
    # a parent of den 2 and m = 50: the reps go through the gcd branch
    # of _rational_strings, then through the column writer
    "den-2": (RATIONAL_PARENT, [["5/2", "5"], ["0", "25"]], None),
    # sub diag(100000, 1), at the colour budget
    "colour-budget": (identity_rows(2), [[str(cli_module.COLOUR_BUDGET), "0"], ["0", "1"]], None),
}


@pytest.mark.parametrize("name", LARGE_REPORTS)
def test_a_large_report_is_json_dumps_indent_2_with_its_coset_reps(capsys, tmp_path, name):
    parent, sub, pairs = LARGE_REPORTS[name]
    path = variant(tmp_path, "example1.json", parent_basis=parent, sub_basis=sub,
                   map=ROTATION_3_4, reps=None)
    code, out, err = run(capsys, "analyze", path)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert out == json.dumps(report, indent=2) + "\n"
    reps = coset_reps(lattice_new(parent), lattice_new(sub))
    assert report["m"] == len(reps) >= 50
    assert report["reps"] == [[format_rational(x) for x in rep] for rep in reps]
    assert report["colour_coincidence"] == (pairs is not None)
    if pairs is None:
        assert report["permutation"] is None
    else:
        assert len(report["permutation"]) == pairs


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python writes ints of any length"
)
def test_a_table_over_the_digit_limit_raises_config_error():
    # the lazy map over this column runs inside _report_json's try
    table = [[i, str(i)] for i in range(49)] + [[10**4399, "x"]]
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ConfigError, match="digit limit"):
            cli_module._report_json({"table": table})
    finally:
        sys.set_int_max_str_digits(saved)


def test_report_echoes_an_unknown_key_as_json_dumps_writes_it(capsys, tmp_path):
    note = [1.5, None, True, {"\u00e9": 'x"y'}]
    path = variant(tmp_path, "example1.json", note=note)
    code, out, err = run(capsys, "analyze", path)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["config"]["note"] == note
    assert out == json.dumps(report, indent=2) + "\n"


def nested(depth: int) -> list:
    """A list nested `depth` deep, [[...[]...]]."""
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


# 600 levels at Python's default recursion limit: json.load reads them
# and json.dumps writes them, while `cli._indented` takes two frames a
# level on Python 3.11 and runs out of stack
DEEP = sys.getrecursionlimit() * 3 // 5


@pytest.mark.parametrize("command", ["analyze", "oracle"])
def test_report_echoes_a_deeply_nested_unknown_key_as_json_dumps_writes_it(
    capsys, tmp_path, command
):
    path = variant(tmp_path, "example1.json", note=nested(DEEP))
    code, out, err = run(capsys, command, path)
    assert code == 0 and err == ""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python writes ints of any length"
)
def test_a_deep_report_over_the_digit_limit_raises_config_error():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ConfigError, match="digit limit"):
            cli_module._report_json({"note": nested(DEEP), "sigma": 10**4399})
    finally:
        sys.set_int_max_str_digits(saved)


# ---------------------------------------------------------------------------
# determinism and goldens


def test_reports_and_renders_are_deterministic(capsys, tmp_path):
    for name in ("example1.json", "ammann_beenker.json"):
        first = run(capsys, "analyze", config(name))[1]
        second = run(capsys, "analyze", config(name))[1]
        assert first == second
        o1 = run(capsys, "oracle", config(name))[1]
        o2 = run(capsys, "oracle", config(name))[1]
        assert o1 == o2
        d1, d2 = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "render", config(name), "--mode", "parent", "--out", str(d1))
        run(capsys, "render", config(name), "--mode", "parent", "--out", str(d2))
        assert d1.read_bytes() == d2.read_bytes()


GOLDENS = [
    ("example1_analyze.json", ["analyze", config("example1.json")]),
    ("example2_oracle.json", ["oracle", config("example2.json")]),
    ("ammann_beenker_analyze.json", ["analyze", config("ammann_beenker.json")]),
]


@pytest.mark.parametrize("golden_name,argv", GOLDENS, ids=[g[0] for g in GOLDENS])
def test_golden_outputs(capsys, golden_name, argv):
    expected = (GOLDEN_DIR / golden_name).read_text(encoding="utf-8")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected


def test_golden_svg(capsys, tmp_path):
    dest = tmp_path / "fig.svg"
    code, _, _ = run(
        capsys, "render", config("example1.json"), "--mode", "parent", "--out", str(dest)
    )
    assert code == 0
    assert dest.read_bytes() == (GOLDEN_DIR / "example1_parent.svg").read_bytes()
