"""Command-line front end: JSON configs in, JSON reports and SVGs out.

Exit codes: 0 success, 2 configuration error, 3 the supplied map is not
a coincidence of the parent lattice, 4 the brute-force oracle
contradicted the lattice-algebra analysis (which indicates a bug and
must never happen on the bundled configs), 5 any other package error,
such as a failed internal invariant check (also a bug).  Failures also
emit a machine-readable error object on standard error.  `main` picks
every exit code: a render the library cannot draw and an output that
cannot be written, the `--help` text included, are configuration errors
too, and so is a config nested deeper than the JSON reader can read.

The CLI checks a config's shapes, types and budgets; the library reads
each basis, map and ring element once.  `_checked` runs every library
call on a config value and is the one place where a library error
becomes a ConfigError.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Iterable, Optional

import cslcolour
from cslcolour.coincidence import (
    CommensurableMap,
    analyze,
    census_contradictions,
    commensurable_map,
    enumerate_square_rotations,
    window_census,
)
from cslcolour.cyclo8 import cyc8, multiplication_map
from cslcolour.errors import (
    ConfigError,
    CslcolourError,
    NotCoincidence,
    UnsupportedDimension,
)
from cslcolour.lattice import Colouring, Lattice, lattice_new
from cslcolour.ratmat import _bounded, _digit_limit, rat_matrix
# render_svg is bound here for bench/tracing.py, which wraps it in every module that binds it
from cslcolour.render import RENDER_MODES, _svg_lines, render_svg

# the most points a render or oracle window, (2R+1)^dim, may hold
WINDOW_BUDGET = 2_000_000
# the most colours m = [parent : sub] a job may have; a report lists a rep for each
COLOUR_BUDGET = 100_000
# the largest gen-rotations --max; the output grows linearly with it
ROTATION_BUDGET = 2_000
# the largest dim; the analysis's Hermite forms swell with it (README, "Dimension budget")
DIM_BUDGET = 16
# how many lines of an SVG are joined and written at a time
_CHUNK_LINES = 65_536
# a palette entry is written into SVG attributes, so only #rrggbb passes
HEX_COLOUR = re.compile("#[0-9a-fA-F]{6}")
# how json.dumps writes the two scalar types of a report's long lists;
# bool is left out, as json writes it in lower case
_FLAT = {str: encode_basestring_ascii, int: int.__repr__}
# the fewest rows that `_indented` writes as a table of columns: the
# column join has a fixed cost, so shorter tables are cheaper row by row
# (measured crossover: 5 rows at widths 1-2, 6-7 at widths 3-4)
_TABLE_ROWS = 6


@dataclass
class JobConfig:
    parent: Lattice
    sub: Lattice
    amap: CommensurableMap
    star_embedding: bool
    reps: Optional[tuple]
    render_radius: Optional[int]
    palette: Optional[list]
    highlight_csl: bool
    oracle_radius: Optional[int]
    echo: dict


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(x) -> bool:
    """A JSON integer; bool is an int subclass, so true/false are refused."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require_window(radius: int, dim: int, what: str) -> None:
    points = (2 * radius + 1) ** dim
    _require(
        points <= WINDOW_BUDGET,
        f"{what} {_bounded(radius)} gives a window of {_bounded(points)} points "
        f"in dimension {dim}, over the budget of {WINDOW_BUDGET}",
    )


def _parse_matrix(raw, dim: int, what: str) -> list:
    """The config's own dim x dim array of strings, shape and types checked."""
    _require(isinstance(raw, list) and len(raw) == dim, f"{what} must be a {dim}x{dim} array")
    for row in raw:
        _require(isinstance(row, list) and len(row) == dim, f"{what} must be a {dim}x{dim} array")
        _require(all(isinstance(x, str) for x in row), f"{what} entries must be \"p/q\" strings")
    return raw


def _checked(what: str, invalid: str, fn, *args):
    """fn(*args), a library call on config values, run once.

    A ValueError (a literal the reader refuses) becomes the ConfigError
    "what: ...", and any other package error "invalid: ...".
    """
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None
    except CslcolourError as exc:
        raise ConfigError(f"{invalid}: {exc}") from None


def _json_int(text: str) -> int:
    """A JSON integer of the config; one over Python's int-to-str digit limit is a ConfigError."""
    digits, limit = len(text.lstrip("-")), _digit_limit()
    if limit and digits > limit:
        raise ConfigError(f"config integer of {digits} digits is over the limit of {limit} digits")
    return int(text)


def load_job_config(path: str) -> JobConfig:
    try:
        with open(path, "rb") as fh:
            raw = json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except RecursionError:
        # raised before the reader sees whether the nested text is valid
        raise ConfigError("config is nested deeper than the JSON reader can read") from None
    except ValueError as exc:
        # UnicodeDecodeError (bytes read as UTF-16 or -32) is a ValueError too
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    _require(isinstance(raw, dict), "config must be a JSON object")
    dim = raw.get("dim")
    _require(_is_int(dim) and dim >= 1, "dim must be a positive integer")
    _require(dim <= DIM_BUDGET, f"dim {_bounded(dim)} is over the budget of {DIM_BUDGET}")
    parent, sub = (
        _checked(what, "invalid basis", lattice_new, _parse_matrix(raw.get(what), dim, what))
        for what in ("parent_basis", "sub_basis")
    )
    map_spec = raw.get("map")
    star = False
    if isinstance(map_spec, dict) and "coeffs" in map_spec:
        coeffs = map_spec["coeffs"]
        _require(
            isinstance(coeffs, list) and len(coeffs) == 4
            and all(isinstance(x, str) for x in coeffs),
            "map.coeffs must be 4 \"p/q\" strings",
        )
        _require(dim == 4, "a ring-element map needs dim = 4")
        what = "invalid map element"
        amap = _checked(what, what, lambda: multiplication_map(cyc8(coeffs)))
        star = True
    else:
        if isinstance(map_spec, dict) and "matrix" in map_spec:
            map_spec = map_spec["matrix"]
        rows = _parse_matrix(map_spec, dim, "map")
        amap = _checked("map", "invalid map", commensurable_map, rows)
    reps = None
    if raw.get("reps") is not None:
        raw_reps = raw["reps"]
        _require(isinstance(raw_reps, list) and raw_reps, "reps must be a nonempty array")
        for vec in raw_reps:
            _require(
                isinstance(vec, list) and len(vec) == dim
                and all(isinstance(x, str) for x in vec),
                f"each rep must be {dim} \"p/q\" strings",
            )
        reps = _checked("reps", "reps", rat_matrix, raw_reps)
    render_radius = None
    palette = None
    highlight = False
    if raw.get("render") is not None:
        render = raw["render"]
        _require(isinstance(render, dict), "render must be an object")
        render_radius = render.get("radius")
        _require(
            _is_int(render_radius) and render_radius >= 0,
            "render.radius must be a non-negative integer",
        )
        _require_window(render_radius, dim, "render.radius")
        if render.get("palette") is not None:
            palette = render["palette"]
            _require(
                isinstance(palette, list)
                and all(isinstance(c, str) and HEX_COLOUR.fullmatch(c) for c in palette),
                "render.palette must be an array of #rrggbb strings",
            )
        highlight = render.get("highlight_csl", False)
        _require(isinstance(highlight, bool), "render.highlight_csl must be true or false")
    oracle_radius = raw.get("oracle_radius")
    if oracle_radius is not None:
        _require(
            _is_int(oracle_radius) and oracle_radius >= 1,
            "oracle_radius must be a positive integer",
        )
        _require_window(oracle_radius, dim, "oracle_radius")
    return JobConfig(
        parent=parent,
        sub=sub,
        amap=amap,
        star_embedding=star,
        reps=reps,
        render_radius=render_radius,
        palette=palette,
        highlight_csl=highlight,
        oracle_radius=oracle_radius,
        echo=raw,
    )


def build_colouring(cfg: JobConfig) -> Colouring:
    """The job's colouring, with m checked against the budget before any custom reps."""
    call = ("invalid representatives", "invalid colouring", Colouring, cfg.parent, cfg.sub)
    colouring = _checked(*call)
    _require(
        colouring.m <= COLOUR_BUDGET,
        f"sub_basis gives {_bounded(colouring.m)} colours, over the budget of {COLOUR_BUDGET}",
    )
    return colouring if cfg.reps is None else _checked(*call, cfg.reps)


def _over_digit_limit(exc: ValueError) -> ConfigError:
    """The error for an int too long for str(), over 4300 digits by Python's default."""
    return ConfigError(f"a report entry is over the integer digit limit: {exc}")


def _rational_strings(rows, den: int) -> list[list[str]]:
    """Each entry x / den of the integer rows as "p/q", or "p" when q = 1.

    With den = 1 every entry is str(x) and no gcd is taken; otherwise
    each entry is reduced by its own gcd.  Raises ConfigError when an
    entry has more digits than Python's limit on int-to-str conversion.
    """
    try:
        if den == 1:
            return [[str(x) for x in row] for row in rows]
        return [
            [str(x // den) if (g := gcd(x, den)) == den else f"{x // g}/{den // g}" for x in row]
            for row in rows
        ]
    except ValueError as exc:
        raise _over_digit_limit(exc) from None


def build_report(cfg: JobConfig, colouring, analysis, census=None) -> dict:
    report = {
        "tool_version": cslcolour.__version__,
        "config": cfg.echo,
        "m": analysis.m,
        "sigma1": analysis.sigma1,
        "sigma2": analysis.sigma2,
        "s": analysis.s,
        "t": analysis.t,
        "u": analysis.u,
        "v": analysis.v,
        "colour_coincidence": analysis.colour_coincidence,
        "set_I": list(analysis.set_I),
        "set_J": list(analysis.set_J),
        "permutation": (
            [list(p) for p in analysis.permutation]
            if analysis.permutation is not None
            else None
        ),
        "reps": _rational_strings(colouring.rep_rows, colouring.parent.den),
        "csl1_basis": _rational_strings(analysis.csl1.hnf_rows, analysis.csl1.den),
        "csl1_inv_basis": _rational_strings(analysis.csl1_inv.hnf_rows, analysis.csl1_inv.den),
        "csl2_basis": _rational_strings(analysis.csl2.hnf_rows, analysis.csl2.den),
    }
    if census is not None:
        contradictions = census_contradictions(analysis, census)
        report["census"] = census
        report["consistent"] = not contradictions
        report["contradictions"] = contradictions
        # observed against predicted |I| and |J|, so a vacuous window shows
        report["coverage"] = {
            "I": [len(census["observed_I"]), analysis.s],
            "J": [len(census["observed_J"]), analysis.t],
        }
    return report


def _write_lines(lines: Iterable[str], fh) -> None:
    """Write `"\n".join(lines)`, joining and writing _CHUNK_LINES lines at a time."""
    lines = iter(lines)
    sep = ""
    while chunk := list(islice(lines, _CHUNK_LINES)):
        fh.write(sep)
        fh.write("\n".join(chunk))
        sep = "\n"


def _emit(lines: Iterable[str], out: Optional[str]) -> None:
    """Write the lines joined by newlines to the file `out`, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            _write_lines(lines, fh)
    else:
        _write_lines(lines, sys.stdout)
        # a pipe whose reader has gone fails here at the latest, inside `main`
        sys.stdout.flush()


def _table(rows: list, pad: str) -> Optional[str]:
    """`_indented(rows, pad)` for rows that are one table, else None.

    A table is a list of lists of one width w >= 1 whose every column is
    all str or all int (`_FLAT`, so bool never is).  Each column is
    encoded by one map and the block is one join over the zipped
    columns, with no call per row or per cell.
    """
    if {*map(type, rows)} != {list}:
        return None
    columns = list(zip(*rows))
    if not columns or {*map(len, rows)} != {len(columns)}:
        return None
    encoded = []
    for column in columns:
        kinds = {*map(type, column)}
        if len(kinds) != 1 or (encode := _FLAT.get(kinds.pop())) is None:
            return None
        encoded.append(map(encode, column))
    inner = pad + "  "
    cell = inner + "  "
    sep_out = "\n" + inner + "],\n" + inner + "[\n" + cell
    block = sep_out.join(map((",\n" + cell).join, zip(*encoded)))
    return "[\n" + inner + "[\n" + cell + block + "\n" + inner + "]\n" + pad + "]"


def _indented(value, pad: str) -> str:
    """`json.dumps(value, indent=2)` for a value nested at indent `pad`.

    A list whose items are all str or int (`_FLAT`) is joined in one go,
    and a list of at least _TABLE_ROWS rows that `_table` takes is one
    join over its columns.  Any other non-empty list, and a non-empty
    dict with str keys, are written item by item.  The rest goes through
    json.dumps, whose output has a raw newline only between lines, since
    ensure_ascii escapes those inside strings.
    """
    inner = pad + "  "
    if type(value) is list and value:
        try:
            items = [_FLAT[type(x)](x) for x in value]
        except KeyError:
            if len(value) >= _TABLE_ROWS and (table := _table(value, pad)):
                return table
            items = [_indented(x, inner) for x in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if type(value) is dict and value and all(type(k) is str for k in value):
        items = [f"{encode_basestring_ascii(k)}: {_indented(v, inner)}" for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, indent=2).replace("\n", "\n" + pad)
    # a scalar is written alike with or without indent, and without it
    # json.dumps takes its cached C encoder
    return json.dumps(value)


def _report_json(report: dict) -> str:
    """`json.dumps(report, indent=2)` and a newline, byte for byte.

    Raises ConfigError when an integer of the report, such as sigma in
    dimension 4, has more digits than Python writes.
    """
    try:
        try:
            return _indented(report, "") + "\n"
        except RecursionError:
            # a deep config echo: _indented takes more frames a level than json.dumps
            return json.dumps(report, indent=2) + "\n"
    except ValueError as exc:
        raise _over_digit_limit(exc) from None


def cmd_analyze(args) -> int:
    cfg = load_job_config(args.config)
    colouring = build_colouring(cfg)
    analysis = analyze(colouring, cfg.amap)
    _emit([_report_json(build_report(cfg, colouring, analysis))], args.out)
    return 0


def cmd_oracle(args) -> int:
    cfg = load_job_config(args.config)
    _require(cfg.oracle_radius is not None, "oracle needs oracle_radius in the config")
    colouring = build_colouring(cfg)
    analysis = analyze(colouring, cfg.amap)
    census = window_census(colouring, cfg.amap, cfg.oracle_radius)
    report = build_report(cfg, colouring, analysis, census=census)
    _emit([_report_json(report)], args.out)
    if report["contradictions"]:
        _error("OracleContradiction", "; ".join(report["contradictions"]))
        return 4
    return 0


def cmd_render(args) -> int:
    cfg = load_job_config(args.config)
    _require(cfg.render_radius is not None, "render needs a render section in the config")
    colouring = build_colouring(cfg)
    palette = cfg.palette
    if palette is not None:
        _require(
            len(palette) >= colouring.m,
            f"palette has {len(palette)} colours, colouring needs {colouring.m}",
        )
    # every check runs here, before --out is opened, so a refused render
    # leaves no file; the lines are joined as they are written
    lines = _svg_lines(
        colouring,
        cfg.amap,
        mode=args.mode,
        radius=cfg.render_radius,
        palette=palette,
        highlight_csl=cfg.highlight_csl,
        star_embedding=cfg.star_embedding,
    )
    _emit(lines, args.out)
    return 0


def cmd_gen_rotations(args) -> int:
    _require(args.max >= 1, "--max must be >= 1")
    _require(args.max <= ROTATION_BUDGET, f"--max {args.max} is over the budget {ROTATION_BUDGET}")
    rotations = enumerate_square_rotations(args.max)
    payload = {
        "max_den": args.max,
        "count": len(rotations),
        # the rows of A are the columns of A^T = forward
        "rotations": [_rational_strings(zip(*r.forward[0]), r.forward[1]) for r in rotations],
    }
    _emit([_report_json(payload)], args.out)
    return 0


def _error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError, not as usage text."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")

    def exit(self, status=0, message=None):
        # argparse swallows a failed write of the --help text; the flush
        # lets a closed stdout reach `main` as an OSError
        sys.stdout.flush()
        super().exit(status, message)


def _parser() -> _ArgumentParser:
    """The command line: a root parser and one subparser per command."""
    parser = _ArgumentParser(
        prog="cslcolour",
        description="Exact coincidence site lattice and colour coincidence analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full index-diagram analysis of a config")
    p_analyze.add_argument("config")
    p_analyze.add_argument("--out", default=None)
    p_analyze.set_defaults(fn=cmd_analyze)

    p_render = sub.add_parser("render", help="draw a coloured lattice window as SVG")
    p_render.add_argument("config")
    p_render.add_argument("--mode", choices=RENDER_MODES, required=True)
    p_render.add_argument("--out", default=None)
    p_render.set_defaults(fn=cmd_render)

    p_oracle = sub.add_parser("oracle", help="brute-force window census cross-check")
    p_oracle.add_argument("config")
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(fn=cmd_oracle)

    p_gen = sub.add_parser("gen-rotations", help="emit the square-lattice rotation corpus")
    p_gen.add_argument("--max", type=int, required=True)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(fn=cmd_gen_rotations)
    return parser


# built once per process; `main` only parses and dispatches
_PARSER = _parser()


def main(argv=None) -> int:
    args = None
    try:
        args = _PARSER.parse_args(argv)
        return args.fn(args)
    except (ConfigError, UnsupportedDimension) as exc:
        _error("ConfigError", str(exc))
        return 2
    except NotCoincidence as exc:
        _error("NotCoincidence", str(exc))
        return 3
    except CslcolourError as exc:
        _error(type(exc).__name__, str(exc))
        return 5
    except OSError as exc:
        # config reads are refused in load_job_config, so this is the
        # output: --out, or stdout (the --help text when args is None)
        if args is None or not args.out:
            # stdout failed: what is left in its buffer goes nowhere, and
            # the interpreter's last flush has nothing to complain about
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        _error("ConfigError", f"cannot write the output: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
