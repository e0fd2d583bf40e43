"""Command-line interface: data-export front end for the lab.

Commands
--------
* ``characters Q``          -- list characters mod Q (``--real`` for the real
                               enumeration only, which is what ``-k`` indexes).
* ``lfun eval -q Q -k K -s S``   -- one continued L-value with provenance.
* ``lfun scan -q Q -k K``        -- real-axis scan on the ``--grid-step`` grid
                               that ``audit`` and ``survey`` scan; exit 1
                               if a sign change (candidate zero) is found.
* ``geom verify-appendix``  -- recompute the golden bilinear-geometry table;
                               exit 1 on any mismatch.
* ``pappus check -q Q -k K -s S -N N`` -- solid-of-revolution identity audit.
* ``audit -q Q -k K -s S -N N1,N2,...`` -- the eight-claim truncation audit;
                               exit 1 if the zero scan saw a sign change.
* ``survey --qmax Q``       -- min |L| survey over all real non-principal
                               characters; exit 1 if any row saw a sign change.

Conventions: ``--format`` picks json/csv/table (default table); CSV uses a
'.' decimal point regardless of locale; complex numbers print as "a+bi" in
tables and CSV and as {"re": ..., "im": ...} in JSON.  ``-s`` accepts a
complex literal like ``0.5``, ``0.5+2i`` or ``inf``; one that starts with
'-' stands apart only as an integer or exponent-free decimal (``-40``,
``-0.5``), else argparse reads it as an option: attach it, ``-s=-1.2i``.
Exit codes: 0 for success / no finding, 1 for a finding (sign change or
golden mismatch), 2 for usage or domain errors (a ``--grid-step`` that is
not positive or gives an infinite or under-2 grid point count, a ``--tol``
(``lfun eval``) that is not positive, an ``-s`` with a NaN or infinite part,
an ``lfun eval`` point past the continuation range, and a series term past
the float range, included), 3 for an internal arithmetic failure, 141 (the
shell's SIGPIPE status) when stdout is closed before the output is written.

The environment variable LSERIES_LAB_CONFIG may point to a ``key=value``
file overriding the defaults: ``hurwitz_tol`` (default 1e-10; it sets only
the default ``--tol`` of ``lfun eval``: ``lfun scan``, ``audit`` and
``survey`` take no tolerance and evaluate at the default one),
``default_n`` (default 10000), ``grid_step`` (default 0.01),
``output_format`` (default table).
A ``#`` starts a comment.  Command-line flags override the config file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from . import audit as audit_mod
from . import cgeom
from .characters import enumerate_characters, enumerate_real_characters
from .lseries import _DEFAULT_GRID_STEP, _DEFAULT_TOL, _check_tols, _scan_grid, evaluate, scan_zeros
from .rotation import pappus_check

__all__ = ["Config", "load_config", "main", "run"]

ENV_CONFIG = "LSERIES_LAB_CONFIG"
FORMATS = ("json", "csv", "table")

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
_EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell shows for a closed pipe


@dataclasses.dataclass(frozen=True)
class Config:
    """Run defaults; see the module docstring for the config-file keys."""

    hurwitz_tol: float = _DEFAULT_TOL
    default_n: int = 10_000
    grid_step: float = _DEFAULT_GRID_STEP
    output_format: str = "table"

    def validate(self) -> "Config":
        _check_tols(hurwitz_tol=self.hurwitz_tol)
        if self.default_n < 1:
            raise ValueError(f"default_n must be >= 1, got {self.default_n}")
        try:
            _scan_grid(self.grid_step)
        except ValueError as exc:
            raise ValueError(f"grid_step {self.grid_step}: {exc}") from None
        if self.output_format not in FORMATS:
            raise ValueError(
                f"output_format must be one of {FORMATS}, got {self.output_format!r}"
            )
        return self


def load_config(environ=None) -> Config:
    """Config from the LSERIES_LAB_CONFIG key=value file, if set."""
    environ = os.environ if environ is None else environ
    path = environ.get(ENV_CONFIG)
    if not path:
        return Config()
    fields = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.partition("#")[0].strip()  # no key or value holds a "#"
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (expected key=value): {line!r}")
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    known = {f.name: type(f.default) for f in dataclasses.fields(Config)}
    kwargs = {}
    for key, value in fields.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        kwargs[key] = known[key](value)
    return Config(**kwargs).validate()


def parse_complex_s(text: str) -> complex:
    """Parse 'sigma+ti' literals: '0.5', '0.5+2i', '-1.5-0.25i', '2i', 'inf'.
    Only a trailing i or I is the imaginary unit; the rest is read as
    ``complex()`` reads it, so 'inf' and 'nan' in any case are numbers."""
    cleaned = text.strip().replace(" ", "")
    if cleaned[-1:] in ("i", "I"):
        cleaned = cleaned[:-1] + "j"
    try:
        return complex(cleaned)
    except ValueError:
        raise ValueError(f"cannot parse complex number from {text!r}") from None


def format_complex(z: complex) -> str:
    """'a+bi' with round-trippable float fields."""
    re, im = z.real, z.imag
    sign = "+" if im >= 0 or im != im else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def _emit(headers, rows, fmt: str, out, payload) -> None:
    """Print rows of raw values in fmt.  A table or CSV cell is `format_complex`
    of a complex value and `str` of any other; JSON is `payload`, a complex
    value as {"re", "im"}."""
    if fmt == "json":
        # dumps without indent, not dump: only that runs the C encoder
        out.write(json.dumps(payload, default=lambda z: {"re": z.real, "im": z.imag}))
        out.write("\n")
        return
    cells = ([format_complex(v) if isinstance(v, complex) else str(v) for v in row] for row in rows)
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(cells)
        return
    cells = [list(headers)] + list(cells)
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    for r, row in enumerate(cells):
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip(), file=out)
        if r == 0:
            print("  ".join("-" * w for w in widths), file=out)


def _select_character(q: int, k: int):
    chars = enumerate_real_characters(q)
    if not 0 <= k < len(chars):
        raise ValueError(
            f"character index {k} out of range: modulus {q} has "
            f"{len(chars)} real characters (indices 0..{len(chars) - 1})"
        )
    return chars[k]


def _values_cell(chi) -> str:
    """'1;-1;0;(4,1)': entries are ints or (order, exponent) int pairs, so
    their str forms hold no space but the one after each pair's comma."""
    return ";".join(map(str, chi.values)).replace(" ", "")


def _cmd_characters(args, out) -> int:
    chars = enumerate_real_characters(args.q) if args.real else enumerate_characters(args.q)
    headers = ["q", "index", "real", "principal", "conductor", "values"]
    # Each format prints only one of these, and both are large for a large q:
    # the rows are made lazily, the JSON payload only when it is printed.
    rows = (
        [c.modulus, i, c.is_real, c.is_principal, c.conductor, _values_cell(c)]
        for i, c in enumerate(chars)
    )
    payload = [c.to_json_dict() for c in chars] if args.format == "json" else None
    _emit(headers, rows, args.format, out, payload)
    return EXIT_OK


def _cmd_lfun_eval(args, out) -> int:
    chi = _select_character(args.q, args.k)
    s = parse_complex_s(args.s)
    ev = evaluate(chi, s, tol=args.tol)
    headers = ["q", "k", "s", "value", "method", "n_used", "err_estimate"]
    row = [args.q, args.k, s, ev.value, ev.method, ev.n_used, ev.err_estimate]
    _emit(headers, [row], args.format, out, dict(zip(headers, row)))
    return EXIT_OK


def _cmd_lfun_scan(args, out) -> int:
    chi = _select_character(args.q, args.k)
    result = scan_zeros(chi, *_scan_grid(args.grid_step))
    headers = ["q", "char_index", "sigma", "L_value", "err_estimate"]
    rows = [
        [args.q, args.k, *point]
        for point in zip(result.sigmas, result.values, result.err_estimates)
    ]
    payload = {
        "q": args.q,
        "k": args.k,
        "rows": [dict(zip(headers[2:], row[2:])) for row in rows],
        "brackets": [dataclasses.asdict(b) for b in result.brackets],
        "min_abs": result.min_abs,
        "argmin_sigma": result.argmin_sigma,
    }
    _emit(headers, rows, args.format, out, payload)
    if args.format == "table":
        print(
            f"min |L| = {result.min_abs!r} at sigma = {result.argmin_sigma!r}; "
            f"sign changes: {len(result.brackets)}",
            file=out,
        )
        for b in result.brackets:
            print(f"  bracket [{b.lo!r}, {b.hi!r}] root {b.root!r}", file=out)
    return EXIT_FINDING if result.brackets else EXIT_OK


def _cmd_geom_verify(args, out) -> int:
    checks = cgeom.verify_appendix()
    # the table rounds the residual and names the status; the JSON keeps each field
    headers = ["example", "quantity", "computed", "expected", "residual", "status"]
    rows = [
        [c.example, c.quantity, c.computed, c.expected, f"{c.residual:.3e}",
         "pass" if c.ok else "FAIL"]
        for c in checks
    ]
    _emit(headers, rows, args.format, out, [dataclasses.asdict(c) for c in checks])
    return EXIT_OK if all(c.ok for c in checks) else EXIT_FINDING


def _cmd_pappus_check(args, out) -> int:
    chi = _select_character(args.q, args.k)
    s = parse_complex_s(args.s)
    r = pappus_check(chi, s, args.N)
    headers = ["q", "k", "s", "N", "S", "V", "xi", "eta", "residual"]
    row = [args.q, args.k, s, args.N, r.profile_area, r.volume, r.xi, r.eta, r.residual]
    _emit(headers, [row], args.format, out, dict(zip(headers, row)))
    return EXIT_OK


def _cmd_audit(args, out) -> int:
    chi = _select_character(args.q, args.k)
    s = parse_complex_s(args.s)
    claims = audit_mod.run_audit(chi, s, args.N, grid_step=args.grid_step)
    headers = ["claim_id", "verdict", "evidence_points", "note"]
    rows = [[c.claim_id, c.verdict, len(c.evidence), c.note] for c in claims]
    _emit(headers, rows, args.format, out, [c.to_json_dict() for c in claims])
    found = any(c.verdict == audit_mod.VERDICT_SIGN_CHANGE_FOUND for c in claims)
    return EXIT_FINDING if found else EXIT_OK


def _cmd_survey(args, out) -> int:
    rows = audit_mod.nonvanishing_survey(args.qmax, args.grid_step)
    headers = [f.name for f in dataclasses.fields(audit_mod.SurveyRow)]
    payload = [r.to_json_dict() for r in rows]
    _emit(headers, [dataclasses.astuple(r) for r in rows], args.format, out, payload)
    return EXIT_FINDING if any(r.sign_changes for r in rows) else EXIT_OK


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser(config: Config) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lseries-lab",
        description="Dirichlet character L-series lab: exact characters, "
        "continued L-values, zero scans, and truncation audits (data export only).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def finish(p, func):
        p.add_argument(
            "--format",
            choices=FORMATS,
            default=config.output_format,
            help=f"output format (default {config.output_format})",
        )
        p.set_defaults(func=func)

    def add_grid_step(p):
        p.add_argument(
            "--grid-step",
            type=float,
            default=config.grid_step,
            help=f"scan grid spacing (default {config.grid_step})",
        )

    def add_selector(p):
        p.add_argument("-q", type=int, required=True, help="character modulus")
        p.add_argument(
            "-k",
            type=int,
            required=True,
            help="index into the real character enumeration mod q (0 = principal)",
        )

    p_chars = sub.add_parser("characters", help="list characters mod q")
    p_chars.add_argument("q", type=int, help="modulus")
    p_chars.add_argument(
        "--real", action="store_true", help="only the real enumeration (what -k indexes)"
    )
    finish(p_chars, _cmd_characters)

    p_lfun = sub.add_parser("lfun", help="L-function evaluation and scanning")
    lfun_sub = p_lfun.add_subparsers(dest="subcommand", required=True)

    p_eval = lfun_sub.add_parser("eval", help="evaluate L(s, chi)")
    add_selector(p_eval)
    p_eval.add_argument("-s", required=True, help="point, e.g. '1', '0.5+2i'")
    p_eval.add_argument(
        "--tol", type=float, default=config.hurwitz_tol, help="evaluation tolerance"
    )
    finish(p_eval, _cmd_lfun_eval)

    p_scan = lfun_sub.add_parser("scan", help="scan L(sigma, chi) on (0, 1)")
    add_selector(p_scan)
    add_grid_step(p_scan)
    finish(p_scan, _cmd_lfun_scan)

    p_geom = sub.add_parser("geom", help="bilinear-geometry checks")
    geom_sub = p_geom.add_subparsers(dest="subcommand", required=True)
    p_verify = geom_sub.add_parser(
        "verify-appendix", help="recompute the golden worked-example table"
    )
    finish(p_verify, _cmd_geom_verify)

    p_pappus = sub.add_parser("pappus", help="solid-of-revolution identity")
    pappus_sub = p_pappus.add_subparsers(dest="subcommand", required=True)
    p_check = pappus_sub.add_parser("check", help="check V = 2 pi eta S at truncation N")
    add_selector(p_check)
    p_check.add_argument("-s", required=True, help="point, e.g. '0.7'")
    p_check.add_argument(
        "-N", type=int, default=config.default_n, help=f"truncation (default {config.default_n})"
    )
    finish(p_check, _cmd_pappus_check)

    p_audit = sub.add_parser("audit", help="run the eight-claim truncation audit")
    add_selector(p_audit)
    p_audit.add_argument("-s", required=True, help="point, e.g. '0.5+0i'")
    default_ns = sorted({max(1, config.default_n // 100), max(1, config.default_n // 10), config.default_n})
    p_audit.add_argument(
        "-N",
        type=_int_list,
        default=default_ns,
        help=f"comma-separated truncations (default {','.join(map(str, default_ns))})",
    )
    add_grid_step(p_audit)
    finish(p_audit, _cmd_audit)

    p_survey = sub.add_parser(
        "survey", help="min |L| survey over real non-principal characters"
    )
    p_survey.add_argument("--qmax", type=int, required=True, help="largest modulus")
    add_grid_step(p_survey)
    finish(p_survey, _cmd_survey)

    return parser


def main(argv=None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = sys.stdout if out is None else out
    try:
        config = load_config()
    except (OSError, ValueError) as exc:
        print(f"error: bad config ({exc})", file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser(config)
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except ValueError as exc:  # every domain error of the package is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    """Console entry point.  A reader that closed stdout early (``| head``) is
    no finding: exit 141 with no traceback, stdout pointed at devnull so that
    the exit flush cannot fail again."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _EXIT_BROKEN_PIPE
    raise SystemExit(code)
