"""Command-line interface.

Subcommands:

  compute   one (family, N, m) point, printed as text or JSON
  table     sweep odd m for one family and N, emitted as CSV or JSON
  figure    preset figure 1..5, emitted as CSV and/or SVG (or JSON)
  verify    run the self-verification suite (fast or full)

Exit codes: 0 success, 1 verification failure, 2 zero wavefunction,
64 usage error, unwritable ``--out``, a state whose build does not fit in
memory, a table or figure whose output does not, or a ``--jobs`` sweep
that cannot start its process pool's threads.  Options resolve as
flags > config file > defaults; the config file is flat ``key = value``
text with ``#`` comments.  A config key must name an option of some
subcommand; keys of other subcommands are ignored, and values are checked
with the running subcommand's flag type and choices.  Integers, as flags
or config values, are ASCII decimal digits with an optional sign, so
``3_1`` exits 64, as does a figure ``--out`` base with no file name, such
as ``outdir/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Sequence

from .figures import (
    PRESETS, WorkerStartError, family_report, figure_title, render_svg, rows_to_csv,
    rows_to_json, series_points,
)
from .states import FAMILIES, ZeroWavefunctionError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_ZERO_WAVEFUNCTION = 2
EXIT_USAGE = 64

# Every config key, with its default when neither flag nor config sets it.
_DEFAULTS: dict[str, Any] = {
    "family": "laughlin",
    "n": 2,
    "m": 3,
    "m_max": 13,
    "units": "bits",
    "format": None,
    "out": None,
    "jobs": 1,
}


class UsageError(ValueError):
    """Invalid flag or config value; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64.

    The default argparse exit code 2 would collide with the zero-wavefunction
    exit code.  Options are recorded by destination so that config values
    are converted and checked by the same definitions as flags.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self.options: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args: Any, **kwargs: Any) -> argparse.Action:
        action = super().add_argument(*args, **kwargs)
        self.options[action.dest] = action
        return action

    def error(self, message: str) -> Any:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def load_config(path: str) -> dict[str, str]:
    """Parse a flat ``key = value`` config file; ``#`` starts a comment."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace) -> dict[str, Any]:
    """Merge flag values, config-file values, and defaults, in that order,
    for every option of the running subcommand that is a config key."""
    config = load_config(args.config) if args.config else {}
    unknown = sorted(set(config) - set(_DEFAULTS))
    if unknown:
        raise UsageError(f"{args.config}: unknown config key(s): {', '.join(unknown)}")
    resolved: dict[str, Any] = {}
    for key, option in args.options.items():
        if key in _DEFAULTS:
            value = getattr(args, key)
            if value is None:
                value = _convert(option, config[key]) if key in config else _DEFAULTS[key]
            resolved[key] = value
    return resolved


def _convert(option: argparse.Action, raw: str) -> Any:
    """A config value converted by the flag's own type and checked against its choices."""
    try:
        value = option.type(raw) if option.type else raw
    except ValueError as exc:  # every option with a type is an integer
        raise UsageError(f"config value for {option.dest} must be an integer, got {raw!r}") from exc
    if option.choices is not None and value not in option.choices:
        raise UsageError(
            f"config value for {option.dest} must be one of {tuple(option.choices)}, got {raw!r}"
        )
    return value


def integer(text: str) -> int:
    """ASCII decimal digits with an optional sign; int() alone also reads 3_1
    and ٣.  Named for argparse's refusal: "invalid integer value"."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, newline="\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


# -- subcommands -----------------------------------------------------------

def cmd_compute(args: argparse.Namespace, opts: dict[str, Any]) -> int:
    try:
        report = family_report(opts["family"], opts["n"], opts["m"])
    except ZeroWavefunctionError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ZERO_WAVEFUNCTION
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except MemoryError:
        report = None  # refused below, once the traceback has let go of the build
    if report is None:
        request = f"compute --family {opts['family']} --n {opts['n']} --m {opts['m']}"
        raise UsageError(f"{request}: the state does not fit in memory")
    if opts["format"] == "json":
        import json

        payload = report.as_dict()
        payload["units"] = opts["units"]
        payload["S_f"] = (
            report.measure_bits if opts["units"] == "bits" else report.measure_nats
        )
        print(json.dumps(payload, indent=2))
    else:
        value = report.measure_bits if opts["units"] == "bits" else report.measure_nats
        print(
            f"S_f = {value:.12g} {opts['units']} "
            f"({opts['family']}, N={opts['n']}, m={opts['m']}, t={report.t})"
        )
    return EXIT_OK


def cmd_table(args: argparse.Namespace, opts: dict[str, Any]) -> int:
    request = f"table --family {opts['family']} --n {opts['n']} --m-max {opts['m_max']}"
    return _sweep_and_emit(request, [(opts["family"], opts["n"])], opts)


def cmd_figure(args: argparse.Namespace, opts: dict[str, Any]) -> int:
    request = f"figure {args.id} --m-max {opts['m_max']}"
    return _sweep_and_emit(request, PRESETS[args.id][1], opts, figure_title(args.id))


def _sweep_and_emit(
    request: str, series: Sequence[tuple[str, int]], opts: dict[str, Any], title: str = ""
) -> int:
    """Sweep the series over odd m <= m_max, then print or write its output.

    A table writes one output to --out as named.  A figure, which has a
    title, takes --out as a base path, a known suffix stripped, and writes
    BASE.csv and BASE.svg, or BASE.<format>.  Every output is built before
    any is written, so a refusal writes none.
    """
    fmt, out = opts["format"], opts["out"]
    formats, paths = [fmt or "csv"], [out]
    if title and out is not None:
        base = out.rsplit(".", 1)[0] if out.endswith((".csv", ".svg", ".json")) else out
        if base.rpartition("/")[2] in ("", ".", ".."):
            raise UsageError(f"--out {out} names no file")
        if not fmt:
            formats.append("svg")
        paths = [f"{base}.{f}" for f in formats]
    try:
        points, zeros = series_points(series, opts["m_max"], opts["jobs"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except WorkerStartError as exc:
        raise UsageError(f"{request} --jobs {opts['jobs']}: {exc}") from None
    except MemoryError:
        points = None  # refused below, once the traceback has let go of the build
    if points is None:
        raise UsageError(f"{request}: the state does not fit in memory")
    try:
        # CSV omits zero points; SVG and JSON show them, and each reads the tail once
        texts = [
            rows_to_csv(points) if f == "csv"
            else render_svg([*points, *zeros], title) if f == "svg"
            else rows_to_json([*points, *zeros]) + "\n"
            for f in formats
        ]
    except MemoryError:
        request += f" --format {fmt}" if fmt else ""
        raise UsageError(f"{request}: the output does not fit in memory") from None
    if out is None:
        print(texts[0], end="")
        return EXIT_OK
    for path, text in zip(paths, texts):
        _write_text(path, text)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    # imported here, so that importing fqhent.cli does not load the checks
    from .verify import all_passed, format_report, run_verification

    results = run_verification(args.level)
    print(format_report(results), end="")
    return EXIT_OK if all_passed(results) else EXIT_VERIFY_FAIL


# -- parser ----------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(
        prog="fqhent",
        description=(
            "Exact Fock-basis construction and single-particle entanglement "
            "of quantum Hall model wavefunctions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_config(p: _Parser, func: Any) -> None:
        p.add_argument("--config", help="flat key = value config file")
        p.set_defaults(options=p.options, func=func)

    p = sub.add_parser("compute", help="measure one (family, N, m) point")
    p.add_argument("--family", choices=tuple(FAMILIES))
    p.add_argument("--n", type=integer, help="electron count N")
    p.add_argument("--m", type=integer, help="odd exponent m")
    p.add_argument("--units", choices=("bits", "nats"))
    p.add_argument("--format", choices=("text", "json"))
    add_config(p, cmd_compute)

    p = sub.add_parser("table", help="sweep odd m for one family and N")
    p.add_argument("--family", choices=tuple(FAMILIES))
    p.add_argument("--n", type=integer, help="electron count N")
    p.add_argument("--m-max", dest="m_max", type=integer, help="largest m (odd values up to this)")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--jobs", type=integer, help="parallel worker processes")
    add_config(p, cmd_table)

    p = sub.add_parser("figure", help="emit a preset figure (1..5)")
    p.add_argument("id", type=integer, choices=tuple(PRESETS))
    p.add_argument("--m-max", dest="m_max", type=integer, help="largest m on the t axis")
    p.add_argument("--format", choices=("csv", "svg", "json"))
    p.add_argument("--out", help="output base path (writes .csv and .svg)")
    p.add_argument("--jobs", type=integer, help="parallel worker processes")
    add_config(p, cmd_figure)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument(
        "level", nargs="?", default="fast", choices=("fast", "full"),
        help="fast: m <= 9, N <= 3 (N <= 4 in the L-/L+ check); "
        "full: m <= 13, N <= 4 (N <= 7 in the L-/L+ check)",
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":  # verify reads no config
            return cmd_verify(args)
        return args.func(args, _resolve(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
