"""Command-line interface.

Subcommands:

  compute   one (family, N, m) point, printed as text or JSON
  table     sweep odd m for one family and N, emitted as CSV or JSON
  figure    preset figure 1..5, emitted as CSV and/or SVG (or JSON)
  verify    run the self-verification suite (fast or full)

Exit codes: 0 success, 1 verification failure, 2 zero wavefunction,
64 usage error, unwritable ``--out`` or a table or figure whose output
does not fit in memory.  Options resolve as flags > config
file > defaults; the config file is flat ``key = value`` text with ``#``
comments.  A config key must name an option of some subcommand; keys of
other subcommands are ignored, and values are checked with the running
subcommand's flag type and choices.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Sequence

from .measure import modified_measure
from .figures import PRESETS, figure_title, render_svg, rows_to_csv, rows_to_json, series_points
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


def _resolve(args: argparse.Namespace, keys: Sequence[str]) -> dict[str, Any]:
    """Merge flag values, config-file values, and defaults, in that order."""
    config = load_config(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(config) - set(_DEFAULTS))
    if unknown:
        raise UsageError(f"{args.config}: unknown config key(s): {', '.join(unknown)}")
    resolved: dict[str, Any] = {}
    for key in keys:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in config:
            resolved[key] = _convert(args.options[key], config[key])
        else:
            resolved[key] = _DEFAULTS[key]
    return resolved


def _convert(option: argparse.Action, raw: str) -> Any:
    """A config value converted and checked like the flag it stands for."""
    key, value = option.dest, raw
    if option.type is int:
        try:
            value = int(raw)
        except ValueError as exc:
            raise UsageError(f"config value for {key} must be an integer, got {raw!r}") from exc
    if option.choices is not None and value not in option.choices:
        raise UsageError(
            f"config value for {key} must be one of {tuple(option.choices)}, got {raw!r}"
        )
    return value


def _too_large(request: str, fmt: str | None) -> int:
    """Exit 64 for a table or figure whose output ran out of memory being built."""
    if fmt:
        request += f" --format {fmt}"
    print(f"error: {request}: the output does not fit in memory", file=sys.stderr)
    return EXIT_USAGE


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, newline="\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


# -- subcommands -----------------------------------------------------------

def cmd_compute(args: argparse.Namespace) -> int:
    opts = _resolve(args, ("family", "n", "m", "units", "format"))
    try:
        state = FAMILIES[opts["family"]](opts["n"], opts["m"])
    except ZeroWavefunctionError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ZERO_WAVEFUNCTION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = modified_measure(state, family=opts["family"], m=opts["m"])
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


def cmd_table(args: argparse.Namespace) -> int:
    opts = _resolve(args, ("family", "n", "m_max", "format", "out", "jobs"))
    try:
        points, zeros = series_points([(opts["family"], opts["n"])], opts["m_max"], opts["jobs"])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if opts["format"] == "json":
            text = rows_to_json([*points, *zeros]) + "\n"
        else:
            text = rows_to_csv(points)
    except MemoryError:
        request = f"table --family {opts['family']} --n {opts['n']} --m-max {opts['m_max']}"
        return _too_large(request, opts["format"])
    if opts["out"]:
        _write_text(opts["out"], text)
        print(f"wrote {opts['out']}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_figure(args: argparse.Namespace) -> int:
    opts = _resolve(args, ("m_max", "format", "out", "jobs"))
    try:
        points, zeros = series_points(PRESETS[args.id][1], opts["m_max"], opts["jobs"])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    fmt = opts["format"]
    try:
        # CSV omits zero points; SVG and JSON show them, and each reads the tail once
        if opts["out"]:
            base = opts["out"]
            if base.endswith((".csv", ".svg", ".json")):
                base = base.rsplit(".", 1)[0]
            # every file is built before any is written, so a refusal writes none
            files = []
            if fmt in (None, "csv"):
                files.append((f"{base}.csv", rows_to_csv(points)))
            if fmt in (None, "svg"):
                files.append((f"{base}.svg", render_svg([*points, *zeros], figure_title(args.id))))
            if fmt == "json":
                files.append((f"{base}.json", rows_to_json([*points, *zeros]) + "\n"))
            for path, text in files:
                _write_text(path, text)
            for path, _ in files:
                print(f"wrote {path}")
        elif fmt == "svg":
            print(render_svg([*points, *zeros], figure_title(args.id)), end="")
        elif fmt == "json":
            print(rows_to_json([*points, *zeros]))
        else:
            print(rows_to_csv(points), end="")
    except MemoryError:
        return _too_large(f"figure {args.id} --m-max {opts['m_max']}", fmt)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    # verify imports entangle and so numpy; the other subcommands never do
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

    def add_config(p: _Parser) -> None:
        p.add_argument("--config", help="flat key = value config file")
        p.set_defaults(options=p.options)

    p = sub.add_parser("compute", help="measure one (family, N, m) point")
    p.add_argument("--family", choices=tuple(FAMILIES))
    p.add_argument("--n", type=int, help="electron count N")
    p.add_argument("--m", type=int, help="odd exponent m")
    p.add_argument("--units", choices=("bits", "nats"))
    p.add_argument("--format", choices=("text", "json"))
    add_config(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("table", help="sweep odd m for one family and N")
    p.add_argument("--family", choices=tuple(FAMILIES))
    p.add_argument("--n", type=int, help="electron count N")
    p.add_argument("--m-max", dest="m_max", type=int, help="largest m (odd values up to this)")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--jobs", type=int, help="parallel worker processes")
    add_config(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("figure", help="emit a preset figure (1..5)")
    p.add_argument("id", type=int, choices=tuple(PRESETS))
    p.add_argument("--m-max", dest="m_max", type=int, help="largest m on the t axis")
    p.add_argument("--format", choices=("csv", "svg", "json"))
    p.add_argument("--out", help="output base path (writes .csv and .svg)")
    p.add_argument("--jobs", type=int, help="parallel worker processes")
    add_config(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("verify", help="run the self-verification suite")
    p.add_argument(
        "level", nargs="?", default="fast", choices=("fast", "full"),
        help="fast: m <= 9, N <= 3 (N <= 4 in the L-/L+ check); "
        "full: m <= 13, N <= 4 (N <= 7 in the L-/L+ check)",
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
