"""Regenerate reference.json from the program in src/.

    PYTHONPATH=src python3 bench/record_reference.py

Run it only when an output change is intended: the benchmark's checks
compare every later run against what this records.  Figures 1 and 5 must
still equal the CSVs the demos committed under demos/output/.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from checks import REFERENCE_PATH, cli_key, cli_value, state_digest, state_key
from inputs import FAMILIES, FIGURE_IDS, HEAVY_POINTS, ODD_M, cli_argv

from fqhent import cli, figures
from fqhent.entangle import modified_measure
from fqhent.states import FAMILIES as CONSTRUCTORS
from fqhent.states import ZeroWavefunctionError

ROOT = Path(__file__).resolve().parent.parent


def state_entry(family: str, n: int, m: int) -> dict:
    try:
        state = CONSTRUCTORS[family](n, m)
    except ZeroWavefunctionError:
        return {"measure_bits": None, "digest": None}
    bits = modified_measure(state, family=family, m=m).measure_bits
    return {"measure_bits": bits, "digest": state_digest(state)}


def cli_entry(point) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(cli_argv(point))
    return {"exit": code, "value": cli_value(out.getvalue(), point[3]) if code == 0 else None}


def main() -> int:
    figure_csv, points = {}, set(HEAVY_POINTS)
    for fig_id in FIGURE_IDS:
        spec = figures.figure_spec(fig_id)
        figure_csv[str(fig_id)] = figures.rows_to_csv(figures.figure_points(spec))
        points.update((family, n, 2 * t + 1) for family, n in spec.series for t in spec.t_values)
    for fig_id in (1, 5):
        committed = (ROOT / "demos" / "output" / f"figure{fig_id}.csv").read_text()
        if figure_csv[str(fig_id)] != committed:
            print(f"figure {fig_id} no longer matches demos/output", file=sys.stderr)
            return 1
    cli_points = [
        (family, n, m, fmt)
        for family in FAMILIES
        for n in (2, 3)
        for m in ODD_M
        for fmt in ("text", "json")
    ]
    reference = {
        "figure_csv": figure_csv,
        "states": {state_key(*p): state_entry(*p) for p in sorted(points)},
        "cli": {cli_key(*p): cli_entry(p) for p in cli_points},
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH.name}: {len(reference['states'])} states, {len(cli_points)} cli points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
