"""Byte-for-byte golden outputs of the figure presets and the JSON rows.

The CSV and SVG goldens are the committed demo outputs; the JSON goldens
were recorded from the CLI and keep zero-wavefunction points as null.  The
family digests are sha256 sums of the exact determinant-basis terms of
three of the largest states, recorded from a build that summed the
squeezing recursion's l terms one at a time and multiplied the condensate
in by Pieri steps.  The Fock digests are sha256 sums of the same states'
gcd-reduced Fock weights and their total, recorded from a to_fock that
multiplied every orbital's full weight 2^(mu+1) mu! in, and of
laughlin(8, 3)'s, recorded from the build that still capped N at 7, with
the cap raised.  The stdout
goldens are the printed text of four demos and of `verify full`, recorded
before FockVector lost its Amplitude-map and rational-amplitude
constructors, and of `verify fast`, recorded at 174a8a7, before each check
came to return its verdict; demo 04 is left out because it prints the
paths it writes.
The grid golden holds measure_bits, as float.hex() and as CSV text, of
every nonzero point the size budget allows at N = 2-9, recorded by
tests/grid_bits.py at 1f3d645; tier-1 checks a slice of it and CI the rest.
On that slice, each value the program prints is certified against the
exact measure, within one unit of its 12th significant digit; CI
certifies every golden value with tests/certify_digits.py.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from certify_digits import exact_measure_bits, units_off
from fqhent import (
    evaluate_point,
    family_expansion,
    figure_points,
    figure_spec,
    figure_title,
    render_svg,
    rows_to_csv,
    to_fock,
)
from fqhent.cli import EXIT_OK, main
from grid_bits import GRID, grid_lines

ROOT = Path(__file__).resolve().parent.parent
DEMO_OUTPUT = ROOT / "demos" / "output"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("fig_id", [1, 5])
def test_figure_csv_and_svg(fig_id):
    points = figure_points(figure_spec(fig_id))
    assert rows_to_csv(points) == (DEMO_OUTPUT / f"figure{fig_id}.csv").read_text()
    assert (
        render_svg(points, figure_title(fig_id))
        == (DEMO_OUTPUT / f"figure{fig_id}.svg").read_text()
    )


@pytest.mark.parametrize(
    "argv,golden",
    [
        (
            ["table", "--family", "chi", "--n", "2", "--m-max", "7", "--format", "json"],
            "table_chi_n2_m7.json",
        ),
        (["figure", "1", "--format", "json"], "figure1.json"),
    ],
)
def test_cli_json(capsys, argv, golden):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def _digest(family: str, n: int, m: int) -> str:
    # one line "lam_1,...,lam_N:coefficient" per determinant, largest lam first
    digest = hashlib.sha256()
    for lam, coeff in family_expansion(family, n, m).items():
        digest.update(f"{','.join(map(str, lam))}:{coeff}\n".encode())
    return digest.hexdigest()


FAMILY_DIGESTS = json.loads((GOLDEN / "family_digests.json").read_text())


@pytest.mark.parametrize("point", FAMILY_DIGESTS)
def test_family_expansion_digest(point):
    family, n, m = point.split()
    assert _digest(family, int(n), int(m)) == FAMILY_DIGESTS[point]


def _fock_digest(family: str, n: int, m: int) -> str:
    # one line "mu_1,...,mu_N:weight" per configuration in ascending order, then the total
    state = to_fock(family_expansion(family, n, m))
    digest = hashlib.sha256()
    for config, weight in sorted(state.weights.items()):
        digest.update(f"{','.join(map(str, config))}:{weight}\n".encode())
    digest.update(f"total:{state.total}\n".encode())
    return digest.hexdigest()


FOCK_DIGESTS = json.loads((GOLDEN / "fock_digests.json").read_text())


@pytest.mark.parametrize("point", FOCK_DIGESTS)
def test_fock_weight_digest(point):
    family, n, m = point.split()
    assert _fock_digest(family, int(n), int(m)) == FOCK_DIGESTS[point]


PRINTED = {
    "demo01_stdout.txt": ["demos/01_polynomials_and_fock.py"],
    "demo02_stdout.txt": ["demos/02_quasihole_condensation.py"],
    "demo03_stdout.txt": ["demos/03_entanglement_measures.py"],
    "demo05_stdout.txt": ["demos/05_k_matrix_filling.py"],
    "verify_fast_stdout.txt": ["-m", "fqhent.cli", "verify", "fast"],
    "verify_full_stdout.txt": ["-m", "fqhent.cli", "verify", "full"],
}


@pytest.mark.parametrize("golden", PRINTED)
def test_printed_text(golden):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, *PRINTED[golden]], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / golden).read_text()


GRID_BITS = (GOLDEN / "grid_bits.txt").read_text().splitlines()
# 250 of the 891 points, about 1 s: every chi point, and laughlin and
# hierarchical_phi to the m given for each N
GRID_SLICE = {
    "laughlin": {2: 127, 3: 31, 4: 13, 5: 7, 6: 5, 7: 3, 8: 3, 9: 1},
    "hierarchical_phi": {2: 127, 3: 31, 4: 13, 5: 7, 6: 5, 7: 3, 8: 3, 9: 1},
    "chi": GRID["chi"],
}


def test_grid_golden_holds_every_allowed_point():
    expected = [
        (family, n, m)
        for family, largest in GRID.items()
        for n, m_max in largest.items()
        for m in range(1, m_max + 1, 2)
    ]
    assert [(f, int(n), int(m)) for f, n, m, _, _ in map(str.split, GRID_BITS)] == expected


def _slice_lines(family: str, n: int) -> list[str]:
    m_max = GRID_SLICE[family][n]
    return [
        line
        for line in GRID_BITS
        if line.split()[:2] == [family, str(n)] and int(line.split()[2]) <= m_max
    ]


@pytest.mark.parametrize("family", GRID_SLICE)
def test_grid_bits_slice(family):
    for n, m_max in GRID_SLICE[family].items():
        assert grid_lines(family, n, m_max) == _slice_lines(family, n)


@pytest.mark.parametrize("family", GRID_SLICE)
def test_printed_digits_are_within_one_unit_of_exact(family):
    # each printed value against its measure from the exact occupations at
    # 50 digits; tests/certify_digits.py certifies the whole grid
    for n in GRID_SLICE[family]:
        for line in _slice_lines(family, n):
            _, _, m, _, golden = line.split()
            printed = f"{evaluate_point(family, n, int(m)).measure_bits:.12g}"
            exact = exact_measure_bits(family, n, int(m))
            assert units_off(printed, exact) < 1, (line, printed, exact)
            assert printed == golden
