"""The numpy-free measure module and the package names around it."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import fqhent
import oracles
from fqhent import FockVector, ZeroWavefunctionError, entangle, figures, laughlin, measure
from fqhent.states import FAMILIES

PACKAGE_ROOT = Path(fqhent.__file__).resolve().parent.parent

MOVED = [
    "Entry",
    "OneBodyDensityMatrix",
    "one_body_density",
    "von_neumann",
    "EntanglementReport",
    "modified_measure",
]

# N = 2, dim = 4, not homogeneous: (0, 1) and (0, 2) share the hole (0,),
# and so do (1, 3) and (2, 3), so rho has off-diagonal entries
NONDIAGONAL_WEIGHTS = {(0, 1): 1, (0, 2): 2, (1, 3): -3, (2, 3): 5}


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from fqhent import *", namespace)
    for name in fqhent.__all__:
        assert namespace[name] is getattr(fqhent, name)


@pytest.mark.parametrize("name", MOVED)
def test_moved_names_have_one_definition(name):
    assert getattr(entangle, name) is getattr(measure, name)
    if name in fqhent.__all__:
        assert getattr(fqhent, name) is getattr(measure, name)


def test_lazy_names_are_entangles():
    for name in fqhent._ENTANGLE_NAMES:
        assert getattr(fqhent, name) is getattr(entangle, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fqhent.no_such_name


def test_nondiagonal_branch_imports_numpy_lazily():
    probe = (
        "import sys\n"
        "from fqhent.lll import FockVector\n"
        "from fqhent.measure import one_body_density, von_neumann\n"
        f"rho = one_body_density(FockVector(2, 4, {NONDIAGONAL_WEIGHTS!r}))\n"
        "before = 'numpy' in sys.modules\n"
        "print(repr((before, float(von_neumann(rho)), rho.as_numpy().tolist(),\n"
        "            'fqhent.entangle' in sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
    )
    before, entropy, matrix, entangle_loaded = ast.literal_eval(result.stdout)
    rho = entangle.one_body_density(FockVector(2, 4, NONDIAGONAL_WEIGHTS))
    assert not rho.is_diagonal()
    assert (before, entangle_loaded) == (False, False)
    assert entropy == entangle.von_neumann(rho)
    assert matrix == rho.as_numpy().tolist()


def test_von_neumann_returns_a_float_on_both_branches():
    diagonal = measure.one_body_density(laughlin(2, 3))
    nondiagonal = measure.one_body_density(FockVector(2, 4, NONDIAGONAL_WEIGHTS))
    assert diagonal.is_diagonal() and not nondiagonal.is_diagonal()
    for rho in (diagonal, nondiagonal):
        assert type(measure.von_neumann(rho)) is float
    report = measure.modified_measure(FockVector(2, 4, NONDIAGONAL_WEIGHTS))
    assert {type(report.entropy_nats), type(report.measure_bits)} == {float}


def _printed_points():
    """(family, N, m) of the five figure presets, then laughlin(3, 255)."""
    for fig_id in figures.PRESETS:
        spec = figures.figure_spec(fig_id)
        for family, n in spec.series:
            for t in spec.t_values:
                yield family, n, 2 * t + 1
    yield "laughlin", 3, 255


def test_printed_digits_match_a_decimal_oracle():
    # the one float step, sum p ln p - ln N over exact diagonals, cancels
    # against ln N; a relative error of 1e-12 is still below the rounding
    # of the 12th printed digit, and the measured worst was 4.5e-14
    results = []
    for point in dict.fromkeys(_printed_points()):
        try:
            state = FAMILIES[point[0]](*point[1:])
        except ZeroWavefunctionError:
            continue
        bits = measure.modified_measure(state).measure_bits
        exact = oracles.measure_bits_decimal(state)
        error = abs(Decimal(float(bits)) - exact) / (exact or 1)
        expected = f"{float(format(exact, '.11e')):.12g}"
        results.append((f"{bits:.12g}" != expected, error, point, f"{bits:.12g}", expected))
    assert len(results) == 34  # the nonzero points
    differs, error, point, printed, expected = max(results)
    assert not differs and error <= Decimal("1e-12"), (
        f"worst point {point}: printed {printed}, oracle {expected}, relative error {error:.2e}"
    )
