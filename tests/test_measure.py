"""The numpy-free measure module and the package names around it."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fqhent
from fqhent import FockVector, entangle, measure

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
