"""Two-fermion diagnostics and the measure they check, re-exported from measure.

Importing this module loads numpy, on purpose: its importer pays for numpy
at import, not inside a first non-diagonal contraction or rotated pairing.
The package, verify and the CLI import measure, which loads numpy only when
a state reaches one of those branches.
"""

import numpy  # noqa: F401  (loaded at import, as documented above)

from .measure import (  # re-exported, one definition each
    DimensionNotFourError,
    EntanglementReport,
    Entry,
    NotTwoFermionError,
    OneBodyDensityMatrix,
    SlaterPairing,
    closed_form_sf_laughlin2,
    modified_measure,
    one_body_density,
    schliemann_eta,
    slater_pairing,
    two_qubit_consistency,
    von_neumann,
)
