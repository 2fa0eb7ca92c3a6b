"""Exact Fock-basis construction and single-particle entanglement measures
for fractional quantum Hall model wavefunctions.

The pipeline is: build a model wavefunction's polynomial part exactly in
the basis of monomial determinants (poly, states), normalize it into a Fock
vector over lowest-Landau-level orbitals (lll), and take the entropy of its
one-body density matrix (measure).  Hierarchical families are produced from
two-quasihole condensate integrals (quasihole, states); figures and the CLI
sit on top (figures, cli, verify).  The two-fermion diagnostics that
cross-check the measure live in measure too.  Every name is imported
eagerly, and importing fqhent does not load numpy: only a non-diagonal
density matrix, slater_pairing's rotated branch and fqhent.entangle do.
"""

from .figures import (
    FigureSpec,
    evaluate_point,
    figure_points,
    figure_spec,
    figure_title,
    render_svg,
    rows_to_csv,
    sweep,
)
from .lll import (
    Amplitude,
    FockVector,
    ZeroStateError,
    amplitude_pattern,
    slater_coefficient_magnitudes,
    to_fock,
)
from .measure import (
    DimensionNotFourError,
    NotTwoFermionError,
    OneBodyDensityMatrix,
    closed_form_sf_laughlin2,
    modified_measure,
    one_body_density,
    schliemann_eta,
    slater_pairing,
    two_qubit_consistency,
    von_neumann,
)
from .poly import (
    MultiPoly,
    NotAntisymmetricError,
    SlaterExpansion,
    elementary_symmetric,
    slater_project,
    vandermonde_power,
)
from .quasihole import (
    CondensateKernel,
    ScaledPoly,
    condense,
    gaussian_moment,
    vanishes,
)
from .states import (
    KMatrix,
    ZeroWavefunctionError,
    chi,
    chi_k,
    family_expansion,
    family_polynomial,
    filling_fraction,
    hierarchical_phi,
    hierarchical_phi_k,
    laughlin,
)

__version__ = "0.1.0"

__all__ = [
    "Amplitude",
    "CondensateKernel",
    "DimensionNotFourError",
    "FigureSpec",
    "FockVector",
    "KMatrix",
    "MultiPoly",
    "NotAntisymmetricError",
    "NotTwoFermionError",
    "OneBodyDensityMatrix",
    "ScaledPoly",
    "SlaterExpansion",
    "ZeroStateError",
    "ZeroWavefunctionError",
    "amplitude_pattern",
    "chi",
    "chi_k",
    "closed_form_sf_laughlin2",
    "condense",
    "elementary_symmetric",
    "evaluate_point",
    "family_expansion",
    "family_polynomial",
    "figure_points",
    "figure_spec",
    "figure_title",
    "filling_fraction",
    "gaussian_moment",
    "hierarchical_phi",
    "hierarchical_phi_k",
    "laughlin",
    "modified_measure",
    "one_body_density",
    "render_svg",
    "rows_to_csv",
    "schliemann_eta",
    "slater_coefficient_magnitudes",
    "slater_pairing",
    "slater_project",
    "sweep",
    "to_fock",
    "two_qubit_consistency",
    "vandermonde_power",
    "vanishes",
    "von_neumann",
]
