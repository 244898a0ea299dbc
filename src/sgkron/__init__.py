"""Stochastic Galerkin solver toolkit with truncation preconditioners.

Builds Kronecker-structured Galerkin systems for parametric diffusion
problems (affine and lognormal coefficient expansions), preconditions
them with truncation / symmetric block Gauss-Seidel / mean-based /
Kronecker-product strategies, solves with PCG, and verifies the spectral
equivalence bounds that explain the observed iteration counts.
"""

from .fem2d import (
    CoefficientField,
    UniformMesh,
    assemble_load,
    assemble_stiffness,
    auto_alpha_bar,
    build_mesh,
    constant_field,
    fourier_coefficient,
    lognormal_expansion_coeff,
    order_by_magnitude,
    sup_norm,
    tau_r,
)
from .gram import gram_general, gram_identity, gram_linear, split_lower
from .kronsys import (
    AffineContext,
    KroneckerSumOperator,
    LognormalContext,
    assemble_dense,
    build_affine_system,
    build_lognormal_system,
)
from .multiindex import MultiIndexSet, build_even_subset, build_index_set, dimension
from .orthopoly import HERMITE, LEGENDRE, evaluate, hermite_triple, recurrence_c
from .pcg import (
    BreakdownError,
    SolveReport,
    SolverConfig,
    UnavailableError,
    estimate_condition,
    pcg_solve,
)
from .precond import (
    CholeskyFactor,
    NotPositiveDefiniteError,
    build_kron,
    build_sbgs_affine,
    build_sbgs_lognormal,
)
from .spectral import (
    BoundSet,
    InclusionCheck,
    compute_bounds,
    eig_range,
    lognormal_spd_report,
    verify_inclusions,
)

__version__ = "0.1.0"

__all__ = [
    "AffineContext",
    "BoundSet",
    "BreakdownError",
    "CholeskyFactor",
    "CoefficientField",
    "HERMITE",
    "InclusionCheck",
    "KroneckerSumOperator",
    "LEGENDRE",
    "LognormalContext",
    "MultiIndexSet",
    "NotPositiveDefiniteError",
    "SolveReport",
    "SolverConfig",
    "UnavailableError",
    "UniformMesh",
    "assemble_dense",
    "assemble_load",
    "assemble_stiffness",
    "auto_alpha_bar",
    "build_affine_system",
    "build_even_subset",
    "build_index_set",
    "build_kron",
    "build_lognormal_system",
    "build_mesh",
    "build_sbgs_affine",
    "build_sbgs_lognormal",
    "compute_bounds",
    "constant_field",
    "dimension",
    "eig_range",
    "estimate_condition",
    "evaluate",
    "fourier_coefficient",
    "gram_general",
    "gram_identity",
    "gram_linear",
    "hermite_triple",
    "lognormal_expansion_coeff",
    "lognormal_spd_report",
    "order_by_magnitude",
    "pcg_solve",
    "recurrence_c",
    "split_lower",
    "sup_norm",
    "tau_r",
    "verify_inclusions",
]
