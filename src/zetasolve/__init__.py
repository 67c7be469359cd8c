"""Theta/zeta continuation machinery for positive-definite quadratic forms
and lattices, and the linear-system solvers built on its residues.

The short story: the theta series of a Gaussian attached to an SPD form Q
blows up like (det Q)^(-1/2) t^(-n/2) as t -> 0+, so the Mellin transform of
the series has a simple pole whose residue carries (det Q)^(-1/2).  Applied
to the Gram form of a matrix A (and a weighted variant carrying a vector b),
those residues are exactly the classical sphere integrals

    R   = int_{S^(n-1)} |A^T u|^-n du,
    R_i = n int_{S^(n-1)} |A^T u|^(-n-2) <b, u> <A^T u, e_i> du,

whose ratio R_i / R solves A x = b.  This package implements the whole
chain - enumeration, theta series, analytic continuation, residues,
functional equations, sphere quadrature, and the solvers - with every step
cross-validated against an independent route.
"""

from .errors import (
    DegenerateGrid,
    DegenerateQuadrature,
    DimensionMismatch,
    EvaluationFailure,
    NonFiniteIntegrand,
    NonPositiveX,
    NotPositiveDefinite,
    NotSymmetric,
    OutsideConvergence,
    PoleOfGamma,
    SingularMatrix,
    TooCloseToPole,
    TooManyPoints,
    ValidationError,
    ZetaSolveError,
)
from .quadforms import (
    Lattice,
    SPDForm,
    as_symmetric,
    cholesky,
    dual_lattice,
    gram_transform,
    matrix_from_json,
    qeval_many,
    sym_outer,
    trace_product,
    vector_from_json,
    vector_to_json,
)
from .solver import (
    LinearSystem,
    SolveReport,
    cimmino_R_integral,
    numeric_residue_solve,
    solve_direct,
    solve_via_integrals,
    solve_via_residues,
)
from .specfun import (
    gamma_complex,
    reciprocal_gamma,
    upper_incomplete_gamma,
)
from .spherequad import (
    QuadratureSpec,
    SphereIntegralResult,
    sample_directions,
    sphere_integrate,
    sphere_quadrature_blocks,
    sphere_surface_measure,
)
from .theta import (
    EllipsoidPoints,
    enumerate_ellipsoid,
    theta_asymptotic_fit,
    theta_star_gaussian,
    theta_star_weighted,
    theta_transform_residual,
)
from .verify import run_default_suite
from .zeta import (
    FuncEqResidual,
    PoleReport,
    ZetaValue,
    epstein_continued,
    epstein_direct,
    funceq_residual_lattice,
    funceq_residual_vector,
    funceq_residual_weighted,
    lattice_weighted_zeta,
    lattice_zeta,
    residue_epstein,
    residue_numeric,
    residue_vector,
    residue_weighted,
    vector_zeta,
    weighted_continued,
    weighted_direct,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
