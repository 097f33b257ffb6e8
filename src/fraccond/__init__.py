"""fraccond: fractional conductivity equation toolkit on 1-D truncated lattices.

Discretizes the fractional Laplacian and the nonlocal conductivity operator,
solves exterior-value Dirichlet problems, assembles Dirichlet-to-Neumann
maps, verifies the conductivity-to-Schroedinger reduction exactly at matrix
level, reconstructs the conductivity from DN data, relates the operator to
a long-jump random walk, and checks the s -> 1 limits.
"""

__version__ = "0.1.0"

from .core import FracParams, Grid, cns, gamma_fn
from .operators import (
    Conductivity,
    PairField,
    assemble_conductivity,
    assemble_laplacian,
    assemble_schrodinger,
    bilinear_form,
    frac_divergence_adjoint,
    frac_gradient,
)
from .forward import (
    DnMatrix,
    ReductionCheck,
    SolverError,
    assemble_dn,
    dn_gap,
    liouville_reduce,
    solve_dirichlet,
    verify_reduction,
)
from .inverse import (
    InversionConfig,
    InversionReport,
    ReconstructionError,
    reconstruct_gamma,
    recover_m_from_q,
    recover_potential_full,
    single_measurement_fit,
)
from .walk import Ensemble, WalkParams, generator_residual, master_step, simulate
from .limits import (
    LimitStudy,
    bilinear_limit_study,
    grad_limit_study,
    grad_norm_sq,
    gradient_distributional_decay,
    operator_limit_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
