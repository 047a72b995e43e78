"""Two-wave soliton boundary-value problem toolkit.

Closed-form and series profiles of the coupled fundamental/second
harmonic system, Picard and Green-kernel fixed-point solvers with
boundary matching, and existence/uniqueness certificates.
"""

from .model import (
    Bounds,
    Domain,
    FieldPair,
    Grid,
    SystemParams,
    eval_f1,
    eval_f2,
    residual,
    sup_norms,
)
from .closed_form import (
    ExactSolutionParams,
    SeriesParams,
    bright_series,
    dark_series,
    exact_alpha1,
    exact_alpha1_derivatives,
    sample_closed_form,
)
from .fixedpoint import (
    IterConfig,
    MatchingConstants,
    PicardState,
    endpoint_residual,
    first_iterate,
    green_kernel_iterate,
    initial_state,
    match_constants_order1,
    picard_step,
    solve_picard,
)
from .analysis import (
    Certificate,
    ConvergenceBound,
    LipschitzConstants,
    certify,
    convergence_bound,
    energy_identity_residual,
    existence_interval_bound,
    green_function,
    lipschitz,
    norm_ordering,
    sobolev_h1_norm,
    uniqueness_constant,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
