"""Exact computations with generalized Fermat manifolds.

The package computes, in exact rational (and cyclotomic) arithmetic:
normal forms of hyperplane arrangements, the symmetric-group action on the
parameter space and its orbits and stabilizers, the defining equations and
deck group of the associated branched covers, fixed loci and free actions,
cohomological invariants, and the classical worked constructions (Kummer
surfaces, line restrictions, tangent-conic families).
"""

from .arrangement import (
    Arrangement,
    Hyperplane,
    StandardParameter,
    arrangement_of,
    is_general_position,
    is_standard_parameter,
    normalize,
    random_parameter,
)
from .constructions import (
    Conic,
    conic_curve_parameters,
    is_tangent,
    kummer_parameters,
    restrict_to_line,
    tangent_conic,
)
from .errors import BudgetExceeded, Inconclusive, NotInGeneralPosition, TangencyError
from .exactfield import (
    CyclotomicScalar,
    ExactMatrix,
    Rational,
    all_maximal_minors_nonzero,
    cyclotomic_polynomial,
    projective_normalize,
    solve_linear,
)
from .fermatgroup import (
    EquationSystem,
    GfmType,
    GroupElement,
    acts_freely,
    automorphism_order,
    bound_feasible,
    canonical_generators,
    classify_low_n,
    equations,
    fiber_product_components,
    fixed_locus,
    is_linear_automorphism,
    smoothness_certificate,
    subgroup_acts_freely,
)
from .invariants import (
    canonical_degree,
    classify,
    h0_twist,
    hd_twist,
    hilbert_series_coefficient,
    invariant_report,
    kodaira_dimension,
    leading_coefficient,
    plurigenus,
)
from .modaction import (
    Permutation,
    act,
    act_sigma1,
    act_sigma2,
    are_isomorphic,
    canonical_representative,
    kernel_of_R,
    orbit_and_stabilizer,
    stabilizer,
)

__version__ = "0.1.0"
