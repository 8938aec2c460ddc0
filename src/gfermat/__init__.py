"""Exact computations with generalized Fermat manifolds.

The package computes, in exact rational (and cyclotomic) arithmetic:
normal forms of hyperplane arrangements, the symmetric-group action on the
parameter space and its orbits and stabilizers, the defining equations and
deck group of the associated branched covers, fixed loci and free actions,
cohomological invariants, and the classical worked constructions (Kummer
surfaces, line restrictions, tangent-conic families).

The public names below are resolved on first access (PEP 562), so a caller
pays only for the submodules it uses.
"""

import importlib

_EXPORTS = {
    "arrangement": "Arrangement Hyperplane StandardParameter is_general_position "
                   "is_standard_parameter normalize",
    "constructions": "Conic conic_curve_parameters kummer_parameters restrict_to_line "
                     "tangent_conic",
    "errors": "BudgetExceeded NotInGeneralPosition TangencyError",
    "exactfield": "CyclotomicScalar ExactMatrix cyclotomic_polynomial",
    "fermatgroup": "EquationSystem GroupElement automorphism_order bound_feasible "
                   "classify_low_n equations fixed_locus is_linear_automorphism "
                   "smoothness_certificate subgroup_acts_freely",
    "invariants": "GfmType canonical_degree classify h0_twist hilbert_series_coefficient "
                  "invariant_report kodaira_dimension plurigenus",
    "modaction": "Permutation act act_sigma1 act_sigma2 are_isomorphic "
                 "canonical_representative kernel_of_R orbit_and_stabilizer stabilizer",
    "rational": "projective_normalize",
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
