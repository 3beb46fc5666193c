"""Counting rational points of bounded anticanonical height on the
reciprocal-sum hypersurface family in P^{2n-1}, together with every
factor of the predicted leading constant and the identities tying the
pipelines together.
"""

from .constants import (AssemblyConfig, ConstantBreakdown, EulerProduct,
                        MCEstimate, QuadratureEstimate, assemble_constant,
                        beta_tilde, eulerian_polynomial, euler_product,
                        excedance_polynomial, local_density,
                        local_factor_from_graph, mu_infinity, polytope_volume,
                        zeta_value)
from .counting import (CountReport, PrimitiveSolution, TorsorPoint,
                       coprimality_condition, count_points, torsor_lift,
                       torsor_push)
from .errors import ContractViolation, PrimitivityError, ResourceLimit
from .factorization import compose, factorize, is_reduced
from .lattice import (LatticeCoefficients, count_congruence, count_solutions,
                      lattice_coefficients, slab_volume, solution_main_term,
                      tuple_slab_volume)
from .toric import VarietyCountFp, enumerate_variety

__version__ = "0.1.0"

__all__ = [
    "AssemblyConfig", "ConstantBreakdown", "ContractViolation", "CountReport",
    "EulerProduct", "LatticeCoefficients", "MCEstimate", "PrimitiveSolution",
    "PrimitivityError", "QuadratureEstimate", "ResourceLimit", "TorsorPoint",
    "VarietyCountFp", "assemble_constant", "beta_tilde",
    "compose", "coprimality_condition", "count_congruence", "count_points",
    "count_solutions", "enumerate_variety", "euler_product",
    "eulerian_polynomial", "excedance_polynomial", "factorize", "is_reduced",
    "lattice_coefficients", "local_density", "local_factor_from_graph",
    "mu_infinity", "polytope_volume", "slab_volume", "solution_main_term",
    "torsor_lift", "torsor_push", "tuple_slab_volume", "zeta_value",
]
