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
from .counting import CountReport, count_points
from .errors import ContractViolation, ResourceLimit
from .factorization import compose, factorize, is_reduced
from .lattice import (LatticeCoefficients, count_congruence, count_solutions,
                      lattice_coefficients, slab_volume, solution_main_term,
                      tuple_slab_volume)
from .toric import VarietyCountFp, enumerate_variety

__version__ = "0.1.0"

__all__ = [
    "AssemblyConfig", "ConstantBreakdown", "ContractViolation", "CountReport",
    "EulerProduct", "LatticeCoefficients", "MCEstimate", "QuadratureEstimate",
    "ResourceLimit", "VarietyCountFp", "assemble_constant", "beta_tilde",
    "compose", "count_congruence", "count_points",
    "count_solutions", "enumerate_variety", "euler_product",
    "eulerian_polynomial", "excedance_polynomial", "factorize", "is_reduced",
    "lattice_coefficients", "local_density", "local_factor_from_graph",
    "mu_infinity", "polytope_volume", "slab_volume", "solution_main_term",
    "tuple_slab_volume", "zeta_value",
]
