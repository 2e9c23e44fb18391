"""Verification laboratory for curvature invariants of Cartan-Hartogs domains.

Truncated-jet automatic differentiation of closed-form Kahler potentials,
checked against exact curvature identities and an exact-rational catalog case
analysis whose outcome is that only the complex hyperbolic space (unit-ball
base, mu = 1) has constant second expansion coefficient a2.
"""

__version__ = "1.0.0"

from .jets import BidegreeCap, Jet, basis_exponents, jet_log, jet_real_power
from .domains import (DomainSpec, contains, generic_norm_jet,
                      generic_norm_value, matrix_model, sample_interior,
                      type1, type2, type3, type4)
from .geometry import (CurvatureReport, HartogsPoint, HartogsSpec, MetricData,
                       base_curvature_report, bergman_potential_jet,
                       curvature_report, curvature_reports,
                       curvature_report_from_potential, curvature_tensor,
                       hartogs_potential_jet, metric_at,
                       ricci_and_scalar, sample_hartogs, scalar_curvature_at,
                       scalar_curvatures, tensor_norms)
from .oracles import (OracleInputs, R2_formula, a2_quadratic_coeffs,
                      appendix_R2_base, lap_k_formula, ric2_formula,
                      scalar_curvature_formula)
from .cases import (CaseVerdict, classify_all, constancy_constraints,
                    exceptional_integrality, integer_root_scan)

__all__ = [name for name in dir() if not name.startswith("_")]
