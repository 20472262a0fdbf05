"""Numerical self-decomposability diagnostics for weak variance generalised
gamma convolution Levy processes: diamond-product matrix algebra, the scaled
Bessel kernel, polar Levy densities, Thorin-measure moment functionals and the
decision ladder that ties them together."""

from .bessel import bessel_derivative_check, bessel_tail, kappa_bessel
from .density import (DensityCurve, char_exponent, density_curve, h_density,
                      h_derivative, h_derivative_at_zero, monotonicity_scan,
                      vg_levy_density, write_density_csv)
from .engine import (Budget, ClassificationReport, SubclassTag,
                     build_sd_counterexample, classify, equivalent_conditions,
                     identify_subclass)
from .geometry import InfimumEstimate, QuantityContext, usp_infimum, v_plus_member
from .linalg import (CovMatrix, diamond_mat, diamond_vec, oppenheim_ratio,
                     sigma_sym, theta_matrix, upsilon_matrix, delta_matrix,
                     xi_det, xi_extrema)
from .measures import (Atom, Curve, Ray, ThorinMeasure, WvggParams,
                       alpha_gamma_measure, beta2_measure, circle_measure,
                       measure_from_json, measure_to_json, moment_strong,
                       params_from_json, params_to_json, ray_half_moment,
                       register_ray_density, sdcex_measure, validate)

__version__ = "0.1.0"
