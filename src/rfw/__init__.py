"""Frank-Wolfe on Riemannian manifolds over strongly convex feasible
sets, with numerical certifiers for the strong-convexity notions the
method's linear rates rest on."""

from .errors import (BracketError, ConfigError, ContractError, DomainError,
                     NoIntersectionError, NumericsError, RfwError)
from .manifolds import (CurvatureInfo, Euclidean, Hyperboloid, Manifold,
                        Spd, Sphere, make_manifold)
from .scalars import bisect_root, minimize_1d
from .balls import (GeodesicBall, LmoResult, alpha_phi_sphere,
                    boundary_section_grid, lmo_brute_force,
                    random_boundary_best)
from .convexity import (ConvexSet, ConvexityCertificate,
                        SmoothStronglyConvexFn, ball_set,
                        ball_strong_convexity_alpha,
                        check_gconvexity_of_function,
                        check_smoothness_gradient_bound, delta, double_exp,
                        estimate_alpha, exp_map_operator, levelset_alpha,
                        min_gradient_norm, residual,
                        riemannian_strong_convexity_radius, run_checker,
                        strong_convexity_radius, zeta)
from .objectives import QuadraticOnEmbedded, SquaredDistanceObjective
from .solver import (ContractionReport, RfwProblem, RfwTrace, StepRule,
                     contraction_check, fw_vertex, load_trace_csv, rfw_run,
                     short_step)

__version__ = "0.1.0"
