"""Harris distribution and Harris processes.

A numpy/scipy library for the discrete Harris law on {1, 1+k, 1+2k, ...}
and the two stochastic constructions that produce it: a pure-birth process
with linear state-dependent rates, and a gamma-mixed Poisson process.
Every closed form is cross-checkable against independent numerical routes
(Monte Carlo simulation, truncated forward-equation integration, adaptive
quadrature of the mixture integral) through the validation harness.
"""

from .distribution import (HarrisParams, decap_geometric_pmf, harris_mean_var,
                           harris_pgf, harris_pmf, log_binom, nb_pmf, pmf_table)
from .birth import (ProcessParams, Trajectory, TrajectoryBatch, TransientSolution,
                    empirical_distribution, incentive_pmf, process_moments,
                    simulate_many, solve_forward_odes)
from .errors import ConvergenceError, ResourceLimitError
from .mixture import (MixtureParams, mixture_moments, mixture_pmf,
                      mixture_pmf_quadrature, sample_model2)
from .sampling import (RngStream, sample_exponential, sample_gamma,
                       sample_harris, sample_nb, sample_poisson)
from .validation import (GofResult, MeanCheck, Scenario, ValidationReport,
                         VarCheck, chi_square_gof, chi_square_quantile,
                         make_report, moment_check)

__version__ = "0.1.0"
