"""Harris distribution and Harris processes.

A numpy/scipy library for the discrete Harris law on {1, 1+k, 1+2k, ...}
and the two stochastic constructions that produce it: a pure-birth process
with linear state-dependent rates, and a gamma-mixed Poisson process.
Every closed form is cross-checkable against independent numerical routes
(Monte Carlo simulation, truncated forward-equation integration, adaptive
quadrature of the mixture integral) through the validation harness.
"""

from .distribution import (HarrisParams, decap_geometric_pmf, harris_mean_var,
                           harris_pgf, harris_pmf, nb_pmf, pmf_table)
from .birth import (ProcessParams, Trajectory, TrajectoryBatch, TransientSolution,
                    count_events, empirical_distribution, process_moments,
                    simulate_many, solve_forward_odes)
from .errors import ConvergenceError, ResourceLimitError
from .mixture import (MixtureParams, mixture_moments, mixture_pmf,
                      mixture_pmf_quadrature, sample_model2)
from .sampling import RngStream, sample_harris
from .validation import (GofResult, MeanCheck, Scenario, ValidationReport,
                         VarCheck, chi_square_gof, chi_square_quantile,
                         moment_check)

__version__ = "0.1.0"
