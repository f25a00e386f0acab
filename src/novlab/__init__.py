"""Numerical laboratory for global conservative solutions of a coupled
peakon-bearing wave system, posed in characteristic coordinates.

The pipeline: closed-form data on the line are pulled back through the
characteristic relabeling (initial), time-stepped with the nonlocal
source terms (sources, evolution), pushed forward to physical fields
and measures (reconstruct), scanned for angle-level events with local
cancellation checks (breaking), and compared in a shift-invariant
Finsler-type distance (metric).
"""

from .breaking import (CancellationCheck, CancellationReport, SingularPoint,
                       classify, find_crossings, fit_exponent,
                       synthetic_case_state, verify_cancellations)
from .config import ScenarioConfig, load_config, parse_config, quick_override
from .errors import (AnalysisError, ConfigError, ContractError, EvolveAbort,
                     NovlabError, NumericalAbort, QueryError)
from .evolution import (ConservedSet, OmegaBounds, Trajectory, check_omega,
                        conserved, evolve, rhs, rk4_step, y_formula_gap)
from .grid import Grid, fd_derivative, integrate, make_grid, prefix_integral
from .initial import (EulerDatum, TransformedState, builtin_datum,
                      invert_y0, mirrored, pair_datum, transform_with_map)
from .metric import (NormInfo, PathOfStates, RatioRow, distance_upper,
                     lipschitz_experiment, path_length, straight_line_path,
                     shift_value, tangent_norm_info, z_shift)
from .reconstruct import (EulerField, conserved_euler, crest_position,
                          euler_fields, measure_interval, sample_at)
from .sources import (assemble_sources, exp_convolve, exp_convolve_bruteforce,
                      kernel_accumulator, level_distance, slope_factors,
                      xi_derivatives)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
