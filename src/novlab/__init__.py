"""Numerical laboratory for global conservative solutions of a coupled
peakon-bearing wave system, posed in characteristic coordinates.

The pipeline: closed-form data on the line are pulled back through the
characteristic relabeling (initial), time-stepped with the nonlocal
source terms (sources, evolution), pushed forward to physical fields
and measures (reconstruct), scanned for angle-level events with local
cancellation checks (breaking), and compared in a shift-invariant
Finsler-type distance (metric).

`import novlab` loads no submodule and not numpy.  Each name in
`__all__`, a layer's public name or the layer itself, is imported from
its submodule on first access (PEP 562), so a caller that imports
`novlab.config` loads only the layers config needs, and `novlab.metric`
or `novlab.breaking` load when a name of theirs is first read.
`novlab.cli` defers the same way: each command imports only the layers
it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "breaking": ("CancellationCheck", "CancellationReport", "SingularPoint",
                 "classify", "find_crossings", "fit_exponent",
                 "synthetic_case_state", "verify_cancellations"),
    "config": ("ScenarioConfig", "load_config", "parse_config",
               "quick_override"),
    "errors": ("AnalysisError", "ConfigError", "ContractError", "EvolveAbort",
               "NovlabError", "NumericalAbort", "QueryError"),
    "evolution": ("ConservedSet", "OmegaBounds", "Trajectory", "check_omega",
                  "conserved", "evolve", "rhs", "rk4_step", "y_formula_gap"),
    "grid": ("Grid", "fd_derivative", "integrate", "make_grid",
             "prefix_integral"),
    "initial": ("EulerDatum", "TransformedState", "builtin_datum",
                "invert_y0", "mirrored", "pair_datum", "transform_with_map"),
    "metric": ("NormInfo", "PathOfStates", "RatioRow", "distance_upper",
               "lipschitz_experiment", "path_length", "straight_line_path",
               "shift_value", "tangent_norm_info", "z_shift"),
    "reconstruct": ("EulerField", "conserved_euler", "crest_position",
                    "euler_fields", "measure_interval", "sample_at"),
    "sources": ("assemble_sources", "exp_convolve", "exp_convolve_bruteforce",
                "kernel_accumulator", "level_distance", "slope_factors",
                "xi_derivatives"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
