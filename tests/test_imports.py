"""What `import novlab`, the set-up path and each command load, checked in
a fresh interpreter so that no other test's imports count.  numpy is the
package's one dependency: no path loads scipy, which only the tests'
LP oracle uses."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import novlab.cli

REPO = Path(__file__).resolve().parents[1]

# The package namespace as it was when `import novlab` loaded every layer.
PUBLIC_NAMES = (
    "AnalysisError CancellationCheck CancellationReport ConfigError "
    "ConservedSet ContractError EulerDatum EulerField EvolveAbort Grid "
    "NormInfo NovlabError NumericalAbort OmegaBounds PathOfStates QueryError "
    "RatioRow ScenarioConfig SingularPoint Trajectory TransformedState "
    "assemble_sources breaking builtin_datum check_omega classify config "
    "conserved conserved_euler crest_position distance_upper errors "
    "euler_fields evolution evolve exp_convolve exp_convolve_bruteforce "
    "fd_derivative find_crossings fit_exponent grid initial integrate "
    "invert_y0 kernel_accumulator level_distance lipschitz_experiment "
    "load_config make_grid measure_interval metric mirrored pair_datum "
    "parse_config path_length prefix_integral quick_override reconstruct rhs "
    "rk4_step sample_at shift_value slope_factors sources straight_line_path "
    "synthetic_case_state tangent_norm_info transform_with_map "
    "verify_cancellations xi_derivatives y_formula_gap z_shift").split()

UNUSED_BY_SETUP = ("novlab.breaking", "novlab.evolution", "novlab.metric",
                   "novlab.reconstruct", "novlab.sources", "novlab.validation",
                   "numpy.ma", "numpy.polynomial")

PROBE = """
import json, sys
import novlab.cliio, novlab.config, novlab.grid, novlab.initial
cfg = novlab.config.load_config(sys.argv[1])
grid = novlab.grid.make_grid(cfg.xi_min, cfg.xi_max, cfg.n)
novlab.initial.transform_with_map(novlab.cliio.datum_from_config(cfg), grid)
loaded = sorted(sys.modules)
names = sys.argv[2:]
missing = [name for name in names if not hasattr(novlab, name)]
print(json.dumps({"loaded": loaded, "missing": missing,
                  "unlisted": sorted(set(names) - set(dir(novlab))),
                  "all": novlab.__all__}))
"""


def fresh_run(code: str, *args: str) -> dict:
    """The JSON that `code` prints, run by a fresh interpreter on src."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    return json.loads(out.splitlines()[-1])


def test_setup_path_loads_only_the_layers_it_runs():
    seen = fresh_run(PROBE, str(REPO / "configs" / "steep_front.cfg"),
                     *PUBLIC_NAMES)
    assert sorted(set(UNUSED_BY_SETUP) & set(seen["loaded"])) == []
    # Loading any scipy module loads the package first.
    assert "scipy" not in seen["loaded"]
    # Every name of the eager namespace still resolves and is listed.
    assert seen["missing"] == []
    assert seen["unlisted"] == []
    assert seen["all"] == sorted(PUBLIC_NAMES)


COMMAND_PROBE = """
import json, sys
import novlab.cli
layers = lambda: sorted(name for name in sys.modules
                        if name.startswith("novlab."))
on_import = layers()
code = novlab.cli.main([sys.argv[1], "--quick", "--config", sys.argv[2],
                        "--out", sys.argv[3]])
print(json.dumps({"code": code, "on_import": on_import, "after": layers(),
                  "loaded": sorted(sys.modules)}))
"""

DEFERRED = {"novlab.breaking", "novlab.metric", "novlab.reconstruct",
            "novlab.validation"}


@pytest.mark.parametrize("command, cfg, runs", [
    ("evolve", "two_bump", {"novlab.reconstruct"}),
    ("singular", "steep_front", {"novlab.breaking", "novlab.reconstruct"}),
    ("metric", "lipschitz", {"novlab.metric"}),
    ("validate", "two_bump", {"novlab.metric", "novlab.reconstruct",
                              "novlab.validation"}),
])
def test_each_command_loads_only_the_layers_it_runs(tmp_path, command, cfg,
                                                    runs):
    seen = fresh_run(COMMAND_PROBE, command,
                     str(REPO / "configs" / f"{cfg}.cfg"), str(tmp_path))
    assert seen["code"] == 0
    assert DEFERRED & set(seen["on_import"]) == set()
    assert DEFERRED & set(seen["after"]) == runs
    assert "scipy" not in seen["loaded"]


def test_cli_attributes_resolve_to_their_layer_functions():
    # Callers (tests, tracers) read and rebind these as cli attributes.
    for name, module in novlab.cli._DEFERRED.items():
        fn = getattr(novlab.cli, name)
        assert fn is getattr(sys.modules[f"novlab.{module}"], name)
    with pytest.raises(AttributeError, match="export_points_jsonl"):
        novlab.cli.export_points_jsonl
