"""Set-up phase of one benchmark command, run in a fresh process.

Imports novlab, then does what the CLI does before its first RK4 step:
load_config, make_grid and transform_with_map (twice for `metric`, which
transforms the datum and its perturbation).  The benchmark times this
process from spawn to exit.

Usage: python3 bench/setup_probe.py CONFIG SUBCOMMAND
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from novlab.cliio import datum_from_config, perturbed_datum  # noqa: E402
from novlab.config import load_config  # noqa: E402
from novlab.grid import make_grid  # noqa: E402
from novlab.initial import transform_with_map  # noqa: E402


def main(config_path: str, subcommand: str) -> None:
    cfg = load_config(config_path)
    grid = make_grid(cfg.xi_min, cfg.xi_max, cfg.n)
    datum = datum_from_config(cfg)
    transform_with_map(datum, grid)
    if subcommand == "metric":
        transform_with_map(perturbed_datum(datum, cfg), grid)


if __name__ == "__main__":
    main(*sys.argv[1:])
