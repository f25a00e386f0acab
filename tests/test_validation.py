"""The validate property suite on the default config and every shipped one."""
import functools
from pathlib import Path

import numpy as np
import pytest

import novlab.validation
from novlab.config import ScenarioConfig, load_config
from novlab.validation import (_CHECKS, check_norm_axioms,
                               check_transform_identity, run_suite)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = sorted(p.stem for p in CONFIGS.glob("*.cfg"))
NAMES = [name for name, _ in _CHECKS]


@functools.cache
def results(config):
    cfg = (ScenarioConfig() if config is None
           else load_config(str(CONFIGS / f"{config}.cfg")))
    return {r.name: r for r in run_suite(cfg)}


# The default config keeps the bare check name as its id.
@pytest.mark.parametrize("config,name", [
    *(pytest.param(None, name, id=name) for name in NAMES),
    *(pytest.param(cfg, name, id=f"{cfg}-{name}")
      for cfg in SHIPPED for name in NAMES),
])
def test_check_passes(config, name):
    result = results(config)[name]
    assert result.passed, f"{name}: {result.detail}"


def test_transform_identity_fails_away_from_kink(monkeypatch):
    # Only the node on the peakon's kink is skipped: a map y that is
    # wrong elsewhere still fails the check.
    real = novlab.validation.transform_with_map

    def perturbed(datum, grid):
        state = real(datum, grid)
        bump = 1e-2 * np.exp(-((grid.nodes - 5.0) / 0.5) ** 2)
        return state.with_fields(y=state.y + bump)

    cfg = load_config(str(CONFIGS / "peakon.cfg"))
    assert check_transform_identity(cfg, None)[0]
    monkeypatch.setattr(novlab.validation, "transform_with_map", perturbed)
    ok, detail = check_transform_identity(cfg, None)
    assert not ok, detail
    assert "nodes on a kink skipped: 1" in detail


@pytest.mark.parametrize("seed", [3, 17, 28])
def test_norm_axioms_hold_where_reweighting_crawls(seed):
    # On these draws the IRLS passes crawl along a plateau and stop with
    # a single-coefficient move still worth 1e-6 to 1e-5 of the value;
    # the closing coordinate sweep removes it.
    ok, detail = check_norm_axioms(ScenarioConfig(),
                                   np.random.default_rng(seed))
    assert ok, detail

