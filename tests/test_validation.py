"""The validate property suite, every check at full size."""
import pytest

from novlab.config import ScenarioConfig
from novlab.validation import _CHECKS, run_suite


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in run_suite(ScenarioConfig(), quick=False)}


@pytest.mark.parametrize("name", [name for name, _ in _CHECKS])
def test_check_passes(results, name):
    result = results[name]
    assert result.passed, f"{name}: {result.detail}"
