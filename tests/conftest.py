"""Shared builders for the test suite.

Random states and tangents come from novlab.validation, which draws
them inside the validity region so that property tests exercise the
contracts, not the guards.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from novlab import builtin_datum, make_grid, pair_datum
from novlab.initial import TransformedState, transform_with_map
from novlab.validation import random_state

settings.register_profile(
    "numerics",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numerics")


def flat_state(grid, q: float = 1.0) -> TransformedState:
    """U = V = W = Z = 0 and a constant q, on the map y = xi."""
    z = np.zeros(grid.n)
    return TransformedState(0.0, grid,
                            np.stack((z, z, z, z, np.full(grid.n, q),
                                      grid.nodes)))


def same_bits(a, b):
    # array_equal treats -0.0 == 0.0; the uint64 views do not.
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64),
        np.ascontiguousarray(b).view(np.uint64))


def traced_peak(fn, *args):
    """The tracemalloc peak of fn(*args), less what was traced at its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def wide_random_state(n, seed=0):
    # The kernel potential spans about 80 units: one scan block at the
    # shipped span, 16 or more at a span of 5.
    return random_state(np.random.default_rng(seed), make_grid(-40.0, 40.0, n))


def two_bump_pair():
    u = builtin_datum("gaussian_bump", {"a": 0.25, "center": -1.0, "width": 1.4})
    v = builtin_datum("gaussian_bump", {"a": 0.2, "center": 1.0, "width": 1.6})
    return pair_datum(u, v)


@pytest.fixture(scope="session")
def smooth_grid():
    return make_grid(-16.0, 16.0, 1024)


@pytest.fixture(scope="session")
def smooth_pair_state(smooth_grid):
    return transform_with_map(two_bump_pair(), smooth_grid)
