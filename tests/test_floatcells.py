"""The vectorized float formatter against repr(float(x)), cell by cell."""
import math

import numpy as np
import pytest

from novlab._floatcells import WIDTH, cell_matrix, float_cells


def cell_texts(cells) -> list[str]:
    """Each row of a cell matrix with its NULs dropped."""
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in cells]


def mismatches(x, negated=True) -> list:
    """(value, repr, cell) for every cell of x (and of -x if negated) not
    equal to repr; the comparison runs on one joined string, then per
    cell."""
    x = np.asarray(x, float)
    if negated:
        x = np.concatenate([x, -x])
    cells = float_cells(x)
    assert cells.shape == (x.size, WIDTH) and cells.dtype == np.uint8
    lines = np.zeros((x.size, WIDTH + 1), np.uint8)
    lines[:, :WIDTH] = cells
    lines[:, WIDTH] = ord("\n")
    lines = lines.reshape(-1)
    got = lines[lines != 0].tobytes().decode("ascii")
    expected = "\n".join(map(repr, x.tolist())) + "\n"
    if got == expected:
        return []
    return [(v, repr(v), c) for v, c in zip(x.tolist(), cell_texts(cells))
            if repr(v) != c]


def with_neighbours(x):
    """x and the floats one ulp above and below each value."""
    x = np.asarray(x, float)
    return np.concatenate([x, np.nextafter(x, np.inf),
                           np.nextafter(x, -np.inf)])


# Where repr switches between positional and scientific form.
SWITCH_POINTS = [1e-4, 1e-5, 9.999999999999999e-05, 1e15, 1e16,
                 9999999999999998.0]


def test_powers_of_two_and_their_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert mismatches(with_neighbours(powers)) == []


def test_powers_of_ten_and_their_neighbours():
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    assert mismatches(with_neighbours(powers)) == []


def test_switch_points_short_decimals_and_whole_numbers():
    k = np.arange(-2000, 2001, dtype=float)
    x = np.concatenate([with_neighbours(SWITCH_POINTS),
                        2.0 ** 53 + k, 2.0 ** 52 + k / 2,
                        [0.1, 0.5, 1.0, 123.0, 0.3, 2.5, 1e22, 1e23],
                        np.arange(-100_000, 100_000, dtype=float),
                        np.arange(1, 10_000) * 1e15])
    assert mismatches(x) == []


def test_zeros_non_finite_and_range_ends():
    x = [0.0, -0.0, math.nan, math.inf, 5e-324, 1e-323,
         2.2250738585072014e-308, 2.225073858507201e-308,
         1.7976931348623157e308]
    assert mismatches(x) == []
    assert cell_texts(float_cells([-0.0, math.nan, -math.inf])) == [
        "-0.0", "nan", "-inf"]


def test_a_million_random_bit_patterns():
    rng = np.random.default_rng(20240517)
    bits = rng.integers(0, 2 ** 64, 1_000_000, dtype=np.uint64)
    assert mismatches(bits.view(np.float64), negated=False) == []


@pytest.mark.parametrize("draw", [
    lambda rng: rng.standard_normal(200_000),
    lambda rng: 1e-13 * rng.standard_normal(200_000),
    lambda rng: np.exp(rng.uniform(-700, 700, 200_000)),
], ids=["normal", "normal_1e-13", "exp_uniform_700"])
def test_random_draws(draw):
    assert mismatches(draw(np.random.default_rng(7))) == []


def test_any_shape_and_length():
    # Lengths around the formatter's chunk and gather edges; the cells
    # follow x in C order.
    rng = np.random.default_rng(3)
    for n in (0, 1, 1023, 1024, 1025, 8191, 8192, 8193, 20000):
        x = rng.standard_normal(n)
        assert cell_texts(float_cells(x)) == [repr(v) for v in x.tolist()]
    x = rng.standard_normal((3, 5))
    assert cell_texts(float_cells(x)) == [repr(v) for v in x.ravel().tolist()]


def test_cell_matrix_of_flags_ints_and_text():
    assert cell_texts(cell_matrix(np.array([True, False]))) == ["1", "0"]
    ints = cell_matrix(np.array([0, -7, 200]))
    assert cell_texts(ints) == ["0", "-7", "200"]
    assert cell_texts(cell_matrix(np.array(["eta_zero", "coarse_descent"]))) \
        == ["eta_zero", "coarse_descent"]
    assert cell_matrix(np.array([], bool)).shape[0] == 0
