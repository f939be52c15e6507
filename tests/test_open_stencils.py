"""Open second-derivative stencils against their written formulas, the
u-edges every flow check walks, and the grid's own difference."""

import numpy as np
import pytest

from liechannel import stencils
from liechannel.legendre import LegendreGrid


def wide_field(shape, seed=23):
    """Normal samples scaled over many decades, so that a change of
    operation order would show in the last bits."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) * np.exp(rng.normal(scale=20.0, size=shape))


def diff2_formula(f, h):
    """Open diff2 along axis 0 as written: central inside, one-sided
    second order at both ends."""
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / (h * h)
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / (h * h)
    return out


@pytest.mark.parametrize("n", range(4, 10))
@pytest.mark.parametrize("trailing", [(6,), (6, 6)])
def test_open_diff2_equals_its_formula(n, trailing):
    h = 2.0 / 159
    for axis in (0, 1):
        shape = ((n, 5) if axis == 0 else (5, n)) + trailing
        field = wide_field(shape)
        for f in (field, field[::-1]):         # contiguous and strided
            want = np.moveaxis(diff2_formula(np.moveaxis(f, axis, 0), h),
                               0, axis)
            assert np.array_equal(stencils.diff2(f, h, axis=axis), want)


@pytest.mark.parametrize("n", range(4, 12))
@pytest.mark.parametrize("trailing", [(6,), (6, 6)])
def test_open_diff2_5pt_equals_its_formula(n, trailing):
    h = 2.0 / 159
    field = wide_field((n, 5) + trailing)
    for f in (field, field[::-1]):
        got = stencils.diff2_5pt(f, h)
        want = diff2_formula(f, h)             # ends and the rows next to them
        if n >= 5:
            want[2:-2] = (-f[4:] + 16.0 * f[3:-1] - 30.0 * f[2:-2]
                          + 16.0 * f[1:-3] - f[:-4]) / (12.0 * h * h)
        assert np.array_equal(got, want)


def test_edge_pairs_wrap_only_on_a_periodic_axis():
    left, right = stencils.edge_pairs(5, periodic=False)
    assert left.tolist() == [0, 1, 2, 3] and right.tolist() == [1, 2, 3, 4]
    left, right = stencils.edge_pairs(5, periodic=True)
    assert left.tolist() == [0, 1, 2, 3, 4]
    assert right.tolist() == [1, 2, 3, 4, 0]


@pytest.mark.parametrize("periodic_u", [False, True])
def test_grid_diff_uses_each_axis_spacing_and_periodicity(periodic_u):
    sigma = wide_field((9, 7, 6), seed=24)
    u, theta = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 3.0, 7)
    grid = LegendreGrid(sigma, sigma, u, theta, periodic_u=periodic_u,
                        periodic_theta=not periodic_u)
    field = wide_field((9, 7, 2), seed=25)
    for axis, h, periodic in ((0, u[1] - u[0], periodic_u),
                              (1, theta[1] - theta[0], not periodic_u)):
        assert np.array_equal(grid.diff(field, axis), stencils.diff1(
            field, h, axis=axis, periodic=periodic))
        assert np.array_equal(grid.diff(field, axis, order=2), stencils.diff2(
            field, h, axis=axis, periodic=periodic))
