"""Periodic stencils against their np.roll formulas, open ones against np.gradient."""

import numpy as np
import pytest

from liechannel import stencils


def roll(arr, shift, axis=0):
    """arr[i + shift] along axis, wrapping."""
    return np.roll(arr, -shift, axis=axis)


ROLL_FORMULAS = {
    "diff1": lambda f, h, ax: (
        roll(f, 1, ax) - roll(f, -1, ax)) / (2.0 * h),
    "diff2": lambda f, h, ax: (
        roll(f, 1, ax) - 2.0 * f + roll(f, -1, ax)) / (h * h),
    "diff1_5pt": lambda f, h, ax: (
        -roll(f, 2) + 8.0 * roll(f, 1) - 8.0 * roll(f, -1) + roll(f, -2)
    ) / (12.0 * h),
    "diff2_5pt": lambda f, h, ax: (
        -roll(f, 2) + 16.0 * roll(f, 1) - 30.0 * f + 16.0 * roll(f, -1)
        - roll(f, -2)
    ) / (12.0 * h * h),
}


@pytest.mark.parametrize("name", sorted(ROLL_FORMULAS))
@pytest.mark.parametrize("shape", [(160, 160, 6), (1024, 8, 6), (5, 3), (3, 4),
                                   (1, 2)])
def test_periodic_stencils_equal_the_roll_formulas(name, shape):
    # magnitudes over many decades, so that a change of operation order
    # would show in the last bits
    rng = np.random.default_rng(21)
    field = rng.normal(size=shape) * np.exp(rng.normal(scale=20.0, size=shape))
    h = 2.0 * np.pi / 160
    axes = (0, 1, -1) if name in ("diff1", "diff2") else (0,)
    for f in (field, field[::-1]):             # contiguous and strided
        for axis in axes:
            kwargs = {"axis": axis} if len(axes) > 1 else {}
            got = getattr(stencils, name)(f, h, periodic=True, **kwargs)
            assert np.array_equal(got, ROLL_FORMULAS[name](f, h, axis))


def wide_field(shape, seed=22):
    """Normal samples scaled over many decades, so that a change of
    operation order would show in the last bits."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) * np.exp(rng.normal(scale=20.0, size=shape))


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("trailing", [(6,), (6, 6)])
def test_open_diff1_equals_np_gradient(n, trailing):
    h = 2.0 / 159
    for axis in (0, 1):
        shape = ((n, 5) if axis == 0 else (5, n)) + trailing
        field = wide_field(shape)
        for f in (field, field[::-1]):         # contiguous and strided
            want = np.gradient(f, h, axis=axis, edge_order=2)
            assert np.array_equal(stencils.diff1(f, h, axis=axis), want)


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("trailing", [(6,), (6, 6)])
def test_open_diff1_5pt_ends_equal_np_gradient(n, trailing):
    h = 2.0 / 159
    field = wide_field((n, 5) + trailing)
    got = stencils.diff1_5pt(field, h)
    want = np.gradient(field, h, axis=0, edge_order=2)
    if n < 5:
        assert np.array_equal(got, want)
        return
    ends = [0, 1, -2, -1]
    assert np.array_equal(got[ends], want[ends])
    interior = (-field[4:] + 8.0 * field[3:-1] - 8.0 * field[1:-3]
                + field[:-4]) / (12.0 * h)
    assert np.array_equal(got[2:-2], interior)
