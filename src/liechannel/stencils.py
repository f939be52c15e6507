"""Finite-difference stencils on uniform (optionally periodic) sample grids."""

from __future__ import annotations

import numpy as np


def _flat_sum(a, axis, terms):
    """sum(c * a[i + s] for c, s in terms) along an axis of a contiguous array.

    The terms are summed in place from the left, a later negative c subtracting |c| * a[i + s]:
    the operation order of the written expression, and so its values.  On the flat array a
    shift along the axis is a fixed offset, which is right away from its ends; the samples
    within reach of either end are left for the caller to fill.
    """
    reach = max(abs(s) for _, s in terms)
    out, step = np.empty_like(a), a[(0,) * (axis + 1)].size
    lo, hi = reach * step, max(reach * step, a.size - reach * step)
    dst, at = out.reshape(-1)[lo:hi], lambda s: a.ravel()[lo + s * step:hi + s * step]
    np.multiply(at(terms[0][1]), terms[0][0], out=dst)
    for c, s in terms[1:]:
        term = at(s) if abs(c) == 1 else abs(c) * at(s)
        (np.subtract if c < 0 else np.add)(dst, term, out=dst)
    return out


def _periodic(arr, axis, terms, denom):
    """sum(c * arr[i + s] for c, s in terms) / denom along an axis, with i + s wrapping.

    _flat_sum's values; the samples near the ends come from the same sum over a window
    wrapped round them.
    """
    arr = np.ascontiguousarray(arr, dtype=float)
    axis %= arr.ndim
    n, reach = arr.shape[axis], max(abs(s) for _, s in terms)
    ring, lead = np.arange(-2 * reach, 2 * reach), (slice(None),) * axis
    out = _flat_sum(arr, axis, terms)
    seam = _flat_sum(arr.take(ring % n, axis), axis, terms)
    out[lead + (ring[reach:-reach] % n,)] = seam[lead + (slice(reach, -reach),)]
    return np.divide(out, denom, out=out)


def _open(arr, axis, terms, denom, h):
    """_flat_sum's values over denom along an open axis, with np.gradient's second-order
    one-sided ends (edge_order=2): its coefficients in its operation order, so its values.
    The rows 1 to reach - 1 from either end are left for the caller to fill."""
    arr = np.ascontiguousarray(arr, dtype=float)
    axis %= arr.ndim
    reach, lead = max(abs(s) for _, s in terms), (slice(None),) * axis
    out, inner = _flat_sum(arr, axis, terms), lead + (slice(reach, arr.shape[axis] - reach),)
    np.divide(out[inner], denom, out=out[inner])
    f = lambda i: arr[lead + (i,)]
    out[lead + (0,)] = (-1.5 / h) * f(0) + (2.0 / h) * f(1) + (-0.5 / h) * f(2)
    out[lead + (-1,)] = (0.5 / h) * f(-3) + (-2.0 / h) * f(-2) + (1.5 / h) * f(-1)
    return out


def diff1(arr: np.ndarray, h: float, axis: int = 0, periodic: bool = False) -> np.ndarray:
    """Second-order first derivative (central; one-sided at open ends).

    The values are np.gradient(arr, h, axis=axis, edge_order=2)'s, bit for bit.
    """
    arr = np.asarray(arr, dtype=float)
    if periodic:
        return _periodic(arr, axis, ((1, 1), (-1, -1)), 2.0 * h)
    return _open(arr, axis, ((1, 1), (-1, -1)), 2.0 * h, h)


def diff2(arr: np.ndarray, h: float, axis: int = 0, periodic: bool = False) -> np.ndarray:
    """Second-order second derivative along one axis."""
    arr = np.asarray(arr, dtype=float)
    if periodic:
        return _periodic(arr, axis, ((1, 1), (-2.0, 0), (1, -1)), h * h)
    out = np.empty_like(arr)
    sl = [slice(None)] * arr.ndim

    def at(idx):
        s = sl.copy()
        s[axis] = idx
        return tuple(s)

    out[at(slice(1, -1))] = (
        arr[at(slice(2, None))] - 2.0 * arr[at(slice(1, -1))] + arr[at(slice(0, -2))]
    ) / (h * h)
    # one-sided second-order ends
    out[at(0)] = (
        2.0 * arr[at(0)] - 5.0 * arr[at(1)] + 4.0 * arr[at(2)] - arr[at(3)]
    ) / (h * h)
    out[at(-1)] = (
        2.0 * arr[at(-1)] - 5.0 * arr[at(-2)] + 4.0 * arr[at(-3)] - arr[at(-4)]
    ) / (h * h)
    return out


def diff1_5pt(arr: np.ndarray, h: float, periodic: bool = False) -> np.ndarray:
    """Fourth-order first derivative along axis 0 (order 2 at open ends)."""
    arr = np.asarray(arr, dtype=float)
    if periodic:
        return _periodic(arr, 0, ((-1, 2), (8.0, 1), (-8.0, -1), (1, -2)), 12.0 * h)
    if arr.shape[0] < 5:
        return diff1(arr, h)
    out = _open(arr, 0, ((-1, 2), (8.0, 1), (-8.0, -1), (1, -2)), 12.0 * h, h)
    # the rows next to the ends take diff1's central difference
    out[1] = (arr[2] - arr[0]) / (2.0 * h)
    out[-2] = (arr[-1] - arr[-3]) / (2.0 * h)
    return out


def diff2_5pt(arr: np.ndarray, h: float, periodic: bool = False) -> np.ndarray:
    """Fourth-order second derivative along axis 0 (order 2 at open ends)."""
    arr = np.asarray(arr, dtype=float)
    if periodic:
        terms = ((-1, 2), (16.0, 1), (-30.0, 0), (16.0, -1), (-1, -2))
        return _periodic(arr, 0, terms, 12.0 * h * h)
    out = diff2(arr, h, axis=0, periodic=False)
    if arr.shape[0] >= 5:
        out[2:-2] = (
            -arr[4:] + 16.0 * arr[3:-1] - 30.0 * arr[2:-2] + 16.0 * arr[1:-3] - arr[:-4]
        ) / (12.0 * h * h)
    return out

