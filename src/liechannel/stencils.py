"""Finite-difference stencils on uniform (optionally periodic) sample grids."""

from __future__ import annotations

import numpy as np


def _periodic(arr, axis, terms, denom):
    """sum(c * arr[i + s] for c, s in terms) / denom along an axis, with i + s wrapping.

    The terms are summed in place from the left, a later negative c subtracting |c| * arr[i + s]:
    the operation order of the written expression, and so its values.  On the flat array a
    shift along the axis is a fixed offset, which is right away from its ends; the samples
    near the ends come from the same sum over a window wrapped round them.
    """
    arr = np.ascontiguousarray(arr, dtype=float)
    axis %= arr.ndim
    n, reach = arr.shape[axis], max(abs(s) for _, s in terms)

    def flat_sum(a):
        out, step = np.empty_like(a), a[(0,) * (axis + 1)].size
        lo, hi = reach * step, max(reach * step, a.size - reach * step)
        dst, at = out.reshape(-1)[lo:hi], lambda s: a.ravel()[lo + s * step:hi + s * step]
        np.multiply(at(terms[0][1]), terms[0][0], out=dst)
        for c, s in terms[1:]:
            term = at(s) if abs(c) == 1 else abs(c) * at(s)
            (np.subtract if c < 0 else np.add)(dst, term, out=dst)
        return out

    out, ring, lead = flat_sum(arr), np.arange(-2 * reach, 2 * reach), (slice(None),) * axis
    seam = flat_sum(arr.take(ring % n, axis))
    out[lead + (ring[reach:-reach] % n,)] = seam[lead + (slice(reach, -reach),)]
    return np.divide(out, denom, out=out)


def diff1(arr: np.ndarray, h: float, axis: int = 0, periodic: bool = False) -> np.ndarray:
    """Second-order first derivative (central; one-sided at open ends)."""
    arr = np.asarray(arr, dtype=float)
    if periodic:
        return _periodic(arr, axis, ((1, 1), (-1, -1)), 2.0 * h)
    return np.gradient(arr, h, axis=axis, edge_order=2)


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
    out = np.gradient(arr, h, axis=0, edge_order=2)
    if arr.shape[0] >= 5:
        out[2:-2] = (-arr[4:] + 8.0 * arr[3:-1] - 8.0 * arr[1:-3] + arr[:-4]) / (12.0 * h)
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

