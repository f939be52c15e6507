"""Finite-difference stencils on uniform (optionally periodic) sample grids.

A stencil is a table (terms, denominator), sum(c * x[i + s] for c, s in terms) / denominator,
and on an open axis end rows {row: table}; one routine, _apply, evaluates every table.
"""

from __future__ import annotations

import numpy as np


def _accumulate(dst, at, terms):
    """dst = sum(c * at(s) for c, s in terms), summed in place from the left, a later
    negative c subtracting |c| * at(s): the written expression's operation order, and
    so its values."""
    np.multiply(at(terms[0][1]), terms[0][0], out=dst)
    for c, s in terms[1:]:
        term = at(s) if abs(c) == 1 else abs(c) * at(s)
        (np.subtract if c < 0 else np.add)(dst, term, out=dst)
    return dst


def _flat_sum(a, axis, terms):
    """sum(c * a[i + s] for c, s in terms) along an axis of a contiguous array.

    On the flat array a shift along the axis is a fixed offset, which is right away from
    its ends; the samples within reach of either end are left for the caller to fill.
    """
    reach = max(abs(s) for _, s in terms)
    out, step = np.empty_like(a), a[(0,) * (axis + 1)].size
    lo, hi = reach * step, max(reach * step, a.size - reach * step)
    _accumulate(out.reshape(-1)[lo:hi], lambda s: a.ravel()[lo + s * step:hi + s * step],
                terms)
    return out


def _apply(arr, axis, interior, ends):
    """A stencil table along an axis: the interior (terms, denom) wherever it reaches,
    and each end row {row: (terms, denom)} of an open axis from its own terms.  ends None
    makes the axis periodic: the samples near the ends take the interior sum over a
    window wrapped round them."""
    arr = np.ascontiguousarray(arr, dtype=float)
    axis %= arr.ndim
    (terms, denom), lead = interior, (slice(None),) * axis
    n, reach = arr.shape[axis], max(abs(s) for _, s in terms)
    out = _flat_sum(arr, axis, terms)
    if ends is None:
        ring = np.arange(-2 * reach, 2 * reach)
        seam = _flat_sum(arr.take(ring % n, axis), axis, terms)
        out[lead + (ring[reach:-reach] % n,)] = seam[lead + (slice(reach, -reach),)]
        return np.divide(out, denom, out=out)
    inner = lead + (slice(reach, n - reach),)
    np.divide(out[inner], denom, out=out[inner])
    # index with length-1 slices, so that every row is a view, on a 1-D axis too
    row_at = lambda i: lead + (slice(i, i + 1 or None),)
    for row, (row_terms, row_denom) in ends.items():
        dst = _accumulate(out[row_at(row)], lambda s: arr[row_at(row + s)], row_terms)
        np.divide(dst, row_denom, out=dst)
    return out


def _tables(h):
    """(interior, open end rows) of each stencil at spacing h.

    The first derivatives end in np.gradient's one-sided rows (edge_order=2), in its
    operation order, the second derivatives in one-sided second differences, and the
    five-point stencils take the three-point central rows next to the ends.
    """
    d1 = ((1, 1), (-1, -1)), 2.0 * h
    d2 = ((1, 1), (-2.0, 0), (1, -1)), h * h
    d1_ends = {0: (((-1.5 / h, 0), (2.0 / h, 1), (-0.5 / h, 2)), 1.0),
               -1: (((0.5 / h, -2), (-2.0 / h, -1), (1.5 / h, 0)), 1.0)}
    d2_ends = {0: (((2.0, 0), (-5.0, 1), (4.0, 2), (-1, 3)), h * h),
               -1: (((2.0, 0), (-5.0, -1), (4.0, -2), (-1, -3)), h * h)}
    return {"diff1": (d1, d1_ends), "diff2": (d2, d2_ends),
            "diff1_5pt": ((((-1, 2), (8.0, 1), (-8.0, -1), (1, -2)), 12.0 * h),
                          {**d1_ends, 1: d1, -2: d1}),
            "diff2_5pt": ((((-1, 2), (16.0, 1), (-30.0, 0), (16.0, -1), (-1, -2)),
                           12.0 * h * h), {**d2_ends, 1: d2, -2: d2})}


def _stencil(name, arr, h, axis, periodic):
    interior, ends = _tables(h)[name]
    return _apply(arr, axis, interior, None if periodic else ends)


def diff1(arr: np.ndarray, h: float, axis: int = 0, periodic: bool = False) -> np.ndarray:
    """Second-order first derivative (central; one-sided at open ends).

    The values are np.gradient(arr, h, axis=axis, edge_order=2)'s, bit for bit.
    """
    return _stencil("diff1", arr, h, axis, periodic)


def diff2(arr: np.ndarray, h: float, axis: int = 0, periodic: bool = False) -> np.ndarray:
    """Second-order second derivative along one axis (one-sided at open ends)."""
    return _stencil("diff2", arr, h, axis, periodic)


def diff1_5pt(arr: np.ndarray, h: float, periodic: bool = False) -> np.ndarray:
    """Fourth-order first derivative along axis 0 (order 2 at open ends)."""
    if not periodic and np.shape(arr)[0] < 5:
        return diff1(arr, h)
    return _stencil("diff1_5pt", arr, h, 0, periodic)


def diff2_5pt(arr: np.ndarray, h: float, periodic: bool = False) -> np.ndarray:
    """Fourth-order second derivative along axis 0 (order 2 at open ends)."""
    if not periodic and np.shape(arr)[0] < 5:
        return diff2(arr, h)
    return _stencil("diff2_5pt", arr, h, 0, periodic)


def edge_pairs(n: int, periodic: bool):
    """(left, right) sample indices of the edges i -> i + 1 along an axis of n samples;
    a periodic axis adds the edge n - 1 -> 0."""
    left = np.arange(n if periodic else n - 1)
    return left, (left + 1) % n
