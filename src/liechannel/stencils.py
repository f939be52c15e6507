"""Finite-difference stencils on uniform (optionally periodic) sample grids."""

from __future__ import annotations

import numpy as np


def diff1(arr: np.ndarray, h: float, axis: int = 0, periodic: bool = False) -> np.ndarray:
    """Second-order first derivative (central; one-sided at open ends)."""
    arr = np.asarray(arr, dtype=float)
    if periodic:
        return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * h)
    return np.gradient(arr, h, axis=axis, edge_order=2)


def diff2(arr: np.ndarray, h: float, axis: int = 0, periodic: bool = False) -> np.ndarray:
    """Second-order second derivative along one axis."""
    arr = np.asarray(arr, dtype=float)
    if periodic:
        return (np.roll(arr, -1, axis=axis) - 2.0 * arr + np.roll(arr, 1, axis=axis)) / (h * h)
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
        return (
            -np.roll(arr, -2, axis=0)
            + 8.0 * np.roll(arr, -1, axis=0)
            - 8.0 * np.roll(arr, 1, axis=0)
            + np.roll(arr, 2, axis=0)
        ) / (12.0 * h)
    out = np.gradient(arr, h, axis=0, edge_order=2)
    if arr.shape[0] >= 5:
        out[2:-2] = (-arr[4:] + 8.0 * arr[3:-1] - 8.0 * arr[1:-3] + arr[:-4]) / (12.0 * h)
    return out


def diff2_5pt(arr: np.ndarray, h: float, periodic: bool = False) -> np.ndarray:
    """Fourth-order second derivative along axis 0 (order 2 at open ends)."""
    arr = np.asarray(arr, dtype=float)
    if periodic:
        return (
            -np.roll(arr, -2, axis=0)
            + 16.0 * np.roll(arr, -1, axis=0)
            - 30.0 * arr
            + 16.0 * np.roll(arr, 1, axis=0)
            - np.roll(arr, 2, axis=0)
        ) / (12.0 * h * h)
    out = diff2(arr, h, axis=0, periodic=False)
    if arr.shape[0] >= 5:
        out[2:-2] = (
            -arr[4:] + 16.0 * arr[3:-1] - 30.0 * arr[2:-2] + 16.0 * arr[1:-3] - arr[:-4]
        ) / (12.0 * h * h)
    return out

