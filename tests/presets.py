"""Analytic sample surfaces for the tests, and the tests' memory probe.

Each builder returns (points, normals, u_values, theta_values, periodic_u,
periodic_theta) with points/normals of shape (n_u, n_theta, 3) and unit
normals.  Grids avoid parametrisation degeneracies (poles, umbilic points of
the ellipsoid).
"""

from __future__ import annotations

import tracemalloc

import numpy as np


def traced_peak(fn):
    """(fn(), peak bytes traced by tracemalloc during the call)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _open_range(lo: float, hi: float, n: int) -> np.ndarray:
    return np.linspace(lo, hi, n)


def _periodic_range(n: int) -> np.ndarray:
    return np.arange(n) * (2.0 * np.pi / n)


def cylinder_surface(n_u: int = 64, n_theta: int = 64, u_min: float = -1.0,
                     u_max: float = 1.0, radius: float = 1.0):
    """Circular cylinder about the z-axis, outward normals."""
    u = _open_range(u_min, u_max, n_u)
    th = _periodic_range(n_theta)
    uu, tt = np.meshgrid(u, th, indexing="ij")
    points = np.stack(
        [radius * np.cos(tt), radius * np.sin(tt), uu], axis=-1)
    normals = np.stack([np.cos(tt), np.sin(tt), np.zeros_like(tt)], axis=-1)
    return points, normals, u, th, False, True


def torus_surface(n_u: int = 64, n_theta: int = 64, ring_radius: float = 2.0,
                  tube_radius: float = 1.0):
    """Torus of revolution about the z-axis; u runs along the ring."""
    u = _periodic_range(n_u)
    th = _periodic_range(n_theta)
    uu, tt = np.meshgrid(u, th, indexing="ij")
    rad = ring_radius + tube_radius * np.cos(tt)
    points = np.stack([rad * np.cos(uu), rad * np.sin(uu),
                       tube_radius * np.sin(tt)], axis=-1)
    normals = np.stack([np.cos(tt) * np.cos(uu), np.cos(tt) * np.sin(uu),
                        np.sin(tt)], axis=-1)
    return points, normals, u, th, True, True


def sphere_surface(n_u: int = 32, n_theta: int = 48, radius: float = 1.5):
    """Polar band of a round sphere (every point umbilic)."""
    u = _open_range(0.5, np.pi - 0.5, n_u)
    th = _periodic_range(n_theta)
    uu, tt = np.meshgrid(u, th, indexing="ij")
    normals = np.stack([np.sin(uu) * np.cos(tt), np.sin(uu) * np.sin(tt),
                        np.cos(uu)], axis=-1)
    return radius * normals, normals, u, th, False, True


def ellipsoid_surface(n_u: int = 48, n_theta: int = 48,
                      semi_axes=(1.4, 1.0, 0.7)):
    """Patch of a generic triaxial ellipsoid away from its umbilic points.

    The umbilics sit in the plane y = 0, so the azimuth stays inside
    (0.35, pi - 0.35).
    """
    a, b, c = semi_axes
    u = _open_range(0.6, np.pi - 0.6, n_u)          # polar angle
    th = _open_range(0.35, np.pi - 0.35, n_theta)   # azimuth, one side
    uu, tt = np.meshgrid(u, th, indexing="ij")
    points = np.stack([a * np.sin(uu) * np.cos(tt),
                       b * np.sin(uu) * np.sin(tt),
                       c * np.cos(uu)], axis=-1)
    normals = points / np.array([a * a, b * b, c * c])
    normals = normals / np.linalg.norm(normals, axis=-1, keepdims=True)
    return points, normals, u, th, False, False


def helix_tube_surface(n_u: int = 64, n_theta: int = 64, ring_radius: float = 2.0,
                       pitch: float = 0.5, tube_radius: float = 0.6,
                       turns: float = 1.5):
    """Tube of constant radius around a circular helix (Frenet framing)."""
    u = _open_range(0.0, 2.0 * np.pi * turns, n_u)
    th = _periodic_range(n_theta)
    uu, tt = np.meshgrid(u, th, indexing="ij")
    speed = np.hypot(ring_radius, pitch)
    center = np.stack([ring_radius * np.cos(uu), ring_radius * np.sin(uu),
                       pitch * uu], axis=-1)
    normal_fr = np.stack([-np.cos(uu), -np.sin(uu), np.zeros_like(uu)], axis=-1)
    binormal = np.stack([pitch * np.sin(uu), -pitch * np.cos(uu),
                         ring_radius * np.ones_like(uu)], axis=-1) / speed
    radial = np.cos(tt)[..., None] * normal_fr + np.sin(tt)[..., None] * binormal
    return center + tube_radius * radial, radial, u, th, False, True
