"""Point-sphere extraction and triangle-mesh export.

Every contact element contains exactly one point sphere (possibly the point
at infinity); evaluating it over a grid turns frame data back into an
ordinary surface mesh, written out as Wavefront OBJ.  Grids and Dupin
cyclides become meshes through one builder, which drops the points at
infinity, and the line-sphere fits of legendre read the same pencils.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .core import circle_points

#: relative size below which a pencil weight or a point sphere's
#: (e4 + e5) component counts as zero
POINT_SPHERE_TOL = 1e-10


def _pencil_point_spheres(sigma: np.ndarray, tau: np.ndarray):
    """(vectors, finite, pure) of the radius-zero pencil members, batched.

    vectors (..., 6) are unnormalised: the combination kills the radius
    coordinate, so the weights are just the swapped last components.
    finite marks members that are not the point at infinity; pure marks
    pencils made entirely of point spheres (both weights below
    POINT_SPHERE_TOL).
    """
    sigma = np.asarray(sigma, dtype=float)
    tau = np.asarray(tau, dtype=float)
    a = -tau[..., 5:6]
    b = sigma[..., 5:6]
    vec = a * sigma + b * tau
    denom = vec[..., 3] + vec[..., 4]
    norm = np.linalg.norm(vec, axis=-1)
    finite = np.abs(denom) > POINT_SPHERE_TOL * np.maximum(norm, 1e-300)
    pure = ((np.abs(a[..., 0]) < POINT_SPHERE_TOL)
            & (np.abs(b[..., 0]) < POINT_SPHERE_TOL))
    return vec, finite, pure


def grid_point_spheres(sigma: np.ndarray, tau: np.ndarray):
    """Batched point-sphere positions for a grid of contact elements.

    Returns (positions, finite) where positions has shape (..., 3) and
    finite marks elements whose point sphere is not the point at infinity
    (positions at masked-out samples are zero-filled).
    """
    vec, finite, _ = _pencil_point_spheres(sigma, tau)
    safe = np.where(finite, vec[..., 3] + vec[..., 4], 1.0)
    positions = vec[..., :3] / safe[..., None]
    positions = np.where(finite[..., None], positions, 0.0)
    return positions, finite


@dataclass
class MeshOutput:
    """Triangle mesh."""

    vertices: np.ndarray                    # (n, 3)
    faces: np.ndarray                       # (m, 3) int, zero-based

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.faces = np.asarray(self.faces, dtype=int)


def triangulate_grid(shape, periodic_u: bool = False,
                     periodic_theta: bool = False) -> np.ndarray:
    """Row-major triangulation of a (nu, nt) grid of vertices.

    Each quad (i, j), (i+1, j), (i+1, j+1), (i, j+1) is split along the
    (i, j) -- (i+1, j+1) diagonal.  Periodic axes wrap their last strip.
    """
    nu, nt = shape
    idx = np.arange(nu * nt).reshape(nu, nt)
    i_count = nu if periodic_u else nu - 1
    j_count = nt if periodic_theta else nt - 1
    if i_count < 1 or j_count < 1:
        return np.zeros((0, 3), dtype=int)
    ii, jj = np.meshgrid(np.arange(i_count), np.arange(j_count), indexing="ij")
    i2 = (ii + 1) % nu
    j2 = (jj + 1) % nt
    v00 = idx[ii, jj]
    v10 = idx[i2, jj]
    v11 = idx[i2, j2]
    v01 = idx[ii, j2]
    tri1 = np.stack([v00, v10, v11], axis=-1).reshape(-1, 3)
    tri2 = np.stack([v00, v11, v01], axis=-1).reshape(-1, 3)
    faces = np.empty((tri1.shape[0] * 2, 3), dtype=int)
    faces[0::2] = tri1
    faces[1::2] = tri2
    return faces


def _grid_mesh(positions: np.ndarray, finite: np.ndarray, periodic_u: bool,
               periodic_theta: bool) -> MeshOutput:
    """Triangle mesh of a (nu, nt) grid of positions (nu, nt, 3): the
    vertices that are not finite are dropped, with every face touching
    them, and the rest renumbered."""
    faces = triangulate_grid(finite.shape, periodic_u, periodic_theta)
    vertices, keep = positions.reshape(-1, 3), finite.reshape(-1)
    if keep.all():
        return MeshOutput(vertices, faces)
    kept = np.flatnonzero(keep)
    remap = -np.ones(keep.size, dtype=int)
    remap[kept] = np.arange(kept.size)
    return MeshOutput(vertices[kept], remap[faces[keep[faces].all(axis=1)]])


def mesh_from_grid(grid) -> MeshOutput:
    """Point-sphere mesh of anything with sigma/tau/periodic flags, with
    the points at infinity removed."""
    return _grid_mesh(*grid_point_spheres(grid.sigma, grid.tau),
                      grid.periodic_u, grid.periodic_theta)


#: rows per write in export_obj: whole-mesh strings would cost memory
_WRITE_ROWS = 1024


def _blocks(rows: np.ndarray):
    for start in range(0, rows.shape[0], _WRITE_ROWS):
        yield rows[start:start + _WRITE_ROWS]


def export_obj(mesh: MeshOutput, path) -> str:
    """Write a Wavefront OBJ file.

    Returns the OBJ path.  Floats are written with full repr precision so a
    reload reproduces the vertices bit for bit.  Rows go out in blocks of
    _WRITE_ROWS, so memory stays bounded for large meshes; each distinct
    coordinate of a block is formatted once, told apart by its bits (0.0 and
    -0.0 repr differently).
    """
    path = os.fspath(path)
    with open(path, "w") as fh:
        for block in _blocks(mesh.vertices):
            block = np.ascontiguousarray(block)
            bits, inv = np.unique(block.view(np.int64), return_inverse=True)
            labels = np.array([*map(repr, bits.view(float).tolist())], object)
            fh.write(("v %s %s %s\n" * len(block))
                     % tuple(labels[inv.ravel()]))
        for block in _blocks(mesh.faces):
            fh.write(("f %d %d %d\n" * block.shape[0])
                     % tuple((block + 1).ravel().tolist()))
    return path


def cyclide_point_grid(cyclide, n_a: int = 64, n_b: int = 64):
    """Sample a Dupin cyclide (transforms.DupinCyclide) from its frames.

    The two one-parameter sphere families are the lightcone circles of its
    sphere space and of that space's complement; each pair of members (one
    from each family) is in oriented contact, and their common point
    sphere sweeps out the surface.  Returns (positions (n_a, n_b, 3),
    finite) as grid_point_spheres does.
    """
    angles_a = np.linspace(0.0, 2.0 * np.pi, n_a, endpoint=False)
    angles_b = np.linspace(0.0, 2.0 * np.pi, n_b, endpoint=False)
    spheres_a = circle_points(cyclide.frames[0], angles_a)
    spheres_b = circle_points(cyclide.frames[1], angles_b)
    sig = np.broadcast_to(spheres_a[:, None, :], (n_a, n_b, 6))
    tau = np.broadcast_to(spheres_b[None, :, :], (n_a, n_b, 6))
    return grid_point_spheres(sig, tau)


def cyclide_mesh(cyclide, n_a: int = 64, n_b: int = 64) -> MeshOutput:
    """Triangle mesh of a Dupin cyclide (transforms.DupinCyclide)."""
    return _grid_mesh(*cyclide_point_grid(cyclide, n_a, n_b), True, True)
