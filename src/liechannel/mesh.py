"""Point-sphere extraction and triangle-mesh export.

Every contact element contains exactly one point sphere (possibly the point
at infinity); evaluating it over a grid turns frame data back into an
ordinary surface mesh, written out as Wavefront OBJ.  Grids and Dupin
cyclides become meshes through one builder, which drops the points at
infinity, and the line-sphere fits of legendre read the same pencils.
The builders hold their output plus one slab of _SLAB_ROWS leading rows:
point spheres are read slab by slab into preallocated arrays, the faces
are written corner by corner into one preallocated array, and where
points at infinity are dropped, the kept vertices and faces move to the
front of those arrays slab by slab.
The OBJ text is assembled as numpy bytes, block by block: vertex lines
from one repr per distinct coordinate, face lines from an ASCII table of
the vertex labels.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .core import circle_points

#: relative size below which a pencil weight or a point sphere's
#: (e4 + e5) component counts as zero
POINT_SPHERE_TOL = 1e-10


#: leading rows per slab: the point-sphere reader and the compaction of
#: a mesh that drops points hold one slab of (rows, nt, ...) temporaries
#: at a time, cache-sized instead of grid-sized
_SLAB_ROWS = 16


def _pencil_point_spheres(sigma: np.ndarray, tau: np.ndarray):
    """(vectors, denom, finite, pure) of the radius-zero pencil members,
    batched.

    vectors (..., 6) are unnormalised: the combination kills the radius
    coordinate, so the weights are just the swapped last components.
    denom is their (e4 + e5) component, the divisor of the position;
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
    return vec, denom, finite, pure


def grid_point_spheres(sigma: np.ndarray, tau: np.ndarray):
    """Batched point-sphere positions for a grid of contact elements.

    Returns (positions, finite) where positions has shape (..., 3) and
    finite marks elements whose point sphere is not the point at infinity
    (positions at masked-out samples are zero-filled).  sigma and tau
    (n, ..., 6) may be broadcast views; they are read _SLAB_ROWS leading
    rows at a time into the preallocated outputs, so the call holds its
    output plus one slab.  Each element is computed on its own, so the
    slab height moves no bit.
    """
    sigma = np.asarray(sigma, dtype=float)
    tau = np.asarray(tau, dtype=float)
    shape = np.broadcast_shapes(sigma.shape, tau.shape)
    sigma, tau = np.broadcast_to(sigma, shape), np.broadcast_to(tau, shape)
    positions = np.zeros(shape[:-1] + (3,))
    finite = np.empty(shape[:-1], dtype=bool)
    for start in range(0, len(finite), _SLAB_ROWS):
        rows = slice(start, start + _SLAB_ROWS)
        vec, denom, finite[rows], _ = _pencil_point_spheres(sigma[rows],
                                                            tau[rows])
        np.divide(vec[..., :3], denom[..., None], out=positions[rows],
                  where=finite[rows, ..., None])
    return positions, finite


@dataclass
class MeshOutput:
    """Triangle mesh.  Raises ValueError unless the vertices are (n, 3)
    and the faces (m, 3) integer triples in [0, n), naming the first face
    that is not: an OBJ index is 1-based, and a negative one is relative."""

    vertices: np.ndarray                    # (n, 3)
    faces: np.ndarray                       # (m, 3) int, zero-based

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        faces = np.asarray(self.faces)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("mesh vertices must be an (n, 3) array, got "
                             f"shape {self.vertices.shape}")
        if (faces.ndim != 2 or faces.shape[1] != 3
                or not np.issubdtype(faces.dtype, np.integer)):
            raise ValueError("mesh faces must be an (m, 3) integer array, "
                             f"got shape {faces.shape} of {faces.dtype}")
        n = self.vertices.shape[0]
        if faces.size and (faces.min() < 0 or faces.max() >= n):
            bad = ((faces < 0) | (faces >= n)).any(axis=1).argmax()
            raise ValueError(f"mesh face {bad} {faces[bad].tolist()} "
                             f"indexes outside the {n} vertices")
        self.faces = faces.astype(int, copy=False)


def triangulate_grid(shape, periodic_u: bool = False,
                     periodic_theta: bool = False) -> np.ndarray:
    """Row-major triangulation of a (nu, nt) grid of vertices.

    Each quad (i, j), (i+1, j), (i+1, j+1), (i, j+1) is split along the
    (i, j) -- (i+1, j+1) diagonal, into the faces [(i, j), (i+1, j),
    (i+1, j+1)] and [(i, j), (i+1, j+1), (i, j+1)] in that order.
    Periodic axes wrap their last strip.  The corners are written one at
    a time into one preallocated (quads along u, quads along theta, 2, 3)
    array as row offset plus column index, so the call holds only its
    output.
    """
    nu, nt = shape
    i_count = nu if periodic_u else nu - 1
    j_count = nt if periodic_theta else nt - 1
    if i_count < 1 or j_count < 1:
        return np.zeros((0, 3), dtype=int)
    rows = np.arange(i_count)
    row0, row1 = (rows * nt)[:, None], ((rows + 1) % nu * nt)[:, None]
    col0 = np.arange(j_count)
    col1 = (col0 + 1) % nt
    faces = np.empty((i_count, j_count, 2, 3), dtype=int)
    corners = faces.reshape(i_count, j_count, 6)
    for k, (row, col) in enumerate([(row0, col0), (row1, col0), (row1, col1),
                                    (row0, col0), (row1, col1), (row0, col1)]):
        np.add(row, col, out=corners[..., k])
    return faces.reshape(-1, 3)


def _grid_mesh(positions: np.ndarray, finite: np.ndarray, periodic_u: bool,
               periodic_theta: bool) -> MeshOutput:
    """Triangle mesh of a (nu, nt) grid of positions (nu, nt, 3): the
    vertices that are not finite are dropped, with every face touching
    them, and the rest renumbered.

    Where vertices are dropped, the kept ones move to the front of
    positions, which the mesh then views, and the kept faces, renumbered,
    to the front of the face array: slab by slab, each slab's rows read
    before any row after it is written.  So the call holds its output,
    the renumbering table and one slab.
    """
    faces = triangulate_grid(finite.shape, periodic_u, periodic_theta)
    vertices, keep = positions.reshape(-1, 3), finite.reshape(-1)
    if keep.all():
        return MeshOutput(vertices, faces)
    # the new index of every kept vertex
    remap = np.cumsum(keep)
    remap -= 1
    step = _SLAB_ROWS * finite.shape[1]
    count = 0
    for start in range(0, keep.size, step):
        block = vertices[start:start + step][keep[start:start + step]]
        vertices[count:count + len(block)] = block
        count += len(block)
    count_faces = 0
    for start in range(0, len(faces), 2 * step):
        block = faces[start:start + 2 * step]
        block = block[keep[block].all(axis=1)]
        np.take(remap, block, out=block)
        faces[count_faces:count_faces + len(block)] = block
        count_faces += len(block)
    return MeshOutput(vertices[:count], faces[:count_faces])


def mesh_from_grid(grid) -> MeshOutput:
    """Point-sphere mesh of anything with sigma/tau/periodic flags, with
    the points at infinity removed."""
    return _grid_mesh(*grid_point_spheres(grid.sigma, grid.tau),
                      grid.periodic_u, grid.periodic_theta)


#: rows per write in export_obj: a block's line buffer, its NUL mask and its
#: reprs take a few hundred bytes a row; at 2048 rows a 256 x 256 mesh
#: raised the scene's peak RSS, at 1024 it did not
_WRITE_ROWS = 1024

#: longest repr of a float64 ('-2.2250738585072014e-308')
_REPR_WIDTH = 24


def _label_table(n: int) -> np.ndarray:
    """(n, w) uint8 ASCII of the 1-based labels 1..n, right-aligned with
    NUL padding, w the digit count of n."""
    width = len(str(n))
    table = np.zeros((n, width), dtype=np.uint8)
    for start in range(0, n, _WRITE_ROWS):
        labels = np.arange(start + 1, min(start + _WRITE_ROWS, n) + 1)
        rest, place = labels, 1
        for col in range(width - 1, -1, -1):
            rest, digit = np.divmod(rest, 10)
            table[start:start + labels.size, col] = np.where(
                labels >= place, digit + ord("0"), 0)
            place *= 10
    return table


def _blocks(rows: np.ndarray):
    for start in range(0, rows.shape[0], _WRITE_ROWS):
        yield rows[start:start + _WRITE_ROWS]


def _coordinate_fields(block: np.ndarray):
    """(table, index) for a block of vertex rows: the repr of each distinct
    coordinate bit pattern as a NUL-padded (k, 24) uint8 table, and the
    (rows, 3) table row of every coordinate."""
    bits = np.ascontiguousarray(block).view(np.int64)
    uniq, inv = np.unique(bits, return_inverse=True)
    table = np.array([*map(repr, uniq.view(float).tolist())],
                     dtype=f"S{_REPR_WIDTH}")
    return table.view(np.uint8).reshape(-1, _REPR_WIDTH), inv.reshape(-1, 3)


def _write_lines(fh, tag: str, width: int, blocks):
    """Write '<tag> a b c' lines for each (table, index) of blocks: the
    fields are the NUL-padded ASCII rows table[index] of the (k, width)
    uint8 table, index (rows, 3) with at most _WRITE_ROWS rows.

    Each block is gathered into one byte buffer whose tag, separators and
    newlines are set once; one boolean mask drops the padding.
    """
    lines = np.zeros((_WRITE_ROWS, 2 + 3 * (width + 1)), dtype=np.uint8)
    lines[:, :2] = np.frombuffer(f"{tag} ".encode(), dtype=np.uint8)
    fields = lines[:, 2:].reshape(_WRITE_ROWS, 3, width + 1)
    fields[:, :, width] = ord(" ")
    fields[:, 2, width] = ord("\n")
    for table, index in blocks:
        rows = index.shape[0]
        fields[:rows, :, :width] = np.take(table, index, axis=0)
        block = lines[:rows]
        fh.write(block[block != 0])


def export_obj(mesh: MeshOutput, path) -> str:
    """Write a Wavefront OBJ file.

    Returns the OBJ path.  Floats are written with full repr precision so a
    reload reproduces the vertices bit for bit.  Rows go out in blocks of
    _WRITE_ROWS, each assembled as one numpy byte buffer, so memory stays
    bounded for large meshes.  The only call per value is one repr per
    distinct coordinate of a block, told apart by its bits (0.0 and -0.0
    repr differently); face lines gather from an ASCII table of the labels
    1..n built once per mesh.
    """
    path = os.fspath(path)
    with open(path, "wb") as fh:
        _write_lines(fh, "v", _REPR_WIDTH,
                     map(_coordinate_fields, _blocks(mesh.vertices)))
        if mesh.faces.shape[0]:
            labels = _label_table(mesh.vertices.shape[0])
            _write_lines(fh, "f", labels.shape[1],
                         ((labels, block) for block in _blocks(mesh.faces)))
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
