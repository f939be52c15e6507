"""Tests for point-sphere extraction, triangulation and OBJ export."""

import os

import numpy as np
import pytest

from liechannel.channel import circle_sphere_curve, envelope
from liechannel.core import (INFINITY_VEC, Infinity,
                             SignatureError, circle_points, containment_gap,
                             first_failure, plane_lift, point_lift,
                             project_to_euclidean, span_rows)
from liechannel.demos import demo_config, demo_names
from liechannel.legendre import make_legendre_from_surface
from liechannel.mesh import (
    _SLAB_ROWS,
    _WRITE_ROWS,
    MeshOutput,
    _grid_mesh,
    cyclide_mesh,
    cyclide_point_grid,
    export_obj,
    grid_point_spheres,
    mesh_from_grid,
    triangulate_grid,
)
from liechannel.scene import run_scene
from liechannel.transforms import dupin_from_subspaces

import presets


def load_obj(path):
    """Minimal OBJ reader (v/f lines only): the round-trip oracle."""
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(x.split("/")[0]) - 1 for x in parts[1:4]])
    return np.asarray(verts, dtype=float), np.asarray(faces, dtype=int)


def reference_obj_bytes(vertices, faces):
    """The OBJ text export_obj must produce: one repr per coordinate."""
    lines = ["v {!r} {!r} {!r}\n".format(*row) for row in vertices.tolist()]
    lines += ["f %d %d %d\n" % tuple(row) for row in (faces + 1).tolist()]
    return "".join(lines).encode()


def cylinder_grid(n=64):
    return make_legendre_from_surface(*presets.cylinder_surface(n_u=n, n_theta=n))


def pointwise_point_sphere(sigma, tau):
    """Per-element oracle: the unit pencil member with zero radius
    coordinate, or None where core reads it as the point at infinity."""
    vec = sigma[5] * tau - tau[5] * sigma
    if isinstance(project_to_euclidean(vec), Infinity):
        return None
    return vec / np.linalg.norm(vec)


def test_point_sphere_recovers_surface_point():
    grid = cylinder_grid(16)
    pts = presets.cylinder_surface(n_u=16, n_theta=16)[0]
    positions, finite = grid_point_spheres(grid.sigma, grid.tau)
    assert finite.all()
    for i in (0, 5, 15):
        np.testing.assert_allclose(positions[i], pts[i], atol=1e-12)


def test_point_sphere_special_cases():
    # a pencil through the point at infinity is masked out
    sigma = np.stack([INFINITY_VEC, point_lift(np.array([1.0, 2.0, 3.0]))])
    tau = np.stack([plane_lift([0, 0, 1.0], 0.0),
                    plane_lift([1.0, 0, 0], 1.0)])
    positions, finite = grid_point_spheres(sigma, tau)
    assert list(finite) == [False, True]
    np.testing.assert_allclose(positions, [[0.0, 0, 0], [1.0, 2.0, 3.0]],
                               atol=1e-15)


def test_grid_point_spheres_read_a_row_like_the_pointwise_reader():
    grid = cylinder_grid(16)
    sigma, tau = np.array(grid.sigma[3]), np.array(grid.tau[3])
    sigma[[2, 9]] = INFINITY_VEC          # two elements through infinity
    tau[[2, 9]] = plane_lift([0, 0, 1.0], 0.0)
    positions, finite = grid_point_spheres(sigma, tau)
    expected = list(map(pointwise_point_sphere, sigma, tau))
    assert list(finite) == [v is not None for v in expected]
    assert np.count_nonzero(~finite) == 2
    np.testing.assert_allclose(
        positions[finite], [v[:3] / (v[3] + v[4]) for v in expected
                            if v is not None], atol=1e-14)
    assert not positions[~finite].any()
    # bit for bit, so that the slab height moves no OBJ byte: a whole
    # grid of three slabs, the last one partial, with a point at infinity
    # planted in each, reads as its rows one at a time
    grid = cylinder_grid(2 * _SLAB_ROWS + 5)
    sigma, tau = np.array(grid.sigma), np.array(grid.tau)
    sigma[[1, _SLAB_ROWS + 3, -1], [0, 4, 7]] = INFINITY_VEC
    tau[[1, _SLAB_ROWS + 3, -1], [0, 4, 7]] = plane_lift([0, 0, 1.0], 0.0)
    positions, finite = grid_point_spheres(sigma, tau)
    rows = [grid_point_spheres(s, t) for s, t in zip(sigma, tau)]
    assert np.count_nonzero(~finite) == 3
    assert np.array_equal(positions, np.stack([p for p, _ in rows]))
    assert np.array_equal(finite, np.stack([f for _, f in rows]))
    # a broadcast cyclide frame pair reads as its materialised copy
    (cyclide,), _ = cyclides_of(TORUS_SPACE)
    n_a, n_b = 2 * _SLAB_ROWS + 3, 20
    spheres_a, spheres_b = (
        circle_points(frame, np.linspace(0.0, 2.0 * np.pi, n, endpoint=False))
        for frame, n in zip(cyclide.frames, (n_a, n_b)))
    sig = np.broadcast_to(spheres_a[:, None, :], (n_a, n_b, 6))
    tau = np.broadcast_to(spheres_b[None, :, :], (n_a, n_b, 6))
    positions, finite = grid_point_spheres(sig, tau)
    copied = grid_point_spheres(np.array(sig), np.array(tau))
    assert np.array_equal(positions, copied[0])
    assert np.array_equal(finite, copied[1])
    assert np.array_equal(positions, cyclide_point_grid(cyclide, n_a, n_b)[0])


def test_grid_point_spheres_roundtrip():
    grid = cylinder_grid(32)
    pts = presets.cylinder_surface(n_u=32, n_theta=32)[0]
    positions, finite = grid_point_spheres(grid.sigma, grid.tau)
    assert finite.all()
    np.testing.assert_allclose(positions, pts, atol=1e-12)


# -- triangulation ------------------------------------------------------------


def test_triangulation_counts():
    assert triangulate_grid((64, 64), False, True).shape == (8064, 3)
    assert triangulate_grid((64, 64), True, True).shape == (8192, 3)
    assert triangulate_grid((64, 64), False, False).shape == (7938, 3)
    assert triangulate_grid((1, 64), False, False).shape == (0, 3)


def quad_split_faces(nu, nt, periodic_u, periodic_theta):
    """The documented split, one quad at a time in row-major order: quad
    (i, j) gives [(i, j), (i+1, j), (i+1, j+1)] and [(i, j), (i+1, j+1),
    (i, j+1)], a periodic axis wrapping its last strip."""
    label = lambda i, j: (i % nu) * nt + j % nt
    faces = [face
             for i in range(nu if periodic_u else nu - 1)
             for j in range(nt if periodic_theta else nt - 1)
             for face in ([label(i, j), label(i + 1, j), label(i + 1, j + 1)],
                          [label(i, j), label(i + 1, j + 1), label(i, j + 1)])]
    return np.array(faces, dtype=int).reshape(-1, 3)


@pytest.mark.parametrize("periodic_u, periodic_theta",
                         [(False, False), (False, True), (True, False),
                          (True, True)])
def test_triangulation_indices_are_valid(periodic_u, periodic_theta):
    shapes = [(nu, nt) for nu in range(2, 6) for nt in range(2, 6)]
    shapes += [(1, n) for n in (1, 2, 5)] + [(n, 1) for n in (2, 5)]
    for nu, nt in shapes:
        faces = triangulate_grid((nu, nt), periodic_u, periodic_theta)
        expected = quad_split_faces(nu, nt, periodic_u, periodic_theta)
        assert faces.dtype == expected.dtype
        assert np.array_equal(faces, expected), (nu, nt)
    faces = triangulate_grid((7, 5), periodic_u, periodic_theta)
    assert faces.min() >= 0 and faces.max() < 35
    # every triangle has three distinct corners
    assert (np.sort(faces, axis=1)[:, :-1] != np.sort(faces, axis=1)[:, 1:]).all()
    # quad diagonal convention: first triangle of the first quad
    np.testing.assert_array_equal(faces[0], [0, 5, 6])
    np.testing.assert_array_equal(faces[1], [0, 6, 1])


def test_compact_mesh_drops_and_renumbers():
    positions = np.arange(27, dtype=float).reshape(3, 3, 3)
    faces = triangulate_grid((3, 3))
    finite = np.ones((3, 3), dtype=bool)
    finite[0, 0] = False
    # the kept vertices move to the front of the positions given
    out = _grid_mesh(positions.copy(), finite, False, False)
    np.testing.assert_array_equal(out.vertices, positions.reshape(9, 3)[1:])
    assert out.faces.shape == (6, 3)           # the corner quad's 2 faces gone
    # each kept face names the same vertices, renumbered past the corner
    np.testing.assert_array_equal(out.faces + 1,
                                  faces[(faces != 0).all(axis=1)])
    # an all-finite grid keeps every vertex and face
    same = _grid_mesh(positions, np.ones((3, 3), dtype=bool), False, False)
    np.testing.assert_array_equal(same.faces, faces)
    assert same.vertices.shape == (9, 3)


def test_mesh_from_grid_counts():
    mesh = mesh_from_grid(cylinder_grid(64))
    assert mesh.vertices.shape == (4096, 3)
    assert mesh.faces.shape == (8064, 3)
    torus = make_legendre_from_surface(*presets.torus_surface(n_u=64, n_theta=64))
    assert mesh_from_grid(torus).faces.shape == (8192, 3)


def test_infinite_point_spheres_are_dropped():
    grid = cylinder_grid(64)
    sigma = grid.sigma.copy()
    sigma[0, 0] = INFINITY_VEC
    mesh = mesh_from_grid(type(grid)(sigma, grid.tau, grid.u_values,
                                     grid.theta_values, grid.periodic_u,
                                     grid.periodic_theta))
    assert mesh.vertices.shape == (4095, 3)
    # vertex (0,0) sat on one open-side quad plus the theta wrap strip: 3 faces
    assert mesh.faces.shape == (8061, 3)
    assert mesh.faces.max() == 4094


# -- OBJ round-trip -----------------------------------------------------------


def test_obj_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(55)
    verts = rng.normal(size=(40, 3)) * np.array([1.0, 1e8, 1e-12])
    faces = rng.integers(0, 40, size=(25, 3))
    path = export_obj(MeshOutput(verts, faces), tmp_path / "out.obj")
    rv, rf = load_obj(path)
    assert np.array_equal(rv, verts)           # repr round-trips floats exactly
    assert np.array_equal(rf, faces)


def test_obj_matches_the_reference_writer_across_blocks(tmp_path):
    # values whose repr is easy to get wrong when coordinates are shared:
    # signed zeros, both signs of nan and inf, a subnormal, repr's
    # switches between positional and exponent notation, and the two
    # longest reprs a float has (24 characters)
    longest = [-2.2250738585072014e-308, -1.7976931348623157e+308]
    assert [len(repr(x)) for x in longest] == [24, 24]
    special = [0.0, -0.0, np.nan, -np.float64(np.nan), np.inf, -np.inf,
               5e-324, 1e16, 9999999999999998.0, 1e-5, 0.0001, -1e16, 1.0,
               -1.0] + longest
    n = 2 * _WRITE_ROWS + 37
    rng = np.random.default_rng(8)
    verts = rng.choice(special + list(rng.normal(size=40)), size=(n, 3))
    # 0.0 and -0.0 side by side in one block with the other specials, and
    # rows repeated within a block and across the first block boundary
    verts[5:11].flat[:len(special)] = special
    assert len({x.tobytes() for x in verts[:_WRITE_ROWS].ravel()}) >= 16
    verts[11] = [-0.0, 0.0, -0.0]
    verts[_WRITE_ROWS - 2:_WRITE_ROWS + 2] = verts[3]
    faces = rng.integers(0, n, size=(n, 3))
    export_obj(MeshOutput(verts, faces), tmp_path / "special.obj")
    assert ((tmp_path / "special.obj").read_bytes()
            == reference_obj_bytes(verts, faces))


def test_obj_of_an_empty_mesh_and_of_bare_vertices(tmp_path):
    no_faces = np.zeros((0, 3), dtype=int)
    for verts in (np.zeros((0, 3)), np.array([[1.5, -0.0, 2e-7]] * 3)):
        path = export_obj(MeshOutput(verts, no_faces), tmp_path / "m.obj")
        assert (tmp_path / "m.obj").read_bytes() == reference_obj_bytes(
            verts, no_faces)
        assert path == str(tmp_path / "m.obj")


def test_obj_face_labels_across_digit_widths_and_blocks(tmp_path):
    # labels 1..n change width at powers of ten; n and the face count
    # straddle the write blocks
    rng = np.random.default_rng(12)
    for n in (1, 9, 10, 99, 100, _WRITE_ROWS - 1, _WRITE_ROWS,
              _WRITE_ROWS + 1, 4095, 4096, 4097, 100_001):
        verts = rng.normal(size=(n, 3)).round(rng.integers(0, 17))
        faces = rng.integers(0, n, size=(n, 3))
        faces[0] = [0, n - 1, n // 2]
        faces[-1] = [n - 1, 0, n - 1]
        export_obj(MeshOutput(verts, faces), tmp_path / "n.obj")
        assert ((tmp_path / "n.obj").read_bytes()
                == reference_obj_bytes(verts, faces)), n


def test_mesh_refuses_faces_that_are_not_vertex_triples():
    verts = np.zeros((4, 3))
    for faces, message in (
            ([[0, 1, 2], [1, 2, -1]], "mesh face 1 [1, 2, -1] indexes "
                                      "outside the 4 vertices"),
            ([[0, 1, 2], [3, 4, 0], [4, 4, 4]],
             "mesh face 1 [3, 4, 0] indexes outside the 4 vertices"),
            (np.zeros((2, 4), dtype=int), "mesh faces must be an (m, 3) "
                                          "integer array, got shape (2, 4) "
                                          "of int64"),
            (np.zeros((2, 3)), "mesh faces must be an (m, 3) integer array, "
                               "got shape (2, 3) of float64")):
        with pytest.raises(ValueError) as info:
            MeshOutput(verts, faces)
        assert str(info.value) == message
    with pytest.raises(ValueError, match=r"vertices must be an \(n, 3\)"):
        MeshOutput(np.zeros((4, 2)), np.zeros((0, 3), dtype=int))


def test_obj_writer_memory_stays_bounded():
    (cyclide,), _ = cyclides_of(TORUS_SPACE)
    mesh = cyclide_mesh(cyclide, n_a=256, n_b=256)
    _, peak = presets.traced_peak(lambda: export_obj(mesh, os.devnull))
    assert peak < 2 * 2 ** 20


def test_mesh_builders_hold_their_output_plus_one_slab():
    # each 256 x 256 builder peaks below its output plus 1 MiB: the
    # slabs it works in, not grid-sized temporaries
    (cyclide,), _ = cyclides_of(TORUS_SPACE)
    grid = envelope(circle_sphere_curve(256, ring_radius=2.0, radius=1.0),
                    256)
    for build in (lambda: triangulate_grid((256, 256), True, True),
                  lambda: cyclide_mesh(cyclide, n_a=256, n_b=256),
                  lambda: mesh_from_grid(grid)):
        out, peak = presets.traced_peak(build)
        held = (out.nbytes if isinstance(out, np.ndarray)
                else out.vertices.nbytes + out.faces.nbytes)
        assert held >= 3 * 2 ** 20
        assert peak < held + 2 ** 20, (peak, held)


def test_dropping_points_holds_the_output_and_one_slab():
    # a 256 x 256 torus envelope with a point at infinity planted in three
    # slabs: the mesh is the whole-array formula's bit for bit, and the
    # call peaks at most 1.5 times its output (2.9 times when faces and
    # vertices were filtered and renumbered as whole-array copies)
    grid = envelope(circle_sphere_curve(256, ring_radius=2.0, radius=1.0),
                    256)
    sigma, tau = np.array(grid.sigma), np.array(grid.tau)
    planted = ([1, _SLAB_ROWS + 3, -1], [0, 4, 255])
    sigma[planted] = INFINITY_VEC
    tau[planted] = plane_lift([0, 0, 1.0], 0.0)
    grid = type(grid)(sigma, tau, grid.u_values, grid.theta_values,
                      grid.periodic_u, grid.periodic_theta)
    mesh, peak = presets.traced_peak(lambda: mesh_from_grid(grid))
    positions, finite = grid_point_spheres(sigma, tau)
    faces = triangulate_grid(finite.shape, True, True)
    keep = finite.reshape(-1)
    kept = np.flatnonzero(keep)
    remap = -np.ones(keep.size, dtype=int)
    remap[kept] = np.arange(kept.size)
    assert kept.size == keep.size - 3
    assert np.array_equal(mesh.vertices, positions.reshape(-1, 3)[kept])
    assert np.array_equal(mesh.faces,
                          remap[faces[keep[faces].all(axis=1)]])
    assert peak <= 1.5 * (mesh.vertices.nbytes + mesh.faces.nbytes)


def test_demo_objs_match_the_reference_writer(tmp_path):
    for name in demo_names():
        out = tmp_path / name
        report = run_scene(demo_config(name, grid=32), out)
        assert report["meshes"]
        for entry in report["meshes"]:
            path = out / entry["path"]
            verts, faces = load_obj(path)
            assert path.read_bytes() == reference_obj_bytes(verts, faces)


def test_curve_ribaucour_tubes_sit_on_their_cylinders(tmp_path):
    # unit tubes about the z-axis and about its parallel through (2, 0, 0)
    report = run_scene(demo_config("curve-ribaucour"), tmp_path)
    axes = {"tube-a.obj": (0.0, 0.0), "tube-b.obj": (2.0, 0.0)}
    assert sorted(entry["path"] for entry in report["meshes"]) == sorted(axes)
    for path, (x, y) in axes.items():
        verts, _ = load_obj(tmp_path / path)
        dist = np.hypot(verts[:, 0] - x, verts[:, 1] - y)
        assert np.max(np.abs(dist - 1.0)) <= 1e-12   # measured 4.0e-15


# -- cyclide sampling -----------------------------------------------------------

# sphere space of the ring-2/tube-1 torus, worked out by hand: the tube
# spheres (centres on the ring, radius -1) span {e1, e2, (0,0,0,-1,2,-1)}
TORUS_SPACE = [np.eye(6)[0], np.eye(6)[1], np.array([0, 0, 0, -1.0, 2.0, -1.0])]


def cyclides_of(*spaces):
    """dupin_from_subspaces of the spans of the given row stacks:
    (cyclides, first failure)."""
    bases, _ = span_rows(np.stack(spaces))
    cyclides, _, failures = dupin_from_subspaces(
        bases, [f"space {i}" for i in range(len(spaces))])
    return cyclides, first_failure(failures)


def test_cyclide_grid_reproduces_torus():
    (cyclide,), failure = cyclides_of(TORUS_SPACE)
    assert failure is None
    positions, finite = cyclide_point_grid(cyclide, n_a=48, n_b=40)
    assert positions.shape == (48, 40, 3) and finite.all()
    rho = np.hypot(positions[..., 0], positions[..., 1])
    implicit = (rho - 2.0) ** 2 + positions[..., 2] ** 2 - 1.0
    assert np.max(np.abs(implicit)) <= 1e-6
    space, _ = span_rows(TORUS_SPACE)
    circle = circle_points(cyclide.frames[0], np.linspace(0.0, 6.0, 4))
    assert np.max(containment_gap(space, circle)) <= 1e-10


def test_cyclide_mesh_counts():
    (cyclide,), _ = cyclides_of(TORUS_SPACE)
    mesh = cyclide_mesh(cyclide, n_a=32, n_b=24)
    assert mesh.vertices.shape == (768, 3)
    assert mesh.faces.shape == (1536, 3)       # both directions periodic


def test_cyclide_rejects_wrong_signature():
    _, (k, exc) = cyclides_of(TORUS_SPACE, np.eye(6)[:3])
    assert k == 1 and isinstance(exc, SignatureError)
    assert str(exc) == ("cyclide subspace (space 1) has signature (3, 0, 0), "
                        "need (2, 1, 0)")
