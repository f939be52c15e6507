"""Tests for the conformal layer: space curves as radius-0 sphere curves,
tubes (the envelopes of their tube sphere curves, as a scene builds
them), curve-level Ribaucour pairs and circle congruences.

Oracle values come from hand geometry (parallel lines, round circles,
tori) or were frozen from a first trusted run; every frozen number is
recorded next to its assertion.
"""

from functools import lru_cache

import numpy as np
import pytest

import oracles
from liechannel import conformal as cf
from liechannel.channel import (
    SphereCurve,
    circle_sphere_curve,
    curve_from_profile,
    envelope,
    line_sphere_curve,
)
from liechannel.core import (
    INFINITY_VEC,
    GeometryError,
    circle_phase,
    circle_points,
    containment_gap,
    inner,
    lightcone_frames,
    parallel_transform_matrix,
    projective_gap,
    span_rows,
)
from liechannel.legendre import curvature_data, validate_legendre
from liechannel.mesh import grid_point_spheres
from liechannel.ops import _tube as tube
from liechannel import transforms as tr
from liechannel.transforms import verify_ribaucour


def line(n=64, **placement):
    """A straight space curve: the line sphere curve of radius 0."""
    return line_sphere_curve(n=n, radius=0.0, **placement)


def ring(n, ring_radius):
    """A round space circle: the circle sphere curve of radius 0."""
    return circle_sphere_curve(n=n, ring_radius=ring_radius, radius=0.0)


@lru_cache(maxsize=None)
def lines():
    axis = line()
    offset = line(origin=(2.0, 0.0, 0.0))
    return axis, offset


def _jet_line(speed, x0):
    def jet(t):
        z = np.zeros_like(t)
        c = np.stack([np.full_like(t, x0), z, speed * t], axis=-1)
        c1 = np.stack([z, z, np.full_like(t, speed)], axis=-1)
        return c, c1, np.zeros_like(c)
    return jet


@lru_cache(maxsize=None)
def mismatch_pair():
    # same u-grid, different parametrisation speed: not Ribaucour
    u = np.linspace(0.5, 1.0, 64)
    slow = curve_from_profile(_jet_line(1.0, 0.0), 0.0, u)
    fast = curve_from_profile(_jet_line(2.0, 2.0), 0.0, u)
    return slow, fast


# ---------------------------------------------------------------------------
# curves and lifts
# ---------------------------------------------------------------------------

def test_line_curve_is_point_sphere_lift():
    axis, _ = lines()
    assert np.max(np.abs(axis.vectors[:, 5])) == 0.0
    # the closed-form derivative: the lift of the unit speed centre line
    assert np.array_equal(axis.d1[:, :3], np.tile([0.0, 0.0, 1.0], (64, 1)))
    assert axis.vectors.shape == (64, 6)


def test_curve_shape_guard():
    u = np.linspace(0.0, 1.0, 5)
    with pytest.raises(GeometryError, match=r"shape \(n, 6\)"):
        SphereCurve(np.zeros((5, 3)), u)
    with pytest.raises(GeometryError, match=r"shape \(n, 6\)"):
        SphereCurve(np.zeros(30), u)
    with pytest.raises(GeometryError, match="does not match the u-grid"):
        SphereCurve(np.zeros((6, 6)), u)
    with pytest.raises(GeometryError, match="at least 5 samples"):
        SphereCurve(np.zeros((4, 6)), u[:4])


def test_legendre_lift_sphere_family_is_the_point_lift():
    axis, _ = lines()
    grid = envelope(axis)
    data = curvature_data(grid)
    worst = max(
        projective_gap(data.s1[i, j], axis.vectors[i])
        for i in range(0, 64, 8) for j in range(0, grid.sigma.shape[1], 8))
    assert worst <= 1e-12                      # measured 3.3e-16


def test_line_lift_transverse_family_is_planes_through_axis():
    axis, _ = lines()
    data = curvature_data(envelope(axis))
    s2 = data.s2 / np.linalg.norm(data.s2, axis=-1, keepdims=True)
    # plane lifts: no finite part, and the plane contains the z-axis
    assert np.max(np.abs(s2[..., 3] + s2[..., 4])) <= 1e-12  # 7.8e-15
    assert np.max(np.abs(np.abs(s2[..., 5]) - np.sqrt(0.5))) <= 1e-12
    assert np.max(np.abs(s2[..., 2])) <= 1e-12               # 7.6e-15


# ---------------------------------------------------------------------------
# tubes
# ---------------------------------------------------------------------------

def test_zero_radius_tube_is_the_curve_lift():
    # radius 0 shifts no sphere, so the tube is the curve's own contact
    # lift; a scene refuses a tube of radius 0 before anything is built
    axis, _ = lines()
    grid, lift = tube(axis, 0.0), envelope(axis)
    assert np.array_equal(grid.sigma, lift.sigma)
    assert np.array_equal(grid.tau, lift.tau)


def test_unit_tube_point_spheres_sit_on_the_cylinder():
    axis, _ = lines()
    grid = tube(axis, 1.0)
    positions, finite = grid_point_spheres(grid.sigma, grid.tau)
    assert finite.all()
    dist = np.hypot(positions[..., 0], positions[..., 1])
    assert np.max(np.abs(dist - 1.0)) <= 1e-12  # measured 5.6e-16
    assert validate_legendre(grid).passed


def test_tube_sphere_curve_matches_grid_and_transports_jets():
    axis, _ = lines()
    curve = cf.tube_sphere_curve(axis, 1.0)
    m = parallel_transform_matrix(1.0)
    assert np.max(np.abs(curve.vectors - axis.vectors @ m.T)) == 0.0
    d1, d2 = curve.derivative(1), curve.derivative(2)
    b1, b2 = axis.derivative(1), axis.derivative(2)
    assert np.max(np.abs(d1 - b1 @ m.T)) == 0.0
    assert np.max(np.abs(d2 - b2 @ m.T)) == 0.0
    # parallel transformations compose additively
    two_step = (cf.tube_sphere_curve(axis, 0.7).vectors
                @ parallel_transform_matrix(0.3).T)
    assert np.max(np.abs(two_step - curve.vectors)) <= 1e-14  # 2.2e-16


def test_circle_tube_is_a_torus():
    grid = tube(ring(96, 2.0), 1.0)
    positions, finite = grid_point_spheres(grid.sigma, grid.tau)
    assert finite.all()
    residual = ((np.hypot(positions[..., 0], positions[..., 1]) - 2.0) ** 2
                + positions[..., 2] ** 2 - 1.0)
    assert np.max(np.abs(residual)) <= 1e-12   # measured 9.5e-15


@pytest.mark.parametrize("radius", [1.0, 1.99, 2.0])
def test_torus_tubes_validate_up_to_the_pinched_one(radius):
    # at radius 2, the ring's own radius, the point projection pinches to
    # the axis, but the contact lift stays immersed: only the Euclidean
    # reading degenerates (measured contact 2.4e-4, 6.5e-5 and 7.0e-5,
    # immersion 0.63, 0.69 and 0.69)
    grid = tube(ring(96, 2.0), radius)
    assert grid.periodic_u
    assert validate_legendre(grid).passed


# ---------------------------------------------------------------------------
# Ribaucour pairs of curves
# ---------------------------------------------------------------------------

def test_parallel_lines_are_ribaucour_at_every_level():
    axis, offset = lines()
    point_level = verify_ribaucour(axis, offset)
    assert point_level <= 1e-12                 # measured 1.3e-15
    for radius in (0.3, 1.0):
        tube_level = verify_ribaucour(cf.tube_sphere_curve(axis, radius),
                                      cf.tube_sphere_curve(offset, radius))
        assert tube_level <= 1e-12
        assert abs(tube_level - point_level) <= 1e-8  # measured 1.6e-16


def test_speed_mismatch_detected_at_every_level():
    slow, fast = mismatch_pair()
    assert verify_ribaucour(slow, fast) >= 1e-2   # measured 0.533
    for radius in (0.3, 1.0):
        tube_level = verify_ribaucour(cf.tube_sphere_curve(slow, radius),
                                      cf.tube_sphere_curve(fast, radius))
        assert tube_level >= 1e-2               # measured 0.521 / 0.459


def test_touching_curves_rejected():
    # point spheres that coincide are orthogonal: the pair spans a contact
    # element there and the criterion degenerates
    axis, _ = lines()
    with pytest.raises(GeometryError, match="orthogonal at sample 0"):
        verify_ribaucour(axis, line())


def test_grid_mismatch_rejected():
    axis, _ = lines()
    other = line(n=32, origin=(2.0, 0.0, 0.0))
    with pytest.raises(GeometryError, match="share their u-grid"):
        verify_ribaucour(axis, other)


# ---------------------------------------------------------------------------
# circle congruence
# ---------------------------------------------------------------------------

def circle_congruence(c1, c2, k, thetas, tol=1e-6):
    """Points of the circle a curve pair envelopes at sample k, one sample
    at a time: the lightcone circle of span{sigma, sigma', sigma_hat} at
    u_k, projected to Euclidean 3-space.  Its members are point spheres,
    since no vector of the span has an e6 part.  The pair test is the
    oracle's."""
    (v1, d1), (v2, d2) = ((c.vectors[k], c.derivative(1)[k])
                          for c in (c1, c2))
    residual = oracles.largest_sine(oracles.basis([v1, d1, v2]),
                                    oracles.basis([v2, d2, v1]))
    if residual > tol:
        raise GeometryError(f"curves are not a Ribaucour pair at sample {k} "
                            f"(span residual {residual:.3e})")
    basis, _ = span_rows(np.stack([v1, d1, v2]))
    frame, signature = lightcone_frames(basis)
    assert tuple(signature) == (2, 1, 0)
    pts = circle_points(frame, thetas)
    h = pts[..., 3] + pts[..., 4]
    if np.min(np.abs(h)) <= 1e-12 * np.max(np.linalg.norm(pts, axis=-1)):
        raise GeometryError("congruence circle passes through infinity "
                            "(a straight line); cannot project all samples")
    return pts[..., :3] / h[..., None]


def test_circle_congruence_hand_geometry():
    # two parallel lines, distance 2: the enveloped circle at u sits in the
    # plane y = 0 with centre (1, 0, u) and radius 1
    axis, offset = lines()
    points = circle_congruence(axis, offset, 32,
                                  np.linspace(0.0, 2.0 * np.pi, 17))
    centre = np.array([1.0, 0.0, axis.u_values[32]])
    radius = np.linalg.norm(points - centre, axis=-1)
    assert np.max(np.abs(radius - 1.0)) <= 1e-12   # measured 1.4e-15
    assert np.max(np.abs(points[:, 1])) <= 1e-12


def test_circle_congruence_report_parallel_lines():
    axis, offset = lines()
    report = cf.circle_congruence_report(axis, offset)
    assert report.membership <= 1e-8               # measured 1.3e-15
    assert max(report.tangency1, report.tangency2) <= 1e-4  # 7.5e-7 rad
    assert np.max(report.residuals) <= 1e-12
    assert report.passed
    assert report.notes == []


def test_circle_congruence_rejects_non_ribaucour_pair():
    slow, fast = mismatch_pair()
    with pytest.raises(GeometryError, match="not a Ribaucour pair"):
        circle_congruence(slow, fast, 5, [0.0])


def _congruence_pairs():
    u = np.linspace(-1.0, 1.0, 48)
    return [
        (line(n=48), line(n=48, origin=(2.0, 0.0, 0.0))),
        (ring(48, 2.0), ring(48, 3.0)),
        (curve_from_profile(_jet_line(1.0, 0.0), 0.0, u),
         curve_from_profile(_jet_line(1.0, 1.5), 0.0, u)),
    ]


@pytest.mark.parametrize("pair", range(3), ids=["lines", "circles",
                                                "profile"])
def test_batched_congruence_residuals_match_per_sample_spans(pair):
    c1, c2 = _congruence_pairs()[pair]
    (v1, d1), (v2, d2) = ((c.vectors, c.derivative(1)) for c in (c1, c2))
    looped = oracles.largest_sine(
        oracles.basis(np.stack([v1, d1, v2], axis=1)),
        oracles.basis(np.stack([v2, d2, v1], axis=1)))
    report = cf.circle_congruence_report(c1, c2)
    assert report.passed
    # both sides carry rounding: a Ribaucour pair reads up to 1.5e-15
    np.testing.assert_allclose(report.residuals, looped, rtol=1e-14,
                               atol=5e-15)
    # the batched circles the report reads are the per-sample ones
    frames, _ = lightcone_frames(span_rows(np.stack([v1, d1, v2], axis=1))[0])
    theta = np.linspace(0.0, 2.0 * np.pi, 5)
    for k in (0, 17, c1.vectors.shape[0] - 1):
        pts = circle_points(frames[k], theta)
        expected = pts[:, :3] / (pts[:, 3] + pts[:, 4])[:, None]
        assert np.array_equal(circle_congruence(c1, c2, k, theta), expected)


def _planted(curve, partner, flat=(), bent=()):
    """A copy of curve, still null and regular, whose derivative lies in
    span{curve, partner} at the `flat` samples, so the congruence span
    drops rank there, and leaves the Ribaucour span at the `bent` ones."""
    d1, d2 = curve.derivative(1), curve.derivative(2)
    d1 = d1.copy()
    v, w = curve.vectors[list(flat)], partner.vectors[list(flat)]
    # (3v + cw, 3v + cw) = 6c (v, w) > 0 for c = sign (v, w)
    d1[list(flat)] = 3.0 * v + np.sign(inner(v, w))[:, None] * w
    d1[list(bent)] += np.array([0.0, 0.7, 0.0, 0.0, 0.0, 0.0])
    return SphereCurve(curve.vectors, curve.u_values, d1=d1, d2=d2)


@pytest.mark.parametrize("flat, bent, named", [
    ((23,), (), 23), ((40, 11), (), 11), ((40,), (20,), 20),
    ((11,), (20,), 11)])
def test_congruence_report_names_the_first_failing_sample(flat, bent,
                                                          named):
    axis, offset = lines()
    bad = _planted(offset, axis, flat, bent)
    with pytest.raises(GeometryError,
                       match=f"^congruence fails at sample {named}$"):
        cf.circle_congruence_report(axis, bad)


def test_curve_consumers_refuse_a_non_regular_curve():
    # a curve standing still, or with its derivative parallel to itself at
    # one sample, is refused as envelope refuses it, before any span
    axis, offset = lines()
    still = line(direction=(0.0, 0.0, 0.0))
    d1, d2 = offset.derivative(1), offset.derivative(2)
    d1 = d1.copy()
    d1[23] = 3.0 * offset.vectors[23]
    parallel = SphereCurve(offset.vectors, offset.u_values, d1=d1, d2=d2)
    for bad, where in ((still, r"\[0, 1, 2"), (parallel, r"\[23\]")):
        for consume in (lambda: cf.tube_sphere_curve(bad, 0.5),
                        lambda: cf.circle_congruence_report(axis, bad),
                        lambda: cf.circle_congruence_report(bad, axis),
                        lambda: envelope(bad, n_theta=8)):
            with pytest.raises(GeometryError,
                               match=f"^curve is not regular at samples "
                                     f"{where}"):
                consume()


@pytest.mark.parametrize("check", ["verify_ribaucour", "ribaucour_cyclides",
                                   "circle_congruence_report"])
def test_curve_checks_make_as_many_linalg_calls_at_any_n(check,
                                                         monkeypatch):
    calls = []
    for name in np.linalg.__all__:
        original = getattr(np.linalg, name)
        if callable(original) and not isinstance(original, type):
            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)

    def count(n):
        axis = line(n=n)
        offset = line(n=n, origin=(2.0, 0.0, 0.0))
        del calls[:]
        if check == "circle_congruence_report":
            cf.circle_congruence_report(axis, offset)
        else:
            getattr(tr, check)(cf.tube_sphere_curve(axis, 1.0),
                               cf.tube_sphere_curve(offset, 1.0))
        return list(calls)

    small, large = count(64), count(512)
    assert 0 < len(small) == len(large)
    # the spans are Gram-Schmidt bases with a closed-form rank
    assert "svd" not in small + large


def test_collinear_pair_envelopes_a_straight_line():
    # the same line traversed with an offset parameter: a valid Ribaucour
    # pair whose "circle" is the axis itself, passing through infinity
    axis, _ = lines()
    shifted = line(origin=(0.0, 0.0, 5.0))
    assert verify_ribaucour(axis, shifted) <= 1e-12  # 5.6e-15

    d1 = axis.derivative(1)
    sub, _ = span_rows(np.stack([axis.vectors[10], d1[10],
                                 shifted.vectors[10]]))
    assert containment_gap(sub, INFINITY_VEC) <= 1e-12        # 1.2e-16
    phase, timelike = circle_phase(lightcone_frames(sub)[0], INFINITY_VEC)
    assert timelike
    with pytest.raises(GeometryError, match="infinity"):
        circle_congruence(axis, shifted, 10, [phase])
    # away from the infinite phase the samples land on the axis
    points = circle_congruence(axis, shifted, 10, [phase + 0.5, phase + 2.0])
    assert np.max(np.abs(points[:, :2])) <= 1e-12            # 6.9e-16

