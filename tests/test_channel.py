"""Envelope construction, the middle one-form, and conserved quantities."""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechannel import channel as ch
from liechannel.core import (
    SIGNS,
    GeometryError,
    _adjugate,
    complement_rows,
    inner,
    lightcone_frames,
    projective_gap,
    sphere_lift,
)
from liechannel.legendre import curvature_data, is_channel, validate_legendre
from liechannel.mesh import grid_point_spheres

E6 = np.eye(6)[5]


@lru_cache(maxsize=None)
def cylinder_envelope(n=64):
    curve = ch.line_sphere_curve(n, -1.0, 1.0, radius=1.0)
    return curve, ch.envelope(curve, n)


@lru_cache(maxsize=None)
def torus_envelope(n=64):
    curve = ch.circle_sphere_curve(n, ring_radius=2.0, radius=1.0)
    return curve, ch.envelope(curve, n)


@lru_cache(maxsize=None)
def cylinder_omega(n=64):
    curve, grid = cylinder_envelope(n)
    sigma1 = ch.special_lift(curve, "against_p", E6)
    return ch.omega0_form(grid, sigma1)


# ---------------------------------------------------------------------------
# sphere curves
# ---------------------------------------------------------------------------

def test_curve_presets_are_null_and_regular():
    for curve in (ch.line_sphere_curve(32), ch.circle_sphere_curve(32),
                  ch.helix_sphere_curve(32), ch.line_sphere_curve(32, radius=0.0)):
        curve.check()
        assert curve.nullity() <= 1e-12


def test_jet_matches_finite_differences():
    curve = ch.helix_sphere_curve(96, radius=0.6)
    d1_jet, d2_jet = curve.derivative(1), curve.derivative(2)
    fd = ch.SphereCurve(curve.vectors, curve.u_values)
    d1_fd, d2_fd = fd.derivative(1), fd.derivative(2)
    # interior rows only: the open ends drop to order two
    assert np.max(np.abs(d1_jet - d1_fd)[3:-3]) < 1e-5
    assert np.max(np.abs(d2_jet - d2_fd)[3:-3]) < 1e-4


def test_curve_keeps_its_derivatives_read_only():
    # derivatives passed in and derivatives from the stencils alike are
    # computed once, kept, and cannot be written
    exact = ch.helix_sphere_curve(32)
    stencil = ch.SphereCurve(exact.vectors, exact.u_values)
    assert stencil.d1 is None
    # each order is filled on its own: reading d1 forms no d2
    stencil.derivative(1)
    assert stencil.d2 is None
    for curve in (exact, stencil):
        d1, d2 = curve.derivative(1), curve.derivative(2)
        assert curve.derivative(1) is d1 and curve.derivative(2) is d2
        assert not (d1.flags.writeable or d2.flags.writeable
                    or curve.vectors.flags.writeable)
        with pytest.raises(dataclasses.FrozenInstanceError):
            curve.d1 = d2


def test_concentric_spheres_are_rejected():
    # growing radius, fixed centre: the quotient speed is negative
    def center(u):
        z = np.zeros(np.shape(u) + (3,))
        return z, z.copy(), z.copy()

    def rad(u):
        u = np.asarray(u, dtype=float)
        return u, np.ones_like(u), np.zeros_like(u)

    curve = ch.curve_from_profile(center, rad, np.linspace(1.0, 2.0, 32))
    with pytest.raises(GeometryError, match="not regular"):
        curve.check()


def test_non_null_samples_are_rejected():
    curve = ch.SphereCurve(np.ones((32, 6)), np.linspace(0.0, 1.0, 32))
    with pytest.raises(GeometryError, match="not null"):
        curve.check()


def test_curve_shape_guards():
    with pytest.raises(GeometryError):
        ch.SphereCurve(np.zeros((32, 5)), np.linspace(0, 1, 32))
    with pytest.raises(GeometryError):
        ch.SphereCurve(np.zeros((4, 6)), np.linspace(0, 1, 4))


# ---------------------------------------------------------------------------
# the envelope as a Legendre grid
# ---------------------------------------------------------------------------

def test_cylinder_envelope_point_spheres_sit_on_the_cylinder():
    curve, grid = cylinder_envelope()
    positions, finite = grid_point_spheres(grid.sigma, grid.tau)
    assert finite.all()
    dist = np.hypot(positions[..., 0], positions[..., 1])
    assert np.max(np.abs(dist - 1.0)) <= 1e-12
    # z is the curve parameter and each u-row sweeps a uniform circle
    assert np.max(np.abs(positions[..., 2] - grid.u_values[:, None])) <= 1e-12
    ang = np.sort(np.arctan2(positions[7, :, 1], positions[7, :, 0]))
    gaps = np.diff(ang)
    assert np.max(gaps) - np.min(gaps) <= 1e-12


def test_cylinder_envelope_validates():
    _, grid = cylinder_envelope()
    report = validate_legendre(grid)
    assert report.passed
    assert report.isotropy <= 1e-12
    assert report.contact <= 1e-3          # measured 1.47e-4 at 64x64
    assert 0.3 <= report.immersion <= 0.7  # measured 0.499


def test_envelope_elements_contain_the_curve():
    curve, grid = cylinder_envelope()
    # the enveloped sphere is the sigma frame itself; check the pairing with
    # tau as well so membership is in the contact element, not just the line
    gap = projective_gap(grid.sigma, curve.vectors[:, None, :])
    assert np.max(gap) <= 1e-14
    s = grid.sigma / np.linalg.norm(grid.sigma, axis=-1, keepdims=True)
    t = grid.tau / np.linalg.norm(grid.tau, axis=-1, keepdims=True)
    assert np.max(np.abs(inner(s, t))) <= 1e-12


def test_envelope_s1_is_the_enveloped_sphere_and_dir1_circular():
    curve, grid = cylinder_envelope()
    data = curvature_data(grid)
    gap = projective_gap(data.s1, curve.vectors[:, None, :])
    assert np.max(gap) <= 1e-10            # measured 3.5e-16
    report = is_channel(grid)
    assert report.circular("dir1")
    assert report.consistent


def test_cylinder_envelope_is_channel_both_ways():
    # tangent planes are constant along the rulings, so the second family
    # is circular too
    _, grid = cylinder_envelope()
    assert is_channel(grid).circular_dir == "both"


def test_contact_residual_quarters_when_steps_halve():
    _, coarse = cylinder_envelope(64)
    _, fine = cylinder_envelope(128)
    ratio = (validate_legendre(coarse).contact
             / validate_legendre(fine).contact)
    assert 3.5 <= ratio <= 4.5             # measured 3.873


def test_zero_tube_s2_family_is_planes_through_the_axis():
    curve = ch.line_sphere_curve(64, -1.0, 1.0, radius=0.0)
    grid = ch.envelope(curve, 64)
    assert validate_legendre(grid).passed
    data = curvature_data(grid)
    assert np.max(projective_gap(data.s1, curve.vectors[:, None, :])) <= 1e-10
    s2 = data.s2 / np.linalg.norm(data.s2, axis=-1, keepdims=True)
    # plane lifts have x4 + x5 = 0; through the z-axis means offset 0 and
    # normal orthogonal to e3
    assert np.max(np.abs(s2[..., 3] + s2[..., 4])) <= 1e-12
    assert np.max(np.abs((s2[..., 3] - s2[..., 4]) / 2.0)) <= 1e-12
    assert np.max(np.abs(s2[..., 2])) <= 1e-12


def test_torus_envelope_closes_periodically():
    curve, grid = torus_envelope()
    assert grid.periodic_u
    assert grid.metadata["holonomy_mismatch"] <= 1e-10   # measured 1.4e-15
    assert validate_legendre(grid).passed
    assert is_channel(grid).circular_dir == "both"


def test_helix_envelope_is_one_way_channel():
    curve = ch.helix_sphere_curve(64, radius=0.6)
    grid = ch.envelope(curve, 64)
    assert validate_legendre(grid).passed
    report = is_channel(grid)
    assert report.circular_dir == "dir1"
    assert report.consistent


def test_envelope_names_the_samples_whose_space_is_not_21():
    # a planted rank loss at sample 17: the curve's second derivative
    # there is a combination of the sample and its first derivative
    torus, _ = torus_envelope(48)
    d1 = torus.derivative(1)
    d2 = torus.derivative(2).copy()
    d2[17] = torus.vectors[17] + d1[17]
    curve = ch.SphereCurve(torus.vectors, torus.u_values,
                           periodic_u=torus.periodic_u, d1=d1, d2=d2)
    with pytest.raises(GeometryError, match=r"not \(2,1\) at samples \[17\]"):
        ch.envelope(curve, 16)


@pytest.mark.parametrize("speed", [1e-3, 1.0, 1e3, 1e4])
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e6])
def test_osculating_verdict_ignores_scale_and_speed(speed, scale):
    # a helix traversed at any speed, its lift at any scale: the rows'
    # lengths differ by up to eight decades, the signature does not
    R, p = 2.0, 0.5

    def center(u):
        k = speed * u
        c = np.stack([R * np.cos(k), R * np.sin(k), p * k], axis=-1)
        c1 = speed * np.stack([-R * np.sin(k), R * np.cos(k),
                               np.full_like(k, p)], axis=-1)
        c2 = speed ** 2 * np.stack([-R * np.cos(k), -R * np.sin(k),
                                    np.zeros_like(k)], axis=-1)
        return c, c1, c2

    curve = ch.curve_from_profile(
        center, 0.6, np.linspace(0.0, 3.0 * np.pi / speed, 64))
    stacks, ok = ch.osculating_spaces(curve)
    assert ok.all()
    assert ch._signature_21(scale * stacks).all()


# ---------------------------------------------------------------------------
# special lifts and the middle one-form
# ---------------------------------------------------------------------------

def test_special_lift_gauges():
    curve, _ = cylinder_envelope()
    unit = ch.special_lift(curve, "unit")
    assert np.allclose(np.linalg.norm(unit, axis=-1), 1.0, atol=1e-14)
    tilted = ch.special_lift(curve, "against_p", E6)
    assert np.max(np.abs(inner(tilted, E6) + 1.0)) <= 1e-14
    # unit-radius spheres pair with e6 as -1 already, so the gauge is a no-op
    assert np.max(np.abs(tilted - curve.vectors)) == 0.0
    with pytest.raises(ValueError):
        ch.special_lift(curve, "frobn")
    point_curve = ch.line_sphere_curve(16, radius=0.0)
    with pytest.raises(GeometryError, match="orthogonal to p"):
        ch.special_lift(point_curve, "against_p", E6)


def test_omega0_q_is_minus_one_on_the_cylinder():
    omega = cylinder_omega()
    assert np.max(np.abs(omega.q_uu + 1.0)) <= 1e-12   # measured 1.1e-14


def planted_lift(curve, eps, seed=5):
    """The curve's lift tilted off itself by the angle arctan(eps), at
    every sample, in a seeded random direction."""
    lift = curve.vectors
    rng = np.random.default_rng(seed)
    tilt = rng.normal(size=lift.shape)
    tilt -= (np.einsum("ij,ij->i", tilt, lift)
             / np.einsum("ij,ij->i", lift, lift))[:, None] * lift
    tilt *= (np.linalg.norm(lift, axis=-1)
             / np.linalg.norm(tilt, axis=-1))[:, None]
    return lift + eps * tilt


def test_omega0_lift_gap_sits_at_rounding():
    for n in (32, 64):
        curve, grid = cylinder_envelope(n)
        # measured 3.1e-16 (32) and 3.7e-16 (64)
        assert ch.omega0_form(grid, curve.vectors).lift_gap <= 1e-15
        curve, grid = torus_envelope(n)
        # measured 2.0e-16 (32) and 3.0e-16 (64)
        assert ch.omega0_form(grid, curve.vectors).lift_gap <= 1e-15


def test_omega0_lift_gap_measures_a_planted_tilt():
    curve, grid = cylinder_envelope()
    gap = ch.omega0_form(grid, planted_lift(curve, 1e-9)).lift_gap
    # measured 1.0e-9: far above the 1e-12 the demos assert
    assert 1e-10 <= gap <= 1e-8
    with pytest.raises(GeometryError, match="sigma1 does not lift"):
        ch.omega0_form(grid, planted_lift(curve, 1e-3))


def test_omega0_eta_maps_are_metric_skew():
    omega = cylinder_omega()
    sym = SIGNS[:, None] * omega.eta_u + np.swapaxes(
        SIGNS[:, None] * omega.eta_u, -1, -2)
    assert np.max(np.abs(sym)) <= 1e-12


def test_q_scales_as_the_square_of_the_gauge():
    curve, grid = cylinder_envelope()
    omega = cylinder_omega()
    om2 = ch.omega0_form(grid, 2.0 * omega.sigma1)
    assert np.max(np.abs(om2.q_uu - 4.0 * omega.q_uu)) <= 1e-12
    mu = 1.0 + 0.3 * np.sin(curve.u_values)
    om3 = ch.omega0_form(grid, mu[:, None] * omega.sigma1)
    # non-polynomial gauge: agreement limited by the open-end stencils
    assert np.max(np.abs(om3.q_uu - mu**2 * omega.q_uu)) <= 5e-3


def test_omega0_rejects_wrong_sphere_family():
    curve, grid = cylinder_envelope()
    scrambled = np.roll(curve.vectors, 7, axis=0)
    with pytest.raises(GeometryError, match="does not lift"):
        ch.omega0_form(grid, scrambled)


def test_omega0_rejects_non_channel_grids():
    import presets
    from liechannel.legendre import make_legendre_from_surface
    grid = make_legendre_from_surface(*presets.ellipsoid_surface(48, 48))
    with pytest.raises(GeometryError, match="not a channel"):
        ch.omega0_form(grid, grid.sigma[:, 0])


def test_omega0_stores_a_read_only_copy_of_the_lift():
    curve, grid = cylinder_envelope()
    sigma1 = ch.special_lift(curve, "against_p", E6)
    omega = ch.omega0_form(grid, sigma1)
    for array in (omega.sigma1, omega.u_values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # the caller's array stays writeable, and writing into it leaves the
    # structure (and the flows that interpolate its lift) untouched
    before = omega.sigma1.copy()
    sigma1 *= 2.0
    assert sigma1.flags.writeable
    assert np.array_equal(omega.sigma1, before)


@pytest.mark.parametrize("index", [1, 17, 31])
def test_envelope_raises_on_a_singular_fibre(monkeypatch, index):
    e = np.eye(6)
    singular = np.stack([e[0], e[1], e[2] + e[4]])  # a null row: Gram singular

    def planted(stacks):
        perp = complement_rows(stacks)
        perp[index] = singular
        return perp

    monkeypatch.setattr(ch, "complement_rows", planted)
    with pytest.raises(GeometryError, match="transport degenerated"):
        ch.envelope(ch.line_sphere_curve(n=32), 8)


def transport_frame(prev, fiber, gram_inv):
    """Reference: carry a (+,+,-) frame into the next fibre, one sample at
    a time in ambient coordinates.

    Projects each frame row onto the span of the fibre rows (gram_inv is
    the inverse of the fibre's Gram matrix), then runs a signature-aware
    Gram-Schmidt, restoring each row's sign continuity with the previous
    frame as it goes.  Works in the dtype of its arguments.  Returns the
    frame and the number of rows whose sign it restored.
    """
    cand = (gram_inv @ (fiber @ (SIGNS * prev).T)).T @ fiber
    out = np.empty_like(cand)
    signs = (1.0, 1.0, -1.0)
    flips = 0
    for k in range(3):
        v = cand[k]
        for m in range(k):
            v = v - signs[m] * inner(v, out[m]) * out[m]
        norm2 = signs[k] * inner(v, v)
        if norm2 <= 1e-14:
            raise GeometryError("circle-frame transport degenerated")
        out[k] = v / np.sqrt(norm2)
        if np.dot(out[k], prev[k]) < 0.0:
            out[k] = -out[k]
            flips += 1
    return out, flips


def reference_frames(curve, dtype=float):
    """The envelope's circle frames from the reference transport, in
    dtype: the same fibres and first frame, with each fibre's Gram
    inverted by the adjugate in that dtype (LAPACK's inverse for float),
    and one more step round to fibre 0 on a periodic curve.  Returns the
    frames and the count of sign flips."""
    perp = complement_rows(ch.osculating_spaces(curve)[0]).astype(dtype)
    grams = perp @ np.swapaxes(SIGNS * perp, -1, -2)
    if dtype is float:
        inverses = np.linalg.inv(grams)
    else:
        adj, det = _adjugate(grams)
        inverses = adj / det[..., None, None]
    frames = [lightcone_frames(perp[0].astype(float))[0].astype(dtype)]
    flips = 0
    steps = list(range(1, len(perp))) + [0] * curve.periodic_u
    for k in steps:
        frame, flipped = transport_frame(frames[-1], perp[k], inverses[k])
        frames.append(frame)
        flips += flipped
    return np.array(frames), flips


def transported_circles(curve, theta, dtype=float):
    """The envelope's circles from the reference transport, in dtype,
    one per sample.  Returns the circles, the largest frame entry and the
    count of sign flips."""
    frames, flips = reference_frames(curve, dtype)
    frames = frames[:len(curve.vectors)]
    th = np.asarray(theta, dtype=dtype)
    circles = (np.cos(th)[:, None] * frames[:, None, 0]
               + np.sin(th)[:, None] * frames[:, None, 1] + frames[:, None, 2])
    return circles, float(np.max(np.abs(frames))), flips


def test_envelope_transport_matches_lapack_inverses():
    # the batched adjugate inverses and the chain in fibre coordinates
    # carry the same frames as the reference transport with LAPACK's
    curve, grid = torus_envelope()
    circles, _, _ = transported_circles(curve, grid.theta_values)
    assert np.max(np.abs(grid.tau[-1] - circles[-1])) <= 1e-12


def test_envelope_sign_flips_match_the_stepwise_reference():
    # on a coarse helix some steps turn frame rows against their
    # predecessors; the envelope restores their signs after the chain,
    # the reference at each step (measured 1.9e-12, on frames of size 86)
    curve = ch.helix_sphere_curve(8, ring_radius=1.0, pitch=1.0, radius=1.0,
                                  turns=3.0)
    grid = ch.envelope(curve, 4)
    circles, scale, flips = transported_circles(curve, grid.theta_values)
    assert flips >= 1                                  # measured 9
    assert np.max(np.abs(grid.tau - circles)) <= 1e-10 * scale


def varying_radius_curve(n):
    """Spheres along the z-axis with radius 1 + 0.3 sin u, u in [0, 2 pi]."""
    def center(u):
        zero = np.zeros_like(u)
        return (np.stack([zero, zero, u], axis=-1),
                np.stack([zero, zero, zero + 1.0], axis=-1),
                np.stack([zero, zero, zero], axis=-1))

    def radius(u):
        return 1.0 + 0.3 * np.sin(u), 0.3 * np.cos(u), -0.3 * np.sin(u)

    return ch.curve_from_profile(center, radius,
                                 np.linspace(0.0, 2.0 * np.pi, n))


def saddle_curve(n):
    """Spheres of radius 1 + 0.3 sin u along the closed saddle curve
    (2 cos u, 2 sin u, sin(2u) / 2): a periodic curve whose frames do not
    close up."""
    def center(u):
        return (np.stack([2.0 * np.cos(u), 2.0 * np.sin(u),
                          0.5 * np.sin(2.0 * u)], axis=-1),
                np.stack([-2.0 * np.sin(u), 2.0 * np.cos(u),
                          np.cos(2.0 * u)], axis=-1),
                np.stack([-2.0 * np.cos(u), -2.0 * np.sin(u),
                          -2.0 * np.sin(2.0 * u)], axis=-1))

    def radius(u):
        return 1.0 + 0.3 * np.sin(u), 0.3 * np.cos(u), -0.3 * np.sin(u)

    return ch.curve_from_profile(center, radius,
                                 np.arange(n) * (2.0 * np.pi / n),
                                 periodic_u=True)


def coarse_helix(n, turns):
    return ch.helix_sphere_curve(n, ring_radius=2.0, pitch=0.2, radius=0.3,
                                 turns=turns)


# measured |frame - reference| / max|frame|: line 2.8e-16, circle
# 2.4e-16, saddle 8.8e-16, helix 3.5e-15, varying radius 5.4e-16, 10
# turns at n = 64 6.3e-14 (max|frame| 40), 40 turns at n = 256 4.7e-11
# (max|frame| 640, 17 sign flips; a Gram-Schmidt after every step in
# fibre coordinates reads 4.5e-11 there, the float reference 1.4e-10)
@pytest.mark.parametrize("curve, bound", [
    (ch.line_sphere_curve(96), 1e-11),
    (ch.circle_sphere_curve(96), 1e-11),
    (saddle_curve(96), 1e-11),
    (ch.helix_sphere_curve(96), 1e-11),
    (varying_radius_curve(96), 1e-11),
    (coarse_helix(64, 10.0), 1e-11),
    (coarse_helix(256, 40.0), 2e-10)],
    ids=["line", "circle", "saddle", "helix", "varying-radius",
         "helix-10-turns", "helix-40-turns"])
def test_envelope_carries_every_frame_as_the_stepwise_reference(curve, bound):
    # one prefix product and one Gram-Schmidt per fibre give the frames
    # that a Gram-Schmidt after every step gives, here the per-step
    # reference in extended precision; a periodic curve's last frame, one
    # step round to fibre 0, measures the holonomy
    perp = complement_rows(ch.osculating_spaces(curve)[0])
    frames = ch._transported_frames(perp, lightcone_frames(perp[0])[0],
                                    curve.periodic_u)
    expected, _ = reference_frames(curve, np.longdouble)
    scale = float(np.max(np.abs(expected)))
    assert frames.shape == expected.shape
    assert np.max(np.abs(frames - expected)) <= bound * scale
    if curve.periodic_u:
        grid = ch.envelope(curve, 4)
        mismatch = float(np.max(np.abs(expected[-1] - expected[0])))
        got = grid.metadata["holonomy_mismatch"]
        assert abs(got - mismatch) <= bound * scale


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("make", [
    ch.line_sphere_curve, ch.circle_sphere_curve, ch.helix_sphere_curve,
    varying_radius_curve], ids=["line", "circle", "helix", "varying-radius"])
def test_envelope_transport_matches_an_extended_precision_reference(make, n):
    # largest measured: helix 2.5e-14 relative at n = 1024 (the per-sample
    # ambient transport: 8.1e-14)
    curve = make(n)
    grid = ch.envelope(curve, 4)
    circles, scale, _ = transported_circles(curve, grid.theta_values,
                                            np.longdouble)
    assert np.max(np.abs(grid.tau - circles)) <= 1e-13 * scale


def test_torus_omega0_quadratic_form():
    curve, grid = torus_envelope()
    sigma1 = ch.special_lift(curve, "against_p", E6)
    omega = ch.omega0_form(grid, sigma1)
    # (sigma', sigma') = ring_radius^2 at tube radius 1; derivative is
    # fourth-order accurate away from ends (periodic: everywhere)
    assert np.max(np.abs(omega.q_uu + 4.0)) <= 1e-3    # measured 2.5e-5


# ---------------------------------------------------------------------------
# conserved quantities
# ---------------------------------------------------------------------------

def test_conserved_quantity_exact_on_cylinder():
    omega = cylinder_omega()
    report = ch.conserved_quantity(omega, E6, [-1.0, 0.0, 1.0, 2.0, 3.0])
    assert report.passed
    assert report.normalisation_defect <= 1e-14
    assert report.residuals[0.0] == 0.0
    for lam, res in report.residuals.items():
        assert res <= 1e-13, (lam, res)    # measured <= 1.4e-15
    assert "ok" in str(report)


def test_wrong_gauge_is_rejected_then_measurably_fails():
    curve, grid = cylinder_envelope()
    unit = ch.special_lift(curve, "unit")
    omega = ch.omega0_form(grid, unit)
    with pytest.raises(GeometryError, match="not normalised"):
        ch.conserved_quantity(omega, E6, [1.0])
    report = ch.conserved_quantity(omega, E6, [-1.0, 1.0, 2.0, 3.0],
                                   strict=False)
    assert not report.passed
    assert report.normalisation_defect >= 0.3          # measured 0.368
    for res in report.residuals.values():
        assert res >= 1e-3                             # measured >= 1.4e-2
    assert report.notes


def test_conserved_quantity_on_torus_converges_locally():
    results = {}
    for n in (32, 64):
        curve = ch.circle_sphere_curve(n, 2.0, 1.0)
        grid = ch.envelope(curve, n)
        omega = ch.omega0_form(grid, ch.special_lift(curve, "against_p", E6))
        report = ch.conserved_quantity(omega, E6, [1.0])
        assert report.passed
        results[n] = report.residuals[1.0]
    # per-edge residuals are local truncation errors: third order
    assert results[32] / results[64] >= 6.0            # measured 8.1


# ---------------------------------------------------------------------------
# parametric families
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(radius=st.floats(0.4, 2.5))
def test_line_envelope_radius_is_reproduced(radius):
    curve = ch.line_sphere_curve(32, -1.0, 1.0, radius=radius)
    grid = ch.envelope(curve, 32)
    positions, finite = grid_point_spheres(grid.sigma, grid.tau)
    assert finite.all()
    dist = np.hypot(positions[..., 0], positions[..., 1])
    assert np.max(np.abs(dist - radius)) <= 1e-10


@settings(max_examples=8, deadline=None)
@given(ring=st.floats(1.6, 3.0), tube=st.floats(0.4, 0.9))
def test_every_torus_envelope_conserves_its_quantity(ring, tube):
    curve = ch.circle_sphere_curve(48, ring_radius=ring, radius=tube)
    grid = ch.envelope(curve, 48)
    assert grid.periodic_u
    sigma1 = ch.special_lift(curve, "against_p", E6)
    assert np.max(np.abs(inner(sigma1, E6) + 1.0)) <= 1e-12
    omega = ch.omega0_form(grid, sigma1)
    report = ch.conserved_quantity(omega, E6, [-1.0, 1.0, 2.0])
    assert report.passed
