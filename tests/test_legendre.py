"""Tests for the contact-element grid layer: validation, curvature sphere
extraction, channel detection, the cyclide splitting and spherical
parameter lines."""

import dataclasses
import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from liechannel import legendre as legendre_module, stencils
from liechannel.channel import envelope, line_sphere_curve, omega0_form
from liechannel.core import (
    INFINITY_VEC,
    SIGNS,
    GeometryError,
    complement_rows,
    plane_lift,
    point_lift,
    projective_gap,
    small_eigvalsh,
    sphere_lift,
)
from liechannel.legendre import (
    LegendreGrid,
    align_labels_grid,
    align_signs_grid,
    channel_verdict,
    curvature_data,
    interior_mask,
    is_channel,
    lie_cyclide_split,
    make_legendre_from_surface,
    spherical_line_residuals,
    validate_legendre,
    _quotient_frames,
)
from liechannel.transforms import (
    calapso_transform,
    darboux_initial_condition,
    darboux_transform,
)

import presets


@functools.lru_cache(maxsize=None)
def preset_grid(name, **kw):
    builder = getattr(presets, name + "_surface")
    return make_legendre_from_surface(*builder(**kw))


@functools.lru_cache(maxsize=None)
def transform_grid(name, **kw):
    """The transformed grid of the cylinder-darboux (seed 7) or the
    cylinder-calapso demo at grid 64."""
    curve = line_sphere_curve(n=64)
    base = envelope(curve, n_theta=64)
    omega = omega0_form(base, curve.vectors)
    if name == "darboux":
        phi0 = darboux_initial_condition(np.eye(6)[[0, 3, 4]],
                                         omega.sigma1[0], 7)
        return darboux_transform(base, omega, kw["m"], phi0).hat_f
    return calapso_transform(base, omega, kw["lam"])[1]


#: the transformed grids of the demos, whose elements are the least well
#: conditioned of any demo's (the Darboux output's 4 x 6 stacks
#: [sigma, tau, G sigma, G tau] reach sigma_1 / sigma_4 = 20)
TRANSFORM_GRIDS = [("darboux", {"m": 1.0}), ("calapso", {"lam": 0.5}),
                   ("calapso", {"lam": 1.0}), ("calapso", {"lam": 2.0})]


@functools.lru_cache(maxsize=None)
def preset_split(name, **kw):
    return lie_cyclide_split(preset_grid(name, **kw))


def element_rejection(grid, field, i, j):
    """Euclidean distance of field[i, j] from the contact element's span."""
    a = np.stack([grid.sigma[i, j], grid.tau[i, j]])
    coef, *_ = np.linalg.lstsq(a.T, field[i, j], rcond=None)
    return float(np.linalg.norm(field[i, j] - a.T @ coef))


# -- lifts --------------------------------------------------------------------


def test_batched_lifts_are_null_and_match_pointwise():
    rng = np.random.default_rng(6021)
    pts = rng.uniform(-3, 3, size=(5, 7, 3))
    radii = rng.uniform(-2, 2, size=(5, 7))
    for batch in (point_lift(pts), sphere_lift(pts, radii)):
        assert batch.shape == (5, 7, 6)
        norms = np.einsum("...i,...i->...", batch, np.array([1.0, 1, 1, 1, -1, -1]) * batch)
        assert np.max(np.abs(norms)) <= 1e-12
    np.testing.assert_allclose(sphere_lift(pts, radii)[2, 3],
                               sphere_lift(pts[2, 3], radii[2, 3]))
    n = pts / np.linalg.norm(pts, axis=-1, keepdims=True)
    offs = rng.uniform(-2, 2, size=(5, 7))
    np.testing.assert_allclose(plane_lift(n, offs)[1, 4],
                               plane_lift(n[1, 4], offs[1, 4]))
    n[3, 2] *= 1.5                        # one bad normal fails the batch
    with pytest.raises(GeometryError, match="unit vector"):
        plane_lift(n, offs)


# -- validation ---------------------------------------------------------------


def test_cylinder_grid_validates():
    rep = validate_legendre(preset_grid("cylinder", n_u=48, n_theta=48))
    assert rep.passed
    assert rep.isotropy <= 1e-12
    assert rep.contact <= 1e-3        # measured 2.7e-4 at this resolution
    assert 0.3 <= rep.immersion <= 0.6
    assert "ok" in str(rep)


def test_torus_grid_validates():
    rep = validate_legendre(preset_grid("torus", n_u=48, n_theta=48))
    assert rep.passed
    assert rep.immersion > 0.1
    assert rep.contact <= 1e-2


def test_report_is_scale_invariant():
    grid = preset_grid("torus", n_u=48, n_theta=48)
    scaled = LegendreGrid(7.0 * grid.sigma, 0.2 * grid.tau, grid.u_values,
                          grid.theta_values, grid.periodic_u, grid.periodic_theta)
    a, b = validate_legendre(grid), validate_legendre(scaled)
    assert abs(a.isotropy - b.isotropy) <= 1e-12
    assert abs(a.contact - b.contact) <= 1e-12
    assert abs(a.immersion - b.immersion) <= 1e-12


def test_tilted_normals_break_tangency():
    # the contact residual sees the tilt; the default contact bound,
    # 5 (du^2 + dtheta^2) = 9.5e-2 at 48^2, still passes it (ROADMAP item 5)
    pts, nrm, u, th, pu, pt = presets.cylinder_surface(n_u=48, n_theta=48)
    bad = nrm + 0.05 * np.array([0.0, 0.0, 1.0])
    bad /= np.linalg.norm(bad, axis=-1, keepdims=True)
    rep = validate_legendre(make_legendre_from_surface(pts, bad, u, th, pu, pt))
    untilted = validate_legendre(make_legendre_from_surface(pts, nrm, u, th,
                                                            pu, pt))
    # measured 1.77e-2 against 2.73e-4
    assert rep.contact >= 10.0 * untilted.contact
    assert rep.contact > 1e-2
    assert rep.isotropy <= 1e-12      # planes through the points are still null


def test_constant_grid_fails_immersion():
    sig = np.broadcast_to(point_lift(np.array([0.3, -0.2, 1.1])), (8, 8, 6)).copy()
    tau = np.broadcast_to(plane_lift([0, 0, 1.0], 1.1), (8, 8, 6)).copy()
    grid = LegendreGrid(sig, tau, np.linspace(0, 1, 8), np.linspace(0, 1, 8))
    rep = validate_legendre(grid)
    assert not rep.passed
    assert rep.immersion <= 1e-12


def test_contact_residual_quarters_under_refinement():
    coarse = validate_legendre(preset_grid("cylinder", n_u=32, n_theta=32))
    fine = validate_legendre(preset_grid("cylinder", n_u=64, n_theta=64))
    ratio = coarse.contact / fine.contact
    assert 3.0 <= ratio <= 5.5        # measured 4.17


def test_frame_shape_mismatch_rejected():
    with pytest.raises(GeometryError):
        LegendreGrid(np.zeros((4, 4, 6)), np.zeros((4, 5, 6)),
                     np.linspace(0, 1, 4), np.linspace(0, 1, 4))


# -- immutability and per-grid data ----------------------------------------------


def test_grid_arrays_are_read_only_views():
    sigma = np.broadcast_to(point_lift(np.array([0.3, -0.2, 1.1])), (8, 8, 6)).copy()
    tau = np.broadcast_to(plane_lift([0, 0, 1.0], 1.1), (8, 8, 6)).copy()
    u = np.linspace(0, 1, 8)
    grid = LegendreGrid(sigma, tau, u, np.linspace(0, 1, 8))
    for array in (grid.sigma, grid.tau, grid.u_values, grid.theta_values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # the caller's own arrays stay writeable, and writing into them leaves
    # the grid (and the data derived from it) untouched
    before = float(grid.sigma[0, 0, 0])
    sigma[0, 0, 0] = 5.0
    u[0] = -1.0
    assert sigma.flags.writeable and u.flags.writeable
    assert grid.sigma[0, 0, 0] == before and grid.u_values[0] == 0.0


def test_grid_attributes_cannot_be_reassigned():
    grid = preset_grid("cylinder", n_u=48, n_theta=48)
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.sigma = np.zeros_like(grid.sigma)
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.periodic_u = True


def test_derived_data_is_computed_once_and_read_only():
    grid = preset_grid("torus", n_u=48, n_theta=48)
    data = curvature_data(grid)
    assert curvature_data(grid) is data
    assert is_channel(grid) is is_channel(grid)
    for array in (data.s1, data.s2, data.dir1, data.umbilic):
        assert not array.flags.writeable


@pytest.mark.parametrize("name, kw", [("torus", {"n_u": 48, "n_theta": 48}),
                                      ("helix_tube", {"n_u": 64, "n_theta": 48})]
                         + TRANSFORM_GRIDS)
def test_quotient_frame_is_orthogonal_to_the_element(name, kw):
    grid = (transform_grid if name in ("darboux", "calapso")
            else preset_grid)(name, **kw)
    w_basis = _quotient_frames(grid.sigma, grid.tau)
    element = np.stack([grid.sigma, grid.tau], axis=-2)
    element = element / np.linalg.norm(element, axis=-1, keepdims=True)
    gram = w_basis @ np.swapaxes(w_basis, -1, -2)
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-13
    euclidean = w_basis @ np.swapaxes(element, -1, -2)
    metric = w_basis @ np.swapaxes(SIGNS * element, -1, -2)
    assert np.max(np.abs(euclidean)) <= 1e-12
    assert np.max(np.abs(metric)) <= 1e-12
    qgram = w_basis @ np.swapaxes(SIGNS * w_basis, -1, -2)
    assert np.max(np.abs(qgram - np.eye(2))) <= 1e-13
    reference, _ = oracles.element_complement(grid.sigma, grid.tau)
    diff = projector(w_basis) - projector(reference)
    assert np.max(np.abs(diff)) <= 1e-14          # measured <= 2.8e-15


def projector(rows):
    return np.swapaxes(rows, -1, -2) @ rows


@pytest.mark.parametrize("sine", [1.0, 1e-2, 1e-4, 1e-6])
def test_quotient_frames_match_the_svd_on_random_elements(sine):
    # a point and a plane through it, mixed by a random GL(2) with
    # singular values 1 and sine.  The SVD's complement is itself accurate
    # to about eps * sigma_1 / sigma_4 of the 4 x 6 stack, so the bound
    # scales with that ratio: 1e-14 on a well-conditioned stack (measured
    # at most 6e-16 times the ratio, which reaches 7e6 at sine 1e-6)
    rng = np.random.default_rng(int(-np.log10(sine)))
    points = rng.normal(size=(8, 50, 3))
    normals = rng.normal(size=(8, 50, 3))
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    point = point_lift(points)
    plane = plane_lift(normals, np.einsum("...i,...i->...", points, normals))
    u, _, vt = np.linalg.svd(rng.normal(size=(8, 50, 2, 2)))
    mix = u @ (np.array([1.0, sine])[:, None] * vt)
    grid = LegendreGrid(mix[..., 0, :1] * point + mix[..., 0, 1:] * plane,
                        mix[..., 1, :1] * point + mix[..., 1, 1:] * plane,
                        np.arange(8.0), np.arange(50.0))
    reference, svals = oracles.element_complement(grid.sigma, grid.tau)
    diff = projector(_quotient_frames(grid.sigma, grid.tau)) - projector(
        reference)
    bound = 1e-14 * svals[..., 0] / svals[..., 3]
    assert np.all(np.max(np.abs(diff), axis=(-2, -1)) <= bound)


@pytest.mark.parametrize("where", ["everywhere", "one sample"])
def test_degenerate_elements_fail_without_a_warning(where):
    # tau = sigma spans no contact element: the quotient rows are zero
    # there, so the immersion reads 0 and validation fails, and the
    # channel verdict stays 'none', consistent
    base = preset_grid("torus", n_u=48, n_theta=48)
    tau = np.array(base.sigma if where == "everywhere" else base.tau)
    tau[17, 29] = base.sigma[17, 29]
    grid = LegendreGrid(base.sigma, tau, base.u_values, base.theta_values,
                        base.periodic_u, base.periodic_theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w_basis = _quotient_frames(grid.sigma, grid.tau)
        report = validate_legendre(grid)
        channel = is_channel(grid)
    degenerate = np.all(grid.tau == grid.sigma, axis=-1)
    assert np.all(w_basis[degenerate] == 0.0)
    assert np.all(np.isfinite(w_basis))
    assert report.immersion == 0.0 and not report.passed
    assert channel.circular_dir == "none" and channel.consistent


# -- curvature spheres ----------------------------------------------------------


def test_cylinder_curvature_oracles():
    # the circular family's sphere is centred on the axis; in this lift
    # convention its signed radius solves n.c - d - r = 0, i.e. r = -1
    grid = preset_grid("cylinder", n_u=48, n_theta=48)
    data = curvature_data(grid)
    u, th = grid.u_values, grid.theta_values
    for i in (0, 13, 47):
        for j in (0, 17, 40):
            axis_sphere = sphere_lift([0, 0, u[i]], -1.0)
            tangent_plane = plane_lift([np.cos(th[j]), np.sin(th[j]), 0.0], 1.0)
            assert projective_gap(data.s1[i, j], axis_sphere) <= 1e-12
            assert projective_gap(data.s2[i, j], tangent_plane) <= 1e-12
    assert np.max(np.abs(data.dir1[..., 0])) <= 1e-12   # dir1 is theta-like
    assert np.max(np.abs(data.dir2[..., 1])) <= 1e-12
    assert not data.umbilic.any()
    assert np.min(projective_gap(data.s1, data.s2)) > 0.1


def test_torus_curvature_sphere_oracles():
    data = curvature_data(preset_grid("torus", n_u=48, n_theta=48))
    # sample (0, 0) is the outer equator point (3, 0, 0); the tube sphere and
    # the equator sphere there are known in closed form
    assert projective_gap(data.s1[0, 0], sphere_lift([2.0, 0, 0], -1.0)) <= 1e-12
    assert projective_gap(data.s2[0, 0], sphere_lift([0.0, 0, 0], -3.0)) <= 1e-12
    assert not data.umbilic.any()


def test_curvature_spheres_live_in_their_elements():
    for name, kw in (("torus", {}), ("ellipsoid", {})):
        grid = preset_grid(name, n_u=48, n_theta=48, **kw)
        data = curvature_data(grid)
        for i in (0, 11, 30):
            for j in (5, 29):
                assert element_rejection(grid, data.s1, i, j) <= 1e-10
                assert element_rejection(grid, data.s2, i, j) <= 1e-10


def rejection_from_element(grid, data):
    """Worst interior distance of d_{dir_i} s_i from the contact element."""
    a = np.stack([grid.sigma, grid.tau], axis=-2)
    gram = a @ np.swapaxes(a, -1, -2)
    margin = 4 if grid.shape[0] <= 48 else 8
    mask = interior_mask(grid.shape, grid.periodic_u, grid.periodic_theta, margin)
    worst = 0.0
    for field, direction in ((data.s1, data.dir1), (data.s2, data.dir2)):
        dv = (direction[..., :1] * grid.diff(field, 0)
              + direction[..., 1:] * grid.diff(field, 1))
        rhs = np.einsum("...kd,...d->...k", a, dv)[..., None]
        coef = np.linalg.solve(gram, rhs)[..., 0]
        rej = dv - np.einsum("...k,...kd->...d", coef, a)
        worst = max(worst, float(np.max(np.linalg.norm(rej, axis=-1)[mask])))
    return worst


def test_sphere_derivative_membership_converges():
    # the defining property: each curvature sphere's derivative along its own
    # direction stays inside the contact element, to discretisation error
    coarse = preset_grid("ellipsoid", n_u=48, n_theta=48)
    fine = preset_grid("ellipsoid", n_u=96, n_theta=96)
    r48 = rejection_from_element(coarse, curvature_data(coarse))
    r96 = rejection_from_element(fine, curvature_data(fine))
    assert r48 <= 5e-3                # measured 2.7e-3
    assert r48 / r96 >= 2.5           # second order: measured ratio 4.06


# -- channel detection ----------------------------------------------------------


def test_channel_verdicts_on_presets():
    assert is_channel(preset_grid("cylinder", n_u=48, n_theta=48)).circular_dir == "both"
    assert is_channel(preset_grid("torus", n_u=48, n_theta=48)).circular_dir == "both"
    helix = is_channel(preset_grid("helix_tube", n_u=64, n_theta=48))
    assert helix.circular_dir == "dir1"
    assert helix.circular("dir1") and not helix.circular("dir2")
    assert is_channel(preset_grid("ellipsoid", n_u=48, n_theta=48)).circular_dir == "none"
    for name, kw in (("cylinder", {}), ("torus", {}), ("ellipsoid", {})):
        assert is_channel(preset_grid(name, n_u=48, n_theta=48, **kw)).consistent
    assert helix.consistent
    # the rate verdict alone is the verdict is_channel reports:
    # 'both', 'both', 'dir1' and 'none'
    for name in ("cylinder", "torus", "helix_tube", "ellipsoid"):
        grid = preset_grid(name, n_u=48, n_theta=48)
        assert channel_verdict(grid).circular_dir == is_channel(grid).circular_dir


@pytest.mark.parametrize("verdict_first", [True, False])
def test_variation_rates_are_computed_once_per_grid(monkeypatch,
                                                    verdict_first):
    calls = []
    rate = legendre_module._variation_rate

    def counting(*args):
        calls.append(args[0].shape)
        return rate(*args)

    monkeypatch.setattr(legendre_module, "_variation_rate", counting)
    grid = make_legendre_from_surface(*presets.torus_surface(n_u=32,
                                                             n_theta=32))
    first, second = ((channel_verdict, is_channel) if verdict_first
                     else (is_channel, channel_verdict))
    assert first(grid).circular_dir == second(grid).circular_dir
    assert channel_verdict(grid) is channel_verdict(grid)
    assert len(calls) == 2


def test_channel_rate_separation():
    # channel families are detected at rounding level, non-channel families
    # sit many orders of magnitude above any grid-aware tolerance
    torus = is_channel(preset_grid("torus", n_u=48, n_theta=48))
    assert max(torus.rates.values()) <= 1e-10
    helix = is_channel(preset_grid("helix_tube", n_u=64, n_theta=48))
    assert helix.rates["dir1"] <= 1e-10
    assert helix.rates["dir2"] >= 0.1
    assert helix.coupling["dir1"] <= 1e-8
    assert helix.coupling["dir2"] >= 0.1
    ellipsoid = is_channel(preset_grid("ellipsoid", n_u=48, n_theta=48))
    assert min(ellipsoid.rates.values()) >= 0.1


def test_totally_umbilic_grid_reports_gracefully():
    grid = preset_grid("sphere", n_u=32, n_theta=48)
    data = curvature_data(grid)
    assert data.umbilic.all()
    assert validate_legendre(grid).passed
    with pytest.raises(GeometryError):
        lie_cyclide_split(grid)
    report = is_channel(grid)
    assert report.circular_dir == "none"
    assert any("splitting unavailable" in note for note in report.notes)


# -- cyclide splitting ----------------------------------------------------------

# hand-derived splitting at the torus outer-equator sample (ring radius 2,
# tube radius 1): tube spheres have centres (2 cos u, 2 sin u, 0), radius -1,
# so their 2-jet at u = 0 spans {e1, e2, (0,0,0,-1,2,-1)}; the complement is
# cut out by w1 = w2 = 0, w6 = w4 + 2 w5 and contains the equator sphere
# (0,0,0,5,-4,-3) and the top-plane lift (0,0,1,-1,1,1), as it should.
TORUS_S1 = [np.eye(6)[0], np.eye(6)[1], np.array([0, 0, 0, -1.0, 2.0, -1.0])]
TORUS_S2 = [np.eye(6)[2], np.array([0, 0, 0, 1.0, 0.0, 1.0]),
            np.array([0, 0, 0, 0.0, 1.0, 2.0])]


def one_slab(grid):
    """(rows, window, inner) of the single u-slab that _u_slabs makes of a
    whole grid, when the slab constant exceeds the grid: each slab pass's
    whole-grid reference."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(legendre_module, "_SLAB_POINTS", 2 ** 62)
        (slab,) = legendre_module._u_slabs(grid)
    return slab


def whole_grid_bases(grid):
    """(b1, b2_jet, usable) of the splitting pass's seam on every u-row of
    a grid at once."""
    return legendre_module._split_bases(grid, curvature_data(grid),
                                        *one_slab(grid))


def split_bases(name, **kw):
    """(b1, b2_jet, usable) of the splitting pass on a preset grid."""
    return whole_grid_bases(preset_grid(name, **kw))


def test_torus_split_matches_hand_oracle():
    b1, _, _ = split_bases("torus", n_u=48, n_theta=48)
    b2 = complement_rows(b1)
    assert np.max(np.abs(b1 @ np.swapaxes(SIGNS * b2, -1, -2))) <= 1e-12
    res1 = oracles.largest_sine(b1[0, 0], oracles.basis(TORUS_S1))
    res2 = oracles.largest_sine(b2[0, 0], oracles.basis(TORUS_S2))
    assert res1 <= 1e-10, res1
    assert res2 <= 1e-10, res2
    sphere = sphere_lift([0.0, 0, 0], -3.0)
    assert oracles.containment_gap(b2[0, 0], sphere[None]) <= 1e-10


def test_torus_split_is_constant_and_clean():
    split = preset_split("torus", n_u=48, n_theta=48)
    assert split.s2_agreement <= 1e-8
    assert not split.excluded.any()
    # N(dir1) and N(dir2) span N_u and N_theta
    assert max(split.coupling.values()) <= 1e-8
    b1, _, _ = split_bases("torus", n_u=48, n_theta=48)
    b0 = b1[0, 0]
    p0 = b0.T @ np.linalg.solve(b0 @ b0.T, b0)
    for i in (5, 20, 40):
        for j in (3, 17, 33):
            b = b1[i, j]
            p = b.T @ np.linalg.solve(b @ b.T, b)
            assert np.max(np.abs(p - p0)) <= 1e-10


@pytest.mark.parametrize("eps", [1e-9, 1e-6])
def test_split_agreement_measures_a_planted_tilt(eps, monkeypatch):
    # tilting every row of b2_jet by eps towards G b1 adds eps * I to the
    # cross-Gram b1 G b2_jet^T, so the agreement reads eps (the torus
    # itself reads about 1e-13)
    bases = legendre_module._split_bases

    def tilted(*args):
        b1, b2_jet, usable = bases(*args)
        return b1, b2_jet + eps * SIGNS * b1, usable

    monkeypatch.setattr(legendre_module, "_split_bases", tilted)
    grid = make_legendre_from_surface(*presets.torus_surface(n_u=48, n_theta=48))
    agreement = lie_cyclide_split(grid).s2_agreement
    assert eps / 3.0 <= agreement <= 3.0 * eps


def test_helix_split_diagnostics():
    split = preset_split("helix_tube", n_u=64, n_theta=48)
    assert split.s2_agreement <= 5e-3     # measured 8.2e-4
    assert split.excluded.mean() <= 0.3


def test_helix_agreement_refines_under_doubling():
    coarse = preset_split("helix_tube", n_u=64, n_theta=48)
    fine = preset_split("helix_tube", n_u=128, n_theta=48)
    assert fine.s2_agreement < coarse.s2_agreement / 2.0


def test_ellipsoid_split_diagnostics():
    split = preset_split("ellipsoid", n_u=48, n_theta=48)
    assert split.s2_agreement <= 0.1      # measured 3.0e-2
    assert split.excluded.mean() <= 0.6   # edge margins plus conditioning gate


def _split_masks_by_lapack(grid):
    """(usable, p1, coupling) of the splitting pass, recomputed as it was
    before the closed forms: eigvalsh for both Gram signatures and
    conditionings, solve for the metric projector."""
    data = curvature_data(grid)
    b1, b2_jet, _ = whole_grid_bases(grid)
    ev1, ev2 = (np.linalg.eigvalsh(b @ np.swapaxes(SIGNS * b, -1, -2))
                for b in (b1, b2_jet))
    sig_ok = ((np.sum(ev1 > 1e-9, axis=-1) == 2) & (np.sum(ev1 < -1e-9, axis=-1) == 1)
              & (np.sum(ev2 > 1e-9, axis=-1) == 2) & (np.sum(ev2 < -1e-9, axis=-1) == 1))
    conditioning = np.minimum(np.min(np.abs(ev1), axis=-1),
                              np.min(np.abs(ev2), axis=-1))
    usable = (sig_ok & ~data.umbilic
              & (conditioning >= legendre_module.SPLIT_COND_TOL)
              & interior_mask(grid.shape, grid.periodic_u, grid.periodic_theta,
                              legendre_module.SPLIT_EDGE_MARGIN))
    b = b1[usable]
    gram = b @ np.swapaxes(SIGNS * b, -1, -2)
    p1 = np.full(grid.shape + (6, 6), np.nan)
    p1[usable] = np.swapaxes(b, -1, -2) @ np.linalg.solve(gram, b * SIGNS)
    p1_u = stencils.diff1(p1, grid.du, axis=0, periodic=grid.periodic_u)
    p1_t = stencils.diff1(p1, grid.dtheta, axis=1, periodic=grid.periodic_theta)
    interior = (usable & ~np.isnan(p1_u).any(axis=(-1, -2))
                & ~np.isnan(p1_t).any(axis=(-1, -2)))
    coupling = {}
    for name, d in (("dir1", data.dir1), ("dir2", data.dir2)):
        dp1 = d[..., 0, None, None] * p1_u + d[..., 1, None, None] * p1_t
        n_dir = (np.eye(6) - 2.0 * p1) @ dp1
        coupling[name] = float(np.max(np.abs(n_dir[interior])))
    return usable, p1, coupling


@pytest.mark.parametrize("name, kw", [
    ("cylinder", dict(n_u=48, n_theta=48)),
    ("torus", dict(n_u=48, n_theta=48)),
    ("helix_tube", dict(n_u=64, n_theta=48)),
    ("ellipsoid", dict(n_u=48, n_theta=48)),
    # no edge margin on 12 rows: usable open-end rows take the one-sided
    # differences
    ("ellipsoid", dict(n_u=12, n_theta=12)),
    ("helix_tube", dict(n_u=12, n_theta=24)),
    # a partial last u-slab, across the periodic wrap
    ("torus", dict(n_u=17, n_theta=20)),
    ("torus", dict(n_u=49, n_theta=32))])
def test_split_masks_match_the_lapack_oracle(name, kw):
    grid = preset_grid(name, **kw)
    b1, _, usable = split_bases(name, **kw)
    usable_ref, p1_ref, coupling_ref = _split_masks_by_lapack(grid)
    assert np.any(usable)
    assert np.array_equal(usable, usable_ref)
    p1 = legendre_module._metric_projector_batch(b1[usable])
    assert np.max(np.abs(p1 - p1_ref[usable])) <= 1e-11
    # the coupling reads the same interior points, to rounding of the
    # projector divided by the step
    coupling = lie_cyclide_split(grid).coupling
    for key, value in coupling_ref.items():
        assert abs(coupling[key] - value) <= 1e-10 * max(1.0, value)


def _split_by_whole_grid(grid, b1, b2_jet, usable):
    """(coupling, agreement) of the splitting pass, recomputed in the same
    arithmetic on whole-grid fields: the projector field, both of its
    differences and a gather of the usable points."""
    data = curvature_data(grid)
    cross = b1[usable] @ np.swapaxes(SIGNS * b2_jet[usable], -1, -2)
    top = np.max(legendre_module._largest_eigvalsh(
        cross @ np.swapaxes(cross, -1, -2)))
    p1 = np.full(grid.shape + (6, 6), np.nan)
    p1[usable] = legendre_module._metric_projector_batch(b1[usable])
    p1_u = stencils.diff1(p1, grid.du, axis=0, periodic=grid.periodic_u)
    p1_t = stencils.diff1(p1, grid.dtheta, axis=1, periodic=grid.periodic_theta)
    good = usable & ~np.isnan(p1_u[..., 0, 0] + p1_t[..., 0, 0])
    flip = np.eye(6) - 2.0 * p1[good]
    coupling = {}
    for name, d in (("dir1", data.dir1), ("dir2", data.dir2)):
        dp1 = d[good][:, 0, None, None] * p1_u[good] + d[good][:, 1, None, None] * p1_t[good]
        coupling[name] = float(np.max(np.abs(flip @ dp1)))
    return coupling, float(np.sqrt(max(top, 0.0)))


@pytest.mark.parametrize("name, kw", [
    ("ellipsoid", dict(n_u=12, n_theta=12)),
    ("cylinder", dict(n_u=33, n_theta=16)),
    ("torus", dict(n_u=49, n_theta=32))])
@pytest.mark.parametrize("edges_only", [False, True])
def test_split_slabs_match_the_whole_grid_pass(name, kw, edges_only,
                                               monkeypatch):
    # bit for bit, on the pass's own mask and on one that keeps only rows
    # beside the first u-slab boundaries (16-row slabs for the bases,
    # 8-row ones for the projectors) and the grid's ends, so that every
    # coupling is read where a slab's halo, a one-sided open end or the
    # periodic wrap supplies the u-difference; the bases the pass builds
    # slab by slab are the whole-grid seam's rows
    bases = legendre_module._split_bases
    slab = 16
    monkeypatch.setattr(legendre_module, "_SLAB_POINTS", slab * kw["n_theta"])
    edge_rows = [0, 1, 2, -3, -2, -1] + [
        edge + k for edge in (slab // 2, slab, 2 * slab)
        for k in (-2, -1, 0, 1, 2)]
    built = []

    def planted(grid, data, rows, window, inner):
        b1, b2_jet, usable = bases(grid, data, rows, window, inner)
        if edges_only:
            keep = np.zeros(grid.shape[0], dtype=bool)
            keep[[r for r in edge_rows if r < len(keep)]] = True
            usable = usable & keep[rows, None]
        built.append((rows, b1, b2_jet, usable))
        return b1, b2_jet, usable

    monkeypatch.setattr(legendre_module, "_split_bases", planted)
    builder = getattr(presets, name + "_surface")
    grid = make_legendre_from_surface(*builder(**kw))
    split = lie_cyclide_split(grid)
    slabs, nu = list(built), grid.shape[0]
    assert [rows for rows, *_ in slabs] == [
        slice(start, min(start + slab, nu)) for start in range(0, nu, slab)]
    whole = whole_grid_bases(grid)
    for rows, *per_slab in slabs:
        for got, want in zip(per_slab, whole):
            assert np.array_equal(got, want[rows])
    coupling, agreement = _split_by_whole_grid(grid, *whole)
    assert not np.isnan(list(coupling.values())).any()
    assert split.coupling == coupling
    assert split.s2_agreement == agreement


def planted_basis(rng, gram_eigvals):
    """A random Euclidean-orthonormal 3 x 6 basis whose metric Gram has
    eigenvalues 1 and gram_eigvals (each in [-1, 1]): its negative block
    K = U diag(sqrt(mu)) V^T with mu = (1 - ev) / 2, and its positive block
    completes the rows to orthonormal ones."""
    mu = (1.0 - np.asarray(gram_eigvals)) / 2.0
    w = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    v = np.linalg.qr(rng.normal(size=(2, 2)))[0]
    x = np.linalg.qr(rng.normal(size=(4, 3)))[0]
    k = w[:, :2] @ np.diag(np.sqrt(mu)) @ v.T
    p = w @ np.diag(np.append(np.sqrt(1.0 - mu), 1.0)) @ x.T
    return np.concatenate([p, k], axis=1)


def gram_verdict(ev):
    """The usable-mask rule on ascending Gram eigenvalues (..., 3)."""
    return ((np.sum(ev > 1e-9, axis=-1) == 2) & (np.sum(ev < -1e-9, axis=-1) == 1)
            & (np.min(np.abs(ev), axis=-1) >= legendre_module.SPLIT_COND_TOL))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       high=st.sampled_from([1e-9, 1e-3, None]),
       low=st.sampled_from([-1e-9, -1e-3, 1e-9, 1e-3, None]),
       offsets=st.tuples(*[st.sampled_from([-1e-12, -1e-13, 1e-13, 1e-12])] * 2))
def test_negative_block_gram_matches_eigvalsh(seed, high, low, offsets):
    # random orthonormal bases, plus bases planted 1e-13 to 1e-12 from the
    # +-1e-9 and SPLIT_COND_TOL thresholds (None: a random eigenvalue)
    rng = np.random.default_rng(seed)
    random = np.linalg.qr(rng.normal(size=(40, 6, 3)))[0]
    planted = [rng.uniform(-1.0, 1.0) if t is None else t + d
               for t, d in zip((high, low), offsets)]
    bases = np.concatenate([np.swapaxes(random, -1, -2),
                            planted_basis(rng, planted)[None]])
    assert np.max(np.abs(bases @ np.swapaxes(bases, -1, -2) - np.eye(3))) <= 1e-14
    ev = np.linalg.eigvalsh(bases @ np.swapaxes(SIGNS * bases, -1, -2))
    # _well_split's spectrum: 1 and 1 - 2 mu, mu the eigenvalues of K^T K
    k = bases[..., 4:]
    mu = small_eigvalsh(np.einsum("...ki,...kj->...ij", k, k))
    got = np.sort(np.concatenate([1.0 - 2.0 * mu, np.ones_like(mu[..., :1])],
                                 axis=-1))
    assert np.max(np.abs(got - ev)) <= 1e-14
    assert np.array_equal(legendre_module._well_split(bases), gram_verdict(ev))


def test_split_pass_memory_stays_under_two_projector_fields():
    # the pass builds the 2-jets, both bases, the projector field and its
    # differences slab by slab: no (nu, nt, 6, 6) field, nor a gather of
    # one, is ever whole, and of the (nu, nt, 3, 6) stacks only b1 is:
    # about 45 doubles per point (60 with whole-grid 2-jets, 96 with
    # whole-grid b1 and b2_jet too), against 72 for two projector fields
    grid = make_legendre_from_surface(*presets.torus_surface(n_u=128, n_theta=128))
    curvature_data(grid)
    _, peak = presets.traced_peak(lambda: lie_cyclide_split(grid))
    assert peak <= 48 * 128 * 128 * 8


def test_quotient_frames_memory_stays_under_64_doubles_per_point():
    # the closed form needs about 40 doubles per point of the frames it
    # is given (the passes give it one u-slab at a time); completing the
    # 4 x 6 stacks with orthonormal_rows takes 146
    grid = make_legendre_from_surface(*presets.torus_surface(n_u=128, n_theta=128))
    _, peak = presets.traced_peak(
        lambda: _quotient_frames(grid.sigma, grid.tau))
    assert peak <= 64 * 128 * 128 * 8


@pytest.mark.parametrize("kernel, bound", [(validate_legendre, 40),
                                           (curvature_data, 40)])
def test_validation_and_curvature_hold_one_slab(kernel, bound):
    # each slab differences its frames and builds its quotient frames,
    # solder form or quadratic, roots and kernel spheres; only the
    # reductions and the (nu, nt, 16) fields before alignment are
    # whole-grid: about 21 and 35 doubles per point on a 160^2 envelope,
    # where the whole-grid passes took 92 and 106 (94 when the quotient
    # frames were kept from validation)
    n = 160
    grid = envelope(line_sphere_curve(n=n), n_theta=n)
    _, peak = presets.traced_peak(lambda: kernel(grid))
    assert peak <= bound * n * n * 8


@functools.lru_cache(maxsize=None)
def slab_test_grid(kind):
    """A cylinder open in u (41 rows) or a torus periodic in u (32 rows),
    12 samples round."""
    if kind == "open":
        return preset_grid("cylinder", n_u=41, n_theta=12)
    return preset_grid("torus", n_u=32, n_theta=12)


def legendre_passes(grid):
    """(validation, curvature, rates) of a fresh copy of grid, so that
    nothing is read from the grid's memo."""
    grid = LegendreGrid(grid.sigma, grid.tau, grid.u_values,
                        grid.theta_values, grid.periodic_u,
                        grid.periodic_theta)
    report = validate_legendre(grid)
    data = curvature_data(grid)
    rates = channel_verdict(grid).rates
    return ([report.isotropy, report.contact, report.immersion,
             report.passed],
            [data.s1, data.s2, data.dir1, data.dir2, data.umbilic],
            [rates["dir1"], rates["dir2"]])


@pytest.mark.parametrize("kind", ["open", "periodic"])
@pytest.mark.parametrize("rows", [2, 5, 16])
@pytest.mark.parametrize("nan_at", [None, (20, 3)])
def test_legendre_slabs_match_the_whole_grid_pass(kind, rows, nan_at,
                                                  monkeypatch):
    # bit for bit against one slab of the whole grid: slabs of 2 rows put
    # every u-row beside a slab boundary, where the halo supplies the
    # u-differences; 41 rows and 32 rows in slabs of 5 end in a partial
    # slab, and the grid is open in u or periodic across the wrap.  One
    # NaN in one slab must read as the whole-grid max and min read it
    grid = slab_test_grid(kind)
    if nan_at is not None:
        sigma = np.array(grid.sigma)
        sigma[nan_at] = np.nan
        grid = LegendreGrid(sigma, grid.tau, grid.u_values,
                            grid.theta_values, grid.periodic_u,
                            grid.periodic_theta)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(legendre_module, "_SLAB_POINTS", 2 ** 62)
        whole = legendre_passes(grid)
    monkeypatch.setattr(legendre_module, "_SLAB_POINTS", rows * 12)
    nu = grid.shape[0]
    assert len(list(legendre_module._u_slabs(grid))) == -(-nu // rows)
    got = legendre_passes(grid)
    for got_part, whole_part in zip(got, whole):
        for a, b in zip(got_part, whole_part):
            assert np.array_equal(a, b, equal_nan=True)
    # a NaN reads as NaN isotropy and contact (and immersion 0, where the
    # solder form's Gram has no positive eigenvalue) and fails the grid
    assert got[0][3] == (nan_at is None)
    assert np.isnan(got[0][:2]).all() == (nan_at is not None)


def test_each_pass_differences_each_field_once_per_slab(monkeypatch):
    # stencil applications on 6-vector fields, per u-slab: validation
    # differences the unit sigma and tau along u and theta, curvature
    # extraction the raw ones, the rates s1 and s2, and the splitting the
    # first, second and mixed differences of s1 and s2 for its 2-jets
    calls = []
    apply = stencils._apply

    def counting(arr, *args):
        if np.ndim(arr) == 3 and np.shape(arr)[-1] == 6:
            calls.append(np.shape(arr))
        return apply(arr, *args)

    monkeypatch.setattr(stencils, "_apply", counting)
    grid = make_legendre_from_surface(*presets.torus_surface(n_u=64,
                                                             n_theta=128))
    slabs = len(list(legendre_module._u_slabs(grid)))
    assert slabs == 2
    counts = []
    for kernel in (validate_legendre, curvature_data, channel_verdict,
                   lie_cyclide_split):
        del calls[:]
        kernel(grid)
        counts.append(len(calls))
    assert counts == [4 * slabs, 4 * slabs, 4 * slabs, 10 * slabs]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       condition=st.sampled_from([1.0, 1e-4, 1e-8, 1e-12]))
def test_immersion_matches_the_svd(seed, condition):
    # 4 x 2 solder forms whose columns are nearly parallel at the given
    # ratio of singular values: the smallest is found to about
    # eps * sigma_max, as by the SVD (sqrt(eps) * sigma_max from the
    # 2 x 2 eigenvalue form)
    rng = np.random.default_rng(seed)
    beta = rng.normal(size=(6, 7, 4, 2))
    beta[..., 1] = (beta[..., 0] * rng.normal(size=(6, 7, 1))
                    + condition * beta[..., 1])
    svals = np.linalg.svd(beta, compute_uv=False)
    got = legendre_module._smallest_singular_value(beta)
    assert abs(got - np.min(svals[..., -1])) <= 1e-14 * np.max(svals)


def test_channel_check_and_validation_make_no_lapack_calls(monkeypatch):
    grid = make_legendre_from_surface(*presets.torus_surface(n_u=32, n_theta=32))
    calls = []
    for name in ("svd", "eigvalsh", "eigh", "solve", "inv"):
        def counting(*args, _name=name, _original=getattr(np.linalg, name),
                     **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    assert is_channel(grid).circular_dir == "both"
    assert validate_legendre(grid).passed
    assert calls == []


# -- spherical parameter lines ----------------------------------------------------


def swapped(grid):
    """grid with its u- and theta-axes exchanged: the fits read its lines
    of constant u, which are grid's lines of constant theta."""
    return dataclasses.replace(
        grid, sigma=np.swapaxes(grid.sigma, 0, 1),
        tau=np.swapaxes(grid.tau, 0, 1), u_values=grid.theta_values,
        theta_values=grid.u_values, periodic_u=grid.periodic_theta,
        periodic_theta=grid.periodic_u)


def test_circular_lines_have_zero_residual():
    torus = preset_grid("torus", n_u=48, n_theta=48)
    for grid, index in ((torus, 10), (swapped(torus), 7)):
        (res,) = spherical_line_residuals(grid, [index])
        assert res <= 1e-10


def test_noncircular_line_is_detected():
    # the helix tube's theta-circles are circles; its lines of constant
    # theta are helices, on no sphere
    helix = preset_grid("helix_tube", n_u=64, n_theta=48)
    (res,) = spherical_line_residuals(swapped(helix), [7])
    assert res >= 1e-2                    # measured 1.9e-1


def test_planar_lines_count_as_spherical():
    # coordinate lines of the ellipsoid patch are planar, and planes belong
    # to the sphere family, so the residual is tiny even though the surface
    # is nowhere a channel
    ellipsoid = preset_grid("ellipsoid", n_u=48, n_theta=48)
    (res,) = spherical_line_residuals(ellipsoid, [10])
    assert res <= 1e-10
    (res,) = spherical_line_residuals(
        swapped(preset_grid("cylinder", n_u=48, n_theta=48)), [3])
    assert res <= 1e-10                   # straight rulings are planar too


def _at_infinity(sigma, tau, where):
    """Move the elements at where to a plane through the point at
    infinity, whose point sphere is that point."""
    sigma[where] = INFINITY_VEC
    tau[where] = plane_lift([0, 0, 1.0], 0.0)


@pytest.mark.parametrize("name, axis, kw", [
    ("torus", "u", {"n_u": 48, "n_theta": 48}),
    ("torus", "theta", {"n_u": 48, "n_theta": 48}),
    ("helix_tube", "theta", {"n_u": 64, "n_theta": 48}),
    ("ellipsoid", "u", {"n_u": 48, "n_theta": 48})])
def test_batched_line_fits_match_the_compacted_svd(name, axis, kw):
    # points at infinity enter the batch as zero rows; the oracle drops
    # them and fits each line on its own
    grid = preset_grid(name, **kw)
    if axis == "theta":
        grid = swapped(grid)
    sigma, tau = np.array(grid.sigma), np.array(grid.tau)
    rng = np.random.default_rng(19)
    lines = np.arange(0, sigma.shape[0], 5)
    for index in lines[::2]:              # 7 points at infinity per line
        _at_infinity(sigma, tau, (index, rng.choice(sigma.shape[1], 7,
                                                    replace=False)))
    planted = dataclasses.replace(grid, sigma=sigma, tau=tau)
    residuals = spherical_line_residuals(planted, lines)
    assert residuals.shape == (len(lines),)
    for index, res in zip(lines, residuals):
        svals = oracles.line_sphere_fit(sigma[index], tau[index])
        assert abs(res - svals[-1]) <= 1e-14 * svals[0]


def test_spherical_line_error_paths():
    sig = np.broadcast_to(np.array([0, 0, 0, -1.0, 1.0, 0]), (8, 8, 6)).copy()
    tau = np.broadcast_to(plane_lift([0, 0, 1.0], 0.0), (8, 8, 6)).copy()
    grid = LegendreGrid(sig, tau, np.linspace(0, 1, 8), np.linspace(0, 1, 8))
    with pytest.raises(GeometryError, match="u-index 0 has fewer than six"):
        spherical_line_residuals(grid, [0])   # every point at infinity


def test_line_fit_errors_name_the_first_bad_line():
    torus = preset_grid("torus", n_u=48, n_theta=48)
    sigma, tau = np.array(torus.sigma), np.array(torus.tau)
    _at_infinity(sigma, tau, 5)                    # line u-index 5 at infinity
    sigma[9, 3] = point_lift(np.array([1.0, 0, 0]))
    tau[9, 3] = point_lift(np.array([0.0, 1, 0]))  # a pencil of point spheres

    def fit(lines, swap=False):
        grid = dataclasses.replace(torus, sigma=sigma, tau=tau)
        return spherical_line_residuals(swapped(grid) if swap else grid, lines)

    with pytest.raises(GeometryError,
                       match=r"u-index 5 has fewer than six finite points"):
        fit([0, 5, 9])
    with pytest.raises(GeometryError, match=r"u-index 9: pencil is entirely "
                                            "made of point spheres"):
        fit([0, 9, 5])
    # the torus's theta-line 3 holds the pencil of point spheres
    with pytest.raises(GeometryError, match=r"u-index 3: pencil"):
        fit(range(48), swap=True)
    # on one line the pencil check comes first
    sigma[5, 0] = sigma[9, 3]
    tau[5, 0] = tau[9, 3]
    with pytest.raises(GeometryError, match=r"u-index 5: pencil"):
        fit([5, 9])
    residuals = fit([0, 10, 20])                   # good lines still fit
    assert np.max(residuals) <= 1e-10


# -- grid utilities ---------------------------------------------------------------


def test_interior_mask_shapes():
    m = interior_mask((8, 9), False, False, 2)
    assert not m[0].any() and not m[:, -2:].any()
    assert m[2:-2, 2:-2].all()
    m = interior_mask((8, 9), True, False, 2)
    assert m[0, 4] and not m[0, 0]
    assert interior_mask((4, 4), False, False, 2).all()   # too small to trim
    assert interior_mask((8, 9), True, True, 3).all()


def test_align_signs_grid_smooths_flips():
    rng = np.random.default_rng(42)
    uu, tt = np.meshgrid(np.linspace(0, 1, 12), np.linspace(0, 1, 15), indexing="ij")
    field = np.stack([np.cos(uu + tt), np.sin(uu + tt), np.ones_like(uu)], axis=-1)
    field /= np.linalg.norm(field, axis=-1, keepdims=True)
    flips = np.where(rng.uniform(size=(12, 15, 1)) < 0.5, 1.0, -1.0)
    out = align_signs_grid(field * flips)
    assert np.min(np.einsum("ijd,ijd->ij", out[1:], out[:-1])) > 0.0
    assert np.min(np.einsum("jd,jd->j", out[0, 1:], out[0, :-1])) > 0.0


def test_align_labels_grid_unscrambles_swaps():
    rng = np.random.default_rng(7)
    a = np.broadcast_to(np.array([1.0, 0.0]), (10, 11, 2)).copy()
    b = np.broadcast_to(np.array([0.0, 1.0]), (10, 11, 2)).copy()
    swap = rng.uniform(size=(10, 11)) < 0.5
    swap[0, 0] = False                    # pin the labelling at the corner
    r1 = np.where(swap[..., None], b, a)
    r2 = np.where(swap[..., None], a, b)
    k1, k2 = 2.0 * r1, 3.0 * r2           # a second pair swapped in lockstep
    d1, d2, s1, s2 = align_labels_grid((r1, r2), (k1, k2))
    assert np.max(np.abs(d1 - a)) <= 1e-14
    assert np.max(np.abs(d2 - b)) <= 1e-14
    assert np.max(np.abs(s1[..., 1])) <= 1e-14
    assert np.max(np.abs(s2[..., 0])) <= 1e-14


def greedy_signs(fields):
    """Reference: the row-by-row greedy sign sweep the scan replaces.

    Row 0 takes its dot products with einsum, like the other rows: np.dot
    may fuse multiply-adds, and then reads a planted zero as a rounding
    residue of either sign.
    """
    out = np.array(fields, dtype=float)
    row = out[0]
    for j in range(1, row.shape[0]):
        if np.einsum("d,d->", row[j], row[j - 1]) < 0.0:
            row[j] = -row[j]
    for i in range(1, out.shape[0]):
        flip = np.einsum("jd,jd->j", out[i], out[i - 1]) < 0.0
        out[i][flip] = -out[i][flip]
    return out


def greedy_labels(*pairs):
    """Reference: the row-by-row greedy label sweep the scan replaces."""
    outs = [(np.array(p, dtype=float), np.array(q, dtype=float))
            for p, q in pairs]
    d1, d2 = outs[0]
    nu, nt = d1.shape[:2]

    def mismatch(a1, a2, b1, b2):
        return projective_gap(a1, b1) ** 2 + projective_gap(a2, b2) ** 2

    def swap_at(mask):
        for p, q in outs:
            tmp = np.array(p[mask])
            p[mask] = q[mask]
            q[mask] = tmp

    for j in range(1, nt):
        keep = mismatch(d1[0, j], d2[0, j], d1[0, j - 1], d2[0, j - 1])
        swap = mismatch(d1[0, j], d2[0, j], d2[0, j - 1], d1[0, j - 1])
        if swap < keep:
            swap_at((0, j))
    for i in range(1, nu):
        keep = mismatch(d1[i], d2[i], d1[i - 1], d2[i - 1])
        swap = mismatch(d1[i], d2[i], d2[i - 1], d1[i - 1])
        row_mask = np.zeros((nu, nt), dtype=bool)
        row_mask[i] = swap < keep
        if row_mask.any():
            swap_at(row_mask)
    return [x for pair in outs for x in pair]


@st.composite
def planted_ties(draw):
    """Two (nu, nt, d) fields with exact ties planted along the sweep.

    Entries are Gaussian or drawn from {-1, 0, 1} (zero vectors and exact
    coincidences then occur on their own).  On top of that, elements are
    overwritten by a copy of their sweep predecessor (a repeated element),
    a rotation of it (dot product exactly 0), a NaN, or -- in the second
    field -- a copy of the first (both directions coincide, so the keep
    and swap scores are equal).
    """
    nu, nt = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    d = draw(st.sampled_from([2, 3, 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        a, b = rng.integers(-1, 2, size=(2, nu, nt, d)).astype(float)
    else:
        a, b = rng.normal(size=(2, nu, nt, d))
    for kind in draw(st.lists(st.sampled_from(
            ["repeat", "orthogonal", "nan", "coincide"]), max_size=8)):
        i, j = int(rng.integers(nu)), int(rng.integers(nt))
        prev = (i - 1, j) if i else (0, j - 1)
        if kind == "nan":
            a[i, j, rng.integers(d)] = np.nan
        elif kind == "coincide":
            b[i, j] = a[i, j]
        elif min(prev) >= 0:
            for f in (a, b):
                f[i, j] = f[prev]
                if kind == "orthogonal":
                    f[i, j, :2] = -f[prev][1], f[prev][0]
    return a, b


def test_curvature_extraction_makes_as_many_gap_calls_at_any_size(
        monkeypatch):
    calls = []
    original = legendre_module.projective_gap

    def counting(*args):
        calls.append(1)
        return original(*args)
    monkeypatch.setattr(legendre_module, "projective_gap", counting)

    def count(n_u, n_theta):
        grid = make_legendre_from_surface(*presets.cylinder_surface(
            n_u=n_u, n_theta=n_theta))
        del calls[:]
        curvature_data(grid)
        return len(calls)

    assert 0 < count(64, 8) == count(512, 8) == count(64, 64) == count(512, 64)


@settings(max_examples=300, deadline=None)
@given(fields=planted_ties())
def test_alignment_scans_match_the_greedy_sweeps(fields):
    a, b = fields
    with np.errstate(invalid="ignore", divide="ignore"):
        signs = [align_signs_grid(a)], [greedy_signs(a)]
        labels = (align_labels_grid((a, b), (2.0 * a, 3.0 * b)),
                  greedy_labels((a, b), (2.0 * a, 3.0 * b)))
    for got, want in (signs, labels):
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert np.array_equal(x, y, equal_nan=True)


# -- properties -------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(ring=st.floats(1.6, 3.0), tube=st.floats(0.3, 0.8))
def test_every_torus_is_a_two_way_channel(ring, tube):
    grid = make_legendre_from_surface(*presets.torus_surface(
        n_u=32, n_theta=32, ring_radius=ring, tube_radius=tube))
    report = is_channel(grid)
    assert report.circular_dir == "both"
    assert report.consistent
    assert max(report.rates.values()) <= 1e-8


@settings(max_examples=12, deadline=None)
@given(radius=st.floats(0.5, 3.0))
def test_cylinder_axis_sphere_scales_with_radius(radius):
    grid = make_legendre_from_surface(*presets.cylinder_surface(
        n_u=24, n_theta=24, radius=radius))
    data = curvature_data(grid)
    expected = sphere_lift([0, 0, grid.u_values[5]], -radius)
    assert projective_gap(data.s1[5, 7], expected) <= 1e-10
