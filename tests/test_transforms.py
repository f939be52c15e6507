"""Tests for the transform layer: flat-connection flows, Darboux and
Calapso transforms, Ribaucour partners, and the attached cyclide data.

Oracle values were computed once from independent geometry (closed-form
lifts, hand-checked pairings) or frozen from a first trusted run; each
frozen number is recorded next to its assertion.
"""

from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from liechannel.channel import (
    HOLONOMY_TOL,
    SphereCurve,
    circle_sphere_curve,
    curve_from_profile,
    envelope,
    helix_sphere_curve,
    line_sphere_curve,
    omega0_form,
)
from liechannel import legendre as legendre_module
from liechannel.core import (
    INFINITY_VEC,
    METRIC,
    GeometryError,
    RankDeficiencyError,
    SignatureError,
    circle_points,
    complement_rows,
    containment_gap,
    inner,
    lightcone_frames,
    null_combination,
    orthonormal_rows,
    principal_sine,
    projective_gap,
    raise_first_failure,
    span_rows,
    sphere_lift,
    unit_rows,
)
from liechannel.legendre import (LegendreGrid, curvature_data, is_channel,
                                 validate_legendre)
from liechannel import transforms as tr

import presets

E1, E4, E5 = np.eye(6)[0], np.eye(6)[3], np.eye(6)[4]


@lru_cache(maxsize=None)
def cylinder(n=64):
    curve = line_sphere_curve(n=n)
    grid = envelope(curve)
    omega = omega0_form(grid, curve.vectors)
    return curve, grid, omega


@lru_cache(maxsize=None)
def torus(n=32):
    curve = circle_sphere_curve(n=n, ring_radius=2.0, radius=0.7)
    grid = envelope(curve, n_theta=8)
    return curve, grid, omega0_form(grid, curve.vectors)


def helix(n):
    curve = helix_sphere_curve(n=n)
    grid = envelope(curve, n_theta=8)
    return curve, grid, omega0_form(grid, curve.vectors)


def seed_space():
    return np.stack([E1, E4, E5])


def fast_line_profile(u):
    z = np.zeros_like(u)
    c = np.stack([np.full_like(u, 2.0), z, 2.0 * u], axis=-1)
    c1 = np.stack([z, z, np.full_like(u, 2.0)], axis=-1)
    return c, c1, np.zeros_like(c)


# ---------------------------------------------------------------------------
# Darboux transforms
# ---------------------------------------------------------------------------

def test_initial_condition_deterministic_and_admissible():
    curve, _, _ = cylinder()
    a = tr.darboux_initial_condition(seed_space(), curve.vectors[0], seed=3)
    b = tr.darboux_initial_condition(seed_space(), curve.vectors[0], seed=3)
    assert np.array_equal(a, b)
    assert abs(inner(a, a)) <= 1e-12 * (a @ a)
    rel = abs(inner(a, curve.vectors[0]))
    rel /= np.linalg.norm(a) * np.linalg.norm(curve.vectors[0])
    assert rel >= 0.05


def dead_space():
    # every vector of this (2,1) space pairs to zero with the cylinder's
    # first sample sigma1(-1) = (0, 0, -1, 1/2, 1/2, 1)
    return np.stack([E1, np.eye(6)[1], np.array([0, 0, 0, 1.0, 2.0, -0.5])])


def test_initial_condition_rejects_orthogonal_subspace():
    curve, _, _ = cylinder()
    with pytest.raises(GeometryError, match="no admissible"):
        tr.darboux_initial_condition(dead_space(), curve.vectors[0], seed=0)


def test_initial_condition_guards_signature_and_rank():
    curve, _, _ = cylinder()
    with pytest.raises(SignatureError, match=r"^initial-condition space has "
                       r"signature \(3, 0, 0\), need \(2, 1, 0\)$"):
        tr.darboux_initial_condition(np.eye(6)[:3], curve.vectors[0], seed=0)
    with pytest.raises(RankDeficiencyError, match="rank 2"):
        tr.darboux_initial_condition(np.stack([E1, E4, E1 + E4]),
                                     curve.vectors[0], seed=0)


def test_darboux_rejects_bad_inputs():
    curve, grid, omega = cylinder()
    phi0 = tr.darboux_initial_condition(seed_space(), curve.vectors[0], seed=0)
    with pytest.raises(ValueError, match="nonzero"):
        tr.darboux_transform(grid, omega, 0.0, phi0)
    with pytest.raises(GeometryError, match="not null"):
        tr.darboux_transform(grid, omega, 1.0, np.eye(6)[0])
    # a zero vector spans no line: not null, and no 0/0 on the way
    with np.errstate(all="raise"), pytest.raises(GeometryError,
                                                 match="not null"):
        tr.darboux_transform(grid, omega, 1.0, np.zeros(6))
    dead, _ = span_rows(dead_space())
    phi_bad = circle_points(lightcone_frames(dead)[0], 0.3)
    with pytest.raises(GeometryError, match="orthogonal to sigma1"):
        tr.darboux_transform(grid, omega, 1.0, phi_bad)


def test_darboux_cylinder_nominal():
    curve, grid, omega = cylinder()
    phi0 = tr.darboux_initial_condition(seed_space(), curve.vectors[0], seed=0)
    res = tr.darboux_transform(grid, omega, 1.0, phi0)

    assert res.null_drift <= 1e-12                    # measured 3.2e-16
    validation = validate_legendre(res.hat_f)
    assert validation.passed
    assert validation.contact <= 5e-3                 # measured 1.3e-3
    assert res.holonomy_mismatch is None              # an open base
    assert res.hat_f.sigma.shape == grid.sigma.shape

    # the transform is a channel surface along dir1
    assert is_channel(res.hat_f).circular("dir1")

    # the derivative hat_s carries is the flow's own
    d1 = res.hat_s.derivative(1)
    flow = -1.0 * np.einsum("kij,kj->ki", omega.eta_u, res.hat_s.vectors)
    assert np.max(np.abs(d1 - flow)) <= 1e-15

    assert tr.verify_ribaucour(curve, res.hat_s) <= 1e-13     # 2.5e-15


def test_darboux_theta_lines_stay_on_spheres():
    from liechannel.mesh import grid_point_spheres
    curve, grid, omega = cylinder()
    phi0 = tr.darboux_initial_condition(seed_space(), curve.vectors[0], seed=0)
    res = tr.darboux_transform(grid, omega, 1.0, phi0)
    pos, finite = grid_point_spheres(res.hat_f.sigma, res.hat_f.tau)
    assert finite.all()
    phin = res.hat_s.vectors / (res.hat_s.vectors[:, 3]
                                + res.hat_s.vectors[:, 4])[:, None]
    dist = np.linalg.norm(pos - phin[:, None, :3], axis=-1)
    sph = np.max(np.abs(dist - np.abs(phin[:, 5])[:, None]))
    assert sph <= 1e-10                               # measured 6.8e-15


def at_substeps(monkeypatch, counts, run):
    """run() once with transforms.SUBSTEPS set to each of counts."""
    out = []
    for k in counts:
        monkeypatch.setattr(tr, "SUBSTEPS", k)
        out.append(run())
    return out


def test_darboux_substep_refinement(monkeypatch):
    # the Magnus-Pade step is fourth order, and each step lies in O(4,2):
    # the section converges under substep doubling and stays null
    curve, grid, omega = torus()
    phi0 = tr.darboux_initial_condition(seed_space(), curve.vectors[0], seed=7)
    runs = at_substeps(monkeypatch, (1, 2, 4),
                       lambda: tr.darboux_transform(grid, omega, 1.0, phi0))
    (a, b, c) = (r.hat_s.vectors for r in runs)
    order = np.log2(np.max(np.abs(a - b)) / np.max(np.abs(b - c)))
    assert order >= 3.5                               # measured 3.98
    assert max(r.null_drift for r in runs) <= 1e-13   # measured 2.1e-14


def test_darboux_periodic_seam_is_honest():
    sub = seed_space()
    for n in (64, 128):
        curve = circle_sphere_curve(n=n, ring_radius=2.0, radius=0.7)
        grid = envelope(curve, n_theta=32)
        omega = omega0_form(grid, curve.vectors)
        phi0 = tr.darboux_initial_condition(sub, curve.vectors[0], seed=1)
        res = tr.darboux_transform(grid, omega, 0.8, phi0)
        # the holonomy of this section does not close up; the output must
        # degrade to an open grid and record the mismatch
        assert not res.hat_f.periodic_u
        assert res.holonomy_mismatch >= 0.1           # measured 0.99
        assert tr.verify_ribaucour(curve, res.hat_s) <= 1e-10   # 4.5e-14
        assert res.null_drift <= 1e-13                # measured 2.1e-14


@settings(max_examples=8, deadline=None)
@given(m=st.floats(0.3, 2.0), flip=st.booleans(), seed=st.integers(0, 99))
def test_darboux_property_ribaucour_and_null(m, flip, seed):
    curve, grid, omega = cylinder()
    if flip:
        m = -m
    phi0 = tr.darboux_initial_condition(seed_space(), curve.vectors[0],
                                        seed=seed)
    res = tr.darboux_transform(grid, omega, m, phi0)
    assert res.null_drift <= 1e-10
    assert tr.verify_ribaucour(curve, res.hat_s) <= 1e-8


# ---------------------------------------------------------------------------
# cyclide congruences
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def darboux_pair():
    curve, grid, omega = cylinder()
    phi0 = tr.darboux_initial_condition(seed_space(), curve.vectors[0], seed=0)
    res = tr.darboux_transform(grid, omega, 1.0, phi0)
    return curve, grid, res


def test_cyclide_congruence_of_darboux_pair():
    curve, grid, res = darboux_pair()
    rep = tr.ribaucour_cyclides(curve, res.hat_s, f=grid, f_hat=res.hat_f)
    assert rep.coincidence <= 1e-13                   # measured 2.3e-15
    assert rep.intersection_rank_ok
    assert rep.duality <= 1e-10                       # measured 1.5e-12
    assert rep.theta_constancy <= 1e-13               # measured 5.8e-15
    # second-family number comes from grid extraction and is only O(h^2)
    assert rep.d2_coincidence <= 0.1                  # measured 1.9e-2


def darboux_pair_at(n_theta):
    curve = line_sphere_curve(n=32)
    grid = envelope(curve, n_theta=n_theta)
    omega = omega0_form(grid, curve.vectors)
    phi0 = tr.darboux_initial_condition(seed_space(), curve.vectors[0], seed=0)
    return curve, grid, tr.darboux_transform(grid, omega, 1.0, phi0)


def test_element_intersection_takes_no_svd_per_element(monkeypatch):
    matrices = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return svd(a, *args, **kwargs)

    def count(n_theta):
        curve, grid, res = darboux_pair_at(n_theta)
        del matrices[:]
        rep = tr.ribaucour_cyclides(curve, res.hat_s, f=grid, f_hat=res.hat_f)
        assert rep.intersection_rank_ok and rep.duality <= 1e-10
        return sum(matrices)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert count(16) == count(32)


def test_coinciding_elements_fail_the_intersection_rank():
    curve, grid, res = darboux_pair()
    hat = res.hat_f
    sigma, tau = np.array(hat.sigma), np.array(hat.tau)
    sigma[40], tau[40] = grid.sigma[40], grid.tau[40]
    planted = type(hat)(sigma, tau, hat.u_values, hat.theta_values,
                        hat.periodic_u, hat.periodic_theta)
    rep = tr.ribaucour_cyclides(curve, res.hat_s, f=grid, f_hat=planted)
    assert rep.intersection_rank_ok is False
    assert rep.notes == ["element intersections are not uniformly rank 1"]


def _cyclides_by_whole_grid(s, s_hat, f, f_hat):
    """(duality, theta_constancy, d2_coincidence, intersection_rank_ok) of
    ribaucour_cyclides, recomputed in the same arithmetic on whole-grid
    fields, reduced by np.max and np.min."""
    d1_spaces, _, _ = tr._d1_spans(s, s_hat)
    unit = unit_rows(np.stack([f.sigma, f.tau], axis=-2))
    basis_hat = orthonormal_rows(np.stack([f_hat.sigma, f_hat.tau], axis=-2))
    rank_ok = bool(np.min(principal_sine(orthonormal_rows(unit),
                                         basis_hat)) > 1e-6)
    rej = unit - (unit @ np.swapaxes(basis_hat, -1, -2).copy()) @ basis_hat
    a, b = null_combination(rej[..., 0, :], rej[..., 1, :])
    s0 = unit_rows(a * unit[..., 0, :] + b * unit[..., 1, :])
    jet = np.stack([s0, f.diff(s0, 1), f.diff(s0, 1, order=2)], axis=-2)
    duality = float(np.max(principal_sine(
        complement_rows(d1_spaces)[:, None], orthonormal_rows(jet))))
    data, data_hat = curvature_data(f), curvature_data(f_hat)
    s1 = data.s1
    pair = -inner(s1, INFINITY_VEC)
    if np.min(np.abs(pair)) > 1e-6 * np.max(np.linalg.norm(s1, axis=-1)):
        s1 = s1 / pair[..., None]
    hat = np.broadcast_to(s_hat.vectors[:, None, :], s1.shape)
    theta_constancy = float(np.max(principal_sine(
        d1_spaces[:, None],
        orthonormal_rows(np.stack([s1, hat, f.diff(s1, 0)], axis=-2)))))
    a2 = np.stack([data.s2, data_hat.s2, f.diff(data.s2, 1)], axis=-2)
    b2 = np.stack([data.s2, data_hat.s2, f.diff(data_hat.s2, 1)], axis=-2)
    d2 = float(np.max(principal_sine(orthonormal_rows(b2),
                                     orthonormal_rows(a2))))
    return duality, theta_constancy, d2, rank_ok


@lru_cache(maxsize=None)
def cyclide_pair(kind):
    """A Darboux pair (curve, grid, result) on an open cylinder of 41
    u-rows, or on a torus whose first grid is periodic in u."""
    if kind == "open":
        curve = line_sphere_curve(n=41)
        grid = envelope(curve, n_theta=12)
    else:
        curve = circle_sphere_curve(n=32, ring_radius=2.0, radius=0.7)
        grid = envelope(curve, n_theta=12)
    omega = omega0_form(grid, curve.vectors)
    phi0 = tr.darboux_initial_condition(seed_space(), curve.vectors[0], seed=1)
    return curve, grid, tr.darboux_transform(grid, omega, 0.8, phi0)


@pytest.mark.parametrize("kind", ["open", "periodic"])
@pytest.mark.parametrize("rows", [2, 5, 16])
@pytest.mark.parametrize("nan_at", [None, (20, 3)])
def test_cyclide_slabs_match_the_whole_grid_pass(kind, rows, nan_at,
                                                 monkeypatch):
    # bit for bit against whole-grid fields: slabs of 2 rows put every
    # u-row beside a slab boundary, where the halo supplies s1's
    # u-difference; 41 rows and 32 rows in slabs of 5 end in a partial
    # slab, and the first grid is open in u or periodic across the wrap.
    # One NaN in one slab of the second grid must read as np.max and
    # np.min read it, whichever slab it is in
    curve, grid, res = cyclide_pair(kind)
    hat = res.hat_f
    assert grid.periodic_u == (kind == "periodic")
    if nan_at is not None:
        sigma = np.array(hat.sigma)
        sigma[nan_at] = np.nan
        hat = type(hat)(sigma, hat.tau, hat.u_values, hat.theta_values,
                        hat.periodic_u, hat.periodic_theta)
    monkeypatch.setattr(legendre_module, "_SLAB_POINTS",
                        rows * grid.shape[1])
    rep = tr.ribaucour_cyclides(curve, res.hat_s, f=grid, f_hat=hat)
    got = (rep.duality, rep.theta_constancy, rep.d2_coincidence,
           rep.intersection_rank_ok)
    want = _cyclides_by_whole_grid(curve, res.hat_s, grid, hat)
    assert np.array_equal(got, want, equal_nan=True), (got, want)
    assert [type(x) for x in got] == [float, float, float, bool]
    if nan_at is not None:
        assert rep.intersection_rank_ok is False
        assert np.isnan(rep.duality)


def test_cyclide_pass_memory_stays_under_64_doubles_per_point():
    # both grids of a 128 x 128 cylinder-darboux pair, their curvature
    # spheres and the curves' derivatives taken beforehand: the grid
    # measurements run u-slab by u-slab, where whole-grid stacks of bases
    # and jets took about 231 doubles per point (about 29 in slabs)
    n = 128
    curve = line_sphere_curve(n=n)
    grid = envelope(curve, n_theta=n)
    omega = omega0_form(grid, curve.vectors)
    phi0 = tr.darboux_initial_condition(seed_space(), curve.vectors[0], seed=7)
    res = tr.darboux_transform(grid, omega, 1.0, phi0)
    for surface in (grid, res.hat_f):
        curvature_data(surface)
    for sphere_curve in (curve, res.hat_s):
        sphere_curve.derivative(1)
    rep, peak = presets.traced_peak(lambda: tr.ribaucour_cyclides(
        curve, res.hat_s, f=grid, f_hat=res.hat_f))
    assert rep.intersection_rank_ok
    assert peak <= 64 * n * n * 8


def test_cyclide_congruence_curve_only():
    curve, _, res = darboux_pair()
    rep = tr.ribaucour_cyclides(curve, res.hat_s)
    assert rep.coincidence <= 1e-13
    assert rep.duality is None and rep.theta_constancy is None
    assert rep.d2_coincidence is None


def test_cyclide_congruence_rejects_grid_mismatch():
    curve, _, res = darboux_pair()
    short = SphereCurve(curve.vectors[:32], curve.u_values[:32])
    with pytest.raises(GeometryError, match="share their u-grid"):
        tr.ribaucour_cyclides(short, res.hat_s)


# ---------------------------------------------------------------------------
# Ribaucour verification and partner curves
# ---------------------------------------------------------------------------

def test_verify_ribaucour_parallel_tubes_exact():
    a = line_sphere_curve(n=64)
    b = line_sphere_curve(n=64, origin=(2.0, 0.0, 0.0))
    assert tr.verify_ribaucour(a, b) <= 1e-12         # measured 1.1e-15
    # the criterion survives without analytic jets: these lifts are
    # quadratic, so even the stencil derivatives are exact
    a_fd = SphereCurve(a.vectors, a.u_values)
    b_fd = SphereCurve(b.vectors, b.u_values)
    assert tr.verify_ribaucour(a_fd, b_fd) <= 1e-12   # measured 7.8e-15


def test_verify_ribaucour_flags_speed_mismatch():
    a = line_sphere_curve(n=32, u_min=0.5, u_max=1.0)
    b = curve_from_profile(fast_line_profile, 1.0, a.u_values)
    assert tr.verify_ribaucour(a, b) >= 1e-2          # measured 0.459


@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3])
def test_verify_ribaucour_grows_linearly_with_a_planted_bend(eps):
    # the partner of the parallel pair, its centre line bent by eps u^2
    a = line_sphere_curve(n=64)
    u = a.u_values
    centres = np.stack([np.full_like(u, 2.0), eps * u * u, u], axis=-1)
    b = SphereCurve(sphere_lift(centres, np.ones_like(u)), u)
    assert eps <= tr.verify_ribaucour(a, b) <= 3.0 * eps   # measured 1.78 eps


def test_verify_ribaucour_rejects_orthogonal_pairs():
    a = line_sphere_curve(n=64)
    # oriented contact: |c1 - c2| = r1 - r2 makes the pairing vanish
    b = line_sphere_curve(n=64, origin=(2.0, 0.0, 0.0), radius=-1.0)
    with pytest.raises(GeometryError, match="orthogonal at sample"):
        tr.verify_ribaucour(a, b)


def _per_sample_sines(stack_a, stack_b):
    return oracles.largest_sine(oracles.basis(stack_b),
                                oracles.basis(stack_a))


def _ribaucour_pairs():
    a = line_sphere_curve(n=32, u_min=0.5, u_max=1.0)
    return [
        (line_sphere_curve(n=48), line_sphere_curve(n=48,
                                                    origin=(2.0, 0.0, 0.0))),
        (circle_sphere_curve(n=48), circle_sphere_curve(n=48,
                                                        ring_radius=3.0)),
        (a, curve_from_profile(fast_line_profile, 1.0, a.u_values)),
    ]


@pytest.mark.parametrize("pair", range(3), ids=["lines", "circles",
                                                "profile"])
def test_batched_ribaucour_checks_match_per_sample_spans(pair):
    s, s_hat = _ribaucour_pairs()[pair]
    d1, d1_hat = s.derivative(1), s_hat.derivative(1)
    v, v_hat = s.vectors, s_hat.vectors
    # the references carry rounding of their own: a Ribaucour pair reads
    # 4e-16 batched and up to 1.5e-15 from the SVDs
    close = partial(np.isclose, rtol=1e-14, atol=5e-15)
    looped = _per_sample_sines(np.stack([v, d1, v_hat], axis=1),
                               np.stack([v_hat, d1_hat, v], axis=1))
    assert close(tr.verify_ribaucour(s, s_hat), np.max(looped))
    rep = tr.ribaucour_cyclides(s, s_hat)
    d1_rows = np.stack([v, v_hat, d1], axis=1)
    looped = _per_sample_sines(d1_rows, np.stack([v, v_hat, d1_hat], axis=1))
    assert close(rep.coincidence, np.max(looped))
    bases, _, _ = tr._d1_spans(s, s_hat)
    assert np.all(oracles.largest_sine(bases, oracles.basis(d1_rows))
                  <= 1e-14)


@pytest.mark.parametrize("pair", range(3), ids=["lines", "circles",
                                                "profile"])
def test_verify_ribaucour_is_the_cyclide_coincidence(pair):
    # both read the one D1 span of the pair, so they agree bit for bit
    s, s_hat = _ribaucour_pairs()[pair]
    assert (tr.verify_ribaucour(s, s_hat)
            == tr.ribaucour_cyclides(s, s_hat).coincidence)


def planted(curve, *samples):
    """curve with its derivative made parallel to it at the given samples,
    so every span containing both drops rank there."""
    d1, d2 = curve.derivative(1), curve.derivative(2)
    d1 = d1.copy()
    d1[list(samples)] = 3.0 * curve.vectors[list(samples)]
    return SphereCurve(curve.vectors, curve.u_values, d1=d1, d2=d2)


@pytest.mark.parametrize("samples, named", [((23,), 23), ((40, 11), 11)])
def test_planted_rank_loss_names_the_first_sample(samples, named):
    s, s_hat = _ribaucour_pairs()[0]
    bad = planted(s, *samples)
    with pytest.raises(GeometryError,
                       match=f"^span degenerates at sample {named}$"):
        tr.verify_ribaucour(bad, s_hat)
    with pytest.raises(GeometryError,
                       match=f"^cyclide span degenerates at sample {named}$"):
        tr.ribaucour_cyclides(bad, s_hat)


def test_partner_curve_is_ribaucour_by_construction():
    s = line_sphere_curve(n=64)
    y0 = sphere_lift(np.array([2.0, 0.0, 0.0]), 1.0)
    part = tr.ribaucour_partner_curve(s, beta=1.0, s_hat0=y0)
    assert part.nullity() <= 1e-14                    # measured 4.4e-16
    assert tr.verify_ribaucour(s, part) <= 1e-12      # measured 4.7e-16


def test_partner_curve_discrete_rate():
    results = {}
    for n in (64, 128):
        s = line_sphere_curve(n=n)
        y0 = sphere_lift(np.array([2.0, 0.0, 0.0]), 1.0)
        part = tr.ribaucour_partner_curve(s, beta=1.0, s_hat0=y0)
        bare = SphereCurve(part.vectors, part.u_values)
        s_bare = SphereCurve(s.vectors, s.u_values)
        results[n] = tr.verify_ribaucour(s_bare, bare)
        assert results[n] <= 10.0 * s.du ** 2         # 8.1e-5 vs 1.0e-2
    assert results[64] / results[128] >= 3.0          # measured 4.07


def test_partner_curve_guards():
    s = line_sphere_curve(n=64)
    with pytest.raises(GeometryError, match="not null"):
        tr.ribaucour_partner_curve(s, 1.0, np.eye(6)[0])
    with np.errstate(all="raise"), pytest.raises(GeometryError,
                                                 match="not null"):
        tr.ribaucour_partner_curve(s, 1.0, np.zeros(6))
    # the flow never divides by the pairing (s, shat): started in oriented
    # contact with the first sphere, it leaves contact and stays null
    y_start = sphere_lift(np.array([2.0, 0.0, -1.0]), -1.0)
    part = tr.ribaucour_partner_curve(s, 1.0, y_start)
    pairing = inner(s.vectors, part.vectors)
    assert pairing[0] == 0.0 and np.all(pairing[1:] < 0.0)
    assert part.nullity() <= 1e-14                    # measured 7.6e-16


@pytest.mark.parametrize("make", [circle_sphere_curve, helix_sphere_curve],
                         ids=["circle", "helix"])
def test_partner_flow_keeps_curved_partners_null(make):
    s = make(n=64)
    part = tr.ribaucour_partner_curve(
        s, 1.0, sphere_lift(np.array([3.0, 0.0, 0.0]), 0.5))
    assert part.nullity() <= 1e-14                    # 2.0e-16 / 2.4e-15
    # the helix partner's norm grows to 1.7e12 while s stays near unit
    # scale: span ranks read each row at its own scale, so the pair is not
    # called degenerate (it was, at sample 48, with one scale per stack)
    assert tr.verify_ribaucour(s, part) <= 1e-12      # 1.5e-15 / 2.2e-14


@pytest.mark.parametrize("make", [cylinder, torus],
                         ids=["cylinder", "torus"])
def test_partner_of_the_special_lift_is_the_darboux_section(make):
    # one section routine: the partner flow on sigma1 with beta = -m is
    # the Darboux section, bit for bit, and on the periodic torus both run
    # the wrap edge to the same seam
    _, grid, omega = make()
    phi0 = tr.darboux_initial_condition(seed_space(), omega.curve.vectors[0],
                                        seed=7)
    res = tr.darboux_transform(grid, omega, 0.5, phi0)
    part = tr.ribaucour_partner_curve(omega.curve, -0.5, phi0)
    assert np.array_equal(part.vectors, res.hat_s.vectors)
    assert np.array_equal(part.d1, res.hat_s.d1)
    assert part.periodic_u == res.hat_s.periodic_u
    seam = tr._section(omega.curve, -0.5, phi0)[1]
    assert seam == res.holonomy_mismatch
    assert (seam is None) == (not omega.curve.periodic_u)


def test_periodic_partner_stays_open_when_its_seam_does_not_close():
    s = circle_sphere_curve(n=64)
    y0 = sphere_lift(np.array([3.0, 0.0, 0.0]), 0.5)
    part = tr.ribaucour_partner_curve(s, 1.0, y0)
    assert tr._section(s, 1.0, y0)[1] > HOLONOMY_TOL  # measured 0.527
    assert not part.periodic_u
    # the wrap edge only measures the seam: the samples are the open
    # chain's
    chain = SphereCurve(s.vectors, s.u_values, d1=s.d1)
    assert np.array_equal(part.vectors, tr._flow(tr._connection(chain), y0,
                                                 1.0))


# ---------------------------------------------------------------------------
# Dupin cyclides from sphere triples
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def torus_cyclide():
    curve = circle_sphere_curve(n=96, ring_radius=2.0, radius=1.0)
    a, b, c = curve.vectors[[0, 32, 64]]
    return curve, tr.dupin_from_spheres(a, b, c)


def families(cyc):
    """Orthonormal bases of the sphere space D of a cyclide and of its
    complement, spanned by their frames."""
    return oracles.basis(cyc.frames)


def test_dupin_from_tube_spheres():
    curve, cyc = torus_cyclide()
    spaces = families(cyc)
    assert oracles.signature(spaces).tolist() == [[2, 1, 0]] * 2
    gaps = containment_gap(spaces[0], curve.vectors)
    assert np.max(gaps) <= 1e-12                      # measured 3.0e-16


def test_dupin_second_family_orientation():
    _, cyc = torus_cyclide()
    _, dperp = families(cyc)
    # the big sphere through the torus equator, outward oriented
    eq = sphere_lift(np.zeros(3), 3.0)
    assert containment_gap(dperp, eq) <= 1e-12       # measured 2.5e-16
    # flipping the orientation leaves the family
    assert containment_gap(dperp, sphere_lift(np.zeros(3), -3.0)) >= 0.1


def test_dupin_circle_samples_are_null_members():
    _, cyc = torus_cyclide()
    for frame, sub in zip(cyc.frames, families(cyc)):
        v = circle_points(frame, 0.7)
        assert abs(inner(v, v)) <= 1e-12 * (v @ v)
        assert containment_gap(sub, v) <= 1e-12


def test_dupin_point_residual_on_and_off_torus():
    _, cyc = torus_cyclide()
    th = np.linspace(0.0, 2.0 * np.pi, 40)
    uu, vv = np.meshgrid(th, th, indexing="ij")
    pts = np.stack([(2 + np.cos(vv)) * np.cos(uu),
                    (2 + np.cos(vv)) * np.sin(uu), np.sin(vv)], axis=-1)
    sq = np.sum(pts ** 2, axis=-1, keepdims=True)
    lifts = np.concatenate([pts, 0.5 * (1 - sq), 0.5 * (1 + sq),
                            np.zeros_like(sq)], axis=-1).reshape(-1, 6)
    assert tr.cyclide_point_residual(cyc.frames, lifts).max() <= 1e-12  # 3.3e-16

    off = pts * 1.1
    sq = np.sum(off ** 2, axis=-1, keepdims=True)
    lifts_off = np.concatenate([off, 0.5 * (1 - sq), 0.5 * (1 + sq),
                                np.zeros_like(sq)], axis=-1).reshape(-1, 6)
    assert tr.cyclide_point_residual(cyc.frames, lifts_off).min() >= 1e-3  # 2.3e-3


def test_batched_cyclides_match_the_oracle():
    rng = np.random.default_rng(3)
    bases = orthonormal_rows(rng.normal(size=(60, 3, 6)))
    names = [f"sample {i}" for i in range(60)]
    cyclides, frames, failures = tr.dupin_from_subspaces(bases, names)
    wrong = failures[0][0]
    assert 0 < np.sum(wrong) < 60
    assert not np.any(failures[1][0][~wrong])
    signature = oracles.signature(bases)
    assert np.array_equal(wrong, np.any(signature != (2, 1, 0), axis=-1))
    complements = complement_rows(bases[~wrong])
    assert np.all(oracles.signature(complements) == (2, 1, 0))
    for i, perp in zip(np.flatnonzero(~wrong), complements):
        # each frame carries the bits of its one subspace's frame
        assert np.array_equal(frames[i, 0], lightcone_frames(bases[i])[0])
        assert np.array_equal(frames[i, 1], lightcone_frames(perp)[0])
        assert np.array_equal(cyclides[i].frames, frames[i])
    first = int(np.argmax(wrong))
    with pytest.raises(SignatureError) as caught:
        raise_first_failure(failures)
    assert str(caught.value) == (
        f"cyclide subspace (sample {first}) has signature "
        f"{tuple(signature[first].tolist())}, need (2, 1, 0)")


def test_dupin_rejects_degenerate_triples():
    curve, _ = torus_cyclide()
    a, b, _ = curve.vectors[[0, 32, 64]]
    with pytest.raises(SignatureError, match="pencil"):
        tr.dupin_from_spheres(a, b, 2.0 * a + b)
    with pytest.raises(SignatureError, match="signature"):
        tr.dupin_from_spheres(sphere_lift(np.zeros(3), 1.0),
                              sphere_lift(np.zeros(3), 2.0),
                              sphere_lift(np.zeros(3), 3.0))


# ---------------------------------------------------------------------------
# Calapso transforms
# ---------------------------------------------------------------------------

def test_calapso_cylinder_nominal():
    curve, grid, omega = cylinder()
    gauge, out = tr.calapso_transform(grid, omega, 1.0)
    assert gauge.ortho_defect <= 1e-10                # measured 4.1e-15
    assert tr.gauge_edge_residual(gauge, omega) <= 1e-4   # 7.7e-6
    assert validate_legendre(out).passed

    dq = np.max(np.abs(tr.calapso_quadratic_form(gauge, omega) - omega.q_uu))
    assert dq <= 1e-10                                # measured 2.4e-15

    # the transform stays a channel in the same direction, and the sphere
    # field maps by the gauge itself
    assert is_channel(out).circular("dir1")
    mapped = gauge.push(curvature_data(grid).s1)
    gap = np.max(projective_gap(curvature_data(out).s1, mapped))
    assert gap <= 1e-12                               # measured 9.4e-16


def test_a_grid_of_a_broadcast_lift_transforms_as_one_of_its_copy():
    # a grid stores C-ordered frames whatever layout its caller passes, so
    # building it from a broadcast sigma, as envelope does, moves no bit of
    # a Calapso or Darboux output
    curve = line_sphere_curve(n=32)
    tau = envelope(curve, n_theta=32).tau
    view = np.broadcast_to(curve.vectors[:, None, :], tau.shape)
    phi0 = tr.darboux_initial_condition(seed_space(), curve.vectors[0], seed=7)
    outputs = []
    for sigma in (view, view.copy()):
        grid = LegendreGrid(sigma, tau, curve.u_values,
                            np.arange(32) * (2.0 * np.pi / 32),
                            periodic_theta=True)
        assert grid.sigma.flags.c_contiguous
        omega = omega0_form(grid, curve.vectors)
        calapso = tr.calapso_transform(grid, omega, 1.0)[1]
        darboux = tr.darboux_transform(grid, omega, 1.0, phi0).hat_f
        outputs.append([calapso.sigma, calapso.tau, darboux.sigma,
                        darboux.tau])
    for from_view, from_copy in zip(*outputs):
        assert np.array_equal(from_view, from_copy)


def test_calapso_substep_refinement_and_gate(monkeypatch):
    # the gauge converges at fourth order under substep doubling, and its
    # metric defect, the number the demos gate on, stays at rounding at
    # every substep count (the planted-fault test below shows it can fail)
    _, grid, omega = torus()
    gauges = at_substeps(monkeypatch, (2, 4, 8),
                         lambda: tr.calapso_transform(grid, omega, 1.0)[0])
    (a, b, c) = (g.Tinv[-1] for g in gauges)
    order = np.log2(np.max(np.abs(a - b)) / np.max(np.abs(b - c)))
    assert 3.7 <= order <= 4.3                        # measured 3.99
    assert max(g.ortho_defect for g in gauges) <= 1e-12   # 1.4e-13


def _worst_entry_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("channel, lam", [(torus, 2.0), (helix, 0.5)],
                         ids=["torus", "helix"])
def test_flows_converge_at_fourth_order_on_curved_channels(channel, lam,
                                                           monkeypatch):
    # each flow against the same data at 4x substeps, at n and 2n: the gap
    # is the stepper's own error and falls 16x, while the metric defects,
    # taken against the largest scale the flow reaches, stay at rounding
    # (relative to the sample's own scale the helix section reads 1.8e-12
    # at n = 64: it spans a factor 50 in norm)
    errors = {"darboux": [], "calapso": []}
    for n in (64, 128):
        curve, grid, omega = channel(n)
        phi0 = tr.darboux_initial_condition(seed_space(), curve.vectors[0],
                                            seed=7)
        phi, phi_fine = at_substeps(monkeypatch, (4, 16), lambda: (
            tr.darboux_transform(grid, omega, 1.0, phi0).hat_s.vectors))
        gauge, fine = at_substeps(monkeypatch, (4, 16), lambda: (
            tr.calapso_transform(grid, omega, lam)[0]))
        errors["darboux"].append(_worst_entry_gap(phi, phi_fine))
        errors["calapso"].append(_worst_entry_gap(gauge.Tinv, fine.Tinv))
        null = np.max(np.abs(inner(phi, phi))) / np.max(np.sum(phi * phi,
                                                               axis=-1))
        assert null <= 1e-12                          # measured <= 2.0e-15
        # measured <= 2.1e-14
        assert gauge.ortho_defect / np.max(np.abs(gauge.T)) ** 2 <= 1e-12
    for flow, (coarse, refined) in errors.items():
        assert np.log2(coarse / refined) >= 3.5, flow  # measured 3.98-4.06


@pytest.mark.parametrize("key, bound", [("null_drift", 1e-10),
                                        ("ortho_defect", 1e-8)])
def test_drift_keys_grow_linearly_with_a_planted_fault(key, bound,
                                                       monkeypatch):
    # the flows keep their samples in O(4,2) by construction, so the two
    # drift keys read rounding; a generator with a symmetric part eps * G
    # (outside o(4,2)) must move them linearly in eps, up to 1e3 times the
    # bounds the demos assert on them
    curve, grid, omega = cylinder()
    p, q = tr._connection(omega.curve)
    phi0 = tr.darboux_initial_condition(seed_space(), curve.vectors[0], seed=0)

    def measured(eps):
        planted = (p + eps * (omega.curve.du / 4) * METRIC, q)
        monkeypatch.setattr(tr, "_connection", lambda *_: planted)
        if key == "null_drift":
            return tr.darboux_transform(grid, omega, 1.0, phi0).null_drift
        return tr.calapso_transform(grid, omega, 1.0)[0].ortho_defect

    # measured: null_drift 3.3e-16, 2.8e-6, 2.8e-4; ortho_defect 4.1e-15,
    # 1.5e-5, 1.5e-3
    clean, small, large = (measured(eps) for eps in (0.0, 1e-6, 1e-4))
    assert clean <= 1e-13
    assert small >= 1e5 * clean
    assert large >= 1e3 * bound
    assert large / small >= 90.0                      # linear: 100


def stepwise_magnus_pade(terms, y0, coeff):
    """Reference: one substep at a time, y <- r(W) y with the whole Pade
    map r(W) = (I - W/2 + W^2/12)^-1 (I + W/2 + W^2/12)."""
    p, q = terms
    out = [y0]
    y = y0
    for e in range(p.shape[0]):
        for k in range(p.shape[1]):
            w = coeff * p[e, k] + coeff ** 2 * q[e, k]
            even = np.eye(6) + w @ w / 12.0
            y = np.linalg.solve(even - 0.5 * w, (even + 0.5 * w) @ y)
        out.append(y)
    return np.array(out)


@pytest.mark.parametrize("lam", [-1.0, 0.5, 2.0])
def test_batched_flow_matches_stepwise_steps_on_a_torus(lam):
    # on a curved channel the Hermite nodes are not exact, so both Magnus
    # terms of every substep carry weight
    _, _, omega = torus()
    terms = tr._connection(omega.curve)
    phi0 = np.array([1.0, 0.5, -0.25, 2.0, 0.3, 1.5])
    for y0 in (np.eye(6), phi0):
        got = tr._flow(terms, y0, -lam)
        want = stepwise_magnus_pade(terms, y0, -lam)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("lam", [-1.0, 2.0])
def test_batched_flow_matches_stepwise_steps_on_a_long_thin_cylinder(lam):
    # 1,023 edges: the per-edge increments fold four substeps each, and
    # their rounding must not build up along u
    curve = line_sphere_curve(n=1024)
    omega = omega0_form(envelope(curve, n_theta=8), curve.vectors)
    terms = tr._connection(omega.curve)
    phi0 = np.array([1.0, 0.5, -0.25, 2.0, 0.3, 1.5])
    for y0 in (np.eye(6), phi0):
        got = tr._flow(terms, y0, -lam)
        want = stepwise_magnus_pade(terms, y0, -lam)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_rk4_flow_is_fourth_order_under_substep_doubling(monkeypatch):
    # the flow's Magnus-Pade stepper keeps the fourth order of the RK4 it
    # replaced: the whole periodic flow of the torus, end to end
    _, _, omega = torus()
    ends = at_substeps(monkeypatch, (2, 4, 8), lambda: tr._flow(
        tr._connection(omega.curve), np.eye(6), -1.0)[-1])
    first = np.max(np.abs(ends[0] - ends[1]))
    second = np.max(np.abs(ends[1] - ends[2]))
    assert 3.7 <= np.log2(first / second) <= 4.3      # measured 3.99


def test_magnus_terms_are_built_once_per_structure(monkeypatch):
    curve = line_sphere_curve(n=16)
    grid = envelope(curve, n_theta=8)
    omega = omega0_form(grid, curve.vectors)
    builds = []
    original = tr._edge_connection

    def counting(*args):
        builds.append(1)
        return original(*args)
    monkeypatch.setattr(tr, "_edge_connection", counting)
    for lam in (-1.0, 0.5, 1.0, 2.0):
        tr.calapso_transform(grid, omega, lam)
    phi0 = tr.darboux_initial_condition(seed_space(), curve.vectors[0], seed=7)
    tr.darboux_transform(grid, omega, 1.0, phi0)
    tr.ribaucour_partner_curve(omega.curve, -1.0, phi0)
    assert len(builds) == 1
    p, q = tr._connection(omega.curve)
    assert not (p.flags.writeable or q.flags.writeable)
    monkeypatch.setattr(tr, "SUBSTEPS", 2)
    assert tr._connection(omega.curve)[0].shape == (15, 2, 6, 6)
    assert len(builds) == 2


@settings(max_examples=6, deadline=None)
@given(lam=st.floats(0.25, 2.0))
def test_calapso_property_gauge_consistency(lam):
    curve, grid, omega = cylinder()
    gauge, out = tr.calapso_transform(grid, omega, lam)
    assert gauge.ortho_defect <= 1e-8
    dq = np.max(np.abs(tr.calapso_quadratic_form(gauge, omega) - omega.q_uu))
    assert dq <= 1e-8
    assert np.max(np.abs(out.sigma - gauge.push(grid.sigma))) <= 1e-12
