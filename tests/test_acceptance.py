"""End-to-end acceptance checks, one per criterion, each printing a single
pass/fail line with its measured values (run with -s to see the lines for
passing tests; failures always show them).

These deliberately re-derive their expectations from scratch -- closed-form
geometry, convergence ratios, independent reconstructions -- rather than
trusting any intermediate the library reports.
"""

from functools import lru_cache

import numpy as np

from liechannel.channel import (
    SphereCurve,
    conserved_quantity,
    curve_from_profile,
    envelope,
    line_sphere_curve,
    omega0_form,
    special_lift,
)
from liechannel.conformal import circle_congruence_report, tube_sphere_curve
from liechannel.core import (
    inner,
    plane_lift,
    point_lift,
    project_to_euclidean,
    sphere_lift,
)
from liechannel.demos import demo_config, demo_names
from liechannel.legendre import (
    curvature_data,
    is_channel,
    make_legendre_from_surface,
    spherical_line_residuals,
    validate_legendre,
)
from liechannel.mesh import grid_point_spheres
from liechannel.scene import run_scene
from liechannel.transforms import (
    calapso_quadratic_form,
    calapso_transform,
    darboux_initial_condition,
    darboux_transform,
    ribaucour_cyclides,
    ribaucour_partner_curve,
    verify_ribaucour,
)

import presets

E6 = np.eye(6)[5]


def _verdict(number, ok, detail):
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def cylinder(n):
    curve = line_sphere_curve(n=n)
    grid = envelope(curve, n_theta=n)
    omega = omega0_form(grid, curve.vectors)
    return curve, grid, omega


def seed_space():
    return np.eye(6)[[0, 3, 4]]


def _unit(rows):
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def _fast_line_profile(u):
    z = np.zeros_like(u)
    c = np.stack([np.full_like(u, 2.0), z, 2.0 * u], axis=-1)
    c1 = np.stack([z, z, np.full_like(u, 2.0)], axis=-1)
    return c, c1, np.zeros_like(c)


def test_criterion_01_lift_projection_roundtrip():
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for _ in range(1000):
        scale = rng.uniform(0.2, 5.0)
        kind = rng.integers(3)
        if kind == 0:
            c = rng.uniform(-5.0, 5.0, 3)
            r = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 4.0)
            obj = project_to_euclidean(scale * sphere_lift(c, r))
            err = max(np.max(np.abs(obj.center - c)), abs(obj.radius - r))
        elif kind == 1:
            n = _unit(rng.normal(size=3))
            d = rng.uniform(-5.0, 5.0)
            obj = project_to_euclidean(scale * plane_lift(n, d))
            err = max(np.max(np.abs(obj.normal - n)), abs(obj.offset - d))
        else:
            p = rng.uniform(-5.0, 5.0, 3)
            obj = project_to_euclidean(scale * point_lift(p))
            err = np.max(np.abs(obj.position - p))
        worst = max(worst, float(err))
    _verdict(1, worst <= 1e-12,
             f"max field error {worst:.3e} over 1000 seeded draws")


def test_criterion_02_tangency_identity():
    rng = np.random.default_rng(414213)
    worst = 0.0
    for _ in range(1000):
        c1, c2 = rng.uniform(-5.0, 5.0, (2, 3))
        r1, r2 = rng.uniform(-4.0, 4.0, 2)
        value = (inner(sphere_lift(c1, r1), sphere_lift(c2, r2))
                 + 0.5 * (np.sum((c1 - c2) ** 2) - (r1 - r2) ** 2))
        worst = max(worst, abs(float(value)))
    _verdict(2, worst <= 1e-10,
             f"identity residual {worst:.3e} over 1000 random pairs")


def test_criterion_03_envelope_oracle():
    _, grid, _ = cylinder(64)
    positions, finite = grid_point_spheres(grid.sigma, grid.tau)
    dist = np.hypot(positions[..., 0], positions[..., 1])
    gap = float(np.max(np.abs(dist[finite] - 1.0)))

    contact = {n: validate_legendre(cylinder(n)[1]).contact
               for n in (64, 128)}
    ratio = contact[64] / contact[128]
    ok = gap <= 1e-8 and finite.all() and 3.5 <= ratio <= 4.5
    _verdict(3, ok, f"axis distance error {gap:.3e} on 64x64; contact "
                    f"residual ratio 64/128 = {ratio:.3f}")


def test_criterion_04_channel_detection():
    reports = {}
    for name in ("helix_tube", "torus", "ellipsoid"):
        builder = getattr(presets, name + "_surface")
        grid = make_legendre_from_surface(*builder(n_u=48, n_theta=48))
        reports[name] = is_channel(grid)
    expected = {"helix_tube": "dir1", "torus": "both", "ellipsoid": "none"}
    dirs = {k: v.circular_dir for k, v in reports.items()}
    agree = all(v.consistent for v in reports.values())
    ok = dirs == expected and agree
    _verdict(4, ok, f"directions {dirs}; rate and coupling criteria "
                    f"{'agree' if agree else 'DISAGREE'} on all three")


def test_criterion_05_omega0_structure():
    # d(eta) = 0 holds exactly when the u-only lift is the circular
    # curvature sphere at every grid point; lift_gap measures that
    gaps = {n: cylinder(n)[2].lift_gap for n in (64, 128)}
    q_dev = float(np.max(np.abs(cylinder(128)[2].q_uu + 1.0)))
    # tilt every generator sphere by the angle arctan(eps) towards e1, which
    # is Euclidean-orthogonal to each lift of a sphere centred on the z-axis
    curve, grid, _ = cylinder(64)
    eps = 1e-9
    scale = np.linalg.norm(curve.vectors, axis=-1, keepdims=True)
    tilted = curve.vectors + eps * scale * np.eye(6)[0]
    planted = omega0_form(grid, tilted).lift_gap
    ok = (max(gaps.values()) <= 1e-12 and eps / 10 <= planted <= 10 * eps
          and q_dev <= 1e-10)
    _verdict(5, ok, f"lift gap {gaps[64]:.1e} (64), {gaps[128]:.1e} (128), "
                    f"{planted:.2e} with a planted tilt of {eps:.0e}; "
                    f"|q_uu + 1| {q_dev:.3e}")


def test_criterion_06_conserved_quantity():
    curve, grid, omega = cylinder(64)
    lambdas = (-1.0, 1.0, 2.0, 3.0)
    good = conserved_quantity(omega, E6, lambdas)
    worst = max(good.residuals.values())

    unit = special_lift(curve, "unit")
    omega_unit = omega0_form(grid, unit)
    control = conserved_quantity(omega_unit, E6, lambdas, strict=False)
    margin = max(control.residuals.values())
    ok = good.passed and worst <= 1e-8 and not control.passed \
        and margin >= 1e-3
    _verdict(6, ok, f"parallel residual {worst:.3e} for lambda in "
                    f"{list(lambdas)}; mis-normalised control fails "
                    f"by {margin:.3e}")


def test_criterion_07_darboux_suite():
    curve, grid, omega = cylinder(64)
    drift = vr = coincidence = constancy = sphericity = 0.0
    validated = channel = True
    for m in (0.5, -0.5, 1.0, -1.0, 2.0):
        for seed in range(5):
            phi0 = darboux_initial_condition(seed_space(), omega.sigma1[0],
                                             seed)
            res = darboux_transform(grid, omega, m, phi0)
            drift = max(drift, res.null_drift)
            validated &= validate_legendre(res.hat_f).passed
            channel &= is_channel(res.hat_f).circular("dir1")
            vr = max(vr, verify_ribaucour(curve, res.hat_s))
            rep = ribaucour_cyclides(curve, res.hat_s, f=grid, f_hat=res.hat_f)
            coincidence = max(coincidence, rep.coincidence)
            constancy = max(constancy, rep.theta_constancy)
            sphericity = max(sphericity, np.max(spherical_line_residuals(
                res.hat_f, "u", range(0, 64, 8))[0]))
    ok = (drift <= 1e-10 and validated and channel and vr <= 1e-6
          and coincidence <= 1e-6 and constancy <= 1e-6
          and sphericity <= 1e-8)
    _verdict(7, ok, f"25 transforms: drift {drift:.1e}, ribaucour "
                    f"{vr:.1e}, coincidence {coincidence:.1e}, "
                    f"D1 constancy {constancy:.1e}, theta-line sphericity "
                    f"{sphericity:.1e}")


def test_criterion_08_calapso_suite():
    _, grid, omega = cylinder(64)
    ortho = q_dev = map_gap = 0.0
    circular = True
    for lam in (0.5, 1.0, 2.0):
        gauge, out = calapso_transform(grid, omega, lam)
        ortho = max(ortho, gauge.ortho_defect)
        q_dev = max(q_dev, float(np.max(np.abs(
            calapso_quadratic_form(gauge, omega) - omega.q_uu))))
        circular &= is_channel(out).circular("dir1")
        pushed = _unit(gauge.push(omega.sigma1))
        s1 = _unit(curvature_data(out).s1)
        map_gap = max(map_gap, float(np.max(np.minimum(
            np.linalg.norm(s1 - pushed[:, None], axis=-1),
            np.linalg.norm(s1 + pushed[:, None], axis=-1)))))
    ok = (ortho <= 1e-8 and q_dev <= 1e-8 and circular and map_gap <= 1e-6)
    _verdict(8, ok, f"gauge orthogonality {ortho:.1e}, quadratic form "
                    f"deviation {q_dev:.1e}, sphere transport gap "
                    f"{map_gap:.1e}, circular direction "
                    f"{'preserved' if circular else 'LOST'}")


def test_criterion_09_ribaucour_exactness():
    exact = verify_ribaucour(line_sphere_curve(n=64),
                             line_sphere_curve(n=64, origin=(2.0, 0.0, 0.0)))

    u = np.linspace(0.5, 1.0, 64)
    slow = line_sphere_curve(n=64, u_min=0.5, u_max=1.0)
    fast = curve_from_profile(_fast_line_profile, 1.0, u)
    mismatch = verify_ribaucour(slow, fast)

    partner_ok = True
    rates = {}
    for n in (64, 128):
        s = line_sphere_curve(n=n)
        part = ribaucour_partner_curve(s, beta=1.0,
                                       s_hat0=sphere_lift(
                                           np.array([2.0, 0.0, 0.0]), 1.0))
        rate = verify_ribaucour(SphereCurve(s.vectors, s.u_values),
                                SphereCurve(part.vectors, part.u_values))
        rates[n] = rate
        partner_ok &= rate <= 10.0 * s.du ** 2
    ok = exact <= 1e-10 and mismatch >= 1e-2 and partner_ok
    _verdict(9, ok, f"parallel pair {exact:.1e}, mismatched pair "
                    f"{mismatch:.3f} on |u| >= 0.5, partner curves "
                    f"{rates[64]:.1e}/{rates[128]:.1e} vs 10h^2")


def test_criterion_10_figure_demo(tmp_path):
    report = run_scene(demo_config("cylinder-darboux"), tmp_path)
    meshes = {m["object"]: m for m in report["meshes"]}
    tubes = {"cylinder", "hat"} <= set(meshes)
    cyclides = sum(name.startswith("cyclide_") for name in meshes)
    files = all((tmp_path / m["path"]).exists()
                for m in report["meshes"])
    contact_stage = next(s for s in report["stages"]
                         if s["id"] == "tangent-cyclides")
    contact = contact_stage["measurements"]["contact_residual"]
    lines = contact_stage["measurements"]["line_residual"]
    ok = (report["passed"] and tubes and cyclides >= 3 and files
          and contact <= 1e-8 and lines <= 1e-8)
    _verdict(10, ok, f"demo passed={report['passed']}, {cyclides} cyclide "
                     f"meshes, oriented-contact residual {contact:.1e}, "
                     f"curvature lines on cyclides {lines:.1e}")


def test_criterion_11_symmetry_breaking():
    # breaking the symmetry with p = e6 leaves the point spheres, so a
    # space curve is the sphere curve of radius 0
    axis = line_sphere_curve(n=64, radius=0.0)
    offset = line_sphere_curve(n=64, radius=0.0, origin=(2.0, 0.0, 0.0))
    point_level = verify_ribaucour(axis, offset)
    agreement = 0.0
    tube_ok = True
    for radius in (0.3, 1.0):
        tube_level = verify_ribaucour(tube_sphere_curve(axis, radius),
                                      tube_sphere_curve(offset, radius))
        agreement = max(agreement, abs(tube_level - point_level))
        tube_ok &= tube_level <= 1e-8

    u = np.linspace(0.5, 1.0, 64)
    slow = curve_from_profile(lambda t: (
        np.stack([0 * t, 0 * t, t], -1),
        np.stack([0 * t, 0 * t, 1 + 0 * t], -1),
        np.zeros((t.size, 3))), 0.0, u)
    fast = curve_from_profile(_fast_line_profile, 0.0, u)
    neg_point = verify_ribaucour(slow, fast)
    neg_tubes = min(
        verify_ribaucour(tube_sphere_curve(slow, r),
                         tube_sphere_curve(fast, r)) for r in (0.3, 1.0))

    circles = circle_congruence_report(axis, offset)
    ok = (point_level <= 1e-8 and tube_ok and agreement <= 1e-8
          and neg_point >= 1e-2 and neg_tubes >= 1e-2
          and circles.membership <= 1e-8
          and max(circles.tangency1, circles.tangency2) <= 1e-4)
    _verdict(11, ok, f"curve/tube residual agreement {agreement:.1e}; "
                     f"negative pair detected at every level "
                     f"({neg_point:.2f}/{neg_tubes:.2f}); circle "
                     f"congruence membership {circles.membership:.1e}, "
                     f"tangency {max(circles.tangency1, circles.tangency2):.1e} rad")


def test_criterion_12_deterministic_reports(tmp_path):
    blobs = []
    for run in ("first", "second"):
        base = tmp_path / run
        for name in demo_names():
            run_scene(demo_config(name), base / name)
        blobs.append(b"".join((base / name / "report.json").read_bytes()
                              for name in demo_names()))
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    _verdict(12, ok, f"full demo suite reports byte-identical across reruns "
                     f"({len(blobs[0])} bytes, {len(demo_names())} demos)")
