"""Curves in conformal 3-space as degenerate sphere curves.

Breaking the symmetry with a timelike direction p singles out the sphere
lifts orthogonal to p; for the default p = e6 these are exactly the point
spheres, so a space curve becomes the radius-zero case of the sphere-curve
machinery.  Tubes arise by parallel transformation of the curve's contact
lift, Ribaucour pairs of curves reduce to the sphere-curve criterion on
point lifts, and the circle congruence enveloped by such a pair is the
lightcone circle of the span {sigma, sigma', sigma_hat}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channel import SphereCurve, curve_from_profile, envelope
from .core import (
    DIM,
    GeometryError,
    circle_failure,
    circle_phase,
    circle_points,
    containment_gap,
    first_failure,
    inner,
    lightcone_frames,
    parallel_transform_matrix,
    sphere_lift,
)
from .legendre import LegendreGrid
from .mesh import grid_point_spheres
from .transforms import _span_pair, verify_ribaucour
from . import stencils

E6 = np.eye(DIM)[5]


# ---------------------------------------------------------------------------
# curves and their point-sphere lifts
# ---------------------------------------------------------------------------

@dataclass
class ConformalCurve:
    """A regular curve in Euclidean 3-space with its p-orthogonal lift."""

    gamma: np.ndarray              # (n, 3)
    u_values: np.ndarray
    p_vec: np.ndarray
    lift: SphereCurve
    periodic_u: bool = False

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.p_vec = np.asarray(self.p_vec, dtype=float).reshape(DIM)
        if inner(self.p_vec, self.p_vec) >= 0.0:
            raise GeometryError("symmetry-breaking direction must be "
                                "timelike")
        pair = np.abs(inner(self.lift.vectors, self.p_vec))
        scale = (np.linalg.norm(self.lift.vectors, axis=-1)
                 * np.linalg.norm(self.p_vec))
        if np.max(pair / scale) > 1e-10:
            raise GeometryError("lift is not orthogonal to p")
        self.lift.check()

    @property
    def n(self) -> int:
        return self.gamma.shape[0]


def _p_radius(centers: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Signed radii making sphere lifts orthogonal to a timelike p.

    The pairing (sphere_lift(c, r), p) is quadratic in r; point spheres
    solve it for p = e6, and for a general p the family tilts into genuine
    spheres.  Picks the root of smaller magnitude (the branch through the
    point spheres); raises when no real radius exists.
    """
    sq = np.sum(centers ** 2, axis=-1)
    a = 0.5 * (p[3] + p[4])
    b = -p[5]
    d = centers @ p[:3] + 0.5 * (1.0 - sq) * p[3] - 0.5 * (1.0 + sq) * p[4]
    if abs(a) < 1e-14 * np.linalg.norm(p):
        if abs(b) < 1e-14 * np.linalg.norm(p):
            raise GeometryError("p pairs with no radius direction; cannot "
                                "build the orthogonal sphere family")
        return -d / b
    disc = b * b - 4.0 * a * d
    if np.min(disc) < 0.0:
        raise GeometryError("no real radius makes the lift orthogonal to "
                            "this p along the whole curve")
    root = np.sqrt(disc)
    r1 = (-b + root) / (2.0 * a)
    r2 = (-b - root) / (2.0 * a)
    return np.where(np.abs(r1) <= np.abs(r2), r1, r2)


def conformal_curve(source, u_values, p_vec: Optional[np.ndarray] = None,
                    periodic_u: bool = False) -> ConformalCurve:
    """Build a ConformalCurve from samples or from an analytic 2-jet.

    source is either an (n, 3) array of positions or a callable returning
    (c, c', c'') with trailing axis 3.  With the default p = e6 and a
    callable source, the lift carries the exact jet of the point spheres.
    """
    u_values = np.asarray(u_values, dtype=float)
    p = E6 if p_vec is None else np.asarray(p_vec, dtype=float).reshape(DIM)
    if inner(p, p) >= 0.0:
        raise GeometryError("symmetry-breaking direction must be timelike")

    if callable(source):
        gamma, dgamma, _ = source(u_values)
    else:
        gamma = np.asarray(source, dtype=float)
        dgamma = None
    if gamma.shape != (u_values.size, 3):
        raise GeometryError("curve samples must have shape (n, 3)")

    if np.allclose(p, E6 * p[5]) and callable(source):
        lift = curve_from_profile(source, 0.0, u_values,
                                  periodic_u=periodic_u)
    else:
        radii = (np.zeros(u_values.size) if np.allclose(p, E6 * p[5])
                 else _p_radius(gamma, p))
        lift = SphereCurve(sphere_lift(gamma, radii), u_values,
                           periodic_u=periodic_u)
    return ConformalCurve(gamma=gamma, u_values=u_values, p_vec=p,
                          lift=lift, periodic_u=periodic_u)


def line_curve(n: int = 64, u_min: float = -1.0, u_max: float = 1.0,
               direction=(0.0, 0.0, 1.0), origin=(0.0, 0.0, 0.0),
               p_vec=None) -> ConformalCurve:
    d = np.asarray(direction, dtype=float)
    o = np.asarray(origin, dtype=float)

    def jet(u):
        c = o + u[..., None] * d
        c1 = np.broadcast_to(d, c.shape).copy()
        return c, c1, np.zeros_like(c)

    return conformal_curve(jet, np.linspace(u_min, u_max, n), p_vec=p_vec)


def circle_curve(n: int = 64, radius: float = 2.0, p_vec=None) -> ConformalCurve:
    """Round circle in the xy-plane, periodic parametrisation."""
    u = np.arange(n) * (2.0 * np.pi / n)

    def jet(t):
        c, s = np.cos(t), np.sin(t)
        z = np.zeros_like(t)
        val = radius * np.stack([c, s, z], axis=-1)
        d1 = radius * np.stack([-s, c, z], axis=-1)
        return val, d1, -val

    return conformal_curve(jet, u, p_vec=p_vec, periodic_u=True)


# ---------------------------------------------------------------------------
# Legendre lifts and tubes
# ---------------------------------------------------------------------------

def curve_legendre_lift(curve: ConformalCurve, n_theta: int = 64) -> LegendreGrid:
    """Contact lift of a space curve: the envelope of its point spheres.

    The circular curvature sphere family of the result is the point-sphere
    lift itself, hence orthogonal to p at every sample.
    """
    grid = envelope(curve.lift, n_theta=n_theta)
    grid.metadata["p_vec"] = curve.p_vec.copy()
    return grid


def tube(curve: ConformalCurve, radius: float, n_theta: int = 64) -> LegendreGrid:
    """Tube of constant radius, by parallel transformation of the lift.

    Moves every frame vector of the curve's contact lift with the radius
    shift; the sphere family of the result is the radius-`radius` sphere
    curve over the same centres.  Loss of immersion (radius at the scale
    of the curve's curvature radius) shows in validate_legendre and in the
    point-immersion metadata rather than being silently accepted.
    """
    if radius == 0.0:
        raise ValueError("tube radius must be nonzero; the curve lift "
                         "itself is the radius-0 object")
    base = curve_legendre_lift(curve, n_theta=n_theta)
    m = parallel_transform_matrix(radius)
    grid = LegendreGrid(base.sigma @ m.T, base.tau @ m.T, base.u_values,
                        base.theta_values, periodic_u=base.periodic_u,
                        periodic_theta=base.periodic_theta,
                        metadata={"p_vec": curve.p_vec.copy(),
                                  "tube_radius": float(radius)})

    # a tube at the curve's curvature radius is still a perfectly good
    # Legendre map, but its point projection pinches; that is a property
    # of the Euclidean reading, so it is measured on the point spheres
    # and reported rather than folded into the contact validation
    positions, finite = grid_point_spheres(grid.sigma, grid.tau)
    if finite.all():
        ju = stencils.diff1(positions, grid.du, axis=0,
                            periodic=grid.periodic_u)
        jt = stencils.diff1(positions, grid.dtheta, axis=1,
                            periodic=grid.periodic_theta)
        svals = np.linalg.svd(np.stack([ju, jt], axis=-1),
                              compute_uv=False)
        point_imm = float(np.min(svals[..., -1]))
        grid.metadata["point_immersion"] = point_imm
        if point_imm <= 1e-3 * float(np.median(svals[..., 0])):
            grid.metadata["regularity_note"] = (
                "point projection degenerates: the radius is at the scale "
                "of the curve's curvature radius")
    else:
        grid.metadata["regularity_note"] = (
            "some point spheres are planes; point immersion not measured")
    return grid


def tube_sphere_curve(curve: ConformalCurve, radius: float) -> SphereCurve:
    """The tube's sphere curve: the same centres with shifted radius.

    Parallel transformation is linear, so it commutes with u-derivatives;
    an analytic jet on the point lift transports to an exact jet here.
    """
    m = parallel_transform_matrix(radius)
    vecs = curve.lift.vectors @ m.T
    jet = None
    if curve.lift.jet is not None:
        base_jet = curve.lift.jet

        def jet(u):
            return tuple(arr @ m.T for arr in base_jet(u))

    return SphereCurve(vecs, curve.lift.u_values,
                       periodic_u=curve.lift.periodic_u, jet=jet,
                       metadata={"tube_radius": float(radius)})


# ---------------------------------------------------------------------------
# Ribaucour pairs of curves and their circle congruence
# ---------------------------------------------------------------------------

def _pair_guard(c1: ConformalCurve, c2: ConformalCurve):
    """Refuse curves that touch: their point lifts are orthogonal there.

    Curves of different sample counts are left to _span_pair, which
    refuses every pair not on one u-grid.
    """
    if c1.gamma.shape != c2.gamma.shape:
        return
    gap = np.linalg.norm(c1.gamma - c2.gamma, axis=-1)
    if np.min(gap) <= 1e-8 * max(1.0, np.max(np.abs(c1.gamma))):
        k = int(np.argmin(gap))
        raise GeometryError(f"curves touch at sample {k}; the point lifts "
                            "become orthogonal and the criterion degenerates")


def ribaucour_curve_check(c1: ConformalCurve, c2: ConformalCurve) -> float:
    """Ribaucour residual for a pair of space curves, via point lifts.

    The span criterion runs on the lifts; both spans lie inside the
    p-orthogonal hyperplane automatically, so no separate projection step
    is needed.
    """
    _pair_guard(c1, c2)
    return verify_ribaucour(c1.lift, c2.lift)


@dataclass
class CircleCongruenceReport:
    membership: float              # worst containment gap of either lift
    tangency1: float               # largest angle to curve 1, radians
    tangency2: float
    residuals: np.ndarray          # per-sample span residuals
    passed: bool
    notes: list = field(default_factory=list)


def circle_congruence_report(c1: ConformalCurve, c2: ConformalCurve,
                             tol: float = 1e-6, membership_tol: float = 1e-8,
                             tangency_tol: float = 1e-4,
                             fd_delta: float = 1e-3) -> CircleCongruenceReport:
    """Envelopment diagnostics of the circle congruence of a curve pair.

    membership: both point lifts must lie in the congruence span.
    tangency: the theta-derivative of the projected circle at each curve's
    phase must align with the curve's own tangent (angle between lines).
    All samples at once; the first failing sample in u order is reported.
    """
    _pair_guard(c1, c2)
    (v1, d1), (v2, d2) = ((c.lift.vectors, c.lift.derivatives()[0])
                          for c in (c1, c2))
    # the congruence span {sigma, sigma', sigma_hat} against its twin
    bases, residuals, failures = _span_pair(c1.lift, c2.lift, [v1, d1, v2],
                                            [v2, d2, v1])
    frames, signature = lightcone_frames(bases)
    lifts = np.stack([v1, v2], axis=1)                          # (n, 2, 6)
    # circle phase of each lift, then the projected circle just beside it
    phase, timelike = circle_phase(frames[:, None], lifts)
    with np.errstate(divide="ignore", invalid="ignore"):
        probe = phase[..., None] + np.array([-fd_delta, fd_delta])  # (n, 2, 2)
        pts = circle_points(frames[:, None, None], probe)
        pos = pts[..., :3] / (pts[..., 3] + pts[..., 4])[..., None]
        tangent = pos[:, :, 1] - pos[:, :, 0]
        ref = np.stack([d1[:, :3], d2[:, :3]], axis=1)
        cr = np.linalg.norm(np.cross(tangent, ref), axis=-1)
        denom = np.linalg.norm(tangent, axis=-1) * np.linalg.norm(ref, axis=-1)
        angles = np.arcsin(np.clip(cr / denom, 0.0, 1.0))
    hit = first_failure(failures + [
        (residuals > tol, lambda k: GeometryError(
            f"curves are not a Ribaucour pair at sample {k} "
            f"(span residual {residuals[k]:.3e})")),
        circle_failure(signature, lambda _: "congruence span"),
        (~timelike.all(axis=1), lambda k: GeometryError(
            "vector has no timelike component in this frame"))])
    if hit is not None:
        raise GeometryError(f"congruence fails at sample {hit[0]}") from hit[1]
    membership = float(np.max(containment_gap(bases, lifts)))
    t1, t2 = float(angles[:, 0].max()), float(angles[:, 1].max())
    passed = membership <= membership_tol and max(t1, t2) <= tangency_tol
    notes = []
    if not passed:
        notes.append("circle congruence is not enveloped at the stated "
                     "tolerances")
    return CircleCongruenceReport(membership=membership, tangency1=t1,
                                  tangency2=t2, residuals=residuals,
                                  passed=passed, notes=notes)

