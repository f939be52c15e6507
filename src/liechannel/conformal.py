"""Space curves, their tubes and Ribaucour pairs of space curves.

In Lie sphere geometry a point is a sphere of radius 0, so a space curve
is the sphere curve of its point spheres: `line_sphere_curve`,
`circle_sphere_curve` or `curve_from_profile` with radius 0.  No second
curve type is needed.  The curve's contact lift is the envelope of its
point spheres, and a tube is the envelope of its tube sphere curve: the
same spheres with every radius shifted, a parallel transformation, which
is a Lie sphere transformation.  Ribaucour pairs of curves are
`verify_ribaucour` on the point spheres, and
the circle congruence enveloped by such a pair is the lightcone circle of
their span D1 = {sigma, sigma_hat, sigma'}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import SphereCurve
from .core import (
    GeometryError,
    circle_failure,
    circle_phase,
    circle_points,
    containment_gap,
    lightcone_frames,
    parallel_transform_matrix,
    raise_first_failure,
)
from .transforms import _d1_spans

#: largest span residual of a Ribaucour pair of curves
RIBAUCOUR_TOL = 1e-6
#: worst containment gap of an enveloped curve
MEMBERSHIP_TOL = 1e-8
#: largest angle, in radians, between an enveloped curve and its circle
TANGENCY_TOL = 1e-4


# ---------------------------------------------------------------------------
# tubes
# ---------------------------------------------------------------------------

def tube_sphere_curve(curve: SphereCurve, radius: float) -> SphereCurve:
    """The tube's sphere curve: the same centres with shifted radius.

    The tube of `radius` about the curve is the envelope of this curve.
    Parallel transformation is linear, so it commutes with u-derivatives:
    the curve's derivatives transport to the tube curve's.  The curve
    must be null and regular (SphereCurve.check).
    """
    curve.check()
    m = parallel_transform_matrix(radius)
    d1, d2 = (curve.derivative(order) @ m.T for order in (1, 2))
    return SphereCurve(curve.vectors @ m.T, curve.u_values,
                       periodic_u=curve.periodic_u, d1=d1, d2=d2)


# ---------------------------------------------------------------------------
# Ribaucour pairs of curves and their circle congruence
# ---------------------------------------------------------------------------

@dataclass
class CircleCongruenceReport:
    membership: float              # worst containment gap of either curve
    tangency1: float               # largest angle to curve 1, radians
    tangency2: float
    residuals: np.ndarray          # per-sample span residuals
    passed: bool
    notes: list = field(default_factory=list)


def circle_congruence_report(c1: SphereCurve,
                             c2: SphereCurve) -> CircleCongruenceReport:
    """Envelopment diagnostics of the circle congruence of a curve pair.

    membership: both curves' point spheres must lie in the congruence
    span D1 = {sigma, sigma_hat, sigma'} of the pair (_d1_spans).
    tangency: the theta-derivative of the projected circle at each curve's
    phase must align with the curve's own tangent (angle between lines).
    The circle point p = cos(t) E1 + sin(t) E2 + E3 has the phase
    derivative p' = -sin(t) E1 + cos(t) E2; with x, x' their first three
    coordinates and w, w' their sums p4 + p5, the projected point is x / w
    and its tangent points along x' w - x w'.
    Both curves must be null and regular (SphereCurve.check).  All samples
    at once; the first failing sample in u order is reported.
    """
    c1.check()
    c2.check()
    bases, residuals, failures = _d1_spans(c1, c2)
    frames, signature = lightcone_frames(bases)
    lifts = np.stack([c1.vectors, c2.vectors], axis=1)          # (n, 2, 6)
    # circle phase of each lift, then the projected circle's tangent there
    phase, timelike = circle_phase(frames[:, None], lifts)
    with np.errstate(divide="ignore", invalid="ignore"):
        point = circle_points(frames[:, None], phase)
        turn = (np.cos(phase)[..., None] * frames[:, None, 1]
                - np.sin(phase)[..., None] * frames[:, None, 0])
        tangent = (turn[..., :3] * (point[..., 3] + point[..., 4])[..., None]
                   - point[..., :3] * (turn[..., 3] + turn[..., 4])[..., None])
        ref = np.stack([c.derivative(1)[:, :3] for c in (c1, c2)], axis=1)
        cr = np.linalg.norm(np.cross(tangent, ref), axis=-1)
        denom = np.linalg.norm(tangent, axis=-1) * np.linalg.norm(ref, axis=-1)
        angles = np.arcsin(np.clip(cr / denom, 0.0, 1.0))
    raise_first_failure(failures + [
        (residuals > RIBAUCOUR_TOL, lambda k: GeometryError(
            f"curves are not a Ribaucour pair at sample {k} "
            f"(span residual {residuals[k]:.3e})")),
        circle_failure(signature, lambda _: "congruence span"),
        (~timelike.all(axis=1), lambda k: GeometryError(
            "vector has no timelike component in this frame"))],
        "congruence fails")
    membership = float(np.max(containment_gap(bases, lifts)))
    t1, t2 = float(angles[:, 0].max()), float(angles[:, 1].max())
    passed = (membership <= MEMBERSHIP_TOL
              and float(np.max(angles)) <= TANGENCY_TOL)
    notes = []
    if not passed:
        notes.append("circle congruence is not enveloped at the stated "
                     "tolerances")
    return CircleCongruenceReport(membership=membership, tangency1=t1,
                                  tangency2=t2, residuals=residuals,
                                  passed=passed, notes=notes)

