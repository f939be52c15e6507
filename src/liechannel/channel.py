"""Sphere curves and the surfaces they sweep out.

A one-parameter family of oriented spheres envelopes a surface along a
circle's worth of contact elements per parameter value: the sphere s(u),
its derivative and its second derivative span a (2,1) space V(u) whose
orthogonal complement carries a circle of null lines, and each of those
lines completes s(u) to a contact element.  This module builds that
envelope as a LegendreGrid, together with the distinguished one-form and
quadratic differential such grids carry, and the linear conserved quantity
that characterises them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import stencils
from .core import (
    DIM,
    NULL_TOL,
    SIGNS,
    GeometryError,
    _signature_counts,
    _transposed,
    circle_failure,
    circle_points,
    complement_rows,
    inner,
    inv3,
    lightcone_frames,
    projective_gap,
    raise_first_failure,
    read_only_copy,
    relative_nullity,
    small_eigvalsh,
    sphere_lift,
    unit_rows,
    wedge_matrix,
)
from .legendre import LegendreGrid, channel_verdict, curvature_data

#: quotient speed a regular sphere curve must exceed at every sample
CURVE_REGULARITY_MIN = 1e-6
#: largest frame mismatch round a periodic curve that still closes the grid
HOLONOMY_TOL = 1e-8
#: smallest |(sigma, p)| special_lift divides by
AGAINST_P_MIN = 1e-9


# ---------------------------------------------------------------------------
# sphere curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SphereCurve:
    """Discrete curve of oriented spheres: one null 6-vector per u-sample.

    d1 and d2 are the u-derivatives at the samples, passed in by whoever
    knows them (curve_from_profile passes its closed-form 2-jet, the
    Darboux and partner flows pass d1 from their flow equations) or taken
    from the five-point stencils, each order on its first request
    (fourth order in the interior, since the second derivative feeds the
    osculating-space construction; order two at open ends).  The curve is
    immutable and its arrays read-only, so each is computed once, as is
    the data the flows derive from it (the Magnus terms of its connection,
    kept in the private _derived dict).  A sample whose vector or given
    derivative is not finite is refused.
    """

    vectors: np.ndarray
    u_values: np.ndarray
    periodic_u: bool = False
    d1: Optional[np.ndarray] = None
    d2: Optional[np.ndarray] = None
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("vectors", "u_values", "d1", "d2"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name,
                                   read_only_copy(getattr(self, name)))
        if self.vectors.ndim != 2 or self.vectors.shape[1] != DIM:
            raise GeometryError("curve samples must have shape (n, 6)")
        if self.vectors.shape[0] != self.u_values.size:
            raise GeometryError("sample count does not match the u-grid")
        if self.vectors.shape[0] < 5:
            raise GeometryError("need at least 5 samples for curve derivatives")
        finite = np.isfinite(self.vectors).all(axis=1)
        for given in (self.d1, self.d2):
            if given is not None:
                finite &= np.isfinite(given).all(axis=1)
        if not finite.all():
            raise GeometryError("curve is not finite at sample "
                                f"{int(np.argmin(finite))}")

    @property
    def du(self) -> float:
        return float(self.u_values[1] - self.u_values[0])

    def derivative(self, order: int) -> np.ndarray:
        """The first (order 1) or second (order 2) u-derivative of the
        sample vectors."""
        name = f"d{order}"
        if getattr(self, name) is None:
            stencil = (stencils.diff1_5pt, stencils.diff2_5pt)[order - 1]
            value = stencil(self.vectors, self.du, periodic=self.periodic_u)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        return getattr(self, name)

    def nullity(self) -> float:
        """Worst |(sigma, sigma)| relative to the Euclidean norm squared."""
        return relative_nullity(self.vectors)

    def check(self) -> None:
        """Raise GeometryError unless the samples are null and the curve
        is regular: the unit-scaled lift has positive quotient-metric speed
        (sigma', sigma') (scaling sigma only adds terms proportional to
        (sigma, sigma') = 0, so dividing by |sigma|^2 is exact)."""
        nullity = self.nullity()
        if nullity > NULL_TOL:
            raise GeometryError(
                f"curve samples are not null (worst {nullity:.3e})")
        d1 = self.derivative(1)
        reg = inner(d1, d1) / np.einsum("ij,ij->i", self.vectors, self.vectors)
        bad = np.flatnonzero(reg <= CURVE_REGULARITY_MIN)
        if bad.size:
            raise GeometryError(
                f"curve is not regular at samples {bad[:8].tolist()} "
                f"(min speed {reg.min():.3e})")


def _lift_jet(c, c1, c2, r, r1, r2):
    """Closed-form 2-jet of the sphere lift from a centre/radius 2-jet."""
    cd1 = np.einsum("...i,...i->...", c, c1)
    cd2 = np.einsum("...i,...i->...", c1, c1) + np.einsum("...i,...i->...", c, c2)
    rr1 = r * r1
    rr2 = r1 * r1 + r * r2
    def assemble(p3, p4, p6):
        out = np.empty(p3.shape[:-1] + (DIM,))
        out[..., :3] = p3
        out[..., 3] = p4
        out[..., 4] = -p4
        out[..., 5] = p6
        return out
    return (sphere_lift(c, r), assemble(c1, -cd1 + rr1, r1),
            assemble(c2, -cd2 + rr2, r2))


def curve_from_profile(center_fn: Callable, radius, u_values,
                       periodic_u: bool = False) -> SphereCurve:
    """Sphere curve from analytic centre and radius 2-jets.

    center_fn(u) must return (c, c', c'') with trailing axis 3; radius is a
    constant or a callable returning (r, r', r'').
    """
    u = np.asarray(u_values, dtype=float)
    rad = radius(u) if callable(radius) else (
        np.full_like(u, float(radius)), np.zeros_like(u), np.zeros_like(u))
    vectors, d1, d2 = _lift_jet(*center_fn(u), *rad)
    return SphereCurve(vectors, u, periodic_u=periodic_u, d1=d1, d2=d2)


def line_sphere_curve(n: int = 64, u_min: float = -1.0, u_max: float = 1.0,
                      radius=1.0, direction=(0.0, 0.0, 1.0),
                      origin=(0.0, 0.0, 0.0)) -> SphereCurve:
    """Spheres with centres on a straight line (tubes over lines)."""
    d = np.asarray(direction, dtype=float)
    o = np.asarray(origin, dtype=float)

    def center(u):
        u = np.asarray(u, dtype=float)
        c = o + u[..., None] * d
        return c, np.broadcast_to(d, c.shape).copy(), np.zeros_like(c)

    return curve_from_profile(center, radius, np.linspace(u_min, u_max, n))


def circle_sphere_curve(n: int = 64, ring_radius: float = 2.0,
                        radius=1.0) -> SphereCurve:
    """Spheres with centres on a circle in the xy-plane (torus tubes)."""
    R = float(ring_radius)

    def center(u):
        u = np.asarray(u, dtype=float)
        c = np.stack([R * np.cos(u), R * np.sin(u), np.zeros_like(u)], axis=-1)
        c1 = np.stack([-R * np.sin(u), R * np.cos(u), np.zeros_like(u)], axis=-1)
        return c, c1, -c
    u = np.arange(n) * (2.0 * np.pi / n)
    return curve_from_profile(center, radius, u, periodic_u=True)


def helix_sphere_curve(n: int = 64, ring_radius: float = 2.0,
                       pitch: float = 0.5, radius=0.6,
                       turns: float = 1.5) -> SphereCurve:
    """Spheres with centres on a circular helix."""
    R, p = float(ring_radius), float(pitch)

    def center(u):
        u = np.asarray(u, dtype=float)
        c = np.stack([R * np.cos(u), R * np.sin(u), p * u], axis=-1)
        c1 = np.stack([-R * np.sin(u), R * np.cos(u), np.full_like(u, p)], axis=-1)
        c2 = np.stack([-R * np.cos(u), -R * np.sin(u), np.zeros_like(u)], axis=-1)
        return c, c1, c2

    u = np.linspace(0.0, 2.0 * np.pi * turns, n)
    return curve_from_profile(center, radius, u)


# ---------------------------------------------------------------------------
# the envelope construction
# ---------------------------------------------------------------------------

def _signature_21(stacks: np.ndarray) -> np.ndarray:
    """Per-sample verdict: do the three rows span a (2,1) space?  Read
    with lightcone_frames' sign rule, on the rows scaled to unit length."""
    rows = unit_rows(stacks)
    n_plus, n_minus, _ = _signature_counts(
        small_eigvalsh(rows @ _transposed(SIGNS * rows)))
    return (n_plus == 2) & (n_minus == 1)


def osculating_spaces(curve: SphereCurve):
    """Per-sample stacks {sigma, sigma', sigma''} and their (2,1) verdicts."""
    stacks = np.stack([curve.vectors, curve.derivative(1),
                       curve.derivative(2)], axis=1)
    return stacks, _signature_21(stacks)


def _transported_frames(perp: np.ndarray, frame0: np.ndarray,
                        periodic: bool) -> np.ndarray:
    """(+,+,-) circle frames carried along the fibres perp (n, 3, 6).

    Each step projects the frame into the next fibre (metric projection,
    through the inverse of that fibre's Gram matrix) and runs a
    signature-aware Gram-Schmidt there; each row keeps its sign against
    its predecessor.  frame0 is the frame in fibre 0.  A periodic chain
    takes one more step, round to fibre 0, so its n + 1 frames end with
    the one that measures the holonomy.

    The steps run in 3 x 3 fibre coordinates, where a projection is a
    right factor of the coefficient rows and a Gram-Schmidt a left factor,
    lower triangular with a positive diagonal.  Such factors compose, and
    a Gram-Schmidt absorbs them: orthonormalising after every step gives
    the frame that one Gram-Schmidt gives after the product of all the
    projections.  So the projections' prefix products come from a doubling
    scan, carry frame0's rows into every fibre at once, and one batched
    Gram-Schmidt per fibre finishes them.  Signs are restored afterwards,
    as a running product of per-step flips: negating a row commutes with
    every later step.
    """
    prev, nxt = stencils.edge_pairs(perp.shape[0], periodic)
    grams = (perp @ _transposed(SIGNS * perp))[nxt]
    # a singular fibre Gram has a non-finite inverse
    gram_inv = inv3(grams)
    if not np.all(np.isfinite(gram_inv)):
        raise GeometryError("circle-frame transport degenerated")
    maps = (perp[prev] * SIGNS) @ _transposed(perp[nxt]) @ gram_inv
    # doubling scan: maps[k] becomes maps[0] @ maps[1] @ ... @ maps[k]
    step = 1
    while step < maps.shape[0]:
        maps[step:] = maps[:-step] @ maps[step:]
        step *= 2
    rows = (frame0 @ perp[0].T) @ maps
    # done holds each finished row e with its metric dual s G e
    done = []
    for r, sign in enumerate((1.0, 1.0, -1.0)):
        v = rows[:, r]
        for e, dual in done:
            v = v - np.einsum("ki,ki->k", v, dual)[:, None] * e
        w = np.einsum("kij,kj->ki", grams, v)
        norm2 = sign * np.einsum("ki,ki->k", v, w)
        if not np.all(norm2 > 1e-14):
            raise GeometryError("circle-frame transport degenerated")
        root = np.sqrt(norm2)[:, None]
        rows[:, r] = v / root
        done.append((rows[:, r], sign * w / root))
    frames = np.concatenate([frame0[None], rows @ perp[nxt]])
    turned = np.einsum("kri,kri->kr", frames[1:], frames[:-1]) < 0.0
    frames[1:] *= np.cumprod(np.where(turned, -1.0, 1.0), axis=0)[..., None]
    return frames


def envelope(curve: SphereCurve, n_theta: int = 64) -> LegendreGrid:
    """Legendre grid swept by a regular sphere curve.

    Each contact element is spanned by the sphere s(u) and one point of the
    lightcone circle of V(u)^perp, where V is the osculating space
    span{sigma, sigma', sigma''}.  The circle frames are parallel-
    transported along u so the theta-parametrisation is continuous
    (_transported_frames).  A periodic curve takes one more step, round to
    sample 0; where its normal bundle has holonomy the frames cannot close
    up, and the grid falls back to an open u-axis.
    """
    curve.check()
    stacks, ok = osculating_spaces(curve)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        raise GeometryError(
            f"osculating space is not (2,1) at samples {bad[:8].tolist()} "
            "(sphere-curve inflection)")

    perp = complement_rows(stacks)
    frame0, signature = lightcone_frames(perp[0])
    raise_first_failure([circle_failure(signature,
                                        lambda _: "normal space 0")])
    frames = _transported_frames(perp, frame0, curve.periodic_u)

    periodic_u = curve.periodic_u
    if periodic_u:
        periodic_u = bool(np.max(np.abs(frames[-1] - frame0)) <= HOLONOMY_TOL)
        frames = frames[:-1]

    theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    circle = circle_points(frames[:, None], theta)
    sigma = np.broadcast_to(curve.vectors[:, None, :], circle.shape)
    return LegendreGrid(sigma, circle, curve.u_values, theta,
                        periodic_u=periodic_u, periodic_theta=True)


# ---------------------------------------------------------------------------
# the distinguished one-form of a channel grid
# ---------------------------------------------------------------------------

def special_lift(curve: SphereCurve, p_vec: np.ndarray) -> np.ndarray:
    """Scale the curve's lift so its pairing with the timelike direction
    p_vec is exactly -1, the normalisation under which the conserved
    quantity below is parallel.

    The output depends on u only, which is what makes it special: the
    derivative along the circular direction vanishes identically.
    """
    vectors = curve.vectors
    ip = inner(vectors, np.asarray(p_vec, dtype=float))
    bad = np.flatnonzero(np.abs(ip) < AGAINST_P_MIN)
    if bad.size:
        raise GeometryError(
            f"curve is orthogonal to p at samples {bad[:8].tolist()}")
    return -vectors / ip[:, None]


@dataclass(frozen=True, eq=False)
class Omega0Structure:
    """The middle one-form of a channel grid and its quadratic differential.

    eta has no theta-component (the form annihilates the circular
    direction) and its u-component is the wedge of the special lift with
    its u-derivative; q_uu is the single surviving coefficient of the
    quadratic differential.  Because sigma1 depends on u alone, d(eta) = 0
    holds exactly when sigma1 is the circular curvature sphere at every
    (u, theta); lift_gap is the worst projective gap between the two over
    the grid, the one measurement of that condition that can fail.

    curve holds sigma1 on the grid's u-axis, and eta is built from its
    derivative(1); the transform flows keep their Magnus terms on it.
    """

    curve: SphereCurve            # the special lift sigma1
    eta_u: np.ndarray             # (n, 6, 6) skew maps
    q_uu: np.ndarray              # (n,)
    lift_gap: float


def omega0_form(grid: LegendreGrid, sigma1: np.ndarray) -> Omega0Structure:
    """Middle one-form eta = sigma1 ^ (star d sigma1) of a channel grid.

    sigma1 must be a theta-independent lift of the circular-direction
    curvature sphere family (one 6-vector per u-sample); a lift more than
    1e-6 off the extracted curvature sphere at any grid point is rejected.
    The grid must be channel along dir1 by the rate verdict of
    channel_verdict alone: the middle form never pays for is_channel's
    cyclide-splitting cross-check.
    The star acts as the identity on the non-circular conormal direction
    and as minus the identity on the circular one, so d(sigma1) having
    only a u-component makes eta = wedge(sigma1, sigma1') du.
    """
    sigma1 = np.asarray(sigma1, dtype=float)
    if sigma1.shape != (grid.shape[0], DIM):
        raise GeometryError("sigma1 must be a u-grid of 6-vectors")
    verdict = channel_verdict(grid)
    if not verdict.circular("dir1"):
        raise GeometryError(
            "grid is not a channel along dir1; the middle one-form needs a "
            f"circular first family (verdict: {verdict.circular_dir})")
    lift_gap = _curvature_sphere_gap(sigma1, grid)
    if lift_gap > 1e-6:
        raise GeometryError("sigma1 does not lift the first curvature "
                            f"sphere family of this grid (gap {lift_gap:.3e})")

    curve = SphereCurve(sigma1, grid.u_values, periodic_u=grid.periodic_u)
    d1 = curve.derivative(1)
    return Omega0Structure(curve=curve, eta_u=wedge_matrix(curve.vectors, d1),
                           q_uu=-inner(d1, d1), lift_gap=lift_gap)


def _curvature_sphere_gap(lift: np.ndarray, grid: LegendreGrid) -> float:
    """Worst projective gap, over the grid, between a lift (nu, 6) on the
    grid's u-axis and the grid's first curvature sphere family."""
    return float(np.max(projective_gap(lift[:, None],
                                       curvature_data(grid).s1)))


# ---------------------------------------------------------------------------
# the linear conserved quantity
# ---------------------------------------------------------------------------

def _trapezoid_defect(omega: Omega0Structure, y: np.ndarray, lam: float,
                      periodic: bool) -> np.ndarray:
    """y_r - y_l + lam * eta_edge * y_mid on every u-edge (l, r): the
    trapezoid defect of the samples y (n, 6, ...) for d + lam*eta."""
    left, right = stencils.edge_pairs(y.shape[0], periodic)
    eta_edge = 0.5 * (omega.eta_u[left] + omega.eta_u[right]) * omega.curve.du
    mid = 0.5 * (y[left] + y[right])
    return y[right] - y[left] + lam * np.einsum("kij,kj...->ki...",
                                                eta_edge, mid)


@dataclass
class ConservedQuantityReport:
    residuals: dict                  # lambda -> worst edge residual
    normalisation_defect: float
    passed: bool
    notes: list

    def __str__(self):
        worst = max(self.residuals.values()) if self.residuals else 0.0
        status = "ok" if self.passed else "FAILED"
        return (f"conserved quantity [{status}]: worst={worst:.3e} "
                f"defect={self.normalisation_defect:.3e}")


def conserved_quantity(omega: Omega0Structure, p_vec: np.ndarray,
                       lambdas: Sequence[float],
                       strict: bool = True) -> ConservedQuantityReport:
    """Check that p + lambda*sigma1 is parallel for d + lambda*eta.

    Requires special_lift's normalisation (sigma1, p) = -1; with strict=True
    a violation raises, otherwise it is recorded and the (failing)
    residuals are still measured -- that is the negative control for
    wrongly-normalised lifts.  Edge residuals use trapezoidal averaging of
    both the connection and the section, so exact data yields rounding-
    level numbers and smooth data O(du^2); they pass at
    max(1e-8, 10 du^2).
    """
    p_vec = np.asarray(p_vec, dtype=float)
    sigma1 = omega.curve.vectors
    defect = float(np.max(np.abs(inner(sigma1, p_vec) + 1.0)))
    notes = []
    if defect > 1e-8:
        if strict:
            raise GeometryError(
                f"lift is not normalised against p (defect {defect:.3e}); "
                "build it with special_lift(curve, p_vec)")
        notes.append(f"normalisation defect {defect:.3e}; residuals are "
                     "expected to be O(1)")

    tol = max(1e-8, 10.0 * omega.curve.du * omega.curve.du)
    residuals = {}
    for lam in lambdas:
        res = _trapezoid_defect(omega, p_vec + lam * sigma1, lam,
                                omega.curve.periodic_u)
        residuals[lam] = float(np.max(np.linalg.norm(res, axis=-1)))
    passed = defect <= 1e-8 and all(r <= tol for r in residuals.values())
    return ConservedQuantityReport(residuals=residuals,
                                   normalisation_defect=defect,
                                   passed=passed, notes=notes)

