"""Transformation theory for channel grids.

The middle one-form eta of a channel grid generates a family of flat
connections d + lambda*eta.  This module integrates their parallel
sections and trivialising gauges (Darboux and Calapso transforms),
generates and verifies Ribaucour partner curves, and builds the Dupin
cyclide congruences attached to a Ribaucour pair.

Every flow solves y' = c * wedge(s, s') y along u, for one sphere curve s
and a scalar c: the Darboux section (c = -m) and the Calapso gauge
(c = -lambda) on the special lift sigma1, whose wedge is eta, and the
Ribaucour partner (c = beta) on its base curve.  wedge(s, s') lies in
o(4,2), and one stepper takes each substep into O(4,2): the fourth-order
Magnus generator of the connection at cubic Hermite nodes of (s, s'),
mapped to the group by the diagonal Pade approximant (Iserles,
Munthe-Kaas, Norsett and Zanna, "Lie-group methods", Acta Numerica 9,
2000; Blanes, Casas, Oteo and Ros, Phys. Rep. 470, 2009).  The nodes are
exact whenever the lift is polynomial of degree <= 3, in particular for
tubes over lines.  Sections are never renormalised: the metric and
nullity defects of a flow are reported, and they read rounding unless
its generator leaves o(4,2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import stencils
from .channel import (HOLONOMY_TOL, Omega0Structure, SphereCurve,
                      _trapezoid_defect)
from .core import (
    DIM,
    INFINITY_VEC,
    METRIC,
    NULL_TOL,
    SIGNS,
    GeometryError,
    RankDeficiencyError,
    SignatureError,
    _transposed,
    circle_failure,
    circle_points,
    complement_rows,
    first_failure,
    inner,
    lightcone_frames,
    null_combination,
    orthonormal_rows,
    principal_sine,
    projective_gap,
    relative_nullity,
    span_rows,
    unit_rows,
    wedge_matrix,
)
from .legendre import LegendreGrid, _memoised, _u_slabs, curvature_data

#: relative pairing with sigma1 an admissible initial condition clears
MIN_PAIRING = 0.05
#: draws darboux_initial_condition makes before it gives up
MAX_TRIES = 32
#: Magnus-Pade substeps per u-edge of a flow whose caller sets none
SUBSTEPS = 4


def _sphere_gauge(field: np.ndarray) -> np.ndarray:
    """Divisors (..., 1) that rescale the lifts of a sphere field so the
    pairing with the point at infinity is -1.

    Ones when some member is (close to) a plane, whose lift is orthogonal
    to infinity: the whole field then keeps its lifts.
    """
    pair = -inner(field, INFINITY_VEC)[..., None]
    if np.min(np.abs(pair)) <= 1e-6 * np.max(
            np.linalg.norm(field, axis=-1)):
        return np.ones_like(pair)
    return pair


# ---------------------------------------------------------------------------
# connection sampling and the O(4,2) stepper
# ---------------------------------------------------------------------------

def _hermite(y0, d0, y1, d1, h, t):
    """Cubic Hermite evaluation (value, derivative) at fraction t of an edge."""
    t2, t3 = t * t, t * t * t
    val = ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + t) * h * d0
           + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * h * d1)
    der = ((6 * t2 - 6 * t) * y0 / h + (3 * t2 - 4 * t + 1) * d0
           + (-6 * t2 + 6 * t) * y1 / h + (3 * t2 - 2 * t) * d1)
    return val, der


def _edge_connection(vectors, d1, du: float, periodic: bool, substeps: int):
    """Magnus terms (P, Q) of A(u) = wedge(s, s') on every substep of every
    u-edge of a sphere curve, given by its samples, their d1, du and
    periodicity (a periodic curve adds the wrap edge).

    A substep of length hs with A0, Am, A1 at its start, middle and end
    (from the cubic Hermite of the samples and d1) has the fourth-order
    Magnus generator c P + c^2 Q for the flow y' = c A y, with
    P = hs/6 (A0 + 4 Am + A1) and Q = hs^2/12 [A1, A0].  Both are
    read-only arrays of shape (n_edges, substeps, 6, 6).
    """
    left, right = stencils.edge_pairs(vectors.shape[0], periodic)
    t = (np.arange(2 * substeps + 1) / (2 * substeps))[:, None]
    nodes = wedge_matrix(*_hermite(vectors[left, None], d1[left, None],
                                   vectors[right, None], d1[right, None],
                                   du, t))
    a0, am, a1 = nodes[:, :-1:2], nodes[:, 1::2], nodes[:, 2::2]
    hs = du / substeps
    p = (hs / 6.0) * (a0 + 4.0 * am + a1)
    q = (hs * hs / 12.0) * (a1 @ a0 - a0 @ a1)
    p.flags.writeable = q.flags.writeable = False
    return p, q


def _omega_connection(omega: Omega0Structure, substeps: int):
    """_edge_connection of sigma1 (eta), once per structure and substeps."""
    return _memoised(omega, ("magnus", substeps), lambda o: _edge_connection(
        o.sigma1, o.dsigma1, o.du, o.periodic_u, substeps))


def _flow(terms, y0: np.ndarray, coeff: float) -> np.ndarray:
    """Integrate y' = coeff * A(u) y through the edges of terms = (P, Q).

    y0 may be a vector (6,) or a matrix (6, 6) whose columns evolve
    independently; returns the trajectory at the n_edges + 1 edge ends.

    Each substep's generator W = coeff P + coeff^2 Q goes to the group by
    the diagonal Pade approximant r(W) = (I - W/2 + W^2/12)^-1
    (I + W/2 + W^2/12): r(-W) r(W) = I, so for W in o(4,2) each step lies
    in O(4,2) to rounding.  One batched solve gives every increment
    S = r(W) - I = (I - W/2 + W^2/12)^-1 W; each edge's increment D, the
    product of its substeps (1 + S_j) less the identity, folds as
    D <- S_j + D + S_j D, and the serial part is y <- y + D y.  The
    identity stays out of S and D: iterating y <- (1 + D) y instead rounds
    the small entries of D against the unit diagonal at every step, which
    costs one to two decades of the metric and nullity defects on long
    grids.
    """
    p, q = terms
    gen = coeff * p + (coeff * coeff) * q
    steps = np.linalg.solve(np.eye(DIM) - 0.5 * gen + (gen @ gen) / 12.0,
                            gen)
    edge = steps[:, 0]
    for j in range(1, steps.shape[1]):
        edge = steps[:, j] + edge + steps[:, j] @ edge
    out = np.empty((steps.shape[0] + 1,) + y0.shape)
    out[0] = y = y0
    for e, step in enumerate(edge):
        out[e + 1] = y = y + step @ y
    return out


# ---------------------------------------------------------------------------
# Lie-Darboux transforms
# ---------------------------------------------------------------------------

@dataclass
class DarbouxResult:
    hat_s: SphereCurve             # the parallel section as a sphere curve
    hat_f: LegendreGrid
    null_drift: float
    holonomy_mismatch: Optional[float]   # seam gap on a periodic base


def darboux_initial_condition(rows: np.ndarray, sigma1_0: np.ndarray,
                              seed: int) -> np.ndarray:
    """Seeded null vector from the (2,1) span of rows (3, 6), admissible
    against sigma1.

    Draws circle angles from the span's lightcone until the relative
    pairing with the initial curvature sphere clears MIN_PAIRING; draws
    below the floor start transforms that are close to degenerate (the new
    surface collapses toward the sphere curve), so they are rejected and
    redrawn rather than merely warned about.  Dependent rows raise
    RankDeficiencyError.
    """
    basis, rank = span_rows(rows)
    if rank < 3:
        raise RankDeficiencyError(3, int(rank))
    frame, signature = lightcone_frames(basis)
    wrong, cause = circle_failure(signature,
                                  lambda _: "initial-condition space")
    if wrong.any():
        raise cause(0)
    rng = np.random.default_rng(seed)
    scale = np.linalg.norm(sigma1_0)
    for _ in range(MAX_TRIES):
        phi0 = circle_points(frame, rng.uniform(0.0, 2.0 * np.pi))
        pairing = abs(float(inner(phi0, sigma1_0)))
        if pairing >= MIN_PAIRING * scale * np.linalg.norm(phi0):
            return phi0
    raise GeometryError("no admissible initial condition found in the "
                        "given subspace")


def darboux_transform(grid: LegendreGrid, omega: Omega0Structure, m: float,
                      phi0: np.ndarray,
                      substeps: int = SUBSTEPS) -> DarbouxResult:
    """New channel grid from a parallel null line of d + m*eta.

    Integrates phi' = -m * eta_u * phi along u; the new contact elements
    are spanned by phi and the line s0 of the old element orthogonal to
    phi, which both surfaces envelope.  null_drift is the section's worst
    nullity relative to its running norm.  The section's curve carries
    d1 = -m * eta_u * phi from the connection equation; its d2 comes from
    the stencils on request.
    """
    if m == 0.0:
        raise ValueError("Darboux parameter m must be nonzero")
    phi0 = np.asarray(phi0, dtype=float)
    nrm0 = float(phi0 @ phi0)
    if relative_nullity(phi0) > NULL_TOL:
        raise GeometryError("initial condition is not null")
    pairing0 = abs(float(inner(phi0, omega.sigma1[0])))
    if pairing0 < 1e-6 * np.sqrt(nrm0) * np.linalg.norm(omega.sigma1[0]):
        raise GeometryError("initial condition is orthogonal to sigma1; "
                            "the transformed elements would degenerate")

    phi = _flow(_omega_connection(omega, substeps), phi0, -m)
    seam = None
    if omega.periodic_u:
        # the flow ran round the wrap edge too; its end only closes the
        # seam test
        phi, wrap = phi[:-1], phi[-1]
        seam = float(np.max(projective_gap(wrap, phi[0])))
    # the derivative straight from the connection equation, so downstream
    # span checks see the flow's own tangent data
    d1 = -m * np.einsum("kij,kj->ki", omega.eta_u, phi)
    hat_s = SphereCurve(phi, grid.u_values,
                        periodic_u=seam is not None and seam <= HOLONOMY_TOL,
                        d1=d1)

    a = inner(grid.sigma, phi[:, None, :])       # (nu, nt)
    b = inner(grid.tau, phi[:, None, :])
    scale = (np.linalg.norm(grid.sigma, axis=-1)
             * np.linalg.norm(phi, axis=-1)[:, None])
    degenerate = np.maximum(np.abs(a), np.abs(b)) <= 1e-10 * scale
    if degenerate.any():
        i, j = np.argwhere(degenerate)[0]
        raise GeometryError(
            f"transformed element degenerates at grid position ({i}, {j}): "
            "phi is orthogonal to the whole contact element")
    s0 = b[..., None] * grid.sigma - a[..., None] * grid.tau
    # the grid stores read-only copies of its frames, so the section's
    # broadcast needs no copy of its own
    hat_f = LegendreGrid(s0, np.broadcast_to(phi[:, None, :], s0.shape),
                         grid.u_values, grid.theta_values,
                         periodic_u=hat_s.periodic_u,
                         periodic_theta=grid.periodic_theta)
    return DarbouxResult(hat_s=hat_s, hat_f=hat_f, null_drift=hat_s.nullity(),
                         holonomy_mismatch=seam)


# ---------------------------------------------------------------------------
# Calapso transforms
# ---------------------------------------------------------------------------

@dataclass
class GaugeField:
    lam: float
    Tinv: np.ndarray               # (nu, 6, 6)
    T: np.ndarray                  # its inverse G Tinv^t G, the gauge itself
    ortho_defect: float

    def push(self, vectors: np.ndarray) -> np.ndarray:
        """Apply T(lambda) samplewise; vectors (nu, ..., 6)."""
        return np.einsum("kab,k...b->k...a", self.T, vectors)


def calapso_transform(grid: LegendreGrid, omega: Omega0Structure, lam: float,
                      substeps: int = SUBSTEPS):
    """Trivialising gauge of d + lambda*eta and the transformed grid.

    Integrates d(Tinv)/du = -lambda * eta_u * Tinv from the identity; the
    new grid is T applied to both frames.  Each step of the flow lies in
    O(4,2), so T is Tinv's metric adjoint G Tinv^t G.  The reported
    ortho_defect is the worst entry of T^t G T - G: it reads rounding
    unless the flow's generator leaves o(4,2).
    """
    tinv = _flow(_omega_connection(omega, substeps), np.eye(DIM),
                 -lam)[:omega.u_values.size]
    t = SIGNS[:, None] * _transposed(tinv) * SIGNS
    defect = float(np.max(np.abs(
        np.swapaxes(t, -1, -2) @ METRIC @ t - METRIC)))
    gauge = GaugeField(lam=lam, Tinv=tinv, T=t, ortho_defect=defect)
    sigma = np.einsum("kab,kjb->kja", t, grid.sigma)
    tau = np.einsum("kab,kjb->kja", t, grid.tau)
    out = LegendreGrid(sigma, tau, grid.u_values, grid.theta_values,
                       periodic_u=False,
                       periodic_theta=grid.periodic_theta)
    return gauge, out


def gauge_edge_residual(gauge: GaugeField, omega: Omega0Structure) -> float:
    """Worst defect of Delta(Tinv) + lambda*eta_edge*Tinv_mid per edge."""
    res = _trapezoid_defect(omega, gauge.Tinv, gauge.lam, periodic=False)
    return float(np.max(np.abs(res)))


def calapso_quadratic_form(gauge: GaugeField, omega: Omega0Structure):
    """q of the transformed lift, differentiated through the gauge equation.

    The derivative of T*sigma1 is T*(sigma1' + lambda*eta*sigma1) when T
    solves its defining ODE, so this number measures how well the
    integrated gauge preserves the metric along the actual flow
    directions; re-differencing T through grid stencils would only
    re-measure stencil truncation.
    """
    v = omega.dsigma1 + gauge.lam * np.einsum(
        "kij,kj->ki", omega.eta_u, omega.sigma1)
    tv = np.einsum("kab,kb->ka", gauge.T, v)
    return -inner(tv, tv)


# ---------------------------------------------------------------------------
# Ribaucour partners at the sphere-curve level
# ---------------------------------------------------------------------------

def verify_ribaucour(s: SphereCurve, s_hat: SphereCurve) -> float:
    """Largest principal-angle sine between D1 = span{s, shat, s'} and its
    twin span{s, shat, shat'} (_d1_spans), over all samples.

    Zero exactly when the two curves see each other's derivative inside
    their own first-order data -- the envelope-sharing criterion, and the
    coincidence of ribaucour_cyclides.  Rank loss of either span or an
    orthogonal pair is an error, not a large residual.
    """
    _, sines, failures = _d1_spans(s, s_hat)
    _raise_span_failure(failures, "span")
    return float(np.max(sines))


def _d1_spans(s: SphereCurve, s_hat: SphereCurve):
    """The span D1 = span{s, shat, s'} a pair of sphere curves has at every
    sample, against its twin span{s, shat, shat'}.

    Returns (bases, sines, failures): orthonormal bases (n, 3, 6) of D1
    from the rows [s, shat, s'], the sines of the largest principal angle
    between D1 and its twin, and core.first_failure's (mask, cause) pairs
    for rank loss of D1, then of its twin.  Raises GeometryError before
    any span where the curves do not share their u-grid or are orthogonal
    somewhere.
    """
    if not np.array_equal(s.u_values, s_hat.u_values):
        raise GeometryError("curves must share their u-grid")
    pairing = np.abs(inner(s.vectors, s_hat.vectors)) / (
        np.linalg.norm(s.vectors, axis=-1)
        * np.linalg.norm(s_hat.vectors, axis=-1))
    if np.min(pairing) <= 1e-12:
        k = int(np.argmin(pairing))
        raise GeometryError(
            f"curves are orthogonal at sample {k}; they span a contact "
            "element there and the criterion degenerates")
    (a, rank_a), (b, rank_b) = (
        span_rows(np.stack([s.vectors, s_hat.vectors, curve.derivative(1)],
                           axis=-2))
        for curve in (s, s_hat))
    return a, principal_sine(a, b), [
        (rank_a < 3, lambda k: RankDeficiencyError(3, int(rank_a[k]))),
        (rank_b < 3, lambda k: RankDeficiencyError(3, int(rank_b[k])))]


def _raise_span_failure(failures, what: str) -> None:
    """Raise "<what> degenerates at sample k" at _d1_spans' first failure."""
    hit = first_failure(failures)
    if hit is not None:
        k, cause = hit
        raise GeometryError(f"{what} degenerates at sample {k}") from cause


def ribaucour_partner_curve(s: SphereCurve, beta: float,
                            s_hat0: np.ndarray) -> SphereCurve:
    """Partner curve of s from the flow shat' = beta * wedge(s, s') shat.

    wedge(s, s') shat = (s, shat) s' - (s', shat) s, so shat' lies in
    span{s, s', shat} at every u, contact (s, shat) = 0 included, and the
    flow keeps shat null.  With b = beta (s, shat) it is the null-keeping
    flow shat' = b s' - b (s', shat)/(s, shat) s with the pairing
    multiplied out, so it never divides by it.  It runs on the Darboux
    stepper, through the connection of s's samples and d1 over the open
    chain of its edges.  The common-envelope criterion then holds by
    construction, and the returned curve carries d1 from the flow
    equation.  The lift is never normalised, and b grows with its scale:
    a partner that closes in on s can reach norms of 1e12.
    """
    y = np.asarray(s_hat0, dtype=float)
    if relative_nullity(y) > NULL_TOL:
        raise GeometryError("initial partner sphere is not null")
    d1 = s.derivative(1)
    out = _flow(_edge_connection(s.vectors, d1, s.du, False, SUBSTEPS),
                y, beta)
    d1_out = beta * np.einsum("kij,kj->ki", wedge_matrix(s.vectors, d1), out)
    return SphereCurve(out, s.u_values, d1=d1_out)


# ---------------------------------------------------------------------------
# the cyclide congruences of a Ribaucour pair
# ---------------------------------------------------------------------------

@dataclass
class CyclideCongruenceReport:
    coincidence: float             # span{s1,shat1,ds1} vs span{s1,shat1,dshat1}
    duality: Optional[float]       # D1-perp vs the theta-jet of s0
    theta_constancy: Optional[float]
    intersection_rank_ok: Optional[bool]
    d2_coincidence: Optional[float]
    notes: list = field(default_factory=list)


def ribaucour_cyclides(s: SphereCurve, s_hat: SphereCurve,
                       f: Optional[LegendreGrid] = None,
                       f_hat: Optional[LegendreGrid] = None
                       ) -> CyclideCongruenceReport:
    """Dupin cyclide family D1(u) = span{s1, shat1, d_u s1} of a pair.

    The coincidence number measures Prop-level equality with the twin
    span built from the partner's derivative; it vanishes exactly when
    the pair is Ribaucour.  With the two grids supplied, the common
    congruence s0 is re-measured as the pointwise intersection of the
    contact elements, the duality D1-perp = theta-jet of s0 is checked,
    and the theta-constancy of D1 is measured against the first grid's
    extracted curvature spheres.  The grid measurements run u-slab by
    u-slab of the first grid (legendre._u_slabs), each reduced as it goes,
    so no grid-sized stack of bases or jets is ever built.
    """
    d1_spaces, sines, failures = _d1_spans(s, s_hat)
    _raise_span_failure(failures, "cyclide span")
    coincidence = float(np.max(sines))

    duality = theta_constancy = d2_coincidence = None
    rank_ok = None
    notes = []
    if f is not None and f_hat is not None:
        data, data_hat = curvature_data(f), curvature_data(f_hat)
        perp = complement_rows(d1_spaces)                  # (nu, 3, 6)
        # the extracted field is unit-normalised, which makes its entries
        # non-smooth functions of u (norm wiggle and sign flips); pinning
        # the pairing with the point at infinity instead gives the smooth
        # sphere-lift representative whenever no member is a plane
        gauge = _sphere_gauge(data.s1)
        # np.maximum keeps a NaN, as the grid-wide max would; the smallest
        # intersection sine enters negated
        worst = np.full(4, -np.inf)
        for rows, window, inner in _u_slabs(f):
            # re-measure the shared congruence as the element intersection:
            # the zero first principal angle of the two elements, a line
            # wherever the second is nonzero
            unit = unit_rows(np.stack([f.sigma[rows], f.tau[rows]], axis=-2))
            basis_hat = orthonormal_rows(np.stack(
                [f_hat.sigma[rows], f_hat.tau[rows]], axis=-2))
            low = np.min(principal_sine(orthonormal_rows(unit), basis_hat))
            rej = unit - (unit @ _transposed(basis_hat)) @ basis_hat
            a, b = null_combination(rej[..., 0, :], rej[..., 1, :])
            s0 = unit_rows(a * unit[..., 0, :] + b * unit[..., 1, :])
            jet = np.stack([s0, f.diff(s0, 1), f.diff(s0, 1, order=2)],
                           axis=-2)
            duality_here = principal_sine(perp[rows, None],
                                          orthonormal_rows(jet))

            # s1's u-difference on the slab rows, from its halo window
            s1 = data.s1[window] / gauge[window]
            ds1 = f.diff(s1, 0)[inner]
            s1 = s1[inner]
            hat = np.broadcast_to(s_hat.vectors[rows, None, :], s1.shape)
            constancy_here = principal_sine(
                d1_spaces[rows, None],
                orthonormal_rows(np.stack([s1, hat, ds1], axis=-2)))

            # the second family, measured from grid data alone (extraction
            # noise is O(h^2); reported, not gated)
            s2, s2_hat = data.s2[rows], data_hat.s2[rows]
            a2 = np.stack([s2, s2_hat, f.diff(s2, 1)], axis=-2)
            b2 = np.stack([s2, s2_hat, f.diff(s2_hat, 1)], axis=-2)
            d2_here = principal_sine(orthonormal_rows(b2),
                                     orthonormal_rows(a2))
            worst = np.maximum(worst, [np.max(duality_here),
                                       np.max(constancy_here),
                                       np.max(d2_here), -low])
        duality, theta_constancy, d2_coincidence = map(float, worst[:3])
        rank_ok = bool(-worst[3] > 1e-6)
        if not rank_ok:
            notes.append("element intersections are not uniformly rank 1")

    return CyclideCongruenceReport(
        coincidence=coincidence, duality=duality,
        theta_constancy=theta_constancy, intersection_rank_ok=rank_ok,
        d2_coincidence=d2_coincidence, notes=notes)


# ---------------------------------------------------------------------------
# Dupin cyclides from sphere triples and point containment
# ---------------------------------------------------------------------------

@dataclass
class DupinCyclide:
    """A Dupin cyclide by its two sphere families: frames (2, 3, 6) holds
    the lightcone frames of its (2, 1) sphere space D and of D's metric
    complement (core.circle_points samples either circle).  Built by
    dupin_from_subspaces, which checks both signatures."""
    frames: np.ndarray


def dupin_from_spheres(a, b, c) -> DupinCyclide:
    """Cyclide enveloping the family of spheres tangent to three spheres.

    The triple spans a (2,1) space D; the tangent family is the lightcone
    circle of the complement.  Pencils and other degenerate triples have
    the wrong signature and are rejected.
    """
    basis, rank = span_rows(np.stack([a, b, c]))
    if rank < 3:
        raise SignatureError(
            "sphere triple is linearly dependent (a pencil has no "
            "cyclide)") from RankDeficiencyError(3, int(rank))
    (cyclide,), _, failures = dupin_from_subspaces(basis[None],
                                                   ["from-three-spheres"])
    hit = first_failure(failures)
    if hit is not None:
        raise hit[1]
    return cyclide


def dupin_from_subspaces(bases: np.ndarray, provenances):
    """Dupin cyclides of m cyclide spaces D at once: bases (m, 3, 6)
    orthonormal rows of each D, provenances m labels ->
    (cyclides, frames, failures).

    frames (m, 2, 3, 6) holds the lightcone frames of each D and of its
    metric complement, from one lightcone_frames call, and cyclides[i]
    carries frames[i].  failures lists core.first_failure's (mask, cause)
    pairs in check order: a D whose signature is not (2, 1, 0), then such
    a complement.  Cyclides and frames at a flagged sample are
    meaningless.
    """
    bases = np.asarray(bases, dtype=float)
    frames, signature = lightcone_frames(
        np.stack([bases, complement_rows(bases)], axis=1))
    cyclides = [DupinCyclide(f) for f in frames]
    failures = [circle_failure(signature[:, j], lambda i, what=what:
                               f"cyclide {what} ({provenances[i]})")
                for j, what in enumerate(["subspace", "complement"])]
    return cyclides, frames, failures


def cyclide_point_residual(frames: np.ndarray, lifts: np.ndarray) -> np.ndarray:
    """How far point lifts are from lying on Dupin cyclides, batched.

    frames (..., 2, 3, 6) are the lightcone frames of each cyclide's D and
    Dperp (as dupin_from_subspaces returns them), lifts (..., p, 6) the
    points to test against it.  A point is on the cyclide iff its lift is
    orthogonal to some sphere of the D-circle and some sphere of the
    Dperp-circle.  For each family the pairing against the circle is
    c + a cos(t) + b sin(t); its minimum modulus is max(0, |c| - hypot(a, b)).
    Returns the worse of the two family residuals per lift (..., p),
    scale-free in the lift.
    """
    lifts = unit_rows(np.asarray(lifts, dtype=float))
    pairing = inner(lifts[..., :, None, None, :], frames[..., None, :, :, :])
    res = np.maximum(0.0, np.abs(pairing[..., 2])
                     - np.hypot(pairing[..., 0], pairing[..., 1]))
    return np.max(res, axis=-1)

