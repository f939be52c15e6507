"""Legendre maps as grids of isotropic 2-planes, and their diagnostics.

A surface in Lie sphere geometry is stored as a grid of adapted frames
(sigma, tau): two null, mutually orthogonal 6-vectors spanning the contact
element at each sample.  All validation (isotropy, contact, immersion),
curvature-sphere extraction, the orthogonal splitting into the two
"cyclide" rank-3 subbundles, and channel detection live here.

Every pass over a grid runs in u-slabs of whole rows, about _SLAB_POINTS
samples each (_u_slabs), and differences each field it reads once per
slab, on a window of one halo row either side.  Quotient frames, solder
forms, the curvature quadratic, the 2-jets of the splitting and its
projectors live one slab at a time.  A grid keeps what its passes
return: the validation report, the curvature spheres and directions (16
doubles per point), the channel verdicts, and the splitting's
measurements with its excluded mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable

import numpy as np

from . import stencils
from .core import (
    DIM,
    SIGNS,
    GeometryError,
    _largest_eigvalsh,
    _transposed,
    first_failure,
    inv3,
    null_combination,
    orthonormal_rows,
    plane_lift,
    point_lift,
    projective_gap,
    read_only_copy,
    small_eigvalsh,
    unit_rows,
)
from .mesh import _pencil_point_spheres

if TYPE_CHECKING:
    from .channel import Omega0Structure

#: projective gap below which the two curvature spheres count as equal
UMBILIC_TOL = 1e-6
#: smallest gram eigenvalue at which a cyclide splitting is still trusted
SPLIT_COND_TOL = 1e-3
#: open-grid edge rows skipped by the splitting and by channel detection
SPLIT_EDGE_MARGIN = 6
CHANNEL_EDGE_MARGIN = 4
#: worst isotropy a validated grid may have
ISOTROPY_TOL = 1e-9
#: smallest solder-form singular value of a validated grid
IMMERSION_MIN = 1e-4
#: grid points per u-slab (_u_slabs), in whole u-rows: wide grids get
#: cache-sized slabs, and long thin ones a few long slabs, whose per-call
#: overhead would otherwise outweigh their work
_SLAB_POINTS = 4096


def _neighbour_pairs(fields: np.ndarray):
    """The (current, previous) vectors of every comparison a grid sweep
    makes, as views in two parts of shape (k, d): row 0 along theta, then
    every u-row against the row before it.  Scores of the two parts,
    concatenated, are in _sweep_flags' order."""
    nt, d = fields.shape[1:]
    flat = fields.reshape(-1, d)
    return [(flat[1:nt], flat[:nt - 1]), (flat[nt:], flat[:-nt])]


def _sweep_flags(flip: np.ndarray, tie: np.ndarray, shape) -> np.ndarray:
    """(nu, nt) flags of a greedy sweep, computed as segmented XOR scans.

    flip and tie hold the comparisons of _neighbour_pairs, each taken
    between *unaligned* neighbours (flip is false at a tie).  Flipping
    the earlier element of a comparison exchanges its two scores exactly
    (a swapped pair or a negated vector enters the same expressions), so
    the greedy flag is f_i = f_{i-1} XOR flip_i -- except at a tie (equal
    scores, or a NaN), where the greedy rule keeps element i whatever
    f_{i-1} was.  Row 0 is
    scanned along theta from an unflipped corner, then every column along
    u from its row-0 flag.
    """
    nu, nt = shape

    def scan(first, flip, tie):
        steps = np.concatenate([first[None], flip])
        parity = np.logical_xor.accumulate(
            np.concatenate([np.zeros_like(first)[None], steps]), axis=0)
        index = np.arange(1, len(steps) + 1).reshape(
            (-1,) + (1,) * first.ndim)
        resets = np.concatenate([np.zeros_like(first)[None], tie])
        start = np.maximum.accumulate(np.where(resets, index, 0), axis=0)
        return parity[1:] ^ np.take_along_axis(parity, start, axis=0)

    row0 = scan(np.zeros((), dtype=bool), flip[:nt - 1], tie[:nt - 1])
    return scan(row0, flip[nt - 1:].reshape(nu - 1, nt),
                tie[nt - 1:].reshape(nu - 1, nt))


def align_signs_grid(fields: np.ndarray) -> np.ndarray:
    """Flip signs over a (nu, nt, d) grid so neighbouring vectors correlate.

    The result is that of a greedy sweep -- row 0 along theta, then each
    u-row against the previous, already aligned one, flipping a vector
    whose dot product with its predecessor is negative -- computed as one
    batched dot product of the unaligned neighbours and a scan over the
    flips (see _sweep_flags).  A dot product of zero or NaN is a tie: the
    vector keeps its sign.  Purely a representative-smoothing device: the
    projective content is unchanged.
    """
    out = np.array(fields, dtype=float)
    dot = np.concatenate([np.einsum("kd,kd->k", current, previous)
                          for current, previous in _neighbour_pairs(out)])
    flip = dot < 0.0
    flags = _sweep_flags(flip, ~(flip | (dot > 0.0)), out.shape[:2])
    return np.negative(out, out=out, where=flags[..., None])


def _pair_mismatch(a1, a2, b1, b2):
    """Sum of squared projective gaps pairing (a1, a2) with (b1, b2)."""
    return projective_gap(a1, b1) ** 2 + projective_gap(a2, b2) ** 2


def align_labels_grid(d1, d2, s1, s2):
    """Make a two-family labelling continuous across a grid.

    The directions (d1, d2) and their kernel spheres (s1, s2) are swapped
    in lockstep; continuity is judged on the directions.  The result is
    that of a greedy sweep -- row 0 along theta, then each u-row against
    the previous, already relabelled one, swapping where the crossed
    pairing has the smaller mismatch -- which removes the label flicker
    that per-point conventions produce wherever the two families happen to
    tie on the convention's score.  It is computed as one batched "keep"
    and "swap" score of the unrelabelled neighbours and a scan over the
    swaps (see _sweep_flags); equal scores, or a NaN, are a tie, and a tie
    keeps the labels.
    """
    keep, swap = (np.concatenate(scores) for scores in zip(*[
        (_pair_mismatch(cur1, cur2, prev1, prev2),
         _pair_mismatch(cur1, cur2, prev2, prev1))
        for (cur1, prev1), (cur2, prev2) in zip(_neighbour_pairs(d1),
                                                _neighbour_pairs(d2))]))
    flip = swap < keep
    flags = _sweep_flags(flip, ~(flip | (keep < swap)), d1.shape[:2])
    flags = flags[..., None]
    return (np.where(flags, d2, d1), np.where(flags, d1, d2),
            np.where(flags, s2, s1), np.where(flags, s1, s2))


@dataclass(frozen=True, eq=False)
class LegendreGrid:
    """Grid of contact elements, each spanned by the frame pair (sigma, tau).

    Frame vectors are stored exactly as given (no per-sample rescaling):
    grids built from coherent lift formulas then keep pencil coefficients
    constant along symmetry directions, which makes the downstream
    finite-difference extractions exact instead of O(h^2).

    The grid is immutable and its arrays are read-only copies of the
    inputs, so what its passes return (the validation report, the
    curvature spheres and directions, the channel verdicts, the
    splitting's measurements and excluded mask) is computed once and kept
    on the grid.  Nothing else is: the passes build their quotient frames,
    solder forms, jets and projectors one u-slab at a time.
    """

    sigma: np.ndarray
    tau: np.ndarray
    u_values: np.ndarray
    theta_values: np.ndarray
    periodic_u: bool = False
    periodic_theta: bool = False
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("sigma", "tau", "u_values", "theta_values"):
            object.__setattr__(self, name, read_only_copy(getattr(self, name)))
        if self.sigma.shape != self.tau.shape or self.sigma.shape[-1] != DIM:
            raise GeometryError("frame arrays must both have shape (nu, nt, 6)")

    @property
    def shape(self):
        return self.sigma.shape[:2]

    @property
    def du(self) -> float:
        u = self.u_values
        return float(u[1] - u[0])

    @property
    def dtheta(self) -> float:
        t = self.theta_values
        return float(t[1] - t[0])

    def diff(self, field: np.ndarray, axis: int, order: int = 1) -> np.ndarray:
        """First or second difference of a grid field (nu, nt, ...) along
        axis 0 (u) or 1 (theta), with that axis's spacing and periodicity."""
        h, periodic = ((self.du, self.periodic_u) if axis == 0
                       else (self.dtheta, self.periodic_theta))
        stencil = {1: stencils.diff1, 2: stencils.diff2}[order]
        return stencil(field, h, axis=axis, periodic=periodic)


def _memoised(owner: LegendreGrid | Omega0Structure, key: Hashable,
              compute: Callable):
    """The value owner keeps under key in its private _derived dict,
    computed from owner on first request."""
    if key not in owner._derived:
        owner._derived[key] = compute(owner)
    return owner._derived[key]


def make_legendre_from_surface(points: np.ndarray, normals: np.ndarray,
                               u_values: np.ndarray, theta_values: np.ndarray,
                               periodic_u: bool = False,
                               periodic_theta: bool = False) -> LegendreGrid:
    """Contact lift of an immersed surface given points and unit normals."""
    points = np.asarray(points, dtype=float)
    normals = np.asarray(normals, dtype=float)
    offs = np.einsum("...i,...i->...", points, normals)
    return LegendreGrid(
        sigma=point_lift(points),
        tau=plane_lift(normals, offs),
        u_values=u_values,
        theta_values=theta_values,
        periodic_u=periodic_u,
        periodic_theta=periodic_theta,
    )


# ---------------------------------------------------------------------------
# quotient bundle f^perp / f and the solder form
# ---------------------------------------------------------------------------

#: index pairs (i, j), i < j, of the Pluecker coordinates of a 2-plane of R^4
_PLUCKER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
#: the Hodge dual Q = *(a ^ b) as a 4 x 4 skew matrix of Pluecker
#: coordinates: Q[r, c] = _HODGE_SIGN[r, c] * p[_HODGE_INDEX[r, c]]
_HODGE_INDEX = np.array([[0, 5, 4, 3], [5, 0, 2, 1], [4, 2, 0, 0], [3, 1, 0, 0]])
_HODGE_SIGN = np.array([[0.0, 1.0, -1.0, 1.0], [-1.0, 0.0, 1.0, -1.0],
                        [1.0, -1.0, 0.0, 1.0], [-1.0, 1.0, -1.0, 0.0]])


def _quotient_frames(sigma: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Per-point machinery for the rank-2 positive quotient of each element.

    Returns w_basis (..., 2, 6) for frames sigma and tau (..., 6): two
    orthonormal rows per element, spanning a complement of the element
    inside its orthogonal space, Euclidean-orthogonal to the element (so
    quotient coordinates are plain dot products): the Euclidean complement
    of span{sigma, tau, G sigma, G tau}, which depends only on the element.

    With a and b the R^4 parts of sigma and tau, that span is
    span{a, b} + R^{0,2}: a and b are independent, because a null vector
    with zero R^4 part is zero.  The complement is therefore the plane of
    R^4 + 0 orthogonal to a and b, where G = I, so its quotient Gram is the
    identity and needs no check beyond isotropy.  Its bivector is the Hodge
    dual Q = *(a ^ b), formed from the six Pluecker coordinates
    p_ij = a_i b_j - a_j b_i.  The rows are the longest column c of Q (ties
    go to the lowest index) and Q c, normalised: Q c lies in the plane and
    is orthogonal to c, with |Q c| = |a ^ b| |c|, and the longest column
    has |c|^2 >= |a ^ b|^2 / 2.  Where a ^ b vanishes both rows are zero.
    Every consumer reads only quantities invariant under an O(2) change
    of the two rows (2 x 2 determinants up to a common sign, Grams,
    singular values), so the choice of column is harmless.
    """
    shape = sigma.shape[:-1]
    count = sigma.size // DIM
    a = sigma.reshape(count, DIM).T                             # (6, n) views
    b = tau.reshape(count, DIM).T
    plucker = np.empty((len(_PLUCKER), count))
    for m, (i, j) in enumerate(_PLUCKER):
        plucker[m] = a[i] * b[j] - a[j] * b[i]
    hodge = plucker[_HODGE_INDEX]                               # (4, 4, n)
    hodge *= _HODGE_SIGN[..., None]
    del plucker
    longest = np.argmax(np.einsum("rcn,rcn->cn", hodge, hodge), axis=0)
    # column longest[k] of hodge[..., k], as one gather from the flat rows
    c = np.take(hodge.reshape(4, -1), longest * count + np.arange(count),
                axis=1)
    rows = np.zeros((count, 2, DIM))
    for row, v in enumerate((c, np.einsum("rcn,cn->rn", hodge, c))):
        norm = np.sqrt(np.einsum("in,in->n", v, v))
        np.divide(v, norm, out=rows[:, row, :4].T, where=norm > 0.0)
    return rows.reshape(shape + (2, DIM))


def _solder(grid: LegendreGrid, sigma: np.ndarray, tau: np.ndarray, rows,
            inner):
    """The solder form on a u-slab's rows (_u_slabs), from frames sigma and
    tau read on the slab's halo window: the window differences (sigma_u,
    sigma_theta, tau_u, tau_theta), and the quotient coordinates (rows, nt,
    2) of each against the quotient frames of the slab's elements."""
    derivatives = (_window_diffs(grid, sigma, inner)
                   + _window_diffs(grid, tau, inner))
    w_basis = _quotient_frames(grid.sigma[rows], grid.tau[rows])
    return derivatives, [np.einsum("...kd,...d->...k", w_basis, dv)
                         for dv in derivatives]


@dataclass(frozen=True)
class LegendreReport:
    isotropy: float
    contact: float
    immersion: float
    passed: bool

    def __str__(self):
        status = "ok" if self.passed else "FAILED"
        return (f"legendre check [{status}]: isotropy={self.isotropy:.3e} "
                f"contact={self.contact:.3e} immersion={self.immersion:.3e}")


def _validation_slab(grid: LegendreGrid, rows, window, inner):
    """(isotropy, contact, -immersion) on a u-slab's rows (_u_slabs), from
    the solder form of the unit frames: each a maximum over its terms that
    keeps a NaN."""

    def worst(pairs):
        return np.max([np.max(np.abs(np.einsum("...i,...i->...", x, gy)))
                       for x, gy in pairs])

    s, t = unit_rows(grid.sigma[window]), unit_rows(grid.tau[window])
    derivatives, (au_s, at_s, au_t, at_t) = _solder(grid, s, t, rows, inner)
    s, t = s[inner], t[inner]
    gs, gt = SIGNS * s, SIGNS * t                 # inner(x, s) = x . gs
    beta = np.stack([np.concatenate([au_s, au_t], axis=-1),
                     np.concatenate([at_s, at_t], axis=-1)], axis=-1)
    return np.array([
        worst([(s, gs), (t, gt), (s, gt)]),
        worst([(dv, gy) for dv in derivatives for gy in (gs, gt)]),
        -_smallest_singular_value(beta)])


def _legendre_report(grid: LegendreGrid) -> LegendreReport:
    """validate_legendre's measurements and verdict, reduced slab by slab
    with np.maximum, which keeps a NaN, as the grid-wide max would."""
    worst = np.full(3, -np.inf)
    for rows, window, inner in _u_slabs(grid):
        worst = np.maximum(worst, _validation_slab(grid, rows, window, inner))
    iso, contact, low = map(float, worst)
    immersion = -low
    tol_contact = max(1e-8, 5.0 * (grid.du ** 2 + grid.dtheta ** 2))
    passed = (iso <= ISOTROPY_TOL and contact <= tol_contact
              and immersion >= IMMERSION_MIN)
    return LegendreReport(isotropy=iso, contact=contact, immersion=immersion,
                          passed=passed)


def _gram_eigvals(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., 2) of the 2 x 2 Grams of two column
    fields (..., k), from three column products: one einsum over the
    k x 2 matrices gives the same entries at several times the cost."""
    c01 = np.einsum("...k,...k->...", c0, c1)
    gram = np.stack([np.einsum("...k,...k->...", c0, c0), c01, c01,
                     np.einsum("...k,...k->...", c1, c1)], axis=-1)
    return small_eigvalsh(gram.reshape(c01.shape + (2, 2)))


def _smallest_singular_value(beta: np.ndarray) -> float:
    """Smallest singular value over a grid of (..., 4, 2) matrices.

    The square root of the smaller eigenvalue of beta^T beta, taken as
    det / lambda_max, with the determinant from Cauchy-Binet: the sum of
    the squared 2 x 2 minors of beta.  That keeps the result within about
    eps * sigma_max of the SVD's, where the 2 x 2 eigenvalue form would
    lose it to cancellation, down to sqrt(eps) * sigma_max.
    """
    col0, col1 = beta[..., 0], beta[..., 1]
    rows = np.triu_indices(beta.shape[-2], 1)
    minors = (col0[..., rows[0]] * col1[..., rows[1]]
              - col0[..., rows[1]] * col1[..., rows[0]])
    top = _gram_eigvals(col0, col1)[..., 1]
    det = np.einsum("...m,...m->...", minors, minors)
    low = np.divide(det, top, out=np.zeros_like(det), where=top > 0.0)
    return float(np.sqrt(np.min(low)))


def validate_legendre(grid: LegendreGrid) -> LegendreReport:
    """Measure the defining conditions of a Legendre map on the grid.

    isotropy: worst inner product among unit frame vectors.
    contact: worst inner product of a unit-frame derivative against the
        element (second-order differences, so expect O(h^2) for an exact
        surface).
    immersion: smallest singular value over the grid of the solder form as a
        4x2 matrix (directions to quotient-valued derivatives).

    Measurements use unit-rescaled copies of the frames so the numbers are
    scale-free.  The verdict holds them to ISOTROPY_TOL, a contact bound of
    max(1e-8, 5 (du^2 + dtheta^2)) and IMMERSION_MIN.  The pass runs u-slab
    by u-slab (_u_slabs): each slab builds the solder form of its unit
    frames (_solder, which curvature_data runs on the raw frames), and is
    reduced to the three measurements before the next slab is built.  A
    NaN in any term reads as a NaN measurement, which fails.  The report
    is made once per grid, and is all the grid keeps.
    """
    return _memoised(grid, "validation", _legendre_report)


# ---------------------------------------------------------------------------
# curvature spheres
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureData:
    """Pointwise curvature spheres and their directions.

    s1/s2 hold unit, sign-aligned representatives; dir1/dir2 are unit vectors
    in the (u, theta) chart.  dir1 is the theta-like direction by the
    labelling convention.  Points where the two spheres' projective
    separation falls below the umbilic tolerance are flagged.
    """

    s1: np.ndarray
    s2: np.ndarray
    dir1: np.ndarray
    dir2: np.ndarray
    umbilic: np.ndarray


def _solve_direction_quadratic(qa, qb, qc):
    """Roots (a:b) of qa*a^2 + qb*a*b + qc*b^2 = 0, batched and stabilised."""
    scale = np.maximum(np.maximum(np.abs(qa), np.abs(qc)), np.abs(qb))
    scale = np.where(scale == 0.0, 1.0, scale)
    disc = qb * qb - 4.0 * qa * qc
    degenerate = disc < (UMBILIC_TOL * scale) ** 2
    disc_pos = np.maximum(disc, 0.0)
    sgn = np.where(qb >= 0.0, 1.0, -1.0)
    q = -(qb + sgn * np.sqrt(disc_pos)) / 2.0
    # homogeneous root pairs (a, b): (q, qa) and (qc, q)
    r1 = np.stack([q, qa], axis=-1)
    r2 = np.stack([qc, q], axis=-1)
    # guard the fully degenerate case q == qa == 0 (or qc == 0)
    tiny = 1e-300
    r1 = np.where(np.linalg.norm(r1, axis=-1, keepdims=True) < tiny,
                  np.array([0.0, 1.0]), r1)
    r2 = np.where(np.linalg.norm(r2, axis=-1, keepdims=True) < tiny,
                  np.array([1.0, 0.0]), r2)
    r1 = r1 / np.linalg.norm(r1, axis=-1, keepdims=True)
    r2 = r2 / np.linalg.norm(r2, axis=-1, keepdims=True)
    return r1, r2, degenerate


def curvature_data(grid: LegendreGrid) -> CurvatureData:
    """Extract both curvature sphere fields by the pencil-degeneration rule.

    At each sample the 2x2 maps M_u, M_t send frame coefficients to quotient
    coordinates of the derivative; a curvature sphere is a pencil member
    killed by some direction, i.e. a root of det(a*M_u + b*M_t) = 0.
    The pass runs u-slab by u-slab (_u_slabs): each slab differences its
    frames once on its halo window and builds its quotient frames, the
    quotient coordinates M_u and M_t, the quadratic, its roots and their
    kernel spheres.  Only the roots and kernel spheres are gathered
    whole-grid (16 doubles per point), for the label and sign alignment
    scans.  Extracted once per grid; the stored arrays are read-only.
    """
    return _memoised(grid, "curvature", _extract_curvature)


def _curvature_slab(grid: LegendreGrid, rows, window, inner):
    """(r1, r2, degenerate, k1, k2) on a u-slab's rows (_u_slabs): both
    roots of the direction quadratic, where they coincide, and the unit
    kernel sphere of each root."""
    sigma, tau = grid.sigma[rows], grid.tau[rows]
    _, (au_s, at_s, au_t, at_t) = _solder(grid, grid.sigma[window],
                                          grid.tau[window], rows, inner)

    def det2(p, q):
        return p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]

    qa = det2(au_s, au_t)
    qc = det2(at_s, at_t)
    qb = det2(au_s, at_t) + det2(at_s, au_t)
    r1, r2, degenerate = _solve_direction_quadratic(qa, qb, qc)

    def kernel_sphere(direction):
        m_s = direction[..., :1] * au_s + direction[..., 1:] * at_s
        m_t = direction[..., :1] * au_t + direction[..., 1:] * at_t
        a, b = null_combination(m_s, m_t)
        return unit_rows(a * sigma + b * tau)

    return r1, r2, degenerate, kernel_sphere(r1), kernel_sphere(r2)


def _extract_curvature(grid: LegendreGrid) -> CurvatureData:
    r1, r2 = np.empty(grid.shape + (2,)), np.empty(grid.shape + (2,))
    k1, k2 = np.empty(grid.shape + (DIM,)), np.empty(grid.shape + (DIM,))
    degenerate = np.empty(grid.shape, dtype=bool)
    for rows, window, inner in _u_slabs(grid):
        (r1[rows], r2[rows], degenerate[rows], k1[rows],
         k2[rows]) = _curvature_slab(grid, rows, window, inner)
    # continuous labelling first, then one global swap so that dir1 is the
    # theta-like family whenever the grid has one
    d1, d2, s1, s2 = align_labels_grid(r1, r2, k1, k2)
    del r1, r2, k1, k2
    if np.mean(np.abs(d2[..., 1])) > np.mean(np.abs(d1[..., 1])):
        d1, d2, s1, s2 = d2, d1, s2, s1

    s1 = align_signs_grid(s1)
    s2 = align_signs_grid(s2)
    umbilic = degenerate | (projective_gap(s1, s2) < UMBILIC_TOL)
    d1 = align_signs_grid(d1)
    d2 = align_signs_grid(d2)
    fields = dict(s1=s1, s2=s2, dir1=d1, dir2=d2, umbilic=umbilic)
    for array in fields.values():
        array.flags.writeable = False
    return CurvatureData(**fields)


def _window_diffs(grid: LegendreGrid, here: np.ndarray, inner: slice):
    """(u-difference, theta-difference) on a u-slab's rows of a field read
    on the slab's halo window (_u_slabs); `here` holds the window's rows."""
    return grid.diff(here, 0)[inner], grid.diff(here[inner], 1)


def _jet_rows(grid: LegendreGrid, field: np.ndarray, direction: np.ndarray,
              window, inner: slice):
    """(D field, D^2 field), each (rows, nt, 6) on a u-slab's rows: the
    derivative rows of the 2-jet of a grid field along a varying
    direction field, both read on the slab's halo window (D^2 with the
    first-order correction terms coming from the variation of the
    direction)."""
    here, ab = field[window], direction[window]
    fu, ft = _window_diffs(grid, here, inner)
    fuu = grid.diff(here, 0, order=2)[inner]
    ftt = grid.diff(here[inner], 1, order=2)
    fut = grid.diff(fu, 1)
    (a_u, b_u), (a_t, b_t) = (np.moveaxis(d, -1, 0)
                              for d in _window_diffs(grid, ab, inner))
    a, b = ab[inner, ..., 0], ab[inner, ..., 1]
    # each sum formed in place, term by term in the order of the formula
    first = a[..., None] * fu
    first += b[..., None] * ft
    second = (a * a)[..., None] * fuu
    second += (2.0 * a * b)[..., None] * fut
    second += (b * b)[..., None] * ftt
    second += (a * a_u + b * a_t)[..., None] * fu
    second += (a * b_u + b * b_t)[..., None] * ft
    return first, second


# ---------------------------------------------------------------------------
# cyclide splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LieCyclideSplit:
    """The pointwise splitting into two rank-3 subbundles, reduced to the
    measurements that can fail.

    S1 is spanned by the 2-jet of the first curvature sphere field along
    the second curvature direction; its metric complement is S2.
    coupling[dir_i] is the largest entry of the splitting tensor
    N(dir_i) = (1 - 2 p1) d_dir_i p1, p1 the metric projector onto S1: it
    vanishes exactly along a circular direction (NaN where no usable point
    has usable neighbours for both differences).  s2_agreement is the sine
    of the largest principal angle between S2 and the 2-jet span of the
    second curvature sphere along the first direction (O(h^2) on exact
    data).  excluded marks umbilics, bad signatures, open-grid edges and
    ill-conditioned points.
    """

    coupling: dict
    s2_agreement: float
    excluded: np.ndarray


def _metric_projector_batch(basis: np.ndarray) -> np.ndarray:
    """Metric projectors B^T G^-1 B S onto the spans of (n, 3, 6) bases,
    with the Gram inverse from the adjugate (callers pass only bases whose
    Gram eigenvalues are at least SPLIT_COND_TOL in magnitude)."""
    signed = basis * SIGNS
    gram = basis @ _transposed(signed)
    return np.swapaxes(basis, -1, -2) @ (inv3(gram) @ signed)


def interior_mask(shape, periodic_u: bool, periodic_theta: bool,
                  margin: int) -> np.ndarray:
    """True away from open-grid edges, where one-sided stencils distort
    iterated derivatives (the stencil switch is an O(h^2) kink that second
    differences amplify to O(1))."""
    mask = np.ones(shape, dtype=bool)
    if margin <= 0:
        return mask
    if not periodic_u and shape[0] > 2 * margin:
        mask[:margin] = False
        mask[-margin:] = False
    if not periodic_theta and shape[1] > 2 * margin:
        mask[:, :margin] = False
        mask[:, -margin:] = False
    return mask


def _well_split(basis: np.ndarray) -> np.ndarray:
    """Where the Gram of Euclidean-orthonormal (..., 3, 6) bases has
    signature (2, 1) and no eigenvalue under SPLIT_COND_TOL in magnitude:
    splitting quality degrades where an osculating space nearly
    degenerates.  With orthonormal rows the Gram is I - 2 K K^T, K =
    basis[..., 4:] the 3 x 2 negative block, so its eigenvalues are 1,
    which is positive and never the smallest in magnitude, and 1 - 2 mu
    for the two eigenvalues mu of the 2 x 2 matrix K^T K."""
    ev = 1.0 - 2.0 * _gram_eigvals(basis[..., 4], basis[..., 5])
    return (ev[..., 0] >= SPLIT_COND_TOL) & (ev[..., 1] <= -SPLIT_COND_TOL)


def _u_slabs(grid: LegendreGrid, parts: int = 1):
    """The u-slabs that every grid pass reduces grid fields in, as (rows,
    window, inner): whole u-rows, _SLAB_POINTS / parts grid points' worth
    (at least one row).

    rows is the slab's slice of u-rows; window indexes the slab's rows with
    one halo row on each side (wrapped when periodic; at an open end none,
    but at least four rows, as the one-sided second difference needs);
    inner is the slab's slice of the window.  On the inner rows, grid.diff
    along u of a field read on the window is the field's grid difference:
    central on every row but an open end's one-sided one, with a periodic
    wrap that reaches only the halo rows.
    """
    nu, nt = grid.shape
    step = max(_SLAB_POINTS // (parts * nt), 1)
    for start in range(0, nu, step):
        stop = min(start + step, nu)
        if grid.periodic_u:
            window, offset = np.arange(start - 1, stop + 1) % nu, 1
        else:
            hi = min(max(stop + 1, 4), nu)
            lo = max(min(start - 1, hi - 4), 0)
            window, offset = np.arange(lo, hi), start - lo
        yield slice(start, stop), window, slice(offset, offset + stop - start)


def _split_bases(grid: LegendreGrid, data: CurvatureData, rows, window,
                 inner):
    """(b1, b2_jet, usable) on a u-slab's rows (_u_slabs): orthonormal
    bases of both 2-jets of the splitting (_jet_rows: s1 along dir2, s2
    along dir1), and the points where both have signature (2, 1), are well
    conditioned, and lie away from open-grid edges."""
    first, second = _jet_rows(grid, data.s1, data.dir2, window, inner)
    b1 = orthonormal_rows(np.stack([data.s1[rows], first, second], axis=-2))
    del first, second
    first, second = _jet_rows(grid, data.s2, data.dir1, window, inner)
    b2_jet = orthonormal_rows(np.stack([data.s2[rows], first, second],
                                       axis=-2))
    usable = ~data.umbilic[rows] & interior_mask(
        grid.shape, grid.periodic_u, grid.periodic_theta,
        SPLIT_EDGE_MARGIN)[rows]
    usable &= _well_split(b1) & _well_split(b2_jet)
    return b1, b2_jet, usable


def lie_cyclide_split(grid: LegendreGrid) -> LieCyclideSplit:
    """The cyclide splitting and its measurements, taken once per grid.

    Raises GeometryError on a totally umbilic grid.  The pass holds one
    whole-grid field, the basis b1.  A first sweep over the u-slabs
    (_u_slabs) forms the derivative rows of both 2-jets on each slab's
    halo window, orthonormalises both bases and reduces the usable mask
    and the agreement; a second builds the projector field and its
    differences from b1 on each slab's halo window and reduces them at
    once.  The grid keeps only the measurements and the excluded mask.
    """
    return _memoised(grid, "split", _split_cyclides)


def _split_cyclides(grid: LegendreGrid) -> LieCyclideSplit:
    data = curvature_data(grid)
    if bool(np.all(data.umbilic)):
        raise GeometryError("cyclide splitting undefined on a totally umbilic grid")
    b1 = np.empty(grid.shape + (3, DIM))
    usable = np.empty(grid.shape, dtype=bool)
    # each slab's work is a call of its own, so that its temporaries are
    # gone before the next slab's are built
    top = -np.inf
    for rows, window, inner in _u_slabs(grid):
        top = np.maximum(top, _split_slab(grid, data, b1, usable, rows,
                                          window, inner))
    excluded = ~usable
    excluded.flags.writeable = False
    if not np.any(usable):
        return LieCyclideSplit({"dir1": np.nan, "dir2": np.nan}, np.inf,
                               excluded)
    agreement = float(np.sqrt(np.maximum(top, 0.0)))
    # the projector fields hold 36 doubles per point, six times a frame
    # field, so the coupling sweep takes slabs of half the points
    coupling = np.full(2, -np.inf)
    for rows, window, inner in _u_slabs(grid, parts=2):
        coupling = np.maximum(coupling, _coupling_slab(
            grid, data, b1, usable, rows, window, inner))
    # NaN where no slab had a good point (still -inf) or a read was NaN
    coupling = {name: float(value) if value >= 0.0 else np.nan
                for name, value in zip(("dir1", "dir2"), coupling)}
    return LieCyclideSplit(coupling, agreement, excluded)


def _split_slab(grid, data, b1, usable, rows, window, inner):
    """Fill b1 and usable on a u-slab's rows (_split_bases) and return the
    slab's largest squared agreement sine over its usable points.

    S2 is the Euclidean complement of span(G b1), whose rows are
    orthonormal, so the sine against the jet span of s2 is the largest
    singular value of the 3 x 3 metric cross-Gram b1 G b2_jet^T.
    """
    b1[rows], b2_jet, usable[rows] = _split_bases(grid, data, rows, window,
                                                  inner)
    cross = b1[rows] @ _transposed(SIGNS * b2_jet)
    return np.max(_largest_eigvalsh(cross @ _transposed(cross)),
                  where=usable[rows], initial=-np.inf)


def _coupling_slab(grid, data, b1, usable, rows, window, inner):
    """The largest |N(dir1)| and |N(dir2)| on a u-slab's rows (-inf where
    the slab has no good point): the projector field onto S1 and its
    differences, built from b1 on the slab's halo window."""
    here = usable[rows]
    worst = np.full(2, -np.inf)
    if not np.any(here):
        return worst
    on = usable[window]
    at, col = np.nonzero(on)
    p1 = np.full(on.shape + (DIM, DIM), np.nan)
    p1[at, col] = _metric_projector_batch(b1[window[at], col])
    del at, col
    p1_u = grid.diff(p1, 0)[inner]
    p1 = p1[inner]
    p1_t = grid.diff(p1, 1)
    # p1 is NaN in every entry exactly off the usable points, so one
    # entry of each difference shows where both stencils stay on
    # usable points
    good = here & ~np.isnan(p1_u[..., 0, 0] + p1_t[..., 0, 0])
    if not np.any(good):
        return worst
    # only the reported components N(dir_i) = (1 - 2 p1) d_dir_i p1;
    # both factors are formed in place, and each field is gathered to the
    # good points before the next
    flip = p1[good]
    del p1
    flip *= -2.0
    flip += np.eye(DIM)
    p1_u = p1_u[good]
    p1_t = p1_t[good]
    for k, direction in enumerate((data.dir1, data.dir2)):
        ab = direction[rows][good][..., None, None]
        d_p1 = ab[:, 0] * p1_u
        d_p1 += ab[:, 1] * p1_t
        worst[k] = np.max(np.abs(flip @ d_p1, out=d_p1))
    return worst


# ---------------------------------------------------------------------------
# channel detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelVerdict:
    circular_dir: str             # 'none' | 'dir1' | 'dir2' | 'both'
    rates: dict                   # projective variation rate per direction

    def circular(self, which: str) -> bool:
        return self.circular_dir in (which, "both")


@dataclass(frozen=True)
class ChannelReport(ChannelVerdict):
    coupling: dict                # |N(dir_i)| per direction
    consistent: bool              # the two criteria agree
    notes: list


def _variation_rate(field: np.ndarray, direction: np.ndarray,
                    grid: LegendreGrid, mask: np.ndarray) -> float:
    """Max projective speed of a unit field along a direction field off
    the mask (inf where the mask covers the grid), reduced u-slab by
    u-slab, skipping slabs the mask covers; np.maximum keeps a NaN, as
    the grid-wide max would."""
    top = -np.inf
    for rows, window, inner in _u_slabs(grid):
        good = ~mask[rows]
        if not np.any(good):
            continue
        f_u, f_t = _window_diffs(grid, field[window], inner)
        here, ab = field[rows], direction[rows]
        dv = ab[..., :1] * f_u + ab[..., 1:] * f_t
        dots = np.einsum("...d,...d->...", dv, here)
        rej = dv - dots[..., None] * here
        speed = np.linalg.norm(rej, axis=-1)
        top = np.maximum(top, np.max(speed[good]))
    return np.inf if top == -np.inf else float(top)


def channel_verdict(grid: LegendreGrid) -> ChannelVerdict:
    """Decide along which curvature directions the curvature spheres freeze.

    The criterion is the projective variation rate of s_i along its own
    curvature direction, within a grid-aware tolerance.  This is all that
    omega0_form and the Calapso measurements read; only is_channel pays
    for the splitting cross-check on top of it.  Decided once per grid.
    """
    return _memoised(grid, "channel_rates", _classify_rates)


def _classify_rates(grid: LegendreGrid) -> ChannelVerdict:
    data = curvature_data(grid)
    tol_rate = max(1e-6, grid.du ** 2 + grid.dtheta ** 2)
    mask = data.umbilic | ~interior_mask(grid.shape, grid.periodic_u,
                                         grid.periodic_theta,
                                         CHANNEL_EDGE_MARGIN)
    rate1 = _variation_rate(data.s1, data.dir1, grid, mask)
    rate2 = _variation_rate(data.s2, data.dir2, grid, mask)
    circ = (rate1 <= tol_rate, rate2 <= tol_rate)
    circular_dir = {(False, False): "none", (True, False): "dir1",
                    (False, True): "dir2", (True, True): "both"}[circ]
    return ChannelVerdict(circular_dir=circular_dir,
                          rates={"dir1": rate1, "dir2": rate2})


def is_channel(grid: LegendreGrid) -> ChannelReport:
    """channel_verdict, cross-checked against the cyclide splitting.

    Along each circular direction the corresponding component of the
    splitting tensor N must vanish too.  That reads lie_cyclide_split,
    which builds the projector field and both of its differences, so only
    callers that report the coupling (the scene's `channel` op, the tests)
    should pay for it.
    Disagreement is flagged (not raised) since it indicates the grid is
    too coarse to classify.  Decided once per grid, on top of the
    memoised rates and splitting.
    """
    return _memoised(grid, "channel", _classify_channel)


def _classify_channel(grid: LegendreGrid) -> ChannelReport:
    verdict = channel_verdict(grid)
    tol_coupling = max(1e-6, 5.0 * (grid.du ** 2 + grid.dtheta ** 2))

    notes = []
    try:
        coupling = dict(lie_cyclide_split(grid).coupling)
    except GeometryError as exc:
        notes.append(f"splitting unavailable: {exc}")
        coupling = {"dir1": np.nan, "dir2": np.nan}

    consistent = True
    for name, coup in coupling.items():
        circ = verdict.circular(name)
        if not np.isnan(coup) and circ != (coup <= tol_coupling):
            consistent = False
            notes.append(
                f"criteria disagree along {name}: rate vs coupling "
                f"({'circular' if circ else 'non-circular'} vs {coup:.3e})")

    return ChannelReport(
        circular_dir=verdict.circular_dir, rates=verdict.rates,
        coupling=coupling, consistent=consistent, notes=notes,
    )


# ---------------------------------------------------------------------------
# spherical parameter lines
# ---------------------------------------------------------------------------

def spherical_line_residuals(grid: LegendreGrid, indices):
    """How close each requested line of constant u comes to lying on one
    sphere, all lines fitted in one pass; returns the residuals (m,).

    Planes count as spheres here (infinite radius), so planar lines also
    report a near-zero residual.  A point lift pairs to zero with a
    sphere's radius slot, so each fit runs over the five effective
    coordinates of the line's unit point spheres, and points at infinity
    enter as zero rows, which leave the fit alone.  An error names the
    first bad line: a pencil made entirely of point spheres, or fewer than
    six finite points.
    """
    indices = np.asarray(indices, dtype=int)
    vec, _, finite, pure = _pencil_point_spheres(grid.sigma[indices],
                                                 grid.tau[indices])
    hit = first_failure([
        (pure.any(axis=-1), lambda k: GeometryError(
            f"parameter line u-index {indices[k]}: pencil is entirely "
            "made of point spheres")),
        (np.count_nonzero(finite, axis=-1) < 6, lambda k: GeometryError(
            f"parameter line u-index {indices[k]} has fewer than six "
            "finite points"))])
    if hit is not None:
        raise hit[1]
    rows = np.where(finite[..., None], unit_rows(vec), 0.0)
    svals = np.linalg.svd((rows * SIGNS)[..., :5], full_matrices=False)[1]
    return svals[:, -1]
