"""Linear algebra of the hexaspherical sphere model.

Oriented spheres, planes and points of Euclidean 3-space are encoded as null
lines of R^{4,2}, the 6-dimensional real vector space carrying the inner
product

    (x, y) = x1*y1 + x2*y2 + x3*y3 + x4*y4 - x5*y5 - x6*y6.

Two oriented spheres are in oriented contact exactly when their null lifts are
orthogonal.  Everything in this module is plain numpy on shape-(6,) vectors
(or batches thereof); a subspace is a stack of Euclidean-orthonormal rows
(..., k, 6), as span_rows, complement_rows and orthonormal_rows return it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

#: diagonal of the metric, signature (4, 2)
SIGNS = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])

#: metric as a matrix, for operator-level work
METRIC = np.diag(SIGNS)

DIM = 6
#: relative size under which a coordinate of a lift reads as zero
EUCLIDEAN_TOL = 1e-10
#: worst relative_nullity of a vector that counts as null
NULL_TOL = 1e-10
#: singular values of a stack at or under RANK_TOL times its largest do
#: not count towards its rank
RANK_TOL = 1e-10


class GeometryError(ValueError):
    """Base class for geometric failures (degenerate input, wrong signature...)."""


class RankDeficiencyError(GeometryError):
    """Raised when a requested span drops rank."""

    def __init__(self, requested: int, achieved: int):
        self.requested = requested
        self.achieved = achieved
        super().__init__(
            f"span of {requested} vectors has rank {achieved}: input is "
            f"(numerically) linearly dependent"
        )


class SignatureError(GeometryError):
    """Raised when a subspace does not have the signature an operation needs."""


# ---------------------------------------------------------------------------
# inner product and normalisation helpers
# ---------------------------------------------------------------------------

def inner(a: np.ndarray, b: np.ndarray):
    """Indefinite inner product; broadcasts over leading axes."""
    return np.einsum("...i,...i->...", np.asarray(a), SIGNS * np.asarray(b))


def relative_nullity(vectors: np.ndarray) -> float:
    """Worst |(v, v)| / |v|^2 over a batch of vectors v (..., 6)."""
    scale = np.einsum("...i,...i->...", vectors, vectors)
    return float(np.max(np.abs(inner(vectors, vectors)) / scale))


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Scale (batches of) vectors to Euclidean norm 1."""
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def read_only_copy(array: np.ndarray) -> np.ndarray:
    """A float copy of array that cannot be written to."""
    copy = np.array(array, dtype=float)
    copy.flags.writeable = False
    return copy


def _transposed(stack: np.ndarray) -> np.ndarray:
    """The transposes of a stack of small matrices, made contiguous: as the
    right factor of a batched product it takes about half the time of the
    strided view, with bit-identical products (OpenBLAS, numpy 2.4)."""
    return np.ascontiguousarray(np.swapaxes(stack, -1, -2))


def projective_gap(a: np.ndarray, b: np.ndarray):
    """Sine of the angle between the lines spanned by a and b.

    Computed as the norm of the rejection of one unit vector from the other,
    which stays accurate down to rounding level (unlike sqrt(1 - cos^2)).
    Broadcasts over leading axes.
    """
    ua = np.asarray(a) / np.linalg.norm(a, axis=-1, keepdims=True)
    ub = np.asarray(b) / np.linalg.norm(b, axis=-1, keepdims=True)
    dot = np.einsum("...i,...i->...", ua, ub)
    # the rejection ub - dot ua, formed in place of its second term
    rej = dot[..., None] * ua
    del ua
    np.subtract(ub, rej, out=rej)
    del ub
    return np.linalg.norm(rej, axis=-1)


def null_combination(x: np.ndarray, y: np.ndarray):
    """Coefficients (a, b), each (..., 1), of the unit combination a x + b y
    of least Euclidean norm, batched over the leading axes of x and y
    (..., d): the null vector of the matrix with columns x and y wherever
    that matrix is singular.

    (a, b) = (-sin phi, cos phi), phi the major axis of the 2 x 2 Gram
    matrix of x and y, from one arctan2; so b >= 0, and no sign is left to
    an SVD.
    """
    phi = 0.5 * np.arctan2(2.0 * np.sum(x * y, axis=-1),
                           np.sum(x * x - y * y, axis=-1))
    return -np.sin(phi)[..., None], np.cos(phi)[..., None]


# ---------------------------------------------------------------------------
# projective points and Euclidean readings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float


@dataclass(frozen=True)
class Plane:
    normal: np.ndarray
    offset: float


@dataclass(frozen=True)
class Point:
    position: np.ndarray


@dataclass(frozen=True)
class Infinity:
    pass


EuclideanObject = Union[Sphere, Plane, Point, Infinity]


def sphere_lift(center, radius) -> np.ndarray:
    """Null lift of an oriented sphere (radius 0 gives a point sphere).

    Components: (c, (1 - |c|^2 + r^2)/2, (1 + |c|^2 - r^2)/2, r); the sum of
    the fourth and fifth components is the homogenising coordinate, fixed
    to 1 here.  Broadcasts over leading axes: centers (..., 3), radii (...).
    """
    c = np.asarray(center, dtype=float)
    r = np.asarray(radius, dtype=float)
    cc = np.einsum("...i,...i->...", c, c)
    out = np.empty(np.broadcast_shapes(c.shape[:-1], r.shape) + (DIM,))
    out[..., :3] = c
    out[..., 3] = (1.0 - cc + r * r) / 2.0
    out[..., 4] = (1.0 + cc - r * r) / 2.0
    out[..., 5] = r
    return out


def point_lift(position) -> np.ndarray:
    """Null lift of (a batch of) Euclidean points: radius-0 spheres."""
    return sphere_lift(position, 0.0)


def plane_lift(normal, offset) -> np.ndarray:
    """Null lift of the oriented planes {x : x . n = d} with unit normals n.

    Broadcasts over leading axes: normals (..., 3), offsets (...).
    """
    n = np.asarray(normal, dtype=float)
    if np.any(np.abs(np.linalg.norm(n, axis=-1) - 1.0) > 1e-12):
        raise GeometryError("plane normal must be a unit vector")
    d = np.asarray(offset, dtype=float)
    out = np.empty(np.broadcast_shapes(n.shape[:-1], d.shape) + (DIM,))
    out[..., :3] = n
    out[..., 3] = -d
    out[..., 4] = d
    out[..., 5] = 1.0
    return out


INFINITY_VEC = np.array([0.0, 0.0, 0.0, -1.0, 1.0, 0.0])


def project_to_euclidean(p: np.ndarray) -> EuclideanObject:
    """Read a projective lightcone point back as a Euclidean sphere/plane/point.

    A representative with nonvanishing homogenising coordinate (x4 + x5) is a
    sphere (or a point if the signed radius vanishes); otherwise a
    nonvanishing sixth component marks a plane; otherwise the point at
    infinity.
    """
    v = np.asarray(p, dtype=float)
    scale = np.linalg.norm(v)
    if scale == 0.0:
        raise GeometryError("zero vector")
    homog = v[3] + v[4]
    if abs(homog) > EUCLIDEAN_TOL * scale:
        w = v / homog
        if abs(w[5]) <= EUCLIDEAN_TOL:
            return Point(position=w[:3].copy())
        return Sphere(center=w[:3].copy(), radius=float(w[5]))
    if abs(v[5]) > EUCLIDEAN_TOL * scale:
        w = v / v[5]
        return Plane(normal=w[:3].copy(), offset=float(-w[3]))
    return Infinity()


# ---------------------------------------------------------------------------
# skew operators
# ---------------------------------------------------------------------------

def wedge_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of v -> (a,v) b - (b,v) a; batched over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ga = SIGNS * a
    gb = SIGNS * b
    return b[..., :, None] * ga[..., None, :] - a[..., :, None] * gb[..., None, :]


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

def span_rows(stacks: np.ndarray):
    """Batched rank-checked span: stacks (..., k, 6) -> (bases, ranks).

    bases holds the orthonormal_rows of each stack, k finite rows even
    where the stack drops rank; ranks counts the singular values of the
    stack above RANK_TOL times the largest (0 for a zero stack), so a
    stack dropped rank where ranks < k.

    The singular values are those of the k x k factor R = A Q^T of the
    stack A against its basis Q, in closed form (_singular_values), so k
    is at most 3.  Each row is first scaled by the power of two that
    brings its largest entry into [0.5, 1), which leaves the bases' bits
    alone, keeps the products of R from over- or underflowing and makes
    the rank blind to the rows' scales.
    """
    stacks = np.asarray(stacks, dtype=float)
    # the row maxima as a fold over the six columns: numpy's max along a
    # last axis this short takes about ten times as long
    top = functools.reduce(np.maximum, np.moveaxis(np.abs(stacks), -1, 0))
    _, exponent = np.frexp(top[..., None])
    scaled = np.ldexp(stacks, -exponent)
    bases = orthonormal_rows(scaled)
    svals = _singular_values(scaled @ _transposed(bases))
    return bases, np.sum(svals > RANK_TOL * svals[..., :1], axis=-1)


def _singular_values(r: np.ndarray) -> np.ndarray:
    """Descending singular values of (..., k, k) matrices, batched.

    For k <= 3 they come from the products of the leading ones:
    s1 = sqrt(lambda_max(R R^T)); s1 s2 = |det R| for k = 2, and for
    k = 3 s1 s2 = sqrt(lambda_max(adj adj^T)) (the adjugate's singular
    values are the pairwise products) and s1 s2 s3 = |det R|.  A value
    whose divisor vanishes is 0.  k > 3 raises ValueError.
    """
    k = r.shape[-1]
    if k > 3:
        raise ValueError(f"closed-form singular values need k <= 3, got {k}")

    def top_singular(a):
        return np.sqrt(np.maximum(_largest_eigvalsh(a @ _transposed(a)), 0.0))

    products = [top_singular(r)]
    if k == 2:
        products.append(np.abs(r[..., 0, 0] * r[..., 1, 1]
                               - r[..., 0, 1] * r[..., 1, 0]))
    elif k == 3:
        adj, det = _adjugate(r)
        products += [top_singular(adj), np.abs(det)]
    svals = products[:1]
    for before, product in zip(products, products[1:]):
        svals.append(np.divide(product, before, out=np.zeros_like(product),
                               where=before > 0.0))
    return np.stack(svals, axis=-1)


def _signature_counts(evals: np.ndarray):
    """(n_plus, n_minus, n_zero) of Gram eigenvalues (..., k), batched.

    Gram matrices of Euclidean-orthonormal rows have eigenvalues in
    [-1, 1]; the absolute floor catches totally degenerate spans.
    """
    zero_tol = np.maximum(1e-9 * np.max(np.abs(evals), axis=-1,
                                        keepdims=True), 1e-12)
    n_zero = np.sum(np.abs(evals) < zero_tol, axis=-1)
    n_plus = np.sum(evals >= zero_tol, axis=-1)
    return n_plus, evals.shape[-1] - n_plus - n_zero, n_zero


#: relative gap under which orthonormal_rows counts completion residuals
#: as tied (the lowest coordinate index then wins)
_TIE_TOL = 1e-12


def orthonormal_rows(rows: np.ndarray, total: Optional[int] = None) -> np.ndarray:
    """Batched Gram–Schmidt: rows (..., k, 6) -> (..., total, 6).

    Euclidean-orthonormal rows: the first k span the input rows (each
    orthogonalised twice against those before it, classical Gram–Schmidt
    run twice), the rest complete them with the coordinate vector of
    largest residual.  Residuals within a relative _TIE_TOL of the largest
    count as tied and the lowest index wins, so the completion does not
    depend on summation order.  A dependent input row (zero or repeated)
    is replaced the same way, so the output is always finite.  total
    defaults to k.

    The work runs component-major: the rows move once to a contiguous
    (k, 6, n) array, so every step is arithmetic over the n batch entries
    rather than over trailing 6-vectors.
    """
    rows = np.asarray(rows, dtype=float)
    batch, k = rows.shape[:-2], rows.shape[-2]
    total = k if total is None else total
    count = int(np.prod(batch))
    # a lone stack goes in twice: at n = 1 the reductions over d take
    # other einsum kernels and round differently from a row of a batch
    n = 2 if count == 1 else count
    given = np.ascontiguousarray(np.moveaxis(
        np.broadcast_to(rows.reshape((count, k, DIM)), (n, k, DIM)), 0, -1))
    out = np.empty((total, DIM, n))

    def reject(v, q):
        for _ in range(2):
            v = v - np.einsum("mn,mdn->dn", np.einsum("mdn,dn->mn", q, v), q)
        return v

    def squares(v):
        return np.einsum("dn,dn->n", v, v)

    for j in range(total):
        q = out[:j]
        if j < k:
            v = reject(given[j], q)
            weak = squares(v) <= 1e-24 * squares(given[j])
        else:
            v, weak = np.zeros((DIM, n)), np.ones(n, dtype=bool)
        if np.any(weak):
            residual = 1.0 - np.einsum("mdn,mdn->dn", q, q)
            tied = residual >= (1.0 - _TIE_TOL) * np.max(residual, axis=0)
            coordinate = np.arange(DIM)[:, None] == np.argmax(tied, axis=0)
            v = np.where(weak, reject(coordinate.astype(float), q), v)
        out[j] = v / np.sqrt(squares(v))
    return np.ascontiguousarray(np.moveaxis(out[..., :count], -1, 0)).reshape(
        batch + (total, DIM))


def complement_rows(rows: np.ndarray) -> np.ndarray:
    """Batched metric complement: rows (..., k, 6) -> (..., 6-k, 6)."""
    rows = np.asarray(rows, dtype=float)
    return orthonormal_rows(rows * SIGNS, DIM)[..., rows.shape[-2]:, :]


def containment_gap(bases: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Sine of the angle between each vector of (..., p, 6) and the row
    space of the orthonormal bases (..., k, 6), batched: the norm of the
    unit vector's rejection off the basis, (..., p).  The leading axes
    broadcast.
    """
    u = unit_rows(vectors)
    return np.linalg.norm(u - (u @ _transposed(bases)) @ bases, axis=-1)


def principal_sine(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Sine of the largest principal angle between the row spaces of
    orthonormal bases b1 (..., m, 6) and b2 (..., k, 6), k <= 3, batched.

    The largest singular value of b2's rejection off span b1, taken as the
    square root of the largest eigenvalue of the rejection's k x k Gram
    matrix (_largest_eigvalsh).  The rejection is formed explicitly, so the
    squared sine keeps its relative accuracy down to rounding level.  The
    leading axes broadcast.
    """
    rej = b2 - (b2 @ _transposed(b1)) @ b1
    top = _largest_eigvalsh(rej @ _transposed(rej))
    return np.sqrt(np.maximum(top, 0.0))


def _largest_eigvalsh(a: np.ndarray) -> np.ndarray:
    """small_eigvalsh(a)[..., -1], with a 3 x 3 entry deflated only where
    its top pair meets (r -> -1); where the two small roots meet (r -> 1)
    the trigonometric form already gives the top root to rounding."""
    if a.shape[-1] < 3:
        return small_eigvalsh(a)[..., -1]
    return _eigvalsh3(a, lambda r: 1.0 + r < _DEFLATE_TOL)[..., -1]


#: 1 - |r| below which a 3 x 3 matrix whose roots meet there is deflated
_DEFLATE_TOL = 1e-2


def _cross(x, y):
    return np.stack([x[..., 1] * y[..., 2] - x[..., 2] * y[..., 1],
                     x[..., 2] * y[..., 0] - x[..., 0] * y[..., 2],
                     x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]], axis=-1)


def _adjugate(a: np.ndarray):
    """(adjugate, determinant) of (..., 3, 3) matrices, batched: column j
    of the adjugate is the cross product of the other two rows, and the
    determinant is row 0 against column 0."""
    r0, r1, r2 = a[..., 0, :], a[..., 1, :], a[..., 2, :]
    adj = np.stack([_cross(r1, r2), _cross(r2, r0), _cross(r0, r1)], axis=-1)
    return adj, np.einsum("...i,...i->...", r0, adj[..., 0])


def inv3(a: np.ndarray) -> np.ndarray:
    """Inverses of (..., 3, 3) matrices from the adjugate, batched.

    The error is about cond * eps, as for LU; a singular matrix gives
    non-finite entries instead of an exception.
    """
    adj, det = _adjugate(np.asarray(a, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        return adj / det[..., None, None]


def _deflated_eigvalsh3(c, single):
    """Ascending eigenvalues of trace-free symmetric (n, 3, 3) matrices c
    whose eigenvalue `single` (n,) lies well apart from a close pair.

    The eigenvector v of `single` is the longest cross product of two rows
    of c - single * I.  On the plane orthogonal to v, c is the pair's mean
    -single / 2 plus the trace-free part of
    W = c + (single / 2) I - (3 single / 2) v v^T, which vanishes on v; the
    pair is -single / 2 -+ |W|_F / sqrt(2), with no difference of nearly
    equal numbers formed.
    """
    m = c - single[:, None, None] * np.eye(3)
    crosses = np.stack([_cross(m[:, 0], m[:, 1]), _cross(m[:, 0], m[:, 2]),
                        _cross(m[:, 1], m[:, 2])], axis=1)
    squares = np.einsum("nkd,nkd->nk", crosses, crosses)
    pick = np.arange(len(c)), np.argmax(squares, axis=1)
    v = crosses[pick] / np.sqrt(squares[pick])[:, None]
    s = single[:, None, None]
    w = c + 0.5 * s * np.eye(3) - 1.5 * s * v[:, :, None] * v[:, None, :]
    half_gap = np.sqrt(0.5 * np.einsum("nij,nij->n", w, w))
    low, high = -0.5 * single - half_gap, -0.5 * single + half_gap
    return np.where((single > 0.0)[:, None],
                    np.stack([low, high, single], axis=-1),
                    np.stack([single, low, high], axis=-1))


def small_eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of symmetric (..., k, k) matrices, k <= 3,
    batched; the closed-form counterpart of np.linalg.eigvalsh, which reads
    the lower triangle as this does.

    k = 2 is the diagonal mean -+ hypot(half the diagonal difference, the
    off-diagonal).  k = 3 is the trigonometric form (Smith, CACM 4(4),
    1961): with q = tr(A)/3, p = sqrt(tr((A - qI)^2)/6) and
    r = det((A - qI)/p)/2, the eigenvalues are
    q + 2p cos(arccos(r)/3 + 2 pi j/3).  Where two eigenvalues meet,
    |r| -> 1 and arccos turns a rounding error of eps into one of
    sqrt(eps), a floor of about 1.5e-8 * ||A|| (Kopp, arXiv:
    physics/0610206); entries with 1 - |r| < _DEFLATE_TOL are therefore
    deflated instead (_deflated_eigvalsh3).  Every eigenvalue is then within
    1e-14 * ||A||_2 of np.linalg.eigvalsh, repeated and zero eigenvalues
    included (the bound the tests check).
    """
    a = np.asarray(a, dtype=float)
    k = a.shape[-1]
    if a.shape[-2] != k or k > 3:
        raise ValueError(f"small_eigvalsh takes (..., k, k) with k <= 3, "
                         f"got {a.shape}")
    if k < 2:
        return np.diagonal(a, axis1=-2, axis2=-1).copy()
    if k == 2:
        mean = 0.5 * (a[..., 0, 0] + a[..., 1, 1])
        radius = np.hypot(0.5 * (a[..., 0, 0] - a[..., 1, 1]), a[..., 1, 0])
        return np.stack([mean - radius, mean + radius], axis=-1)

    return _eigvalsh3(a, lambda r: 1.0 - np.abs(r) < _DEFLATE_TOL)


def _eigvalsh3(a: np.ndarray, deflate) -> np.ndarray:
    """Ascending eigenvalues of symmetric (..., 3, 3) matrices by the
    trigonometric form of small_eigvalsh; entries whose r satisfies the
    mask function deflate(r) go through _deflated_eigvalsh3.  Where r -> 1
    and such an entry is not deflated, the two small roots carry the
    sqrt(eps) floor, but the top root stays at rounding level: an error e
    in arccos(r) moves 2 cos(phi) by e * sin(phi) / 3, and phi -> 0.
    """
    batch = a.shape[:-2]
    # the lower triangle as six contiguous rows, scaled to unit largest
    # entry so that squares and cubes neither under- nor overflow
    entries = a.reshape(-1, 9).T[[0, 3, 4, 6, 7, 8]]
    size = np.max(np.abs(entries), axis=0)
    size[size == 0.0] = 1.0
    a00, a10, a11, a20, a21, a22 = entries / size
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                 + 2.0 * (a10 * a10 + a20 * a20 + a21 * a21)) / 6.0)
    inv_p = 1.0 / np.where(p > 0.0, p, 1.0)
    c00, c10, c11, c20, c21, c22 = (x * inv_p for x in (b00, a10, b11, a20,
                                                         a21, b22))
    det = (c00 * (c11 * c22 - c21 * c21) - c10 * (c10 * c22 - c21 * c20)
           + c20 * (c10 * c21 - c11 * c20))
    r = np.clip(0.5 * det, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    top = 2.0 * np.cos(phi)
    bottom = 2.0 * np.cos(phi + 2.0 * np.pi / 3.0)
    scaled = np.stack([bottom, -top - bottom, top], axis=-1)
    near = np.flatnonzero(deflate(r))
    if near.size:
        c = np.stack([c00, c10, c20, c10, c11, c21, c20, c21, c22],
                     axis=-1)[near].reshape(-1, 3, 3)
        scaled[near] = _deflated_eigvalsh3(
            c, np.where(r[near] > 0.0, top[near], bottom[near]))
    out = size[:, None] * (q[:, None] + p[:, None] * scaled)
    return out.reshape(batch + (3,))


def first_failure(failures):
    """(k, exception) of the smallest flagged sample, or None.

    failures: (mask, cause) pairs in check order, mask over samples and
    cause(k) building the exception of that check; at one sample the
    earlier check wins.
    """
    hits = [(int(np.argmax(mask)), order)
            for order, (mask, _) in enumerate(failures) if np.any(mask)]
    if not hits:
        return None
    k, order = min(hits)
    return k, failures[order][1](k)


# ---------------------------------------------------------------------------
# the circle's worth of null lines in a (2,1) subspace
# ---------------------------------------------------------------------------

def lightcone_frames(bases: np.ndarray):
    """Batched lightcone frames: bases (..., 3, 6) orthonormal rows ->
    (frames (..., 3, 6), signature (..., 3)).

    signature counts (n_plus, n_minus, n_zero) of each space's metric; a
    space is a circle of spheres where it is (2, 1, 0) (circle_failure),
    and its frame elsewhere is meaningless.  Frame rows (E1, E2, E3) have
    squares (+1, +1, -1): eigenvectors of the Gram matrix sorted by
    descending eigenvalue, each sign-fixed by its largest-magnitude
    coefficient.
    """
    gram = bases @ _transposed(bases * SIGNS)
    evals, evecs = np.linalg.eigh(gram)
    signature = np.stack(_signature_counts(evals), axis=-1)
    order = np.argsort(evals, axis=-1)[..., ::-1]  # two positive first
    evals = np.take_along_axis(evals, order, axis=-1)
    # each row is the vector-matrix product of its own eigenvector (a
    # strided view, or a negated copy where the sign rule flips it),
    # rounded exactly as the frame of one subspace always was, so cyclide
    # meshes keep their bytes; one (3,3)@(3,6) product rounds differently
    coeff = np.swapaxes(np.take_along_axis(evecs, order[..., None, :],
                                           axis=-1), -1, -2)
    lead = np.take_along_axis(
        coeff, np.argmax(np.abs(coeff), axis=-1)[..., None], axis=-1)
    rows = [np.where(lead[..., r, None, :] < 0,
                     (-coeff[..., r, None, :]) @ bases,
                     coeff[..., r, None, :] @ bases) for r in range(3)]
    with np.errstate(divide="ignore"):
        frames = (np.concatenate(rows, axis=-2)
                  / np.sqrt(np.abs(evals))[..., None])
    return frames, signature


def circle_failure(signature: np.ndarray, name):
    """first_failure's (mask, cause) pair for lightcone_frames signatures
    (..., 3), over their flattened leading axes: the spaces that are not
    (2, 1, 0), each named by name(k) in its SignatureError."""
    signature = signature.reshape(-1, 3)
    return np.any(signature != (2, 1, 0), axis=-1), lambda k: SignatureError(
        f"{name(k)} has signature {tuple(signature[k].tolist())}, "
        "need (2, 1, 0)")


def circle_points(frames: np.ndarray, theta) -> np.ndarray:
    """Null vectors cos(theta) E1 + sin(theta) E2 + E3 of lightcone frames
    (..., 3, 6), batched: theta broadcasts against the frames' leading
    axes, and the points have its shape plus a trailing 6."""
    th = np.asarray(theta, dtype=float)
    return (np.cos(th)[..., None] * frames[..., 0, :]
            + np.sin(th)[..., None] * frames[..., 1, :] + frames[..., 2, :])


def circle_phase(frames: np.ndarray, v: np.ndarray):
    """Parameters theta (...) at which circle_points(frames, theta) is
    proportional to the null vectors v (..., 6) of the frames' spans,
    batched, and a mask of where that is defined: where v has a timelike
    component in its frame."""
    pairing = inner(v[..., None, :], frames)
    x, y, z = pairing[..., 0], pairing[..., 1], -pairing[..., 2]
    timelike = np.abs(z) >= 1e-12 * np.linalg.norm(v, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.arctan2(y / z, x / z), timelike


# ---------------------------------------------------------------------------
# radius shift
# ---------------------------------------------------------------------------

def parallel_transform_matrix(a: float) -> np.ndarray:
    """Linear map shifting every signed radius by a; metric-preserving."""
    a = float(a)
    m = np.eye(DIM)
    m[3, 3] += a * a / 2.0
    m[3, 4] = a * a / 2.0
    m[3, 5] = a
    m[4, 3] = -a * a / 2.0
    m[4, 4] -= a * a / 2.0
    m[4, 5] = -a
    m[5, 3] = a
    m[5, 4] = a
    return m

