"""LAPACK references for subspaces of R^{4,2}, independent of core's
Gram–Schmidt, and jsonschema as the reference for scene's schema checker.

A subspace is a row stack (..., k, 6).  Ranks, bases and the quotient
complement of a contact element come from np.linalg.svd, signatures from
np.linalg.eigvalsh of the metric Gram, and principal sines from the SVD
of a rejection.
"""

import jsonschema
import numpy as np

from liechannel.core import SIGNS


def _t(stack):
    """Transposes of a stack of matrices, made contiguous as core's are:
    as the right factor of a product a strided transpose rounds about an
    ulp apart from the contiguous one."""
    return np.ascontiguousarray(np.swapaxes(stack, -1, -2))


def rank(stacks, rank_tol=1e-10):
    """Singular values of each stack above rank_tol times the largest."""
    svals = np.linalg.svd(stacks, compute_uv=False)
    return np.sum(svals > rank_tol * svals[..., :1], axis=-1)


def basis(stacks):
    """Orthonormal rows spanning each full-rank stack (..., k, 6): its
    leading k right singular vectors."""
    stacks = np.asarray(stacks, dtype=float)
    return np.linalg.svd(stacks, full_matrices=False)[2]


def signature(bases):
    """(n_plus, n_minus, n_zero) of the metric on the row spaces of
    orthonormal bases (..., k, 6), as an (..., 3) array; a Gram
    eigenvalue within 1e-9 of zero counts as zero."""
    evals = np.linalg.eigvalsh(bases @ _t(SIGNS * bases))
    zero = np.abs(evals) <= 1e-9
    return np.stack([np.sum(evals > 1e-9, axis=-1),
                     np.sum(evals < -1e-9, axis=-1),
                     np.sum(zero, axis=-1)], axis=-1)


def largest_sine(a, b):
    """Sine of the largest principal angle of the orthonormal rows a off
    the row space of the orthonormal rows b: the top singular value of
    a's rejection off b."""
    rej = a - (a @ _t(b)) @ b
    return np.linalg.svd(rej, compute_uv=False)[..., 0]


def containment_gap(bases, vectors):
    """Sine of the angle between each vector (..., p, 6) and the row
    space of bases (..., k, 6), one vector at a time."""
    vectors = np.asarray(vectors, dtype=float)
    unit = vectors / np.linalg.norm(vectors, axis=-1, keepdims=True)
    return largest_sine(unit[..., :, None, :], bases[..., None, :, :])


def element_complement(sigma, tau):
    """Orthonormal rows (..., 2, 6) spanning the Euclidean complement of
    span{sigma, tau, G sigma, G tau}: the trailing right singular vectors
    of that 4 x 6 stack, with its singular values (..., 4)."""
    stack = np.stack([sigma, tau, SIGNS * sigma, SIGNS * tau], axis=-2)
    _, svals, vt = np.linalg.svd(stack)
    return vt[..., 4:, :], svals


def line_sphere_fit(sigma, tau):
    """Sphere fit to one parameter line of contact elements (n, 6) from
    its finite points alone: each element's radius-zero pencil member
    sigma_5 tau - tau_5 sigma, dropped where its (e4 + e5) part vanishes
    (the point at infinity), the rest scaled to norm 1 and compacted into
    one (m, 5) system over the SIGNS-paired first five coordinates.
    Returns that system's singular values."""
    vec = sigma[:, 5:6] * tau - tau[:, 5:6] * sigma
    norm = np.linalg.norm(vec, axis=-1)
    finite = np.abs(vec[:, 3] + vec[:, 4]) > 1e-10 * norm
    return np.linalg.svd((vec[finite] / norm[finite, None] * SIGNS)[:, :5],
                         compute_uv=False)


def _nonzero(validator, wanted, value, schema):
    if wanted and validator.is_type(value, "number") and value == 0:
        yield jsonschema.ValidationError("must be nonzero")


_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator, {"nonzero": _nonzero})


def jsonschema_errors(schema, instance):
    """(path, message) of every error of instance under schema from
    jsonschema's draft 2020-12 validator with the scene keyword `nonzero`,
    sorted by the errors' full descriptions."""
    return [(tuple(err.absolute_path), err.message)
            for err in sorted(_Validator(schema).iter_errors(instance),
                              key=str)]
