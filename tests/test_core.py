"""Tests for the hexaspherical linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import largest_sine as _largest_sine
from liechannel import core
from liechannel.channel import line_sphere_curve, osculating_spaces
from liechannel.core import (
    GeometryError,
    Infinity,
    Plane,
    Point,
    SignatureError,
    Sphere,
    SIGNS,
    complement_rows,
    containment_gap,
    circle_phase,
    circle_points,
    inner,
    lightcone_frames,
    orthonormal_rows,
    parallel_transform_matrix,
    plane_lift,
    point_lift,
    project_to_euclidean,
    sphere_lift,
    unit_rows,
    wedge_matrix,
)


# frozen oracle values, worked out by hand from the lift formulas
UNIT_SPHERE_LIFT = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 1.0])
RADIUS2_LIFT = np.array([0.0, 0.0, 0.0, 2.5, -1.5, 2.0])


def test_lift_examples():
    np.testing.assert_allclose(sphere_lift([0, 0, 0], 1.0), UNIT_SPHERE_LIFT)
    np.testing.assert_allclose(sphere_lift([0, 0, 0], 2.0), RADIUS2_LIFT)
    assert inner(UNIT_SPHERE_LIFT, RADIUS2_LIFT) == pytest.approx(0.5, abs=1e-15)


def test_plane_lift_contact():
    # plane z = 3 and the oriented sphere tangent to it from below
    p = plane_lift([0, 0, 1], 3.0)
    assert inner(p, p) == pytest.approx(0.0, abs=1e-15)
    s = sphere_lift([0, 0, 2], 1.0)
    assert inner(s, p) == pytest.approx(2.0 - 3.0 - 1.0, abs=1e-15)
    assert inner(sphere_lift([0, 0, 2], -1.0), p) == pytest.approx(0.0, abs=1e-15)


def test_plane_lift_requires_unit_normal():
    with pytest.raises(GeometryError):
        plane_lift([0, 0, 2.0], 1.0)


def test_roundtrip_seeded_batch():
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for _ in range(1000):
        kind = rng.integers(0, 3)
        scale = rng.uniform(0.5, 4.0)
        if kind == 0:
            c = rng.uniform(-5, 5, size=3)
            r = rng.uniform(0.01, 5.0) * rng.choice([-1.0, 1.0])
            out = project_to_euclidean(scale * sphere_lift(c, r))
            assert isinstance(out, Sphere)
            worst = max(worst, np.max(np.abs(out.center - c)), abs(out.radius - r))
        elif kind == 1:
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            d = rng.uniform(-5, 5)
            out = project_to_euclidean(scale * plane_lift(n, d))
            assert isinstance(out, Plane)
            worst = max(worst, np.max(np.abs(out.normal - n)), abs(out.offset - d))
        else:
            x = rng.uniform(-5, 5, size=3)
            out = project_to_euclidean(scale * point_lift(x))
            assert isinstance(out, Point)
            worst = max(worst, np.max(np.abs(out.position - x)))
    assert worst <= 1e-12


def test_project_infinity():
    assert isinstance(project_to_euclidean(core.INFINITY_VEC), Infinity)
    assert isinstance(project_to_euclidean(-3.0 * core.INFINITY_VEC), Infinity)


def test_tangency_identity_seeded():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        c1, c2 = rng.uniform(-5, 5, size=(2, 3))
        r1, r2 = rng.uniform(-4, 4, size=2)
        lhs = inner(sphere_lift(c1, r1), sphere_lift(c2, r2))
        rhs = -(np.dot(c1 - c2, c1 - c2) - (r1 - r2) ** 2) / 2.0
        assert abs(lhs - rhs) <= 1e-10


finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    c1=st.tuples(finite, finite, finite),
    c2=st.tuples(finite, finite, finite),
    r1=finite,
    r2=finite,
)
def test_tangency_identity_property(c1, c2, r1, r2):
    lhs = inner(sphere_lift(c1, r1), sphere_lift(c2, r2))
    d = np.subtract(c1, c2)
    rhs = -(np.dot(d, d) - (r1 - r2) ** 2) / 2.0
    assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


@settings(max_examples=100, deadline=None)
@given(data=st.lists(finite, min_size=12, max_size=12))
def test_wedge_identity_property(data):
    a = np.array(data[:6])
    b = np.array(data[6:])
    w = wedge_matrix(a, b)
    gw = core.METRIC @ w                  # metric skew: G W + W^T G = 0
    assert np.max(np.abs(gw + gw.T)) <= 1e-12 * max(1.0, np.abs(w).max())
    x = np.arange(1.0, 7.0)
    np.testing.assert_allclose(w @ x, inner(a, x) * b - inner(b, x) * a, atol=1e-9)


def test_wedge_antisymmetry():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, 6))
    assert np.max(np.abs(wedge_matrix(a, b) + wedge_matrix(b, a))) == 0.0


# -- subspaces ---------------------------------------------------------------


def test_span_rank_deficiency():
    v = point_lift([1, 0, 0])
    stack = np.stack([v, 2.0 * v])
    basis, rank = core.span_rows(stack)
    assert rank == oracles.rank(stack) == 1
    assert _largest_sine(basis[:1], v[None] / np.linalg.norm(v)) <= 1e-15
    # the closed-form singular values stop at three rows
    with pytest.raises(ValueError, match="k <= 3"):
        core.span_rows(np.eye(6)[:4])


def test_signature_examples():
    e = np.eye(6)
    # osculating space of the z-axis point curve is span{e3,e4,e5}: (2,1);
    # a null direction, or two timelike ones, change the count
    stacks = np.stack([e[[2, 3, 4]], [UNIT_SPHERE_LIFT, e[0], e[1]],
                       e[[0, 4, 5]], e[[0, 1, 2]]])
    bases, ranks = core.span_rows(stacks)
    assert list(ranks) == [3, 3, 3, 3]
    expected = [(2, 1, 0), (2, 0, 1), (1, 2, 0), (3, 0, 0)]
    assert oracles.signature(bases).tolist() == [list(x) for x in expected]
    assert lightcone_frames(bases)[1].tolist() == [list(x) for x in expected]


def test_complement_of_osculating_line_space():
    # point-sphere curve along the z-axis: V = span{sigma, sigma', sigma''}
    u = 0.3
    sigma = point_lift([0, 0, u])
    dsigma = np.array([0, 0, 1, -u, u, 0.0])
    ddsigma = np.array([0, 0, 0, -1, 1, 0.0])
    vp = complement_rows(np.stack([sigma, dsigma, ddsigma]))
    expected = np.eye(6)[[0, 1, 5]]
    assert _largest_sine(vp, expected) <= 1e-12
    assert oracles.signature(vp).tolist() == [2, 1, 0]


def test_complement_involution_and_dimensions():
    rng = np.random.default_rng(11)
    for k in (1, 2, 3, 4):
        s = oracles.basis(rng.normal(size=(k, 6)))
        sp = complement_rows(s)
        assert sp.shape == (6 - k, 6)
        assert _largest_sine(complement_rows(sp), s) <= 1e-12


def _assert_orthonormal(rows, tol=1e-13):
    gram = rows @ np.swapaxes(rows, -1, -2)
    assert np.max(np.abs(gram - np.eye(rows.shape[-2]))) <= tol


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5),
       shape=st.sampled_from(["generic", "near-dependent", "rescaled"]))
def test_orthonormal_rows_and_complement_match_the_svd(seed, k, shape):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(40, k, 6))
    if shape == "near-dependent" and k > 1:
        # the last row sits 1e-3 off the span of the others
        rows[:, -1] = (np.einsum("nk,nkd->nd", rng.normal(size=(40, k - 1)),
                                 rows[:, :-1]) + 1e-3 * rng.normal(size=(40, 6)))
    if shape == "rescaled":
        rows *= 10.0 ** rng.uniform(-3, 3, size=(40, k, 1))
    unit = rows / np.linalg.norm(rows, axis=-1, keepdims=True)

    basis = orthonormal_rows(rows, 6)
    _assert_orthonormal(basis)
    _, svals, vt = np.linalg.svd(unit)
    # the SVD reference is itself only good to about eps * cond, so the
    # 1e-12 bound widens in proportion once the rows are worse conditioned
    # than 1e3 (measured: the sine stays below 4e-16 * cond)
    tol = 1e-12 * np.maximum(1.0, svals[:, 0] / svals[:, -1] / 1e3)
    assert np.all(_largest_sine(basis[:, :k], vt[:, :k]) <= tol)
    assert np.all(_largest_sine(basis[:, k:], vt[:, k:]) <= tol)

    comp = complement_rows(rows)
    assert comp.shape == (40, 6 - k, 6)
    _assert_orthonormal(comp)
    assert np.max(np.abs(comp @ np.swapaxes(SIGNS * unit, -1, -2))) <= 1e-12
    _, _, vt_metric = np.linalg.svd(unit * SIGNS)
    assert np.all(_largest_sine(comp, vt_metric[:, k:]) <= tol)


def test_orthonormal_rows_stay_finite_on_dependent_rows():
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(4, 3, 6))
    rows[0, 1] = 0.0                  # a zero row
    rows[1, 2] = rows[1, 0]           # a repeated row
    rows[2, 0] = 0.0                  # a zero first row
    rows[3] = 0.0                     # nothing at all
    basis = orthonormal_rows(rows, 6)
    assert np.all(np.isfinite(basis))
    _assert_orthonormal(basis)
    # the nonzero rows still lie in the span of the leading basis rows
    for n, row in ((0, 0), (0, 2), (1, 0), (1, 1), (2, 1), (2, 2)):
        v = rows[n, row] / np.linalg.norm(rows[n, row])
        assert np.linalg.norm(v - basis[n, :3].T @ (basis[n, :3] @ v)) <= 1e-13
    comp = complement_rows(rows)
    assert np.all(np.isfinite(comp))
    assert np.max(np.abs(comp @ np.swapaxes(SIGNS * rows, -1, -2))) <= 1e-12


def _row_major_orthonormal_rows(rows, total=None):
    """The row-major Gram–Schmidt that orthonormal_rows replaced, kept as
    its oracle: (basis, broken, gap).

    broken marks batch entries where a completion coordinate was chosen
    among residuals tied to a relative 1e-12 but not at the lowest index
    (a tie that rounding broke); gap is the smallest relative norm
    |rejection| / |row| over the rows that were kept, which bounds how far
    rounding in either summation order can move the basis (eps / gap).
    """
    rows = np.asarray(rows, dtype=float)
    k = rows.shape[-2]
    total = k if total is None else total
    out = np.zeros(rows.shape[:-2] + (total, 6))
    broken = np.zeros(rows.shape[:-2], dtype=bool)
    gap = np.ones(rows.shape[:-2])
    eye = np.eye(6)

    def reject(v, q):
        for _ in range(2):
            v = v - np.einsum("...md,...m->...d", q,
                              np.einsum("...md,...d->...m", q, v))
        return v

    for j in range(total):
        q = out[..., :j, :]
        if j < k:
            given = rows[..., j, :]
            v = reject(given, q)
        else:
            given = v = np.zeros(rows.shape[:-2] + (6,))
        norm, given_norm = (np.linalg.norm(x, axis=-1) for x in (v, given))
        weak = norm <= 1e-12 * given_norm
        gap = np.where(weak, gap, np.minimum(gap, norm / np.where(
            weak, 1.0, given_norm)))
        if np.any(weak):
            captured = np.einsum("...md,...md->...d", q, q)
            best = np.argmin(captured, axis=-1)
            residual = 1.0 - captured
            tied = residual >= (1.0 - 1e-12) * np.max(residual, axis=-1,
                                                      keepdims=True)
            broken |= weak & (np.argmax(tied, axis=-1) != best)
            v = np.where(weak[..., None], reject(eye[best], q), v)
        out[..., j, :] = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return out, broken, gap


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       batch=st.sampled_from([(), (7,), (3, 5)]), k=st.integers(1, 6),
       extra=st.integers(0, 5),
       kind=st.sampled_from(["generic", "near-dependent", "zero",
                             "repeated"]))
def test_orthonormal_rows_match_the_row_major_oracle(seed, batch, k, extra,
                                                     kind):
    rng = np.random.default_rng(seed)
    total = min(6, k + extra)
    rows = rng.normal(size=batch + (k, 6))
    if kind == "near-dependent" and k > 1:
        # the last row sits 1e-10 to 1e-3 off the span of the others
        rows[..., -1, :] = (
            np.einsum("...k,...kd->...d", rng.normal(size=batch + (k - 1,)),
                      rows[..., :-1, :])
            + 10.0 ** rng.uniform(-10, -3) * rng.normal(size=batch + (6,)))
    elif kind == "zero":
        rows[..., rng.integers(k), :] = 0.0
    elif kind == "repeated" and k > 1:
        first, later = sorted(rng.choice(k, 2, replace=False))
        rows[..., later, :] = rows[..., first, :]
    got = orthonormal_rows(rows, total)
    want, broken, gap = _row_major_orthonormal_rows(rows, total)
    assert got.shape == want.shape == batch + (total, 6)
    assert np.all(np.isfinite(got))
    _assert_orthonormal(got)
    # 1e-13 on well-separated rows; a row kept at relative distance gap
    # from the span before it carries about eps / gap in either summation
    # order (measured over 15,000 stacks: moved * gap <= 2.4e-16)
    tol = np.maximum(1e-13, 1e-15 / gap)
    moved = np.max(np.abs(got - want), axis=(-2, -1))
    assert np.all((moved <= tol) | broken)


def test_orthonormal_rows_break_completion_ties_by_the_lowest_index():
    # the metric-flipped osculating stack of a line of unit spheres, as
    # complement_rows passes it: the last completion row finds e4, e5 and
    # e6 tied at squared residual 1/3, and the row-major sweep picked among
    # them by rounding
    stacks, _ = osculating_spaces(line_sphere_curve(n=1024))
    rows = stacks * SIGNS
    alone = orthonormal_rows(rows[0], 6)
    residual = 1.0 - np.sum(alone[:5] ** 2, axis=0)
    np.testing.assert_allclose(residual[3:], 1.0 / 3.0, rtol=1e-14)
    e4 = np.eye(6)[3]
    lowest = e4 - alone[:5].T @ (alone[:5] @ e4)
    np.testing.assert_allclose(alone[5], lowest / np.linalg.norm(lowest),
                               atol=1e-15)
    # the same choice inside a batch, and at every sample of the line
    # (which has the same tie), from either memory layout
    batched = orthonormal_rows(np.broadcast_to(rows[0], rows.shape), 6)
    in_order = orthonormal_rows(rows, 6)
    transposed = orthonormal_rows(np.asfortranarray(rows), 6)
    assert np.array_equal(transposed, in_order)
    for basis in (batched, in_order):
        assert np.max(np.abs(basis[:, 5] - alone[5])) <= 1e-15
    # the row-major sweep broke the tie the other way at some samples
    assert np.any(_row_major_orthonormal_rows(rows, 6)[1])


def test_batched_helpers_match_the_oracle():
    # a mix of signatures, one dependent stack and one zero stack
    rng = np.random.default_rng(17)
    stacks = rng.normal(size=(40, 3, 6))
    stacks[5, 2] = 2.0 * stacks[5, 0]
    stacks[9] = 0.0
    bases, ranks = core.span_rows(stacks)
    frames, signature = core.lightcone_frames(bases)
    ok = np.all(signature == (2, 1, 0), axis=-1)
    assert list(ranks[[5, 9]]) == [2, 0]
    full = ranks == 3
    assert np.array_equal(full, oracles.rank(stacks) == 3)
    reference = oracles.basis(stacks[full])
    assert np.all(_largest_sine(bases[full], reference) <= 1e-14)
    assert np.array_equal(signature[full], oracles.signature(reference))
    assert 5 <= int(np.sum(ok)) < int(np.sum(full))
    for k in np.flatnonzero(ok):
        # one subspace's frame carries the same bits as its row
        assert np.array_equal(frames[k], lightcone_frames(bases[k])[0])
        gram = frames[k] @ (SIGNS * frames[k]).T
        assert np.max(np.abs(gram - np.diag([1.0, 1.0, -1.0]))) <= 1e-12
    k = np.flatnonzero(full[:-1] & full[1:])
    sines = core.principal_sine(bases[k], bases[k + 1])
    expected = _largest_sine(oracles.basis(stacks[k + 1]),
                             oracles.basis(stacks[k]))
    assert np.all(np.abs(sines - expected) <= 1e-14)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_lone_stack_rounds_as_a_row_of_a_batch(k):
    # a single stack once took other einsum kernels than a batch and
    # differed in the last bit; the per-sample API must see the batch's
    # bits, dependent and zero stacks included
    rng = np.random.default_rng(k)
    stacks = rng.normal(size=(300, k, 6))
    stacks[::7, -1] = stacks[::7, 0]
    stacks[::11] = 0.0
    rows, completed = orthonormal_rows(stacks), orthonormal_rows(stacks, 6)
    bases, ranks = core.span_rows(stacks)
    for n, stack in enumerate(stacks):
        assert np.array_equal(orthonormal_rows(stack), rows[n])
        assert np.array_equal(orthonormal_rows(stack, 6), completed[n])
        basis, rank = core.span_rows(stack)
        assert np.array_equal(basis, bases[n]) and rank == ranks[n]


RANK_TOL = core.RANK_TOL


def _planted_stacks(rng, n, k, shape):
    """(n, k, 6) stacks: generic, with planted singular values, with a
    repeated row, or with zero rows and zero stacks."""
    stacks = rng.normal(size=(n, k, 6))
    if shape == "near-dependent" and k > 1:
        # every value after the first is s1 times a ratio drawn from 1e-13
        # to 1e-7, moved out of the band within 2x of RANK_TOL
        ratio = 10.0 ** rng.uniform(-13, -7, size=(n, k))
        band = (ratio > RANK_TOL / 2.0) & (ratio < 2.0 * RANK_TOL)
        ratio[band] *= 10.0
        ratio[:, 0] = 1.0
        left, _ = np.linalg.qr(rng.normal(size=(n, k, k)))
        right, _ = np.linalg.qr(rng.normal(size=(n, 6, k)))
        stacks = (left * ratio[:, None, :]) @ np.swapaxes(right, -1, -2)
    elif shape == "repeated" and k > 1:
        stacks[:, -1] = stacks[:, 0]
    elif shape == "zero":
        stacks[: n // 2, rng.integers(k)] = 0.0
        stacks[-n // 4:] = 0.0
    return stacks


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3),
       shape=st.sampled_from(["generic", "near-dependent", "repeated",
                              "zero"]),
       scale=st.sampled_from([1e-150, 1.0, 1e150]))
def test_span_rows_counts_rank_as_the_svd(seed, k, shape, scale):
    rng = np.random.default_rng(seed)
    stacks = _planted_stacks(rng, 200, k, shape) * scale
    bases, ranks = core.span_rows(stacks)
    # the rank is that of the rows each brought into [0.5, 1) by a power
    # of two, which leaves the row space alone
    _, exponent = np.frexp(np.max(np.abs(stacks), axis=-1, keepdims=True))
    _, svals, vt = np.linalg.svd(np.ldexp(stacks, -exponent),
                                 full_matrices=False)
    assert np.array_equal(ranks, np.sum(svals > RANK_TOL * svals[:, :1],
                                        axis=-1))
    _assert_orthonormal(bases, 1e-15)
    # where the SVD's own basis is good to rounding (full rank, condition
    # at most 100; beyond that it moves by eps * cond) the spans agree
    with np.errstate(divide="ignore", invalid="ignore"):
        sharp = (ranks == k) & (svals[:, 0] <= 100.0 * svals[:, -1])
    assert np.all(core.principal_sine(bases[sharp], vt[sharp]) <= 1e-14)


# -- closed-form small eigenproblems ------------------------------------------


def _planted_symmetric(rng, n, evals):
    """(n, k, k) symmetric matrices with the given eigenvalues (n, k)."""
    rot, _ = np.linalg.qr(rng.normal(size=(n,) + evals.shape[-1:] * 2))
    return rot @ (evals[..., :, None] * np.swapaxes(rot, -1, -2))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3),
       shape=st.sampled_from(["generic", "repeated", "zero", "all-equal",
                              "near-repeated"]),
       scale=st.sampled_from([1e-150, 1e-8, 1.0, 1e8, 1e150]))
def test_small_eigvalsh_matches_lapack(seed, k, shape, scale):
    rng = np.random.default_rng(seed)
    evals = rng.normal(size=(200, k))
    if shape == "repeated" and k > 1:      # an equal top or bottom pair
        evals[:100, -1] = evals[:100, -2]
        evals[100:, 0] = evals[100:, 1]
    elif shape == "zero":                  # one or more zero eigenvalues
        evals[:, :rng.integers(1, k + 1)] = 0.0
    elif shape == "all-equal":
        evals[:] = evals[:, :1]
    elif shape == "near-repeated" and k > 1:
        evals[:, 1] = evals[:, 0] * (1.0 + 10.0 ** rng.uniform(-12, -3, 200))
    a = _planted_symmetric(rng, 200, evals) * scale
    reference = np.linalg.eigvalsh(a)
    got = core.small_eigvalsh(a)
    assert got.shape == reference.shape
    # the bound in small_eigvalsh's docstring
    size = np.max(np.abs(reference), axis=-1, keepdims=True)
    assert np.all(np.abs(got - reference) <= 1e-14 * size)


@pytest.mark.parametrize("pair", ["small", "top"])
def test_largest_eigvalsh_deflates_only_a_meeting_top_pair(pair,
                                                           monkeypatch):
    # a pair of eigenvalues meeting exactly or to a relative 1e-12..1e-3,
    # below the third (r -> +1) or above it (r -> -1)
    rng = np.random.default_rng(31 if pair == "small" else 37)
    evals = np.sort(rng.normal(size=(400, 3)), axis=-1)
    close = 1.0 + np.where(np.arange(400) < 200, 0.0,
                           10.0 ** rng.uniform(-12, -3, 400))
    if pair == "small":
        evals[:, 1] = evals[:, 0] + np.abs(evals[:, 0]) * (close - 1.0)
    else:
        evals[:, 1] = evals[:, 2] - np.abs(evals[:, 2]) * (close - 1.0)
    a = _planted_symmetric(rng, 400, evals)
    deflated = []
    original = core._deflated_eigvalsh3

    def counting(c, single):
        deflated.append(len(c))
        return original(c, single)

    monkeypatch.setattr(core, "_deflated_eigvalsh3", counting)
    got = core._largest_eigvalsh(a)
    reference = np.linalg.eigvalsh(a)
    size = np.max(np.abs(reference), axis=-1)
    assert np.all(np.abs(got - reference[:, -1]) <= 1e-14 * size)
    assert sum(deflated) == (0 if pair == "small" else 400)


def test_small_eigvalsh_reads_the_lower_triangle_and_keeps_batch_axes():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 5, 3, 3))
    got = core.small_eigvalsh(a)
    assert got.shape == (4, 5, 3)
    np.testing.assert_allclose(got, np.linalg.eigvalsh(a), atol=1e-14)
    with pytest.raises(ValueError):
        core.small_eigvalsh(np.zeros((2, 4, 4)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3),
       shape=st.sampled_from(["generic", "close", "equal-top-pair",
                              "shared-span"]))
def test_principal_sine_matches_the_svd(seed, k, shape):
    rng = np.random.default_rng(seed)
    b1 = orthonormal_rows(rng.normal(size=(100, 3, 6)))
    rows = rng.normal(size=(100, k, 6))
    if shape == "close":                   # sines between 1e-12 and 1e-3
        rows = (np.einsum("nkm,nmd->nkd", rng.normal(size=(100, k, 3)), b1)
                + 10.0 ** rng.uniform(-12, -3, (100, 1, 1)) * rows)
    elif shape == "equal-top-pair" and k > 1:
        # two rows rotated off span b1 by the same angle, a third by less
        comp = orthonormal_rows(b1, 6)[:, 3:]
        angle = rng.uniform(0.01, 1.5, (100, 1, 1)) * np.array(
            [1.0, 1.0, 0.5])[:k, None]
        rows = np.cos(angle) * b1[:, :k] + np.sin(angle) * comp[:, :k]
    elif shape == "shared-span" and k == 3:
        rows[:, :2] = b1[:, :2]            # rank-1 rejection
    b2 = orthonormal_rows(rows)
    got = core.principal_sine(b1, b2)
    assert np.all(np.abs(got - _largest_sine(b2, b1)) <= 1e-13 * got + 1e-16)


def test_containment_gap_matches_the_oracle():
    rng = np.random.default_rng(43)
    bases = oracles.basis(rng.normal(size=(40, 3, 6)))
    vectors = rng.normal(size=(40, 4, 6)) * 10.0 ** rng.uniform(
        -3, 3, (40, 4, 1))
    got = containment_gap(bases, vectors)
    assert got.shape == (40, 4)
    assert np.max(np.abs(got - oracles.containment_gap(bases, vectors))) \
        <= 1e-15


@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3])
def test_containment_gap_reads_a_planted_tilt(eps):
    rng = np.random.default_rng(47)
    rows = oracles.basis(rng.normal(size=(6, 6)))
    basis, off = rows[:3], rows[3:]
    inside = unit_rows(rng.normal(size=(8, 3)) @ basis)
    away = unit_rows(rng.normal(size=(8, 3)) @ off)
    tilted = 2.5 * (np.cos(eps) * inside + np.sin(eps) * away)
    gap = containment_gap(basis, tilted)
    assert np.all((eps / 2.0 <= gap) & (gap <= 2.0 * eps))
    assert np.max(containment_gap(basis, inside)) <= 1e-14


def test_inv3_matches_lapack_and_flags_singular_matrices():
    rng = np.random.default_rng(29)
    a = rng.normal(size=(50, 3, 3))
    np.testing.assert_allclose(core.inv3(a) @ a, np.broadcast_to(
        np.eye(3), a.shape), atol=1e-10)
    a[7, 2] = 0.0
    a[8] = 0.0
    finite = np.all(np.isfinite(core.inv3(a)), axis=(-2, -1))
    assert list(np.flatnonzero(~finite)) == [7, 8]


# -- lightcone circles ---------------------------------------------------------


#: span{e1, e2, (0,0,0,1,-1,1)}: the tangent planes of the unit cylinder
#: about the z-axis
CYLINDER_PLANES = np.stack([np.eye(6)[0], np.eye(6)[1],
                            np.array([0, 0, 0, 1.0, -1.0, 1.0])])


def frame_of(rows):
    frame, signature = lightcone_frames(core.span_rows(rows)[0])
    assert tuple(signature) == (2, 1, 0)
    return frame


def test_lightcone_circle_tangent_planes_of_cylinder():
    for theta in np.linspace(0, 2 * np.pi, 9):
        v = circle_points(frame_of(CYLINDER_PLANES), theta)
        assert abs(inner(v, v)) <= 1e-12
        out = project_to_euclidean(v)
        assert isinstance(out, Plane)
        assert abs(out.offset - (-1.0)) <= 1e-12
        assert abs(out.normal[2]) <= 1e-12


def test_lightcone_circle_rejects_wrong_signature():
    bases = np.stack([np.eye(6)[:3], np.eye(6)[[0, 1, 4]]])
    wrong, cause = core.circle_failure(lightcone_frames(bases)[1],
                                       lambda k: f"space {k}")
    assert list(wrong) == [True, False]
    with pytest.raises(SignatureError, match=r"^space 0 has signature "
                       r"\(3, 0, 0\), need \(2, 1, 0\)$"):
        raise cause(0)


def test_lightcone_circle_spans_whole_family():
    rng = np.random.default_rng(9)
    basis = oracles.basis(rng.normal(size=(3, 6)))
    if oracles.signature(basis).tolist() != [2, 1, 0]:
        # make a (2,1) space deterministically instead
        basis = np.eye(6)[[0, 1, 4]]
    th = rng.uniform(0, 2 * np.pi, size=16)
    pts = circle_points(frame_of(basis), th)
    assert np.max(np.abs(inner(pts, pts))) <= 1e-10
    assert np.max(oracles.containment_gap(basis, pts)) <= 1e-10


def test_circle_phase_recovers_parameter():
    theta = np.array([-2.0, 0.0, 0.4, 3.0])
    frames = np.broadcast_to(frame_of(CYLINDER_PLANES), (4, 3, 6))
    rec, timelike = circle_phase(frames, 1.7 * circle_points(frames, theta))
    assert timelike.all()
    assert np.max(np.abs(np.angle(np.exp(1j * (rec - theta))))) <= 1e-12
    # a vector without a timelike component has no phase
    assert not circle_phase(frame_of(CYLINDER_PLANES), np.eye(6)[2])[1]


# -- parallel transform --------------------------------------------------------


def test_parallel_transform_examples():
    m = parallel_transform_matrix(1.0)
    shifted = m @ point_lift([0, 0, 2.0])
    out = project_to_euclidean(shifted)
    assert isinstance(out, Sphere)
    np.testing.assert_allclose(out.center, [0, 0, 2.0], atol=1e-14)
    assert out.radius == pytest.approx(1.0)


@settings(max_examples=100, deadline=None)
@given(a=finite, b=finite)
def test_parallel_transform_group_law(a, b):
    lhs = parallel_transform_matrix(a) @ parallel_transform_matrix(b)
    rhs = parallel_transform_matrix(a + b)
    scale = max(1.0, np.abs(rhs).max())
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(a=finite)
def test_parallel_transform_metric_preserving(a):
    m = parallel_transform_matrix(a)
    defect = m.T @ core.METRIC @ m - core.METRIC
    assert np.max(np.abs(defect)) <= 1e-11 * max(1.0, a * a) ** 2


def test_projective_comparison():
    p = sphere_lift([1, 2, 3], 0.5)
    assert core.projective_gap(p, -2.5 * p) <= 1e-15
    r = sphere_lift([1, 2, 3.001], 0.5)
    assert 1e-5 <= core.projective_gap(p, r) <= 1e-3
