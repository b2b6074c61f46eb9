"""Solver tests: ridge inverse, fused group shrink, constraints, objective accounting,
depth-1 reduction, pinned iterate path, adaptive penalty and report histories, depth-shift
and sample-permutation invariance."""

import logging
import re
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from ssmc import kernels, solver, theory
from ssmc import t_algebra as ta
from ssmc.spectral import spectral_cluster
from ssmc.data import SynthSpec, clustering_error, generate_synthetic
from ssmc.solver import (
    RANK_TOL,
    SolverConfig,
    _RidgeInverse,
    affinity_from_tensor,
    solve_path,
    solve_self_representation,
)

TIGHT = dict(max_iters=20000, tol_rel=1e-12)
# Default-tolerance solves iterate in complex64 (tol_rel >= 1e-5); bounds on
# them are multiples of float32's machine epsilon, 1.2e-7.
F32 = float(np.finfo(np.float32).eps)


def _objective_spatial(y, w, cfg):
    resid = y - ta.tprod(y, w)
    return (
        ta.norm_f1(w)
        + cfg.lambda_h * ta.norm_ff1(w)
        + cfg.lambda_g * ta.norm_fro(resid) ** 2
    )


def _ista_depth_one(y, lam_g, iters):
    # proximal gradient for: sum_ij |c_ij| + lam_g ||y - y c||_F^2, zero diagonal
    n = y.shape[1]
    gram = y.T @ y
    step = 1.0 / (2.0 * lam_g * np.linalg.eigvalsh(gram)[-1])
    c = np.zeros((n, n))
    for _ in range(iters):
        c = c - step * (-2.0 * lam_g) * (gram - gram @ c)
        np.fill_diagonal(c, 0.0)
        c = np.sign(c) * np.maximum(np.abs(c) - step, 0.0)
    return np.abs(c).sum() + lam_g * np.linalg.norm(y - y @ c) ** 2


# -- config validation -------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(lambda_g=0.0), "lambda_g"),
        (dict(lambda_g=-1.0), "lambda_g"),
        (dict(lambda_g=1.0, lambda_h=-0.1), "lambda_h"),
        (dict(lambda_g=1.0, max_iters=2.5), "max_iters"),
        (dict(lambda_g=1.0, max_iters=0), "max_iters"),
        (dict(lambda_g=1.0, tol_rel=-1e-9), "tol_rel must be nonnegative"),
        (dict(lambda_g=float("inf")), "lambda_g"),
        (dict(lambda_g=1.0, lambda_h=float("nan")), "lambda_h"),
        (dict(lambda_g=1.0, lambda_h=float("inf")), "lambda_h"),
        (dict(lambda_g=1.0, max_iters=float("inf")), "max_iters"),
        (dict(lambda_g=1.0, tol_rel=float("inf")), "tol_rel"),
        (dict(lambda_g=1.0, tol_rel=float("nan")), "tol_rel"),
        (dict(lambda_g=1.0, max_iters=True), "max_iters"),
    ],
)
def test_config_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SolverConfig(**kwargs)


# -- input validation --------------------------------------------------------


def test_rejects_single_sample():
    with pytest.raises(ValueError, match="need at least two samples"):
        solve_self_representation(np.ones((3, 1, 2)), SolverConfig(lambda_g=1.0))


def test_memory_guard_refuses_before_the_factorization(monkeypatch):
    # n = 200000 at d = 2 would need terabytes; the guard must fire before the
    # SVD and before any (d // 2 + 1, n, n) array is allocated
    def factor(*args):
        raise AssertionError("the solve went past the memory guard")

    monkeypatch.setattr(solver, "_RidgeInverse", factor)
    with pytest.raises(ValueError, match=r"n=200000 samples at depth d=2 need about .* GB"):
        solve_self_representation(np.ones((1, 200000, 2)), SolverConfig(lambda_g=1.0))


@pytest.mark.parametrize("tol_rel", [1e-4, 1e-6], ids=["complex64", "complex128"])
def test_memory_guard_budget_covers_the_measured_peak(tol_rel):
    """The traced peak of one solve, and of a three-point path whose caller
    drops each W, stays inside the guard's ``_PEAK_ARRAYS`` complex128 stacks
    of ``(d // 2 + 1, n, n)``.  The peak does not depend on the iteration
    count, so five iterations show it.  A complex128 solve holds four stacks in
    its loop, ``a``, ``u`` and two work stacks (4.67 measured, also for the
    path)."""
    h, n, d = 8, 200, 8
    y = np.random.default_rng(18).standard_normal((h, n, d))
    cfg = SolverConfig(lambda_g=1.0, affine=True, max_iters=5, tol_rel=tol_rel)
    dtype = np.dtype(solver._state_dtype(tol_rel))

    def peak(configs):
        tracemalloc.start()
        try:
            for w, _ in solve_path(y, configs):
                del w
            return tracemalloc.get_traced_memory()[1] / ((d // 2 + 1) * n * n * 16)
        finally:
            tracemalloc.stop()

    one = peak([cfg])
    path = peak([replace(cfg, lambda_g=lam) for lam in (1e-2, 1.0, 1e2)])
    assert max(one, path) <= solver._PEAK_ARRAYS[dtype]
    if dtype == np.complex128:
        assert one <= 5.0


@pytest.mark.parametrize("scale,grid", [(1e160, [1.0]), (1e150, [1.0, 5e6])])
def test_rejects_input_whose_scale_overflows(scale, grid):
    """Refused when ``solve_path`` is called, at the path's largest lambda_g,
    with no overflow warning.  Entries of 1e160 square past float64's range.
    On constant 1e150 entries lambda_g = 5e6 keeps ``lambda_g ||Y||^2`` at
    9e307 but takes the ridge weight ``2 lambda_g s^2`` to 5.4e308, while the
    path's first point alone would solve."""
    y = np.full((2, 3, 3), scale)
    with pytest.raises(ValueError, match=re.escape(f"overflows float64 at lambda_g={grid[-1]:g}")):
        solve_path(y, [SolverConfig(lambda_g=lam) for lam in grid])


@pytest.mark.parametrize("scale,grid", [(1e160, [1.0]), (1e150, [1.0, 5e6])])
def test_scale_refusal_comes_before_any_weight(scale, grid, monkeypatch):
    """``_check_scale`` runs on the SVD alone: the ridge is never weighted on
    data it refuses, so no weight overflows and no warning is raised."""
    weighed = []
    monkeypatch.setattr(_RidgeInverse, "weigh", lambda *args: weighed.append(args))
    y = np.full((2, 3, 3), scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows float64"):
            solve_path(y, [SolverConfig(lambda_g=lam) for lam in grid])
    assert weighed == []


def test_rejects_non_finite_and_zero_input():
    y = np.ones((2, 3, 2))
    y[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve_self_representation(y, SolverConfig(lambda_g=1.0))
    with pytest.raises(ValueError, match="identically zero"):
        solve_self_representation(np.zeros((2, 3, 2)), SolverConfig(lambda_g=1.0))


# -- ridge inverse -----------------------------------------------------------


def _dense_ridge_update(yf, x, lam_g, rho, affine):
    # ridge(x - I) + I by dense solves: rho (2 lam_g Y^H Y + rho I)^-1 x plus
    # (2 lam_g Y^H Y + rho I)^-1 2 lam_g Y^H Y, or under affine the KKT solution
    # of the same system with the column face-sums held at 1
    f, _, n = yf.shape
    gram = 2.0 * lam_g * (np.conj(np.swapaxes(yf, 1, 2)) @ yf)
    mats = gram + rho * np.eye(n)[None]
    if not affine:
        return np.linalg.solve(mats, rho * x + gram)
    kkt = np.zeros((f, n + 1, n + 1), dtype=complex)
    kkt[:, :n, :n] = mats
    kkt[:, :n, n] = kkt[:, n, :n] = 1.0
    rhs = np.concatenate([rho * x + gram, np.ones((f, 1, n))], axis=1)
    return np.linalg.solve(kkt, rhs)[:, :n]


_RIDGE_SHAPES = pytest.mark.parametrize(
    "h,n,repeated",
    [(3, 7, False), (9, 5, False), (9, 5, True)],
    ids=["wide", "tall", "rank-deficient"],
)


@pytest.mark.parametrize("lam_g", [1e-2, 1e2])
@_RIDGE_SHAPES
def test_ridge_inverse_matches_direct_solve(h, n, repeated, lam_g):
    # the apply is rho (2 lam_g Y^H Y + rho I)^-1; the solver's c update
    # ridge(x - I) + I is rho (2 lam_g Y^H Y + rho I)^-1 x plus the constant
    # (2 lam_g Y^H Y + rho I)^-1 2 lam_g Y^H Y; a repeated sample column gives
    # a zero singular value inside the thin SVD; weighed again for a new
    # lambda_g and each rho, the same SVD must serve them like a fresh build
    rng = np.random.default_rng(7)
    f = 4
    yf = rng.standard_normal((f, h, n)) + 1j * rng.standard_normal((f, h, n))
    if repeated:
        yf[:, :, -1] = yf[:, :, 0]
    gram = np.conj(np.swapaxes(yf, 1, 2)) @ yf
    rhs = rng.standard_normal((f, n, 3)) + 1j * rng.standard_normal((f, n, 3))
    x = rng.standard_normal((f, n, n)) + 1j * rng.standard_normal((f, n, n))
    eye = np.eye(n)[None]
    ridge = _RidgeInverse(yf)
    ridge.weigh(1.0 / lam_g, 1.0)  # weighed at the other end of the grid first
    ridge.weigh(lam_g, 1.4)
    # up and down in factor-2 steps, as the solver moves.  Below rho = 0.7 at
    # lam_g = 1e2 the apply shrinks its input about 1e3-fold and the cancellation
    # in I - V diag(g) V^H costs digits: 1.7e-12 relative at rho = 0.35
    for rho in [1.4, 11.2, 0.7]:
        ridge.weigh(lam_g, rho)
        fresh = _RidgeInverse(yf)
        fresh.weigh(lam_g, rho)
        mats = 2.0 * lam_g * gram + rho * np.eye(n)[None]
        for got, again, want in [
            (ridge(rhs), fresh(rhs), rho * np.linalg.solve(mats, rhs)),
            (
                ridge(x - eye) + eye,
                fresh(x - eye) + eye,
                rho * np.linalg.solve(mats, x) + np.linalg.solve(mats, 2.0 * lam_g * gram),
            ),
        ]:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.abs(got - again).max() <= 1e-12 * np.abs(again).max()


@pytest.mark.parametrize("lam_g", [1e-2, 1e2])
@_RIDGE_SHAPES
def test_affine_ridge_update_is_the_constrained_solve(h, n, repeated, lam_g):
    # with affine, the SVD is of the centred faces and the fixed 1/sqrt(n)
    # direction of [V | 1/sqrt(n)] projects out the ones vector, so every column
    # face-sum of ridge(x - I) + I is 1, and the result is the KKT solution of
    # the equality-constrained ridge system on the uncentred faces, per face and
    # column; in the tall case the centred SVD holds a zero-singular vector
    # close to 1/sqrt(n), which the fixed direction repeats
    rng = np.random.default_rng(8)
    f = 4
    yf = rng.standard_normal((f, h, n)) + 1j * rng.standard_normal((f, h, n))
    if repeated:
        yf[:, :, -1] = yf[:, :, 0]
    x = rng.standard_normal((f, n, n)) + 1j * rng.standard_normal((f, n, n))
    eye = np.eye(n)[None]
    ridge = _RidgeInverse(yf, affine=True)
    ridge.weigh(1.0 / lam_g, 1.0)
    ridge.weigh(lam_g, 1.4)
    for rho in [1.4, 11.2, 0.7]:
        ridge.weigh(lam_g, rho)
        c = ridge(x - eye) + eye
        assert np.abs(c.sum(axis=1) - 1.0).max() <= 1e-12
        want = _dense_ridge_update(yf, x, lam_g, rho, affine=True)
        assert np.abs(c - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("affine", [False, True], ids=["plain", "affine"])
def test_ridge_inverse_holds_only_the_kept_directions(affine):
    # faces of numeric rank 2 and 3: the factors hold the 3 leading directions
    # (plus the fixed 1/sqrt(n) one under affine), and a rank-2 face carries a
    # zero-weight row; the apply is still the dense solve at each lambda_g and
    # rho it is weighed for, and at lambda_g = inf the projector onto the null space of
    # the (centred) face, less the ones direction under affine; the 1/4 keeps
    # s_max near 6, where the dense solves at lam_g = 1e2 hold 12 digits.  The
    # last face is the second scaled to round-off of the whole stack: it keeps
    # no direction, so its apply at lambda_g = inf is the identity (less the
    # ones direction under affine), though a per-face cut kept all 3
    rng = np.random.default_rng(16)
    h, n, ranks = 6, 9, [2, 3, 2, 3]
    yf = 0.25 * np.stack(
        [
            (rng.standard_normal((h, r)) + 1j * rng.standard_normal((h, r)))
            @ (rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n)))
            for r in ranks
        ]
    )
    yf = np.concatenate([yf, 1e-16 * yf[1:2]])
    ranks.append(0)
    f = len(ranks)
    x = rng.standard_normal((f, n, n)) + 1j * rng.standard_normal((f, n, n))
    eye = np.eye(n)[None]
    ridge = _RidgeInverse(yf, affine=affine)
    assert ridge.rank == max(ranks)
    assert ridge.inner == ridge.left.shape[2] == ridge.lh.shape[1] == max(ranks) + affine
    assert (ridge.kept.sum(axis=1) == ranks).all()
    for lam_g in [1e2, 1e-2]:
        ridge.weigh(lam_g, 1.4)
        for rho in [1.4, 11.2, 0.7]:
            ridge.weigh(lam_g, rho)
            got = ridge(x - eye) + eye
            want = _dense_ridge_update(yf, x, lam_g, rho, affine)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    yc = yf - yf.mean(axis=2, keepdims=True) if affine else yf
    # pinv's cut is relative to each face's largest value; the ridge's rule is
    # RANK_TOL times the largest over all faces
    s_max = np.linalg.norm(yc, 2, axis=(1, 2))
    pinv = np.linalg.pinv(yc, rcond=RANK_TOL * s_max.max() / s_max)
    null = eye - pinv @ yc - affine * np.ones((n, n)) / n
    assert (null[-1] == eye[0] - affine * np.ones((n, n)) / n).all()
    ridge.weigh(np.inf, 1.0)
    for rho in [1.0, 8.0]:
        ridge.weigh(np.inf, rho)
        want = null @ x
        assert np.abs(ridge(x) - want).max() <= 1e-12 * np.abs(want).max()


def test_affine_solve_of_identical_samples_has_a_rank_zero_ridge():
    # identical samples leave centred faces that are exactly zero (small
    # integers at depth 4 have exact faces and means), so the ridge keeps no
    # direction and its apply only projects out the ones vector; the solve
    # still converges, with column tube-sums at the unit tube
    rng = np.random.default_rng(17)
    h, n, d = 5, 6, 4
    sample = rng.integers(-3, 4, size=(h, 1, d)).astype(float)
    sample[0, 0, 0] = 1.0  # not identically zero
    y = np.repeat(sample, n, axis=1)
    ridge = _RidgeInverse(ta._faces(y), affine=True)
    assert (ridge.rank, ridge.inner) == (0, 1)
    w, report = solve_self_representation(y, SolverConfig(lambda_g=1.0, affine=True))
    assert report.converged
    assert (w[np.arange(n), np.arange(n), :] == 0.0).all()
    assert np.abs(w.sum(axis=0) - np.tile(ta.e_tube(d, 0), (n, 1))).max() <= 1e-12


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("affine", [False, True], ids=["plain", "affine"])
@pytest.mark.parametrize("general_b0", [False, True], ids=["identity", "general-b0"])
def test_small_side_step_matches_the_dense_apply(dtype, affine, general_b0):
    """One ``_step`` from random ``a`` and ``u``, carried with ``L^H a`` and
    ``L^H u``, splits the dense apply's ``c + u``, ``c = R(a - u - B0) + B0``,
    into ``a' + u'``, leaves ``c - a'`` and ``a - a'`` in the old buffers, and
    carries ``L^H u' = L^H (c + u - a')`` and ``L^H a'`` on the small side,
    each within the dtype's rounding.  The faces have ranks 3 and 2, so the
    rank-2 face holds a zero column of ``L``."""
    rng = np.random.default_rng(19)
    f, h, n = 4, 6, 9
    k = 3 if general_b0 else n

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    yf = np.stack([draw(h, r) @ draw(r, n) for r in [3, 2, 3, 3]])
    ridge = _RidgeInverse(yf, affine=affine, dtype=dtype)
    # U^H and s are held in complex128 at either dtype, and so is the start
    assert ridge.lstsq(yf).dtype == ridge.lstsq(yf.astype(np.complex64)).dtype == np.complex128
    ridge.weigh(0.3, 2.0)
    b0 = draw(f, n, k) if general_b0 else np.eye(n)[None]
    lb0 = (ridge.lh @ b0).astype(dtype)
    a, u = draw(f, n, k).astype(dtype), draw(f, n, k).astype(dtype)
    excluded = ([], []) if general_b0 else (np.arange(n), np.arange(n))
    c = ridge(a - u, lb0=lb0)  # the dense apply
    free = (np.empty_like(a), np.empty_like(a))
    la, lu = ridge.lh @ a, ridge.lh @ u
    a_new, u_new, la_new, lu_new, (step, gap), squares = solver._step(
        ridge, a.copy(), u.copy(), la, lu, lb0, free, 0.7, 0.4, excluded
    )
    tol = 100 * np.finfo(dtype).eps

    def close(got, want):
        return np.abs(got - want).max() <= tol * np.abs(want).max()

    assert close(a_new + u_new, c + u)
    assert (a_new[:, excluded[0], excluded[1]] == 0).all()
    assert close(gap, c - a_new) and close(step, a - a_new)
    lh = ridge.lh.astype(np.complex128)
    assert close(lu_new, lh @ (c + u - a_new)) and close(la_new, lh @ a_new)
    parts = (a - a_new, c - a_new, c, a_new, u_new)
    want = [kernels._sq_norm(x.astype(np.complex128)) for x in parts]
    assert np.allclose(squares, want, rtol=tol, atol=0.0)


# -- group shrinkage ---------------------------------------------------------
# The solver shrinks half-spectrum face stacks in weighted coordinates
# sqrt(w_f) x_f, where plain tube and slice norms are the spatial ones; these
# check that the result, taken back to the spatial domain, is the group shrink
# of the spatial tubes and slices whose norms ||.||_F,1 and ||.||_FF,1 sum.
# An even depth adds the Nyquist face, whose weight is 1/d, not 2/d.


def _shrink_spatial(kernel, x, tau):
    d = x.shape[2]
    root_w = np.sqrt(ta._face_weights(d))[:, None, None]
    v = root_w * ta._faces(x)
    out = np.empty_like(v)
    kernel(v, out, tau)
    return ta._from_faces(out / root_w, d)


def _scale_rows(v, kept, tau):
    # the row stage alone: with tube tau 0 the tube stage keeps every tube
    return kernels.scale_tubes(v, kept, 0.0, tau)


def test_group_shrink_tube_formula():
    d = 4
    v = np.zeros((1, 1, d))
    v[0, 0, 1] = 2.0  # spatial tube norm 2
    out = _shrink_spatial(kernels.scale_tubes, v, 0.5)
    assert np.abs(out - 0.75 * v).max() < 1e-14
    assert (_shrink_spatial(kernels.scale_tubes, v, 2.0) == 0).all()
    assert np.abs(_shrink_spatial(kernels.scale_tubes, v, 0.0) - v).max() < 1e-15
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 4, 5))
    nrm = np.sqrt((x * x).sum(axis=2, keepdims=True))
    tau = float(np.median(nrm))
    ref = x * np.maximum(0.0, 1.0 - tau / nrm)
    assert np.abs(_shrink_spatial(kernels.scale_tubes, x, tau) - ref).max() < 1e-12


def test_group_shrink_row_formula():
    rng = np.random.default_rng(0)
    row = rng.standard_normal((1, 3, 5))
    nrm = np.linalg.norm(row)
    out = _shrink_spatial(_scale_rows, row, nrm / 2.0)
    assert np.abs(out - 0.5 * row).max() < 1e-12
    assert (_shrink_spatial(_scale_rows, row, nrm * 1.01) == 0).all()
    single = row[:, :1]
    assert np.abs(
        _shrink_spatial(_scale_rows, single, 0.3)
        - _shrink_spatial(kernels.scale_tubes, single, 0.3)
    ).max() < 1e-15
    x = rng.standard_normal((4, 3, 6))
    nrm = np.sqrt((x * x).sum(axis=(1, 2), keepdims=True))
    tau = float(np.median(nrm))
    ref = x * np.maximum(0.0, 1.0 - tau / nrm)
    assert np.abs(_shrink_spatial(_scale_rows, x, tau) - ref).max() < 1e-12


@pytest.mark.parametrize("d", [5, 6])
def test_fused_shrink_is_exact_prox_of_the_sum(d):
    """``scale_tubes(v, a, tau, row_tau)`` writes the ``a`` that minimizes ``1/2 ||a - v||^2 +
    tau sum ||a_ij|| + row_tau sum ||a_i||``: its first-order conditions hold
    in the spatial domain.  Row 0 is zeroed by the row stage although two of
    its tubes survive the tube stage; rows 1 and 2 keep some tubes and lose
    others."""
    tau, row_tau = 0.5, 1.0
    norms = np.array(
        [
            [0.2, 0.9, 1.1, 0.3, 0.6],
            [2.0, 0.1, 3.0, 1.5, 0.4],
            [0.45, 2.5, 0.7, 1.2, 4.0],
            [1.3, 2.2, 0.8, 3.1, 1.9],
        ]
    )
    rng = np.random.default_rng(14)
    v = rng.standard_normal(norms.shape + (d,))
    v *= (norms / np.linalg.norm(v, axis=2))[:, :, None]
    a = _shrink_spatial(partial(kernels.scale_tubes, row_tau=row_tau), v, tau)
    tube = np.linalg.norm(a, axis=2)
    row = np.linalg.norm(a, axis=(1, 2))
    assert (tube == 0).sum(axis=1).tolist() == [5, 2, 1, 0]
    for i in range(norms.shape[0]):
        if row[i] == 0:
            # v_i = tau g_i + row_tau h_i with every ||g_ij|| <= 1 needs ||h_i|| <= 1
            assert np.linalg.norm(np.maximum(norms[i] - tau, 0.0)) <= row_tau
            continue
        rest = v[i] - a[i] - row_tau * a[i] / row[i]  # tau times a tube subgradient
        for j in range(norms.shape[1]):
            if tube[i, j] > 0:
                want = tau * a[i, j] / tube[i, j]
                assert np.abs(rest[j] - want).max() <= 1e-12
            else:
                assert np.linalg.norm(rest[j]) <= tau


# -- solved representations --------------------------------------------------


def test_two_samples_in_one_submodule_represent_each_other():
    rng = np.random.default_rng(1)
    d = 6
    y1 = rng.standard_normal((4, 1, d))
    shift = ta.e_tube(d, 2)[None, None, :]
    y = np.concatenate([y1, ta.tprod(y1, shift)], axis=1)
    cfg = SolverConfig(lambda_g=1e3, **TIGHT)
    w, report = solve_self_representation(y, cfg)
    assert report.converged
    assert np.linalg.norm(w[0, 1]) > 1e-2
    assert np.linalg.norm(w[1, 0]) > 1e-2
    assert report.objective < cfg.lambda_g * ta.norm_fro(y) ** 2


def test_vanishing_fidelity_weight_gives_zero_tensor():
    rng = np.random.default_rng(2)
    y = rng.standard_normal((3, 4, 5))
    w, report = solve_self_representation(y, SolverConfig(lambda_g=1e-12, **TIGHT))
    assert np.abs(w).max() < 1e-6
    assert report.objective < 1e-6


def test_depth_one_matches_proximal_gradient_reference():
    rng = np.random.default_rng(3)
    y = rng.standard_normal((8, 6, 1))
    lam_g = 10.0
    w, report = solve_self_representation(y, SolverConfig(lambda_g=lam_g, **TIGHT))
    ref = _ista_depth_one(y[:, :, 0], lam_g, 50000)
    assert abs(report.objective - ref) < 1e-4 * max(1.0, abs(ref))


def test_diagonal_tubes_exactly_zero():
    rng = np.random.default_rng(4)
    y = rng.standard_normal((4, 5, 3))
    w, _ = solve_self_representation(y, SolverConfig(lambda_g=50.0))
    idx = np.arange(5)
    assert (w[idx, idx, :] == 0.0).all()


def test_affine_constraint_column_sums():
    rng = np.random.default_rng(5)
    d = 4
    gens = rng.standard_normal((5, 2, d))
    coeffs = rng.standard_normal((2, 6, d))
    offset = rng.standard_normal((5, 1, d))
    y = ta.tprod(gens, coeffs) + offset
    cfg = SolverConfig(lambda_g=100.0, affine=True, **TIGHT)
    w, _ = solve_self_representation(y, cfg)
    sums = w.sum(axis=0)  # (n, d)
    target = np.tile(ta.e_tube(d, 0), (6, 1))
    assert np.abs(sums - target).max() < 1e-6


@pytest.mark.parametrize("affine", [False, True])
@pytest.mark.parametrize("depth", [5, 6])
def test_objective_matches_spatial_recomputation(depth, affine):
    # an even depth adds the Nyquist face, and affine the rebalance of each
    # face's column sums in weighted coordinates; the objective is that of the
    # returned W whether or not the solve converged (affine ones stop at 2000)
    rng = np.random.default_rng(6)
    y = rng.standard_normal((4, 6, depth))
    cfg = SolverConfig(lambda_g=20.0, lambda_h=0.5, affine=affine, **dict(TIGHT, max_iters=2000))
    w, report = solve_self_representation(y, cfg)
    ref = _objective_spatial(y, w, cfg)
    assert abs(report.objective - ref) < 1e-8 * max(1.0, abs(ref))


def test_zero_column_gets_zero_representation():
    rng = np.random.default_rng(7)
    y = rng.standard_normal((3, 4, 3))
    y[:, 2, :] = 0.0
    w, _ = solve_self_representation(y, SolverConfig(lambda_g=10.0, **TIGHT))
    assert np.linalg.norm(w[:, 2, :]) < 1e-8


def test_max_iters_reported_not_raised():
    rng = np.random.default_rng(8)
    y = rng.standard_normal((3, 4, 2))
    w, report = solve_self_representation(
        y, SolverConfig(lambda_g=100.0, max_iters=3, tol_rel=0.0)
    )
    assert not report.converged
    assert report.iterations == 3
    assert np.isfinite(w).all()


def test_solver_is_deterministic():
    rng = np.random.default_rng(9)
    y = rng.standard_normal((4, 5, 4))
    cfg = SolverConfig(lambda_g=30.0, lambda_h=0.2)
    w1, r1 = solve_self_representation(y, cfg)
    w2, r2 = solve_self_representation(y, cfg)
    assert np.array_equal(w1, w2)
    assert r1.objective == r2.objective


def test_normalize_columns_equals_manual_scaling():
    rng = np.random.default_rng(10)
    y = rng.standard_normal((4, 5, 3)) * np.array([1.0, 5.0, 0.1, 2.0, 9.0])[None, :, None]
    scale = np.sqrt((y * y).sum(axis=(0, 2)))
    manual = y / scale[None, :, None]
    cfg_n = SolverConfig(lambda_g=40.0, normalize_columns=True)
    cfg_m = SolverConfig(lambda_g=40.0)
    w_n, _ = solve_self_representation(y, cfg_n)
    w_m, _ = solve_self_representation(manual, cfg_m)
    assert np.array_equal(w_n, w_m)


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_normalize_columns_holds_at_extreme_scales(scale):
    # the column norms' squares used to overflow at 1e160, scaling every column
    # to 0, and to underflow at 1e-170, for an objective of 0 after 1 iteration
    spec = SynthSpec(h=6, d_per_cluster=[2, 2], samples_per_cluster=[6, 6], depth=4, seed=0)
    y = generate_synthetic(spec).tensor
    cfg = SolverConfig(lambda_g=100.0, normalize_columns=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (w0, r0), (w, r) = (solve_self_representation(y * s, cfg) for s in (1.0, scale))
    labels0 = spectral_cluster(affinity_from_tensor(w0), 2, 0).labels
    assert np.array_equal(spectral_cluster(affinity_from_tensor(w), 2, 0).labels, labels0)
    assert r.objective == pytest.approx(r0.objective, rel=1e-12)


@pytest.mark.parametrize(
    "lambda_h,tol_rel,objective_rel,affinity_rel",
    [
        (0.0, 1e-4, F32, 10 * F32),
        (0.5, 1e-4, F32, 10 * F32),
        (0.0, 1e-6, 1e-12, 1e-10),
        (0.5, 1e-6, 1e-12, 1e-10),
    ],
    ids=["0.0", "0.5", "0.0-complex128", "0.5-complex128"],
)
def test_depth_shift_of_a_sample_leaves_affinity_unchanged(
    lambda_h, tol_rel, objective_rel, affinity_rel
):
    """Circularly shifting samples along depth changes neither objective nor affinity.

    A depth shift by ``s`` is tube multiplication by the unit tube ``e_s``, so
    the optimum maps ``c[:, j] -> c[:, j] * e_s`` and ``c[j, :] -> c[j, :] *
    e_-s`` with the same tube norms.  In the Fourier domain the shift is a
    diagonal phase on each face, and every ADMM iterate follows it, so even an
    unconverged run is invariant.  The affine program is *not*: its column
    tube-sum constraint does not follow the phase, and there the affinity moves
    (by 0.33 of its largest entry, and the objective by 3%).  In complex128 the
    runs agree to round-off; in complex64 (default tolerance) the phase is
    rounded to float32, and the two runs measured 1.7e-9 apart in objective
    and 1.3e-7 in affinity.
    """
    spec = SynthSpec(h=8, d_per_cluster=[2] * 3, samples_per_cluster=[6] * 3, depth=8, seed=0)
    y = generate_synthetic(spec).tensor
    shifted = y.copy()
    shifted[:, 1, :] = np.roll(y[:, 1, :], 3, axis=1)
    shifted[:, 10, :] = np.roll(y[:, 10, :], -2, axis=1)
    cfg = SolverConfig(lambda_g=1.0, lambda_h=lambda_h, max_iters=60, tol_rel=tol_rel)
    w, report = solve_self_representation(y, cfg)
    w_s, report_s = solve_self_representation(shifted, cfg)
    assert report_s.iterations == report.iterations
    assert abs(report_s.objective - report.objective) <= objective_rel * abs(report.objective)
    m = affinity_from_tensor(w)
    m_s = affinity_from_tensor(w_s)
    assert np.abs(m_s - m).max() <= affinity_rel * np.abs(m).max()


@pytest.mark.parametrize(
    "affine,lambda_h,tol_rel,iterations,objective,rel",
    [
        (True, 0.5, 1e-3, 58, 54.33813775092426, F32),
        (False, 0.0, 1e-3, 71, 30.080414423298272, F32),
        (True, 0.5, 1e-6, 614, 54.31518852860766, 1e-10),
        (False, 0.0, 1e-6, 1146, 30.052317092667074, 1e-10),
    ],
    ids=["affine", "non-affine", "affine-complex128", "non-affine-complex128"],
)
def test_iterate_path_is_pinned(affine, lambda_h, tol_rel, iterations, objective, rel):
    """Iteration count and objective recorded from the one-block solver (one
    ``a``, one ``u``) that stops when ``r <= tol_rel P`` and ``s <= tol_rel D``
    and balances rho on ``r / P`` against ``s / D``, with the residual scales
    ``P`` and ``D`` floored at ``1e-2 sqrt(N)`` (at tol_rel 1e-3 rho rises
    1 -> 8 on the affine path, 1 -> 16 on the other; at 1e-6 it rises to 64 on
    both), all in complex128.  A change to the iterates (the splitting, the
    update order, the balancing rule, its scales or its constants, the
    stopping rule) moves the count; rounding alone does not.  At tol_rel 1e-3
    the iterate runs in complex64: the counts did not move, and the objectives
    moved by 5.2e-9 and 2.3e-9 relative.  The non-affine complex128 case takes
    more than the default 1000 iterations, so every case runs with 2000."""
    spec = SynthSpec(h=8, d_per_cluster=[2] * 3, samples_per_cluster=[6] * 3, depth=8, seed=0)
    y = generate_synthetic(spec).tensor
    cfg = SolverConfig(
        lambda_g=1.0, lambda_h=lambda_h, affine=affine, max_iters=2000, tol_rel=tol_rel
    )
    _, report = solve_self_representation(y, cfg)
    assert report.converged
    assert report.iterations == iterations
    assert abs(report.objective - objective) <= rel * objective


@pytest.mark.parametrize(
    "seed,sweep,affine", [(1, [271, 17, 2], 48), (2, [270, 16, 2], 47), (3, [269, 16, 2], 49)]
)
def test_benchmark_shapes_take_their_pinned_iterations(seed, sweep, affine):
    """The iteration counts of the benchmark's two gated workloads at their
    default configs: ``paper-sweep``'s path over lambda_g 1e-2, 1, 1e2 at
    28x40x28, and ``affine-160``'s affine solve (lambda_g 1, lambda_h 0.5) at
    28x160x28, both in complex64.  A change that moves the iterate path fails
    here before it reaches the benchmark.  Seed 3's first point sits on a
    borderline: its rho doubling near iteration 266 clears the balancing
    threshold by 2.6e-4 of the ratio in complex128, less than the 4e-4 that
    float32 rounding moves ``s`` by, and it took 268 iterations before the
    ridge apply moved to its small side."""
    spec = SynthSpec(
        h=28, d_per_cluster=[2] * 4, samples_per_cluster=[10] * 4, depth=28, seed=seed
    )
    grid = [SolverConfig(lambda_g=lam) for lam in (1e-2, 1.0, 1e2)]
    reports = [report for _, report in solve_path(generate_synthetic(spec).tensor, grid)]
    assert all(report.converged for report in reports)
    assert [report.iterations for report in reports] == sweep
    spec = replace(spec, samples_per_cluster=[40] * 4, affine=True)
    cfg = SolverConfig(lambda_g=1.0, lambda_h=0.5, affine=True)
    _, report = solve_self_representation(generate_synthetic(spec).tensor, cfg)
    assert report.converged and report.iterations == affine


@pytest.mark.parametrize("alpha", [1e-3, 10.0])
def test_scaling_y_and_lambda_g_leaves_the_solve_unchanged(alpha):
    """``Y -> alpha Y`` with ``lambda_g -> lambda_g / alpha^2`` leaves the
    program unchanged, and the solver follows: the ridge weights see only
    ``2 lambda_g s^2``, and ``C`` is dimensionless, so the stopping rule is
    scale-free."""
    spec = SynthSpec(h=8, d_per_cluster=[2] * 3, samples_per_cluster=[6] * 3, depth=8, seed=0)
    y = generate_synthetic(spec).tensor
    cfg = SolverConfig(lambda_g=1.0, lambda_h=0.5, affine=True)
    w, report = solve_self_representation(y, cfg)
    w_s, report_s = solve_self_representation(alpha * y, replace(cfg, lambda_g=1.0 / alpha**2))
    assert report_s.iterations == report.iterations
    assert np.abs(w_s - w).max() <= 1e-12 * np.abs(w).max()


@pytest.mark.parametrize("lambda_h", [0.0, 0.5])
def test_affine_solve_ignores_a_common_offset(lambda_h):
    """Adding one ``(h, 1, d)`` offset to every sample leaves an affine solve
    unchanged: under column tube-sums equal to the unit tube the offset drops
    out of ``Y - Y * C``, and the solver sees the data only through its centred
    faces.  Its points lie in affine submodules, which the offset only moves."""
    spec = SynthSpec(h=8, d_per_cluster=[2] * 3, samples_per_cluster=[6] * 3, depth=8, seed=0)
    y = generate_synthetic(spec).tensor
    offset = np.random.default_rng(9).standard_normal((8, 1, 8)) * np.abs(y).max()
    cfg = SolverConfig(lambda_g=1.0, lambda_h=lambda_h, affine=True)
    w, report = solve_self_representation(y, cfg)
    w_o, report_o = solve_self_representation(y + offset, cfg)
    assert report_o.iterations == report.iterations
    assert np.abs(w_o - w).max() <= 1e-12 * np.abs(w).max()
    assert abs(report_o.objective - report.objective) <= 1e-10 * report.objective


def _paper_scale(seed):
    spec = SynthSpec(
        h=28, d_per_cluster=[2] * 4, samples_per_cluster=[10] * 4, depth=28, seed=seed
    )
    return generate_synthetic(spec)


def _assert_histories(report):
    # one entry per iteration, and no stop on the first iteration of a new rho
    assert len(report.rho_history) == report.iterations
    assert len(report.primal_history) == len(report.dual_history) == report.iterations
    if report.converged:
        assert report.rho_history[-1] == report.rho_history[-2]


def test_small_fidelity_weight_converges_at_paper_scale():
    """lambda_g = 1e-2 at 28x40x28 ran into max_iters with a fixed rho = 1."""
    labeled = _paper_scale(1)
    cfg = SolverConfig(lambda_g=1e-2)
    w, report = solve_self_representation(labeled.tensor, cfg)
    assert report.converged
    assert report.iterations < cfg.max_iters
    assert max(report.rho_history) > 1.0
    _assert_histories(report)
    labels = spectral_cluster(affinity_from_tensor(w), 4, 1).labels
    assert clustering_error(labels, labeled.truth.labels) == 0.0


@pytest.mark.parametrize("lam_g", [1e-2, 1e2])
def test_rho_starts_at_one_and_stays_within_its_bounds(lam_g):
    _, report = solve_self_representation(_paper_scale(1).tensor, SolverConfig(lambda_g=lam_g))
    assert report.converged
    assert report.rho_history[0] == 1.0
    assert all(1e-4 <= r <= 1e4 for r in report.rho_history)
    _assert_histories(report)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("lam_g", [1e-2, 1.0, 1e2])
def test_tighter_tolerance_runs_a_longer_prefix_of_the_same_path(lam_g, seed):
    """rho is balanced on scales that no tolerance enters, so a tighter
    tol_rel follows the same iterates and only stops later.  Both runs are in
    complex64.  When rho was balanced on r / eps_pri against s / eps_dual, the
    tolerance steered rho: at lambda_g = 1 the tol_rel = 1e-5 run stopped at
    iteration 75 on seed 2, before the 1e-4 run's 99."""
    y = _paper_scale(seed).tensor
    _, loose = solve_self_representation(y, SolverConfig(lambda_g=lam_g, tol_rel=1e-4))
    _, tight = solve_self_representation(y, SolverConfig(lambda_g=lam_g, tol_rel=1e-5))
    assert loose.converged and tight.converged
    assert tight.iterations > loose.iterations
    for name in ("rho_history", "primal_history", "dual_history"):
        assert getattr(tight, name)[: loose.iterations] == getattr(loose, name)
    assert tight.objective <= loose.objective


@pytest.mark.parametrize("lambda_h,optimum", [(0.5, 107.0276340754), (0.0, 92.2270774497)])
def test_rho_stops_changing_so_a_cycling_solve_converges(lambda_h, optimum):
    """On this small affine problem the balancing swaps rho between two values
    every ten or so iterations; uncapped, it made 800 changes in 20000
    iterations and ended unconverged at objective 11335.5.  After
    ``_RHO_CHANGES`` changes rho stays fixed, and the solve reaches the
    optimum that every fixed rho reaches."""
    y = np.random.default_rng(6).standard_normal((4, 6, 5))
    cfg = SolverConfig(lambda_g=20.0, lambda_h=lambda_h, affine=True, **TIGHT)
    _, report = solve_self_representation(y, cfg)
    assert report.converged
    rho = report.rho_history
    assert sum(a != b for a, b in zip(rho, rho[1:])) == solver._RHO_CHANGES
    assert report.objective == pytest.approx(optimum, rel=1e-9)


def test_ridge_is_weighted_at_the_starting_rho(monkeypatch):
    # held at a starting rho other than 1, the loop and the ridge apply must use
    # the same penalty, or the fixed point is not the optimum: a ridge weighted
    # at 1 under a loop at 0.25 "converged" at 26.465 against 24.923
    y = np.random.default_rng(6).standard_normal((4, 6, 5))
    cfg = SolverConfig(lambda_g=20.0, max_iters=5000, tol_rel=1e-12)
    monkeypatch.setattr(solver, "_RHO_MU", np.inf)  # rho never changes
    _, ref = solve_self_representation(y, cfg)
    monkeypatch.setattr(solver, "_RHO_START", 0.25)
    _, report = solve_self_representation(y, cfg)
    assert ref.converged and report.converged
    assert set(report.rho_history) == {0.25}
    assert report.objective == pytest.approx(ref.objective, rel=1e-9)


def _zero_optimum(tol_rel):
    y = np.random.default_rng(0).standard_normal((8, 6, 2))
    cfg = SolverConfig(lambda_g=1e-2, lambda_h=0.3, tol_rel=tol_rel)
    w, report = solve_self_representation(y, cfg)
    assert report.converged
    _assert_histories(report)
    assert report.rho_history[-1] == 1e4
    return y, cfg, w, report


def test_zero_optimum_stops_only_once_rho_settles():
    """When the row norm outweighs the fidelity the optimum is W = 0: the
    shrinkages return 0, the dual residual is exactly 0 and rho doubles every
    iteration.  Stopping on the first iteration of a new rho would end this
    run at iteration 7 with W about 3e-8 and the objective 7e-7 off; the
    solver runs rho up to its upper bound instead and reaches W = 0 up to
    round-off.  In complex64 W is what is left when the ridge apply subtracts
    its correction off the diagonal, whose size is ``g = 2 lambda_g s^2 / rho``
    at most, so the bound is float32's epsilon times that (1.8e-12 measured
    against a bound of 1.4e-11)."""
    y, cfg, w, report = _zero_optimum(1e-4)
    s_max = np.linalg.svd(ta._faces(y), compute_uv=False).max()
    assert np.abs(w).max() <= F32 * 2.0 * cfg.lambda_g * s_max**2 / 1e4
    assert abs(report.objective - cfg.lambda_g * (y * y).sum()) <= F32 * report.objective


def test_zero_optimum_stops_only_once_rho_settles_in_complex128():
    y, cfg, w, report = _zero_optimum(1e-6)
    assert np.abs(w).max() <= 1e-12
    assert abs(report.objective - cfg.lambda_g * (y * y).sum()) <= 1e-12 * report.objective


# -- precision ---------------------------------------------------------------


def _shrink_dtypes(monkeypatch):
    """Record the dtype of every stack the ADMM loop shrinks."""
    seen = []
    shrink = kernels.scale_tubes

    def recording(v, *args):
        seen.append(v.dtype)
        return shrink(v, *args)

    monkeypatch.setattr(kernels, "scale_tubes", recording)
    return seen


@pytest.mark.parametrize(
    "tol_rel,dtype",
    [(1e-4, np.complex64), (1e-5, np.complex64), (1e-6, np.complex128)],
)
def test_state_precision_follows_tol_rel(monkeypatch, tol_rel, dtype):
    seen = _shrink_dtypes(monkeypatch)
    y = np.random.default_rng(16).standard_normal((4, 6, 3))
    _, report = solve_self_representation(y, SolverConfig(lambda_g=1.0, tol_rel=tol_rel))
    assert len(seen) == report.iterations
    assert set(seen) == {np.dtype(dtype)}


def test_min_f1_representation_iterates_in_complex128(monkeypatch):
    seen = _shrink_dtypes(monkeypatch)
    rng = np.random.default_rng(17)
    dictionary = rng.standard_normal((4, 6, 3))
    x = ta.tprod(dictionary, rng.standard_normal((6, 1, 3)))
    _, report = theory.min_f1_representation(dictionary, x)
    assert len(seen) == report.iterations
    assert set(seen) == {np.dtype(np.complex128)}


def test_complex64_iterate_matches_complex128_at_benchmark_scale(monkeypatch):
    """The 28x160x28 affine benchmark problem, solved at the default tolerance
    in both precisions (the complex128 run by raising the complex64 threshold):
    the same iteration count and labels, objectives within 1e-6 (8e-9
    measured), and a W whose feasibility comes from the complex128 finish in
    both: an exactly zero diagonal and column tube-sums at the unit tube."""
    labeled = generate_synthetic(
        SynthSpec(
            h=28, d_per_cluster=[2] * 4, samples_per_cluster=[40] * 4, depth=28,
            affine=True, seed=1,
        )
    )  # fmt: skip
    cfg = SolverConfig(lambda_g=1.0, lambda_h=0.5, affine=True)
    n = labeled.tensor.shape[1]
    idx = np.arange(n)
    unit = np.tile(ta.e_tube(28, 0), (n, 1))
    runs = []
    for threshold, dtype in [(solver._SINGLE_TOL_REL, np.complex64), (np.inf, np.complex128)]:
        monkeypatch.setattr(solver, "_SINGLE_TOL_REL", threshold)
        seen = _shrink_dtypes(monkeypatch)
        w, report = solve_self_representation(labeled.tensor, cfg)
        assert report.converged
        assert set(seen) == {np.dtype(dtype)}
        assert (w[idx, idx, :] == 0.0).all()
        assert np.abs(w.sum(axis=0) - unit).max() <= 1e-12
        labels = spectral_cluster(affinity_from_tensor(w), 4, 1).labels
        runs.append((report, labels))
    (single, labels_single), (double, labels_double) = runs
    assert single.iterations == double.iterations
    assert abs(single.objective - double.objective) <= 1e-6 * double.objective
    assert np.array_equal(labels_single, labels_double)
    assert clustering_error(labels_single, labeled.truth.labels) == 0.0


def test_report_timings_cover_each_stage():
    rng = np.random.default_rng(12)
    y = rng.standard_normal((4, 5, 3))
    _, report = solve_self_representation(y, SolverConfig(lambda_g=10.0))
    assert set(report.timings) == {"fft", "factor", "iterate", "finalize"}
    assert all(v >= 0.0 for v in report.timings.values())


def test_path_warm_starts_every_point_after_the_first():
    """One path over the paper's grid: the first point is the cold solve, and
    each later one starts from the previous (a, u, rho).  The first iteration
    of a warm point is not tested for convergence (without that guard the
    lambda_g = 1e2 point stopped after 1 iteration), so every warm point takes
    at least 2 iterations, and fewer than a cold solve."""
    y = _paper_scale(1).tensor
    grid = [1e-2, 1.0, 1e2]
    cold = [solve_self_representation(y, SolverConfig(lambda_g=lam))[1] for lam in grid]
    path = [report for _, report in solve_path(y, [SolverConfig(lambda_g=lam) for lam in grid])]
    assert path[0].iterations == cold[0].iterations
    assert path[0].objective == cold[0].objective
    for prev, report, ref in zip(path, path[1:], cold[1:]):
        assert report.converged
        assert 2 <= report.iterations < ref.iterations
        assert report.rho_history[0] == prev.rho_history[-1]
        assert abs(report.objective - ref.objective) <= 1e-3 * ref.objective
        assert report.timings["fft"] == 0.0  # the rFFT and the SVD are the first point's
        _assert_histories(report)


def test_path_configs_may_differ_only_in_lambda_g():
    y = np.random.default_rng(15).standard_normal((3, 4, 2))
    with pytest.raises(ValueError, match="at least one"):
        solve_path(y, [])
    with pytest.raises(ValueError, match="differ only in lambda_g"):
        solve_path(y, [SolverConfig(lambda_g=1.0), SolverConfig(lambda_g=2.0, lambda_h=0.1)])


@pytest.mark.parametrize("affine", [False, True])
def test_permuting_samples_permutes_the_representation(affine):
    """Relabelling the samples relabels the solution: ``W -> W[p][:, p]``.

    Every ADMM step (affine centring, ridge solve, shrinkages, stopping
    rule) is equivariant under a simultaneous permutation of rows and columns,
    so even an unconverged run with a fixed iteration count follows it.
    """
    spec = SynthSpec(h=8, d_per_cluster=[2] * 3, samples_per_cluster=[6] * 3, depth=8, seed=0)
    y = generate_synthetic(spec).tensor
    p = np.random.default_rng(13).permutation(y.shape[1])
    cfg = SolverConfig(lambda_g=1.0, lambda_h=0.5, affine=affine, max_iters=60, tol_rel=0.0)
    w, report = solve_self_representation(y, cfg)
    w_p, report_p = solve_self_representation(y[:, p], cfg)
    assert report_p.iterations == report.iterations == 60
    assert abs(report_p.objective - report.objective) <= 1e-12 * abs(report.objective)
    assert np.abs(w_p - w[p][:, p]).max() <= 1e-10 * np.abs(w).max()
    labels = spectral_cluster(affinity_from_tensor(w), 3, 0).labels
    labels_p = spectral_cluster(affinity_from_tensor(w_p), 3, 0).labels
    assert clustering_error(labels_p, labels[p]) == 0.0


# -- logging -----------------------------------------------------------------


def test_debug_lines_name_each_point_s_own_weight(caplog):
    """At DEBUG every path point logs the weight its ridge is weighed for:
    ``inf`` for a min-F1 solve, each grid value on a path, and every 50
    iterations a line of the residuals and ``rho``."""
    caplog.set_level(logging.DEBUG, logger="ssmc.solver")
    rng = np.random.default_rng(23)
    dictionary = rng.standard_normal((4, 6, 3))
    _, report = theory.min_f1_representation(
        dictionary, ta.tprod(dictionary, rng.standard_normal((6, 1, 3)))
    )
    assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("point")] == [
        f"point 0, lambda_g inf: complex128, inner dimension 4, "
        f"{report.iterations} iterations, converged {report.converged}"
    ]
    caplog.clear()
    y = generate_synthetic(
        SynthSpec(h=6, d_per_cluster=[2, 2], samples_per_cluster=[6, 6], depth=4, seed=0)
    ).tensor
    configs = [SolverConfig(lambda_g=lam) for lam in (1e-2, 1.0, 1e2)]
    reports = [report for _, report in solve_path(y, configs)]
    messages = [r.getMessage() for r in caplog.records]
    assert all(r.levelno == logging.DEBUG for r in caplog.records)
    points = [m for m in messages if m.startswith("point")]
    assert [m.split(":")[0] for m in points] == [
        "point 0, lambda_g 0.01", "point 1, lambda_g 1", "point 2, lambda_g 100"
    ]  # fmt: skip
    assert reports[0].iterations >= 50
    periodic = [m for m in messages if m.startswith("iteration")]
    assert len(periodic) == sum(report.iterations // 50 for report in reports)
    residual = r"\d\.\d{3}e[+-]\d+"
    rho = reports[0].rho_history[49]
    assert re.fullmatch(f"iteration 50: r {residual}, s {residual}, rho {rho:g}", periodic[0])


# -- affinity ----------------------------------------------------------------


def test_affinity_adds_both_tube_norms():
    w = np.zeros((2, 2, 2))
    w[0, 1] = [0.3, 0.0]
    w[1, 0] = [0.0, 0.5]
    m = affinity_from_tensor(w)
    assert m[0, 1] == pytest.approx(0.8, abs=1e-14)
    assert m[1, 0] == pytest.approx(0.8, abs=1e-14)
    assert m[0, 0] == 0.0 and m[1, 1] == 0.0


def test_affinity_zero_tensor_and_invariants():
    assert (affinity_from_tensor(np.zeros((3, 3, 2))) == 0).all()
    rng = np.random.default_rng(11)
    w = rng.standard_normal((5, 5, 3))
    m = affinity_from_tensor(w)
    assert np.array_equal(m, m.T)
    assert m.min() >= 0
    assert (np.diag(m) == 0).all()
    tube = np.linalg.norm(w[2, 4]) + np.linalg.norm(w[4, 2])
    assert m[4, 2] == pytest.approx(tube, abs=1e-14)


def test_affinity_holds_no_tensor_sized_temporary():
    # the tube norms, their transpose sum and the einsum's output before its
    # square root are each (n, n): a traced peak of 2 results, never a W
    w = np.random.default_rng(20).standard_normal((320, 320, 28))
    tracemalloc.start()
    try:
        m = affinity_from_tensor(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * m.nbytes


def test_affinity_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        affinity_from_tensor(np.zeros((3, 4, 2)))
