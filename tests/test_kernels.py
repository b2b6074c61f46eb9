"""Kernel-level tests: LAPACK oracles and direct reference formulas."""

import tracemalloc
import warnings

import numpy as np
import pytest

from ssmc import kernels
from ssmc.t_algebra import _face_weights, _faces


# -- squared tube norms ------------------------------------------------------


def _tube_sq_norms(x):
    """The squared tube norms that the solver's objective takes of a stack."""
    return kernels._part_sq_sums(x).sum(axis=-1)


def test_tube_sq_norms_match_direct_formula():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 5, 3)) + 1j * rng.standard_normal((4, 5, 3))
    ref = (np.abs(x) ** 2).sum(axis=0)
    entries = _tube_sq_norms(x)
    assert entries.shape == (5, 3)
    assert np.abs(entries - ref).max() < 1e-13 * ref.max()


def test_tube_sq_norms_reduce_complex64_in_float32():
    # the float32 sums of 2F nonnegative terms are within (2F + 1) eps32 of
    # exact (the stack's squared norm, a sum of 2 F n m terms, is compared at
    # 1e-5)
    rng = np.random.default_rng(10)
    f = 4
    x = rng.standard_normal((f, 70, 70)) + 1j * rng.standard_normal((f, 70, 70))
    x = x.astype(np.complex64)
    single = _tube_sq_norms(x)
    double = _tube_sq_norms(x.astype(np.complex128))
    ref = (np.abs(x.astype(np.complex128)) ** 2).sum(axis=0)
    assert single.dtype == np.float32
    assert double.dtype == np.float64
    assert np.abs(double - ref).max() < 1e-13 * ref.max()
    eps = np.finfo(np.float32).eps
    assert (np.abs(single - double) <= (2 * f + 1) * eps * double).all()
    total = kernels._sq_norm(x)
    assert isinstance(total, float)
    assert abs(total - ref.sum()) <= 1e-5 * ref.sum()
    assert abs(kernels._sq_norm(x.astype(np.complex128)) - ref.sum()) < 1e-13 * ref.sum()


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_tube_sq_norms_hold_no_stack_sized_temporary(dtype):
    # the reduction's temporaries are the per-entry sums of the real view (two
    # results) and the result: a traced peak of 3 results, never a stack
    rng = np.random.default_rng(19)
    shape = (15, 320, 320)
    x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
    tracemalloc.start()
    try:
        t = _tube_sq_norms(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * t.nbytes


# -- group shrinkage ---------------------------------------------------------
# The solver shrinks the weighted half-spectrum faces sqrt(w_f) x_f of a real
# tensor x, whose plain tube norms are x's spatial ones; at an even depth the
# last of them is the Nyquist face.  The expected results below are the plain
# formulas on the stack.


def _weighted_faces(rng, shape, d):
    x = rng.standard_normal(shape + (d,))
    return np.sqrt(_face_weights(d))[:, None, None] * _faces(x)


def _tube_norms(v):
    return np.sqrt((np.abs(v) ** 2).sum(axis=0))


def _plain_shrink(nrm, tau):
    return np.where(nrm > tau, 1.0 - tau / np.where(nrm > 0, nrm, 1.0), 0.0)


@pytest.mark.parametrize("even_depth", [False, True])
def test_scale_tubes_applies_group_shrink(even_depth):
    rng = np.random.default_rng(9)
    v = _weighted_faces(rng, (4, 5), 6 if even_depth else 5)
    tau = 1.6  # zeroes some tubes and shrinks the rest
    out = np.empty_like(v)
    kernels.scale_tubes(v.copy(), out, tau)
    factor = _plain_shrink(_tube_norms(v), tau)
    assert 0 < (factor == 0).sum() < factor.size
    assert np.abs(out - v * factor).max() < 1e-14


def test_scale_tubes_edge_cases():
    rng = np.random.default_rng(10)
    v = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    out = np.empty_like(v)
    kernels.scale_tubes(v.copy(), out, 0.0)
    assert np.array_equal(out, v)
    big = 1.0 + _tube_norms(v).max()
    kernels.scale_tubes(v.copy(), out, big)
    assert (out == 0).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_shrink_factor_matches_the_masked_formula(dtype):
    # bit for bit the factor written as a gather and scatter over nrm > tau,
    # with zero norms and norms at tau among the draws
    rng = np.random.default_rng(13)
    nrm = rng.exponential(size=(40, 50)).astype(dtype)
    nrm[0] = 0.0
    nrm[1] = dtype(0.7)
    for tau in (0.0, 0.7, 2.5):
        want = np.zeros_like(nrm)
        pos = nrm > tau
        want[pos] = 1.0 - tau / nrm[pos]
        got = kernels._shrink_factor(nrm, tau)
        assert got.dtype == nrm.dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def test_shrink_factor_edge_values_raise_no_warning():
    # 0/0 at tau = 0 is 0, a norm at tau is 0, an infinite norm is kept whole,
    # and no divide or invalid warning escapes
    nrm = np.array([0.0, 0.5, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(kernels._shrink_factor(nrm, 0.0), [0.0, 1.0, 1.0])
        assert np.array_equal(kernels._shrink_factor(nrm, 0.5), [0.0, 0.0, 1.0])


def _sq_total(v):
    return float((np.abs(v) ** 2).sum())


@pytest.mark.parametrize("row_tau", [0.0, 1.1])
def test_scale_tubes_returns_the_squared_norms_kept_and_taken(row_tau):
    # the results are the squared norms of the shrunk stack and of the part
    # taken away, so the solver can take ||a|| and ||(c + u) - a|| from them;
    # the tubes of rows 0 and 1 fall below tau and are zeroed
    rng = np.random.default_rng(12)
    v = rng.standard_normal((4, 4, 5)) + 1j * rng.standard_normal((4, 4, 5))
    v[:, 0] = 0.0
    v[:, 1] *= 1e-3
    out, rest = np.empty_like(v), v.copy()
    kept, taken = kernels.scale_tubes(rest, out, 0.7, row_tau)
    assert (out[:, :2] == 0).all()
    assert np.abs(rest - (v - out)).max() < 1e-15 * np.abs(v).max()
    want_kept = _sq_total(out)
    want_taken = _sq_total(v - out)
    assert abs(kept - want_kept) < 1e-13 * want_kept
    assert abs(taken - want_taken) < 1e-13 * want_taken


@pytest.mark.parametrize("row_tau", [0.0, 1.1])
def test_scale_tubes_zeroes_the_excluded_tubes_before_the_row_stage(row_tau):
    # excluding tubes is zeroing them first: the row norms do not count them,
    # and the part taken away includes them whole
    rng = np.random.default_rng(15)
    v = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    diag = (np.arange(4), np.arange(4))
    out = np.empty_like(v)
    kept, taken = kernels.scale_tubes(v.copy(), out, 0.3, row_tau, diag)
    zeroed = v.copy()
    zeroed[:, diag[0], diag[1]] = 0.0
    want = np.empty_like(v)
    kernels.scale_tubes(zeroed, want, 0.3, row_tau)
    assert np.abs(out - want).max() < 1e-14
    assert (out[:, diag[0], diag[1]] == 0).all()
    assert abs(kept - _sq_total(out)) < 1e-13 * kept
    want_taken = _sq_total(v - out)
    assert abs(taken - want_taken) < 1e-13 * want_taken


@pytest.mark.parametrize("even_depth", [False, True])
def test_scale_tubes_row_stage_applies_group_shrink(even_depth):
    rng = np.random.default_rng(11)
    v = _weighted_faces(rng, (4, 6), 6 if even_depth else 5)
    tau = 5.5  # zeroes some rows and shrinks the rest
    out = np.empty_like(v)
    kernels.scale_tubes(v.copy(), out, 0.0, tau)  # the row stage alone
    factor = _plain_shrink(np.sqrt((np.abs(v) ** 2).sum(axis=(0, 2))), tau)
    assert 0 < (factor == 0).sum() < factor.size
    assert np.abs(out - v * factor[None, :, None]).max() < 1e-14


# -- lloyd -------------------------------------------------------------------


def _blob_points(rng, centers, per):
    return np.vstack([rng.normal(c, 0.1, (per, 2)) for c in centers])


@pytest.mark.parametrize("swapped_init", [False, True])
def test_lloyd_separates_clear_blobs(swapped_init):
    # labels follow the order of the initial centroids; the one-restart batch
    rng = np.random.default_rng(13)
    pts = _blob_points(rng, [(0.0, 0.0), (10.0, 10.0)], 20)
    c0 = np.array([[1.0, 1.0], [9.0, 9.0]])
    first = 0
    if swapped_init:
        c0 = c0[::-1].copy()
        first = 1
    labels, centers, hist, n_iter = kernels.lloyd(pts, c0[None], 50)
    assert labels.shape == (1, 40) and centers.shape == (1, 2, 2) and hist.shape == (1, n_iter)
    assert (labels[0, :20] == first).all() and (labels[0, 20:] == 1 - first).all()
    assert n_iter <= 50
    assert np.abs(centers[0, first] - pts[:20].mean(axis=0)).max() < 1e-12


def test_lloyd_inertia_never_increases():
    # in every restart of a batch, also after a restart has stopped (its
    # inertia is held); the iteration count is the sum over the restarts
    rng = np.random.default_rng(14)
    pts = rng.standard_normal((60, 3))
    c0 = np.stack([pts[i : i + 4] for i in range(0, 20, 4)])
    _, _, hist, n_iter = kernels.lloyd(pts, c0, 100)
    assert hist.shape[0] == 5
    assert (np.diff(hist, axis=1) <= 1e-12).all()
    assert isinstance(n_iter, int) and hist.shape[1] <= n_iter <= 5 * hist.shape[1]


def test_lloyd_ties_break_to_lowest_index():
    # the equidistant point goes to centroid 0 in both restarts, whichever
    # side of it that centroid starts on
    pts = np.array([[0.0, 0.0]])
    c0 = np.array([[[1.0, 0.0], [-1.0, 0.0]], [[-1.0, 0.0], [1.0, 0.0]]])
    labels, _, _, _ = kernels.lloyd(pts, c0, 5)
    assert (labels[:, 0] == 0).all()


def test_lloyd_empty_cluster_keeps_centroid():
    # the second centroid captures nothing in restart 0, the first nothing in
    # restart 1; each keeps its start while the other restart's moves
    pts = np.array([[0.0], [0.1], [0.2]])
    c0 = np.array([[[0.1], [100.0]], [[-50.0], [0.0]]])
    labels, centers, _, _ = kernels.lloyd(pts, c0, 10)
    assert (labels[0] == 0).all() and (labels[1] == 1).all()
    assert centers[0, 1, 0] == 100.0 and centers[1, 0, 0] == -50.0
    assert abs(centers[0, 0, 0] - 0.1) < 1e-15 and abs(centers[1, 1, 0] - 0.1) < 1e-15
