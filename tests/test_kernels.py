"""Kernel-level tests: LAPACK oracles and direct reference formulas."""

import warnings

import numpy as np
import pytest

from ssmc import kernels
from ssmc.t_algebra import _face_weights


# -- weighted squared norms --------------------------------------------------


@pytest.mark.parametrize("transposed", [False, True])
def test_weighted_sq_norms_match_direct_formula(transposed):
    # a transposed view is not contiguous, so the float64 view needs a copy
    rng = np.random.default_rng(7)
    w = np.array([1.0, 2.0, 2.0, 1.0])
    x = rng.standard_normal((4, 5, 3)) + 1j * rng.standard_normal((4, 5, 3))
    if transposed:  # same values, stored face-last
        x = np.moveaxis(np.moveaxis(x, 0, -1).copy(), -1, 0)
        assert not x.flags.c_contiguous
    ref = np.tensordot(w, np.abs(x) ** 2, axes=(0, 0))
    entries = kernels.weighted_sq_norms(x, w)
    assert entries.shape == (5, 3)
    assert np.abs(entries - ref).max() < 1e-13 * ref.max()
    assert abs(kernels.weighted_sq_norms(x, w, total=True) - ref.sum()) < 1e-13 * ref.sum()


def test_weighted_sq_norms_reduce_complex64_in_float32():
    # wide enough that the per-entry squares run in more than one block; the
    # float32 sums of 2F nonnegative terms are within (2F + 1) eps32 of exact
    # (the per-face totals, sums of 2 n m terms, are compared at 1e-5)
    rng = np.random.default_rng(10)
    w = _face_weights(6)
    f = w.shape[0]
    x = rng.standard_normal((f, 70, 70)) + 1j * rng.standard_normal((f, 70, 70))
    x = x.astype(np.complex64)
    assert 2 * x[0].size > kernels._BLOCK
    single = kernels.weighted_sq_norms(x, w)
    double = kernels.weighted_sq_norms(x.astype(np.complex128), w)
    ref = np.tensordot(w, np.abs(x.astype(np.complex128)) ** 2, axes=(0, 0))
    assert single.dtype == np.float32
    assert double.dtype == np.float64
    assert np.abs(double - ref).max() < 1e-13 * ref.max()
    eps = np.finfo(np.float32).eps
    assert (np.abs(single - double) <= (2 * f + 1) * eps * double).all()
    total = kernels.weighted_sq_norms(x, w, total=True)
    assert isinstance(total, float)
    assert abs(total - ref.sum()) <= 1e-5 * ref.sum()


# -- group shrinkage ---------------------------------------------------------


def _spatial_tube_norms(v, w):
    sq = v.real**2 + v.imag**2
    return np.sqrt(np.tensordot(w, sq, axes=(0, 0)))


@pytest.mark.parametrize("even_depth", [False, True])
def test_scale_tubes_applies_group_shrink(even_depth):
    # an even depth adds the Nyquist face, which carries weight 1, not 2
    rng = np.random.default_rng(9)
    d = 6 if even_depth else 5
    w = _face_weights(d)
    v = rng.standard_normal((w.size, 4, 5)) + 1j * rng.standard_normal((w.size, 4, 5))
    tau = 0.7
    out = kernels.scale_tubes(v, w, tau)[0]
    nrm = _spatial_tube_norms(v, w)
    factor = np.where(nrm > tau, 1.0 - tau / np.where(nrm > 0, nrm, 1.0), 0.0)
    assert np.abs(out - v * factor).max() < 1e-14


def test_scale_tubes_edge_cases():
    rng = np.random.default_rng(10)
    w = _face_weights(4)
    v = rng.standard_normal((w.size, 3, 3)) + 1j * rng.standard_normal((w.size, 3, 3))
    assert np.array_equal(kernels.scale_tubes(v, w, 0.0)[0], v)
    big = 1.0 + _spatial_tube_norms(v, w).max()
    assert (kernels.scale_tubes(v, w, big)[0] == 0).all()


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


@pytest.mark.parametrize("row_tau", [0.0, 1.1])
def test_scale_tubes_returns_shrunk_tube_norms(row_tau):
    # the second result is the tube norms of the first, so the solver can take
    # ||a|| from it; the tubes of rows 0 and 1 fall below tau and are zeroed
    rng = np.random.default_rng(12)
    d = 6
    w = _face_weights(d)
    v = rng.standard_normal((w.size, 4, 5)) + 1j * rng.standard_normal((w.size, 4, 5))
    v[:, 0] = 0.0
    v[:, 1] *= 1e-3
    out, norms = kernels.scale_tubes(v, w, 0.7, row_tau)
    ref = _spatial_tube_norms(out, w)
    assert norms.shape == (4, 5)
    assert (norms[:2] == 0).all()
    assert np.abs(norms - ref).max() < 1e-14 * max(1.0, ref.max())
    total = kernels.weighted_sq_norms(out, w, total=True)
    assert abs((norms**2).sum() - total) < 1e-13 * total


@pytest.mark.parametrize("even_depth", [False, True])
def test_scale_rows_applies_group_shrink(even_depth):
    rng = np.random.default_rng(11)
    d = 6 if even_depth else 5
    w = _face_weights(d)
    v = rng.standard_normal((w.size, 4, 6)) + 1j * rng.standard_normal((w.size, 4, 6))
    tau = 1.1
    out = kernels.scale_tubes(v, w, 0.0, tau)[0]  # the row stage alone
    sq = v.real**2 + v.imag**2
    nrm = np.sqrt(np.tensordot(w, sq, axes=(0, 0)).sum(axis=1))
    factor = np.where(nrm > tau, 1.0 - tau / np.where(nrm > 0, nrm, 1.0), 0.0)
    assert np.abs(out - v * factor[None, :, None]).max() < 1e-14


# -- lloyd -------------------------------------------------------------------


def _blob_points(rng, centers, per):
    return np.vstack([rng.normal(c, 0.1, (per, 2)) for c in centers])


@pytest.mark.parametrize("swapped_init", [False, True])
def test_lloyd_separates_clear_blobs(swapped_init):
    # labels follow the order of the initial centroids
    rng = np.random.default_rng(13)
    pts = _blob_points(rng, [(0.0, 0.0), (10.0, 10.0)], 20)
    c0 = np.array([[1.0, 1.0], [9.0, 9.0]])
    first = 0
    if swapped_init:
        c0 = c0[::-1].copy()
        first = 1
    labels, centers, hist, n_iter = kernels.lloyd(pts, c0, 50)
    assert (labels[:20] == first).all() and (labels[20:] == 1 - first).all()
    assert n_iter <= 50
    assert np.abs(centers[first] - pts[:20].mean(axis=0)).max() < 1e-12


def test_lloyd_inertia_never_increases():
    rng = np.random.default_rng(14)
    pts = rng.standard_normal((60, 3))
    c0 = pts[:4].copy()
    _, _, hist, _ = kernels.lloyd(pts, c0, 100)
    assert (np.diff(hist) <= 1e-12).all()


def test_lloyd_ties_break_to_lowest_index():
    pts = np.array([[0.0, 0.0]])
    c0 = np.array([[1.0, 0.0], [-1.0, 0.0]])  # equidistant
    labels, _, _, _ = kernels.lloyd(pts, c0, 5)
    assert labels[0] == 0


def test_lloyd_empty_cluster_keeps_centroid():
    pts = np.array([[0.0], [0.1], [0.2]])
    c0 = np.array([[0.1], [100.0]])  # second centroid captures nothing
    labels, centers, _, _ = kernels.lloyd(pts, c0, 10)
    assert (labels == 0).all()
    assert centers[1, 0] == 100.0
