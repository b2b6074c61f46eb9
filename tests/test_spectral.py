"""Spectral clustering tests: embeddings, k-means policy, determinism."""

import numpy as np
import oracles
import pytest

from ssmc import kernels, spectral
from ssmc.data import clustering_error
from ssmc.spectral import KMEANS_MAX_ITERS, KMEANS_RESTARTS, ClusterLabels, kmeans, spectral_cluster


def _block_affinity(sizes, rng=None):
    n = sum(sizes)
    m = np.zeros((n, n))
    start = 0
    for s in sizes:
        block = np.ones((s, s)) if rng is None else 0.5 + 0.5 * rng.random((s, s))
        block = (block + block.T) / 2.0
        m[start : start + s, start : start + s] = block
        start += s
    np.fill_diagonal(m, 0.0)
    return m


def _truth(sizes):
    out = []
    for c, s in enumerate(sizes):
        out.extend([c] * s)
    return np.array(out, dtype=np.int64)


# -- ClusterLabels -----------------------------------------------------------


def test_labels_validation():
    ClusterLabels(labels=np.array([0, 1, 0]), k=2)
    with pytest.raises(ValueError, match="out of range"):
        ClusterLabels(labels=np.array([0, 2]), k=2)
    with pytest.raises(ValueError, match="k must be"):
        ClusterLabels(labels=np.array([0]), k=0)
    with pytest.raises(ValueError, match="k must be at least 1, got True"):
        ClusterLabels(labels=np.array([0]), k=True)
    with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 2\)"):
        ClusterLabels(labels=np.zeros((2, 2), dtype=np.int64), k=1)
    # a float or bool label is refused, not truncated into another label
    with pytest.raises(ValueError, match="integers, got dtype float64"):
        ClusterLabels(labels=[0.9, 1.2], k=2)
    with pytest.raises(ValueError, match="integers, got dtype float64"):
        ClusterLabels(labels=np.array([0.0, 1.0]), k=2)
    with pytest.raises(ValueError, match="integers, got dtype bool"):
        ClusterLabels(labels=[True, False], k=2)
    assert ClusterLabels(labels=[1, 0], k=2).labels.dtype == np.int64
    assert ClusterLabels(labels=np.array([1, 0], dtype=np.uint8), k=2).labels.tolist() == [1, 0]


# -- spectral_cluster --------------------------------------------------------


def test_two_exact_blocks_are_separated():
    m = _block_affinity([5, 7])
    labels = spectral_cluster(m, 2, seed=0)
    assert clustering_error(labels, _truth([5, 7])) == 0.0


def test_permuted_block_diagonal_recovers_permuted_partition():
    rng = np.random.default_rng(0)
    sizes = [4, 6, 5]
    m = _block_affinity(sizes, rng)
    base = spectral_cluster(m, 3, seed=1)
    perm = rng.permutation(sum(sizes))
    permuted = spectral_cluster(m[np.ix_(perm, perm)], 3, seed=1)
    assert clustering_error(permuted, base.labels[perm]) == 0.0


def test_k_equals_one_labels_everything_zero():
    m = _block_affinity([4, 4])
    labels = spectral_cluster(m, 1, seed=0)
    assert (labels.labels == 0).all()


def test_k_out_of_range():
    m = _block_affinity([3, 3])
    with pytest.raises(ValueError, match="k must be in"):
        spectral_cluster(m, 7, seed=0)
    with pytest.raises(ValueError, match="k must be in"):
        spectral_cluster(m, 0, seed=0)
    # one integer rule: bools and integral floats are refused, numpy integers taken
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match=f"k must be in 1..6, got {bad!r}"):
            spectral_cluster(m, bad, seed=0)
    assert spectral_cluster(m, np.int64(2), seed=0).k == 2


def test_isolated_vertex_warns_and_still_clusters():
    m = _block_affinity([4, 4])
    m[3, :] = 0.0
    m[:, 3] = 0.0
    labels = spectral_cluster(m, 2, seed=0)
    assert len(labels.warnings) == 1
    assert "indices 3" in labels.warnings[0]
    assert labels.labels.shape == (8,)


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda m: m[:3], "square"),
        (lambda m: m + np.triu(np.ones_like(m), 1), "symmetric"),
        (lambda m: m - 2 * m.max(), "nonnegative"),
        (lambda m: m + np.eye(m.shape[0]), "zero diagonal"),
        (lambda m: np.where(np.eye(m.shape[0])[::-1] > 0, np.inf, m), "non-finite"),
        (lambda m: np.where(np.eye(m.shape[0])[::-1] > 0, np.nan, m), "non-finite"),
    ],
)
def test_affinity_validation(mutate, match):
    m = _block_affinity([3, 3])
    with pytest.raises(ValueError, match=match):
        spectral_cluster(mutate(m), 2, seed=0)


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6])
def test_spectral_cluster_does_not_depend_on_scale(scale):
    m = _block_affinity([6, 4, 5], np.random.default_rng(4))
    base = spectral_cluster(m, 3, seed=2)
    assert np.array_equal(spectral_cluster(scale * m, 3, seed=2).labels, base.labels)
    # a 10 x 10 two-block affinity with a diagonal of 0.5, and with one entry
    # tripled on one side: a tolerance of 1e-10 (1 + max|m|) used to accept
    # both once the affinity was scaled by 1e-12
    two = _block_affinity([5, 5])
    skew = two.copy()
    skew[0, 1] *= 3.0
    for bad, match in [(two + 0.5 * np.eye(10), "zero diagonal"), (skew, "symmetric")]:
        with pytest.raises(ValueError, match=match):
            spectral_cluster(scale * bad, 2, seed=0)


def test_spectral_determinism():
    rng = np.random.default_rng(2)
    m = _block_affinity([6, 6], rng)
    a = spectral_cluster(m, 2, seed=3)
    b = spectral_cluster(m, 2, seed=3)
    assert np.array_equal(a.labels, b.labels)


# -- kmeans ------------------------------------------------------------------


def test_kmeans_separates_far_groups():
    pts = np.array([[0.0], [0.1], [10.0], [10.1]])
    labels = kmeans(pts, 2, seed=0)
    assert labels.labels[0] == labels.labels[1]
    assert labels.labels[2] == labels.labels[3]
    assert labels.labels[0] != labels.labels[2]


def test_kmeans_identical_points_collapse_to_one_label():
    pts = np.zeros((5, 2))
    labels = kmeans(pts, 2, seed=0)
    assert (labels.labels == 0).all()


def test_kmeans_validates_inputs():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError, match="k must be in"):
        kmeans(pts, 4, seed=0)
    with pytest.raises(ValueError, match="2-d"):
        kmeans(np.zeros(3), 1, seed=0)
    with pytest.raises(ValueError, match="points contains non-finite values"):
        kmeans(np.array([[0.0], [np.nan], [1.0]]), 2, seed=0)
    for bad in (True, 2.0, 1.5):
        with pytest.raises(ValueError, match=f"k must be in 1..3, got {bad!r}"):
            kmeans(pts, bad, seed=0)
    assert kmeans(pts, np.int64(2), seed=0).k == 2


def test_kmeans_inertia_monotone_over_lloyd_iterations():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((30, 3))
    c0 = pts[:3].copy()
    _, _, hist, _ = kernels.lloyd(pts, c0[None], 300)
    assert (np.diff(hist[0]) <= 1e-12).all()


def test_kmeans_determinism_and_seed_sensitivity():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((40, 2))
    a = kmeans(pts, 3, seed=5)
    b = kmeans(pts, 3, seed=5)
    assert np.array_equal(a.labels, b.labels)


# -- lockstep restarts against one restart at a time --------------------------


def _kmeans_case(rng, case, dim):
    """Points of one of four kinds, and k = 1, k = n or k drawn in 1..n."""
    n = int(rng.integers(1, 25))
    kind = case % 4
    if kind == 0:
        pts = rng.standard_normal((n, dim))
    elif kind == 1:  # duplicate points
        pool = rng.standard_normal((max(1, n // 3), dim))
        pts = pool[rng.integers(len(pool), size=n)]
    elif kind == 2:  # unit-normalized rows, as spectral_cluster's embedding
        pts = rng.standard_normal((n, dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    else:  # a small integer grid: exact ties in distances and inertias
        pts = rng.integers(-2, 3, size=(n, dim)).astype(float)
    k = (1, n, int(rng.integers(1, n + 1)))[case % 3]
    return pts, k, int(rng.integers(1000))


def _lockstep(pts, k, seed):
    rngs = [np.random.default_rng([seed, r]) for r in range(KMEANS_RESTARTS)]
    starts = spectral._kmeanspp_init(pts, k, rngs)
    return (starts,) + kernels.lloyd(pts, starts, KMEANS_MAX_ITERS)


def test_lockstep_kmeans_matches_one_restart_at_a_time():
    """320 seeded cases with 2 to 6 coordinates: every restart's start, labels,
    inertia history and iteration count, and kmeans' labels and final inertia,
    are those of the restarts run one at a time, bit for bit."""
    rng = np.random.default_rng(2026)
    for case in range(320):
        pts, k, seed = _kmeans_case(rng, case, int(rng.integers(2, 7)))
        want_labels, want_inertia, runs = oracles.kmeans_one_restart_at_a_time(pts, k, seed)
        starts, labels, _, hist, n_iter = _lockstep(pts, k, seed)
        for r, (start, run_labels, run_hist, run_iter) in enumerate(runs):
            assert np.array_equal(starts[r], start), (case, r)
            assert np.array_equal(labels[r], run_labels), (case, r)
            assert np.array_equal(hist[r, :run_iter], run_hist), (case, r)
            assert (hist[r, run_iter:] == run_hist[-1]).all(), (case, r)
        assert n_iter == sum(run[3] for run in runs)
        assert hist[:, -1].min() == want_inertia, case
        assert np.array_equal(kmeans(pts, k, seed).labels, want_labels), case


def test_lockstep_kmeans_on_one_coordinate_matches_up_to_the_last_bit():
    """numpy's ``mean(axis=0)`` sums a single coordinate pairwise, the lockstep
    sequentially, so 1-d centroids and inertias may differ in the last bits;
    kmeans' labels are the same on these 80 cases."""
    rng = np.random.default_rng(2027)
    for case in range(80):
        pts, k, seed = _kmeans_case(rng, case, 1)
        want_labels, want_inertia, _ = oracles.kmeans_one_restart_at_a_time(pts, k, seed)
        _, _, _, hist, _ = _lockstep(pts, k, seed)
        assert abs(hist[:, -1].min() - want_inertia) <= 1e-14 * want_inertia, case
        assert np.array_equal(kmeans(pts, k, seed).labels, want_labels), case


def test_kmeans_refuses_points_whose_squared_distances_overflow():
    pts = np.array([[0.0, 0.0], [1e200, 0.0], [0.0, 1e200]])
    with pytest.raises(ValueError, match="overflow float64"):
        kmeans(pts, 2, seed=0)

