"""Spectral clustering of the affinity matrix, NJW style.

Embeds the samples with the top eigenvectors of the symmetrically
normalized affinity, row-normalizes the embedding, and clusters rows by
k-means.  The affinity already encodes sparsity-based similarity, so no
kernel re-weighting is applied.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .t_algebra import _check_count

__all__ = ["ClusterLabels", "kmeans", "spectral_cluster"]

KMEANS_RESTARTS = 20
KMEANS_MAX_ITERS = 300


def _label_vector(labels):
    """``labels`` as a one-dimensional int64 array; floats and bools are refused.

    A float label would be truncated and a bool read as 0 or 1, each merging
    labels the caller kept apart.  An empty sequence of any dtype passes.
    """
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError(f"labels must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


@dataclass
class ClusterLabels:
    """A length-``n`` assignment of samples to clusters ``0 .. k-1``."""

    labels: np.ndarray
    k: int
    warnings: tuple = ()

    def __post_init__(self):
        self.labels = _label_vector(self.labels)
        _check_count("k", self.k)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise ValueError(f"labels out of range [0, {self.k})")


def _kmeanspp_init(points, k, rngs):
    """k-means++ starts, one per generator in ``rngs``, drawn in lockstep: ``(R, k, dim)``.

    Each restart draws from its own generator exactly as it would alone: its
    first center by ``integers(n)``, each later one by ``choice(n, p=d2 /
    d2.sum())`` on its squared distances to the nearest chosen center.
    """
    n, dim = points.shape
    centers = np.empty((len(rngs), k, dim), dtype=np.float64)
    centers[:, 0] = points[[int(rng.integers(n)) for rng in rngs]]
    diff = np.empty((len(rngs), n, dim))
    d2 = kernels._sq_dists(points, centers[:, 0], diff)
    for c in range(1, k):
        total = d2.sum(axis=1)
        # a restart whose points all coincide with chosen centers takes point
        # argmax(d2) = 0 again; duplicates are permitted
        idx = np.argmax(d2, axis=1)
        for r in np.flatnonzero(total > 0):
            idx[r] = rngs[r].choice(n, p=d2[r] / total[r])
        centers[:, c] = points[idx]
        np.minimum(d2, kernels._sq_dists(points, centers[:, c], diff), out=d2)
    return centers


def kmeans(points, k, seed):
    """k-means with seeded k-means++ starts.

    Runs 20 restarts of at most 300 Lloyd iterations each and keeps the
    lowest final inertia; restart ``r`` draws its k-means++ start with
    ``default_rng([seed, r])``'s ``integers`` and ``choice``, and inertia
    ties keep the lowest restart index.  The restarts run in lockstep
    (``kernels.lloyd``), and the result is identical to running them one at
    a time: each restart draws and computes as it would alone (for 1-d
    points up to the last bit of the centroids; see ``kernels.lloyd``).
    ``k`` must be an integer in ``1..n`` (a bool or a float is refused).
    Points so spread out that ``n`` times their bounding box's squared
    diagonal overflows float64 raise ``ValueError``: that bounds every
    squared distance and inertia.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be a 2-d array, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("points contains non-finite values")
    _check_count("k", k, high=points.shape[0])
    with np.errstate(over="ignore"):
        bound = points.shape[0] * float(np.square(np.ptp(points, axis=0)).sum())
    if not np.isfinite(bound):
        raise ValueError("the points' squared distances overflow float64")
    rngs = [np.random.default_rng([seed, r]) for r in range(KMEANS_RESTARTS)]
    starts = _kmeanspp_init(points, k, rngs)
    labels, _, inertia, _ = kernels.lloyd(points, starts, KMEANS_MAX_ITERS)
    return ClusterLabels(labels=labels[np.argmin(inertia[:, -1])], k=k)


def _validate_affinity(m):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"affinity must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("affinity contains non-finite values")
    scale = float(np.abs(m).max(initial=0.0))
    if float(np.abs(m - m.T).max(initial=0.0)) > 1e-10 * scale:
        raise ValueError("affinity must be symmetric")
    if m.min(initial=0.0) < 0:
        raise ValueError("affinity must be nonnegative")
    if float(np.abs(np.diag(m)).max(initial=0.0)) > 1e-10 * scale:
        raise ValueError("affinity must have a zero diagonal")
    return (m + m.T) / 2.0


def spectral_cluster(m, k, seed):
    """Cluster the samples of a symmetric nonnegative affinity into ``k`` groups.

    Steps: normalize ``m`` by degrees as ``D**-0.5 m D**-0.5``, take the
    ``k`` eigenvectors of largest eigenvalue (LAPACK ``eigh``),
    row-normalize the embedding (zero rows stay zero), k-means the rows.
    A zero-degree sample has its degree replaced by 1 and adds a warning to
    the result metadata.  Deterministic given ``(m, k, seed)``.  ``k`` must
    be an integer in ``1..n``, as for :func:`kmeans`.  ``m`` must be finite,
    nonnegative, and symmetric with a zero diagonal to within ``1e-10`` times
    its largest entry, a relative rule that refuses the same affinities at
    any scale.
    """
    m = _validate_affinity(m)
    n = m.shape[0]
    _check_count("k", k, high=n)
    warnings = ()
    deg = m.sum(axis=1)
    isolated = deg == 0
    if isolated.any():
        deg = np.where(isolated, 1.0, deg)
        idx = ", ".join(str(i) for i in np.flatnonzero(isolated))
        warnings = (f"isolated vertices (zero degree) at indices {idx}; degree set to 1",)
    inv_root = 1.0 / np.sqrt(deg)
    sym = inv_root[:, None] * m * inv_root[None, :]
    _, vecs = np.linalg.eigh(sym)
    embedding = vecs[:, n - k :]
    row_norms = np.linalg.norm(embedding, axis=1)
    safe = np.where(row_norms > 0, row_norms, 1.0)
    embedding = embedding / safe[:, None]
    result = kmeans(embedding, k, seed)
    return ClusterLabels(labels=result.labels, k=k, warnings=warnings)
