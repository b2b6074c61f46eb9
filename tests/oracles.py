"""Dense reference constructions that the tests compare the package with.

Every function here uses numpy and the standard library only, so a fault in
``ssmc`` cannot hide itself by also breaking the reference it is compared
with.  They materialize the block-circulant matrix of the t-product (Kilmer
& Martin 2011) instead of working one Fourier face at a time, search every
label matching instead of solving the assignment problem, and run k-means one
restart at a time, with ``Generator.choice`` for the k-means++ draws.
"""

import itertools

import numpy as np

BCIRC_GUARD = 4096


def _as_tensor3(a, name="tensor"):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 3:
        raise ValueError(f"{name} must be 3-dimensional, got shape {a.shape}")
    return a


def unfold(a):
    """Stack the frontal slices of ``(h, n, d)`` vertically into ``(h*d, n)``."""
    a = _as_tensor3(a)
    h, n, d = a.shape
    return np.ascontiguousarray(np.transpose(a, (2, 0, 1)).reshape(h * d, n))


def fold(m, h, n, d):
    """Inverse of :func:`unfold`."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (h * d, n):
        raise ValueError(f"cannot fold shape {m.shape} into ({h}, {n}, {d})")
    return np.ascontiguousarray(np.transpose(m.reshape(d, h, n), (1, 2, 0)))


def bcirc(a):
    """Materialize the ``(h*d, l*d)`` block-circulant matrix of ``(h, l, d)``.

    Block ``(r, c)`` is frontal slice ``(r - c) mod d``.  Dense and meant for
    reference checks only: sizes with ``d * max(h, l) > 4096`` are rejected.
    """
    a = _as_tensor3(a)
    h, l, d = a.shape
    if d * max(h, l) > BCIRC_GUARD:
        raise ValueError("oracle too large")
    big = np.zeros((h * d, l * d), dtype=np.float64)
    for r in range(d):
        for c in range(d):
            big[r * h : (r + 1) * h, c * l : (c + 1) * l] = a[:, :, (r - c) % d]
    return big


def tprod_bcirc_oracle(a, b):
    """Reference tensor product: fold(bcirc(a) @ unfold(b)).

    Same size guard as :func:`bcirc`.
    """
    a = _as_tensor3(a, "left operand")
    b = _as_tensor3(b, "right operand")
    if a.shape[2] != b.shape[2] or a.shape[1] != b.shape[0]:
        raise ValueError(f"tprod shape mismatch: {a.shape} vs {b.shape}")
    h, _, d = a.shape
    k = b.shape[1]
    return fold(bcirc(a) @ unfold(b), h, k, d)


def ttranspose(a):
    """Transpose each frontal slice and reverse the order of slices 2..d."""
    a = _as_tensor3(a)
    d = a.shape[2]
    idx = (d - np.arange(d)) % d
    return np.ascontiguousarray(np.transpose(a[:, :, idx], (1, 0, 2)))


def identity_tensor(n, d):
    """The ``(n, n, d)`` product identity: identity first face, zeros after."""
    t = np.zeros((n, n, d), dtype=np.float64)
    t[:, :, 0] = np.eye(n)
    return t


def coherence_per_trial(gi, gj, trials, seed):
    """Reference coherence estimate, one trial at a time from one seeded stream.

    Each trial draws ``gi.shape[1]`` then ``gj.shape[1]`` standard normals,
    forms the two scalar combinations of the ``(h, d, depth)`` generators and
    scores the tube cosine ``(a' * b + b' * a) / (2 ||a|| ||b||)`` with the
    dense t-product; returns the largest Frobenius norm of those tubes.
    """
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        a = np.tensordot(gi, rng.standard_normal(gi.shape[1]), axes=(1, 0))[:, None, :]
        b = np.tensordot(gj, rng.standard_normal(gj.shape[1]), axes=(1, 0))[:, None, :]
        tube = (tprod_bcirc_oracle(ttranspose(a), b) + tprod_bcirc_oracle(ttranspose(b), a))[0, 0]
        best = max(best, float(np.linalg.norm(tube)) / (2 * np.linalg.norm(a) * np.linalg.norm(b)))
    return best


def max_assignment_brute(w):
    """Largest ``sum_i w[i, m(i)]`` over all injective maps ``m`` of the shorter axis.

    Enumerates every ordered choice of ``min(r, c)`` distinct columns (or
    rows, if the matrix is tall): ``c! / (c - r)!`` maps, so keep sides small.
    """
    w = np.asarray(w, dtype=np.int64)
    if w.shape[0] > w.shape[1]:
        w = w.T
    r, c = w.shape
    maps = np.array(list(itertools.permutations(range(c), r)), dtype=np.intp)
    return int(w[np.arange(r), maps].sum(axis=1).max())


def lloyd_one_start(X, C0, max_iter):
    """Reference Lloyd iterations from one ``(k, dim)`` start.

    Returns ``(labels, centroids, inertia_history, n_iter)``.  Ties go to the
    lowest centroid index, the inertia is recorded right after each
    assignment step, a cluster that loses all its points keeps its centroid,
    and the run stops when the assignments repeat or at ``max_iter``.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    C = np.array(C0, dtype=np.float64)
    max_iter = int(max_iter)
    n = X.shape[0]
    k = C.shape[0]
    prev = np.full(n, -1, dtype=np.int64)
    hist = np.empty(max_iter, dtype=np.float64)
    it = 0
    labels = prev
    while it < max_iter:
        d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1).astype(np.int64)
        hist[it] = d2[np.arange(n), labels].sum()
        it += 1
        if np.array_equal(labels, prev):
            break
        prev = labels
        for c in range(k):
            mask = labels == c
            if mask.any():
                C[c] = X[mask].mean(axis=0)
    return labels, C, hist[:it].copy(), it


def kmeanspp_one_start(points, k, rng):
    """Reference k-means++ start drawn from ``rng``, with ``Generator.choice``."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(rng.integers(n))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(np.argmax(d2))
        centers[c] = points[idx]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def kmeans_one_restart_at_a_time(points, k, seed, restarts=20, max_iter=300):
    """Reference k-means: restart ``r`` starts from ``kmeanspp_one_start`` on
    ``default_rng([seed, r])`` and runs ``lloyd_one_start``; the lowest final
    inertia wins, ties to the lowest restart.  Returns ``(labels, inertia,
    runs)``, with ``runs`` each restart's ``(start, labels, history, n_iter)``."""
    points = np.asarray(points, dtype=np.float64)
    best_labels, best_inertia = None, np.inf
    runs = []
    for r in range(restarts):
        c0 = kmeanspp_one_start(points, k, np.random.default_rng([seed, r]))
        labels, _, hist, it = lloyd_one_start(points, c0, max_iter)
        runs.append((c0, labels, hist, it))
        if hist[-1] < best_inertia:
            best_inertia = float(hist[-1])
            best_labels = labels
    return best_labels, best_inertia, runs
