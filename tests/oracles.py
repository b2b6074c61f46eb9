"""Dense reference constructions that the tests compare the package with.

Every function here uses numpy and the standard library only, so a fault in
``ssmc`` cannot hide itself by also breaking the reference it is compared
with.  They materialize the block-circulant matrix of the t-product (Kilmer
& Martin 2011) instead of working one Fourier face at a time, and search
every label matching instead of solving the assignment problem.
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
