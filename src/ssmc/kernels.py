"""Numpy helpers of the solver and of k-means.  The two public ones are the
tube and row shrink and lockstep Lloyd iterations; the private ones are the
reductions that they share with their callers: squared tube norms, real dot
products and squared distances to one center per restart.

Dense Fourier-face stacks are laid out ``(F, n, m)`` with the face index
first, so per-face work hits contiguous memory.  Each reduction is one numpy
call, an ``einsum`` or a BLAS dot, with no temporary as large as the stack.
"""

import numpy as np


def _part_sq_sums(x):
    """The sums over the faces of the squared real and imaginary parts of a
    contiguous complex stack, shape ``x.shape[1:] + (2,)``, in its real precision."""
    xr = x.view(x.real.dtype).reshape(x.shape[0], -1)  # re, im alternate
    return np.einsum("fi,fi->i", xr, xr).reshape(x.shape[1:] + (2,))


def _re_dot(x, y):
    """``Re <x, y>`` of two contiguous arrays of one shape: one BLAS dot on their real views."""
    return float(np.vdot(x.view(x.real.dtype), y.view(y.real.dtype)))


def _sq_norm(z):
    """The squared Frobenius norm of a contiguous array: one BLAS dot on its real view."""
    return _re_dot(z, z)


def _shrink_factor(nrm, tau):
    """``max(0, 1 - tau / nrm)``, with 0 at ``nrm = 0`` (where ``fmax`` drops the nan of 0/0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.divide(tau, nrm)
        np.subtract(1.0, factor, out=factor)
        return np.fmax(factor, 0.0, out=factor)


def scale_tubes(V, kept, tau, row_tau=0.0, excluded=None):
    """Split a contiguous face stack into its tube-then-row shrink and the rest.

    With ``t`` the combined shrink factor of each tube (fixed ``(i, j)``, all
    faces), writes ``t V`` into ``kept``, a stack of ``V``'s shape and dtype,
    and leaves ``(1 - t) V``, the part taken away, in ``V``.  The tube stage
    is ``v <- max(0, 1 - tau / ||v||) v``, with the plain norm over the tube's
    faces; ``tau = 0`` keeps nonzero tubes unchanged.  With ``row_tau > 0``
    the tube-shrunk result is then shrunk per horizontal slice (fixed ``i``,
    all faces and columns) by ``row_tau``.  Tubes nest in rows, so the
    composition is the exact prox of ``tau sum ||v_ij|| + row_tau sum ||v_i||``
    (Jenatton et al. 2011).  ``excluded`` indexes tubes of the ``(n, k)`` tube
    grid that are set to 0, the prox of their indicator, a leaf of the same
    tree: their factor is 0 before the row stage.  The row norms come from the
    shrunk tube norms, ``||t_ij v_ij|| = t_ij ||v_ij||``, so ``V`` is read once
    for the norms, and each part is one multiply of a real view by its factor,
    both in the stack's own precision.

    Returns the squared Frobenius norms of the two parts, ``sum((t
    ||v_ij||)^2)`` and ``sum(((1 - t) ||v_ij||)^2)``: from the tube norms,
    without another pass over the stack.
    """
    parts = _part_sq_sums(V)
    nrm = np.add(parts[..., 0], parts[..., 1])
    np.sqrt(nrm, out=nrm)
    factor = _shrink_factor(nrm, tau)
    if excluded is not None:
        factor[excluded] = 0.0
    # the part sums are spent: their buffer takes the shrunk tube norms, and
    # then one factor per real and imaginary part, which alternate in the
    # real view
    spare = parts.reshape(2, -1)[0].reshape(nrm.shape)
    if row_tau > 0:
        shrunk = np.multiply(factor, nrm, out=spare)
        rows = np.sqrt(np.einsum("ij,ij->i", shrunk, shrunk))
        factor *= _shrink_factor(rows, row_tau)[:, None]
    shrunk = np.multiply(factor, nrm, out=spare)
    squares = _sq_norm(shrunk), _sq_norm(np.subtract(nrm, shrunk, out=nrm))
    np.stack((factor, factor), axis=-1, out=parts)
    pair = parts.reshape(V.shape[1], -1)
    vr = V.view(V.real.dtype)
    np.multiply(vr, pair, out=kept.view(vr.dtype))
    vr *= np.subtract(1.0, pair, out=pair)
    return squares


def _sq_dists(X, centers, diff, out=None):
    """``(R, n)`` squared distances of the ``(n, dim)`` points ``X`` to each
    restart's center ``centers[r]``, written into ``out`` if it is given.

    ``diff`` is an ``(R, n, dim)`` scratch buffer.  Each distance is the sum
    over coordinates of the squared differences, the same reduction for every
    restart and for ``kernels.lloyd`` and the k-means++ starts alike.
    """
    np.subtract(X, centers[:, None, :], out=diff)
    np.square(diff, out=diff)
    return np.sum(diff, axis=2, out=out)


def lloyd(X, C0, max_iter):
    """Run Lloyd iterations from ``R`` sets of initial centroids at once.

    ``X`` is ``(n, dim)`` and ``C0`` is ``(R, k, dim)``, one start per
    restart.  The restarts run in lockstep, and each one's results are
    identical to running it alone: its squared distances, nearest-centroid
    choice and inertia are taken with the same numpy reductions, and each
    centroid is the sum of its points in index order divided by their count.
    That sum is numpy's ``mean(axis=0)`` for points of two or more
    coordinates; numpy sums a single coordinate pairwise, so 1-d centroids
    may differ from it in the last bit.  Nearest-centroid ties break toward
    the lowest centroid index, and a cluster that loses all its points keeps
    its previous centroid.  A restart stops when its assignments repeat or at
    ``max_iter``; the others go on without it.  Temporaries are ``(R, n,
    dim)`` and ``(R, k, n)``.

    Returns ``(labels, centroids, inertia, n_iter)``: the ``(R, n)`` labels,
    the ``(R, k, dim)`` centroids, the ``(R, T)`` inertia history, and the
    total iteration count over the restarts.  Column ``t`` of the history is
    each restart's inertia right after the assignment step of iteration
    ``t + 1`` (so it is non-increasing), held at its last value once the
    restart has stopped; ``T`` is the longest restart's iteration count.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    C = np.array(C0, dtype=np.float64)
    restarts, k, dim = C.shape
    n = X.shape[0]
    labels = np.full((restarts, n), -1, dtype=np.int64)
    inertia = np.zeros(restarts)
    hist = []
    live = np.arange(restarts)  # the restarts still iterating
    n_iter = 0
    # allocated once and sliced as restarts stop: temporaries of a new,
    # shrinking size every iteration fragmented the heap of a long-running
    # process and raised its peak RSS by about 2 MB
    diff_all = np.empty((restarts, n, dim))
    d2_all = np.empty((restarts, k, n))
    for _ in range(int(max_iter)):
        if not live.size:
            break
        diff, d2 = diff_all[: live.size], d2_all[: live.size]
        for c in range(k):
            _sq_dists(X, C[live, c], diff, out=d2[:, c])
        new = np.argmin(d2, axis=1)
        inertia[live] = np.take_along_axis(d2, new[:, None, :], axis=1)[:, 0].sum(axis=1)
        hist.append(inertia.copy())
        n_iter += live.size
        moved = (new != labels[live]).any(axis=1)
        labels[live] = new
        live, new = live[moved], new[moved]
        # per (restart, cluster) sums in point order: bincount adds sequentially
        groups = (np.arange(live.size)[:, None] * k + new).ravel()
        size = live.size * k
        counts = np.bincount(groups, minlength=size)
        sums = np.empty((size, dim))
        for j in range(dim):
            weights = np.broadcast_to(X[:, j], (live.size, n)).ravel()
            sums[:, j] = np.bincount(groups, weights=weights, minlength=size)
        means = C[live].reshape(size, dim)
        kept = counts > 0
        means[kept] = sums[kept] / counts[kept, None]
        C[live] = means.reshape(live.size, k, dim)
    history = np.array(hist).T if hist else np.empty((restarts, 0))
    return labels, C, history, n_iter
