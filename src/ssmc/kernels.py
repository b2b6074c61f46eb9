"""Hot numeric kernels of the solver and of k-means.

Dense Fourier-face stacks are laid out ``(F, n, m)`` with the face index
first, so per-face work hits contiguous memory.
"""

import numpy as np


# Group norms are spatial, sqrt(sum_f w_f |.|^2) with w = t_algebra._face_weights(d).

# Real entries squared per block in the per-entry mode of weighted_sq_norms, so
# its temporary is a cache-sized (F, _BLOCK) array rather than a whole stack.
_BLOCK = 8192


def weighted_sq_norms(x, w, total=False):
    """Weighted squared moduli ``sum_f w_f |x[f, ...]|^2`` of a face stack.

    Returns one value per entry, shape ``x.shape[1:]``, or with ``total`` their
    sum ``sum_f w_f ||x[f]||_F^2`` as a float.  Both reduce over the faces with
    BLAS on a real view in the input's precision (float32 for complex64,
    float64 otherwise), without real/imaginary temporaries; ``total`` sums the
    per-face squared norms in float64.  Only a non-contiguous stack (a
    transposed view, say) is copied first.
    """
    x = np.asarray(x)
    x = np.ascontiguousarray(x, dtype=np.result_type(x.dtype, np.complex64))
    real = x.real.dtype
    xr = x.view(real).reshape(x.shape[0], -1)  # re, im alternate
    if total:
        rows = xr[:, None, :]
        return float(w @ (rows @ rows.transpose(0, 2, 1)).ravel().astype(np.float64))
    w = w.astype(real)
    blocks = range(0, xr.shape[1], _BLOCK)
    t = np.concatenate([w @ np.square(xr[:, i : i + _BLOCK]) for i in blocks])
    return (t[0::2] + t[1::2]).reshape(x.shape[1:])


def _shrink_factor(nrm, tau):
    """``max(0, 1 - tau / nrm)``, with 0 at ``nrm = 0`` (where ``fmax`` drops the nan of 0/0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.fmax(1.0 - tau / nrm, 0.0)


def scale_tubes(V, w, tau, row_tau=0.0):
    """Shrink each tube (fixed ``(i, j)``, all faces), then each row, of a face stack.

    Applies ``v <- max(0, 1 - tau / ||v||) v`` per tube, with the tube norm
    taken in the spatial scaling.  ``tau = 0`` keeps nonzero tubes unchanged.
    With ``row_tau > 0`` the tube-shrunk result is then shrunk per horizontal
    slice (fixed ``i``, all faces and columns) by ``row_tau``.  Tubes nest in
    rows, so the composition is the exact prox of ``tau sum ||v_ij|| + row_tau
    sum ||v_i||`` (Jenatton et al. 2011).  The row norms come from the shrunk
    tube norms, ``||t_ij v_ij|| = t_ij ||v_ij||``, so ``V`` is read once for
    the norms and once for the single multiply.

    Returns ``(out, out_norms)``: the shrunk stack and the spatial tube norms
    of ``out``, ``t_ij ||v_ij||`` with ``t_ij`` the combined shrink factor, so
    ``sum out_norms**2`` is the squared spatial Frobenius norm of ``out``
    without another pass over the stack.
    """
    nrm = np.sqrt(weighted_sq_norms(V, w))
    factor = _shrink_factor(nrm, tau)
    if row_tau > 0:
        shrunk = factor * nrm
        rows = np.sqrt(np.einsum("ij,ij->i", shrunk, shrunk))
        factor *= _shrink_factor(rows, row_tau)[:, None]
    return V * factor, factor * nrm


def lloyd(X, C0, max_iter):
    """Run Lloyd iterations from initial centroids ``C0``.

    Returns ``(labels, centroids, inertia_history, n_iter)``.  Nearest-centroid
    ties break toward the lowest centroid index, the inertia history is
    recorded right after each assignment step (so it is non-increasing), and
    a cluster that loses all its points keeps its previous centroid.
    Iteration stops when assignments repeat or ``max_iter`` is reached.
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
