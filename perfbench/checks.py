"""Output checkers that share no code with the package under test.

Every function here uses numpy and the standard library only, so a fault in
``ssmc`` cannot hide itself by also breaking the reference it is compared
with.  Each checker returns a list of problems; an empty list means the output
passed.
"""

import itertools

import numpy as np


def circular_tprod(a, b):
    """t-product of ``(h, l, d)`` and ``(l, k, d)`` by direct circular convolution.

    ``out[:, :, t] = sum_s a[:, :, s] @ b[:, :, (t - s) mod d]``, with no
    transform, so it is an exact-arithmetic reference for the FFT path.
    """
    h, l, d = a.shape
    k = b.shape[1]
    out = np.zeros((h, k, d))
    for s in range(d):
        out += np.einsum("hl,lkt->hkt", a[:, :, s], np.roll(b, s, axis=2))
    return out


def self_representation_objective(y, w, lambda_g, lambda_h):
    """``||w||_F1 + lambda_h ||w||_FF1 + lambda_g ||y - y * w||_F^2`` computed directly."""
    tube_norms = np.sqrt((w * w).sum(axis=2))
    row_norms = np.sqrt((w * w).sum(axis=(1, 2)))
    resid = y - circular_tprod(y, w)
    return float(tube_norms.sum() + lambda_h * row_norms.sum() + lambda_g * (resid * resid).sum())


def brute_force_error(pred, truth, k):
    """Fraction misclustered under the best of all ``k!`` relabelings of ``pred``."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    best = pred.size
    for perm in itertools.permutations(range(k)):
        best = min(best, int((np.asarray(perm)[pred] != truth).sum()))
    return best / pred.size


def face_singular_values(a):
    """Singular values of every Fourier face of ``a`` (``(h, l, d)``), shape ``(d, min(h, l))``."""
    faces = np.transpose(np.fft.fft(a, axis=2), (2, 0, 1))
    return np.linalg.svd(faces, compute_uv=False)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check_sweep(rows, grid, y, max_iters, exact_labels):
    """Check ``ssmc sweep`` rows; returns ``(problems, failed_rows)``.

    A row fails when it carries ``error_message``, stopped at ``max_iters``
    (sweep rows have no ``converged`` field) or fails a check.  Every row that
    reports an objective must lie strictly between 0 and the objective at
    ``W = 0``, ``lambda_g * ||y||_F^2``; rows at the ``lambda_g`` values in
    ``exact_labels`` must cluster with error 0.
    """
    problems = []
    failed = []
    if [row.get("lambda_g") for row in rows] != list(grid):
        problems.append(f"sweep rows {[row.get('lambda_g') for row in rows]} != grid {grid}")
        return problems, list(grid)
    y_sq = float((y * y).sum())
    for row in rows:
        lam = row["lambda_g"]
        found = []
        if "error_message" in row:
            found.append(f"lambda_g={lam}: error_message {row['error_message']!r}")
        else:
            if not 0.0 < row["objective"] < lam * y_sq:
                found.append(
                    f"lambda_g={lam}: objective {row['objective']} outside (0, {lam * y_sq})"
                )
            if lam in exact_labels and row["clustering_error"] != 0.0:
                found.append(f"lambda_g={lam}: clustering_error {row['clustering_error']}")
        problems += found
        if found or row.get("iterations", 0) >= max_iters:
            failed.append(lam)
    return problems, failed


def check_representation(y, w, objective, lambda_g, lambda_h, affine, rel_tol=1e-9, sum_tol=1e-10):
    """Check a self-representation ``w`` of ``y`` against the program's constraints."""
    problems = []
    n, _, d = w.shape
    diag = w[np.arange(n), np.arange(n), :]
    if np.any(diag != 0.0):
        problems.append(f"diagonal tubes not exactly zero (max {np.abs(diag).max():.3e})")
    if affine:
        e1 = np.zeros(d)
        e1[0] = 1.0
        dev = float(np.abs(w.sum(axis=0) - e1[None, :]).max())
        if dev > sum_tol:
            problems.append(f"column tube-sums differ from e1 by {dev:.3e}")
    direct = self_representation_objective(y, w, lambda_g, lambda_h)
    if _rel(objective, direct) > rel_tol:
        problems.append(f"reported objective {objective!r} vs direct {direct!r}")
    return problems


def check_recovery(report, samples, i, rank_tol=1e-10, rel_tol=1e-8):
    """Check one ``theorem3_check`` report for cluster ``i``.

    ``samples`` is a list of ``(h, m, depth)`` point tensors, one per
    cluster.  ``sigma_max_rest`` is recomputed from the other clusters'
    points and ``sigma_min_best`` from every ``d_i``-column subtensor of
    cluster ``i``, with the same full-rank rule as the checker.
    """
    problems = []
    rest = np.concatenate([p for j, p in enumerate(samples) if j != i], axis=1)
    sigma_max_rest = float(face_singular_values(rest).max())
    points = samples[i]
    best = 0.0
    count = 0
    for idx in itertools.combinations(range(points.shape[1]), report["dim"]):
        count += 1
        s = face_singular_values(points[:, list(idx), :])
        if s.min() > rank_tol * max(s.max(), 1.0):
            best = max(best, float(s.min()))
    if report["subtensors_searched"] != count:
        problems.append(f"searched {report['subtensors_searched']} of {count} subtensors")
    if _rel(report["sigma_max_rest"], sigma_max_rest) > rel_tol:
        problems.append(f"sigma_max_rest {report['sigma_max_rest']!r} vs svd {sigma_max_rest!r}")
    if _rel(report["sigma_min_best"], best) > rel_tol:
        problems.append(f"sigma_min_best {report['sigma_min_best']!r} vs svd {best!r}")
    if report["holds"] != (report["lhs"] < report["rhs"]):
        problems.append(f"holds={report['holds']} but lhs={report['lhs']} rhs={report['rhs']}")
    if not 0.0 <= report["coherence_max"] <= 1.0:
        problems.append(f"coherence_max {report['coherence_max']} outside [0, 1]")
    return problems
