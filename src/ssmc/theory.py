"""Computable checkers for the clustering guarantees.

The guarantees concern unions of free submodules: sets of oriented matrices
closed under tube-coefficient combinations.  This module tests whether a
slice collection generates a submodule, estimates the angular coherence
between two sampled submodules, evaluates the sufficient recovery condition
that compares coherence against block-circulant singular values, and finds
minimum-F1-norm representations of a target against a dictionary.
"""

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .t_algebra import (
    _as_tensor3,
    _face_weights,
    _faces,
    _from_faces,
    bcirc_singular_values,
    norm_fro,
    tubal_angle_cos,
)

__all__ = [
    "SubmoduleSample",
    "TheoremReport",
    "is_generating_set",
    "coherence",
    "theorem3_check",
    "min_f1_representation",
]

RANK_TOL = 1e-10
SUBTENSOR_BUDGET = 200


@dataclass
class SubmoduleSample:
    """A sampled submodule: its generators and points drawn from it.

    ``generators`` is ``(h, d, depth)`` with submodular dimension ``d``;
    ``points`` is ``(h, m, depth)``.  ``affine_offset``, when present, is the
    ``(h, 1, depth)`` translation that was added to every point.
    """

    generators: np.ndarray
    points: np.ndarray
    affine_offset: Optional[np.ndarray] = None

    def __post_init__(self):
        self.generators = _as_tensor3(self.generators, "generators")
        self.points = _as_tensor3(self.points, "points")
        if self.generators.shape[1] > self.generators.shape[0]:
            raise ValueError(
                f"submodular dimension {self.generators.shape[1]} exceeds "
                f"height {self.generators.shape[0]}"
            )
        if self.affine_offset is not None:
            self.affine_offset = _as_tensor3(self.affine_offset, "affine_offset")

    @property
    def dim(self):
        return self.generators.shape[1]


@dataclass
class TheoremReport:
    """Outcome of the sufficient-condition check for one cluster."""

    lhs: float
    rhs: float
    holds: bool
    coherence_max: float
    sigma_max_rest: float
    sigma_min_best: float
    subtensors_searched: int
    rank_deficient: bool = False


def is_generating_set(y):
    """True iff the ``(h, d, depth)`` slices generate a ``d``-dim submodule.

    Holds exactly when no Fourier face of ``y`` has a zero singular value;
    numerically, every face must satisfy
    ``sigma_min > 1e-10 * max(sigma_max, 1)`` (conjugate faces are twins).
    """
    y = _as_tensor3(y, "generators")
    h, d, _ = y.shape
    if d > h:
        raise ValueError(f"more generators ({d}) than rows ({h})")
    s = np.linalg.svd(_faces(y), compute_uv=False)
    return bool((s[:, -1] > RANK_TOL * np.maximum(s[:, 0], 1.0)).all())


def _unit_combination(gens, rng):
    """A random unit-Frobenius-norm scalar combination of generators."""
    h, d, depth = gens.shape
    for _ in range(100):
        alpha = rng.standard_normal(d)
        v = np.tensordot(gens, alpha, axes=(1, 0))  # (h, depth)
        nrm = float(np.linalg.norm(v.ravel()))
        if nrm > 1e-12:
            return (v / nrm)[:, None, :]
    raise RuntimeError("failed to draw a nonzero combination after 100 attempts")


def coherence(si, sj, trials, seed):
    """Monte-Carlo lower bound on the angular coherence of two submodules.

    Draws ``trials`` pairs of random unit-norm combinations of each side's
    generators and returns the largest Frobenius norm of their tube-valued
    angle cosine.  Sequential draws from one seeded stream make the estimate
    non-decreasing in ``trials`` for a fixed seed.  This samples scalar
    combinations only, so it is a lower bound on the supremum over the full
    submodules, and is reported as such.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        vi = _unit_combination(si.generators, rng)
        vj = _unit_combination(sj.generators, rng)
        tube = tubal_angle_cos(vi, vj)
        best = max(best, float(np.linalg.norm(tube)))
    return best


def _subtensor_indices(m, d, budget, rng):
    count = math.comb(m, d)
    if count <= budget:
        yield from itertools.combinations(range(m), d)
    else:
        for _ in range(budget):
            yield tuple(np.sort(rng.choice(m, size=d, replace=False)))


def theorem3_check(
    data,
    i,
    subtensor_budget=SUBTENSOR_BUDGET,
    seed=0,
    coherence_trials=64,
):
    """Check the sufficient recovery condition for cluster ``i``.

    lhs = sqrt(d_i) * max coherence against the other clusters * largest
    singular value of the block-circulant of all other clusters' points;
    rhs = the largest minimum-singular-value over full-rank ``(h, d_i,
    depth)`` subtensors of cluster ``i``'s points, searched exhaustively
    when there are at most ``subtensor_budget`` candidates and by seeded
    sampling otherwise.  ``holds`` means ``lhs < rhs``.  When no full-rank
    subtensor exists the report carries ``rhs = 0``, ``holds = False`` and
    ``rank_deficient = True``.  ``ValueError`` is raised for empty ``data``,
    an ``i`` outside it, a ``subtensor_budget`` or ``coherence_trials``
    below 1, and a cluster ``i`` with no points or fewer points than its
    submodular dimension.
    """
    if not data:
        raise ValueError("need at least one submodule sample")
    if not 0 <= i < len(data):
        raise ValueError(f"cluster index {i} outside 0..{len(data) - 1}")
    if subtensor_budget < 1:
        raise ValueError(f"subtensor_budget must be at least 1, got {subtensor_budget}")
    if coherence_trials < 1:
        raise ValueError(f"coherence_trials must be at least 1, got {coherence_trials}")
    si = data[i]
    d_i = si.dim
    m_i = si.points.shape[1]
    if m_i < 1:
        raise ValueError("cluster has no points")
    if d_i > m_i:
        raise ValueError(f"submodular dimension {d_i} exceeds point count {m_i}")

    coherence_max = 0.0
    for j, sj in enumerate(data):
        if j == i:
            continue
        coherence_max = max(coherence_max, coherence(si, sj, coherence_trials, [seed, j]))

    rest = [sj.points for j, sj in enumerate(data) if j != i]
    if rest:
        sigma_max_rest = float(bcirc_singular_values(np.concatenate(rest, axis=1))[0])
    else:
        sigma_max_rest = 0.0
    lhs = math.sqrt(d_i) * coherence_max * sigma_max_rest

    rng = np.random.default_rng([seed, len(data)])
    rhs = 0.0
    searched = 0
    found_full_rank = False
    for idx in _subtensor_indices(m_i, d_i, subtensor_budget, rng):
        searched += 1
        vals = bcirc_singular_values(si.points[:, list(idx), :])
        if vals[-1] > RANK_TOL * max(vals[0], 1.0):
            found_full_rank = True
            rhs = max(rhs, float(vals[-1]))
    return TheoremReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs < rhs,
        coherence_max=coherence_max,
        sigma_max_rest=sigma_max_rest,
        sigma_min_best=rhs,
        subtensors_searched=searched,
        rank_deficient=not found_full_rank,
    )


def min_f1_representation(dictionary, x, tol, max_iters=100000):
    """Minimize ``||a||_F1`` subject to ``dictionary * a = x``.

    ``dictionary`` is ``(h, m, depth)``, ``x`` an ``(h, 1, depth)`` oriented
    matrix; returns the ``(m, 1, depth)`` coefficient tensor.  Feasibility is
    prechecked per Fourier face by least squares; a residual above ``tol``
    raises ``ValueError('not in generated submodule')``.  The minimization
    runs ADMM alternating exact projection onto the per-face constraint sets
    with tube group shrinkage, until both residuals fall below ``1e-12``
    times the larger of 1 and the norm of the least-squares start.  Stopping
    at ``max_iters`` before that is not an error: the last iterate is
    returned and a ``RuntimeWarning`` says so.
    """
    dictionary = _as_tensor3(dictionary, "dictionary")
    x = _as_tensor3(x, "target")
    h, m, depth = dictionary.shape
    if x.shape != (h, 1, depth):
        raise ValueError(f"target shape {x.shape} does not match ({h}, 1, {depth})")

    yf = _faces(dictionary)  # (F, h, m)
    xf = _faces(x)  # (F, h, 1)
    pinv = np.linalg.pinv(yf, rcond=1e-12)
    a0 = pinv @ xf  # (F, m, 1)
    if float(np.linalg.norm(xf - yf @ a0, axis=(1, 2)).max()) > tol:
        raise ValueError("not in generated submodule")

    # projector onto the solution set of each face's constraint
    proj = np.eye(m) - pinv @ yf

    w = _face_weights(depth)
    rho = 1.0
    a = a0.copy()
    z = np.zeros_like(a)
    u = np.zeros_like(a)
    scale = max(1.0, float(np.sqrt(kernels.weighted_sq_norms(a0, w, total=True))))
    for _ in range(max_iters):
        a = proj @ (z - u) + a0
        z_new = kernels.scale_tubes(a + u, w, 1.0 / rho)[0]
        u += a - z_new
        r = np.sqrt(kernels.weighted_sq_norms(a - z_new, w, total=True))
        s = rho * np.sqrt(kernels.weighted_sq_norms(z_new - z, w, total=True))
        z = z_new
        if r <= 1e-12 * scale and s <= 1e-12 * scale:
            break
    else:
        warnings.warn(
            f"min_f1_representation stopped at max_iters={max_iters} without converging",
            RuntimeWarning,
            stacklevel=2,
        )
    return _from_faces(a, depth)
