"""Computable checkers for the clustering guarantees.

The guarantees concern unions of free submodules: sets of oriented matrices
closed under tube-coefficient combinations.  This module tests whether a
slice collection generates a submodule, estimates the angular coherence
between two sampled submodules from random combinations of each side's
generators (drawn and scored a block of trials at a time), evaluates the
sufficient recovery condition that compares coherence against
block-circulant singular values, and, on the solver's ADMM loop, finds
minimum-F1-norm representations over a dictionary.
"""

import itertools
import math
import time
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

# RANK_TOL is re-exported: theory.RANK_TOL names the rank rule's tolerance
from .solver import RANK_TOL, SolverConfig, _nonzero, _path, _RidgeInverse
from .t_algebra import (
    _as_tensor3,
    _check_count,
    _faces,
    _rescaled,
    _tube_cos,
    bcirc_singular_values,
    norm_f1,
    norm_fro,
    tprod,
)

__all__ = [
    "SubmoduleSample",
    "TheoremReport",
    "is_generating_set",
    "coherence",
    "theorem3_check",
    "min_f1_representation",
]

SUBTENSOR_BUDGET = 200
# combination entries (trials x h x depth) that coherence scores at once:
# about 10 MB of working arrays at any image size
_BLOCK_ENTRIES = 2**18
# min_f1_representation's loop: the ridge holds lambda_g = inf, so lambda_g
# here weighs only the path's own objective, which the caller's replaces
_MIN_F1 = SolverConfig(lambda_g=1.0, max_iters=100000, tol_rel=1e-12)


def _as_generators(y, finite=False):
    """``y`` as an ``(h, d, depth)`` generator stack with ``1 <= d <= h``."""
    y = _as_tensor3(y, "generators", finite=finite)
    h, d, _ = y.shape
    if d < 1:
        raise ValueError(f"generators {y.shape} hold no lateral slice")
    if d > h:
        raise ValueError(f"submodular dimension {d} exceeds height {h}")
    return y


@dataclass
class SubmoduleSample:
    """A sampled submodule: its generators and points drawn from it.

    ``generators`` is ``(h, d, depth)`` with submodular dimension ``d``;
    ``points`` is ``(h, m, depth)``.  ``affine_offset``, when present, is the
    ``(h, 1, depth)`` translation that was added to every point.  Non-finite
    values, points or an offset of another height or depth than the
    generators, no generators, and more generators than rows raise
    ``ValueError``.
    """

    generators: np.ndarray
    points: np.ndarray
    affine_offset: Optional[np.ndarray] = None

    def __post_init__(self):
        self.generators = _as_generators(self.generators, finite=True)
        self.points = _as_tensor3(self.points, "points", finite=True)
        h, _, depth = self.generators.shape
        if self.points.shape[::2] != (h, depth):
            raise ValueError(f"points {self.points.shape} do not match ({h}, m, {depth})")
        if self.affine_offset is not None:
            self.affine_offset = _as_tensor3(self.affine_offset, "affine_offset", finite=True)
            if self.affine_offset.shape != (h, 1, depth):
                raise ValueError(f"affine_offset {self.affine_offset.shape} != ({h}, 1, {depth})")

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
    exhaustive: bool  # whether every d_i-column subtensor was searched
    rank_deficient: bool = False


def is_generating_set(y):
    """True iff the ``(h, d, depth)`` slices generate a ``d``-dim submodule.

    Holds exactly when no Fourier face of ``y`` has a zero singular value;
    numerically, every singular value must be nonzero by the package's one
    rank rule, ``solver._nonzero``, which the ridge and the min-F1 start also
    apply: it must exceed ``RANK_TOL = 1e-10`` times the largest over all
    faces (conjugate faces are twins).  The rule is global, not per face,
    since each face's round-off is relative to the whole tensor's norm, and it
    has no absolute floor, so scaling ``y`` does not change the verdict.  No
    generators, or more generators than rows, raise ``ValueError``.
    """
    y = _as_generators(y)
    return bool(_nonzero(np.linalg.svd(_faces(y), compute_uv=False)).all())


def coherence(si, sj, trials, seed):
    """Monte-Carlo lower bound on the angular coherence of two submodules.

    Draws ``trials`` pairs of random scalar combinations of each side's
    generators and returns the largest Frobenius norm of their tube-valued
    angle cosine, which divides by both combinations' norms.  It is a tube
    norm, not a scalar cosine: it lies in ``[0, sqrt(depth)]`` and reaches
    ``sqrt(depth)`` for parallel depth-constant generators.  The trials are
    drawn from one seeded stream and scored in blocks of about ``2**18``
    combination entries (trials x h x depth); a trial's value does not
    depend on its block, so the estimate is non-decreasing in ``trials`` for
    a fixed seed.  This samples scalar combinations only, so it is a lower
    bound on the supremum over the full submodules, and is reported as such.
    The estimate does not depend on the generators' scale: ``_tube_cos``
    divides each combination by a power of two, which is exact.  ``ValueError``
    is raised for generators of another height or depth than the other
    side's, and for a zero combination, which only all-zero generators
    produce.
    """
    _check_count("trials", trials)
    gi, gj = si.generators, sj.generators
    h, d_i, depth = gi.shape
    block = max(1, _BLOCK_ENTRIES // (h * depth))
    rng = np.random.default_rng(seed)
    best = 0.0
    for start in range(0, trials, block):
        a = rng.standard_normal((min(block, trials - start), 1, 1, d_i + gj.shape[1]))
        # one vector-matrix product per trial and row: like the cosine's sums,
        # none spans trials, so no value depends on the block
        tubes = _tube_cos(a[..., :d_i] @ gi, a[..., d_i:] @ gj, "combination of generators")
        best = max(best, float(np.linalg.norm(tubes, axis=-1).max()))
    return best


def _linear_points(sample):
    """A sample's points less its affine offset: points of its linear submodule."""
    if sample.affine_offset is None:
        return sample.points
    return sample.points - sample.affine_offset


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
    when there are at most ``subtensor_budget`` candidates and otherwise
    over ``subtensor_budget`` distinct ones drawn by seeded sampling.  A
    sample's ``affine_offset``, when present, is first subtracted from its
    points, so that the coherence (taken of the generators), the subtensor
    search and ``sigma_max_rest`` all describe the same linear submodules.
    The points take one rFFT, and each candidate one SVD of its columns of those
    faces.  A candidate is full rank by ``is_generating_set``'s rule,
    ``solver._nonzero``: its smallest singular value over all faces exceeds
    ``RANK_TOL`` times its largest over all faces, global because each face's
    round-off is relative to the whole tensor's norm, and with no absolute
    floor, so scaling the points scales ``rhs`` and changes no verdict.
    ``holds`` means ``lhs < rhs``.  When no full-rank subtensor exists the
    report carries ``rhs = 0``, ``holds = False`` and
    ``rank_deficient = True``.  ``ValueError`` is raised for empty ``data``,
    an ``i`` outside it, a ``subtensor_budget`` or ``coherence_trials`` that
    is not an integer of at least 1, and a cluster ``i`` with no points or
    fewer points than its submodular dimension.
    """
    if not data:
        raise ValueError("need at least one submodule sample")
    if not 0 <= i < len(data):
        raise ValueError(f"cluster index {i} outside 0..{len(data) - 1}")
    _check_count("subtensor_budget", subtensor_budget)
    _check_count("coherence_trials", coherence_trials)
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

    rest = [_linear_points(sj) for j, sj in enumerate(data) if j != i]
    if rest:
        sigma_max_rest = float(bcirc_singular_values(np.concatenate(rest, axis=1))[0])
    else:
        sigma_max_rest = 0.0
    lhs = math.sqrt(d_i) * coherence_max * sigma_max_rest

    exhaustive = math.comb(m_i, d_i) <= subtensor_budget
    if exhaustive:
        subsets = itertools.combinations(range(m_i), d_i)
    else:
        rng = np.random.default_rng([seed, len(data)])
        subsets = {}  # distinct sorted draws, in the order first drawn
        while len(subsets) < subtensor_budget:  # ends: there are more than budget subsets
            subsets[tuple(np.sort(rng.choice(m_i, size=d_i, replace=False)))] = None
    faces = _faces(_linear_points(si))
    spectra = [np.linalg.svd(faces[:, :, list(idx)], compute_uv=False) for idx in subsets]
    full_rank = [float(s[:, -1].min()) for s in spectra if _nonzero(s).all()]
    rhs = max(full_rank, default=0.0)
    return TheoremReport(
        lhs=lhs,
        rhs=rhs,
        holds=lhs < rhs,
        coherence_max=coherence_max,
        sigma_max_rest=sigma_max_rest,
        sigma_min_best=rhs,
        subtensors_searched=len(spectra),
        exhaustive=exhaustive,
        rank_deficient=not full_rank,
    )


def min_f1_representation(dictionary, x):
    """Minimize ``||a||_F1`` subject to ``dictionary * a = x``.

    ``dictionary`` is ``(h, m, depth)``, ``x`` an ``(h, 1, depth)`` oriented
    matrix; returns ``(a, report)``, the ``(m, 1, depth)`` coefficient tensor
    and its ``SolverReport``.  Non-finite input raises ``ValueError``.  The
    dictionary's faces take one SVD, which serves both the start and the
    loop.  The start ``B0`` is ``pinv(dictionary) x`` face by face over the
    directions that the package's one rank rule (``solver._nonzero``) keeps,
    the same ones the loop's null-space projector keeps, so a face at
    round-off relative to the whole dictionary adds nothing to ``B0``.  The
    same rule decides span membership: ``x`` is refused with ``ValueError``
    ('not in generated submodule') when the residual off those directions,
    ``||x_f - Y_f B0||`` over all faces, exceeds ``RANK_TOL`` times ``||x_f||``
    over all faces.  Both norms are taken exactly at any scale, so scaling the
    dictionary or the target changes no verdict.  The program is homogeneous
    in ``x``, so it is solved for ``x / ||B0||`` and ``a`` is scaled back,
    where ``||B0||`` is the largest modulus of its face entries, which neither
    overflows nor underflows (a zero ``B0`` is left as it is).  The solver's
    loop runs at ``lambda_g = inf`` from ``B0 / ||B0||``, on that already
    normalized program, under the module's one ``_MIN_F1`` config
    (``tol_rel = 1e-12``, at most 100000 iterations), so neither the target's
    nor the dictionary's scale changes the iterations: from 1e-300 to 1e300
    they are those of scale 1.  The residual histories are those of the
    normalized program; ``report.objective`` is
    ``||a||_F1 + ||x - dictionary * a||_F^2`` of the returned ``a``, in the
    caller's units, each norm exact at any scale.  Stopping at ``max_iters``
    first is not an error: the last iterate is returned and a
    ``RuntimeWarning`` says so.
    """
    dictionary = _as_tensor3(dictionary, "dictionary", finite=True)
    x = _as_tensor3(x, "target", finite=True)
    h, _, depth = dictionary.shape
    if x.shape != (h, 1, depth):
        raise ValueError(f"target shape {x.shape} does not match ({h}, 1, {depth})")

    start = time.perf_counter()
    yf, xf = _faces(dictionary), _faces(x)  # (F, h, m), (F, h, 1)
    timings = {"fft": time.perf_counter() - start}
    start = time.perf_counter()
    ridge = _RidgeInverse(yf, np.inf)
    a0 = ridge.lstsq(xf)  # (F, m, 1)
    off_span, norm_x = (_rescaled(np.linalg.norm, f.view(np.float64)) for f in (xf - yf @ a0, xf))
    if off_span > RANK_TOL * norm_x:
        raise ValueError("not in generated submodule")
    # the program is homogeneous: solve it for x / ||B0||, then scale a back.
    # Any norm of degree 1 serves; the largest modulus has no squares to overflow
    scale = float(np.abs(a0).max()) or 1.0  # a zero B0 stays as it is
    timings["factor"] = time.perf_counter() - start
    path = _path(yf, xf / scale, depth, ridge, [_MIN_F1], timings, a0 / scale, ([], []))
    a, report = next(path)
    a *= scale
    resid = norm_fro(x - tprod(dictionary, a))
    report.objective = norm_f1(a) + resid * resid
    if not report.converged:
        warnings.warn(
            f"min_f1_representation stopped at max_iters={_MIN_F1.max_iters} without converging",
            RuntimeWarning,
            stacklevel=2,
        )
    return a, report
