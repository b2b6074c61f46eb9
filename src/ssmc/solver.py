"""Group-sparse self-representation solver and affinity construction.

Solves, over coefficient tensors ``c`` that fit targets ``x`` ``(h, k, d)``
over a dictionary ``y`` ``(h, n, d)``, with some tubes of ``c`` excluded (zero),

    min  ||c||_F1 + lambda_h ||c||_FF1 + lambda_g ||x - y * c||_F^2

(optionally subject to the affine constraint that every column's tube-sum is
the unit tube) by ADMM carried out in the Fourier domain, where the tensor
product splits into independent per-frequency matrix products.  The
self-representation is ``x = y`` with the diagonal excluded;
``theory.min_f1_representation`` is one target, none excluded, ``lambda_g = inf``.

Splitting: one block, ``c = a``.  The ``c`` update is a per-face ridge solve
that takes the fidelity; the ``a`` update is the prox of everything else,
``||a||_F1 + lambda_h ||a||_FF1`` plus the excluded-tube constraint; the dual
``u`` is scaled.  That prox is exact in closed form as the composition
row-shrink after tube-shrink after zeroing the excluded tubes: every tube
group ``(i, j)`` lies inside row group ``i``, and for tree-structured groups
the prox of the sum of group norms is the composition of the group proxes,
leaves first (Jenatton et al. 2011, *Proximal methods for hierarchical sparse
coding*).  Zeroing a tube is the prox of its indicator, a leaf of the same
tree.  ``kernels.scale_tubes`` applies all three in one multiply: the
excluded tubes get a shrink factor of 0 in its ``(n, k)`` factor, so no pass
over the stack zeroes them.

The ridge system ``2 lambda_g Y^H Y + rho I`` is never formed: one thin SVD
``Y = U diag(s) V^H`` per face, taken once per path, gives ``rho`` times its
inverse by the matrix inversion lemma as ``I - V diag(g) V^H`` with
``g = 1 - rho / (2 lambda_g s^2 + rho)``, so every iteration costs two thin
matmuls per face.  Singular values at or below ``pinv``'s cut ``_RCOND s_max``
count as 0, so at ``lambda_g = inf`` ``g`` is 0 or 1 and the apply projects
onto each face's null space.  Their directions have ``g = 0`` at every
``lambda_g`` and ``rho``, so the factors hold only the kept ones, and the
matmuls' inner dimension is the largest numeric rank over the faces.  On data
from a union of free submodules that is ``sum d_i``, not ``min(h, n)``: 8
rather than 28 at 28x40x28 with four 2-dimensional submodules, and 12 (11 plus
the affine column below) rather than 29 at 28x160x28 affine.  Full-rank faces
keep all ``min(h, n)``.  The ``c`` update is that apply ``R`` of
``a - u`` plus ``B0 - R(B0)``, where ``Y B0`` is ``X`` projected on the range
of ``Y`` (``B0 = pinv(Y) X``, or ``I`` when ``X = Y``): it is
``c = R(a - u - B0) + B0 = (a - u) - V (g V^H (a - u) - g V^H B0)``.  So ``B0``
enters only through the small ``(inner, k)`` product ``g V^H B0`` of each
face, which is refreshed whenever ``rho`` or ``lambda_g`` re-weights ``g``,
and the stack sees no pass for it.  The affine
constraint costs one fixed inner column.  Under ``1^T C = 1^T`` the fit
``Y (I - C)`` equals ``Yc (I - C)``, where ``Yc = Y - ybar 1^T`` is the data
less its mean sample, and the rows of ``Yc`` are orthogonal to ``1``.  So
``2 lambda_g Yc^H Yc + rho I`` has ``1`` as an eigenvector, and the
constrained ridge solve is the plain one on ``Yc`` with ``1`` projected out.
The SVD is taken of the centred faces, and the apply gains one fixed inner
column: the left factor is ``[V | 1/sqrt(n)]`` and the right one
``[g V^H ; 1^T/sqrt(n)]``.  That apply keeps every column face-sum of
``R(x - I)`` at 0, so those of ``c`` are 1.  The uncentred faces still define
the objective, which is evaluated once, on the returned coefficients, after
the loop.

Stopping rule (Boyd et al. 2011, *ADMM*, section 3.3), with every norm the
spatial Frobenius norm and ``N = n k d`` the number of coefficients.  Each
iteration takes one pair of scales, ``P = f sqrt(N) + max(||c||, ||a||)`` for
the primal residual ``r = ||c - a||`` and ``D = f sqrt(N) + rho ||u||`` for the
dual residual ``s = rho ||a - a_prev||``, with the fixed floor
``f = _SCALE_FLOOR = 1e-2``.  The solve stops when ``r <= tol_rel P`` and
``s <= tol_rel D``: ``tol_rel`` is the one tolerance, and ``tol_rel f`` plays
the part of Boyd et al.'s absolute tolerance, so a tighter ``tol_rel`` only
ever asks for more.  ``||a||`` and ``||u||`` come from the tube norms that
``kernels.scale_tubes`` takes of ``v = c + u``: the new ``a`` is ``t v`` and
the new ``u`` is ``v - a = (1 - t) v`` tube by tube, with ``t`` the shrink
factor, so their norms need no pass over the stack.  ``r``, ``s`` and ``||c||``
are each one BLAS dot on the flat real view of a stack.

The penalty ``rho`` adapts by residual balancing (Boyd et al. 2011,
section 3.4.1) on the same scales (Wohlberg 2017, *ADMM penalty parameter
selection by residual balancing*).  Once per iteration ``r / P`` and ``s / D``
are compared: when one exceeds the other more than ``_RHO_MU = 10`` times,
``rho`` is multiplied (primal larger) or divided (dual larger) by
``_RHO_TAU = 2``.  No tolerance enters that comparison, so every ``tol_rel``
follows one ``rho`` path, and a tighter one runs a longer prefix of the same
iterate path.  Every path starts at ``rho = 1``, and ``rho`` stays within
``[1e-4, 1e4]``; it is not an option, since the balancing finds it.  After
``_RHO_CHANGES = 30`` changes at one path point ``rho`` stays fixed: ADMM's
convergence holds once ``rho`` stops changing (Boyd et al. 2011,
section 3.4.1), and on small hard problems the balancing can otherwise swap
``rho`` between two values every ten or so iterations, with no progress, for
as long as it runs.  Solves that converge change ``rho`` far fewer times
(at most 11 on the benchmark shapes, even at ``tol_rel = 1e-6``).  A change
of ``rho`` rescales the scaled dual by ``rho_old / rho_new`` and re-weights the
ridge inverse from the stored SVD, with no new factorization.  The first
iteration run with a new ``rho`` is not tested for convergence: its dual
residual measures a step taken under two penalties, and stopping there let a
run end early with a dual residual of 0.

A grid of ``lambda_g`` values is solved as one path (``solve_path``; Friedman,
Hastie & Tibshirani 2010, *Regularization paths for GLMs via coordinate
descent*).  The ridge inverse depends on ``lambda_g`` only through
``2 lambda_g s^2``, so the input checks, the rFFT and the SVD run once per
path, and a new ``lambda_g`` re-weights ``g`` as a new ``rho`` does.  Each
point after the first starts from the previous point's ``a``, ``u`` and
``rho``; ``u`` is kept as it is, since ``rho`` is carried.  The first
iteration after a change of ``lambda_g`` is not tested for convergence either,
for the same reason as after a change of ``rho``: without that rule a warm
start at ``lambda_g = 1e2`` stopped after 1 iteration.  A single solve is the
one-point path.

``y`` enters and ``W`` leaves by ``t_algebra``'s half-spectrum face format, whose
``_face_weights`` ``w_f`` make every norm above equal its spatial-domain
counterpart.  The ADMM state and the finish run in weighted face coordinates
``z_f = sqrt(w_f) x_f``: the ridge apply and the shrinks act face by face or
tube by tube, so they commute with that scaling, and every norm, in the
shrinks, the stopping test and the objective, is a plain unweighted one.
``kernels`` takes no weights.  ``_path`` weights its inputs once, ``B0`` and
the targets, and unweights ``c`` once, right before the inverse rFFT; the
affine rebalance aims each face's column sums at ``sqrt(w_f)``, the unit
tube's weighted faces.

Precision: the ADMM state (``a``, ``u``, the ``x`` and ``c`` buffers and the
ridge factors) runs in complex64 when ``tol_rel >= 1e-5`` and in complex128
otherwise; the loop is bound by memory traffic and by the ridge matmuls, and
both halve in single precision.  The SVD is taken in complex128 and cast once
into the factors, and the finish (zeroing the excluded tubes, the affine
rebalance, the objective and the inverse rFFT) runs on a complex128 copy of
``c``, so ``W`` has an exactly zero diagonal and, under the affine constraint,
column tube-sums within round-off of the unit tube at either precision.

The ``ssmc.solver`` logger, silent unless configured, logs each path point's
precision, the ridge apply's inner dimension, iteration count and
``converged`` at DEBUG, and the residuals and ``rho`` every ``_LOG_EVERY``
iterations.
"""

import logging
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .t_algebra import _as_tensor3, _check_count, _face_weights, _faces, _from_faces, _pow2_scaled

__all__ = [
    "SolverConfig",
    "SolverReport",
    "solve_self_representation",
    "solve_path",
    "affinity_from_tensor",
]

# Residual balancing: the imbalance that triggers a change of rho, the factor
# of each change, the penalty every path starts at, its bounds, and the most
# changes one path point makes (27 cross the bounds once).
_RHO_MU = 10.0
_RHO_TAU = 2.0
_RHO_START = 1.0
_RHO_MIN, _RHO_MAX = 1e-4, 1e4
_RHO_CHANGES = 30

# Singular values at or below this fraction of their face's largest count as 0:
# the ridge's cut, and pinv's rcond for theory's start B0, which must lie in the
# span that the ridge's null-space projector keeps.
_RCOND = 1e-12

# The floor of both residual scales, per sqrt of the coefficient count: it
# keeps the scales away from 0 where the iterate or the dual vanishes.
_SCALE_FLOOR = 1e-2

# The smallest tol_rel that runs the ADMM state in complex64.  float32 round-off
# (eps 1.2e-7, and about sqrt(n) eps on the BLAS sums of n terms) then stays
# two orders below the tolerance, so the stopping test and the residual
# balancing see rounding far finer than what they resolve.  Tighter solves run
# in complex128.
_SINGLE_TOL_REL = 1e-5

_LOG_EVERY = 50  # iterations between DEBUG lines of residuals and rho
_log = logging.getLogger(__name__)

# Peak memory of a solve in complex128 (d // 2 + 1, n, n) arrays, by the dtype
# of the ADMM state, for a path whose caller drops each W before the next.
# complex128 peaks in the loop (a, u, x and c, plus the faces, the ridge
# factors, the folded (inner, n) product g V^H B0 and the (n, n) tube norms
# inside kernels.scale_tubes); complex64 in the complex128 finish (c and W,
# plus the a and u the next point starts from).  tracemalloc, one solve and
# three points: 4.80 and 4.80 (complex128), 2.58 and 3.40 (complex64) at
# 28x160x28 affine; 4.38 and 4.38, 2.28 and 3.15 at 28x320x28; 4.62 and 4.62,
# 2.35 and 2.95 at 8x200x8.
_PEAK_ARRAYS = {np.dtype(np.complex64): 3.5, np.dtype(np.complex128): 5.0}


@dataclass(frozen=True)
class SolverConfig:
    """Solver weights and ADMM controls.

    ``lambda_g`` weighs fidelity, ``lambda_h`` the row group norm,
    ``affine`` switches the affine-submodule constraint on,
    ``normalize_columns`` divides each lateral slice by its Frobenius norm
    before solving (zero slices are left alone).  ``tol_rel`` is the one
    stopping tolerance, on residuals scaled as the module docstring says.
    The ADMM penalty is not an option: it starts at 1 and adapts by residual
    balancing within ``[1e-4, 1e4]``.
    """

    lambda_g: float
    lambda_h: float = 0.0
    affine: bool = False
    max_iters: int = 1000
    tol_rel: float = 1e-4
    normalize_columns: bool = False

    def __post_init__(self):
        for name in ("lambda_g", "lambda_h", "tol_rel"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.lambda_g > 0:
            raise ValueError(f"lambda_g must be positive, got {self.lambda_g}")
        if self.lambda_h < 0:
            raise ValueError(f"lambda_h must be nonnegative, got {self.lambda_h}")
        _check_count("max_iters", self.max_iters)
        if self.tol_rel < 0:
            raise ValueError("tolerances must be nonnegative")


@dataclass
class SolverReport:
    """ADMM run record.

    ``timings`` holds the seconds spent in each stage of the solve, from
    ``time.perf_counter``: ``fft`` (input checks and the depth rFFT),
    ``factor`` (the per-face SVD), ``iterate`` (the ADMM loop) and
    ``finalize`` (the feasible projection, the objective and the inverse
    rFFT).  On the points of a path after the first, which reuse the first
    point's rFFT and SVD, ``fft`` is 0 and ``factor`` is the re-weighting of
    the stored SVD for the new ``lambda_g``.  ``rho_history`` holds the
    penalty in force at each iteration (1 on a path's first iteration, then
    carried from point to point), and ``primal_history`` and ``dual_history``
    the residuals ``r`` and ``s`` of each iteration; each has one entry per
    iteration, so the final residuals are their last entries.
    """

    iterations: int
    objective: float
    converged: bool
    rho_history: list = field(default_factory=list)
    primal_history: list = field(default_factory=list)
    dual_history: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)


def _state_dtype(tol_rel):
    """The dtype of the ADMM state for a relative tolerance ``tol_rel``."""
    return np.complex64 if tol_rel >= _SINGLE_TOL_REL else np.complex128


def _check_memory(n, d, dtype):
    """Refuse a solve whose estimated peak exceeds the machine's physical memory."""
    need = _PEAK_ARRAYS[np.dtype(dtype)] * (d // 2 + 1) * n * n * 16
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(
            f"n={n} samples at depth d={d} need about {need / 1e9:,.1f} GB for the "
            f"solve, more than the {have / 1e9:,.1f} GB of physical memory"
        )


def _check_scale(y, s, lambda_g):
    """Refuse data whose fidelity ``lambda_g ||Y||^2`` or largest ridge weight
    ``2 lambda_g s^2`` overflows at the path's largest ``lambda_g``."""
    fidelity = lambda_g * float(np.vdot(y, y))
    weight = 2.0 * lambda_g * np.max(s, initial=0.0) ** 2
    if not np.isfinite([fidelity, weight]).all():
        raise ValueError(
            f"the input's scale overflows float64 at lambda_g={lambda_g:g}: "
            f"lambda_g ||Y||^2 is {fidelity:g} and 2 lambda_g s_max^2 is {weight:g}"
        )


class _RidgeInverse:
    """Applies ``rho (2 lambda_g Y_f^H Y_f + rho I)^-1`` on every Fourier face.

    ``yf`` is the ``(F, h, n)`` face stack.  With the thin SVD
    ``Y_f = U diag(s) V^H`` (``s <= _RCOND s_max`` taken as 0) this is
    ``x - V (g V^H x)``, where ``g = 1 - rho / (2 lambda_g s^2 + rho)``, 0 or 1
    at ``lambda_g = inf`` (which ``SolverConfig`` refuses); there every kept
    direction weighs ``inf`` with no square of ``s`` taken, so no scale of
    ``Y`` under- or overflows its weight.  A direction cut
    as 0 has ``g = 0`` at every ``lambda_g`` and ``rho``, so the factors hold
    only the kept ones: ``rank`` is the largest numeric rank over the faces,
    and a face of lower rank carries ``g = 0`` rows up to it.  On data drawn
    from a union of free submodules that is ``sum d_i``, far below
    ``min(h, n)``: 8 at 28x40x28 with four 2-dimensional submodules, and 11 on
    the centred faces at 28x160x28 affine, for an ``inner`` of 12.  On
    full-rank faces it is ``min(h, n)``.  With ``affine`` the SVD is that of
    the centred faces ``Y_f - mean(Y_f) 1^T``, whose rows are orthogonal to
    ``1``, and the apply also projects out ``1``: it is one pair of matmuls,
    by ``[V | 1/sqrt(n)]`` on the left and ``[g V^H ; 1^T/sqrt(n)]`` on the
    right, whose fixed last column and row carry weight 1.  So every
    column face-sum of the apply is 0.  ``inner``, the matmuls' inner
    dimension, is ``rank``, plus 1 under ``affine``.  ``set_rho`` re-weights
    ``g`` for a new ``rho`` from the stored SVD, and ``set_lambda_g`` for a new
    ``lambda_g``; a new instance is weighted at ``_RHO_START``, where every
    path starts.

    The SVD, ``s`` and ``g`` stay in complex128 and float64; the two factors
    are held in ``dtype``, the precision of the ADMM state that the apply
    serves (``_state_dtype``), and ``g V^H`` is cast into ``right`` on every
    re-weighting.
    """

    def __init__(self, yf, lambda_g, affine=False, dtype=np.complex128):
        faces, _, n = yf.shape
        if affine:
            yf = yf - yf.mean(axis=2, keepdims=True)
        _, s, vh = np.linalg.svd(yf, full_matrices=False)
        kept = s > _RCOND * s[:, :1]  # the cut of pinv(rcond=_RCOND)
        # s is sorted, so each face's kept values lead it
        self.rank = r = int(kept.sum(axis=1).max())
        self.inner = inner = r + 1 if affine else r
        self.s, self.kept, self.vh = s[:, :r], kept[:, :r], vh[:, :r]
        self.dtype = np.dtype(dtype)
        self.left = np.empty((faces, n, inner), dtype=dtype)  # [V | 1/sqrt(n)]
        self.right = np.empty((faces, inner, n), dtype=dtype)  # [g V^H ; 1^T/sqrt(n)]
        self.left[:, :, :r] = np.conj(np.swapaxes(self.vh, 1, 2))
        self.left[:, :, r:] = self.right[:, r:] = 1.0 / np.sqrt(n)
        self.set_lambda_g(lambda_g, _RHO_START)

    def set_lambda_g(self, lambda_g, rho):
        # at lambda_g = inf a kept direction weighs inf, even where s^2 underflows
        s2 = np.inf if lambda_g == np.inf else 2.0 * lambda_g * self.s**2
        self.s2 = np.where(self.kept, s2, 0.0)
        self.set_rho(rho)

    def set_rho(self, rho):
        g = 1.0 - rho / (self.s2 + rho)  # 1 at s2 = inf, where s2 / (s2 + rho) is nan
        np.multiply(g[:, :, None], self.vh, out=self.right[:, : self.rank])

    def __call__(self, x, out=None, rb0=None):
        """The apply ``x - V (g V^H x)``; with ``rb0``, the right factor's
        product with ``B0``, it is ``R(x - B0) + B0 = x - V (g V^H x - rb0)``."""
        t = self.right @ x
        if rb0 is not None:
            t -= rb0
        out = np.matmul(self.left, t, out=out)
        return np.subtract(x, out, out=out)


def _feasible(c, excluded, sums):
    """Zero the excluded tubes of a face stack and, unless ``sums`` is None,
    rebalance each face's column sums to ``sums`` (one value per face), in place."""
    tubes = (slice(None),) + excluded
    c[tubes] = 0.0
    if sums is not None:
        deficit = sums - c.sum(axis=1, keepdims=True)
        c += deficit / (c.shape[1] - 1)
        c[tubes] = 0.0


def _objective(c, yf, xw, lambda_g, lambda_h):
    """The primal objective of a coefficient stack ``c`` in weighted coordinates,
    for targets ``xw`` in the same coordinates: every norm is a plain one."""
    grp = kernels.tube_sq_norms(c)
    f1 = float(np.sqrt(grp).sum())
    ff1 = float(np.sqrt(grp.sum(axis=1)).sum())
    resid = yf @ c
    np.subtract(xw, resid, out=resid)
    return f1 + lambda_h * ff1 + lambda_g * kernels._sq_norm(resid)


def solve_self_representation(y, cfg):
    """Solve the self-representation program for ``y`` of shape ``(h, n, d)``.

    Returns ``(w, report)``: ``w`` is the ``(n, n, d)`` coefficient tensor
    with exactly zero diagonal tubes (and, under ``cfg.affine``, column
    tube-sums equal to the unit tube), ``report`` the ADMM run record.
    Hitting ``max_iters`` is not an error; it is reported as
    ``converged=False``.  This is the one-point case of ``solve_path``.
    """
    return next(solve_path(y, [cfg]))


def solve_path(y, configs):
    """Solve the program for ``y`` at each of ``configs`` in turn, as one path.

    ``configs`` is a nonempty sequence of ``SolverConfig`` that differ only
    in ``lambda_g``.  The input checks, the memory guard, the rFFT and the SVD
    run once, in this call, and raise ``ValueError`` here, as does an input
    whose scale overflows float64 at the largest ``lambda_g``.  The returned
    generator yields ``(w, report)`` per config, in the given order, as
    ``solve_self_representation`` returns them; each solve after the first
    starts from the previous one's ``a``, ``u`` and ``rho``.  Drop each ``w``
    before asking for the next: the next solve's peak memory does not count it.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one solver config")
    cfg = configs[0]
    if any(replace(other, lambda_g=cfg.lambda_g) != cfg for other in configs):
        raise ValueError("the configs of a path may differ only in lambda_g")
    start = time.perf_counter()
    y = _as_tensor3(y, "input tensor", finite=True)
    h, n, d = y.shape
    if n < 2:
        raise ValueError("need at least two samples")
    if not y.any():
        raise ValueError("input tensor is identically zero")
    dtype = _state_dtype(cfg.tol_rel)
    _check_memory(n, d, dtype)
    if cfg.normalize_columns:
        # exact, and keeps the squares in each column's norm in range
        y = _pow2_scaled(y, axis=(0, 2))
        scale = np.sqrt((y * y).sum(axis=(0, 2)))
        y = y / np.where(scale > 0, scale, 1.0)[None, :, None]
    yf = _faces(y)
    timings = {"fft": time.perf_counter() - start}

    start = time.perf_counter()
    with np.errstate(over="ignore"):  # an overflow is refused by _check_scale
        ridge = _RidgeInverse(yf, cfg.lambda_g, affine=cfg.affine, dtype=dtype)
        _check_scale(y, ridge.s, max(other.lambda_g for other in configs))
    timings["factor"] = time.perf_counter() - start
    return _path(yf, yf, d, ridge, configs, timings, None, (np.arange(n), np.arange(n)))


def _path(yf, xf, d, ridge, configs, timings, b0, excluded):
    """The ADMM loop for the targets ``xf`` over ``yf``, run once per config on
    carried state.  ``B0`` is ``b0``, or the identity when ``b0`` is None; the
    tubes at the ``(rows, cols)`` index arrays ``excluded`` are held at 0.
    ``ridge`` is weighted for the first config's ``lambda_g`` at
    ``_RHO_START``, where every path starts, and its dtype is that of the
    state.  The state and the complex128 finish run in weighted coordinates
    ``sqrt(w_f) x_f``: ``B0`` is weighted for the loop and the targets for the
    objective, and ``c`` is unweighted once, for the inverse rFFT."""
    n, k = yf.shape[2], xf.shape[2]
    root_w = np.sqrt(_face_weights(d))[:, None, None]
    shape = (root_w.shape[0], n, k)
    dtype = ridge.dtype
    a = np.zeros(shape, dtype=dtype)
    u = np.zeros(shape, dtype=dtype)
    rho = _RHO_START
    floor = _SCALE_FLOOR * math.sqrt(n * k * d)

    def folded():
        """The right factor's product with ``B0`` in weighted coordinates, for
        the ridge's current weights."""
        rb0 = ridge.right * root_w if b0 is None else ridge.right @ (root_w * b0)
        return rb0.astype(dtype, copy=False)

    for point, cfg in enumerate(configs):
        lam_g, lam_h = cfg.lambda_g, cfg.lambda_h
        if point:
            start = time.perf_counter()
            ridge.set_lambda_g(lam_g, rho)
            timings = {"fft": 0.0, "factor": time.perf_counter() - start}

        start = time.perf_counter()
        rb0 = folded()
        x = np.empty(shape, dtype=dtype)
        c = np.empty(shape, dtype=dtype)
        rho_history = []
        primal_history = []
        dual_history = []
        # the first step after a change of lambda_g or rho is not tested: its
        # dual residual measures a step taken under two programs
        changed = point > 0
        changes = 0
        converged = False
        for iterations in range(1, cfg.max_iters + 1):
            rho_history.append(rho)
            # c = rho (2 lam_g Y^H Y + rho I)^-1 (a - u - B0) + B0
            np.subtract(a, u, out=x)
            ridge(x, out=c, rb0=rb0)

            np.add(c, u, out=x)  # shrunk in place into the new a
            # ||a|| and ||u|| for the new a and u = (c + u) - a, from the tube norms
            a_norm2, u_norm2 = kernels.scale_tubes(x, 1.0 / rho, lam_h / rho, excluded)
            np.subtract(a, x, out=a)  # the old a's buffer takes the step, then c - a
            s_norm = rho * math.sqrt(kernels._sq_norm(a))
            a, x = x, a
            np.subtract(c, a, out=x)
            u += x
            r_norm = math.sqrt(kernels._sq_norm(x))
            primal_history.append(r_norm)
            dual_history.append(s_norm)

            pri = floor + math.sqrt(max(kernels._sq_norm(c), a_norm2))
            dual = floor + rho * math.sqrt(u_norm2)
            if iterations % _LOG_EVERY == 0:
                _log.debug("iteration %d: r %.3e, s %.3e, rho %g", iterations, r_norm, s_norm, rho)
            if not changed and r_norm <= cfg.tol_rel * pri and s_norm <= cfg.tol_rel * dual:
                converged = True
                break

            # residual balancing of r / pri against s / dual, cross-multiplied
            new_rho = rho
            if changes < _RHO_CHANGES and r_norm * dual > _RHO_MU * s_norm * pri:
                new_rho = min(rho * _RHO_TAU, _RHO_MAX)
            elif changes < _RHO_CHANGES and s_norm * pri > _RHO_MU * r_norm * dual:
                new_rho = max(rho / _RHO_TAU, _RHO_MIN)
            changed = new_rho != rho
            if changed:
                changes += 1
                u *= rho / new_rho
                rho = new_rho
                ridge.set_rho(rho)
                rb0 = folded()
        timings["iterate"] = time.perf_counter() - start
        _log.debug(
            "point %d, lambda_g %g: %s, inner dimension %d, %d iterations, converged %s",
            point, lam_g, dtype.name, ridge.inner, iterations, converged,
        )  # fmt: skip
        del x, rb0  # the finish's complex128 copy of c and W need their room
        if point == len(configs) - 1:
            del a, u  # no later point starts from them

        start = time.perf_counter()
        c = c.astype(np.complex128, copy=False)  # the finish runs in complex128
        _feasible(c, excluded, root_w if cfg.affine else None)
        objective = _objective(c, yf, root_w * xf, lam_g, lam_h)
        c /= root_w  # out of weighted coordinates; c is not used again
        w = _from_faces(c, d)
        del c
        timings["finalize"] = time.perf_counter() - start
        yield w, SolverReport(
            iterations=iterations,
            objective=objective,
            converged=converged,
            rho_history=rho_history,
            primal_history=primal_history,
            dual_history=dual_history,
            timings=timings,
        )
        del w  # hold no W while the next point is solved


def affinity_from_tensor(w):
    """Collapse a coefficient tensor to the symmetric affinity matrix.

    ``m[i, j] = ||w(j, i, :)||_F + ||w(i, j, :)||_F`` with a forced zero
    diagonal.
    """
    w = _as_tensor3(w, "coefficient tensor")
    if w.shape[0] != w.shape[1]:
        raise ValueError(f"coefficient tensor must be square, got {w.shape}")
    tube_norms = np.sqrt(np.einsum("ijk,ijk->ij", w, w))
    m = tube_norms + tube_norms.T
    np.fill_diagonal(m, 0.0)
    return m
