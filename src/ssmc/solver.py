"""Group-sparse self-representation solver and affinity construction.

Solves, over coefficient tensors ``c`` that fit targets ``x`` ``(h, k, d)``
over a dictionary ``y`` ``(h, n, d)``, with some tubes of ``c`` excluded (zero),

    min  ||c||_F1 + lambda_h ||c||_FF1 + lambda_g ||x - y * c||_F^2

(optionally subject to the affine constraint that every column's tube-sum is
the unit tube) by ADMM carried out in the Fourier domain, where the tensor
product splits into independent per-frequency matrix products.  The
self-representation is ``x = y`` with the diagonal excluded;
``theory.min_f1_representation`` is one target, none excluded, ``lambda_g = inf``.
Both enter through ``_fit``, the one entry point for targets over a dictionary,
which takes the path's ``lambda_g`` values as a list of weights: ``inf`` is
one more value on it, which ``SolverConfig`` does not take.

Splitting: one block, ``c = a``.  The ``c`` update is a per-face ridge solve
that takes the fidelity; the ``a`` update is the prox of everything else,
``||a||_F1 + lambda_h ||a||_FF1`` plus the excluded-tube constraint; the dual
``u`` is scaled.  That prox is exact in closed form as the composition
row-shrink after tube-shrink after zeroing the excluded tubes: every tube
group ``(i, j)`` lies inside row group ``i``, and for tree-structured groups
the prox of the sum of group norms is the composition of the group proxes,
leaves first (Jenatton et al. 2011, *Proximal methods for hierarchical sparse
coding*).  Zeroing a tube is the prox of its indicator, a leaf of the same
tree.  ``kernels.scale_tubes`` applies all three with one ``(n, k)``
factor: the excluded tubes get a shrink factor of 0 in it, so no pass over
the stack zeroes them.

The ridge system ``2 lambda_g Y^H Y + rho I`` is never formed: one thin SVD
``Y = U diag(s) V^H`` per face, taken once per path, gives ``rho`` times its
inverse by the matrix inversion lemma as ``I - V diag(g) V^H`` with
``g = 1 - rho / (2 lambda_g s^2 + rho)``, so every iteration costs two thin
matmuls per face.  Singular values at or below ``RANK_TOL = 1e-10`` times the
largest over all faces count as 0 (``_nonzero``, the package's one rank rule),
so at ``lambda_g = inf`` ``g`` is 0 or 1 and the apply projects onto each
face's null space.  Their directions have ``g = 0`` at every ``lambda_g``
and ``rho``, so the factors hold only the kept ones, and the matmuls' inner
dimension is the largest numeric rank over the faces.  On data
from a union of free submodules that is ``sum d_i``, not ``min(h, n)``: 8
rather than 28 at 28x40x28 with four 2-dimensional submodules, and 12 (11 plus
the affine column below) rather than 29 at 28x160x28 affine.  Full-rank faces
keep all ``min(h, n)``.  The ``c`` update is that apply ``R`` of
``a - u`` plus ``B0 - R(B0)``, where ``Y B0`` is ``X`` projected on the range
of ``Y`` (``B0 = pinv(Y) X`` over the kept directions, from the same SVD, or
``I`` when ``X = Y``): it is ``c = R(a - u - B0) + B0 = (a - u) - L w`` with
``w = g (L^H a - L^H u - L^H B0)``, where ``L`` is ``V`` (and the affine
column below).  Its nonzero columns are orthonormal, so the loop never forms
``a - u`` or ``c``: it carries the small ``(inner, k)`` products ``L^H a``
and ``L^H u`` of each face next to the state, and ``L^H B0`` is taken once
per path.  The shrink's input ``v = c + u = a - L w`` is one matmul and one
in-place subtract, the shrink splits ``v`` into the new ``a' = t v`` and the
new ``u' = (1 - t) v = u + c - a'``, and the new ``L^H u'`` is
``L^H a - w - L^H a'``, with ``L^H a'`` the iteration's second matmul
(``_step``).  No pass over the stack allocates a stack.  The affine
constraint costs one fixed inner column.  Under ``1^T C = 1^T`` the fit
``Y (I - C)`` equals ``Yc (I - C)``, where ``Yc = Y - ybar 1^T`` is the data
less its mean sample, and the rows of ``Yc`` are orthogonal to ``1``.  So
``2 lambda_g Yc^H Yc + rho I`` has ``1`` as an eigenvector, and the
constrained ridge solve is the plain one on ``Yc`` with ``1`` projected out.
The SVD is taken of the centred faces, and the apply gains one fixed inner
column of weight 1: ``L = [V | 1/sqrt(n)]``.  That apply keeps every column
face-sum of ``R(x - I)`` at 0, so those of ``c`` are 1.  The uncentred faces
still define the objective, which is evaluated once, on the returned
coefficients, after the loop.

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
factor, so their norms need no pass over the stack.  ``s`` and ``r`` are each
one BLAS dot on the flat real view of a stack: the old ``a``'s buffer takes
the step ``a - a'`` and the old ``u``'s the primal gap ``u' - u = c - a'``,
each in place.  ``||c||^2`` is ``r^2 + 2 Re <c - a', a'> + ||a'||^2``, one
more dot, and the finish rebuilds ``c`` once, as ``(c - a') + a'``.

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
path, and the SVD holds no weight: each point weighs ``g`` for its
``lambda_g`` when it starts, the first included, and again for each new
``rho``.  So no weight exists before the path first advances, and
``solve_path`` refuses data whose scale would overflow one (``_check_scale``)
on the SVD alone.  Each
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

Precision: the ADMM state (``a``, ``u``, the two work stacks, the small
products and the ridge factors) runs in complex64 when ``tol_rel >= 1e-5``
and in complex128 otherwise; the loop is bound by memory traffic and by the
ridge matmuls, and both halve in single precision.  The SVD is taken in
complex128 and cast once into the factors, and the finish (zeroing the excluded tubes, the affine
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
from functools import partial

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

# Singular values of a face stack at or below this fraction of the largest over
# all its faces count as 0 (_nonzero): the one rank rule of the ridge, the
# min-F1 start and theory's full-rank verdicts.
RANK_TOL = 1e-10

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
# complex128 peaks in the loop (a, u and the two work stacks, plus the faces,
# the ridge factors, the (inner, n) products L^H a, L^H u and L^H B0 and the
# (n, n) tube norms inside kernels.scale_tubes).  complex64 peaks there too for
# one solve, a few hundredths above its complex128 finish, and in the finish
# for a path (c and W, plus the a and u the next point starts from).
# tracemalloc, one solve and three points: 4.70 and 4.70 (complex128), 2.44
# and 3.31 (complex64) at 28x160x28 affine; 4.41 and 4.41, 2.25 and 3.12 at
# 28x320x28; 4.67 and 4.67, 2.36 and 2.96 at 8x200x8.
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
            raise ValueError(f"tol_rel must be nonnegative, got {self.tol_rel}")


# The budget of the constrained program Y * c = X, which theory's
# min_f1_representation passes to _fit with the one weight inf.  _fit reads its
# weights from that list, never from a config, so lambda_g here enters nothing;
# tol_rel = 1e-12 runs the state in complex128.
_CONSTRAINED = SolverConfig(lambda_g=1.0, max_iters=100000, tol_rel=1e-12)


@dataclass
class SolverReport:
    """ADMM run record.

    ``timings`` holds the seconds spent in each stage of the solve, from
    ``time.perf_counter``: ``fft`` (input checks and the depth rFFT),
    ``factor`` (the per-face SVD and the ridge's weighing for the point's
    ``lambda_g``), ``iterate`` (the ADMM loop) and ``finalize`` (the
    feasible projection, the objective and the inverse rFFT).  On the points
    of a path after the first, which reuse the first point's rFFT and SVD,
    ``fft`` is 0 and ``factor`` is the weighing alone.  ``rho_history`` holds the
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
    with np.errstate(over="ignore"):  # refused just below
        fidelity = lambda_g * float(np.vdot(y, y))
        weight = 2.0 * lambda_g * np.max(s, initial=0.0) ** 2
    if not np.isfinite([fidelity, weight]).all():
        raise ValueError(
            f"the input's scale overflows float64 at lambda_g={lambda_g:g}: "
            f"lambda_g ||Y||^2 is {fidelity:g} and 2 lambda_g s_max^2 is {weight:g}"
        )


def _nonzero(s):
    """Which of the singular values ``s`` of a face stack count as nonzero.

    A value counts when it exceeds ``RANK_TOL`` times the largest over all
    faces.  The rule is global, not per face, since the rFFT of spatial data
    carries round-off relative to the whole tensor's norm, so a face whose
    values all lie at that level is numerically zero however well conditioned
    it is on its own.  It has no absolute floor, so scaling the data changes
    no verdict.
    """
    return s > RANK_TOL * s.max(initial=0.0)


class _RidgeInverse:
    """Applies ``rho (2 lambda_g Y_f^H Y_f + rho I)^-1`` on every Fourier face.

    ``yf`` is the ``(F, h, n)`` face stack.  With the thin SVD
    ``Y_f = U diag(s) V^H`` (``s`` that ``_nonzero`` refuses taken as 0) this is
    ``x - V (g V^H x)``, where ``g = 1 - rho / (2 lambda_g s^2 + rho)``, 0 or 1
    at ``lambda_g = inf`` (min-F1's weight); there every kept
    direction weighs ``inf`` with no square of ``s`` taken, so no scale of
    ``Y`` under- or overflows its weight.  A direction cut as 0 has ``g = 0``
    at every ``lambda_g`` and ``rho``, so the factors hold only the kept ones:
    ``rank`` is the largest numeric rank over the faces, and a face of lower
    rank carries zero columns, with ``g = 0``, up to it.  On data drawn from a
    union of free submodules that is ``sum d_i``, far below ``min(h, n)``: 8
    at 28x40x28 with four 2-dimensional submodules, and 11 on the centred
    faces at 28x160x28 affine, for an ``inner`` of 12.  On full-rank faces it
    is ``min(h, n)``.  With ``affine`` the SVD is that of
    the centred faces ``Y_f - mean(Y_f) 1^T``, whose rows are orthogonal to
    ``1``, and the apply also projects out ``1``: the left factor is
    ``L = [V | 1/sqrt(n)]``, and its fixed last column carries weight 1.  So
    every column face-sum of the apply is 0.  ``inner``, the width of ``L``,
    is ``rank``, plus 1 under ``affine``.

    The apply is ``x - L w`` with ``w = g L^H x``, and it is held as those
    pieces: ``left`` (``L``), ``lh`` (``L^H``), the weights ``g`` as an
    ``(F, inner, 1)`` column, and ``expand``, which takes ``w`` back to the
    stack.  The nonzero columns of ``L`` are orthonormal, so ``L^H L w = w``
    for every ``w`` that is 0 where they are, and the ADMM loop carries the
    small products ``L^H a`` and ``L^H u`` of its state in place of the
    differences ``a - u`` and ``c`` (``_step``).  An instance holds only the
    SVD's factors; ``weigh(lambda_g, rho)`` forms ``g`` from them, for any
    ``lambda_g`` and ``rho``, and must be called before the first apply.
    ``lstsq`` applies ``pinv(Y_f)`` over the kept directions,
    from the same SVD (``uh`` holds the rows of ``U^H`` for them), so a start
    ``B0`` taken from it lies in the span that the apply keeps by
    construction; at ``lambda_g = inf`` the apply is the projector
    ``I - pinv(Y_f) Y_f`` of that same rule.

    The SVD is taken in complex128, and ``s`` and ``U^H`` are kept in it;
    ``L``, ``L^H`` and ``g`` are held in ``dtype``, the precision of the ADMM
    state that the apply serves (``_state_dtype``), and its real counterpart,
    and ``g`` is cast on every weighing.  ``lstsq`` runs in ``dtype``.
    """

    def __init__(self, yf, affine=False, dtype=np.complex128):
        faces, _, n = yf.shape
        if affine:
            yf = yf - yf.mean(axis=2, keepdims=True)
        u, s, vh = np.linalg.svd(yf, full_matrices=False)
        kept = _nonzero(s)  # s is sorted, so each face's kept values lead it
        self.rank = r = int(kept.sum(axis=1).max())
        self.inner = inner = r + 1 if affine else r
        self.s, self.kept = s[:, :r], kept[:, :r]
        self.uh = np.conj(np.swapaxes(u[:, :, :r], 1, 2))
        self.dtype = np.dtype(dtype)
        self.lh = np.empty((faces, inner, n), dtype=dtype)  # [V | 1/sqrt(n)]^H
        self.lh[:, :r] = vh[:, :r] * kept[:, :r, None]  # a cut direction is a 0 column
        self.lh[:, r:] = 1.0 / np.sqrt(n)
        self.left = np.ascontiguousarray(np.conj(np.swapaxes(self.lh, 1, 2)))
        self.g = np.ones((faces, inner, 1), dtype=np.finfo(self.dtype).dtype)

    def weigh(self, lambda_g, rho):
        """Form ``g`` for ``lambda_g`` and ``rho`` from the stored SVD."""
        # at lambda_g = inf a kept direction weighs inf, even where s^2 underflows
        s2 = np.inf if lambda_g == np.inf else 2.0 * lambda_g * self.s**2
        s2 = np.where(self.kept, s2, 0.0)
        # 1 at s2 = inf, where s2 / (s2 + rho) is nan; the affine column keeps 1
        self.g[:, : self.rank, 0] = 1.0 - rho / (s2 + rho)

    def lstsq(self, x):
        """``pinv(Y_f) x_f`` on every face, over the kept directions only."""
        t = (self.uh @ x) / np.where(self.kept, self.s, np.inf)[:, :, None]
        return self.left[:, :, : self.rank] @ t

    def expand(self, x, w, out=None):
        """``x - L w`` for a small ``(F, inner, k)`` product ``w``."""
        out = np.matmul(self.left, w, out=out)
        return np.subtract(x, out, out=out)

    def __call__(self, x, out=None, lb0=None):
        """The apply ``x - L (g L^H x)``; with ``lb0 = L^H B0`` it is
        ``R(x - B0) + B0 = x - L (g (L^H x - lb0))``."""
        w = self.lh @ x
        if lb0 is not None:
            w -= lb0
        w *= self.g
        return self.expand(x, w, out)


def _feasible(c, excluded, sums):
    """Zero the excluded tubes of a face stack and, unless ``sums`` is None,
    rebalance each face's column sums to ``sums`` (one value per face), in place."""
    tubes = (slice(None),) + excluded
    c[tubes] = 0.0
    if sums is not None:
        deficit = sums - c.sum(axis=1, keepdims=True)
        c += deficit / (c.shape[1] - 1)
        c[tubes] = 0.0


def _objective(yf, lambda_h, c, root_w, lambda_g):
    """The self-representation's objective at ``lambda_h`` and ``lambda_g`` of
    a coefficient stack ``c`` over the faces ``yf``, in the weighted
    coordinates that the face weights' square roots ``root_w`` give: every
    norm is a plain one."""
    grp = kernels._part_sq_sums(c).sum(axis=-1)
    f1 = float(np.sqrt(grp).sum())
    ff1 = float(np.sqrt(grp.sum(axis=1)).sum())
    resid = yf @ c
    np.subtract(root_w * yf, resid, out=resid)
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
    _check_memory(n, d, _state_dtype(cfg.tol_rel))
    if cfg.normalize_columns:
        # exact, and keeps the squares in each column's norm in range
        y, _ = _pow2_scaled(y, axis=(0, 2))
        scale = np.sqrt((y * y).sum(axis=(0, 2)))
        y = y / np.where(scale > 0, scale, 1.0)[None, :, None]
    yf = _faces(y)
    weights = [other.lambda_g for other in configs]
    s, _, path = _fit(yf, yf, d, cfg, weights, True, start, partial(_objective, yf, cfg.lambda_h))
    _check_scale(y, s, max(weights))
    return path


def _fit(yf, xf, d, cfg, weights, exclude_diagonal, start, objective=None):
    """The one entry point for targets ``xf`` over a dictionary ``yf``, face
    stacks of depth-``d`` tensors, solved at each fidelity weight ``lambda_g``
    of ``weights`` in turn as one path, under ``cfg``'s other fields.

    With ``exclude_diagonal`` the diagonal tubes are held at 0 and ``B0`` is
    the identity: the self-representation, whose ``xf`` is ``yf``.  Otherwise
    no tube is held and ``B0`` is the ridge's ``lstsq`` start.  A weight is
    any positive value, ``inf`` included: that is the constrained program
    ``Y * c = X``, which ``theory.min_f1_representation`` runs under
    ``_CONSTRAINED``.  ``cfg.lambda_g`` is not read.  ``cfg.tol_rel`` sets
    the dtype of the ridge and of the state (``_state_dtype``).  No weight
    enters anything before the path first advances: the ridge is weighted
    when each point starts, so a caller can refuse data whose scale would
    overflow a weight, as ``solve_path`` does with ``_check_scale``, right
    after this returns.  ``start`` is the ``time.perf_counter`` reading at
    which the caller began its input checks, the ``fft`` timing's start.
    ``objective(c, root_w, lambda_g)``, when given, is each report's
    objective, taken of the finished coefficients in weighted coordinates;
    without it the report's objective is None and no objective is evaluated.

    Returns ``(s, b0, path)``: the ridge's kept singular values, ``B0`` (None
    for the identity) and the generator of ``(w, report)`` per weight that
    ``solve_path`` describes.  The SVD and ``B0`` are taken here; the loop
    reads ``B0`` when the generator is first advanced, so a caller can refuse
    the input or rescale ``B0`` in place before that.
    """
    timings = {"fft": time.perf_counter() - start}
    start = time.perf_counter()
    ridge = _RidgeInverse(yf, cfg.affine, _state_dtype(cfg.tol_rel))
    b0 = None if exclude_diagonal else ridge.lstsq(xf)
    excluded = (np.arange(yf.shape[2]),) * 2 if exclude_diagonal else ([], [])
    timings["factor"] = time.perf_counter() - start
    return ridge.s, b0, _path(d, ridge, cfg, weights, timings, b0, excluded, objective)


def _step(ridge, a, u, la, lu, lb0, free, tau, row_tau, excluded):
    """One ADMM iteration, with the ridge apply taken on its small side.

    ``a`` is the iterate and ``u`` the scaled dual, ``la`` and ``lu`` their
    ``(F, inner, k)`` products with ``L^H`` (``_RidgeInverse``), ``lb0`` that
    of ``B0``, and ``free`` a pair of stacks that the step overwrites.  The
    ridge update ``c = R(a - u - B0) + B0`` is ``(a - u) - L w`` with
    ``w = g (la - lu - lb0)``, so ``v = c + u = a - L w`` takes one matmul and
    one in-place subtract, and neither ``a - u`` nor ``c`` is formed.
    ``kernels.scale_tubes`` splits ``v`` into the new iterate ``a' = t v`` and
    the new dual ``u' = (1 - t) v = u + c - a'``.  The old ``a``'s buffer then
    takes the step ``a - a'``, and the old ``u``'s the primal gap
    ``u' - u = c - a'``, each in place; ``||c||^2`` is
    ``||c - a'||^2 + 2 Re <c - a', a'> + ||a'||^2``, and ``L^H u'`` is
    ``la - w - L^H a'``, since ``L^H L w = w``.

    Returns ``(a', u', la', lu', free, squares)``: ``free`` is the old
    ``(a, u)`` pair of buffers, the second holding ``c - a'``, and
    ``squares`` is ``||a - a'||^2``, ``||c - a'||^2``, ``||c||^2``,
    ``||a'||^2`` and ``||u'||^2``.
    """
    v, a_new = free
    w = np.subtract(la, lu, out=lu)  # lu's buffer takes w, then L^H a'
    w -= lb0
    w *= ridge.g
    ridge.expand(a, w, out=v)
    a_sq, u_sq = kernels.scale_tubes(v, a_new, tau, row_tau, excluded)
    step = np.subtract(a, a_new, out=a)
    step_sq = kernels._sq_norm(step)
    gap = np.subtract(v, u, out=u)
    gap_sq = kernels._sq_norm(gap)
    c_sq = gap_sq + 2.0 * kernels._re_dot(gap, a_new) + a_sq
    lu_new = np.subtract(la, w, out=la)  # la's buffer takes L^H u'
    la_new = np.matmul(ridge.lh, a_new, out=w)
    lu_new -= la_new
    return a_new, v, la_new, lu_new, (step, gap), (step_sq, gap_sq, c_sq, a_sq, u_sq)


def _path(d, ridge, cfg, weights, timings, b0, excluded, objective):
    """``_fit``'s ADMM loop, run once per weight ``lambda_g`` of ``weights``
    on carried state, under ``cfg``'s other fields.  ``B0`` is ``b0``, or the
    identity when ``b0`` is None; the tubes at the ``(rows, cols)`` index
    arrays ``excluded`` are held at 0.  ``ridge`` holds the SVD only, and its
    dtype is that of the state: each point weighs it for its ``lambda_g`` and
    the ``rho`` in force when it starts (``_RHO_START`` at the first), and
    again on every change of ``rho``; the weighing counts in the point's
    ``factor`` timing.  The state and the complex128 finish run in weighted
    coordinates ``sqrt(w_f) x_f``: ``B0`` is weighted for the loop,
    ``objective`` takes ``c`` in them, and ``c`` is unweighted once, for the
    inverse rFFT."""
    faces, _, n = ridge.lh.shape
    k = n if b0 is None else b0.shape[2]
    root_w = np.sqrt(_face_weights(d))[:, None, None]
    shape = (faces, n, k)
    dtype = ridge.dtype
    a = np.zeros(shape, dtype=dtype)
    u = np.zeros(shape, dtype=dtype)
    la = np.zeros((shape[0], ridge.inner, k), dtype=dtype)  # L^H a
    lu = np.zeros_like(la)  # L^H u
    # L^H B0 in weighted coordinates: the ridge's weights do not enter it
    lb0 = ridge.lh * root_w if b0 is None else ridge.lh @ (root_w * b0)
    lb0 = lb0.astype(dtype, copy=False)
    rho = _RHO_START
    floor = _SCALE_FLOOR * math.sqrt(n * k * d)

    for point, lambda_g in enumerate(weights):
        start = time.perf_counter()
        ridge.weigh(lambda_g, rho)
        if point:
            timings = {"fft": 0.0, "factor": 0.0}
        timings["factor"] += time.perf_counter() - start

        start = time.perf_counter()
        free = (np.empty(shape, dtype=dtype), np.empty(shape, dtype=dtype))
        rho_history, primal_history, dual_history = [], [], []
        # the first step after a change of lambda_g or rho is not tested: its
        # dual residual measures a step taken under two programs
        changed = point > 0
        changes = 0
        converged = False
        for iterations in range(1, cfg.max_iters + 1):
            rho_history.append(rho)
            a, u, la, lu, free, (step_sq, gap_sq, c_sq, a_sq, u_sq) = _step(
                ridge, a, u, la, lu, lb0, free, 1.0 / rho, cfg.lambda_h / rho, excluded
            )
            s_norm = rho * math.sqrt(step_sq)
            r_norm = math.sqrt(gap_sq)
            primal_history.append(r_norm)
            dual_history.append(s_norm)

            pri = floor + math.sqrt(max(c_sq, a_sq))
            dual = floor + rho * math.sqrt(u_sq)
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
                lu *= rho / new_rho
                rho = new_rho
                ridge.weigh(lambda_g, rho)
        timings["iterate"] = time.perf_counter() - start
        _log.debug(
            "point %d, lambda_g %g: %s, inner dimension %d, %d iterations, converged %s",
            point, lambda_g, dtype.name, ridge.inner, iterations, converged,
        )  # fmt: skip

        start = time.perf_counter()
        # the finish's complex128 copy of c and W need the room of every
        # other stack, and of the state too after the last point
        c = np.add(free[1], a, out=free[1])  # (c - a') + a'
        del free
        if point == len(weights) - 1:
            del a, u, la, lu, lb0  # no later point starts from them
        c = c.astype(np.complex128, copy=False)  # the finish runs in complex128
        _feasible(c, excluded, root_w if cfg.affine else None)
        score = objective(c, root_w, lambda_g) if objective else None
        c /= root_w  # out of weighted coordinates; c is not used again
        w = _from_faces(c, d)
        del c
        timings["finalize"] = time.perf_counter() - start
        yield w, SolverReport(
            iterations=iterations,
            objective=score,
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
