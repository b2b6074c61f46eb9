"""Group-sparse self-representation solver and affinity construction.

Solves, over coefficient tensors ``c`` with zero diagonal tubes,

    min  ||c||_F1 + lambda_h ||c||_FF1 + lambda_g ||y - y * c||_F^2

(optionally subject to the affine constraint that every column's tube-sum is
the unit tube) by ADMM carried out in the Fourier domain, where the tensor
product splits into independent per-frequency matrix products.

Splitting: consensus ``c = a1 = a2`` with ``a1`` absorbing the tube group
norm and ``a2`` the row group norm; the ``c`` update is a per-face ridge
solve, the ``a`` updates are group shrinkages, and the duals are scaled.  The
ridge system ``2 lambda_g Y^H Y + 2 rho I`` is never formed: one thin SVD
``Y = U diag(s) V^H`` per face, taken once per solve, gives its inverse by the
matrix inversion lemma as ``(I - V diag(g) V^H) / (2 rho)`` with
``g = 2 lambda_g s^2 / (2 lambda_g s^2 + 2 rho)``, so every iteration costs two
thin matmuls per face.  The zero-diagonal constraint lives inside both
shrinkage proxes (zero the diagonal, then shrink: the exact prox of the sum
with the indicator).  The affine constraint lives inside the ``c`` update as
an exact KKT correction of each ridge solution, using the precomputed
solve of the ridge system against the all-ones vector.

The penalty ``rho`` adapts by residual balancing (Boyd et al. 2011, *ADMM*,
section 3.4.1; Wohlberg 2017).  Once per iteration the relative residuals
``r_norm / eps_pri`` and ``s_norm / eps_dual`` are compared: when one exceeds
the other more than ``_RHO_MU = 10`` times, ``rho`` is multiplied (primal
larger) or divided (dual larger) by ``_RHO_TAU = 2``, clamped to
``[cfg.rho / 1e4, cfg.rho * 1e4]``.  ``cfg.rho`` is only the starting
penalty.  A change of ``rho`` rescales the scaled duals by
``rho_old / rho_new`` and re-weights the ridge inverse from the stored SVD,
with no new factorization.  The first iteration run with a new ``rho`` is not
tested for convergence: its dual residual measures a step taken under two
penalties, and stopping there let a run end early with a dual residual of 0.
With both tolerances zero the relative residuals are undefined and ``rho``
stays fixed.

Only the ``d // 2 + 1`` non-redundant DFT faces of real tensors are stored;
``_FACE_WEIGHTS`` carries the conjugate-symmetry multiplicities so that all
norms below equal their spatial-domain counterparts.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .t_algebra import _as_tensor3

__all__ = [
    "SolverConfig",
    "SolverReport",
    "solve_self_representation",
    "affinity_from_tensor",
]

# Residual balancing: the imbalance that triggers a change of rho, the factor
# of each change, and how far rho may move from cfg.rho either way.
_RHO_MU = 10.0
_RHO_TAU = 2.0
_RHO_SPAN = 1e4


@dataclass(frozen=True)
class SolverConfig:
    """Solver weights and ADMM controls.

    ``lambda_g`` weighs fidelity, ``lambda_h`` the row group norm,
    ``affine`` switches the affine-submodule constraint on,
    ``normalize_columns`` divides each lateral slice by its Frobenius norm
    before solving (zero slices are left alone).  ``rho`` is the initial ADMM
    penalty; the solver adapts it by residual balancing within
    ``[rho / 1e4, rho * 1e4]``.
    """

    lambda_g: float
    lambda_h: float = 0.0
    affine: bool = False
    rho: float = 1.0
    max_iters: int = 1000
    tol_abs: float = 1e-6
    tol_rel: float = 1e-4
    normalize_columns: bool = False

    def __post_init__(self):
        if not self.lambda_g > 0:
            raise ValueError(f"lambda_g must be positive, got {self.lambda_g}")
        if self.lambda_h < 0:
            raise ValueError(f"lambda_h must be nonnegative, got {self.lambda_h}")
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.tol_abs < 0 or self.tol_rel < 0:
            raise ValueError("tolerances must be nonnegative")


@dataclass
class SolverReport:
    """ADMM run record.

    ``timings`` holds the seconds spent in each stage of the solve, from
    ``time.perf_counter``: ``fft`` (input checks and the depth rFFT),
    ``factor`` (the per-face SVD), ``iterate`` (the ADMM loop) and
    ``finalize`` (the inverse rFFT).  ``rho_history`` holds the penalty in
    force at each iteration, parallel to ``objective_history``.
    """

    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    converged: bool
    objective_history: list = field(default_factory=list)
    rho_history: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)


def _face_weights(d):
    dh = d // 2 + 1
    w = np.ones(dh, dtype=np.float64)
    if d > 1:
        w[1:] = 2.0
        if d % 2 == 0:
            w[-1] = 1.0
    return w


def _snorm2(x, w, inv_d):
    """Squared spatial Frobenius norm of a half-spectrum face stack."""
    return kernels.weighted_sq_norms(x, w, total=True) * inv_d


class _RidgeInverse:
    """Applies ``(2 lambda_g Y_f^H Y_f + 2 rho I)^-1`` on every Fourier face.

    ``yf`` is the ``(F, h, n)`` face stack.  With the thin SVD
    ``Y_f = U diag(s) V^H`` (rank ``r = min(h, n)``, zero singular values
    allowed) the inverse is ``(I - V diag(g) V^H) / (2 rho)``, where
    ``g = 2 lambda_g s^2 / (2 lambda_g s^2 + 2 rho)``.  ``fit`` is
    ``V diag(g) V^H``, the inverse applied to ``2 lambda_g Y^H Y``.
    ``set_rho`` re-weights both for a new ``rho`` from the stored SVD.
    """

    def __init__(self, yf, lambda_g, rho):
        _, s, self.vh = np.linalg.svd(yf, full_matrices=False)
        self.s2 = 2.0 * lambda_g * s * s
        self.v = np.ascontiguousarray(np.conj(np.swapaxes(self.vh, 1, 2)))
        self.gvh = np.empty_like(self.vh)
        self.fit = np.empty((yf.shape[0], yf.shape[2], yf.shape[2]), dtype=self.vh.dtype)
        self.set_rho(rho)

    def set_rho(self, rho):
        g = self.s2 / (self.s2 + 2.0 * rho)
        np.multiply(g[:, :, None], self.vh, out=self.gvh)
        self.scale = 0.5 / rho
        np.matmul(self.v, self.gvh, out=self.fit)

    def __call__(self, x):
        out = self.v @ (self.gvh @ x)
        np.subtract(x, out, out=out)
        out *= self.scale
        return out


def _affine_vector(ridge, dh, n):
    """The ridge solve against the all-ones vector, and its sum, per face."""
    z = ridge(np.ones((dh, n, 1), dtype=np.complex128))[:, :, 0]
    return z, z.sum(axis=1)


def _feasible(c, diag, affine, n):
    """Zero the diagonal and, if affine, rebalance each column's face sums to 1."""
    cf = c.copy()
    cf[:, diag, diag] = 0.0
    if affine:
        deficit = 1.0 - cf.sum(axis=1)
        cf += deficit[:, None, :] / (n - 1)
        cf[:, diag, diag] = 0.0
    return cf


class _Objective:
    """Evaluates the primal objective of a half-spectrum coefficient stack."""

    def __init__(self, yf, w, inv_d, lambda_g, lambda_h):
        self.yf = yf
        self.w = w
        self.inv_d = inv_d
        self.lambda_g = lambda_g
        self.lambda_h = lambda_h

    def __call__(self, c):
        grp = kernels.weighted_sq_norms(c, self.w) * self.inv_d
        f1 = float(np.sqrt(grp).sum())
        ff1 = float(np.sqrt(grp.sum(axis=1)).sum())
        resid = self.yf @ c
        np.subtract(self.yf, resid, out=resid)
        fid = _snorm2(resid, self.w, self.inv_d)
        return f1 + self.lambda_h * ff1 + self.lambda_g * fid


def solve_self_representation(y, cfg):
    """Solve the self-representation program for ``y`` of shape ``(h, n, d)``.

    Returns ``(w, report)``: ``w`` is the ``(n, n, d)`` coefficient tensor
    with exactly zero diagonal tubes (and, under ``cfg.affine``, column
    tube-sums equal to the unit tube), ``report`` the ADMM run record.
    Hitting ``max_iters`` is not an error; it is reported as
    ``converged=False``.
    """
    start = time.perf_counter()
    y = _as_tensor3(y, "input tensor")
    if not np.isfinite(y).all():
        raise ValueError("input tensor contains non-finite values")
    h, n, d = y.shape
    if n < 2:
        raise ValueError("need at least two samples")
    if not y.any():
        raise ValueError("input tensor is identically zero")
    if cfg.normalize_columns:
        scale = np.sqrt((y * y).sum(axis=(0, 2)))
        y = y / np.where(scale > 0, scale, 1.0)[None, :, None]

    lam_g, lam_h, rho = cfg.lambda_g, cfg.lambda_h, float(cfg.rho)
    rho_lo, rho_hi = rho / _RHO_SPAN, rho * _RHO_SPAN
    inv_d = 1.0 / d
    w_freq = _face_weights(d)
    dh = w_freq.shape[0]
    yf = np.ascontiguousarray(np.transpose(np.fft.rfft(y, axis=2), (2, 0, 1)))
    timings = {"fft": time.perf_counter() - start}

    start = time.perf_counter()
    ridge = _RidgeInverse(yf, lam_g, rho)
    if cfg.affine:
        z, z_sum = _affine_vector(ridge, dh, n)
    timings["factor"] = time.perf_counter() - start

    start = time.perf_counter()
    shape = (dh, n, n)
    a1 = np.zeros(shape, dtype=np.complex128)
    a2 = np.zeros(shape, dtype=np.complex128)
    u1 = np.zeros(shape, dtype=np.complex128)
    u2 = np.zeros(shape, dtype=np.complex128)
    diag = np.arange(n)
    objective = _Objective(yf, w_freq, inv_d, lam_g, lam_h)
    count = n * n * d

    history = []
    rho_history = []
    rho_changed = False
    converged = False
    r_norm = s_norm = float("nan")
    iterations = 0
    c_feas = np.zeros(shape, dtype=np.complex128)
    for iterations in range(1, cfg.max_iters + 1):
        rho_history.append(rho)
        # c = ridge^-1 (2 lam_g Y^H Y + rho (a1 - u1 + a2 - u2))
        x = a1 - u1
        x += a2
        x -= u2
        c = ridge(x)
        c *= rho
        c += ridge.fit
        if cfg.affine:
            coef = (1.0 - c.sum(axis=1)) / z_sum[:, None]
            c += z[:, :, None] * coef[:, None, :]

        v1 = c + u1
        v1[:, diag, diag] = 0.0
        a1_new = kernels.scale_tubes(v1, w_freq, inv_d, 1.0 / rho)
        v2 = c + u2
        v2[:, diag, diag] = 0.0
        if lam_h > 0:
            a2_new = kernels.scale_rows(v2, w_freq, inv_d, lam_h / rho)
        else:
            a2_new = v2
        gap1 = np.subtract(c, a1_new, out=v1)  # v1 is spent once shrunk
        u1 += gap1
        gap2 = c - a2_new
        u2 += gap2
        r_norm = np.sqrt(_snorm2(gap1, w_freq, inv_d) + _snorm2(gap2, w_freq, inv_d))

        step = np.subtract(a1_new, a1, out=a1)
        step += a2_new
        step -= a2
        s_norm = rho * np.sqrt(_snorm2(step, w_freq, inv_d))
        a1, a2 = a1_new, a2_new

        c_feas = _feasible(c, diag, cfg.affine, n)
        history.append(objective(c_feas))

        eps_pri = np.sqrt(2.0 * count) * cfg.tol_abs + cfg.tol_rel * max(
            np.sqrt(2.0 * _snorm2(c, w_freq, inv_d)),
            np.sqrt(_snorm2(a1, w_freq, inv_d) + _snorm2(a2, w_freq, inv_d)),
        )
        eps_dual = np.sqrt(count) * cfg.tol_abs + cfg.tol_rel * rho * np.sqrt(
            _snorm2(np.add(u1, u2, out=step), w_freq, inv_d)  # step is spent too
        )
        if not rho_changed and r_norm <= eps_pri and s_norm <= eps_dual:
            converged = True
            break

        # residual balancing, compared without dividing by a zero tolerance
        new_rho = rho
        if r_norm * eps_dual > _RHO_MU * s_norm * eps_pri:
            new_rho = min(rho * _RHO_TAU, rho_hi)
        elif s_norm * eps_pri > _RHO_MU * r_norm * eps_dual:
            new_rho = max(rho / _RHO_TAU, rho_lo)
        rho_changed = new_rho != rho
        if rho_changed:
            u1 *= rho / new_rho
            u2 *= rho / new_rho
            rho = new_rho
            ridge.set_rho(rho)
            if cfg.affine:
                z, z_sum = _affine_vector(ridge, dh, n)
    timings["iterate"] = time.perf_counter() - start

    start = time.perf_counter()
    w = np.fft.irfft(np.transpose(c_feas, (1, 2, 0)), n=d, axis=2)
    w = np.ascontiguousarray(w)
    timings["finalize"] = time.perf_counter() - start
    report = SolverReport(
        iterations=iterations,
        primal_residual=float(r_norm),
        dual_residual=float(s_norm),
        objective=history[-1],
        converged=converged,
        objective_history=history,
        rho_history=rho_history,
        timings=timings,
    )
    return w, report


def affinity_from_tensor(w):
    """Collapse a coefficient tensor to the symmetric affinity matrix.

    ``m[i, j] = ||w(j, i, :)||_F + ||w(i, j, :)||_F`` with a forced zero
    diagonal.
    """
    w = _as_tensor3(w, "coefficient tensor")
    if w.shape[0] != w.shape[1]:
        raise ValueError(f"coefficient tensor must be square, got {w.shape}")
    tube_norms = np.sqrt((w * w).sum(axis=2))
    m = tube_norms + tube_norms.T
    np.fill_diagonal(m, 0.0)
    return m
