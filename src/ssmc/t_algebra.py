"""Third-order tensor algebra over the ring of circular-convolution tubes.

A tensor is a real ``(h, n, d)`` numpy array: ``h`` rows, ``n`` lateral
slices, ``d`` depth.  A tube is a length-``d`` vector, the ring scalar; an
oriented matrix is an ``(h, 1, d)`` tensor, the module "vector".  The
tensor-tensor product multiplies tubes by circular convolution, which the
depth-axis DFT turns into independent per-frequency (face-wise) matrix
products.

DFT convention: unnormalized forward transform, ``1/d``-scaled inverse.
Every transform in the package keeps only the ``d // 2 + 1`` faces of the
rFFT (face ``d - f`` is the conjugate of face ``f``), through ``_faces``,
``_from_faces`` and ``_face_weights``; by Parseval,
``||a||_F^2 = sum_f w_f ||face_f||_F^2`` with those weights.

Every tube cosine, ``tubal_angle_cos`` included, goes through ``_tube_cos``,
which first divides each operand by the power of two of its largest entry
(``_pow2_scaled``).  That division is exact, so the cosine is the same at any
scale: no square in its norms overflows or underflows.  The solver's column
normalization uses the same helper, and ``norm_fro``, ``norm_f1`` and
``norm_ff1`` take it over the whole tensor and multiply their result back by
the power of two it returns, so they too are exact at any scale.
"""

import math
import os
import struct

import numpy as np

__all__ = [
    "FormatError",
    "tprod",
    "norm_fro",
    "norm_f1",
    "norm_ff1",
    "tubal_angle_cos",
    "bcirc_singular_values",
    "e_tube",
    "read_tsr1",
    "write_tsr1",
]

TSR1_MAGIC = b"TSR1"


class FormatError(ValueError):
    """Raised when a serialized tensor or image file is malformed."""


def _as_tensor3(a, name="tensor", finite=False):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 3:
        raise ValueError(f"{name} must be 3-dimensional, got shape {a.shape}")
    if finite and not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite values")
    return a


def _is_integer(value):
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name, value, low=1, high=None):
    """Refuse a bool, a non-integer, or an integer outside ``low..high``.

    Python and numpy integers pass; ``high=None`` sets no upper limit.
    """
    if not _is_integer(value) or value < low or (high is not None and value > high):
        span = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {span}, got {value!r}")


def _faces(a):
    """The ``(d // 2 + 1, h, n)`` half-spectrum face stack of a real ``(h, n, d)`` tensor."""
    return np.ascontiguousarray(np.transpose(np.fft.rfft(a, axis=2), (2, 0, 1)))


def _from_faces(f, d):
    """The real ``(h, n, d)`` tensor of a ``(d // 2 + 1, h, n)`` face stack.

    The irFFT runs along the faces' own axis and writes straight into the
    result's layout, with no transposed copy."""
    out = np.empty(f.shape[1:] + (d,))
    np.fft.irfft(f, n=d, axis=0, out=np.moveaxis(out, 2, 0))
    return out


def _face_weights(d):
    """Parseval weights, ``1/d`` folded in: ``sum_f w_f ||face_f||_F^2 = ||a||_F^2``."""
    w = np.full(d // 2 + 1, 2.0 / d)
    w[0] = 1.0 / d
    if d % 2 == 0:
        w[-1] = 1.0 / d
    return w


def tprod(a, b):
    """Tensor-tensor product of ``(h, l, d)`` and ``(l, k, d)`` tensors.

    Computed as the inverse DFT of the face-wise matrix products of the two
    depth-axis DFTs.
    """
    a = _as_tensor3(a, "left operand")
    b = _as_tensor3(b, "right operand")
    if a.shape[2] != b.shape[2] or a.shape[1] != b.shape[0]:
        raise ValueError(f"tprod shape mismatch: {a.shape} vs {b.shape}")
    return _from_faces(_faces(a) @ _faces(b), a.shape[2])


def _rescaled(norm, a):
    """``norm(a)`` for a norm of degree 1, exact at any scale of ``a``.

    The norm is taken of ``_pow2_scaled(a)`` and multiplied back by
    ``math.ldexp``, so no square in it overflows or underflows.  A result
    beyond float64's range raises ``OverflowError``.
    """
    scaled, exponent = _pow2_scaled(a)
    return math.ldexp(float(norm(scaled)), exponent.item())


def norm_fro(a):
    """Frobenius norm of all entries."""
    return _rescaled(np.linalg.norm, np.asarray(a, dtype=np.float64).ravel())


def norm_f1(a):
    """Sum of the Frobenius norms of all tubes (group norm over tubes)."""
    return _rescaled(lambda x: np.sqrt((x * x).sum(axis=2)).sum(), _as_tensor3(a))


def norm_ff1(a):
    """Sum of the Frobenius norms of all horizontal slices."""
    return _rescaled(lambda x: np.sqrt((x * x).sum(axis=(1, 2))).sum(), _as_tensor3(a))


def _as_oriented(a, name):
    a = _as_tensor3(a, name)
    if a.shape[1] != 1:
        raise ValueError(f"{name} must have shape (h, 1, d), got {a.shape}")
    return a


def _pow2_scaled(a, axis=None):
    """``a`` divided by the power of two of its largest magnitude over ``axis``,
    and that power's exponent, kept broadcastable against ``a``.

    Only exponents change, so the division is exact wherever the result stays
    normal; each part's largest entry lands in ``[0.5, 1)``.  An all-zero or
    empty part has exponent 0 and stays as it is.
    """
    _, exponent = np.frexp(np.abs(a).max(axis=axis, keepdims=True, initial=0.0))
    return np.ldexp(a, -exponent), exponent


def _tube_cos(a, b, what="operand"):
    """Tube cosines of stacked ``(..., h, 1, d)`` oriented matrices, shape ``(..., d)``.

    Face ``f`` of each tube is ``Re(a_f^H b_f)`` over ``||a||_F ||b||_F``,
    exactly symmetric in ``a`` and ``b``.  Every sum runs over trailing axes,
    so a pair's tube does not depend on the pairs stacked beside it.  Each
    operand is first scaled by ``_pow2_scaled``, so the tube is the same at
    any scale of either operand.
    """
    if a.shape != b.shape:
        raise ValueError(f"operand shape mismatch: {a.shape} vs {b.shape}")
    a, b = (_pow2_scaled(x, axis=(-3, -2, -1))[0] for x in (a, b))
    na, nb = (np.sqrt((x * x).sum(axis=(-3, -2, -1))) for x in (a, b))
    if not (na.all() and nb.all()):
        raise ValueError(f"tubal angle undefined for a zero-norm {what}")
    s = (np.conj(np.fft.rfft(a)) * np.fft.rfft(b)).real.sum(axis=(-3, -2))
    return np.fft.irfft(s, n=a.shape[-1]) / (na * nb)[..., None]


def tubal_angle_cos(a, b):
    """Tube-valued cosine of the angle between two oriented matrices.

    Returns the length-``d`` tube ``(a' * b + b' * a) / (2 ||a||_F ||b||_F)``
    where ``'`` is the tensor transpose: face ``f`` is ``Re(a_f^H b_f)`` over
    ``||a||_F ||b||_F``, exactly symmetric in its arguments and exact at any
    scale of either.  A zero operand raises ``ValueError``.
    """
    return _tube_cos(_as_oriented(a, "first operand"), _as_oriented(b, "second operand"))


def bcirc_singular_values(a):
    """All ``min(h, l) * d`` singular values of ``a``'s block-circulant matrix, descending.

    The depth-axis DFT block-diagonalizes the block-circulant matrix, so the
    values are the union over depth frequencies of the singular values of
    each Fourier face, a conjugate face repeating its twin's.  No size guard:
    nothing is materialized.
    """
    a = _as_tensor3(a)
    s = np.linalg.svd(_faces(a), compute_uv=False)
    out = np.concatenate([s.ravel(), s[1 : (a.shape[2] + 1) // 2].ravel()])
    out[::-1].sort()
    return out


def e_tube(d, k=0):
    """Unit tube of length ``d`` with a one in depth position ``k``.

    ``e_tube(d, 0)`` is the ring identity; tube-multiplying by
    ``e_tube(d, s)`` circularly shifts depth by ``s``.  ``d`` and ``k`` must be
    integers; a bool or a float is refused.
    """
    _check_count("d", d)
    if not _is_integer(k):
        raise ValueError(f"position must be an integer, got {k!r}")
    if not 0 <= k < d:
        raise ValueError(f"position {k} outside depth range 0..{d - 1}")
    t = np.zeros(d, dtype=np.float64)
    t[k] = 1.0
    return t


def write_tsr1(path, t):
    """Write a tensor to the TSR1 container.

    Layout: magic ``54 53 52 31``, three little-endian u32 ``(h, n, d)``,
    then ``h*n*d`` little-endian f64 with depth fastest, then column, then
    row.  Non-finite values and a zero dimension, which ``read_tsr1``
    refuses, are rejected before the file is opened.
    """
    t = _as_tensor3(t, "TSR1 payload", finite=True)
    h, n, d = t.shape
    if not t.size:
        raise ValueError(f"invalid TSR1 dimensions {t.shape}")
    with open(path, "wb") as fh:
        fh.write(TSR1_MAGIC)
        fh.write(struct.pack("<III", h, n, d))
        fh.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def read_tsr1(path):
    """Read a TSR1 file, validating magic, length, and finiteness.

    The payload is read once, straight into the writable array returned.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        if len(head) < 16:
            raise FormatError(f"truncated TSR1 header: {len(head)} bytes, need 16")
        if head[:4] != TSR1_MAGIC:
            raise FormatError(f"bad TSR1 magic {head[:4]!r} at offset 0")
        h, n, d = struct.unpack("<III", head[4:16])
        if h < 1 or n < 1 or d < 1:
            raise FormatError(f"invalid TSR1 dimensions ({h}, {n}, {d})")
        expected = 16 + h * n * d * 8
        if size != expected:
            raise FormatError(f"TSR1 length {size} != expected {expected} bytes")
        t = np.fromfile(fh, dtype="<f8", count=h * n * d).reshape(h, n, d)
    if not np.isfinite(t).all():
        raise FormatError("TSR1 payload contains non-finite values")
    return t
