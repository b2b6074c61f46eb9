"""Third-order tensor algebra over the ring of circular-convolution tubes.

A tensor is a real ``(h, n, d)`` numpy array: ``h`` rows, ``n`` lateral
slices, ``d`` depth.  A tube is a length-``d`` vector, the ring scalar; an
oriented matrix is an ``(h, 1, d)`` tensor, the module "vector".  The
tensor-tensor product multiplies tubes by circular convolution, which the
depth-axis DFT turns into independent per-frequency (face-wise) matrix
products.

DFT convention: unnormalized forward transform, ``1/d``-scaled inverse, so
``||a||_F = d**-0.5 * ||fft3(a)||_F``.  Every other transform in the package
keeps only the ``d // 2 + 1`` faces of the rFFT (face ``d - f`` is the
conjugate of face ``f``), through ``_faces``, ``_from_faces`` and
``_face_weights``.
"""

import struct

import numpy as np

__all__ = [
    "FormatError",
    "fft3",
    "ifft3",
    "tube_conv",
    "tprod",
    "unfold",
    "fold",
    "bcirc",
    "tprod_bcirc_oracle",
    "ttranspose",
    "norm_fro",
    "norm_f1",
    "norm_ff1",
    "tubal_angle_cos",
    "bcirc_singular_values",
    "identity_tensor",
    "e_tube",
    "read_tsr1",
    "write_tsr1",
]

BCIRC_GUARD = 4096

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


def fft3(t):
    """DFT along the depth axis of a real ``(h, n, d)`` tensor."""
    return np.fft.fft(_as_tensor3(t), axis=2)


def ifft3(f, imag_tol=1e-12):
    """Inverse DFT along depth; requires a conjugate-symmetric input.

    The imaginary residue of the inverse must stay below ``imag_tol``
    relative to ``max(1, |result|)``, otherwise the input did not come from
    a real tensor and a ``ValueError('non-real inverse')`` is raised.
    """
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim != 3:
        raise ValueError(f"fourier tensor must be 3-dimensional, got shape {f.shape}")
    x = np.fft.ifft(f, axis=2)
    scale = max(1.0, float(np.abs(x.real).max(initial=0.0)))
    if float(np.abs(x.imag).max(initial=0.0)) > imag_tol * scale:
        raise ValueError("non-real inverse")
    return np.ascontiguousarray(x.real)


def tube_conv(a, b):
    """Circular convolution of two length-``d`` tubes, computed directly.

    The direct sum makes the unit tube ``e_tube(d, 0)`` an exact identity,
    with no transform roundoff; it also serves as the O(d^2) reference for
    the FFT path.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"tube length mismatch: {a.shape[0]} vs {b.shape[0]}")
    d = a.shape[0]
    idx = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d
    return a @ b[idx]


def _faces(a):
    """The ``(d // 2 + 1, h, n)`` half-spectrum face stack of a real ``(h, n, d)`` tensor."""
    return np.ascontiguousarray(np.transpose(np.fft.rfft(a, axis=2), (2, 0, 1)))


def _from_faces(f, d):
    """The real ``(h, n, d)`` tensor of a ``(d // 2 + 1, h, n)`` face stack.

    The irFFT runs along the faces' own axis, and only its real result is
    transposed, in one copy."""
    return np.ascontiguousarray(np.transpose(np.fft.irfft(f, n=d, axis=0), (1, 2, 0)))


def _face_weights(d):
    """Parseval weights, ``1/d`` folded in: ``sum_f w_f ||face_f||_F^2 = ||a||_F^2``."""
    w = np.full(d // 2 + 1, 2.0 / d)
    w[0] = 1.0 / d
    if d % 2 == 0:
        w[-1] = 1.0 / d
    return w


def _check_tprod_shapes(a, b):
    if a.shape[2] != b.shape[2] or a.shape[1] != b.shape[0]:
        raise ValueError(f"tprod shape mismatch: {a.shape} vs {b.shape}")


def tprod(a, b):
    """Tensor-tensor product of ``(h, l, d)`` and ``(l, k, d)`` tensors.

    Computed as the inverse DFT of the face-wise matrix products of the two
    depth-axis DFTs.
    """
    a = _as_tensor3(a, "left operand")
    b = _as_tensor3(b, "right operand")
    _check_tprod_shapes(a, b)
    return _from_faces(_faces(a) @ _faces(b), a.shape[2])


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
    _check_tprod_shapes(a, b)
    h, _, d = a.shape
    k = b.shape[1]
    return fold(bcirc(a) @ unfold(b), h, k, d)


def ttranspose(a):
    """Transpose each frontal slice and reverse the order of slices 2..d."""
    a = _as_tensor3(a)
    d = a.shape[2]
    idx = (d - np.arange(d)) % d
    return np.ascontiguousarray(np.transpose(a[:, :, idx], (1, 0, 2)))


def norm_fro(a):
    """Frobenius norm of all entries."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64).ravel()))


def norm_f1(a):
    """Sum of the Frobenius norms of all tubes (group norm over tubes)."""
    a = _as_tensor3(a)
    return float(np.sqrt((a * a).sum(axis=2)).sum())


def norm_ff1(a):
    """Sum of the Frobenius norms of all horizontal slices."""
    a = _as_tensor3(a)
    return float(np.sqrt((a * a).sum(axis=(1, 2))).sum())


def _as_oriented(a, name):
    a = _as_tensor3(a, name)
    if a.shape[1] != 1:
        raise ValueError(f"{name} must have shape (h, 1, d), got {a.shape}")
    return a


def tubal_angle_cos(a, b):
    """Tube-valued cosine of the angle between two oriented matrices.

    Returns the length-``d`` tube ``(a' * b + b' * a) / (2 ||a||_F ||b||_F)``
    where ``'`` is the tensor transpose: face ``f`` is ``Re(a_f^H b_f)`` over
    ``||a||_F ||b||_F``, exactly symmetric in its arguments.
    """
    a = _as_oriented(a, "first operand")
    b = _as_oriented(b, "second operand")
    if a.shape != b.shape:
        raise ValueError(f"operand shape mismatch: {a.shape} vs {b.shape}")
    na = norm_fro(a)
    nb = norm_fro(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("tubal angle undefined for a zero-norm operand")
    s = (np.conj(_faces(a)) * _faces(b)).sum(axis=(1, 2))
    return np.fft.irfft(s.real, n=a.shape[2]) / (na * nb)


def bcirc_singular_values(a):
    """All ``min(h, l) * d`` singular values of ``bcirc(a)``, descending.

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


def identity_tensor(n, d):
    """The ``(n, n, d)`` product identity: identity first face, zeros after."""
    t = np.zeros((n, n, d), dtype=np.float64)
    t[:, :, 0] = np.eye(n)
    return t


def e_tube(d, k=0):
    """Unit tube of length ``d`` with a one in depth position ``k``.

    ``e_tube(d, 0)`` is the ring identity; tube-multiplying by
    ``e_tube(d, s)`` circularly shifts depth by ``s``.
    """
    if not 0 <= k < d:
        raise ValueError(f"position {k} outside depth range 0..{d - 1}")
    t = np.zeros(d, dtype=np.float64)
    t[k] = 1.0
    return t


def write_tsr1(path, t):
    """Write a tensor to the TSR1 container.

    Layout: magic ``54 53 52 31``, three little-endian u32 ``(h, n, d)``,
    then ``h*n*d`` little-endian f64 with depth fastest, then column, then
    row.  Non-finite values are rejected before the file is opened.
    """
    t = _as_tensor3(t, "TSR1 payload", finite=True)
    h, n, d = t.shape
    with open(path, "wb") as fh:
        fh.write(TSR1_MAGIC)
        fh.write(struct.pack("<III", h, n, d))
        fh.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def read_tsr1(path):
    """Read a TSR1 file, validating magic, length, and finiteness."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise FormatError(f"truncated TSR1 header: {len(raw)} bytes, need 16")
    if raw[:4] != TSR1_MAGIC:
        raise FormatError(f"bad TSR1 magic {raw[:4]!r} at offset 0")
    h, n, d = struct.unpack("<III", raw[4:16])
    if h < 1 or n < 1 or d < 1:
        raise FormatError(f"invalid TSR1 dimensions ({h}, {n}, {d})")
    expected = 16 + h * n * d * 8
    if len(raw) != expected:
        raise FormatError(f"TSR1 length {len(raw)} != expected {expected} bytes")
    t = np.frombuffer(raw, dtype="<f8", offset=16).reshape(h, n, d)
    if not np.isfinite(t).all():
        raise FormatError("TSR1 payload contains non-finite values")
    return np.ascontiguousarray(t)
