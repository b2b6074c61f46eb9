"""Synthetic data generation, image-format loaders, and evaluation metrics.

Images enter tensors with rows as the height axis and columns as the depth
axis, one image per lateral slice, so a circular column shift of an image is
exactly a tube-shift of its slice.  Pixel values are scaled to [0, 1]
uniformly across loaders.
"""

import math
import os
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectral import ClusterLabels, _label_vector
from .t_algebra import FormatError, _as_tensor3, _check_count, e_tube, tprod
from .theory import SubmoduleSample, is_generating_set

__all__ = [
    "SHIFT_JITTER",
    "SynthSpec",
    "LabeledTensor",
    "generate_synthetic",
    "generate_submodules",
    "load_idx_images",
    "load_idx_labels",
    "load_pgm_dir",
    "clustering_error",
    "shift_images",
]

# coefficient-tube jitter scale for shift-model points, relative to the
# unit-shift coefficient
SHIFT_JITTER = 0.05

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a union-of-submodules tensor.

    One cluster per entry of ``d_per_cluster`` / ``samples_per_cluster``.
    ``shift_model`` builds each cluster from circular depth-shifts of a
    single prototype (with small coefficient jitter) instead of dense
    coefficient tubes; ``d_per_cluster`` is ignored in that mode since each
    cluster has one generator.
    """

    h: int
    d_per_cluster: Sequence[int]
    samples_per_cluster: Sequence[int]
    depth: int
    noise_sigma: float = 0.0
    affine: bool = False
    shift_model: bool = False
    seed: int = 0

    def __post_init__(self):
        _check_count("h", self.h)
        _check_count("depth", self.depth)
        _check_count("seed", self.seed, low=0)
        for name in ("d_per_cluster", "samples_per_cluster"):
            values = tuple(getattr(self, name))
            for v in values:
                _check_count(name, v)
            object.__setattr__(self, name, tuple(int(v) for v in values))
        if len(self.d_per_cluster) != len(self.samples_per_cluster):
            raise ValueError(
                f"{len(self.d_per_cluster)} cluster dims vs "
                f"{len(self.samples_per_cluster)} sample counts"
            )
        if not self.d_per_cluster:
            raise ValueError("need at least one cluster")
        if not self.shift_model and max(self.d_per_cluster) > self.h:
            raise ValueError(
                f"cluster dim {max(self.d_per_cluster)} exceeds height {self.h}"
            )
        # nan would pass a `< 0` test, and inf fails only after generation
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(
                f"noise_sigma must be finite and nonnegative, got {self.noise_sigma}"
            )


@dataclass
class LabeledTensor:
    tensor: np.ndarray
    truth: ClusterLabels


def _draw_generators(rng, h, d, depth):
    for _ in range(100):
        gens = rng.standard_normal((h, d, depth))
        if is_generating_set(gens):
            return gens
    raise RuntimeError("failed to draw a generating set after 100 attempts")


def generate_submodules(spec):
    """Generate clusters and return both the per-cluster samples and the tensor.

    Same stream as :func:`generate_synthetic`: the returned
    ``LabeledTensor`` is bitwise identical for equal specs.
    """
    rng = np.random.default_rng(spec.seed)
    samples = []
    blocks = []
    labels = []
    for c, (d_c, m_c) in enumerate(zip(spec.d_per_cluster, spec.samples_per_cluster)):
        if spec.shift_model:
            gens = rng.standard_normal((spec.h, 1, spec.depth))
            coeffs = np.empty((1, m_c, spec.depth))
            for j in range(m_c):
                s = int(rng.integers(spec.depth))
                jitter = SHIFT_JITTER * rng.standard_normal(spec.depth) / np.sqrt(spec.depth)
                coeffs[0, j, :] = e_tube(spec.depth, s) + jitter
        else:
            gens = _draw_generators(rng, spec.h, d_c, spec.depth)
            coeffs = rng.standard_normal((d_c, m_c, spec.depth))
        points = tprod(gens, coeffs)
        offset = None
        if spec.affine:
            offset = rng.standard_normal((spec.h, 1, spec.depth))
            points = points + offset
        samples.append(SubmoduleSample(generators=gens, points=points, affine_offset=offset))
        blocks.append(points)
        labels.extend([c] * m_c)
    tensor = np.concatenate(blocks, axis=1)
    if spec.noise_sigma > 0:
        with np.errstate(over="ignore"):  # refused just below
            tensor = tensor + spec.noise_sigma * rng.standard_normal(tensor.shape)
        if not np.isfinite(tensor).all():
            raise ValueError(f"noise_sigma={spec.noise_sigma:g} overflows the generated samples")
    truth = ClusterLabels(labels=np.array(labels, dtype=np.int64), k=len(spec.d_per_cluster))
    return samples, LabeledTensor(tensor=np.ascontiguousarray(tensor), truth=truth)


def generate_synthetic(spec):
    """Generate a labeled union-of-submodules tensor; see :class:`SynthSpec`."""
    return generate_submodules(spec)[1]


def _read_idx(path, magic, ndim, kind):
    """The u8 payload of an IDX file, shaped by its ``ndim`` header sizes.

    The header is the ``magic`` number, then ``ndim`` sizes, each a
    big-endian u32; ``kind`` names the file in the bad-magic error.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated header at offset 0")
    found = int.from_bytes(raw[0:4], "big")
    if found != magic:
        raise FormatError(f"{path}: bad {kind} magic 0x{found:08x} at offset 0")
    offset = 4 + 4 * ndim
    if len(raw) < offset:
        raise FormatError(f"{path}: truncated dimension header at offset 4")
    shape = [int.from_bytes(raw[p : p + 4], "big") for p in range(4, offset, 4)]
    expected = math.prod(shape)
    if len(raw) - offset != expected:
        raise FormatError(
            f"{path}: payload at offset {offset} has {len(raw) - offset} bytes, expected {expected}"
        )
    return np.frombuffer(raw, dtype=np.uint8, offset=offset).reshape(shape)


def load_idx_images(path):
    """Load an IDX u8 image file as an ``(rows, count, cols)`` tensor in [0, 1]."""
    data = _read_idx(path, IDX_IMAGE_MAGIC, 3, "image")
    return np.ascontiguousarray(data.astype(np.float64).transpose(1, 0, 2) / 255.0)


def load_idx_labels(path):
    """Load an IDX u8 label file as an int64 array."""
    return _read_idx(path, IDX_LABEL_MAGIC, 1, "label").astype(np.int64)


# A binary PGM header (Netpbm): the magic P5, then width, height and maxval
# in decimal, each after whitespace or '#' comments that run to a CR or LF,
# then one whitespace byte before the raster.  Every byte has one reading, so
# a match takes linear time on any input; 20 digits keep int() far below its
# 4300-digit limit.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\r\n]*[\r\n])+(\d{1,20})" * 3 + rb"\s")


def _read_pgm(path):
    """One P5 image as float64 in [0, 1]; maxval above 255 reads as big-endian u16."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise FormatError(f"{path}: no binary PGM header (P5, width, height, maxval)")
    width, height, maxval = (int(v) for v in header.groups())
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise FormatError(f"{path}: invalid PGM dimensions {width}x{height} maxval {maxval}")
    dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
    pos = header.end()
    expected = width * height * dtype.itemsize
    payload = raw[pos : pos + expected]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload at offset {pos} has {len(payload)} bytes, expected {expected}"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(height, width) / maxval


def load_pgm_dir(path, decimate=1, crop=None):
    """Load all equal-sized P5 files in a directory as one tensor.

    Files are taken in sorted name order, one lateral slice each (rows are
    the height axis, columns the depth axis).  ``decimate`` keeps every
    ``decimate``-th row and column; ``crop=(a, b)`` then keeps columns
    ``a..b`` inclusive.  Returns ``(tensor, names)``.
    """
    _check_count("decimate", decimate)
    names = sorted(f for f in os.listdir(path) if f.lower().endswith(".pgm"))
    if not names:
        raise FormatError(f"{path}: no PGM files found")
    imgs = []
    for name in names:
        img = _read_pgm(os.path.join(path, name))
        if imgs and img.shape != imgs[0].shape:
            raise FormatError(
                f"{path}/{name}: size {img.shape} differs from {imgs[0].shape}"
            )
        imgs.append(img)
    stack = np.stack(imgs, axis=1)  # (rows, count, cols)
    if decimate > 1:
        stack = stack[::decimate, :, ::decimate]
    if crop is not None:
        a, b = int(crop[0]), int(crop[1])
        if not 0 <= a <= b < stack.shape[2]:
            raise ValueError(
                f"crop {a}:{b} outside column range 0..{stack.shape[2] - 1}"
            )
        stack = stack[:, :, a : b + 1]
    return np.ascontiguousarray(stack), names


def _label_array(labels):
    if isinstance(labels, ClusterLabels):
        return labels.labels
    return _label_vector(labels)


def _max_assignment(confusion):
    """Largest total of ``confusion[i, j]`` over one-to-one row-to-column matchings.

    Exact shortest-augmenting-path assignment (Kuhn-Munkres with row and
    column potentials; Crouse 2016, *On implementing 2D rectangular
    assignment algorithms*) on integer weights, all in int64 arithmetic.  The
    matrix is transposed so that rows ``r`` <= columns ``c``.  It starts from
    the greedy matching of each row to its first largest entry, when no
    lower row took that column, with each row's potential its largest entry:
    a feasible, tight start.  Each row left over then takes one Dijkstra
    search, whose steps are numpy passes over all the columns, and which
    takes a free column among equally near ones.  Ties, which small counts
    make common, then end the search early: that preference and the greedy
    start carry the speed.  The matrix is not empty: ``clustering_error``
    refuses empty labelings.
    """
    w = np.asarray(confusion, dtype=np.int64)
    if w.shape[0] > w.shape[1]:
        w = w.T
    r, c = w.shape
    cost = -w  # minimize
    u = cost.min(axis=1)
    v = np.zeros(c, dtype=np.int64)
    row4col = np.full(c, -1)
    col4row = np.full(r, -1)
    cols, rows = np.unique(cost.argmin(axis=1), return_index=True)
    row4col[cols], col4row[rows] = rows, cols
    far = np.iinfo(np.int64).max
    for start in np.flatnonzero(col4row < 0):
        # per column: its path cost (far once reached), the row before it on
        # its path, and whether the search has yet to reach it
        dist = np.full(c, far)
        before = np.empty(c, dtype=np.intp)
        unreached = np.ones(c, dtype=bool)
        free = row4col < 0
        i = start
        while True:
            reduced = cost[i] - u[i] - v
            step = (reduced < dist) & unreached
            dist[step] = reduced[step]
            before[step] = i
            low = dist.min()
            ties = np.flatnonzero(dist == low)
            free_ties = ties[free[ties]]
            j = free_ties[0] if free_ties.size else ties[0]
            if free[j]:
                break
            i = row4col[j]
            # reached at path cost low: its row's potential takes -low now, so
            # that the pass from that row reads path costs, and both take
            # their final shift by the last low below (v[j] is read from now
            # on only where the search has reached)
            unreached[j], dist[j] = False, far
            u[i] -= low
            v[j] += low
        reached = ~unreached
        u[start] += low
        u[row4col[reached]] += low
        v[reached] -= low
        while True:  # augment along the path back to the start row
            i = before[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return int(w[np.arange(r), col4row].sum())


def clustering_error(pred, truth):
    """Fraction misclustered under the best label matching, in [0, 1].

    One minus the largest achievable matched fraction over injective
    mappings of predicted to true labels (optimal assignment).  Labels may be
    any integers, negative or sparse: only the distinct values matter.  Float
    or bool labels are refused, not truncated.

    The matching is exact Kuhn-Munkres (shortest augmenting paths with
    potentials) on the ``r x c`` confusion matrix of distinct labels, with
    ``r <= c`` after transposing: O(r^2 c) work in O(r^2) numpy steps.  That
    is about a millisecond for tens of clusters, and about 0.02 s for 3000
    samples with 300 labels per side drawn at random.
    """
    p = _label_array(pred)
    t = _label_array(truth)
    if p.shape != t.shape:
        raise ValueError(f"label length mismatch: {p.shape[0]} vs {t.shape[0]}")
    if p.size == 0:
        raise ValueError("empty labelings")
    p_vals, p = np.unique(p, return_inverse=True)
    t_vals, t = np.unique(t, return_inverse=True)
    confusion = np.zeros((p_vals.size, t_vals.size), dtype=np.int64)
    np.add.at(confusion, (p, t), 1)
    return float(1.0 - _max_assignment(confusion) / p.size)


def shift_images(t, max_shift, seed):
    """Circularly shift each lateral slice along depth by a random amount.

    Shifts are uniform integers in ``[-max_shift, max_shift]``, drawn from
    ``default_rng(seed)``; a shift of ``s`` equals tube-multiplication by
    ``e_tube(d, s mod d)``.  ``max_shift`` must be an integer in ``0..d - 1``;
    a bool or a float is refused.
    """
    t = _as_tensor3(t)
    d = t.shape[2]
    _check_count("max_shift", max_shift, 0, d - 1)
    shifts = np.random.default_rng(seed).integers(-max_shift, max_shift + 1, size=t.shape[1])
    # np.roll by s: depth k of the result is depth (k - s) mod d of the slice
    return np.take_along_axis(t, ((np.arange(d) - shifts[:, None]) % d)[None], axis=2)
