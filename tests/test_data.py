"""Data-layer tests: generators, IDX/PGM loaders, error metric, shifts."""

import itertools
import struct
import time
import tracemalloc

import numpy as np
import oracles
import pytest

import ssmc.data as data_mod
from ssmc import t_algebra as ta
from ssmc.data import (
    LabeledTensor,
    SynthSpec,
    clustering_error,
    generate_submodules,
    generate_synthetic,
    load_idx_images,
    load_idx_labels,
    load_pgm_dir,
    shift_images,
)
from ssmc.t_algebra import FormatError


def _face_residual(points, gens):
    # worst per-face least-squares residual of points against the generators
    pf = np.fft.fft(points, axis=2)
    gf = np.fft.fft(gens, axis=2)
    worst = 0.0
    for f in range(points.shape[2]):
        sol, *_ = np.linalg.lstsq(gf[:, :, f], pf[:, :, f], rcond=None)
        worst = max(worst, float(np.abs(pf[:, :, f] - gf[:, :, f] @ sol).max()))
    return worst


# -- SynthSpec validation ----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(h=4, d_per_cluster=[2], samples_per_cluster=[3, 3], depth=2), "vs"),
        (dict(h=4, d_per_cluster=[], samples_per_cluster=[], depth=2), "at least one"),
        (dict(h=0, d_per_cluster=[1], samples_per_cluster=[2], depth=2), "at least 1"),
        (dict(h=4, d_per_cluster=[0], samples_per_cluster=[2], depth=2), "at least 1"),
        (dict(h=2, d_per_cluster=[3], samples_per_cluster=[4], depth=2), "exceeds height"),
        (dict(h=4, d_per_cluster=[2], samples_per_cluster=[3], depth=2, noise_sigma=-1), "noise"),
        (dict(h=4, d_per_cluster=[2], samples_per_cluster=[3], depth=2, seed=-1), "seed"),
        (
            dict(h=4, d_per_cluster=[2], samples_per_cluster=[3], depth=2, noise_sigma=np.nan),
            "noise",
        ),
        (
            dict(h=4, d_per_cluster=[2], samples_per_cluster=[3], depth=2, noise_sigma=np.inf),
            "noise",
        ),
        # counts follow one integer rule: no bools, no floats, integral or not
        (dict(h=4, d_per_cluster=[2.7], samples_per_cluster=[3], depth=2), "d_per_cluster"),
        (dict(h=4, d_per_cluster=[2], samples_per_cluster=[True], depth=2), "samples_per"),
        (dict(h=2.5, d_per_cluster=[2], samples_per_cluster=[3], depth=2), "h must be"),
        (dict(h=4, d_per_cluster=[2], samples_per_cluster=[3], depth=2.0), "depth must"),
        (dict(h=4, d_per_cluster=[2], samples_per_cluster=[3], depth=2, seed=1.5), "seed"),
        (dict(h=4, d_per_cluster=[2], samples_per_cluster=[3], depth=2, seed=False), "seed"),
    ],
)
def test_spec_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SynthSpec(**kwargs)


def test_shift_model_ignores_cluster_dims():
    SynthSpec(h=2, d_per_cluster=[9], samples_per_cluster=[4], depth=3, shift_model=True)


# -- synthetic generation ----------------------------------------------------


def test_generation_is_bitwise_deterministic():
    spec = SynthSpec(h=5, d_per_cluster=[2, 2], samples_per_cluster=[4, 3], depth=4, seed=11)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.tensor, b.tensor)
    assert np.array_equal(a.truth.labels, b.truth.labels)
    samples, labeled = generate_submodules(spec)
    assert np.array_equal(labeled.tensor, a.tensor)
    assert len(samples) == 2
    # numpy integer counts are taken, and read as the same Python integers
    np_spec = SynthSpec(
        h=np.int64(5), d_per_cluster=np.array([2, 2]), samples_per_cluster=[4, np.int32(3)],
        depth=4, seed=np.int64(11),
    )
    assert np_spec.d_per_cluster == (2, 2) and type(np_spec.samples_per_cluster[1]) is int
    assert np.array_equal(generate_synthetic(np_spec).tensor, a.tensor)


def test_truth_labels_match_cluster_sizes():
    spec = SynthSpec(h=4, d_per_cluster=[1, 2], samples_per_cluster=[3, 5], depth=3, seed=0)
    labeled = generate_synthetic(spec)
    assert isinstance(labeled, LabeledTensor)
    assert labeled.tensor.shape == (4, 8, 3)
    assert np.array_equal(labeled.truth.labels, [0, 0, 0, 1, 1, 1, 1, 1])
    assert labeled.truth.k == 2


def test_noiseless_points_lie_in_their_submodules():
    spec = SynthSpec(h=6, d_per_cluster=[2, 3], samples_per_cluster=[5, 4], depth=4, seed=1)
    samples, _ = generate_submodules(spec)
    for s in samples:
        assert _face_residual(s.points, s.generators) < 1e-10


def test_full_height_cluster_is_unconstrained():
    spec = SynthSpec(h=3, d_per_cluster=[3], samples_per_cluster=[4], depth=3, seed=2)
    samples, _ = generate_submodules(spec)
    assert _face_residual(samples[0].points, samples[0].generators) < 1e-10


def test_affine_offset_is_recorded_and_removable():
    spec = SynthSpec(
        h=5, d_per_cluster=[2], samples_per_cluster=[6], depth=3, affine=True, seed=3
    )
    samples, _ = generate_submodules(spec)
    s = samples[0]
    assert s.affine_offset is not None
    assert _face_residual(s.points - s.affine_offset, s.generators) < 1e-10
    assert _face_residual(s.points, s.generators) > 1e-3  # offset leaves the submodule


def test_noise_perturbs_tensor_but_not_truth():
    base = SynthSpec(h=4, d_per_cluster=[2], samples_per_cluster=[5], depth=3, seed=4)
    noisy = SynthSpec(
        h=4, d_per_cluster=[2], samples_per_cluster=[5], depth=3, seed=4, noise_sigma=0.5
    )
    a = generate_synthetic(base)
    b = generate_synthetic(noisy)
    assert not np.array_equal(a.tensor, b.tensor)
    assert np.array_equal(a.truth.labels, b.truth.labels)


def test_shift_model_points_are_shifted_prototypes():
    spec = SynthSpec(
        h=6, d_per_cluster=[1, 1], samples_per_cluster=[8, 8], depth=12,
        shift_model=True, seed=5,
    )
    samples, _ = generate_submodules(spec)
    for s in samples:
        proto = s.generators[:, 0, :]
        for j in range(s.points.shape[1]):
            p = s.points[:, j, :]
            corr = max(
                abs(float((p * np.roll(proto, shift, axis=1)).sum()))
                for shift in range(spec.depth)
            )
            corr /= np.linalg.norm(p) * np.linalg.norm(proto)
            assert corr > 0.98


def test_generator_rejection_gives_clear_error(monkeypatch):
    monkeypatch.setattr(data_mod, "is_generating_set", lambda y: False)
    spec = SynthSpec(h=4, d_per_cluster=[2], samples_per_cluster=[3], depth=2, seed=0)
    with pytest.raises(RuntimeError, match="100 attempts"):
        generate_submodules(spec)


# -- IDX loaders -------------------------------------------------------------


def _idx_image_bytes(values, n, rows, cols):
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + bytes(values)


def test_idx_images_scale_and_layout(tmp_path):
    values = list(range(18))  # 2 images of 3x3
    path = tmp_path / "imgs.idx"
    path.write_bytes(_idx_image_bytes(values, 2, 3, 3))
    t = load_idx_images(path)
    assert t.shape == (3, 2, 3)
    assert t[0, 0, 0] == 0.0
    assert t[1, 0, 2] == pytest.approx(5 / 255)
    assert t[2, 1, 2] == pytest.approx(17 / 255)


def test_idx_images_hold_one_float64_copy(tmp_path):
    raw = np.random.default_rng(5).integers(0, 256, (600, 28, 28), dtype=np.uint8)
    path = tmp_path / "imgs.idx"
    path.write_bytes(_idx_image_bytes(raw.tobytes(), 600, 28, 28))
    tracemalloc.start()
    try:
        t = load_idx_images(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(t, raw.astype(np.float64).transpose(1, 0, 2) / 255.0)
    assert t.flags.c_contiguous
    assert peak <= 1.25 * t.nbytes


def test_idx_labels_roundtrip(tmp_path):
    path = tmp_path / "labels.idx"
    path.write_bytes(struct.pack(">II", 0x00000801, 4) + bytes([3, 1, 2, 0]))
    assert np.array_equal(load_idx_labels(path), [3, 1, 2, 0])


def test_idx_error_paths(tmp_path):
    imgs = tmp_path / "imgs.idx"
    labels = tmp_path / "labels.idx"
    labels.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes([7]))
    with pytest.raises(FormatError, match="bad image magic 0x00000801 at offset 0"):
        load_idx_images(labels)
    imgs.write_bytes(_idx_image_bytes(range(18), 2, 3, 3))
    with pytest.raises(FormatError, match="bad label magic"):
        load_idx_labels(imgs)
    short = tmp_path / "short.idx"
    short.write_bytes(_idx_image_bytes(range(17), 2, 3, 3))
    with pytest.raises(FormatError, match="offset 16"):
        load_idx_images(short)
    short.write_bytes(struct.pack(">I", 0x00000803) + b"\x00")
    with pytest.raises(FormatError, match="truncated dimension header"):
        load_idx_images(short)
    short.write_bytes(b"\x00\x00\x08")
    with pytest.raises(FormatError, match="truncated header at offset 0"):
        load_idx_labels(short)


# -- PGM loader --------------------------------------------------------------


def _write_pgm(path, width, height, maxval, payload, comment=False):
    header = b"P5\n"
    if comment:
        header += b"# a comment\n"
    header += f"{width} {height}\n{maxval}\n".encode()
    path.write_bytes(header + payload)


def test_pgm_known_pixels(tmp_path):
    _write_pgm(tmp_path / "a.pgm", 2, 2, 255, bytes([0, 128, 255, 64]))
    t, names = load_pgm_dir(tmp_path)
    assert names == ["a.pgm"]
    assert t.shape == (2, 1, 2)
    assert np.allclose(t[:, 0, :], [[0, 128 / 255], [1.0, 64 / 255]])
    # every header spelling of a 3x2 8-bit image reads as the plain one
    pixels = bytes([0, 1, 2, 127, 128, 255])
    (tmp_path / "a.pgm").write_bytes(b"P5\n3 2\n255\n" + pixels)
    plain, _ = load_pgm_dir(tmp_path)
    for header in [
        b"P5\n# a\n3\n# b\n2 # c\n# d\n255\n",  # a comment before every token
        b"P5\r3 2\r255\r",
        b"P5 3 2 255\n",
        b"P5\r\n3 2\r\n# e\r\n255\n",
        b"P5\t3\t2\t255\t",
        b"P5\n03 002\n0255\n",
    ]:
        for tail in (b"", b"\ntrailing bytes"):
            (tmp_path / "a.pgm").write_bytes(header + pixels + tail)
            t, _ = load_pgm_dir(tmp_path)
            assert t.shape == (2, 1, 3)
            assert np.array_equal(t, plain), header + tail


def test_pgm_comment_and_16_bit(tmp_path):
    payload = struct.pack(">4H", 0, 65535, 256, 513)
    _write_pgm(tmp_path / "w.pgm", 2, 2, 65535, payload, comment=True)
    t, _ = load_pgm_dir(tmp_path)
    assert np.allclose(t[:, 0, :], [[0, 1.0], [256 / 65535, 513 / 65535]])


def test_pgm_sorted_order_and_ignores_other_files(tmp_path):
    _write_pgm(tmp_path / "b.pgm", 1, 1, 255, bytes([10]))
    _write_pgm(tmp_path / "a.pgm", 1, 1, 255, bytes([20]))
    (tmp_path / "notes.txt").write_text("ignored")
    t, names = load_pgm_dir(tmp_path)
    assert names == ["a.pgm", "b.pgm"]
    assert np.allclose(t[0, :, 0], [20 / 255, 10 / 255])


def test_pgm_error_paths(tmp_path):
    _write_pgm(tmp_path / "a.pgm", 2, 2, 255, bytes(4))
    _write_pgm(tmp_path / "b.pgm", 3, 3, 255, bytes(9))
    with pytest.raises(FormatError, match="differs"):
        load_pgm_dir(tmp_path)
    other = tmp_path / "p2"
    other.mkdir()
    (other / "x.pgm").write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(FormatError, match="P5"):
        load_pgm_dir(other)
    trunc = tmp_path / "trunc"
    trunc.mkdir()
    _write_pgm(trunc / "x.pgm", 2, 2, 255, bytes(3))
    with pytest.raises(FormatError, match="expected 4"):
        load_pgm_dir(trunc)
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(FormatError, match="no PGM files"):
        load_pgm_dir(empty)
    for raw, match in [
        (b"P5\n1 1\n255\xff", "no binary PGM header"),  # no whitespace byte before the raster
        (b"P5\n1 1\n255", "no binary PGM header"),
        (b"P5\n1 1 # no line end", "no binary PGM header"),
        (b"P5\n1 1\n-255\n\xff", "no binary PGM header"),
        (b"P2\n1 1\n255\n0", "P5"),
        (b"P5\n0 1\n255\n", "invalid PGM dimensions 0x1"),
        (b"P5\n1 1\n65536\n\x00\x00", "maxval 65536"),
    ]:
        (other / "x.pgm").write_bytes(raw)
        with pytest.raises(FormatError, match=match):
            load_pgm_dir(other)


@pytest.mark.parametrize(
    "header",
    [b"P5" + b" " * 10**5, b"P5\n" + b"# " * 10**5, b"P5 1 " + b"9" * 10**5 + b" 255\n"],
    ids=["whitespace", "comments", "digits"],
)
def test_pgm_crafted_header_is_refused_in_linear_time(tmp_path, header):
    # a header pattern with more than one reading of a byte backtracks
    # exponentially on such input; a 10**5-digit size would also exceed int()'s
    # digit limit with a ValueError instead of a FormatError
    (tmp_path / "x.pgm").write_bytes(header)
    start = time.perf_counter()
    with pytest.raises(FormatError, match="no binary PGM header"):
        load_pgm_dir(tmp_path)
    assert time.perf_counter() - start < 1.0


def test_pgm_decimate_and_crop(tmp_path):
    width, height = 480, 8
    rng = np.random.default_rng(0)
    payload = rng.integers(0, 256, width * height).astype(np.uint8).tobytes()
    _write_pgm(tmp_path / "a.pgm", width, height, 255, payload)
    full, _ = load_pgm_dir(tmp_path)
    assert full.shape == (8, 1, 480)
    cropped, _ = load_pgm_dir(tmp_path, crop=(30, 140))
    assert cropped.shape == (8, 1, 111)
    assert np.array_equal(cropped, full[:, :, 30:141])
    decimated, _ = load_pgm_dir(tmp_path, decimate=4)
    assert decimated.shape == (2, 1, 120)
    assert np.array_equal(decimated, full[::4, :, ::4])
    both, _ = load_pgm_dir(tmp_path, decimate=4, crop=(30, 115))
    assert both.shape == (2, 1, 86)
    with pytest.raises(ValueError, match="outside column range"):
        load_pgm_dir(tmp_path, crop=(0, 480))
    with pytest.raises(ValueError, match="decimate"):
        load_pgm_dir(tmp_path, decimate=0)


@pytest.mark.parametrize("decimate,crop", [(1, None), (4, (3, 17))])
def test_pgm_images_are_reduced_as_they_are_read(tmp_path, decimate, crop):
    # the stack of full-resolution images is never held: at most the result
    # and a few images are live at once
    height, width = 96, 84
    imgs = np.random.default_rng(6).integers(0, 256, (40, height, width), dtype=np.uint8)
    for i, img in enumerate(imgs):
        _write_pgm(tmp_path / f"{i:02d}.pgm", width, height, 255, img.tobytes())
    tracemalloc.start()
    try:
        t, _ = load_pgm_dir(tmp_path, decimate=decimate, crop=crop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = (imgs.transpose(1, 0, 2) / 255.0)[::decimate, :, ::decimate]
    if crop is not None:
        expected = expected[:, :, crop[0] : crop[1] + 1]
    assert np.array_equal(t, expected)
    assert t.flags.c_contiguous
    assert peak <= t.nbytes + 3 * height * width * 8


def test_pgm_crop_is_checked_on_the_first_image(tmp_path):
    # a crop past the last column is refused before a later file is read
    _write_pgm(tmp_path / "a.pgm", 4, 2, 255, bytes(8))
    (tmp_path / "b.pgm").write_bytes(b"not a PGM")
    with pytest.raises(ValueError, match="crop 1:4 outside column range 0..3"):
        load_pgm_dir(tmp_path, crop=(1, 4))


# -- clustering_error --------------------------------------------------------


def test_clustering_error_basics():
    same = np.array([0, 0, 1, 1, 2])
    assert clustering_error(same, same) == 0.0
    permuted = np.array([2, 2, 0, 0, 1])
    assert clustering_error(permuted, same) == 0.0
    ten = np.array([0] * 5 + [1] * 5)
    one_off = ten.copy()
    one_off[0] = 1
    assert clustering_error(one_off, ten) == pytest.approx(0.1)


def test_clustering_error_matches_exhaustive_permutations():
    rng = np.random.default_rng(1)
    pred = rng.integers(0, 3, 30)
    truth = rng.integers(0, 3, 30)
    best = min(
        float((np.array(perm)[pred] != truth).mean())
        for perm in itertools.permutations(range(3))
    )
    assert clustering_error(pred, truth) == pytest.approx(best)


def test_clustering_error_symmetry_and_relabel_invariance():
    rng = np.random.default_rng(2)
    pred = rng.integers(0, 4, 25)
    truth = rng.integers(0, 4, 25)
    assert clustering_error(pred, truth) == pytest.approx(clustering_error(truth, pred))
    relabeled = (pred + 2) % 4
    assert clustering_error(relabeled, truth) == pytest.approx(
        clustering_error(pred, truth)
    )


def test_clustering_error_takes_negative_and_sparse_labels():
    # only the distinct values matter: a label is never a matrix index, so -1
    # cannot wrap and 10**9 does not size the matrix
    pred = np.array([0, 0, 1, 1])
    assert clustering_error(pred, np.array([-1, -1, 1, 1])) == 0.0
    assert clustering_error(np.array([5, 5, 7, 7]), np.array([-1, -1, 1, 1])) == 0.0
    assert clustering_error(pred, np.array([10**9, 10**9, 3, 3])) == 0.0
    assert clustering_error(np.array([-1, 5, 7, 7]), np.array([5, 5, 7, 7])) == 0.25
    assert clustering_error(np.array([0, 1, 2, 2]), np.array([-1, -1, 1, 1])) == 0.25


def test_clustering_error_validates_lengths():
    with pytest.raises(ValueError, match="mismatch"):
        clustering_error(np.array([0, 1]), np.array([0]))
    with pytest.raises(ValueError, match="empty"):
        clustering_error(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 2\)"):
        clustering_error(np.array([[0, 1], [1, 0]]), np.array([0, 1, 1, 0]))
    with pytest.raises(ValueError, match="empty"):
        clustering_error([], [])
    # a float or bool label is refused, not truncated into another label
    with pytest.raises(ValueError, match="integers, got dtype float64"):
        clustering_error([0.2, 0.7], [0, 1])
    with pytest.raises(ValueError, match="integers, got dtype float64"):
        clustering_error([0, 0, 1, 1], [0.2, 0.7, 1.5, 1.9])
    with pytest.raises(ValueError, match="integers, got dtype bool"):
        clustering_error([True, False], [0, 1])
    assert clustering_error([3, 3, 4], np.array([1, 1, 0], dtype=np.uint8)) == 0.0


def _assignment_cases(kind, rng):
    # 120 integer matrices of one kind, each side 1 to 7
    for _ in range(120):
        r, c = (int(v) for v in rng.integers(1, 8, 2))
        if kind == "zeros":
            yield np.zeros((r, c), dtype=np.int64)
        elif kind == "ties":
            yield np.full((r, c), int(rng.integers(1, 5)), dtype=np.int64)
        elif kind == "row":
            yield rng.integers(0, 6, (1, c))
        elif kind == "column":
            yield rng.integers(0, 6, (r, 1))
        else:  # a small range of entries makes partial ties common
            yield rng.integers(0, int(rng.integers(1, 12)), (r, c))


@pytest.mark.parametrize("kind", ["zeros", "ties", "row", "column", "random"])
def test_max_assignment_matches_brute_force(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for w in _assignment_cases(kind, rng):
        best = oracles.max_assignment_brute(w)
        # more predicted than true labels, and the reverse
        assert data_mod._max_assignment(w) == best, w
        assert data_mod._max_assignment(w.T) == best, w


def test_max_assignment_finds_a_planted_matching():
    # off-diagonal counts <= 3 cannot pay for giving up a diagonal count >= 901,
    # so the permuted diagonal is the unique optimum
    rng = np.random.default_rng(5)
    n = 300
    w = rng.integers(0, 4, (n, n))
    diag = rng.integers(3 * n + 1, 4 * n, n)
    w[np.arange(n), np.arange(n)] = diag
    rows, cols = rng.permutation(n), rng.permutation(n)
    assert data_mod._max_assignment(w[rows][:, cols]) == int(diag.sum())


def test_max_assignment_is_fast_on_uniformly_random_labels():
    # without the greedy start and the searches' preference for a free column
    # among equally near ones, 300 labels per side on 3000 samples took
    # 0.6-1.1 s, and about 1270 labels per side on 2000 samples 6-9 s; with
    # them, 0.02-0.06 s each (seeds 900 and 901; this test draws 902)
    for labels, n in ((300, 3000), (2000, 2000)):
        rng = np.random.default_rng([902, labels])
        pred, truth = rng.integers(0, labels, n), rng.integers(0, labels, n)
        start = time.perf_counter()
        clustering_error(pred, truth)
        assert time.perf_counter() - start < 0.5, (labels, n)


# -- shift_images ------------------------------------------------------------


def test_shift_images_zero_is_identity():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((3, 4, 6))
    assert np.array_equal(shift_images(t, 0, seed=0), t)


def test_shift_images_matches_tube_product():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((3, 5, 7))
    out = shift_images(t, 3, seed=9)
    shifts = np.random.default_rng(9).integers(-3, 4, size=5)
    for j, s in enumerate(shifts):
        tube = ta.e_tube(7, int(s) % 7)[None, None, :]
        via_product = ta.tprod(t[:, j : j + 1, :], tube)
        assert np.abs(out[:, j : j + 1, :] - via_product).max() < 1e-12


def test_shift_images_rolls_each_slice_exactly():
    rng = np.random.default_rng(5)
    for d in (1, 2, 5, 28):
        t = rng.standard_normal((3, 6, d))
        for max_shift in range(d):
            out = shift_images(t, max_shift, seed=d)
            shifts = np.random.default_rng(d).integers(-max_shift, max_shift + 1, size=6)
            for j, s in enumerate(shifts):
                assert np.array_equal(out[:, j], np.roll(t[:, j], int(s), axis=1))


def test_shift_images_validates_range():
    t = np.zeros((2, 2, 4))
    with pytest.raises(ValueError, match="max_shift"):
        shift_images(t, 4, seed=0)
    with pytest.raises(ValueError, match="max_shift"):
        shift_images(t, -1, seed=0)


@pytest.mark.parametrize("max_shift", [1.5, 1.0, True])
def test_shift_images_refuses_bools_and_floats(max_shift):
    with pytest.raises(ValueError, match="max_shift"):
        shift_images(np.zeros((2, 2, 4)), max_shift, seed=0)
