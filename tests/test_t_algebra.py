"""Tensor-algebra tests: transform conventions, product oracles, norms, TSR1."""

import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from ssmc import t_algebra as ta


def _dft_direct(t):
    # O(d^2) reference transform along depth
    t = np.asarray(t, dtype=np.float64)
    d = t.shape[2]
    k = np.arange(d)
    twiddle = np.exp(-2j * np.pi * np.outer(k, k) / d)
    return np.tensordot(t, twiddle, axes=(2, 0))


# -- half-spectrum faces -----------------------------------------------------


def test_faces_depth_one_is_identity():
    t = np.array([[[5.0]]])
    assert np.array_equal(ta._faces(t), t.astype(complex))
    assert np.array_equal(ta._from_faces(ta._faces(t), 1), t)


def test_faces_depth_two_sum_and_difference():
    a, b = 2.0, 7.0
    f = ta._faces(np.array([[[a, b]]]))
    assert np.allclose(f[:, 0, 0], [a + b, a - b], atol=1e-15)


def test_faces_match_direct_dft_and_roundtrip():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((4, 3, 8))
    ref = np.moveaxis(_dft_direct(t), 2, 0)[:5]
    assert np.abs(ta._faces(t) - ref).max() < 1e-12 * np.abs(t).max()
    assert np.abs(ta._from_faces(ta._faces(t), 8) - t).max() < 1e-12


def test_parseval_scaling():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((3, 4, 7))
    assert abs(ta.norm_fro(t) - np.linalg.norm(_dft_direct(t)) / np.sqrt(7)) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 5, 6])
def test_half_spectrum_faces_roundtrip_and_weigh_to_spatial_norms(d):
    # the half stack is the first d // 2 + 1 faces of the full DFT, face first
    rng = np.random.default_rng(3)
    t = rng.standard_normal((3, 4, d))
    f = ta._faces(t)
    assert f.shape == (d // 2 + 1, 3, 4) and f.flags.c_contiguous
    assert np.abs(f - np.moveaxis(_dft_direct(t), 2, 0)[: d // 2 + 1]).max() < 1e-12
    assert np.abs(ta._from_faces(f, d) - t).max() < 1e-12
    sq = np.tensordot(ta._face_weights(d), np.abs(f) ** 2, axes=(0, 0))
    assert np.abs(sq - (t * t).sum(axis=2)).max() < 1e-12


# -- tprod and the block-circulant oracle ------------------------------------


def test_tprod_depth_one_is_matrix_multiply():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
    b = np.array([[1.0], [0.0]])[:, :, None]
    assert np.allclose(ta.tprod(a, b)[:, :, 0], [[1.0], [3.0]], atol=1e-14)


def test_tprod_identity_tensor():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((3, 2, 5))
    assert np.abs(ta.tprod(oracles.identity_tensor(3, 5), b) - b).max() < 1e-12


def test_tprod_matches_bcirc_oracle():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 2, 4))
    b = rng.standard_normal((2, 2, 4))
    c = ta.tprod(a, b)
    c_ref = oracles.tprod_bcirc_oracle(a, b)
    assert np.linalg.norm(c - c_ref) < 1e-10 * np.linalg.norm(c)


def test_tprod_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(3, 2, 4\) vs \(3, 2, 4\)"):
        ta.tprod(np.zeros((3, 2, 4)), np.zeros((3, 2, 4)))
    with pytest.raises(ValueError, match="shape mismatch"):
        ta.tprod(np.zeros((3, 2, 4)), np.zeros((2, 2, 5)))


def test_tprod_zero_annihilates():
    rng = np.random.default_rng(6)
    b = rng.standard_normal((2, 3, 4))
    assert np.abs(ta.tprod(np.zeros((3, 2, 4)), b)).max() < 1e-14


def test_oracle_shift_tube():
    shift = ta.e_tube(3, 1)[None, None, :]
    tube = np.array([1.0, 2.0, 3.0])[None, None, :]
    out = oracles.tprod_bcirc_oracle(shift, tube)
    assert np.allclose(out[0, 0], [3.0, 1.0, 2.0], atol=1e-14)


def test_oracle_size_guard():
    with pytest.raises(ValueError, match="oracle too large"):
        oracles.bcirc(np.zeros((70, 1, 70)))
    with pytest.raises(ValueError, match="oracle too large"):
        oracles.tprod_bcirc_oracle(np.zeros((70, 1, 70)), np.zeros((1, 1, 70)))


def test_bcirc_block_layout():
    a = np.arange(8, dtype=float).reshape(2, 2, 2)
    big = oracles.bcirc(a)
    assert np.array_equal(big[:2, :2], a[:, :, 0])
    assert np.array_equal(big[2:, :2], a[:, :, 1])  # block (1, 0) = slice 1
    assert np.array_equal(big[:2, 2:], a[:, :, 1])  # block (0, 1) = slice -1 mod 2
    assert np.array_equal(big[2:, 2:], a[:, :, 0])


def test_unfold_fold_roundtrip():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 4, 5))
    m = oracles.unfold(a)
    assert m.shape == (15, 4)
    assert np.array_equal(m[:3], a[:, :, 0])
    assert np.array_equal(oracles.fold(m, 3, 4, 5), a)
    with pytest.raises(ValueError, match="cannot fold"):
        oracles.fold(m, 3, 4, 4)


# -- transpose ---------------------------------------------------------------


def test_ttranspose_depth_one():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 2, 1))
    assert np.array_equal(oracles.ttranspose(a)[:, :, 0], a[:, :, 0].T)


def test_ttranspose_reverses_trailing_slices():
    a = np.arange(12, dtype=float).reshape(2, 2, 3)
    at = oracles.ttranspose(a)
    assert np.array_equal(at[:, :, 0], a[:, :, 0].T)
    assert np.array_equal(at[:, :, 1], a[:, :, 2].T)
    assert np.array_equal(at[:, :, 2], a[:, :, 1].T)


def test_ttranspose_involution_and_product_law():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 2, 4))
    b = rng.standard_normal((2, 3, 4))
    assert np.array_equal(oracles.ttranspose(oracles.ttranspose(a)), a)
    lhs = oracles.ttranspose(ta.tprod(a, b))
    rhs = ta.tprod(oracles.ttranspose(b), oracles.ttranspose(a))
    assert np.linalg.norm(lhs - rhs) < 1e-10 * max(1.0, np.linalg.norm(lhs))


# -- norms -------------------------------------------------------------------


def test_norm_f1_two_tube_example():
    a = np.zeros((2, 1, 3))
    a[0, 0] = [3.0, 4.0, 0.0]
    assert ta.norm_f1(a) == 5.0


def test_norms_coincide_for_single_tube():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((1, 1, 6))
    assert ta.norm_f1(a) == pytest.approx(ta.norm_fro(a), abs=1e-14)
    assert ta.norm_ff1(a) == pytest.approx(ta.norm_fro(a), abs=1e-14)


def test_group_norms_dominate_frobenius():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 3, 5))
    assert ta.norm_f1(a) >= ta.norm_fro(a)
    assert ta.norm_ff1(a) >= ta.norm_fro(a)
    assert ta.norm_f1(np.zeros((2, 2, 2))) == 0.0


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_norms_are_exact_at_any_scale(scale):
    # the squares of 1e200 overflow and those of 1e-200 underflow to 0; the
    # norms divide by a power of two first, so a power-of-two factor comes out
    # exactly and any other within rounding, with no warning
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 4, 5))
    p = 2.0 ** round(np.log2(scale))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm in (ta.norm_fro, ta.norm_f1, ta.norm_ff1):
            assert norm(p * a) == p * norm(a)
            assert abs(norm(scale * a) - scale * norm(a)) <= 1e-15 * scale * norm(a)
        ones = scale * np.ones((2, 2, 3))
        assert ta.norm_fro(ones) == pytest.approx(np.sqrt(12) * scale, rel=1e-15)
        assert ta.norm_f1(ones) == pytest.approx(4 * np.sqrt(3) * scale, rel=1e-15)
        assert ta.norm_ff1(ones) == pytest.approx(2 * np.sqrt(6) * scale, rel=1e-15)


@pytest.mark.parametrize("shape", [(0, 2, 3), (2, 0, 3), (2, 2, 0), (2, 3, 4)])
def test_norms_of_zero_and_empty_tensors_are_zero(shape):
    # an empty or all-zero tensor has no largest magnitude to scale by: the
    # exponent is 0, and each norm is exactly 0 with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm in (ta.norm_fro, ta.norm_f1, ta.norm_ff1):
            assert norm(np.zeros(shape)) == 0.0


def test_norm_beyond_float64_range_raises():
    with pytest.raises(OverflowError):
        ta.norm_f1(1e308 * np.ones((2, 2, 3)))


# -- tubal angles ------------------------------------------------------------


def _first_face_unit(h, d, row):
    a = np.zeros((h, 1, d))
    a[row, 0, 0] = 1.0
    return a


def test_tubal_angle_self_first_face_is_unit_tube():
    a = _first_face_unit(3, 4, 0)
    tube = ta.tubal_angle_cos(a, a)
    assert np.abs(tube - ta.e_tube(4, 0)).max() < 1e-12


def test_tubal_angle_orthogonal_first_face_is_zero():
    a = _first_face_unit(3, 4, 0)
    b = _first_face_unit(3, 4, 1)
    assert np.abs(ta.tubal_angle_cos(a, b)).max() < 1e-12


def test_tubal_angle_matches_bcirc_oracle_and_is_symmetric():
    rng = np.random.default_rng(12)
    for depth in (3, 1, 2, 4, 7, 28):
        a = rng.standard_normal((4, 1, depth))
        b = rng.standard_normal((4, 1, depth))
        tube = ta.tubal_angle_cos(a, b)
        ref = oracles.tprod_bcirc_oracle(
            oracles.ttranspose(a), b
        ) + oracles.tprod_bcirc_oracle(oracles.ttranspose(b), a)
        ref = ref[0, 0] / (2.0 * ta.norm_fro(a) * ta.norm_fro(b))
        assert np.abs(tube - ref).max() < 1e-10
        # swapping the operands conjugates each face product: bit-identical tubes
        assert np.array_equal(tube, ta.tubal_angle_cos(b, a))


def test_tubal_angle_rejects_zero_operand():
    a = _first_face_unit(2, 3, 0)
    with pytest.raises(ValueError, match="zero-norm"):
        ta.tubal_angle_cos(a, np.zeros((2, 1, 3)))


def test_tubal_angle_rejects_operands_that_are_not_oriented():
    a = _first_face_unit(2, 3, 0)
    with pytest.raises(ValueError, match=r"second operand must have shape \(h, 1, d\)"):
        ta.tubal_angle_cos(a, np.ones((2, 2, 3)))


def test_tubal_angle_is_exact_at_any_scale():
    # a power-of-two factor on either operand or both leaves the tube bit for
    # bit; 2**530 overflows the squares in unscaled norms, 2**-560 underflows them
    rng = np.random.default_rng(15)
    a, b = rng.standard_normal((2, 4, 1, 3))
    ref = ta.tubal_angle_cos(a, b)

    def scaled(c):
        return ((c * a, b), (a, c * b), (c * a, c * b))

    for k in (-1000, -560, 530, 1000):
        for x, y in scaled(2.0**k):
            assert np.array_equal(ta.tubal_angle_cos(x, y), ref)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1e160, 1e-170):
            for x, y in scaled(c):
                assert np.abs(ta.tubal_angle_cos(x, y) - ref).max() < 1e-15
        with pytest.raises(ValueError, match="zero-norm"):
            ta.tubal_angle_cos(1e-170 * a, np.zeros((4, 1, 3)))


# -- block-circulant spectrum ------------------------------------------------


def test_bcirc_singular_values_two_point_tube():
    vals = ta.bcirc_singular_values(np.array([[[3.0, 1.0]]]))
    assert np.allclose(vals, [4.0, 2.0], atol=1e-12)


def test_bcirc_singular_values_depth_one_is_plain_svd():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 3, 1))
    ref = np.linalg.svd(a[:, :, 0], compute_uv=False)
    assert np.abs(ta.bcirc_singular_values(a) - ref).max() < 1e-12


def test_bcirc_singular_values_match_materialized_svd():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((4, 3, 4))
    vals = ta.bcirc_singular_values(a)
    ref = np.linalg.svd(oracles.bcirc(a), compute_uv=False)[: vals.size]
    assert np.abs(vals - ref).max() < 1e-8
    assert (np.diff(vals) <= 0).all()


# -- small constructors ------------------------------------------------------


def test_e_tube_bounds():
    assert np.array_equal(ta.e_tube(4, 3), [0.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="outside depth range"):
        ta.e_tube(4, 4)
    with pytest.raises(ValueError, match="outside depth range"):
        ta.e_tube(4, -1)


@pytest.mark.parametrize("d,k", [(4, True), (4, 1.0), (4.0, 1), (True, 0), (4, np.float64(2))])
def test_e_tube_refuses_bools_and_floats(d, k):
    # a bool k indexed as a mask and set every entry; a float k raised IndexError
    with pytest.raises(ValueError, match="must be"):
        ta.e_tube(d, k)
    assert np.array_equal(ta.e_tube(np.int64(4), np.int64(1)), [0.0, 1.0, 0.0, 0.0])


# -- TSR1 container ----------------------------------------------------------


def test_tsr1_roundtrip_is_bitwise(tmp_path):
    rng = np.random.default_rng(15)
    t = rng.standard_normal((3, 5, 2))
    path = tmp_path / "t.tsr1"
    ta.write_tsr1(path, t)
    assert np.array_equal(ta.read_tsr1(path), t)


def test_tsr1_read_is_writable_and_holds_the_payload_once(tmp_path):
    # the payload used to be a read-only view of the file's bytes; a copy of it
    # would hold it twice
    t = np.random.default_rng(16).standard_normal((28, 400, 28))
    path = tmp_path / "t.tsr1"
    ta.write_tsr1(path, t)
    tracemalloc.start()
    try:
        back = ta.read_tsr1(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * t.nbytes
    back[0, 0, 0] = 5.0
    assert back[0, 0, 0] == 5.0 and np.array_equal(back[1:], t[1:])


def test_tsr1_header_layout(tmp_path):
    t = np.array([[[1.5]]])
    path = tmp_path / "t.tsr1"
    ta.write_tsr1(path, t)
    raw = path.read_bytes()
    assert raw[:4] == b"TSR1"
    assert raw[4:16] == (1).to_bytes(4, "little") * 3
    assert len(raw) == 16 + 8


def test_tsr1_error_paths(tmp_path):
    path = tmp_path / "bad.tsr1"
    path.write_bytes(b"TSR")
    with pytest.raises(ta.FormatError, match="truncated"):
        ta.read_tsr1(path)
    path.write_bytes(b"XXXX" + bytes(12))
    with pytest.raises(ta.FormatError, match="magic"):
        ta.read_tsr1(path)
    path.write_bytes(b"TSR1" + bytes(12))
    with pytest.raises(ta.FormatError, match="dimensions"):
        ta.read_tsr1(path)
    ta.write_tsr1(path, np.ones((2, 2, 2)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ta.FormatError, match="expected"):
        ta.read_tsr1(path)
    ta.write_tsr1(path, np.ones((1, 1, 1)))
    raw = bytearray(path.read_bytes())
    raw[16:24] = np.array([np.nan]).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ta.FormatError, match="non-finite"):
        ta.read_tsr1(path)


@pytest.mark.parametrize(
    "shape,message",
    [((0, 2, 2), "dimensions"), ((2, 0, 2), "dimensions"), ((2, 2, 0), "dimensions"),
     ((2, 2), "3-dimensional")],
)  # fmt: skip
def test_tsr1_write_refuses_what_read_refuses_before_creating_the_file(tmp_path, shape, message):
    # a zero dimension used to be written as a 16-byte file that read_tsr1 refuses
    path = tmp_path / "t.tsr1"
    with pytest.raises(ValueError, match=message):
        ta.write_tsr1(path, np.ones(shape))
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tsr1_write_refuses_non_finite_before_creating_the_file(tmp_path, bad):
    path = tmp_path / "t.tsr1"
    t = np.ones((2, 2, 2))
    t[1, 0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ta.write_tsr1(path, t)
    assert not path.exists()
