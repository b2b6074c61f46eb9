"""Theory-checker tests: generating sets, coherence, recovery condition, min-F1."""

import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from ssmc import t_algebra as ta
from ssmc import theory
from ssmc.data import SynthSpec, generate_submodules
from ssmc.solver import _RidgeInverse
from ssmc.theory import (
    SubmoduleSample,
    coherence,
    is_generating_set,
    min_f1_representation,
    theorem3_check,
)


def _first_face_gens(h, d, depth, rows):
    gens = np.zeros((h, d, depth))
    for j, r in enumerate(rows):
        gens[r, j, 0] = 1.0
    return gens


def _sample(gens, m, rng):
    d = gens.shape[1]
    depth = gens.shape[2]
    return SubmoduleSample(
        generators=gens, points=ta.tprod(gens, rng.standard_normal((d, m, depth)))
    )


# -- SubmoduleSample ---------------------------------------------------------


def test_sample_rejects_more_generators_than_rows():
    with pytest.raises(ValueError, match="exceeds"):
        SubmoduleSample(generators=np.ones((2, 3, 4)), points=np.ones((2, 1, 4)))


@pytest.mark.parametrize(
    "field,bad",
    [("generators", np.nan), ("points", np.inf), ("affine_offset", -np.inf)],
)  # fmt: skip
def test_sample_rejects_non_finite_values(field, bad):
    # NaN points used to reach LAPACK as "SVD did not converge"
    parts = {
        "generators": np.ones((4, 2, 3)),
        "points": np.ones((4, 5, 3)),
        "affine_offset": np.ones((4, 1, 3)),
    }
    parts[field][0, 0, 1] = bad
    with pytest.raises(ValueError, match=f"{field} contains non-finite values"):
        SubmoduleSample(**parts)


@pytest.mark.parametrize(
    "field,shape",
    [("points", (6, 3, 7)), ("points", (5, 3, 3)), ("points", (4, 3, 5)),
     ("affine_offset", (4, 2, 3)), ("affine_offset", (5, 1, 3)), ("affine_offset", (4, 1, 4)),
     ("generators", (4, 0, 3))],
)  # fmt: skip
def test_sample_rejects_points_or_offset_off_the_generators_shape(field, shape):
    # points of shape (6, 3, 7) with (5, 2, 4) generators used to be checked,
    # and the check reported holds, lhs and rhs for them; zero generators were
    # taken, and theorem3_check then failed with an IndexError
    parts = {"generators": np.ones((4, 2, 3)), "points": np.ones((4, 5, 3))}
    parts[field] = np.ones(shape)
    with pytest.raises(ValueError, match=field):
        SubmoduleSample(**parts)


def test_sample_dim_property():
    s = SubmoduleSample(generators=np.ones((4, 2, 3)), points=np.ones((4, 5, 3)))
    assert s.dim == 2


# -- is_generating_set -------------------------------------------------------


def test_random_gaussian_generators_generate():
    rng = np.random.default_rng(0)
    assert is_generating_set(rng.standard_normal((4, 2, 3)))


def test_zero_slice_breaks_generation():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((4, 2, 3))
    y[:, 1, :] = 0.0
    assert not is_generating_set(y)


def test_depth_constant_tubes_break_generation():
    rng = np.random.default_rng(2)
    y = np.repeat(rng.standard_normal((4, 2, 1)), 3, axis=2)  # flat along depth
    assert not is_generating_set(y)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
def test_both_checkers_apply_one_rank_rule(scale):
    # depth 2: rFFT faces diag(1e12, 1e3) and diag(1, 1e-5).  Each face alone
    # is well conditioned, but the second face's sigma_min lies below RANK_TOL
    # times the tensor's sigma_max, inside the round-off of its rFFT.  The two
    # checkers used to disagree here: a per-face rule called these generators
    # generating, while theorem3_check found them rank-deficient.  Depth 1,
    # singular values (1, 1, 1e-11): the ridge's per-face cut at 1e-12 kept
    # the third direction (rank 3) that both checkers call zero.  The ridge
    # keeps 2 directions in both
    f0, f1 = np.diag([1e12, 1e3]), np.diag([1.0, 1e-5])
    rng = np.random.default_rng(3)
    q_left, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    q_right, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    for y in [
        scale * np.stack([(f0 + f1) / 2, (f0 - f1) / 2], axis=2),
        scale * ((q_left * [1.0, 1.0, 1e-11]) @ q_right.T)[:, :, None],
    ]:
        assert not is_generating_set(y)
        report = theorem3_check([SubmoduleSample(generators=y, points=y)], 0)
        assert report.rank_deficient
        assert report.rhs == 0.0
        assert _RidgeInverse(ta._faces(y), 1.0).rank == 2


def test_generating_set_shape_guard():
    # the sample and the checker refuse a generator stack with one message
    for gens, message in [
        (np.ones((2, 3, 2)), "exceeds height"),
        (np.zeros((3, 0, 2)), "hold no lateral slice"),
    ]:
        with pytest.raises(ValueError, match=message):
            is_generating_set(gens)  # zero generators used to fail with an IndexError
        with pytest.raises(ValueError, match=message):
            SubmoduleSample(generators=gens, points=np.zeros((gens.shape[0], 1, 2)))


# -- coherence ---------------------------------------------------------------


def test_self_coherence_of_first_face_generator_is_one():
    gens = _first_face_gens(3, 1, 4, [0])
    s = SubmoduleSample(generators=gens, points=gens)
    assert abs(coherence(s, s, trials=8, seed=0) - 1.0) < 1e-10


def test_orthogonal_first_face_generators_have_zero_coherence():
    a = SubmoduleSample(generators=_first_face_gens(3, 1, 4, [0]), points=np.ones((3, 1, 4)))
    b = SubmoduleSample(generators=_first_face_gens(3, 1, 4, [1]), points=np.ones((3, 1, 4)))
    assert coherence(a, b, trials=8, seed=0) < 1e-10


def test_coherence_monotone_in_trials():
    rng = np.random.default_rng(3)
    a = _sample(rng.standard_normal((5, 2, 4)), 3, rng)
    b = _sample(rng.standard_normal((5, 2, 4)), 3, rng)
    # 20000 trials take two blocks at this shape
    assert 20000 > theory._BLOCK_ENTRIES // (5 * 4)
    estimates = [coherence(a, b, trials=t, seed=7) for t in (1, 5, 20, 60, 20000)]
    assert all(x <= y for x, y in zip(estimates, estimates[1:]))


@pytest.mark.parametrize("h,d_i,d_j,depth", [(5, 2, 2, 4), (8, 1, 3, 7), (6, 2, 3, 1)])
def test_coherence_matches_the_per_trial_reference(h, d_i, d_j, depth):
    # the same draws, scored one trial at a time through the dense t-product;
    # the sums run in another order, so equal to a few rounding errors
    rng = np.random.default_rng(16)
    gi, gj = rng.standard_normal((h, d_i, depth)), rng.standard_normal((h, d_j, depth))
    a, b = SubmoduleSample(gi, gi[:, :1]), SubmoduleSample(gj, gj[:, :1])
    for trials in (1, 3, 40):
        ref = oracles.coherence_per_trial(gi, gj, trials, [4, trials])
        assert abs(coherence(a, b, trials, [4, trials]) - ref) <= 1e-14 * ref


def test_coherence_does_not_depend_on_the_generators_scale():
    # at 1e160 the squares in the norms overflowed, and at 1e-160 every draw
    # fell under the old 1e-12 norm floor
    rng = np.random.default_rng(17)
    a = _sample(rng.standard_normal((5, 2, 4)), 3, rng)
    b = _sample(rng.standard_normal((5, 3, 4)), 3, rng)
    ref = coherence(a, b, trials=30, seed=1)
    for scale in (1e160, 1e-160, 2.0**-1000):
        big = SubmoduleSample(scale * a.generators, scale * a.points)
        small = SubmoduleSample(b.generators / scale, b.points / scale)
        assert abs(coherence(big, small, trials=30, seed=1) - ref) <= 1e-14 * ref
    assert coherence(SubmoduleSample(2.0**600 * a.generators, a.points), b, 30, 1) == ref


def test_coherence_does_not_depend_on_the_block(monkeypatch):
    rng = np.random.default_rng(13)
    h, depth = 28, 28
    a = _sample(rng.standard_normal((h, 2, depth)), 3, rng)
    b = _sample(rng.standard_normal((h, 3, depth)), 3, rng)
    assert 2100 > 6 * (theory._BLOCK_ENTRIES // (h * depth))  # 2100 trials take 7 blocks
    trial_counts = (1, 5, 50, 700, 2100)
    default = [coherence(a, b, trials=t, seed=2) for t in trial_counts]
    for block in (1, 7):
        monkeypatch.setattr(theory, "_BLOCK_ENTRIES", block * h * depth)
        assert [coherence(a, b, trials=t, seed=2) for t in trial_counts] == default


def test_coherence_peak_memory_does_not_grow_with_blocks():
    rng = np.random.default_rng(14)
    h, depth = 28, 28
    a = _sample(rng.standard_normal((h, 2, depth)), 3, rng)
    b = _sample(rng.standard_normal((h, 2, depth)), 3, rng)
    block = theory._BLOCK_ENTRIES // (h * depth)
    coherence(a, b, trials=1, seed=0)  # warm up, so that neither peak holds a first call's costs
    peaks = []
    for trials in (block, 3 * block):
        tracemalloc.start()
        try:
            coherence(a, b, trials=trials, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
    assert peaks[1] < 16 * 2**20


def test_coherence_refuses_zero_generators_and_mismatched_shapes():
    # all-zero generators used to fail with RuntimeError after 100 redraws
    rng = np.random.default_rng(15)
    a = _sample(rng.standard_normal((4, 2, 3)), 3, rng)
    zero = SubmoduleSample(generators=np.zeros((4, 2, 3)), points=np.zeros((4, 3, 3)))
    with pytest.raises(ValueError, match="zero-norm combination of generators"):
        coherence(a, zero, trials=4, seed=0)
    with pytest.raises(ValueError, match="zero-norm combination of generators"):
        coherence(zero, a, trials=4, seed=0)
    for shape in ((5, 2, 3), (4, 2, 4)):
        other = _sample(rng.standard_normal(shape), 3, rng)
        with pytest.raises(ValueError, match="shape mismatch"):
            coherence(a, other, trials=4, seed=0)


def test_coherence_bounds():
    rng = np.random.default_rng(4)
    depth = 5
    a = _sample(rng.standard_normal((4, 2, depth)), 3, rng)
    b = _sample(rng.standard_normal((4, 2, depth)), 3, rng)
    est = coherence(a, b, trials=40, seed=0)
    assert 0.0 <= est <= np.sqrt(depth) * (1.0 + 1e-12)


def test_coherence_below_grid_search_oracle():
    # exhaustive 100x100 angle grid over unit combinations of 2-dim submodules
    rng = np.random.default_rng(0)
    gi = rng.standard_normal((5, 2, 4))
    gj = rng.standard_normal((5, 2, 4))
    si = _sample(gi, 3, rng)
    sj = _sample(gj, 3, rng)
    thetas = np.linspace(0.0, np.pi, 100, endpoint=False)

    def combos(g):
        out = []
        for t in thetas:
            v = np.cos(t) * g[:, 0, :] + np.sin(t) * g[:, 1, :]
            out.append((v / np.linalg.norm(v))[:, None, :])
        return out

    grid = max(
        float(np.linalg.norm(ta.tubal_angle_cos(a, b)))
        for a in combos(gi)
        for b in combos(gj)
    )
    assert coherence(si, sj, trials=50, seed=0) <= grid + 1e-6


def test_coherence_rejects_bad_trial_count():
    s = SubmoduleSample(generators=np.ones((2, 1, 2)), points=np.ones((2, 1, 2)))
    with pytest.raises(ValueError, match="trials"):
        coherence(s, s, trials=0, seed=0)
    # a bool would run as 0 or 1 trials, a float fails inside range()
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {bad}"):
            coherence(s, s, trials=bad, seed=0)


# -- theorem3_check ----------------------------------------------------------


def test_orthogonal_clusters_satisfy_condition():
    rng = np.random.default_rng(5)
    a = _sample(_first_face_gens(6, 2, 4, [0, 1]), 4, rng)
    b = _sample(_first_face_gens(6, 2, 4, [2, 3]), 4, rng)
    report = theorem3_check([a, b], 0, seed=0)
    assert report.coherence_max == 0.0
    assert report.lhs == 0.0
    assert report.rhs > 0.0
    assert report.holds
    assert not report.rank_deficient


def test_duplicate_clusters_violate_condition():
    rng = np.random.default_rng(6)
    gens = rng.standard_normal((5, 2, 4))
    a = _sample(gens, 4, rng)
    b = _sample(gens, 4, rng)
    report = theorem3_check([a, b], 0, seed=0, coherence_trials=64)
    assert report.coherence_max > 0.9
    assert not report.holds


def test_single_cluster_has_zero_lhs():
    rng = np.random.default_rng(7)
    a = _sample(rng.standard_normal((5, 2, 4)), 4, rng)
    report = theorem3_check([a], 0, seed=0)
    assert report.lhs == 0.0
    assert report.holds


def test_zero_points_flag_rank_deficiency():
    rng = np.random.default_rng(8)
    a = SubmoduleSample(generators=rng.standard_normal((4, 2, 3)), points=np.zeros((4, 3, 3)))
    b = _sample(rng.standard_normal((4, 2, 3)), 3, rng)
    report = theorem3_check([a, b], 0, seed=0)
    assert report.rank_deficient
    assert report.rhs == 0.0
    assert not report.holds


def test_subtensor_search_is_exhaustive_below_budget():
    rng = np.random.default_rng(9)
    a = _sample(rng.standard_normal((5, 2, 3)), 6, rng)  # C(6,2) = 15 candidates
    report = theorem3_check([a], 0, subtensor_budget=200, seed=0)
    assert report.subtensors_searched == 15
    assert report.exhaustive
    capped = theorem3_check([a], 0, subtensor_budget=5, seed=0)
    assert capped.subtensors_searched == 5
    assert not capped.exhaustive
    assert theorem3_check([a], 0, subtensor_budget=15, seed=0).exhaustive
    assert capped.rhs <= report.rhs + 1e-12


def test_sampled_subtensors_are_distinct(monkeypatch):
    # 44 seeded draws of the C(10,2) = 45 candidates held only 28 distinct ones;
    # with one cluster every SVD the check takes is a subtensor's
    seen = []
    svd = np.linalg.svd

    def record(faces, *args, **kwargs):
        seen.append(faces.tobytes())
        return svd(faces, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", record)
    rng = np.random.default_rng(11)
    a = _sample(rng.standard_normal((5, 2, 3)), 10, rng)
    report = theorem3_check([a], 0, subtensor_budget=44, seed=0)
    assert not report.exhaustive
    assert report.subtensors_searched == 44
    assert len(seen) == len(set(seen)) == 44


def _searched_subsets(m, d, budget, seed, clusters):
    # the documented search: every subset, or distinct sorted seeded draws
    if math.comb(m, d) <= budget:
        return list(itertools.combinations(range(m), d))
    rng = np.random.default_rng([seed, clusters])
    subsets = []
    while len(subsets) < budget:
        idx = tuple(np.sort(rng.choice(m, size=d, replace=False)))
        if idx not in subsets:
            subsets.append(idx)
    return subsets


@pytest.mark.parametrize("budget", [200, 20], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("fixture", ["duplicated", "rank-one"])
def test_subtensor_search_matches_bcirc_reference(fixture, budget):
    rng = np.random.default_rng(17)
    h, depth, m = 6, 4, 10
    if fixture == "duplicated":  # every pair inside columns 0..4 repeats a slice
        points = _sample(rng.standard_normal((h, 2, depth)), m, rng).points
        points[:, 1:5, :] = points[:, :1, :]
    else:  # tube multiples of one slice: every subtensor has rank 1 per face
        base = rng.standard_normal((h, 1, depth))
        points = ta.tprod(base, rng.standard_normal((1, m, depth)))
    # at this scale the round-off sigma_min of a rank-deficient face is far
    # above RANK_TOL, so only a cut relative to sigma_max can refuse it
    points *= 1e9
    a = SubmoduleSample(generators=rng.standard_normal((h, 2, depth)), points=points)
    b = _sample(rng.standard_normal((h, 2, depth)), 6, rng)
    report = theorem3_check([a, b], 0, subtensor_budget=budget, seed=3, coherence_trials=8)

    subsets = _searched_subsets(m, 2, budget, 3, 2)
    full_rank = []
    for idx in subsets:
        vals = ta.bcirc_singular_values(points[:, list(idx), :])  # sorted, all faces
        if vals[-1] > theory.RANK_TOL * vals[0]:
            full_rank.append(float(vals[-1]))
    if fixture == "duplicated":
        assert 0 < len(full_rank) < len(subsets)  # both kinds were searched
    else:
        assert full_rank == []
    rhs = max(full_rank, default=0.0)
    assert report.exhaustive == (budget == 200)
    assert report.subtensors_searched == len(subsets)
    assert report.rhs == report.sigma_min_best == rhs
    assert report.rank_deficient == (not full_rank)
    assert report.holds == (report.lhs < rhs)
    assert report.sigma_max_rest == float(ta.bcirc_singular_values(b.points)[0])


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6])
def test_checkers_do_not_depend_on_scale(scale):
    # a floor of max(sigma_max, 1) used to make Gaussian generators x 1e-12
    # read as not generating, and this union x 1e-12 as rank-deficient
    g = np.random.default_rng(0).standard_normal((28, 2, 28))
    assert is_generating_set(scale * g)
    flat = np.repeat(g[:, :, :1], 28, axis=2)  # depth-constant: rank-deficient faces
    assert not is_generating_set(scale * flat)
    # the paper-scale union: four 2-dimensional submodules, 28x40x28
    spec = SynthSpec(h=28, d_per_cluster=[2] * 4, samples_per_cluster=[10] * 4, depth=28, seed=1)
    union = generate_submodules(spec)[0]
    scaled = [
        SubmoduleSample(generators=scale * s.generators, points=scale * s.points) for s in union
    ]
    assert all(is_generating_set(s.generators) for s in scaled)
    base = theorem3_check(union, 0)
    report = theorem3_check(scaled, 0)
    assert not report.rank_deficient
    assert report.coherence_max == pytest.approx(base.coherence_max, rel=1e-12)
    for name in ("holds", "rank_deficient", "exhaustive", "subtensors_searched"):
        assert getattr(report, name) == getattr(base, name), name
    for name in ("lhs", "rhs", "sigma_max_rest", "sigma_min_best"):
        assert getattr(report, name) == pytest.approx(scale * getattr(base, name), rel=1e-12)
    assert base.rhs == pytest.approx(65.574250137423, rel=1e-12)


@pytest.mark.parametrize("budget", [200, 5])
def test_theorem3_reads_offset_samples_as_their_linear_submodules(budget):
    """An affine sample's offset is subtracted before the subtensor search and
    ``sigma_max_rest``, as the coherence uses the linear generators: the report
    on offset samples is the report on the same samples with the offsets
    removed and ``affine_offset=None``, and close to the one on the points
    before the offsets were added.  A budget of 5 samples the subtensors."""
    spec = SynthSpec(
        h=8, d_per_cluster=[2] * 3, samples_per_cluster=[6] * 3, depth=6, affine=True, seed=3
    )
    offset_samples = generate_submodules(spec)[0]
    removed = [
        SubmoduleSample(generators=s.generators, points=s.points - s.affine_offset)
        for s in offset_samples
    ]
    # the offsets are as large as the points, so reading them in changes the report
    assert not np.allclose(offset_samples[0].points, removed[0].points, atol=0.1)
    rng = np.random.default_rng(4)
    clean, dirty = [], []
    for s in offset_samples:
        points = ta.tprod(s.generators, rng.standard_normal((s.dim, 6, spec.depth)))
        clean.append(SubmoduleSample(generators=s.generators, points=points))
        dirty.append(SubmoduleSample(s.generators, points + s.affine_offset, s.affine_offset))
    for i in range(len(offset_samples)):
        report = theorem3_check(offset_samples, i, subtensor_budget=budget)
        assert report == theorem3_check(removed, i, subtensor_budget=budget)
        near = theorem3_check(dirty, i, subtensor_budget=budget)
        base = theorem3_check(clean, i, subtensor_budget=budget)
        for name in ("holds", "rank_deficient", "exhaustive", "subtensors_searched"):
            assert getattr(near, name) == getattr(base, name), name
        for name in ("lhs", "rhs", "coherence_max", "sigma_max_rest"):
            assert getattr(near, name) == pytest.approx(getattr(base, name), rel=1e-12), name


def test_theorem3_validates_arguments():
    rng = np.random.default_rng(10)
    a = _sample(rng.standard_normal((5, 2, 3)), 4, rng)
    with pytest.raises(ValueError, match="at least one"):
        theorem3_check([], 0)
    with pytest.raises(ValueError, match="outside"):
        theorem3_check([a], 1)
    thin = SubmoduleSample(
        generators=rng.standard_normal((5, 3, 3)), points=rng.standard_normal((5, 2, 3))
    )
    with pytest.raises(ValueError, match="exceeds point count"):
        theorem3_check([thin], 0)
    empty = SubmoduleSample(generators=a.generators, points=np.zeros((5, 0, 3)))
    with pytest.raises(ValueError, match="cluster has no points"):
        theorem3_check([empty, a], 0)
    # one cluster: no coherence is estimated, so only the checker can refuse
    with pytest.raises(ValueError, match="subtensor_budget must be at least 1, got 0"):
        theorem3_check([a], 0, subtensor_budget=0)
    with pytest.raises(ValueError, match="coherence_trials must be at least 1, got 0"):
        theorem3_check([a], 0, coherence_trials=0)
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match=f"subtensor_budget must be at least 1, got {bad}"):
            theorem3_check([a], 0, subtensor_budget=bad)
        with pytest.raises(ValueError, match=f"coherence_trials must be at least 1, got {bad}"):
            theorem3_check([a], 0, coherence_trials=bad)


# -- min_f1_representation ---------------------------------------------------


def test_dictionary_member_has_cheap_representation():
    rng = np.random.default_rng(11)
    dictionary = rng.standard_normal((4, 3, 5))
    x = dictionary[:, :1, :].copy()
    a, _ = min_f1_representation(dictionary, x)
    assert a.shape == (3, 1, 5)
    assert ta.norm_fro(ta.tprod(dictionary, a) - x) <= 1e-8
    assert ta.norm_f1(a) <= 1.0 + 1e-6  # the unit tube at position 1 is feasible


def test_zero_target_gives_zero_coefficients():
    rng = np.random.default_rng(12)
    dictionary = rng.standard_normal((4, 3, 5))
    a, _ = min_f1_representation(dictionary, np.zeros((4, 1, 5)))
    assert np.abs(a).max() < 1e-12


def test_infeasible_target_is_rejected():
    gens = _first_face_gens(4, 2, 3, [0, 1])
    x = np.zeros((4, 1, 3))
    x[3, 0, 0] = 1.0  # outside the generated rows
    with pytest.raises(ValueError, match="not in generated submodule"):
        min_f1_representation(gens, x)


@pytest.mark.parametrize(
    "d_scale,x_scale",
    [(1.0, 1.0), (1.0, 1e-6), (1.0, 1e-10), (1.0, 1e-200), (1.0, 1e-300), (1.0, 1e300),
     (1e-300, 1e-300), (1e-300, 1.0), (1e-200, 1e-10), (1e200, 1e-10), (1e300, 1.0),
     (1e300, 1e300)],
)  # fmt: skip
def test_span_membership_does_not_depend_on_scale(d_scale, x_scale):
    # 68% of this target lies outside the span of the 4x2x5 dictionary.  An
    # absolute tol of 1e-8 accepted it at scales 1e-10 and 1e-200, and the
    # solve came back converged at relative residual 0.684
    rng = np.random.default_rng(0)
    dictionary = rng.standard_normal((4, 2, 5))
    outside = rng.standard_normal((4, 1, 5))
    inside = ta.tprod(dictionary, rng.standard_normal((2, 1, 5)))
    y = d_scale * dictionary
    with pytest.raises(ValueError, match="not in generated submodule"):
        min_f1_representation(y, x_scale * outside)
    a, report = min_f1_representation(y, x_scale * inside)
    assert report.converged
    unit = x_scale / d_scale  # the scale of a
    assert ta.norm_fro(ta.tprod(dictionary, a / unit) - inside) <= 1e-12 * ta.norm_fro(inside)


@pytest.mark.parametrize("off_span,accepted", [(1e-12, True), (1e-8, False)])
def test_span_membership_follows_the_rank_rule(off_span, accepted):
    # the dictionary spans the tensors on rows 0 and 1, so a part on rows 2
    # and 3 lies off the span; RANK_TOL = 1e-10 of the target's norm divides
    # the accepted parts from the refused ones
    rng = np.random.default_rng(5)
    dictionary = np.zeros((4, 2, 5))
    dictionary[:2] = rng.standard_normal((2, 2, 5))
    inside = ta.tprod(dictionary, rng.standard_normal((2, 1, 5)))
    part = np.zeros((4, 1, 5))
    part[2:] = rng.standard_normal((2, 1, 5))
    x = inside + off_span * ta.norm_fro(inside) / ta.norm_fro(part) * part
    assert theory.RANK_TOL == 1e-10
    if accepted:
        assert min_f1_representation(dictionary, x)[1].converged
    else:
        with pytest.raises(ValueError, match="not in generated submodule"):
            min_f1_representation(dictionary, x)


def test_target_shape_is_validated():
    rng = np.random.default_rng(13)
    dictionary = rng.standard_normal((4, 3, 5))
    with pytest.raises(ValueError, match="does not match"):
        min_f1_representation(dictionary, np.zeros((4, 1, 4)))


def test_repeated_slice_dictionary_gives_feasible_representation():
    # a repeated slice makes every Fourier face rank-deficient, so the
    # per-face pseudo-inverse must truncate the zero singular value
    rng = np.random.default_rng(14)
    base = rng.standard_normal((5, 3, 4))
    dictionary = np.concatenate([base, base[:, :1, :]], axis=1)
    coeffs = rng.standard_normal((3, 1, 4))
    x = ta.tprod(base, coeffs)
    a, _ = min_f1_representation(dictionary, x)
    assert a.shape == (4, 1, 4)
    assert ta.norm_fro(ta.tprod(dictionary, a) - x) <= 1e-8 * ta.norm_fro(x)
    known = np.concatenate([coeffs, np.zeros((1, 1, 4))], axis=0)
    assert ta.norm_f1(a) <= ta.norm_f1(known) + 1e-6


def test_min_f1_rejects_non_finite_input():
    rng = np.random.default_rng(16)
    dictionary = rng.standard_normal((4, 3, 5))
    x = ta.tprod(dictionary, rng.standard_normal((3, 1, 5)))
    x[1, 0, 2] = np.nan
    with pytest.raises(ValueError, match="target contains non-finite values"):
        min_f1_representation(dictionary, x)
    dictionary[0, 1, 0] = np.inf
    with pytest.raises(ValueError, match="dictionary contains non-finite values"):
        min_f1_representation(dictionary, np.zeros((4, 1, 5)))


@pytest.mark.parametrize(
    "x_scale,d_scale",
    [(1e-200, 1.0), (1e-8, 1.0), (1e-4, 1.0), (1e4, 1.0), (1.0, 1e3), (1.0, 1e6)],
)  # fmt: skip
def test_min_f1_does_not_depend_on_scale(x_scale, d_scale):
    # the program is homogeneous; a convergence floor of max(1, ||B0||) used
    # to take 10169 iterations at x_scale 1e-4 and to stop unconverged with 8
    # nonzero tubes at 1e-8, against 93 at scale 1, and a Frobenius ||B0||
    # underflows at 1e-200
    dictionary = np.random.default_rng(3).standard_normal((4, 8, 5))
    coef = np.zeros((8, 1, 5))
    coef[[1, 5]] = np.random.default_rng(4).standard_normal((2, 1, 5))
    x = ta.tprod(dictionary, coef)
    a1, base = min_f1_representation(dictionary, x)
    y, target = d_scale * dictionary, x_scale * x
    a, report = min_f1_representation(y, target)
    assert report.converged
    assert report.iterations == base.iterations
    unit = x_scale / d_scale  # the scale of a
    assert np.abs(a / unit - a1).max() <= 1e-12 * np.abs(a1).max()
    assert int((np.linalg.norm(a / unit, axis=2) > 1e-6).sum()) == 2
    # ||a||_F1 + ||target - y * a||^2, with y * a = x_scale * dictionary * (a / unit);
    # at x_scale 1e-200 the squared residual underflows to 0 in both
    residual = ta.norm_fro(x - ta.tprod(dictionary, a / unit))
    objective = unit * ta.norm_f1(a / unit) + x_scale**2 * residual**2
    assert report.objective == pytest.approx(objective, rel=1e-12)


@pytest.mark.parametrize(
    "d_scale,x_scale",
    [(1e-300, 1e-300), (1e-200, 1e-200), (1e-200, 1.0), (1e160, 1e160), (1e200, 1e200),
     (1e200, 1.0), (1e300, 1e300)],
)  # fmt: skip
def test_min_f1_holds_at_extreme_dictionary_scales(d_scale, x_scale):
    # the ridge weight 2 lambda_g s^2 was inf * 0 = nan once s^2 underflowed,
    # and overflowed with a warning at 1e160; the span check's squares
    # overflowed at 1e200 and refused an in-span target
    spec = SynthSpec(h=4, d_per_cluster=[1, 1], samples_per_cluster=[3, 3], depth=3, seed=0)
    dictionary = generate_submodules(spec)[0][0].points
    x = dictionary[:, :1, :]
    a1, base = min_f1_representation(dictionary, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, report = min_f1_representation(d_scale * dictionary, x_scale * x)
    assert report.converged
    assert report.iterations == base.iterations == 43
    unit = x_scale / d_scale  # the scale of a
    assert np.abs(a / unit - a1).max() <= 1e-15 * np.abs(a1).max()
    # the objective is the caller's, at exact scale: finite (about 1e-29) for
    # a dictionary at 1e200 and a target at 1, and inf only where its true
    # value (about 1e370 at 1e200 for both) is out of float64's range
    resid = ta.norm_fro(x_scale * x - ta.tprod(d_scale * dictionary, a))
    assert report.objective == pytest.approx(ta.norm_f1(a) + resid * resid, rel=1e-12)
    assert np.isinf(report.objective) == (x_scale >= 1e200)


@pytest.mark.parametrize("rank_deficient", [False, True])
def test_exact_fit_ridge_apply_is_the_null_space_projector(rank_deficient):
    # at lambda_g = inf the ridge apply of each face is I - pinv(Y_f) Y_f
    rng = np.random.default_rng(14)
    if rank_deficient:  # as in test_repeated_slice_dictionary_gives_feasible_representation
        base = rng.standard_normal((5, 3, 4))
        dictionary = np.concatenate([base, base[:, :1, :]], axis=1)
    else:
        dictionary = rng.standard_normal((4, 6, 5))
    yf = ta._faces(dictionary)
    m = yf.shape[2]
    eye = np.broadcast_to(np.eye(m, dtype=np.complex128), (yf.shape[0], m, m))
    for rho in (1.0, 8.0):
        ridge = _RidgeInverse(yf, np.inf)
        ridge.set_rho(rho)
        applied = ridge(eye.copy())
        assert np.abs(applied - (eye - np.linalg.pinv(yf, rcond=1e-12) @ yf)).max() <= 1e-12


def test_min_f1_ignores_faces_at_round_off():
    # a depth-constant dictionary: every face after face 0 is round-off of the
    # rFFT, about 2e-16.  A per-face cut kept those directions, and the start
    # B0 inverted them into O(1) coefficients: the solve reported 15.641.  The
    # optimum is the one tube c[0, 0, :] = 1, whose F1 norm is sqrt(5)
    dictionary = np.repeat(np.random.default_rng(0).standard_normal((6, 4, 1)), 5, axis=2)
    c = np.zeros((4, 1, 5))
    c[0, 0, :] = 1.0
    _, report = min_f1_representation(dictionary, ta.tprod(dictionary, c))
    assert report.converged
    assert report.objective == pytest.approx(math.sqrt(5), rel=1e-9)


def test_min_f1_warns_when_it_stops_unconverged(monkeypatch):
    rng = np.random.default_rng(15)
    dictionary = rng.standard_normal((4, 6, 5))
    x = ta.tprod(dictionary, rng.standard_normal((6, 1, 5)))
    monkeypatch.setattr(theory, "_MIN_F1", dataclasses.replace(theory._MIN_F1, max_iters=1))
    with pytest.warns(RuntimeWarning, match="stopped at max_iters=1 without converging"):
        a, _ = min_f1_representation(dictionary, x)
    assert a.shape == (6, 1, 5)
    assert ta.norm_fro(ta.tprod(dictionary, a) - x) <= 1e-8 * ta.norm_fro(x)


@pytest.mark.parametrize("seed", [100, 101])
def test_min_f1_matches_douglas_rachford_reference(seed):
    rng = np.random.default_rng(seed)
    h, depth, m = 4, 5, 3
    g = rng.standard_normal((h, 1, depth))
    tubes = rng.standard_normal((m, depth))
    dictionary = np.concatenate(
        [ta.tprod(g, tubes[i][None, None, :]) for i in range(m)], axis=1
    )
    x = ta.tprod(g, rng.standard_normal((1, 1, depth)))
    a, report = min_f1_representation(dictionary, x)
    assert report.converged
    f1 = ta.norm_f1(a)

    # independent reference: Douglas-Rachford on the materialized circulant
    # system, groups = spatial tubes, projection via LAPACK pseudoinverse
    big = oracles.bcirc(dictionary)
    b = oracles.unfold(x).ravel()
    pinv = np.linalg.pinv(big)

    def prox(u):
        grouped = u.reshape(depth, m).T
        nrm = np.linalg.norm(grouped, axis=1)
        factor = np.where(nrm > 1.0, 1.0 - 1.0 / np.where(nrm > 0, nrm, 1.0), 0.0)
        return (grouped * factor[:, None]).T.reshape(-1)

    def project(u):
        return u + pinv @ (b - big @ u)

    z = np.zeros(m * depth)
    for _ in range(50000):
        half = prox(z)
        z = z + project(2.0 * half - z) - half
    ref = project(prox(z))
    f1_ref = float(np.linalg.norm(ref.reshape(depth, m).T, axis=1).sum())
    assert abs(f1 - f1_ref) < 1e-3 * max(1.0, f1_ref)
