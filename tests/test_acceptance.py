"""End-to-end acceptance suite.

Each test prints one `criterion N: PASS/FAIL (...)` line on the real stdout
(capture suspended for that line) and then asserts, so a plain pytest run
shows the scoreboard.  Numbered to match the shipped guarantees in the README.
"""

import glob
import gzip
import json
import os
import time

import numpy as np
import pytest

import oracles
from ssmc import cli
from ssmc import t_algebra as ta
from ssmc.data import SynthSpec, clustering_error, generate_submodules, generate_synthetic
from ssmc.solver import SolverConfig, affinity_from_tensor, solve_self_representation
from ssmc.spectral import spectral_cluster
from ssmc.t_algebra import write_tsr1
from ssmc.theory import SubmoduleSample, theorem3_check


_CAP = None


@pytest.fixture(autouse=True)
def _scoreboard(capfd):
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    with _CAP.disabled():
        print(f"criterion {num}: {status} ({detail})", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _pipeline_error(tensor, truth, lam_g, k, seed=0):
    w, _ = solve_self_representation(tensor, SolverConfig(lambda_g=lam_g))
    labels = spectral_cluster(affinity_from_tensor(w), k, seed)
    return clustering_error(labels, truth)


def test_criterion_1_product_paths_agree():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        h, l, k = rng.integers(1, 7, size=3)
        d = int(rng.integers(1, 9))
        a = rng.standard_normal((h, l, d))
        b = rng.standard_normal((l, k, d))
        c = ta.tprod(a, b)
        ref = oracles.tprod_bcirc_oracle(a, b)
        worst = max(worst, np.linalg.norm(c - ref) / max(1.0, np.linalg.norm(c)))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-10 and elapsed < 5.0,
        f"200 instances, max rel err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_circulant_spectrum_matches_materialized_svd():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        h, l = rng.integers(1, 6, size=2)
        d = int(rng.integers(1, 7))
        a = rng.standard_normal((h, l, d))
        vals = ta.bcirc_singular_values(a)
        ref = np.linalg.svd(oracles.bcirc(a), compute_uv=False)[: vals.size]
        worst = max(worst, float(np.abs(vals - ref).max()))
    _report(2, worst < 1e-8, f"50 tensors, max abs err {worst:.2e}")


def test_criterion_3_norm_inequalities_hold():
    rng = np.random.default_rng(3)
    violations = 0
    for _ in range(1000):
        h = int(rng.integers(1, 7))
        d = int(rng.integers(1, 9))
        x = rng.standard_normal((h, 1, d))
        lhs = ta.norm_fro(x) ** 2
        rhs = ta.norm_fro(ta.tprod(oracles.ttranspose(x), x))
        if lhs > rhs + 1e-10 * max(1.0, rhs):
            violations += 1
    for _ in range(1000):
        h, l, k = rng.integers(1, 6, size=3)
        d = int(rng.integers(1, 7))
        y = rng.standard_normal((h, l, d))
        a = rng.standard_normal((l, k, d))
        lhs = ta.norm_fro(ta.tprod(y, a))
        bound = ta.bcirc_singular_values(y)[0] * ta.norm_fro(a)
        if lhs > bound * (1.0 + 1e-10) + 1e-12:
            violations += 1
    _report(3, violations == 0, f"2x1000 instances, {violations} violations")


def test_criterion_4_affine_translation_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        h = int(rng.integers(2, 6))
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 6))
        y = rng.standard_normal((h, n, d))
        m = rng.standard_normal((h, 1, d))
        w = rng.standard_normal((n, n, d))
        idx = np.arange(n)
        w[idx, idx, :] = 0.0
        deficit = ta.e_tube(d, 0)[None, :] - w.sum(axis=0)  # (n, d)
        w += deficit[None, :, :] / (n - 1)
        w[idx, idx, :] = 0.0
        lhs = ta.tprod(y + m, w)  # every slice translated by m
        rhs = ta.tprod(y, w) + m
        worst = max(worst, np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs)))
    _report(4, worst < 1e-10, f"100 feasible tensors, max rel err {worst:.2e}")


def test_criterion_5_noiseless_recovery_at_benchmark_scale():
    spec = SynthSpec(
        h=28, d_per_cluster=[2] * 4, samples_per_cluster=[10] * 4, depth=28, seed=0
    )
    labeled = generate_synthetic(spec)
    start = time.perf_counter()
    errors = [
        _pipeline_error(labeled.tensor, labeled.truth, lam, k=4)
        for lam in (1e-2, 1.0, 1e2)
    ]
    elapsed = time.perf_counter() - start
    _report(
        5,
        min(errors) == 0.0 and elapsed < 120.0,
        f"28x40x28, errors {errors}, {elapsed:.1f} s",
    )


def _ista_depth_one(y, lam_g, max_iters=200000):
    """Proximal gradient for ``sum_ij |c_ij| + lam_g ||y - y c||_F^2`` with a
    zero diagonal, run until its lasso duality gap certifies the objective.

    Every 100 iterations the dual point ``theta = 2 lam_g (y - y c)`` is
    scaled, column by column, so that every off-diagonal ``|y_i^T theta_j|``
    is at most 1; the dual objective ``sum_j <theta_j, y_j> -
    ||theta_j||^2 / (4 lam_g)`` then bounds the optimum from below.  Returns
    ``(objective, iterations)`` once the gap is at most ``1e-12 max(1, P)``,
    or ``(None, max_iters)`` if it never is.
    """
    n = y.shape[1]
    gram = y.T @ y
    step = 1.0 / (2.0 * lam_g * np.linalg.eigvalsh(gram)[-1])
    off = ~np.eye(n, dtype=bool)
    c = np.zeros((n, n))
    for it in range(1, max_iters + 1):
        c = c - step * (-2.0 * lam_g) * (gram - gram @ c)
        np.fill_diagonal(c, 0.0)
        c = np.sign(c) * np.maximum(np.abs(c) - step, 0.0)
        if it % 100:
            continue
        resid = y - y @ c
        primal = np.abs(c).sum() + lam_g * (resid * resid).sum()
        theta = 2.0 * lam_g * resid
        corr = np.where(off, np.abs(y.T @ theta), 0.0).max(axis=0)
        theta *= 1.0 / np.maximum(corr, 1.0)
        dual = (theta * y).sum() - (theta * theta).sum() / (4.0 * lam_g)
        if primal - dual <= 1e-12 * max(1.0, primal):
            return primal, it
    return None, max_iters


def test_criterion_6_depth_one_reduces_to_reference_solver():
    rng = np.random.default_rng(6)
    cfg = SolverConfig(lambda_g=10.0, max_iters=20000, tol_rel=1e-12)
    worst = 0.0
    ref_iters = []
    for _ in range(5):
        y = rng.standard_normal((8, 6, 1))
        _, report = solve_self_representation(y, cfg)
        ref, iters = _ista_depth_one(y[:, :, 0], cfg.lambda_g)
        ref_iters.append(iters)
        if ref is None:
            _report(6, False, f"reference gap not certified within {iters} iterations")
        worst = max(worst, abs(report.objective - ref) / max(1.0, abs(ref)))
    _report(
        6,
        worst < 1e-4,
        f"5 instances, max rel objective gap {worst:.2e}, reference certified "
        f"to 1e-12 in {max(ref_iters)} iterations",
    )


def test_criterion_7_shift_robustness_vs_flattened_baseline():
    spec = SynthSpec(
        h=8, d_per_cluster=[1] * 3, samples_per_cluster=[10] * 3, depth=48,
        shift_model=True, seed=7,
    )
    labeled = generate_synthetic(spec)
    grid = (1e-2, 1.0, 1e2)
    tube_best = min(
        _pipeline_error(labeled.tensor, labeled.truth, lam, k=3) for lam in grid
    )
    flat = np.ascontiguousarray(
        np.transpose(labeled.tensor, (0, 2, 1)).reshape(8 * 48, 30, 1)
    )
    flat_best = min(
        _pipeline_error(flat, labeled.truth, lam, k=3) for lam in grid
    )
    _report(
        7,
        tube_best <= 0.1 and flat_best >= 0.3,
        f"tube-aware best {tube_best:.3f} <= 0.1, flattened best {flat_best:.3f} >= 0.3",
    )


def _load_maybe_gz(path, loader, tmp_path):
    if not path.endswith(".gz"):
        return loader(path)
    raw = gzip.open(path, "rb").read()
    target = tmp_path / os.path.basename(path)[:-3]
    target.write_bytes(raw)
    return loader(str(target))


@pytest.mark.skipif(
    not os.environ.get("SSMC_MNIST_DIR"),
    reason="set SSMC_MNIST_DIR to a directory of IDX files to run the digit benchmark",
)
def test_criterion_7_digit_images(tmp_path):
    from ssmc.data import load_idx_images, load_idx_labels

    root = os.environ["SSMC_MNIST_DIR"]
    img_path = sorted(
        glob.glob(os.path.join(root, "*idx3*")) + glob.glob(os.path.join(root, "*images*"))
    )[0]
    lab_path = sorted(
        glob.glob(os.path.join(root, "*idx1*")) + glob.glob(os.path.join(root, "*labels*"))
    )[0]
    images = _load_maybe_gz(img_path, load_idx_images, tmp_path)
    labels = _load_maybe_gz(lab_path, load_idx_labels, tmp_path)
    digits = (2, 4, 8)
    grid = (1e-2, 1e-1, 1.0, 1e1, 1e2)
    errors = []
    for seed in range(5):
        cols = []
        truth = []
        for c, digit in enumerate(digits):
            pool = np.flatnonzero(labels == digit)
            pick = np.random.default_rng([seed, digit]).choice(pool, 20, replace=False)
            cols.extend(pick)
            truth.extend([c] * 20)
        tensor = np.ascontiguousarray(images[:, cols, :])
        truth = np.array(truth)
        errors.append(
            min(_pipeline_error(tensor, truth, lam, k=3, seed=seed) for lam in grid)
        )
    mean_err = float(np.mean(errors))
    _report(
        "7 (images)", mean_err <= 0.4, f"per-seed best errors {errors}, mean {mean_err:.3f}"
    )


def _disjoint_row_clusters(rng, h, dims, per, depth):
    samples = []
    row = 0
    for d_c in dims:
        gens = np.zeros((h, d_c, depth))
        for j in range(d_c):
            gens[row + j, j, 0] = 1.0
        row += d_c
        points = ta.tprod(gens, rng.standard_normal((d_c, per, depth)))
        samples.append(SubmoduleSample(generators=gens, points=points))
    return samples


def test_criterion_8_recovery_condition_implies_block_support():
    rng = np.random.default_rng(8)
    checked = 0
    worst_ratio = 1.0
    while checked < 20:
        dims = [2] * int(rng.integers(2, 4))
        depth = int(rng.integers(3, 6))
        per = 4
        h = sum(dims) + int(rng.integers(0, 3))
        samples = _disjoint_row_clusters(rng, h, dims, per, depth)
        if not all(
            theorem3_check(samples, i, seed=checked, coherence_trials=16).holds
            for i in range(len(samples))
        ):
            continue
        tensor = np.concatenate([s.points for s in samples], axis=1)
        labels = np.repeat(np.arange(len(dims)), per)
        w, _ = solve_self_representation(tensor, SolverConfig(lambda_g=1e2))
        tube_norms = np.sqrt((w * w).sum(axis=2))
        in_block = tube_norms[labels[:, None] == labels[None, :]].sum()
        worst_ratio = min(worst_ratio, in_block / tube_norms.sum())
        checked += 1

    # near-identical submodules sit at coherence ~ 1; the condition is allowed
    # to fail there, so only count outcomes
    failed = 0
    for trial in range(20):
        gens = rng.standard_normal((5, 2, 4))
        a = SubmoduleSample(generators=gens, points=ta.tprod(gens, rng.standard_normal((2, 4, 4))))
        b = SubmoduleSample(generators=gens, points=ta.tprod(gens, rng.standard_normal((2, 4, 4))))
        if not theorem3_check([a, b], 0, seed=trial, coherence_trials=32).holds:
            failed += 1
    _report(
        8,
        worst_ratio > 0.999,
        f"20 passing instances, min in-block F1 share {worst_ratio:.6f}; "
        f"{failed}/20 coherent pairs violate the condition (no assertion)",
    )


def test_criterion_9_cli_outputs_are_byte_identical(tmp_path):
    spec = SynthSpec(
        h=6, d_per_cluster=[2, 2], samples_per_cluster=[6, 6], depth=4, seed=9
    )
    labeled = generate_synthetic(spec)
    tensor_path = tmp_path / "in.tsr1"
    truth_path = tmp_path / "truth.json"
    write_tsr1(tensor_path, labeled.tensor)
    truth_path.write_text(json.dumps([int(v) for v in labeled.truth.labels]))

    root = tmp_path / "out"
    root.mkdir()
    runs = [
        [
            "cluster", "--input", str(tensor_path), "--k", "2", "--seed", "1",
            "--truth", str(truth_path), "--out", str(root / "cluster.json"),
            "--affinity-out", str(root / "affinity.tsr1"),
        ],
        [
            "sweep", "--input", str(tensor_path), "--k", "2", "--seed", "1",
            "--grid", "1e-2,1e2", "--truth", str(truth_path),
            "--out", str(root / "sweep.json"),
        ],
        [
            "synth", "--h", "5", "--depth", "3", "--dims", "2,2",
            "--samples", "5,5", "--seed", "2", "--out", str(root / "synth.json"),
        ],
        [
            "check", "--h", "6", "--depth", "3", "--dims", "2,2",
            "--samples", "4,4", "--coherence-trials", "8", "--seed", "3",
            "--out", str(root / "check.json"),
        ],
    ]

    def run_all():
        for argv in runs:
            assert cli.main(argv) == 0
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    first = run_all()
    second = run_all()
    same = len(first) == 6 and first == second
    _report(9, same, f"{len(first)} files rewritten with identical flags, byte-compared")
