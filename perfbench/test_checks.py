"""Each output checker accepts a correct output and rejects a corrupted one.

Run with ``python3 -m pytest perfbench``.  The fixtures are built with numpy
alone, so these tests do not depend on the package under test.
"""

import numpy as np

import checks


def _fft_tprod(a, b):
    fa = np.fft.fft(a, axis=2)
    fb = np.fft.fft(b, axis=2)
    return np.real(np.fft.ifft(np.einsum("ilf,lkf->ikf", fa, fb), axis=2))


def _affine_representation(rng, h=5, n=6, d=4):
    w = rng.standard_normal((n, n, d))
    w[np.arange(n), np.arange(n), :] = 0.0
    # make every column's tube-sum the unit tube
    w[(np.arange(n) + 1) % n, np.arange(n), :] += -w.sum(axis=0)
    w[(np.arange(n) + 1) % n, np.arange(n), 0] += 1.0
    return rng.standard_normal((h, n, d)), w


def test_circular_tprod_matches_fft_product():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4, 5))
    b = rng.standard_normal((4, 2, 5))
    np.testing.assert_allclose(checks.circular_tprod(a, b), _fft_tprod(a, b), atol=1e-12)


def test_representation_check_accepts_exact_output():
    y, w = _affine_representation(np.random.default_rng(1))
    objective = checks.self_representation_objective(y, w, 2.0, 0.5)
    assert checks.check_representation(y, w, objective, 2.0, 0.5, affine=True) == []


def test_representation_check_rejects_nonzero_diagonal_tube():
    y, w = _affine_representation(np.random.default_rng(2))
    w[1, 1, 2] = 1e-3
    w[2, 1, 2] -= 1e-3  # keep the column sum, so only the diagonal is wrong
    objective = checks.self_representation_objective(y, w, 2.0, 0.5)
    problems = checks.check_representation(y, w, objective, 2.0, 0.5, affine=True)
    assert len(problems) == 1 and "diagonal" in problems[0]


def test_representation_check_rejects_broken_tube_sum_and_objective():
    y, w = _affine_representation(np.random.default_rng(3))
    objective = checks.self_representation_objective(y, w, 2.0, 0.5)
    w[0, 1, 0] += 1e-6
    problems = checks.check_representation(y, w, objective, 2.0, 0.5, affine=True)
    assert any("tube-sums" in p for p in problems)
    assert any("objective" in p for p in problems)


def test_brute_force_error_ignores_label_names():
    truth = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    assert checks.brute_force_error((truth + 1) % 4, truth, 4) == 0.0


def test_brute_force_error_rejects_swapped_labels():
    truth = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    pred = truth.copy()
    pred[[0, 2]] = pred[[2, 0]]
    assert checks.brute_force_error(pred, truth, 4) == 0.25


def _recovery_fixture(rng):
    samples = [rng.standard_normal((4, 3, 5)) for _ in range(3)]
    i = 1
    rest = np.concatenate([samples[0], samples[2]], axis=1)
    sigma_max_rest = max(
        np.linalg.svd(np.fft.fft(rest, axis=2)[:, :, f], compute_uv=False).max() for f in range(5)
    )
    best = 0.0
    for idx in ([0, 1], [0, 2], [1, 2]):
        faces = np.fft.fft(samples[i][:, idx, :], axis=2)
        best = max(best, min(np.linalg.svd(faces[:, :, f], compute_uv=False).min() for f in range(5)))
    lhs = 0.5 * sigma_max_rest
    report = {
        "dim": 2, "subtensors_searched": 3, "sigma_max_rest": sigma_max_rest,
        "sigma_min_best": best, "lhs": lhs, "rhs": best, "holds": lhs < best,
        "coherence_max": 0.5,
    }  # fmt: skip
    return report, samples, i


def test_recovery_check_accepts_exact_report():
    report, samples, i = _recovery_fixture(np.random.default_rng(4))
    assert checks.check_recovery(report, samples, i) == []


def test_recovery_check_rejects_perturbed_sigma():
    report, samples, i = _recovery_fixture(np.random.default_rng(5))
    for key in ("sigma_max_rest", "sigma_min_best"):
        bad = dict(report, **{key: report[key] * (1 + 1e-6)})
        problems = checks.check_recovery(bad, samples, i)
        assert any(p.startswith(key) for p in problems)


def test_recovery_check_rejects_inconsistent_verdict_and_coherence():
    report, samples, i = _recovery_fixture(np.random.default_rng(6))
    bad = dict(report, holds=not report["holds"], coherence_max=1.5, subtensors_searched=2)
    problems = checks.check_recovery(bad, samples, i)
    assert len(problems) == 3


def test_sweep_check_counts_the_stalled_row_and_rejects_bad_rows():
    y = np.ones((2, 3, 4))  # ||y||_F^2 = 24
    grid = (1e-2, 1.0, 1e2)
    rows = [
        {"lambda_g": 1e-2, "iterations": 1000, "objective": 0.2, "clustering_error": 0.5},
        {"lambda_g": 1.0, "iterations": 77, "objective": 5.0, "clustering_error": 0.0},
        {"lambda_g": 1e2, "iterations": 77, "objective": 9.0, "clustering_error": 0.0},
    ]
    assert checks.check_sweep(rows, grid, y, 1000, (1.0, 1e2)) == ([], [1e-2])
    rows[1]["objective"] = 30.0  # above the value at W = 0
    rows[2]["clustering_error"] = 0.025
    problems, failed = checks.check_sweep(rows, grid, y, 1000, (1.0, 1e2))
    assert len(problems) == 2 and failed == [1e-2, 1.0, 1e2]
    rows[2] = {"lambda_g": 1e2, "error_message": "boom"}
    problems, failed = checks.check_sweep(rows, grid, y, 1000, (1.0, 1e2))
    assert any("error_message" in p for p in problems) and 1e2 in failed
