"""Command-line driver tests: exit codes, payload shape, determinism."""

import argparse
import json
import logging
import struct
from dataclasses import fields

import numpy as np
import pytest

from ssmc import cli, solver
from ssmc.data import SynthSpec, generate_synthetic
from ssmc.t_algebra import read_tsr1, write_tsr1


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejection path
        return exc.code


@pytest.fixture()
def two_cluster_files(tmp_path):
    spec = SynthSpec(
        h=6, d_per_cluster=[2, 2], samples_per_cluster=[6, 6], depth=4, seed=0
    )
    labeled = generate_synthetic(spec)
    tensor_path = tmp_path / "data.tsr1"
    truth_path = tmp_path / "truth.json"
    write_tsr1(tensor_path, labeled.tensor)
    truth_path.write_text(json.dumps([int(v) for v in labeled.truth.labels]))
    return str(tensor_path), str(truth_path)


# -- cluster -----------------------------------------------------------------


def test_cluster_end_to_end(two_cluster_files, tmp_path, capsys):
    tensor_path, truth_path = two_cluster_files
    out = tmp_path / "result.json"
    aff = tmp_path / "aff.tsr1"
    code = run_cli(
        [
            "cluster", "--input", tensor_path, "--k", "2", "--lambda-g", "100",
            "--truth", truth_path, "--out", str(out), "--affinity-out", str(aff),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "ssmc/1"
    assert payload["command"] == "cluster"
    assert len(payload["labels"]) == 12
    assert payload["clustering_error"] == 0.0
    assert payload["solver_report"]["iterations"] >= 1
    assert "timings" not in payload["solver_report"]  # wall-clock, not deterministic
    report = payload["solver_report"]
    assert len(report["rho_history"]) == report["iterations"]
    assert len(report["primal_history"]) == len(report["dual_history"]) == report["iterations"]
    assert json.loads(out.read_text()) == payload
    m = read_tsr1(aff)[:, :, 0]
    assert m.shape == (12, 12)
    assert np.array_equal(m, m.T)
    assert (np.diag(m) == 0).all()


def test_cluster_scores_negative_truth_labels(two_cluster_files, tmp_path, capsys):
    # the same clustering scored against truth labels {-1, 1} in place of {0, 1}
    tensor_path, truth_path = two_cluster_files
    shifted = tmp_path / "shifted.json"
    truth = json.loads((tmp_path / "truth.json").read_text())
    shifted.write_text(json.dumps([2 * v - 1 for v in truth]))
    argv = ["cluster", "--input", tensor_path, "--k", "2", "--lambda-g", "100"]
    assert run_cli(argv + ["--truth", truth_path]) == 0
    assert json.loads(capsys.readouterr().out)["clustering_error"] == 0.0
    assert run_cli(argv + ["--truth", str(shifted)]) == 0
    assert json.loads(capsys.readouterr().out)["clustering_error"] == 0.0


def test_cluster_accepts_idx_input(tmp_path, capsys):
    path = tmp_path / "imgs.idx"
    rng = np.random.default_rng(0)
    path.write_bytes(
        struct.pack(">IIII", 0x00000803, 3, 4, 4)
        + rng.integers(1, 256, 48).astype(np.uint8).tobytes()
    )
    code = run_cli(["cluster", "--input", str(path), "--format", "idx", "--k", "2"])
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["labels"]) == 3


def test_cluster_accepts_pgmdir_with_decimate_and_crop(tmp_path, capsys):
    rng = np.random.default_rng(1)
    for i in range(4):
        img = rng.integers(0, 256, (8, 12)).astype(np.uint8)
        (tmp_path / f"im{i}.pgm").write_bytes(b"P5\n12 8\n255\n" + img.tobytes())
    code = run_cli(
        [
            "cluster", "--input", str(tmp_path), "--format", "pgmdir",
            "--decimate", "2", "--crop", "1:4", "--k", "2",
        ]
    )
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["labels"]) == 4


def test_cluster_data_errors(two_cluster_files, tmp_path):
    tensor_path, _ = two_cluster_files
    assert run_cli(["cluster", "--input", str(tmp_path / "missing.tsr1"), "--k", "2"]) == 2
    bad = tmp_path / "bad.tsr1"
    bad.write_bytes(b"XXXX" + bytes(12))
    assert run_cli(["cluster", "--input", str(bad), "--k", "2"]) == 2
    short_truth = tmp_path / "t.json"
    short_truth.write_text("[0, 1]")
    assert (
        run_cli(
            ["cluster", "--input", tensor_path, "--k", "2", "--truth", str(short_truth)]
        )
        == 2
    )


def test_cluster_parameter_errors(two_cluster_files):
    tensor_path, _ = two_cluster_files
    assert run_cli(["cluster", "--input", tensor_path, "--k", "99"]) == 3
    assert run_cli(["cluster", "--input", tensor_path, "--k", "0"]) == 3
    assert run_cli(["cluster", "--input", tensor_path, "--k", "2", "--lambda-g", "0"]) == 3
    assert run_cli(["cluster", "--input", tensor_path, "--k", "2", "--decimate", "2"]) == 3
    assert run_cli(["cluster", "--input", tensor_path, "--k", "2", "--no-such-flag"]) == 3
    assert run_cli(["cluster", "--k", "2"]) == 3  # --input is required


@pytest.mark.parametrize(
    "flag,value", [("--lambda-g", "inf"), ("--lambda-h", "nan"), ("--tol-rel", "inf")]
)
def test_non_finite_solver_values_are_parameter_errors(two_cluster_files, capsys, flag, value):
    tensor_path, _ = two_cluster_files
    assert run_cli(["cluster", "--input", tensor_path, "--k", "2", flag, value]) == 3
    assert "must be finite" in capsys.readouterr().err


def test_crop_errors_surface_as_parameter_errors(tmp_path):
    (tmp_path / "a.pgm").write_bytes(b"P5\n4 2\n255\n" + bytes(8))  # 4 pixels wide
    base = ["cluster", "--input", str(tmp_path), "--format", "pgmdir", "--k", "1"]
    assert run_cli(base + ["--crop", "notarange"]) == 3
    assert run_cli(base + ["--crop", "4:1"]) == 3
    assert run_cli(base + ["--crop", "2:9"]) == 3  # past the last column
    assert run_cli(base + ["--decimate", "0"]) == 3


# -- sweep -------------------------------------------------------------------


def test_sweep_single_point_matches_cluster(two_cluster_files, tmp_path, capsys):
    tensor_path, truth_path = two_cluster_files
    code = run_cli(
        ["cluster", "--input", tensor_path, "--k", "2", "--lambda-g", "50",
         "--truth", truth_path]
    )
    assert code == 0
    cluster_payload = json.loads(capsys.readouterr().out)
    code = run_cli(
        ["sweep", "--input", tensor_path, "--k", "2", "--grid", "50",
         "--truth", truth_path]
    )
    assert code == 0
    sweep_payload = json.loads(capsys.readouterr().out)
    row = sweep_payload["rows"][0]
    assert row["lambda_g"] == 50.0
    assert row["objective"] == cluster_payload["solver_report"]["objective"]
    assert row["iterations"] == cluster_payload["solver_report"]["iterations"]
    assert row["clustering_error"] == cluster_payload["clustering_error"]


def test_sweep_error_column_varies_across_grid(tmp_path, capsys):
    spec = SynthSpec(
        h=6, d_per_cluster=[2, 2], samples_per_cluster=[8, 8], depth=6,
        noise_sigma=1.5, seed=1,
    )
    labeled = generate_synthetic(spec)
    tensor_path = tmp_path / "noisy.tsr1"
    truth_path = tmp_path / "truth.json"
    write_tsr1(tensor_path, labeled.tensor)
    truth_path.write_text(json.dumps([int(v) for v in labeled.truth.labels]))
    out = tmp_path / "sweep.json"
    code = run_cli(
        [
            "sweep", "--input", str(tensor_path), "--k", "2",
            "--grid", "1e-8,1e-2,1e2", "--truth", str(truth_path), "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    errors = [row["clustering_error"] for row in payload["rows"]]
    assert len(errors) == 3
    assert len(set(errors)) > 1
    csv_text = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv_text[0] == (
        "lambda_g,clustering_error,iterations,objective,converged,error_message"
    )
    assert len(csv_text) == 4


def test_sweep_csv_replaces_only_the_extension(two_cluster_files, tmp_path, capsys):
    # a dot in a directory name is not the extension's
    tensor_path, _ = two_cluster_files
    (tmp_path / "runs.d").mkdir()
    out = tmp_path / "runs.d" / "sweep"
    argv = ["sweep", "--input", tensor_path, "--k", "2", "--grid", "1", "--out", str(out)]
    assert run_cli(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert json.loads(out.read_text()) == payload
    assert (tmp_path / "runs.d" / "sweep.csv").read_text().startswith("lambda_g,")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.tsr1", "runs.d", "truth.json"]


def test_sweep_refuses_an_out_its_csv_would_overwrite(
    two_cluster_files, tmp_path, monkeypatch, capsys
):
    def no_solve(*args):
        raise AssertionError("solved before --out was checked")

    monkeypatch.setattr(cli, "solve_path", no_solve)
    tensor_path, _ = two_cluster_files
    out = tmp_path / "res.csv"
    argv = ["sweep", "--input", tensor_path, "--k", "2", "--grid", "1", "--out", str(out)]
    assert run_cli(argv) == cli.EXIT_PARAM
    assert "would be overwritten by the sweep's CSV" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_grid_validation(two_cluster_files):
    tensor_path, _ = two_cluster_files
    base = ["sweep", "--input", tensor_path, "--k", "2"]
    assert run_cli(base + ["--grid", ""]) == 3
    assert run_cli(base + ["--grid", "1,abc"]) == 3
    assert run_cli(base) == 3  # --grid is required


def test_sweep_records_per_row_failures(two_cluster_files, capsys):
    tensor_path, _ = two_cluster_files
    code = run_cli(["sweep", "--input", tensor_path, "--k", "2", "--grid=-1,10"])
    assert code == 0  # sweep continues past a bad grid point
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert "error_message" in rows[0] and "lambda_g" in rows[0]
    assert rows[1]["iterations"] >= 1


def test_sweep_takes_one_rfft_and_one_svd(two_cluster_files, monkeypatch, capsys):
    tensor_path, _ = two_cluster_files
    calls = {"faces": 0, "svd": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(solver, "_faces", counted("faces", solver._faces))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    code = run_cli(["sweep", "--input", tensor_path, "--k", "2", "--grid", "1e-2,1,1e2"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert all(row["converged"] for row in rows)
    assert calls == {"faces": 1, "svd": 1}


def test_sweep_warm_starts_past_an_error_row(two_cluster_files, capsys):
    # the 10 row starts from the 1 row's solve, not from zero
    tensor_path, _ = two_cluster_files
    assert run_cli(["sweep", "--input", tensor_path, "--k", "2", "--grid", "1,-1,10"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["lambda_g"] for row in rows] == [1.0, -1.0, 10.0]
    assert "lambda_g must be positive" in rows[1]["error_message"]
    assert run_cli(["cluster", "--input", tensor_path, "--k", "2", "--lambda-g", "10"]) == 0
    cold = json.loads(capsys.readouterr().out)["solver_report"]
    assert rows[2]["converged"]
    assert 2 <= rows[2]["iterations"] < cold["iterations"]


@pytest.mark.parametrize("command", ["cluster", "sweep"])
@pytest.mark.parametrize(
    "labels", [[[0]] * 6 + [[1]] * 6, [0.5] * 6 + [1.5] * 6], ids=["nested", "non-integer"]
)
def test_truth_labels_must_be_flat_integers(
    two_cluster_files, tmp_path, monkeypatch, capsys, command, labels
):
    # refused as a data error before any solve; a nested list used to fail after
    # the solve, and 0.5 and 1.5 used to be truncated to labels 0 and 1
    def no_solve(*args):
        raise AssertionError("solved before the truth labels were checked")

    monkeypatch.setattr(cli, "solve_path", no_solve)
    monkeypatch.setattr(cli, "solve_self_representation", no_solve)
    tensor_path, _ = two_cluster_files
    truth = tmp_path / "bad_truth.json"
    truth.write_text(json.dumps(labels))
    argv = [command, "--input", tensor_path, "--k", "2", "--truth", str(truth)]
    if command == "sweep":
        argv += ["--grid", "1,10"]
    assert run_cli(argv) == cli.EXIT_DATA
    assert "truth labels must be a flat JSON list of integers" in capsys.readouterr().err


def test_cluster_refuses_input_beyond_physical_memory(tmp_path, capsys):
    # the solve's n x n state for n = 200000 would need terabytes
    path = tmp_path / "wide.tsr1"
    write_tsr1(path, np.ones((1, 200000, 2)))
    assert run_cli(["cluster", "--input", str(path), "--k", "2"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "ssmc cluster: data error: n=200000 samples at depth d=2 need about" in err
    assert "GB of physical memory" in err


_SOLVER_FLAGS = [
    "--lambda-g", "2.5", "--lambda-h", "0.25", "--affine", "--normalize-columns",
    "--max-iters", "7", "--tol-abs", "1e-5", "--tol-rel", "1e-3",
]


@pytest.mark.parametrize(
    "command",
    [["cluster", "--input", "x", "--k", "2"], ["sweep", "--input", "x", "--k", "2", "--grid", "1"],
     ["synth"]],
    ids=["cluster", "sweep", "synth"],
)
def test_solver_flags_map_to_their_config_fields(command):
    parser = cli.build_parser()
    defaults = cli._solver_config(parser.parse_args(command))
    cfg = cli._solver_config(parser.parse_args(command + _SOLVER_FLAGS))
    expected = solver.SolverConfig(
        lambda_g=2.5, lambda_h=0.25, affine=True, max_iters=7, tol_abs=1e-5, tol_rel=1e-3,
        normalize_columns=True,
    )
    assert cfg == expected
    assert all(
        getattr(cfg, f.name) != getattr(defaults, f.name) for f in fields(solver.SolverConfig)
    )


def test_solver_flags_are_exactly_the_config_fields(capsys):
    parser = argparse.ArgumentParser()
    cli._add_solver_args(parser)
    dests = {action.dest for action in parser._actions} - {"help"}
    assert dests == {f.name for f in fields(solver.SolverConfig)}
    # the ADMM penalty starts at 1 and adapts by residual balancing; no flag sets it
    assert run_cli(["synth", "--rho", "1"]) == 3
    assert "unrecognized arguments: --rho 1" in capsys.readouterr().err


def test_unconverged_solve_is_reported(two_cluster_files, tmp_path, capsys):
    tensor_path, _ = two_cluster_files
    out = tmp_path / "sweep.json"
    base = ["--input", tensor_path, "--k", "2", "--max-iters", "1"]
    assert run_cli(["sweep"] + base + ["--grid", "1,10", "--out", str(out)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["converged"] for row in rows] == [False, False]
    csv_rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert [line.split(",")[4] for line in csv_rows] == ["False", "False"]
    assert run_cli(["cluster"] + base) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["solver_report"]["converged"] is False
    assert "solver stopped at max_iters=1 without converging" in payload["warnings"]


# -- synth -------------------------------------------------------------------


SYNTH_ARGS = [
    "synth", "--h", "6", "--depth", "4", "--dims", "2,2", "--samples", "5,5",
    "--lambda-g", "100", "--seed", "3",
]


def test_synth_reports_error_and_runtime(tmp_path, capsys):
    out = tmp_path / "synth.json"
    code = run_cli(SYNTH_ARGS + ["--out", str(out)])
    assert code == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["clustering_error"] == 0.0
    assert shown["k"] == 2  # defaults to the number of clusters
    assert shown["n"] == 10
    assert shown["runtime_seconds"] > 0
    stored = json.loads(out.read_text())
    assert "runtime_seconds" not in stored
    shown.pop("runtime_seconds")
    assert stored == shown


def test_synth_output_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(SYNTH_ARGS + ["--out", str(a)]) == 0
    assert run_cli(SYNTH_ARGS + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_parameter_validation():
    assert run_cli(["synth", "--dims", "2,2", "--samples", "5"]) == 3
    assert run_cli(["synth", "--dims", "x", "--samples", "5"]) == 3
    assert run_cli(SYNTH_ARGS + ["--k", "99"]) == 3


# -- check -------------------------------------------------------------------


def test_check_orthogonal_fixture_satisfies_condition(capsys):
    code = run_cli(
        [
            "check", "--fixture", "orthogonal", "--h", "8", "--depth", "3",
            "--dims", "2,2", "--samples", "4,4", "--coherence-trials", "16",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["holds"] is True
    assert report["coherence_max"] == 0.0


def test_check_gaussian_fixture_runs(capsys):
    code = run_cli(
        ["check", "--h", "6", "--depth", "3", "--dims", "2,2", "--samples", "4,4",
         "--coherence-trials", "8"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["subtensors_searched"] > 0


def test_check_parameter_validation(capsys):
    base = ["check", "--h", "6", "--depth", "3", "--dims", "2,2", "--samples", "4,4"]
    assert run_cli(base + ["--cluster-index", "5"]) == 3
    assert "cluster index 5 outside 0..1" in capsys.readouterr().err
    assert run_cli(base + ["--budget", "0"]) == 3
    assert "subtensor_budget must be at least 1, got 0" in capsys.readouterr().err
    assert run_cli(base + ["--coherence-trials", "0"]) == 3
    assert "coherence_trials must be at least 1, got 0" in capsys.readouterr().err
    assert run_cli(["check", "--fixture", "orthogonal", "--h", "3", "--depth", "2",
                    "--dims", "2,2", "--samples", "4,4"]) == 3  # needs h >= sum dims


def test_debug_log_reports_the_solve_and_leaves_out_unchanged(
    two_cluster_files, tmp_path, caplog
):
    # silent by default; at DEBUG one line per path point with its precision
    # and the ridge's inner dimension, the data's numeric rank (two free
    # submodules of dimension 2 give 4), and residual lines every 50
    # iterations, none of it in the --out payload
    tensor_path, _ = two_cluster_files
    outs = []
    for level in (None, logging.DEBUG):
        caplog.clear()
        if level is not None:
            caplog.set_level(level, logger="ssmc")
        out = tmp_path / f"level-{level}.json"
        argv = ["cluster", "--input", tensor_path, "--k", "2", "--lambda-g", "1e-2",
                "--out", str(out)]  # fmt: skip
        assert run_cli(argv) == 0
        outs.append(out.read_bytes())
        records = [r for r in caplog.records if r.name.startswith("ssmc")]
        if level is None:
            assert records == []
    report = json.loads(outs[1])["solver_report"]
    messages = [r.getMessage() for r in records]
    assert all(r.levelno == logging.DEBUG for r in records)
    assert report["iterations"] > 50
    assert sum(m.startswith("iteration ") for m in messages) == report["iterations"] // 50
    assert messages[-1] == (
        f"point 0, lambda_g 0.01: complex64, inner dimension 4, "
        f"{report['iterations']} iterations, converged {report['converged']}"
    )
    assert outs[0] == outs[1]


# -- cross-command determinism -----------------------------------------------


def test_cluster_output_is_byte_deterministic(two_cluster_files, tmp_path):
    tensor_path, truth_path = two_cluster_files
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = run_cli(
            ["cluster", "--input", tensor_path, "--k", "2", "--seed", "4",
             "--truth", truth_path, "--out", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
