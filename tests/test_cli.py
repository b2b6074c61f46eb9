"""Command-line driver tests: exit codes, payload shape, determinism."""

import argparse
import errno
import json
import logging
import os
import struct
import warnings
from dataclasses import fields

import numpy as np
import pytest

from ssmc import cli, data, solver
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
    # the same labels as an IDX label file
    idx = tmp_path / "truth.idx"
    idx.write_bytes(struct.pack(">II", 0x00000801, len(truth)) + bytes(truth))
    assert run_cli(argv + ["--truth", str(idx)]) == 0
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


def test_cluster_data_errors(two_cluster_files, tmp_path, capsys):
    tensor_path, _ = two_cluster_files
    argv = ["cluster", "--input", tensor_path, "--k", "2", "--truth", str(tmp_path / "no.idx")]
    assert run_cli(argv) == 2
    assert "ssmc cluster: data error: cannot read truth labels" in capsys.readouterr().err
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


def test_cluster_parameter_errors(two_cluster_files, capsys):
    tensor_path, _ = two_cluster_files
    assert run_cli(["cluster", "--input", tensor_path, "--k", "2", "--seed", "abc"]) == 3
    assert "argument --seed: must be an integer, got 'abc'" in capsys.readouterr().err
    assert run_cli(["cluster", "--input", tensor_path, "--k", "99"]) == 3
    assert run_cli(["cluster", "--input", tensor_path, "--k", "0"]) == 3
    assert run_cli(["cluster", "--input", tensor_path, "--k", "2", "--lambda-g", "0"]) == 3
    assert run_cli(["cluster", "--input", tensor_path, "--k", "2", "--decimate", "2"]) == 3
    assert run_cli(["cluster", "--input", tensor_path, "--k", "2", "--no-such-flag"]) == 3
    assert run_cli(["cluster", "--k", "2"]) == 3  # --input is required


def test_unwritable_affinity_out_is_a_parameter_error(two_cluster_files, tmp_path, capsys):
    tensor_path, _ = two_cluster_files
    target = tmp_path / "missing" / "aff.tsr1"
    argv = ["cluster", "--input", tensor_path, "--k", "2", "--affinity-out", str(target)]
    assert run_cli(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("ssmc cluster: parameter error: [Errno 2]")
    assert str(target) in err[0]


def test_cluster_refuses_an_affinity_out_that_out_would_overwrite(
    two_cluster_files, tmp_path, monkeypatch, capsys
):
    # --out is written after --affinity-out, so one file for both would keep
    # only the JSON payload; the paths are compared as absolute paths, before
    # the input is read
    def no_read(*args):
        raise AssertionError("read the input before the output paths were checked")

    monkeypatch.setattr(cli, "_load_input", no_read)
    monkeypatch.chdir(tmp_path)
    tensor_path, _ = two_cluster_files
    out = tmp_path / "both.tsr1"
    for aff in (str(out), "both.tsr1", "./runs/../both.tsr1"):
        argv = ["cluster", "--input", tensor_path, "--k", "2", "--out", str(out),
                "--affinity-out", aff]  # fmt: skip
        assert run_cli(argv) == cli.EXIT_PARAM
        assert capsys.readouterr().err == (
            f"ssmc cluster: parameter error: --out {str(out)!r} would overwrite --affinity-out\n"
        )
        assert not out.exists()


@pytest.mark.parametrize(
    "command,flag,name,code",
    [("cluster", "--out", "missing/x.json", errno.ENOENT),
     ("cluster", "--affinity-out", "missing/a.tsr1", errno.ENOENT),
     ("sweep", "--out", "missing/x.json", errno.ENOENT),
     ("sweep", "--out", "runs.json", errno.EISDIR),  # its CSV names a directory
     ("synth", "--out", "missing/x.json", errno.ENOENT),
     ("synth", "--out", ".", errno.EISDIR),
     ("check", "--out", "missing/x.json", errno.ENOENT)],
)  # fmt: skip
def test_unwritable_outputs_are_refused_before_any_input_is_read(
    two_cluster_files, tmp_path, monkeypatch, capsys, command, flag, name, code
):
    # each of these used to run the whole solve, then exit 3 without printing
    # the payload
    for stage in ("read_tsr1", "solve_path", "generate_submodules", "theorem3_check"):
        monkeypatch.setattr(cli, stage, lambda *a, stage=stage: pytest.fail(f"{stage} ran"))
    (tmp_path / "runs.csv").mkdir()
    tensor_path, _ = two_cluster_files
    target = str(tmp_path / name)
    argv = {
        "cluster": ["cluster", "--input", tensor_path, "--k", "2"],
        "sweep": ["sweep", "--input", tensor_path, "--k", "2", "--grid", "1"],
        "synth": ["synth", "--seed", "1"],
        "check": ["check"],
    }[command]
    assert run_cli(argv + [flag, target]) == cli.EXIT_PARAM
    refused = str(tmp_path / "runs.csv") if name == "runs.json" else target
    assert capsys.readouterr().err == (
        f"ssmc {command}: parameter error: [Errno {code}] {os.strerror(code)}: {refused!r}\n"
    )


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
    assert csv_text[0] == "lambda_g,clustering_error,iterations,objective,converged"
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


@pytest.mark.parametrize(
    "flags,err",
    [
        (["--lambda-g", "5"], "ssmc: error: unrecognized arguments: --lambda-g 5"),
        (["--tol-rel", "-1"], "ssmc sweep: parameter error: tol_rel must be nonnegative, got -1.0"),
    ],
    ids=["lambda-g", "tol-rel"],
)
def test_sweep_refuses_solver_flags_before_reading_input(monkeypatch, capsys, flags, err):
    # sweep used to take --lambda-g and ignore it; a bad flag it does read is
    # one parameter error, not an error row per grid point
    monkeypatch.setattr(cli, "read_tsr1", lambda path: pytest.fail("read the input"))
    argv = ["sweep", "--input", "data.tsr1", "--k", "2", "--grid", "1,10"]
    assert run_cli(argv + flags) == cli.EXIT_PARAM
    assert capsys.readouterr().err.splitlines() == [err]


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


def test_sweep_warm_starts_each_row_from_the_last(two_cluster_files, capsys):
    # the 10 row starts from the 1 row's solve, not from zero
    tensor_path, _ = two_cluster_files
    assert run_cli(["sweep", "--input", tensor_path, "--k", "2", "--grid", "1,10"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["lambda_g"] for row in rows] == [1.0, 10.0]
    assert run_cli(["cluster", "--input", tensor_path, "--k", "2", "--lambda-g", "10"]) == 0
    cold = json.loads(capsys.readouterr().out)["solver_report"]
    assert rows[1]["converged"]
    assert 2 <= rows[1]["iterations"] < cold["iterations"]


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


def test_cluster_refuses_input_whose_scale_overflows(two_cluster_files, tmp_path, capsys):
    # entries near 1e160 used to solve to objective inf, reported as converged
    # and written to --out as Infinity, which is not JSON
    tensor_path, _ = two_cluster_files
    big = tmp_path / "big.tsr1"
    write_tsr1(big, 1e160 * read_tsr1(tensor_path))
    out = tmp_path / "result.json"
    argv = ["cluster", "--input", str(big), "--k", "2", "--lambda-g", "1", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv) == cli.EXIT_DATA
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("ssmc cluster: data error: the input's scale overflows float64")
    assert err.count("\n") == 1


def test_sweep_refuses_input_whose_scale_overflows(two_cluster_files, tmp_path, capsys):
    # refused once for the whole grid, as cluster refuses it; rows used to carry
    # the refusal with exit 0
    tensor_path, _ = two_cluster_files
    big = tmp_path / "big.tsr1"
    write_tsr1(big, 1e160 * read_tsr1(tensor_path))
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--input", str(big), "--k", "2", "--grid", "1,10", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv) == cli.EXIT_DATA
    assert not out.exists() and not (tmp_path / "sweep.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("ssmc sweep: data error: the input's scale overflows float64")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["cluster", "--input", "data.tsr1", "--k", "2"],
     ["sweep", "--input", "data.tsr1", "--k", "2", "--grid", "1"],
     ["synth", "--h", "6", "--depth", "4", "--dims", "2,2", "--samples", "5,5"]],
    ids=lambda argv: argv[0],
)  # fmt: skip
def test_clustering_step_errors_are_data_errors(two_cluster_files, monkeypatch, capsys, argv):
    # sweep used to write the error into its rows, cluster and synth to raise it
    def refuse(*args):
        raise ValueError("affinity contains non-finite values")

    monkeypatch.setattr(cli, "spectral_cluster", refuse)
    tensor_path, _ = two_cluster_files
    argv = [tensor_path if v == "data.tsr1" else v for v in argv]
    assert run_cli(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert err == [f"ssmc {argv[0]}: data error: affinity contains non-finite values"]


@pytest.mark.parametrize(
    "argv",
    [["synth", "--h", "6", "--depth", "4", "--dims", "2,2", "--samples", "5,5"],
     ["check", "--h", "6", "--depth", "3", "--dims", "2,2", "--samples", "4,4"]],
    ids=lambda argv: argv[0],
)  # fmt: skip
def test_generation_failure_is_a_data_error(monkeypatch, capsys, argv):
    # generate_submodules raises RuntimeError after 100 draws that do not generate
    monkeypatch.setattr(data, "is_generating_set", lambda y: False)
    assert run_cli(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert err == [f"ssmc {argv[0]}: failed to draw a generating set after 100 attempts"]


@pytest.mark.parametrize(
    "command,noise,code",
    [("synth", "1e308", cli.EXIT_PARAM), ("synth", "1e200", cli.EXIT_DATA)],
)  # fmt: skip
def test_overflowing_noise_is_refused_without_a_warning(command, noise, code, capsys):
    # a draw at noise 1e308 overflows: a parameter error; at 1e200 the draw is
    # finite but its squares are not, so the solve refuses the data
    argv = [command, "--h", "8", "--depth", "4", "--dims", "1,1", "--samples", "4,4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv + ["--noise", noise]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    if code == cli.EXIT_PARAM:
        assert f"ssmc {command}: parameter error: noise_sigma=1e+308 overflows" in err


_SOLVER_FLAGS = [
    "--lambda-g", "2.5", "--lambda-h", "0.25", "--affine", "--normalize-columns",
    "--max-iters", "7", "--tol-rel", "1e-3",
]


@pytest.mark.parametrize(
    "command",
    [["cluster", "--input", "x", "--k", "2"], ["sweep", "--input", "x", "--k", "2", "--grid", "1"],
     ["synth"]],
    ids=["cluster", "sweep", "synth"],
)
def test_solver_flags_map_to_their_config_fields(command):
    # sweep has no --lambda-g: --grid alone sets its lambda_g values
    sweep = command[0] == "sweep"
    flags = _SOLVER_FLAGS[2:] if sweep else _SOLVER_FLAGS
    parser = cli.build_parser()
    defaults = cli._solver_config(parser.parse_args(command))
    cfg = cli._solver_config(parser.parse_args(command + flags))
    expected = solver.SolverConfig(
        lambda_g=100.0 if sweep else 2.5, lambda_h=0.25, affine=True, max_iters=7, tol_rel=1e-3,
        normalize_columns=True,
    )
    assert cfg == expected
    names = {f.name for f in fields(solver.SolverConfig)}
    changed = {name for name in names if getattr(cfg, name) != getattr(defaults, name)}
    assert changed == (names - {"lambda_g"} if sweep else names)


def test_solver_flag_defaults_are_the_config_defaults():
    # only --lambda-g, which SolverConfig requires, has a default of the CLI's own
    args = cli.build_parser().parse_args(["cluster", "--input", "f", "--k", "2"])
    assert cli._solver_config(args) == solver.SolverConfig(lambda_g=100.0)


def test_solver_flags_are_exactly_the_config_fields(capsys):
    parser = argparse.ArgumentParser()
    cli._add_solver_args(parser)
    dests = {action.dest for action in parser._actions} - {"help"}
    assert dests == {f.name for f in fields(solver.SolverConfig)}
    parser = argparse.ArgumentParser()
    cli._add_solver_args(parser, lambda_g=False)  # as sweep, whose --grid sets lambda_g
    dests = {action.dest for action in parser._actions} - {"help"}
    assert dests == {f.name for f in fields(solver.SolverConfig)} - {"lambda_g"}
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


def test_unwritable_synth_out_is_a_parameter_error(tmp_path, capsys):
    target = tmp_path / "missing" / "synth.json"
    assert run_cli(SYNTH_ARGS + ["--out", str(target)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("ssmc synth: parameter error: [Errno 2]")
    assert str(target) in err[0]


def test_synth_parameter_validation(capsys):
    assert run_cli(["synth", "--dims", "2,2", "--samples", "5"]) == 3
    assert run_cli(["synth", "--dims", "x", "--samples", "5"]) == 3
    assert run_cli(SYNTH_ARGS + ["--k", "99"]) == 3
    capsys.readouterr()
    for value in ("nan", "inf"):
        assert run_cli(SYNTH_ARGS + ["--noise", value]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"ssmc synth: parameter error: noise_sigma must be finite and nonnegative, got {value}"
        ]


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--input", "data.tsr1", "--k", "2"],
        ["sweep", "--input", "data.tsr1", "--k", "2", "--grid", "1,10"],
        ["synth"],
        ["check"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_is_refused_before_any_work(monkeypatch, capsys, argv):
    monkeypatch.setitem(cli._COMMANDS, argv[0], lambda args: pytest.fail("command ran"))
    assert run_cli(argv + ["--seed", "-1"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"ssmc {argv[0]}: error: argument --seed: must be nonnegative, got -1"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["sweep", "--input", "data.tsr1", "--k", "2", "--grid", "1,nan"], "--grid"),
        (["sweep", "--input", "data.tsr1", "--k", "2", "--grid", "1,inf"], "--grid"),
        (["sweep", "--input", "data.tsr1", "--k", "2", "--grid", "1,1e400"], "--grid"),
        (["sweep", "--input", "data.tsr1", "--k", "2", "--grid", "1,-1,10"], "--grid"),
        (["sweep", "--input", "data.tsr1", "--k", "2", "--grid", "0"], "--grid"),
        (["sweep", "--input", "data.tsr1", "--k", "2", "--grid", "-0.0"], "--grid"),
        (["cluster", "--input", "data.tsr1", "--format", "pgmdir", "--k", "2",
          "--crop", "4:1"], "--crop"),
        (["synth", "--dims", "x"], "--dims"),
        (["synth", "--dims", "0"], "--dims"),
        (["check", "--samples", "4,y"], "--samples"),
        (["check", "--samples", "4,0"], "--samples"),
    ],
    ids=["grid-nan", "grid-inf", "grid-1e400", "grid-1,-1,10", "grid-0", "grid--0.0",
         "crop-4:1", "dims-x", "dims-0", "samples-4,y", "samples-4,0"],
)  # fmt: skip
def test_bad_flag_values_are_refused_before_any_work(monkeypatch, capsys, argv, flag):
    # a non-finite grid value used to be solved around, then crash the JSON
    # output with exit 1; a grid value <= 0 used to become an error_message
    # row of a sweep that exited 0
    monkeypatch.setitem(cli._COMMANDS, argv[0], lambda args: pytest.fail("command ran"))
    assert run_cli(argv) == cli.EXIT_PARAM
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"ssmc {argv[0]}: error: argument {flag}: ")


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


@pytest.mark.parametrize(
    "flags",
    [["--noise", "1"], ["--fixture", "orthogonal", "--affine-data"],
     ["--fixture", "orthogonal", "--shift-model"]],
)  # fmt: skip
def test_check_refuses_flags_it_does_not_read(monkeypatch, capsys, flags):
    # check used to take --noise and ignore it, and the orthogonal fixture
    # ignored --affine-data and --shift-model
    monkeypatch.setattr(cli, "generate_submodules", lambda spec: pytest.fail("generated"))
    monkeypatch.setattr(cli, "_orthogonal_samples", lambda *a: pytest.fail("generated"))
    argv = ["check", "--h", "8", "--depth", "3", "--dims", "2,2", "--samples", "4,4"]
    assert run_cli(argv + flags) == cli.EXIT_PARAM
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    if flags[0] == "--noise":
        assert err[0] == "ssmc: error: unrecognized arguments: --noise 1"
    else:
        assert err[0] == (
            "ssmc check: parameter error: --affine-data/--shift-model apply only to "
            "--fixture gaussian"
        )


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
