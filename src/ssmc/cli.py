"""Command-line driver: cluster files, sweep lambda grids, run synthetic
benchmarks, and evaluate the recovery-condition checker.

Each input names its own format: ``--input`` is a directory of PGM images
(the only input that ``--decimate`` and ``--crop`` accompany), a TSR1 file
when it starts with the TSR1 magic, and otherwise an IDX image file.
``--truth`` is an IDX label file when it starts with the IDX label magic, and
otherwise a JSON list.

Exit codes: 0 success, 2 data error (unreadable, malformed or refused input),
3 parameter error (bad or unknown flags, or an output path that cannot be
written).  One rule decides between 2 and 3: a ``ValueError`` or ``OSError``
is a parameter error unless it was raised while reading the input or truth
labels, or while solving and clustering the input; those are data errors, as
is a ``RuntimeError``.  A flag value that its argparse type refuses, and an
output path whose directory does not exist, which names a directory, or which
names the same file as another output, ``--input`` or ``--truth`` (symlinks
resolved), are refused before any input is read.  ``cluster``, ``sweep`` and
``synth`` share one solve-and-cluster pipeline.  Every command prints its JSON
payload to stdout and, with ``--out``, writes the same payload to a file;
payloads contain no timestamps or timings, so reruns with identical flags
produce byte-identical files.  ``synth`` additionally reports its wall time on
stdout only.
"""

import argparse
import csv
import errno
import json
import math
import os
import sys
import time
from dataclasses import MISSING, asdict, fields, replace

import numpy as np

from .data import (
    IDX_LABEL_MAGIC,
    SynthSpec,
    clustering_error,
    generate_submodules,
    load_idx_images,
    load_idx_labels,
    load_pgm_dir,
)
from .solver import SolverConfig, affinity_from_tensor, solve_path
from .spectral import spectral_cluster
from .t_algebra import TSR1_MAGIC, FormatError, _check_count, read_tsr1, tprod, write_tsr1
from .theory import SUBTENSOR_BUDGET, SubmoduleSample, theorem3_check

__all__ = ["main"]

SCHEMA = "ssmc/1"

EXIT_DATA = 2
EXIT_PARAM = 3


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; bad or unknown flags are
    # parameter errors here, so remap to 3
    def error(self, message):
        self.exit(EXIT_PARAM, f"{self.prog}: error: {message}\n")


def _seed(text):
    # numpy refuses a negative seed only once the work has started
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _crop(text):
    a, _, b = text.partition(":")
    try:
        a, b = int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be integer A:B, got {text!r}") from None
    if not 0 <= a <= b:
        raise argparse.ArgumentTypeError(f"must have 0 <= A <= B, got {text!r}")
    return a, b


def _comma_list(convert, what):
    def parse(text):
        try:
            values = [convert(v) for v in text.split(",") if v.strip() != ""]
        except ValueError:
            values = []
        # one rule for every list flag: refuses zero, negatives, nan and inf
        # (1e400 parses as inf); unlike math.isfinite, takes any int
        if not values or not all(0 < v < math.inf for v in values):
            raise argparse.ArgumentTypeError(f"must be a nonempty list of {what}, got {text!r}")
        return values

    return parse


_ints = _comma_list(int, "comma-separated positive integers")
_grid = _comma_list(float, "comma-separated positive finite numbers")


def _add_solver_args(p, lambda_g=True):
    # sweep passes lambda_g=False: --grid replaces the default in each config
    if lambda_g:
        p.add_argument("--lambda-g", type=float, help="fidelity weight")
    p.add_argument("--lambda-h", type=float, help="row group-norm weight")
    p.add_argument("--affine", action="store_true", help="affine-submodule constraint")
    p.add_argument(
        "--normalize-columns",
        action="store_true",
        help="scale each lateral slice to unit Frobenius norm before solving",
    )
    p.add_argument("--max-iters", type=int)
    p.add_argument("--tol-rel", type=float, help="the solver's one tolerance, on scaled residuals")
    p.set_defaults(
        lambda_g=100.0,
        **{f.name: f.default for f in fields(SolverConfig) if f.default is not MISSING},
    )


def _add_input_args(p):
    p.add_argument("--input", required=True, help="TSR1 or IDX image file, or PGM directory")
    p.add_argument("--decimate", type=int, default=1, help="PGMs: keep every n-th pixel")
    p.add_argument("--crop", type=_crop, metavar="A:B", help="PGMs: inclusive column range")
    p.add_argument("--truth", default=None, help="true labels (JSON list or IDX) for error")


def _add_synth_args(p):
    p.add_argument("--h", type=int, default=28, help="rows per slice")
    p.add_argument("--depth", type=int, default=28, help="tube length")
    p.add_argument("--dims", type=_ints, default="2,2,2,2", help="per-cluster submodule dims")
    p.add_argument("--samples", type=_ints, default="10,10,10,10", help="per-cluster sample counts")
    p.add_argument("--shift-model", action="store_true", help="shifted-prototype clusters")
    p.add_argument("--affine-data", action="store_true", help="add per-cluster offsets")


def build_parser():
    parser = _Parser(prog="ssmc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("cluster", help="cluster a tensor file end to end")
    _add_input_args(p)
    _add_solver_args(p)
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="JSON output path")
    p.add_argument("--affinity-out", default=None, help="write affinity matrix as TSR1")

    p = sub.add_parser("sweep", help="run cluster over a lambda_g grid")
    _add_input_args(p)
    _add_solver_args(p, lambda_g=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--grid", type=_grid, required=True, help="comma list of lambda_g values")
    p.add_argument(
        "--out", default=None, help="JSON output path; the CSV replaces its extension with .csv"
    )

    p = sub.add_parser("synth", help="generate synthetic data, cluster, report error")
    _add_synth_args(p)
    p.add_argument("--noise", type=float, default=0.0, help="noise added to the samples")
    _add_solver_args(p)
    p.add_argument("--k", type=int, default=None, help="clusters (default: number of dims)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="evaluate the recovery condition on generated clusters")
    _add_synth_args(p)
    p.add_argument("--fixture", choices=["gaussian", "orthogonal"], default="gaussian")
    p.add_argument("--cluster-index", type=int, default=0)
    p.add_argument("--budget", type=int, default=SUBTENSOR_BUDGET, help="subtensor search budget")
    p.add_argument("--coherence-trials", type=int, default=64)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    return parser


def _solver_config(args):
    # every solver flag's argparse dest is the name of its SolverConfig field
    return SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)})


def _starts_with(path, magic):
    with open(path, "rb") as fh:
        return fh.read(len(magic)) == magic


def _load_input(args):
    pgm = os.path.isdir(args.input)
    if not pgm and (args.decimate != 1 or args.crop is not None):
        raise ValueError("--decimate/--crop apply only to a directory of PGM images")
    try:
        if pgm:
            tensor, _ = load_pgm_dir(args.input, decimate=args.decimate, crop=args.crop)
        elif _starts_with(args.input, TSR1_MAGIC):
            tensor = read_tsr1(args.input)
        else:  # refuses every magic but the IDX image magic
            tensor = load_idx_images(args.input)
    except (OSError, FormatError) as exc:  # load_pgm_dir's other ValueErrors are the flags'
        raise DataError(str(exc)) from exc
    n = tensor.shape[1]
    _check_count("k", args.k, high=n)
    truth = _load_truth(args.truth) if args.truth else None
    if truth is not None and truth.shape[0] != n:
        raise DataError(f"truth has {truth.shape[0]} labels for {n} samples")
    return tensor, truth


def _load_truth(path):
    try:
        if _starts_with(path, IDX_LABEL_MAGIC.to_bytes(4, "big")):
            return load_idx_labels(path)
        with open(path) as fh:
            labels = json.load(fh)
        # one integer per sample: a nested list or a float would be
        # reshaped or truncated into labels the file does not hold
        if not isinstance(labels, list) or not all(type(v) is int for v in labels):
            raise DataError("truth labels must be a flat JSON list of integers")
        return np.asarray(labels, dtype=np.int64)
    except (OSError, FormatError, ValueError, OverflowError) as exc:
        raise DataError(f"cannot read truth labels: {exc}") from exc


def _json(payload):
    # allow_nan=False: NaN and Infinity are not JSON
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(args, payload, **stdout_extra):
    payload = {"schema": SCHEMA, "command": args.command, **payload}
    text = _json(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(_json({**payload, **stdout_extra}) if stdout_extra else text)


def _solve_and_cluster(tensor, configs, k, seed):
    """Yield ``(report, affinity, labels)`` for each of ``configs``, solved as one path."""
    try:
        for w, report in solve_path(tensor, configs):
            affinity = affinity_from_tensor(w)
            del w  # the next solve's memory estimate leaves no room for this one
            labels = spectral_cluster(affinity, k, seed)
            yield report, affinity, labels
    except ValueError as exc:  # the configs are valid, so the input is at fault
        raise DataError(str(exc)) from exc


def _cluster_payload(tensor, truth, cfg, k, seed):
    """The payload of one clustered point, and its affinity matrix."""
    report, affinity, labels = next(_solve_and_cluster(tensor, [cfg], k, seed))
    solver_report = asdict(report)
    del solver_report["timings"]  # wall-clock seconds would break byte-identical reruns
    warnings = list(labels.warnings)
    if not report.converged:  # an unconverged solve ran all max_iters iterations
        warnings.append(f"solver stopped at max_iters={report.iterations} without converging")
    payload = {
        "k": k,
        "labels": [int(v) for v in labels.labels],
        "solver_report": solver_report,
        "warnings": warnings,
    }
    if truth is not None:
        payload["clustering_error"] = clustering_error(labels, truth)
    return payload, affinity


def _check_outputs(args, *outputs):
    """Refuse, before any input is read, each of the command's ``outputs``,
    ``(flag, path)`` pairs with ``path`` None when not written, that must not
    or cannot be written: one whose real path (symlinks resolved) is that of
    another output, ``--input`` or ``--truth``, and one that names a directory
    or whose directory does not exist, with the error that opening it would
    raise."""
    named = [*outputs, ("--input", vars(args).get("input")), ("--truth", vars(args).get("truth"))]
    real = [path and os.path.realpath(path) for _, path in named]
    for i, (flag, path) in enumerate(outputs):
        if path and real[i] in real[i + 1 :]:  # a clash with an earlier output was refused there
            other = named[real.index(real[i], i + 1)][0]
            raise ValueError(f"{flag} {path!r} names the same file as {other}")
        if path and os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def cmd_cluster(args):
    _check_outputs(args, ("--out", args.out), ("--affinity-out", args.affinity_out))
    cfg = _solver_config(args)
    tensor, truth = _load_input(args)
    payload, affinity = _cluster_payload(tensor, truth, cfg, args.k, args.seed)
    if args.affinity_out:
        write_tsr1(args.affinity_out, affinity[:, :, None])
        payload["affinity_path"] = args.affinity_out
    _emit(args, payload)
    return 0


def cmd_sweep(args):
    csv_path = os.path.splitext(args.out)[0] + ".csv" if args.out else None
    _check_outputs(args, ("--out", args.out), ("the sweep's CSV", csv_path))
    base = _solver_config(args)
    configs = [replace(base, lambda_g=lam) for lam in args.grid]
    tensor, truth = _load_input(args)
    points = _solve_and_cluster(tensor, configs, args.k, args.seed)
    rows = [
        {
            "lambda_g": lam,
            "clustering_error": clustering_error(labels, truth) if truth is not None else None,
            "iterations": report.iterations,
            "objective": report.objective,
            "converged": report.converged,
        }
        for lam, (report, _, labels) in zip(args.grid, points)
    ]
    _emit(args, {"k": args.k, "rows": rows})
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return 0


def _synth_spec(args, noise=0.0):
    return SynthSpec(
        h=args.h,
        d_per_cluster=args.dims,
        samples_per_cluster=args.samples,
        depth=args.depth,
        noise_sigma=noise,
        affine=args.affine_data,
        shift_model=args.shift_model,
        seed=args.seed,
    )


def cmd_synth(args):
    _check_outputs(args, ("--out", args.out))
    spec = _synth_spec(args, args.noise)
    cfg = _solver_config(args)
    k = args.k if args.k is not None else len(spec.d_per_cluster)
    n = sum(spec.samples_per_cluster)
    _check_count("k", k, high=n)
    start = time.perf_counter()
    labeled = generate_submodules(spec)[1]
    payload, _ = _cluster_payload(labeled.tensor, labeled.truth, cfg, k, args.seed)
    runtime = time.perf_counter() - start
    _emit(args, {**payload, "n": n}, runtime_seconds=runtime)
    return 0


def _orthogonal_samples(spec, rng):
    total = sum(spec.d_per_cluster)
    if total > spec.h:
        raise ValueError(f"orthogonal fixture needs h >= sum of dims ({total}), got {spec.h}")
    samples = []
    row = 0
    for d_c, m_c in zip(spec.d_per_cluster, spec.samples_per_cluster):
        gens = np.zeros((spec.h, d_c, spec.depth))
        for j in range(d_c):
            gens[row + j, j, 0] = 1.0
        row += d_c
        coeffs = rng.standard_normal((d_c, m_c, spec.depth))
        samples.append(SubmoduleSample(generators=gens, points=tprod(gens, coeffs)))
    return samples


def cmd_check(args):
    _check_outputs(args, ("--out", args.out))
    if args.fixture == "orthogonal" and (args.affine_data or args.shift_model):
        raise ValueError("--affine-data/--shift-model apply only to --fixture gaussian")
    spec = _synth_spec(args)
    if args.fixture == "orthogonal":
        samples = _orthogonal_samples(spec, np.random.default_rng(spec.seed))
    else:
        samples = generate_submodules(spec)[0]
    report = theorem3_check(
        samples,
        args.cluster_index,
        subtensor_budget=args.budget,
        seed=args.seed,
        coherence_trials=args.coherence_trials,
    )
    payload = {
        "cluster_index": args.cluster_index,
        "fixture": args.fixture,
        "report": asdict(report),
    }
    _emit(args, payload)
    return 0


_COMMANDS = {
    "cluster": cmd_cluster,
    "sweep": cmd_sweep,
    "synth": cmd_synth,
    "check": cmd_check,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # the data stages' own are DataErrors by now
        print(f"ssmc {args.command}: parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except DataError as exc:
        print(f"ssmc {args.command}: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RuntimeError as exc:
        print(f"ssmc {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
