"""Command-line driver: cluster files, sweep lambda grids, run synthetic
benchmarks, and evaluate the recovery-condition checker.

Exit codes: 0 success, 2 data error (unreadable, malformed or refused input),
3 parameter error (bad or unknown flags, or an output path that cannot be
written).  A flag value that its argparse type refuses, and an output path
whose directory does not exist or which names a directory, are refused before
any input is read.  ``cluster``, ``sweep`` and ``synth`` share one solve-and-cluster
pipeline.  Every command prints its JSON payload to stdout and, with
``--out``, writes the same payload to a file; payloads contain no timestamps
or timings, so reruns with identical flags produce byte-identical files.
``synth`` additionally reports its wall time on stdout only.
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
    SynthSpec,
    clustering_error,
    generate_submodules,
    load_idx_images,
    load_idx_labels,
    load_pgm_dir,
)
from .solver import SolverConfig, affinity_from_tensor, solve_path
from .spectral import spectral_cluster
from .t_algebra import FormatError, read_tsr1, tprod, write_tsr1
from .theory import SubmoduleSample, theorem3_check

__all__ = ["main"]

SCHEMA = "ssmc/1"

EXIT_DATA = 2
EXIT_PARAM = 3


class ParameterError(Exception):
    pass


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
    p.add_argument("--input", required=True, help="input path")
    p.add_argument("--format", choices=["tsr1", "idx", "pgmdir"], default="tsr1")
    p.add_argument("--decimate", type=int, default=1, help="pgmdir: keep every n-th pixel")
    p.add_argument("--crop", type=_crop, metavar="A:B", help="pgmdir: inclusive column range")
    p.add_argument("--truth", default=None, help="true labels (.json list or IDX) for error")


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
    p.add_argument("--budget", type=int, default=200, help="subtensor search budget")
    p.add_argument("--coherence-trials", type=int, default=64)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    return parser


def _solver_config(args):
    # every solver flag's argparse dest is the name of its SolverConfig field
    try:
        return SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)})
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc


def _check_k(k, n):
    if not 1 <= k <= n:
        raise ParameterError(f"k must be in 1..{n}, got {k}")


def _load_input(args):
    if args.format != "pgmdir" and (args.decimate != 1 or args.crop is not None):
        raise ParameterError("--decimate/--crop apply only to --format pgmdir")
    try:
        if args.format == "tsr1":
            tensor = read_tsr1(args.input)
        elif args.format == "idx":
            tensor = load_idx_images(args.input)
        else:
            tensor, _ = load_pgm_dir(args.input, decimate=args.decimate, crop=args.crop)
    except (OSError, FormatError) as exc:
        raise DataError(str(exc)) from exc
    except ValueError as exc:  # load_pgm_dir: a --decimate or --crop the images cannot take
        raise ParameterError(str(exc)) from exc
    n = tensor.shape[1]
    _check_k(args.k, n)
    truth = _load_truth(args.truth) if args.truth else None
    if truth is not None and truth.shape[0] != n:
        raise DataError(f"truth has {truth.shape[0]} labels for {n} samples")
    return tensor, truth


def _load_truth(path):
    try:
        if path.endswith(".json"):
            with open(path) as fh:
                labels = json.load(fh)
            # one integer per sample: a nested list or a float would be
            # reshaped or truncated into labels the file does not hold
            if not isinstance(labels, list) or not all(type(v) is int for v in labels):
                raise DataError("truth labels must be a flat JSON list of integers")
            return np.asarray(labels, dtype=np.int64)
        return load_idx_labels(path)
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
        path = solve_path(tensor, configs)
    except ValueError as exc:  # the input, refused once for every config
        raise DataError(str(exc)) from exc
    for w, report in path:
        affinity = affinity_from_tensor(w)
        del w  # the next solve's memory estimate leaves no room for this one
        try:
            labels = spectral_cluster(affinity, k, seed)
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        yield report, affinity, labels


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


def _check_outputs(out, *others):
    """Refuse, before any input is read, each output path that cannot be
    written: one that names a directory or whose directory does not exist,
    with the error that opening it would raise.  ``others`` are ``(path,
    clash)`` pairs for the paths written besides ``--out``; one that names the
    file ``--out`` names is refused, with ``clash`` ending the message."""
    for path, clash in others:
        if out and path and os.path.abspath(path) == os.path.abspath(out):
            raise ParameterError(f"--out {out!r} {clash}")
    for path in [out, *(path for path, _ in others)]:
        if path and os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def cmd_cluster(args):
    _check_outputs(args.out, (args.affinity_out, "would overwrite --affinity-out"))
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
    _check_outputs(args.out, (csv_path, "would be overwritten by the sweep's CSV"))
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
    try:
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
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc


def cmd_synth(args):
    _check_outputs(args.out)
    spec = _synth_spec(args, args.noise)
    cfg = _solver_config(args)
    k = args.k if args.k is not None else len(spec.d_per_cluster)
    n = sum(spec.samples_per_cluster)
    _check_k(k, n)
    start = time.perf_counter()
    try:
        labeled = generate_submodules(spec)[1]
    except ValueError as exc:  # a noise_sigma whose draw overflows
        raise ParameterError(str(exc)) from exc
    payload, _ = _cluster_payload(labeled.tensor, labeled.truth, cfg, k, args.seed)
    runtime = time.perf_counter() - start
    _emit(args, {**payload, "n": n}, runtime_seconds=runtime)
    return 0


def _orthogonal_samples(spec, rng):
    total = sum(spec.d_per_cluster)
    if total > spec.h:
        raise ParameterError(
            f"orthogonal fixture needs h >= sum of dims ({total}), got {spec.h}"
        )
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
    _check_outputs(args.out)
    if args.fixture == "orthogonal" and (args.affine_data or args.shift_model):
        raise ParameterError("--affine-data/--shift-model apply only to --fixture gaussian")
    spec = _synth_spec(args)
    if args.fixture == "orthogonal":
        samples = _orthogonal_samples(spec, np.random.default_rng(spec.seed))
    else:
        samples = generate_submodules(spec)[0]
    try:
        report = theorem3_check(
            samples,
            args.cluster_index,
            subtensor_budget=args.budget,
            seed=args.seed,
            coherence_trials=args.coherence_trials,
        )
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc
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
    except (ParameterError, OSError) as exc:  # inputs' OSErrors are DataErrors by now
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
