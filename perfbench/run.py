"""Pipeline benchmark for ssmc: one workload per process, outputs checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run sets the workload up from ``--seed``, then repeats whole rounds of
its operations until ``--seconds`` have passed, checking every round's
outputs.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it traces every public function of the package and reports
per-layer metrics instead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in a process of its own.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("paper-sweep", "affine-160", "recovery-check")
SETUP_PROBES = 3  # extra set-ups, each in a fresh interpreter, for the setup_s median
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; must run before numpy is imported."""
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            current = int(os.environ.get(var, cpus))
        except ValueError:
            current = cpus
        os.environ[var] = str(max(1, min(current, cpus)))
    return cpus


def import_package():
    """Import ``ssmc`` from this checkout's ``src`` and the benchmark's workloads."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ssmc

    if os.path.dirname(os.path.abspath(ssmc.__file__)) != os.path.join(SRC, "ssmc"):
        raise ImportError(f"ssmc imported from {ssmc.__file__}, not from {SRC}")
    import workloads

    return workloads


def timed_setup(name, seed, workdir):
    """Import the package and make the workload's inputs; returns (workload, seconds)."""
    start = time.perf_counter()
    workloads = import_package()
    workload = workloads.WORKLOADS[name]()
    workload.setup(seed, workdir)
    return workload, time.perf_counter() - start


def probe_setup(name, seed):
    """Time one set-up in a fresh interpreter, as a user's first call pays it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-only"]  # fmt: skip
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def environment(cpus):
    """What a run's figures depend on besides the code: versions, BLAS, CPUs, numba, commit."""
    import numpy
    import scipy

    import ssmc

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)  # fmt: skip
        commit = out.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": cpus,
        "numba_imports": numba_imports,
        "ssmc_numba_enabled": bool(ssmc.NUMBA_ENABLED),
        "commit": commit,
    }


def layer_metrics(tracer, setup_end, rounds, wall):
    """Per-layer metrics for one set-up plus one round (round spans averaged)."""
    t_setup, c_setup, s_setup = tracer.summary(0, setup_end)
    t_round, c_round, s_round = tracer.summary(setup_end, len(tracer.spans))

    def total(name):
        return t_setup[name] + t_round[name] / rounds

    def calls(name):
        return c_setup[name] + c_round[name] / rounds

    def self_s(layer):
        return s_setup[layer] + s_round[layer] / rounds

    def count(name):
        return tracer.counts[name] / rounds

    iterations = count("solver.iterations")
    solve_s = total("solver.solve_self_representation")
    values = {
        "solver.solve_s": (solve_s, "s"),
        "solver.self_s": (self_s("solver"), "s"),
        "solver.iterations": (iterations, "count"),
        "solver.ms_per_iter": (1e3 * solve_s / iterations if iterations else 0.0, "ms"),
        "solver.affinity_s": (total("solver.affinity_from_tensor"), "s"),
        "solver.peak_alloc_mb": (tracer.peak_alloc, "MB"),
        "kernels.cho_solve_batched_s": (total("kernels.cho_solve_batched"), "s"),
        "kernels.cho_solve_batched_calls": (calls("kernels.cho_solve_batched"), "count"),
        "kernels.scale_tubes_s": (total("kernels.scale_tubes"), "s"),
        "kernels.scale_rows_s": (total("kernels.scale_rows"), "s"),
        "kernels.jacobi_eigh_s": (total("kernels.jacobi_eigh"), "s"),
        "kernels.jacobi_svd_s": (total("kernels.jacobi_svd"), "s"),
        "kernels.jacobi_svd_calls": (calls("kernels.jacobi_svd"), "count"),
        "kernels.lloyd_s": (total("kernels.lloyd"), "s"),
        "kernels.lloyd_iters": (count("kernels.lloyd_iters"), "count"),
        "spectral.spectral_cluster_s": (total("spectral.spectral_cluster"), "s"),
        "spectral.kmeans_s": (total("spectral.kmeans"), "s"),
        "spectral.self_s": (self_s("spectral"), "s"),
        "theory.theorem3_check_s": (total("theory.theorem3_check"), "s"),
        "theory.coherence_s": (total("theory.coherence"), "s"),
        "theory.subtensors_searched": (count("theory.subtensors_searched"), "count"),
        "theory.is_generating_set_s": (total("theory.is_generating_set"), "s"),
        "t_algebra.bcirc_singular_values_s": (total("t_algebra.bcirc_singular_values"), "s"),
        "t_algebra.tprod_s": (total("t_algebra.tprod"), "s"),
        "t_algebra.tprod_calls": (calls("t_algebra.tprod"), "count"),
        "t_algebra.read_tsr1_s": (total("t_algebra.read_tsr1"), "s"),
        "data.generate_submodules_s": (total("data.generate_submodules"), "s"),
        "cli.main_s": (total("cli.main"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.spans": (len(tracer.spans) / rounds, "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_workload(args):
    cpus = limit_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "ssmc", "__init__.py")):
        sys.exit(f"perfbench: no package source at {SRC}")
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        if args.setup_only:
            _, seconds = timed_setup(args.workload, args.seed, workdir)
            print(repr(seconds))
            return 0
        tracer = None
        if args.trace:
            import_package()
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        workload, setup_first = timed_setup(args.workload, args.seed, workdir)
        print("env " + json.dumps(environment(cpus), sort_keys=True), flush=True)
        setup_end = len(tracer.spans) if tracer else 0

        walls, rounds = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            t0 = time.perf_counter()
            output = workload.run()
            walls.append(time.perf_counter() - t0)
            rounds.append(workload.check(output))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if tracer:
            tracer.uninstall()
            tracer.write(os.path.join(scratch, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            metrics = layer_metrics(tracer, setup_end, len(rounds), statistics.median(walls))
        else:
            setups = [setup_first] + [probe_setup(args.workload, args.seed)
                                      for _ in range(SETUP_PROBES)]  # fmt: skip
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "objective": {"value": statistics.median(r.objective for r in rounds), "unit": "1"},
            }

    problems = [p for r in rounds for p in r.problems]
    failures = sorted({f for r in rounds for f in r.failures})
    objectives = {r.objective for r in rounds}
    if len(objectives) > 1:
        problems.append(f"objective differs between rounds: {sorted(objectives)}")
    for p in problems:
        print(f"problem: {p}")
    for f in failures:
        print(f"failed operation: {f}")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    print(f"workload {args.workload}: seed {args.seed}, {len(rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed")  # fmt: skip
    print("  round walls: " + " ".join(f"{w:.4f}" for w in walls))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Run every workload, each in a process of its own, and summarise them."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]  # fmt: skip
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"perfbench: workload {name} exited {out.returncode}", file=sys.stderr)
            return out.returncode
        summary[name] = json.loads(out.stdout.strip().splitlines()[-1])
    print(json.dumps(summary), flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
