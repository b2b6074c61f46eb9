"""The benchmark's three workloads.

Each workload has a ``setup`` that makes its inputs from the seed, a ``run``
that performs one round, a fixed batch of operations, on them, and a
``check`` that checks the round's outputs with :mod:`checks` and returns a
:class:`Round`.  Package functions are looked up on their modules at call
time, so a traced run sees them.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import checks

import ssmc.cli
import ssmc.data
import ssmc.solver
import ssmc.spectral
import ssmc.t_algebra
import ssmc.theory

H = 28
DEPTH = 28
K = 4


@dataclass
class Round:
    """One round's outcome: operations attempted, why each failed one failed,
    the summed objective, and every output check that did not pass."""

    attempted: int
    failures: list
    objective: float = 0.0
    problems: list = field(default_factory=list)


class PaperSweep:
    """``ssmc sweep`` over the paper's lambda_g grid, in process, on TSR1 input."""

    grid_text = "1e-2,1,1e2"
    grid = (1e-2, 1.0, 1e2)
    exact_labels = (1.0, 1e2)
    max_iters = 1000

    def setup(self, seed, workdir):
        spec = ssmc.data.SynthSpec(
            h=H, d_per_cluster=[2] * K, samples_per_cluster=[10] * K, depth=DEPTH, seed=seed
        )
        labeled = ssmc.data.generate_synthetic(spec)
        self.seed = seed
        self.y = labeled.tensor
        self.truth = labeled.truth.labels
        self.input = os.path.join(workdir, "input.tsr1")
        self.truth_path = os.path.join(workdir, "truth.json")
        self.out = os.path.join(workdir, "sweep.json")
        ssmc.t_algebra.write_tsr1(self.input, self.y)
        with open(self.truth_path, "w") as fh:
            json.dump([int(v) for v in self.truth], fh)

    def run(self):
        argv = [
            "sweep", "--input", self.input, "--truth", self.truth_path, "--k", str(K),
            "--grid", self.grid_text, "--seed", str(self.seed),
            "--max-iters", str(self.max_iters), "--out", self.out,
        ]  # fmt: skip
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = ssmc.cli.main(argv)
        return code, text.getvalue()

    def check(self, output):
        code, text = output
        if code != 0:
            problem = f"ssmc sweep exited {code}"
            return Round(len(self.grid), [problem] * len(self.grid), problems=[problem])
        rows = json.loads(text)["rows"]
        problems, failed = checks.check_sweep(
            rows, self.grid, self.y, self.max_iters, self.exact_labels
        )
        failures = []
        for row in rows:
            if row["lambda_g"] in failed:
                stalled = row.get("iterations") == self.max_iters
                why = "stopped at --max-iters" if stalled else "error or failed check"
                failures.append(f"lambda_g={row['lambda_g']}: {why}")
        objective = sum(row.get("objective", 0.0) for row in rows)
        return Round(len(self.grid), failures, objective, problems)


class Affine160:
    """One solve -> affinity -> spectral_cluster pipeline on 28x160x28 affine data."""

    lambda_g = 1.0
    lambda_h = 0.5

    def setup(self, seed, workdir):
        spec = ssmc.data.SynthSpec(
            h=H, d_per_cluster=[2] * K, samples_per_cluster=[40] * K, depth=DEPTH,
            affine=True, seed=seed,
        )  # fmt: skip
        labeled = ssmc.data.generate_synthetic(spec)
        self.seed = seed
        self.y = labeled.tensor
        self.truth = labeled.truth.labels
        self.cfg = ssmc.solver.SolverConfig(
            lambda_g=self.lambda_g, lambda_h=self.lambda_h, affine=True
        )

    def run(self):
        w, report = ssmc.solver.solve_self_representation(self.y, self.cfg)
        affinity = ssmc.solver.affinity_from_tensor(w)
        labels = ssmc.spectral.spectral_cluster(affinity, K, self.seed)
        return w, report, labels

    def check(self, output):
        w, report, labels = output
        problems = checks.check_representation(
            self.y, w, report.objective, self.lambda_g, self.lambda_h, affine=True
        )
        error = checks.brute_force_error(labels.labels, self.truth, K)
        if error != 0.0:
            problems.append(f"clustering error {error} under brute-force matching")
        failures = []
        if not report.converged:
            failures.append(f"solve stopped at max_iters={report.iterations}")
        elif problems:
            failures.append("failed an output check")
        return Round(1, failures, report.objective, problems)


class RecoveryCheck:
    """``theorem3_check`` for each cluster of the paper-scale Gaussian union."""

    coherence_trials = 64

    def setup(self, seed, workdir):
        spec = ssmc.data.SynthSpec(
            h=H, d_per_cluster=[2] * K, samples_per_cluster=[10] * K, depth=DEPTH, seed=seed
        )
        self.seed = seed
        self.samples = ssmc.data.generate_submodules(spec)[0]
        self.points = [s.points for s in self.samples]

    def run(self):
        return [
            ssmc.theory.theorem3_check(
                self.samples, i, seed=self.seed, coherence_trials=self.coherence_trials
            )
            for i in range(K)
        ]

    def check(self, output):
        problems = []
        failures = []
        objective = 0.0
        for i, report in enumerate(output):
            fields = dict(vars(report), dim=self.samples[i].dim)
            found = [f"cluster {i}: {p}" for p in checks.check_recovery(fields, self.points, i)]
            problems += found
            if found:
                failures.append(f"cluster {i}: failed an output check")
            # the subtensor search maximises sigma_min; its reciprocal is the
            # quantity a cheaper, incomplete search would make worse
            objective += 1.0 / report.sigma_min_best if report.sigma_min_best > 0 else 0.0
        return Round(len(output), failures, objective, problems)


WORKLOADS = {
    "paper-sweep": PaperSweep,
    "affine-160": Affine160,
    "recovery-check": RecoveryCheck,
}
