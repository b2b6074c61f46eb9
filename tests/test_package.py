"""The package root: its public names and what importing it loads."""

import json
import os
import subprocess
import sys

import ssmc
from ssmc import cli, data, solver, spectral, t_algebra, theory

MODULES = (data, solver, spectral, t_algebra, theory)


def test_root_exports_exactly_the_modules_public_names():
    names = {"NUMBA_ENABLED", "__version__"}
    for module in MODULES:
        names.update(module.__all__)
    assert len(ssmc.__all__) == len(set(ssmc.__all__))
    assert set(ssmc.__all__) == names
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ssmc, name) is getattr(module, name), name


# each command writes its payload to --out; synth's file leaves out the run time
COMMANDS = {
    "cluster": ["cluster", "--input", "{tensor}", "--k", "2", "--lambda-g", "100",
                "--truth", "{truth}"],
    "sweep": ["sweep", "--input", "{tensor}", "--k", "2", "--grid", "1e-2,1",
              "--truth", "{truth}"],
    "synth": ["synth", "--h", "6", "--depth", "4", "--dims", "2,2", "--samples", "5,5",
              "--lambda-g", "100", "--seed", "3"],
}  # fmt: skip
OUTPUTS = {"cluster": ("json",), "sweep": ("json", "csv"), "synth": ("json",)}

BLOCKED_CHILD = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import ssmc
from ssmc import cli
print(json.dumps(ssmc.clustering_error([0, 0, 1, 2], [5, 5, 7, 7])))
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    if code != 0:
        sys.exit(code)
"""


def test_package_runs_with_scipy_blocked(tmp_path, capsys):
    spec = data.SynthSpec(h=6, d_per_cluster=[2, 2], samples_per_cluster=[6, 6], depth=4, seed=0)
    labeled = data.generate_synthetic(spec)
    tensor, truth = tmp_path / "data.tsr1", tmp_path / "truth.json"
    t_algebra.write_tsr1(tensor, labeled.tensor)
    truth.write_text(json.dumps(labeled.truth.labels.tolist()))

    def argvs(prefix):
        return [
            [a.format(tensor=tensor, truth=truth) for a in argv]
            + ["--out", str(tmp_path / f"{prefix}-{name}.json")]
            for name, argv in COMMANDS.items()
        ]

    # the child imports the same ssmc as this process
    src = os.path.dirname(os.path.dirname(ssmc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    child = subprocess.run(
        [sys.executable, "-c", BLOCKED_CHILD, json.dumps(argvs("child"))],
        capture_output=True, text=True, env=env, timeout=300,
    )  # fmt: skip
    assert child.returncode == 0, child.stderr
    expected = data.clustering_error([0, 0, 1, 2], [5, 5, 7, 7])
    assert child.stdout.splitlines()[0] == json.dumps(expected)
    for argv in argvs("here"):
        assert cli.main(argv) == 0
    capsys.readouterr()
    for name, exts in OUTPUTS.items():
        for ext in exts:
            got = (tmp_path / f"child-{name}.{ext}").read_bytes()
            assert got == (tmp_path / f"here-{name}.{ext}").read_bytes(), (name, ext)
