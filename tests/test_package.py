"""The package root: its public names and what importing it loads."""

import os
import subprocess
import sys

import ssmc
from ssmc import data, solver, spectral, t_algebra, theory

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


def test_import_leaves_scipy_optimize_unloaded():
    code = (
        "import sys, ssmc\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "print(ssmc.clustering_error([0, 1], [1, 0]))\n"
    )
    # the child imports the same ssmc as this process
    src = os.path.dirname(os.path.dirname(ssmc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout == "0.0\n"
