"""Sparse submodule clustering of 2-D data via the tensor t-product.

Lateral slices of a third-order tensor are expressed as tube-coefficient
combinations of each other by a group-sparse self-representation program
solved with ADMM in the Fourier domain; the coefficient magnitudes form an
affinity matrix that spectral clustering partitions.  The ``theory`` module
provides computable checkers for the recovery guarantees of this model.
"""

import logging

from . import data, solver, spectral, t_algebra, theory
from .data import *
from .solver import *
from .spectral import *
from .t_algebra import *
from .theory import *

__version__ = "0.1.0"

# The modules log to the "ssmc" logger tree, at DEBUG only; nothing is printed
# unless the application configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())

# Always False: there is no JIT build.  perfbench/run.py records it in its env line.
NUMBA_ENABLED = False

__all__ = [
    "NUMBA_ENABLED",
    *data.__all__,
    *solver.__all__,
    *spectral.__all__,
    *t_algebra.__all__,
    *theory.__all__,
    "__version__",
]
