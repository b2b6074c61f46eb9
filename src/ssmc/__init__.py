"""Sparse submodule clustering of 2-D data via the tensor t-product.

Lateral slices of a third-order tensor are expressed as tube-coefficient
combinations of each other by a group-sparse self-representation program
solved with ADMM in the Fourier domain; the coefficient magnitudes form an
affinity matrix that spectral clustering partitions.  The ``theory`` module
provides computable checkers for the recovery guarantees of this model.
"""

from .data import (
    SHIFT_JITTER,
    LabeledTensor,
    SynthSpec,
    clustering_error,
    generate_submodules,
    generate_synthetic,
    load_idx_images,
    load_idx_labels,
    load_pgm_dir,
    shift_images,
)
from .solver import (
    SolverConfig,
    SolverReport,
    affinity_from_tensor,
    solve_path,
    solve_self_representation,
)
from .spectral import ClusterLabels, kmeans, spectral_cluster
from .t_algebra import (
    FormatError,
    bcirc,
    bcirc_singular_values,
    e_tube,
    fft3,
    fold,
    identity_tensor,
    ifft3,
    norm_f1,
    norm_ff1,
    norm_fro,
    read_tsr1,
    tprod,
    tprod_bcirc_oracle,
    ttranspose,
    tubal_angle_cos,
    tube_conv,
    unfold,
    write_tsr1,
)
from .theory import (
    SubmoduleSample,
    TheoremReport,
    coherence,
    is_generating_set,
    min_f1_representation,
    theorem3_check,
)

__version__ = "0.1.0"

# Always False: there is no JIT build.  perfbench/run.py records it in its env line.
NUMBA_ENABLED = False

__all__ = [
    "NUMBA_ENABLED",
    "SHIFT_JITTER",
    "LabeledTensor",
    "SynthSpec",
    "clustering_error",
    "generate_submodules",
    "generate_synthetic",
    "load_idx_images",
    "load_idx_labels",
    "load_pgm_dir",
    "shift_images",
    "SolverConfig",
    "SolverReport",
    "affinity_from_tensor",
    "solve_path",
    "solve_self_representation",
    "ClusterLabels",
    "kmeans",
    "spectral_cluster",
    "FormatError",
    "bcirc",
    "bcirc_singular_values",
    "e_tube",
    "fft3",
    "fold",
    "identity_tensor",
    "ifft3",
    "norm_f1",
    "norm_ff1",
    "norm_fro",
    "read_tsr1",
    "tprod",
    "tprod_bcirc_oracle",
    "ttranspose",
    "tubal_angle_cos",
    "tube_conv",
    "unfold",
    "write_tsr1",
    "SubmoduleSample",
    "TheoremReport",
    "coherence",
    "is_generating_set",
    "min_f1_representation",
    "theorem3_check",
    "__version__",
]
