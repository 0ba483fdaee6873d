"""Computational quadratic Fourier analysis over F_p^n."""

from .core import (
    CapacityError,
    GroupSpec,
    GroupSubset,
    ShapeError,
    dft,
    gauss_sum,
    idft,
    matrix_rank,
    write_subset,
)
from .detectors import hodges_extract
from .factors import (
    AtomLabel,
    LinearFactor,
    QuadraticFactor,
    RankFunction,
    atom_members,
    atom_sizes,
    factor_rank,
    make_high_rank,
    pad_with_high_rank,
    pullback_factor,
    refines,
)
from .regularize import find_dense_subspace
from .setspec import parse_set_spec
from .suites import SUITES, emit_report, run_suite

__all__ = [
    "AtomLabel",
    "CapacityError",
    "GroupSpec",
    "GroupSubset",
    "LinearFactor",
    "QuadraticFactor",
    "RankFunction",
    "SUITES",
    "ShapeError",
    "atom_members",
    "atom_sizes",
    "dft",
    "emit_report",
    "factor_rank",
    "find_dense_subspace",
    "gauss_sum",
    "hodges_extract",
    "idft",
    "make_high_rank",
    "matrix_rank",
    "pad_with_high_rank",
    "parse_set_spec",
    "pullback_factor",
    "refines",
    "run_suite",
    "write_subset",
]
