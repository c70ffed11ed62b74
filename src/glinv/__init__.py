"""Exact combinatorics and homological invariants of GL-stable ideals in the
coordinate ring of generic m x n matrices.

The classification layer (partitions, ideals) encodes every invariant ideal
as a canonical antichain of partitions. The homological layer (homology,
loccoh, betti) computes graded Ext characters, regularity, local cohomology
multiplicity tables, and equivariant Betti numbers, all in exact integer
arithmetic.
"""

from .betti import BettiTable, betti_polynomial, betti_table, h_rect
from .homology import (
    DegreeWindow,
    ZPair,
    attainable_indices,
    ext_jzl,
    ext_map_analysis,
    ext_min_degree,
    ext_quotient,
    regularity,
    saturation_filter,
    zset,
    zset_of_generators,
)
from .ideals import (
    InvariantIdeal,
    MatrixContext,
    ideal_leq,
    make_ideal,
    power_of_minors,
    saturate,
    saturated_power,
    saturation_generators,
    strip_short_columns,
    succ_min,
    symbolic_power,
)
from .loccoh import LCTable, ds_character, lc_support, lc_table
from .partitions import (
    attach,
    conjugate,
    dominant_weight,
    dual_weight,
    enumerate_in_box,
    leq,
    minimalize,
    part,
    partition,
    partitions_of_size_in_box,
    qbinomial,
    size,
    truncate_columns,
)
from .schur import EquivariantCharacter, IrredTerm, dim_schur, dim_term

__version__ = "0.1.0"


def __getattr__(name):
    # the reference corpus serves only selftest, so it loads on first use
    if name == "run_golden_checks":
        from .golden import run_golden_checks
        return run_golden_checks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BettiTable", "betti_polynomial", "betti_table", "h_rect",
    "DegreeWindow", "ZPair", "attainable_indices", "ext_jzl",
    "ext_map_analysis", "ext_min_degree", "ext_quotient", "regularity",
    "saturation_filter", "zset", "zset_of_generators", "run_golden_checks",
    "InvariantIdeal", "MatrixContext", "ideal_leq", "make_ideal",
    "power_of_minors", "saturate", "saturated_power",
    "saturation_generators", "strip_short_columns", "succ_min", "symbolic_power",
    "LCTable", "ds_character", "lc_support", "lc_table",
    "attach", "conjugate", "dominant_weight", "dual_weight",
    "enumerate_in_box", "leq", "minimalize", "part", "partition",
    "partitions_of_size_in_box", "qbinomial", "size", "truncate_columns",
    "EquivariantCharacter", "IrredTerm", "dim_schur", "dim_term",
    "__version__",
]
