"""Phase-plane line geometry over Z(d) and weak mutually unbiased bases.

For d the product of two distinct odd primes, this package enumerates the
maximal lines through the origin of Z(d) x Z(d), builds the matching family
of weak mutually unbiased bases in C^d, and certifies the pairwise duality
between intersection sizes and overlap templates.
"""

from .bases import (
    DualityReport,
    DualityViolation,
    NotWeaklyUnbiased,
    OverlapCategory,
    OverlapClass,
    WmubSet,
    build_wmub,
    classify_pair,
    conjugation_bound,
    duality_report,
    overlap_table,
    pair_categories,
    partition_bases,
    unitarity_bound,
    wmub_census,
)
from .geometry import (
    DetNotOne,
    Line,
    LinePairClass,
    LinePairs,
    MaximalLineCatalog,
    ModulusMismatch,
    NotMaximal,
    SharedComponent,
    catalog_layout,
    classify_line_pair,
    line,
    maximal_line_catalog,
    pair_census,
    partition_lines,
    redundancy,
    sweep_entries,
)
from .hilbert import (
    DimMismatch,
    DimTooLarge,
    EvenDimension,
    NotOddPrime,
    assemble_tensor_basis,
    check_crt_relabelling,
    conjugation_defect,
    crt_index_maps,
    fourier,
    prime_mub,
    unitarity_defect,
)
from .zring import (
    CrtContext,
    InvalidDims,
    ModulusTooLarge,
    NotAUnit,
    crt_context,
    dedekind_psi,
    euler_phi,
    jordan_j2,
    mod_inverse,
    prime_factorization,
)

__version__ = "0.1.0"
