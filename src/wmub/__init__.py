"""Phase-plane line geometry over Z(d) and weak mutually unbiased bases.

For d the product of two distinct odd primes, this package enumerates the
maximal lines through the origin of Z(d) x Z(d), builds the matching family
of weak mutually unbiased bases in C^d, and certifies the pairwise duality
between intersection sizes and overlap templates.
"""

from .bases import (
    DualityReport,
    NotWeaklyUnbiased,
    OverlapCategory,
    PairCertificate,
    WmubSet,
    build_wmub,
    conjugation_bound,
    unitarity_bound,
)
from .geometry import (
    DetNotOne,
    MaximalLineCatalog,
    catalog_layout,
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
    check_crt_relabelling,
    conjugation_defect,
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
    mod_inverse,
    prime_factorization,
)

__version__ = "0.1.0"
