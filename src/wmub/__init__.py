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
    symplectic_label_defect,
    unitarity_bound,
    wmub_census,
)
from .geometry import (
    CatalogEntry,
    DetNotOne,
    Line,
    LinePairClass,
    LinePairs,
    MaximalLineCatalog,
    ModulusMismatch,
    NotMaximal,
    SharedComponent,
    SymplecticMatrix,
    catalog_layout,
    classify_line_pair,
    factorize_line,
    line,
    matrix_factorize,
    maximal_line_catalog,
    pair_census,
    partition_lines,
    redundancy,
    sweep_entries,
    sweep_matrix,
)
from .hilbert import (
    DimMismatch,
    DimTooLarge,
    EvenDimension,
    NotOddPrime,
    OrthonormalBasis,
    UnsupportedMatrix,
    assemble_tensor_basis,
    check_crt_relabelling,
    conjugation_defect,
    crt_index_maps,
    displacement,
    fourier,
    omega,
    prime_mub,
    quadratic_phase,
    symplectic_unitary,
    unitarity_defect,
    x_op,
    z_op,
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
