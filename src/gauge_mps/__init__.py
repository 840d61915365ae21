"""Translation-invariant matrix product vectors with local gauge symmetry.

Construct, canonicalize, and certify MPVs symmetric under finite groups
and SU(2): projective representation tools, canonical forms, symmetry
checks at the state and tensor level, and certified constructions.
"""

from .canonical import (
    CanonicalFormResult,
    CFBlock,
    GaugeRelation,
    canonical_form,
    find_gauge_between,
    pair_decompose,
)
from .constructors import (
    CoupledMatter,
    GaugeBBlock,
    GaugeConstruction,
    MatterABlock,
    Su2Construction,
    build_d10_example,
    build_su2_example,
    couple_matter_to_gauge,
    elementary_b_block,
    gauge_global_symmetry,
    wigner_eckart_a_block,
)
from .groups import (
    FiniteGroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    quaternion_group,
    symmetric_group_s3,
    validate_group,
)
from .reps import (
    CGTable,
    Irrep,
    Multiplier,
    Rep,
    RepDecomposition,
    builtin_catalog,
    check_projective_rep,
    clebsch_gordan,
    conjugate_rep,
    decompose_rep,
    intertwiner_space,
    make_irrep,
    make_rep,
    tensor_product_rep,
    trivial_multiplier,
)
from .su2 import (
    coupled_basis,
    su2_clebsch_gordan,
    su2_element,
    su2_generators,
    su2_samples,
)
from .symmetry import (
    GaussOperators,
    LieOps,
    SymmetryReport,
    VirtualRep,
    analyze_b_structure,
    analyze_gauge_hilbert,
    analyze_matter_local_symmetry,
    check_gauss_law,
    check_global_symmetry,
    check_local_symmetry_gauge,
    check_local_symmetry_matter,
    check_local_symmetry_matter_gauge,
    extract_virtual_rep,
    verify_relation_A,
    verify_relation_B,
)
from .tensors import (
    MpsTensor,
    TensorPair,
    block,
    contract_mpv,
    contract_pair_mpv,
    injectivity_length,
    is_injective,
    is_normal,
    spectral_radius,
    transfer_matrix,
)

__version__ = "0.1.0"
