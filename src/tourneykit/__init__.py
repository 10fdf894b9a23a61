"""Tournament combinatorics workbench.

Bit-packed tournaments, exact canonical forms, homogeneous-block
decomposition, the named generator families, structure detection, and
hereditary-property speed counting, plus a CLI and a verification suite
replaying the finite-scale counting claims.
"""

from .blocks import (
    BlockDecomposition,
    BlockRelationError,
    SeparationError,
    block_count,
    decompose,
    estimate_k,
    is_homogeneous_pair,
    separate_blocks,
)
from .canon import (
    CanonicalForm,
    automorphism_order,
    canonical_form,
    is_isomorphic,
)
from .families import (
    CompositionSeq,
    FamilyMembershipError,
    FlagTriple,
    ReversalSpec,
    make_M,
    make_M_general,
    make_T,
    make_TS,
    make_Tstar,
    make_cyclic,
    make_cyclic_blowup,
    make_moon_tower,
    make_type1,
    reconstruct_S,
    reconstruct_seq,
)
from .speed import (
    BudgetExceededError,
    SpeedTable,
    all_classes,
    avoidance_closure,
    check_supermultiplicative,
    distinct_sub_classes,
    hereditary_closure,
)
from .structures import (
    StructureWitness,
    contains_induced,
    detect_type1,
    detect_type2,
    dn_membership,
    max_transitive,
)
from .tournament import (
    InfeasibleSizeError,
    Tournament,
    concat,
    pair_count,
    pair_index,
    random_tournament,
    read_edge_list,
    substitute,
)
from .verify import (
    check_olarge,
    count_cyclic_subs,
    count_sub_L,
    count_sub_L_scan,
    count_tn_lower,
    fstar,
    property_slope,
    type1_tn_classes,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition",
    "BlockRelationError",
    "BudgetExceededError",
    "CanonicalForm",
    "CompositionSeq",
    "FamilyMembershipError",
    "FlagTriple",
    "InfeasibleSizeError",
    "ReversalSpec",
    "SeparationError",
    "SpeedTable",
    "StructureWitness",
    "Tournament",
    "all_classes",
    "automorphism_order",
    "avoidance_closure",
    "block_count",
    "canonical_form",
    "check_olarge",
    "check_supermultiplicative",
    "concat",
    "contains_induced",
    "count_cyclic_subs",
    "count_sub_L",
    "count_sub_L_scan",
    "count_tn_lower",
    "decompose",
    "detect_type1",
    "detect_type2",
    "distinct_sub_classes",
    "dn_membership",
    "estimate_k",
    "fstar",
    "hereditary_closure",
    "is_homogeneous_pair",
    "is_isomorphic",
    "make_M",
    "make_M_general",
    "make_T",
    "make_TS",
    "make_Tstar",
    "make_cyclic",
    "make_cyclic_blowup",
    "make_moon_tower",
    "make_type1",
    "max_transitive",
    "pair_count",
    "pair_index",
    "property_slope",
    "random_tournament",
    "read_edge_list",
    "reconstruct_S",
    "reconstruct_seq",
    "separate_blocks",
    "substitute",
    "type1_tn_classes",
]
