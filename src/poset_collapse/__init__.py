"""Collapsing order complexes along monotone poset maps, with certificates.

Decides nonevasiveness with explicit recursive witnesses, searches and
verifies NE-reductions and elementary-collapse sequences between order
complexes, constructs the reduction Delta(P) -> Delta(Q) for monotone
self-maps, and checks the Hall/Crapo Mobius-function identities.
"""

from .collapse import (
    CollapseSequence,
    apply_collapse,
    certificate_to_collapse,
    free_pairs,
    search_collapse,
    verify_collapse,
    witness_to_vertex_collapse,
)
from .complexes import (
    VOID,
    ComplexError,
    SimplicialComplex,
    VoidComplex,
    delete_vertex,
    induced_subcomplex,
    is_cone,
    join,
    link,
    order_complex,
    reduced_euler,
    relabel,
    z2_betti,
)
from .evasiveness import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    EVASIVE,
    NOT_FOUND,
    CommonExpansion,
    NEClassification,
    NECertificate,
    PointWitness,
    SearchBudget,
    SplitWitness,
    Witness,
    classify_ne_equivalence,
    common_expansion,
    cone_witness,
    is_nonevasive,
    join_witness,
    lift_certificate_over_join,
    replay_certificate,
    search_ne_reduction,
    verify_ne_certificate,
    verify_witness,
)
from .mobius import CrapoCheck, HallCheck, MobiusTable, crapo_check, hall_check, mobius_table
from .poset import (
    Poset,
    PosetError,
    PosetMap,
    decompose_monotone,
    open_interval,
    stabilize,
    stable_preimage,
)
from .reduction import ReductionReport, interval_witness, reduce_to_image, theorem_reduce

__all__ = [name for name in dir() if not name.startswith("_")]
