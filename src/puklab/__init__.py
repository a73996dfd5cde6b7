"""Finite-dimensional workbench for Pukanszky-invariant computations.

Numerical side: dense multi-matrix algebras with weighted traces, their GNS
representation, generated *-algebras, commutants, and multiplicity spectra.
Symbolic side: subsets of N ∪ {∞}, the invariant formula of the inductive
masa construction with its truncated evaluation, and planners realizing
prescribed invariants.  Diagrams tie the two together as dyadic grids.
"""

from .algebra import (
    AlgebraBasis,
    SpectrumReport,
    commutant,
    cutdown_spectrum,
    finite_puk_spectrum,
    generate_algebra,
    minimal_projections,
    mixed_spectrum,
    orthonormalize_span,
)
from .constructions import (
    FamilyPlan,
    FamilySpanReport,
    GadgetAssignment,
    ShiftGadget,
    TruncatedAutomorphism,
    build_gadget,
    countable_family_plan,
    family_span_check,
    intertwiner_check,
    intertwiner_grams,
    keyclaim_check,
    truncated_masa_pair,
)
from .core import (
    GnsConjugation,
    GnsSpace,
    TracedAlgebraShape,
    adjoint,
    normalized_trace,
    tensor,
)
from .diagrams import (
    MultiplicityDiagram,
    diagram_from_construction,
    diagram_from_numeric,
    render,
)
from .indices import (
    ROOT,
    GlueReport,
    LambdaSpec,
    MultiIndex,
    Override,
    QuadrantRules,
    fiber,
    geq,
    glue_check,
    index_count,
    iter_indices,
    iter_sibling_pairs,
    pipe,
    restrict,
    sibling_pair_count,
)
from .invariant import (
    CutdownOracle,
    DirectSumPlan,
    EvalResult,
    choose_lambda_for_e,
    choose_lambda_for_efg,
    cor_plan_1_in_puk,
    eval_construction,
)
from .nsets import (
    INF,
    NSet,
    direct_sum_puk,
    nset_product,
    tensor_mixed,
    tensor_mixed_infinite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
