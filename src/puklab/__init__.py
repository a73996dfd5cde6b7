"""Finite-dimensional workbench for Pukanszky-invariant computations.

Numerical side: dense multi-matrix algebras with weighted traces, their GNS
representation, generated *-algebras, commutants, and multiplicity spectra.
Symbolic side: subsets of N ∪ {∞}, the invariant formula of the inductive
masa construction with its truncated evaluation, and planners realizing
prescribed invariants.  Diagrams tie the two together as dyadic grids.

The symbolic modules load neither numpy nor the numerical ones, and the
numerical names below are looked up in their modules when asked for, so
symbolic work runs without numpy.
"""

from importlib import import_module as _import_module

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
    EvalResult,
    FamilyPlan,
    GadgetAssignment,
    choose_lambda_for_e,
    choose_lambda_for_efg,
    cor_plan_1_in_puk,
    countable_family_plan,
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

_NUMERIC = {
    "algebra": ("AlgebraBasis", "SpectrumReport", "commutant", "cutdown_spectrum",
                "finite_puk_spectrum", "generate_algebra", "minimal_projections",
                "mixed_spectrum", "orthonormalize_span"),
    "constructions": ("FamilySpanReport", "ShiftGadget", "TruncatedAutomorphism",
                      "build_gadget", "family_span_check", "intertwiner_check",
                      "intertwiner_grams", "keyclaim_check", "truncated_masa_pair"),
    "core": ("GnsConjugation", "GnsSpace", "TracedAlgebraShape", "adjoint",
             "normalized_trace", "tensor"),
}
_HOME = {name: module for module, names in _NUMERIC.items() for name in (module, *names)}


def __getattr__(name):
    """A numerical module or one of its names, imported when first asked for (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_HOME[name]}")
    return module if name in _NUMERIC else getattr(module, name)


__all__ = sorted({name for name in dir() if not name.startswith("_")} | _HOME.keys())
__version__ = "0.1.0"
