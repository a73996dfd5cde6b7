"""Finite-dimensional workbench for Pukanszky-invariant computations.

Numerical side: dense multi-matrix algebras with weighted traces, their GNS
representation, generated *-algebras, commutants, and multiplicity spectra.
Symbolic side: subsets of N ∪ {∞}, the invariant formula of the inductive
masa construction with its truncated evaluation, and planners realizing
prescribed invariants.  Diagrams tie the two together as dyadic grids.

``import puklab`` runs no layer's code.  Every layer but ``core`` and
``cli`` is bound through :func:`_lazy_module`: it sits in ``sys.modules``
from here on and runs the first time anything touches it, so a command runs
only the layers it calls.  ``core`` binds numpy and is imported when first
asked for, so a process without numpy still fails at ``import puklab.core``
and never holds a half-run ``core``.  ``cli`` is imported as usual, since
``runpy`` warns when ``python -m puklab.cli`` finds it in ``sys.modules``.
The layers' public names are looked up in their modules when asked for
(PEP 562).
"""

import importlib.util
import sys


def _lazy_module(name: str):
    """``name`` if it is loaded, else a module that runs its code on first attribute access.

    A missing module, or one blocked by ``None`` in ``sys.modules``, raises here.
    """
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


algebra, config, constructions, diagrams, errors, indices, invariant, nsets = (
    _lazy_module(f"{__name__}.{name}")
    for name in ("algebra", "config", "constructions", "diagrams", "errors", "indices",
                 "invariant", "nsets")
)

# each layer's public names, served by ``__getattr__`` from the layer itself
_PUBLIC = {
    "algebra": ("AlgebraBasis", "SpectrumReport", "commutant", "cutdown_spectrum",
                "finite_puk_spectrum", "generate_algebra", "minimal_projections",
                "mixed_spectrum", "orthonormalize_span"),
    "constructions": ("FamilySpanReport", "ShiftGadget", "TruncatedAutomorphism",
                      "build_gadget", "family_span_check", "intertwiner_check",
                      "intertwiner_grams", "keyclaim_check", "truncated_masa_pair"),
    "core": ("GnsSpace", "TracedAlgebraShape", "adjoint", "normalized_trace", "tensor"),
    "diagrams": ("MultiplicityDiagram", "diagram_from_construction", "diagram_from_numeric",
                 "render"),
    "errors": (),
    "indices": ("ROOT", "GlueReport", "LambdaSpec", "MultiIndex", "Override", "QuadrantRules",
                "fiber", "glue_check", "index_count", "iter_indices",
                "iter_sibling_pairs", "pipe", "restrict", "sibling_pair_count"),
    "invariant": ("CutdownOracle", "EvalResult", "FamilyPlan", "GadgetAssignment",
                  "choose_lambda_for_e", "choose_lambda_for_efg", "cor_plan_1_in_puk",
                  "countable_family_plan", "eval_construction"),
    "nsets": ("INF", "NSet", "direct_sum_puk", "nset_product", "tensor_mixed",
              "tensor_mixed_infinite"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in (module, *names)}


def __getattr__(name):
    """``core``, or a layer's public name, looked up when first asked for (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    return module if name in _PUBLIC else getattr(module, name)


__all__ = sorted(_HOME)
__version__ = "0.1.0"
