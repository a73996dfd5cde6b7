"""Truncated evaluation of the invariant formula, and planners for choosing pair values.

The invariant of a masa built by the inductive construction is the union,
over all levels and sibling pairs, of the pair value times the base-masa
cutdown type at the pair's leading dyadic indices.  Here the base-masa data
is a :class:`CutdownOracle`, evaluation truncates at a chosen level with an
honest convergence flag, and the planners invert the formula: they pick pair
values realizing a requested set (or triple of sets, or family matrix).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .constructions import FamilyPlan, countable_family_plan
from .errors import (
    EmptyInputError,
    InvalidInputError,
    OracleGapError,
)
from .indices import LambdaSpec, QuadrantRules
from .nsets import NSet, nset_product, union_all

QUADRANT_NAMES = (None, "both_zero", "both_one", "mixed")


@dataclass(frozen=True, eq=False)
class CutdownOracle:
    """Cutdown types of the base masa over dyadic index pairs.

    Either a constant (every pair at every level maps to the same set) or a
    table at a fixed ``level``: entries for all ordered pairs of ``level``-bit
    strings.  Entries at coarser pairs are unions over their refinements, so
    the table is refinement-consistent by construction.
    """

    level: int | None = None
    table: dict | None = None  # (row_bits, col_bits) -> NSet
    constant_value: NSet | None = None

    @classmethod
    def constant(cls, value: NSet) -> "CutdownOracle":
        if value.is_empty:
            raise EmptyInputError("oracle entries must be non-empty")
        return cls(None, None, value)

    @classmethod
    def simple(cls) -> "CutdownOracle":
        """The oracle of a masa whose left-right algebra is maximal abelian."""
        return cls.constant(NSet.of(1))

    @classmethod
    def from_table(cls, level: int, entries: dict) -> "CutdownOracle":
        if level < 0:
            raise ValueError("oracle level must be non-negative")
        table = {}
        for (row, col), value in entries.items():
            if len(row) != level or len(col) != level or set(row + col) - {"0", "1"}:
                raise ValueError(f"bad oracle key ({row!r}, {col!r}) for level {level}")
            if value.is_empty:
                raise EmptyInputError("oracle entries must be non-empty")
            table[(row, col)] = value
        expected = 1 << (2 * level)
        if len(table) != expected:
            raise OracleGapError(f"oracle table needs all {expected} pairs at level {level}")
        return cls(level, table, None)

    def covers_level(self, level: int) -> bool:
        return self.level is None or level <= self.level

    def entry(self, row: str, col: str) -> NSet:
        """Cutdown type at an ordered pair of equal-length bit strings."""
        if self.constant_value is not None:
            return self.constant_value
        depth = len(row)
        if len(col) != depth:
            raise OracleGapError(f"mismatched key lengths {row!r}, {col!r}")
        if depth > self.level:
            raise OracleGapError(f"oracle stores level {self.level}, asked for {depth}")
        pad = self.level - depth
        out = NSet()
        for a in range(1 << pad):
            for b in range(1 << pad):
                key = (row + format(a, f"0{pad}b") if pad else row,
                       col + format(b, f"0{pad}b") if pad else col)
                out = out | self.table[key]
        return out


@dataclass(frozen=True)
class EvalResult:
    """Truncated union with per-level contributions and a convergence verdict."""

    value: NSet
    converged: bool
    per_level: tuple[NSet, ...]


def eval_construction(
    lam: LambdaSpec,
    oracle: CutdownOracle,
    r_max: int,
    quadrant: str | None = None,
) -> EvalResult:
    """The invariant union truncated at ``r_max``, optionally quadrant-restricted.

    Each level contributes the products of its pair values with the oracle
    entries at the pairs' leading indices; a table oracle is read once per
    leading cell (:meth:`LambdaSpec.cell_values`), never once per pair.  The
    convergence flag is set when the cumulative union is stable over the last
    two levels and the value specification cannot produce new values at
    deeper levels; when it is false the result is a truncation and possibly
    incomplete.
    """
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    if quadrant not in QUADRANT_NAMES:
        raise ValueError(f"unknown quadrant {quadrant!r}")
    if not oracle.covers_level(r_max + 1):
        raise OracleGapError(
            f"oracle level {oracle.level} does not cover the pairs at level {r_max}"
        )
    per_level = []
    for r in range(r_max + 1):
        if oracle.constant_value is not None:
            values = lam.value_set_at_level(r, quadrant)
            per_level.append(nset_product(values, oracle.constant_value))
        else:
            per_level.append(_tabulated_level(lam, oracle, r, quadrant))
    value = union_all(per_level)
    stable = r_max >= 1 and union_all(per_level[:-1]) == value
    return EvalResult(value, stable and lam.values_complete_by(r_max), tuple(per_level))


def _tabulated_level(lam: LambdaSpec, oracle: CutdownOracle, r: int, quadrant) -> NSet:
    out = NSet()
    for (a, b), values in lam.cell_values(r).items():
        if quadrant is not None and _classify(r, a, b) != quadrant:
            continue
        row, col = format(a, f"0{r + 1}b"), format(b, f"0{r + 1}b")
        out = out | nset_product(NSet.from_iterable(values), oracle.entry(row, col))
    return out


def _classify(r: int, lead_i: int, lead_j: int) -> str:
    """Quadrant of a level-``r`` cell from the branch bits of its leading words."""
    if lead_i >> r != lead_j >> r:
        return "mixed"
    return "both_zero" if lead_i >> r == 0 else "both_one"


def choose_lambda_for_e(target: NSet) -> LambdaSpec:
    """Pair values realizing ``target``: cycle its elements over the pair stream.

    Evaluating the result against the simple oracle returns exactly
    ``target``; every element is hit because the stream is covered
    round-robin.
    """
    if target.is_empty:
        raise EmptyInputError("target set must be non-empty")
    return LambdaSpec(enumeration=target)


def choose_lambda_for_efg(e: NSet, f: NSet, g: NSet) -> LambdaSpec:
    """Quadrant values realizing invariants ``e`` and ``f`` on the two halves
    and mixed invariant ``g`` between them.

    Sibling pairs inside branch 0 cycle through ``e``, those inside branch 1
    through ``f``, and the cross-branch pairs (starting with the unique
    level-0 pair) through ``g``; the three quadrant-restricted evaluations
    against the simple oracle return exactly ``(e, f, g)``.
    """
    for s in (e, f, g):
        if s.is_empty:
            raise EmptyInputError("all three target sets must be non-empty")
    return LambdaSpec(quadrants=QuadrantRules(both_zero=e, both_one=f, mixed=g))


@dataclass(frozen=True)
class DirectSumPlan:
    """A block-diagonal family of simple masas realizing a finite set containing 1."""

    size: int
    matrix: tuple[tuple[object, ...], ...]

    def family_plan(self) -> FamilyPlan:
        return countable_family_plan(self.matrix)

    def evaluate(self) -> NSet:
        """{1} together with every pairwise mixed invariant of the family."""
        return self.family_plan().direct_sum_union()


def cor_plan_1_in_puk(target: NSet) -> DirectSumPlan:
    """Plan the smallest block-diagonal family whose invariant is ``target``.

    Requires ``1 ∈ target``.  The family size is the least ``k`` with enough
    unordered pairs for the remaining values; leftover pairs get value 1.
    """
    if 1 not in target:
        raise InvalidInputError("the direct-sum route only reaches sets containing 1")
    values = [v for v in target.sorted_values() if v != 1]
    if not values:
        return DirectSumPlan(1, ((1,),))
    k = 2
    while comb(k, 2) < len(values):
        k += 1
    grid = [[1] * k for _ in range(k)]
    position = 0
    for a in range(k):
        for b in range(a + 1, k):
            if position < len(values):
                grid[a][b] = grid[b][a] = values[position]
                position += 1
    return DirectSumPlan(k, tuple(tuple(row) for row in grid))
