"""Truncated evaluation of the invariant formula, and planners for choosing pair values.

The invariant of a masa built by the inductive construction is the union,
over all levels and sibling pairs, of the pair value times the base-masa
cutdown type at the pair's leading dyadic indices.  Here that type comes
from a :class:`CutdownOracle` (a constant, or one dyadic grid per level),
evaluation truncates at a chosen level with an honest convergence flag, and
the planners invert the formula: they pick pair values realizing a requested
set (or triple of sets, or family matrix).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

from .diagrams import MultiplicityDiagram
from .errors import EmptyInputError, InvalidInputError, InvalidLambdaError, OracleGapError
from .indices import LambdaSpec, QuadrantRules
from .nsets import (
    INF,
    NSet,
    is_valid_value,
    nset_product,
    tensor_mixed,
    tensor_mixed_infinite,
    union_all,
)


@dataclass(frozen=True, eq=False)
class CutdownOracle:
    """Cutdown types of the base masa over dyadic index pairs.

    Either a constant (every pair at every level maps to the same set) or a
    stack of grids, ``grids[d]`` at the pairs of ``d``-bit strings: the finest
    is the table and each coarser one its :meth:`MultiplicityDiagram.coarsen`,
    so every entry is the union over its refinements.  Readers take a level's
    cutdown types from :meth:`cells`, which serves both kinds.
    """

    grids: tuple[MultiplicityDiagram, ...] = ()
    constant_value: NSet | None = None

    @property
    def level(self) -> int | None:
        return len(self.grids) - 1 if self.grids else None

    @classmethod
    def constant(cls, value: NSet) -> "CutdownOracle":
        if value.is_empty:
            raise EmptyInputError("oracle entries must be non-empty")
        return cls((), value)

    @classmethod
    def simple(cls) -> "CutdownOracle":
        """The oracle of a masa whose left-right algebra is maximal abelian."""
        return cls.constant(NSet.of(1))

    @classmethod
    def from_table(cls, level: int, entries: dict) -> "CutdownOracle":
        if level < 0:
            raise ValueError("oracle level must be non-negative")
        table, index = {}, {}  # index: each label seen, checked once, to its row or column
        for (row, col), value in entries.items():
            if row not in index or col not in index:
                if len(row) != level or len(col) != level or set(row + col) - {"0", "1"}:
                    raise ValueError(f"bad oracle key ({row!r}, {col!r}) for level {level}")
                index[row], index[col] = int(row or "0", 2), int(col or "0", 2)
            if value.is_empty:
                raise EmptyInputError("oracle entries must be non-empty")
            table[index[row], index[col]] = value
        if len(table) != 4 ** level:
            raise OracleGapError(f"oracle table needs all {4 ** level} pairs at level {level}")
        cells = tuple(tuple(table[x, y] for y in range(1 << level)) for x in range(1 << level))
        grids = [MultiplicityDiagram(level, cells)]
        while grids[-1].level:
            grids.append(grids[-1].coarsen())
        return cls(tuple(reversed(grids)))

    def covers_level(self, level: int) -> bool:
        return self.level is None or level <= self.level

    def cells(self, level: int) -> tuple[tuple[NSet, ...], ...]:
        """Cutdown types at every pair of ``level``-bit strings, rows and columns in label order."""
        if self.constant_value is not None:
            return ((self.constant_value,) * (1 << level),) * (1 << level)
        if level > self.level:
            raise OracleGapError(f"oracle stores level {self.level}, asked for {level}")
        return self.grids[level].cells


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
    leading cell (:meth:`LambdaSpec.cell_values`, whose guard bounds the
    cells and runs walked at each level), never once per pair.  The
    convergence flag is set when the cumulative union is stable over the last
    two levels and the value specification cannot produce new values at
    deeper levels; when it is false the result is a truncation and possibly
    incomplete.
    """
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
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
    cells, product = oracle.cells(r + 1), cache(nset_product)  # one product per distinct pair
    return union_all([product(values, cells[a][b])
                      for (a, b), values in lam.cell_values(r, quadrant).items()])


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
class GadgetAssignment:
    """One tensor factor of the family: a gadget handling a single pair.

    The two members of ``pair`` play the conjugated roles (A and B) with
    parameter ``n``; every other family member takes the bystander role C,
    whose mixed invariant against either is ``{1}``.  ``n == inf`` stands for
    the infinite tensor power of the ``n = 2`` gadget.
    """

    pair: tuple[int, int]
    n: object  # int >= 2 or math.inf
    roles: tuple[str, ...]

    def contribution(self, a: int, b: int) -> NSet:
        if (a, b) != self.pair and (b, a) != self.pair:
            return NSet.of(1)
        if self.n == INF:
            return tensor_mixed_infinite([NSet.of(2)], tail_all_ones=False)
        return NSet.of(self.n)


@dataclass(frozen=True)
class FamilyPlan:
    """Role table realizing a symmetric target matrix of pairwise invariants."""

    size: int
    matrix: tuple[tuple[object, ...], ...]
    assignments: tuple[GadgetAssignment, ...]

    def pairwise_invariant(self, a: int, b: int) -> NSet:
        """Symbolic mixed invariant of family members ``a`` and ``b``."""
        if a == b:
            return NSet.of(1)
        return tensor_mixed(g.contribution(a, b) for g in self.assignments)

    def pairwise_table(self) -> tuple[tuple[NSet, ...], ...]:
        return tuple(
            tuple(self.pairwise_invariant(a, b) for b in range(self.size))
            for a in range(self.size)
        )

    def evaluate(self) -> NSet:
        """Invariant of the block-diagonal sum of the family: {1} plus all pairs."""
        out = NSet.of(1)
        for a in range(self.size):
            for b in range(a + 1, self.size):
                out = out | self.pairwise_invariant(a, b)
        return out


def countable_family_plan(matrix) -> FamilyPlan:
    """Plan a family of masas whose pairwise mixed invariants match ``matrix``.

    ``matrix`` is a symmetric square array over positive integers and ``inf``
    with ones on the diagonal.  Each off-diagonal entry above 1 gets its own
    gadget; the symbolic evaluation of the plan returns exactly the singleton
    of the requested entry for every pair.
    """
    rows = [tuple(row) for row in matrix]
    k = len(rows)
    if any(len(row) != k for row in rows):
        raise InvalidLambdaError("matrix must be square")
    for a in range(k):
        if rows[a][a] != 1:
            raise InvalidLambdaError("diagonal entries must all be 1")
        for b in range(k):
            if not is_valid_value(rows[a][b]):
                raise InvalidLambdaError(f"entry ({a},{b}) is not in N ∪ {{inf}}")
            if rows[a][b] != rows[b][a]:
                raise InvalidLambdaError("matrix must be symmetric")
    assignments = []
    for a in range(k):
        for b in range(a + 1, k):
            value = rows[a][b]
            if value == 1:
                continue
            roles = tuple("A" if t == a else "B" if t == b else "C" for t in range(k))
            assignments.append(GadgetAssignment((a, b), value, roles))
    return FamilyPlan(k, tuple(rows), tuple(assignments))


def cor_plan_1_in_puk(target: NSet) -> FamilyPlan:
    """Plan the smallest block-diagonal family whose invariant is ``target``.

    Requires ``1 ∈ target``.  The family size is the least ``k`` with enough
    unordered pairs for the remaining values; leftover pairs get value 1.
    """
    if 1 not in target:
        raise InvalidInputError("the direct-sum route only reaches sets containing 1")
    values = [v for v in target.sorted_values() if v != 1]
    k = 1
    while comb(k, 2) < len(values):
        k += 1
    grid = [[1] * k for _ in range(k)]
    position = 0
    for a in range(k):
        for b in range(a + 1, k):
            if position < len(values):
                grid[a][b] = grid[b][a] = values[position]
                position += 1
    return countable_family_plan(grid)
