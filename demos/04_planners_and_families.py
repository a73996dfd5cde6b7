"""Planners: realizing prescribed value sets, triples, and family matrices.

Three inverse problems, all solved by choosing where to put pair values:
  * one target set, cycled over the sibling-pair stream;
  * a triple (E, F, G) split across the two branches and the cross pairs,
    realizing the two halves' invariants and their mixed invariant at once;
  * a finite set containing 1, realized as a block-diagonal family of simple
    masas whose pairwise mixed invariants are planned gadget by gadget.
"""

from puklab import (
    MultiplicityDiagram,
    choose_lambda_for_e,
    choose_lambda_for_efg,
    cor_plan_1_in_puk,
    countable_family_plan,
    eval_construction,
    render,
)
from puklab.invariant import CutdownOracle
from puklab.nsets import INF, NSet

oracle = CutdownOracle.simple()

print("== one target set ==")
for text in ("7", "2,3", "2,5,inf"):
    target = NSet.parse(text)
    spec = choose_lambda_for_e(target)
    result = eval_construction(spec, oracle, 3)
    print(f"target {{{text}}} -> evaluated {{{result.value}}}, converged {result.converged}")

print("\n== a triple (E, F, G) ==")
e, f, g = NSet.parse("2"), NSet.parse("5,inf"), NSet.parse("7")
spec = choose_lambda_for_efg(e, f, g)
for quadrant in ("both_zero", "both_one", "mixed"):
    value = eval_construction(spec, oracle, 2, quadrant).value
    print(f"  {quadrant:10s} -> {{{value}}}")
print(f"  full union -> {{{eval_construction(spec, oracle, 2).value}}}")

print("\n== a finite set containing 1, as a block-diagonal family ==")
target = NSet.parse("1,2,3,inf")
plan = cor_plan_1_in_puk(target)
print(f"target {{{target}}}: {plan.size} masas, pair matrix:")
for row in plan.matrix:
    print("   ", ["inf" if v == INF else v for v in row])
print(f"evaluated invariant of the direct sum: {{{plan.evaluate()}}}")

print("\n== a four-masa family with two marked pairs ==")
matrix = [
    [1, 3, 1, 1],
    [3, 1, 1, 1],
    [1, 1, 1, 3],
    [1, 1, 3, 1],
]
family = countable_family_plan(matrix)
for gadget in family.assignments:
    print(f"  pair {gadget.pair}: gadget with n={gadget.n}")
table = family.pairwise_table()
grid = MultiplicityDiagram(2, table)
print("\npairwise mixed invariants of the family:")
print(render(grid, "ascii"))

svg = render(grid, "svg")
with open("family_grid.svg", "w", encoding="utf-8") as handle:
    handle.write(svg)
print("wrote family_grid.svg")
