import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puklab.errors import (
    EmptyInputError,
    InvalidInputError,
    OracleGapError,
)
from puklab.indices import LambdaSpec, Override, iter_sibling_pairs, level_zero
from puklab.invariant import (
    CutdownOracle,
    FamilyPlan,
    GadgetAssignment,
    choose_lambda_for_e,
    choose_lambda_for_efg,
    cor_plan_1_in_puk,
    countable_family_plan,
    eval_construction,
)
from puklab.nsets import INF, NSet, nset_product, tensor_mixed, union_all

INTRO = LambdaSpec(default=3, overrides=(Override(0, level_zero(0), level_zero(1), 2),))
SIMPLE = CutdownOracle.simple()


def entry(oracle, row, col):
    """The cutdown type at a pair of equal-length bit strings."""
    return oracle.cells(len(row))[int(row or "0", 2)][int(col or "0", 2)]


def nonempty_subsets(values):
    out = []
    for size in range(1, len(values) + 1):
        for combo in itertools.combinations(values, size):
            out.append(NSet(combo))
    return out


class TestOracle:
    def test_constant_serves_any_level(self):
        oracle = CutdownOracle.constant(NSet.of(2))
        assert entry(oracle, "0", "1") == NSet.of(2)
        assert entry(oracle, "0101", "1100") == NSet.of(2)

    def test_table_lookup_and_coarsening(self):
        entries = {
            ("0", "0"): NSet.of(1),
            ("0", "1"): NSet.of(2),
            ("1", "0"): NSet.of(2),
            ("1", "1"): NSet.of(1, 3),
        }
        oracle = CutdownOracle.from_table(1, entries)
        assert entry(oracle, "0", "1") == NSet.of(2)
        # the single level-0 entry is the union of all four
        assert entry(oracle, "", "") == NSet.of(1, 2, 3)

    def test_refinement_consistency(self):
        entries = {
            (r, c): NSet.of(1 + (int(r, 2) * 4 + int(c, 2)) % 3)
            for r in ("00", "01", "10", "11")
            for c in ("00", "01", "10", "11")
        }
        oracle = CutdownOracle.from_table(2, entries)
        for row in ("0", "1"):
            for col in ("0", "1"):
                refined = NSet()
                for a in ("0", "1"):
                    for b in ("0", "1"):
                        refined = refined | entry(oracle, row + a, col + b)
                assert entry(oracle, row, col) == refined

    def test_gap_below_table(self):
        oracle = CutdownOracle.from_table(
            1, {(r, c): NSet.of(1) for r in "01" for c in "01"}
        )
        with pytest.raises(OracleGapError):
            entry(oracle, "00", "01")

    def test_incomplete_table_rejected(self):
        with pytest.raises(OracleGapError):
            CutdownOracle.from_table(1, {("0", "0"): NSet.of(1)})

    def test_huge_level_rejected_before_its_grid_is_built(self):
        with pytest.raises(ValueError, match="bad oracle key"):
            CutdownOracle.from_table(40, {("0", "0"): NSet.of(1)})
        with pytest.raises(OracleGapError):
            CutdownOracle.from_table(40, {})

    def test_cells_of_both_kinds(self):
        constant = CutdownOracle.constant(NSet.of(1, 2))
        assert constant.cells(2) == ((NSet.of(1, 2),) * 4,) * 4
        entries = {(r, c): NSet.of(2 if r == c else 3) for r in "01" for c in "01"}
        table = CutdownOracle.from_table(1, entries)
        assert table.cells(1) == ((NSet.of(2), NSet.of(3)), (NSet.of(3), NSet.of(2)))
        assert table.cells(0) == ((NSet.of(2, 3),),)
        with pytest.raises(OracleGapError):
            table.cells(2)

    def test_empty_entry_rejected(self):
        with pytest.raises(EmptyInputError):
            CutdownOracle.constant(NSet())


class TestEvalConstruction:
    def test_intro_walkthrough(self):
        result = eval_construction(INTRO, SIMPLE, 2)
        assert result.value == NSet.of(2, 3)
        assert result.converged
        assert [str(s) for s in result.per_level] == ["2", "3", "3"]

    def test_all_infinity(self):
        result = eval_construction(LambdaSpec(default=INF), SIMPLE, 1)
        assert result.value == NSet.of(INF)
        assert result.converged

    def test_oracle_scales_values(self):
        # constant oracle {n} against an enumerated target: the product set
        target = NSet.of(2, 3)
        spec = choose_lambda_for_e(target)
        oracle = CutdownOracle.constant(NSet.of(5))
        result = eval_construction(spec, oracle, 3)
        assert result.value == nset_product(NSet.of(5), target)

    def test_convergence_is_reaching_the_limit(self):
        # level 0 shows 2 and level 1 shows 3, the whole invariant
        assert not eval_construction(INTRO, SIMPLE, 0).converged
        assert eval_construction(INTRO, SIMPLE, 1).converged
        assert eval_construction(LambdaSpec(default=3), SIMPLE, 0).converged

    def test_convergence_needs_exhausted_spec(self):
        spec = LambdaSpec(
            default=3, overrides=(Override(1, *next(iter_sibling_pairs(1)), 7),)
        )
        # stable union but an override still pending at level 1
        assert not eval_construction(spec, SIMPLE, 0).converged

    def test_monotone_in_truncation_level(self):
        spec = choose_lambda_for_e(NSet.of(1, 2, 3, 5, INF))
        previous = NSet()
        for r in range(4):
            value = eval_construction(spec, SIMPLE, r).value
            assert previous.issubset(value)
            previous = value

    def test_monotone_in_target(self):
        small, big = NSet.of(2), NSet.of(2, 3)
        r = 3
        assert eval_construction(choose_lambda_for_e(small), SIMPLE, r).value.issubset(
            eval_construction(choose_lambda_for_e(big), SIMPLE, r).value
        )

    def test_table_oracle_eval(self):
        entries = {
            ("0", "0"): NSet.of(1),
            ("0", "1"): NSet.of(4),
            ("1", "0"): NSet.of(4),
            ("1", "1"): NSet.of(1),
        }
        oracle = CutdownOracle.from_table(1, entries)
        result = eval_construction(LambdaSpec(default=2), oracle, 0)
        # the unique level-0 pair sees the off-diagonal entry
        assert result.value == NSet.of(8)

    def test_oracle_must_cover_requested_level(self):
        oracle = CutdownOracle.from_table(
            1, {(r, c): NSet.of(1) for r in "01" for c in "01"}
        )
        with pytest.raises(OracleGapError):
            eval_construction(LambdaSpec(default=2), oracle, 2)


class TestChooseForE:
    @pytest.mark.parametrize("target", nonempty_subsets([1, 2, 3, 5, INF]),
                             ids=lambda s: str(s))
    def test_round_trip(self, target):
        spec = choose_lambda_for_e(target)
        result = eval_construction(spec, SIMPLE, 3)
        assert result.value == target
        assert result.converged

    def test_singleton_is_constant(self):
        spec = choose_lambda_for_e(NSet.of(7))
        assert eval_construction(spec, SIMPLE, 2).value == NSet.of(7)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            choose_lambda_for_e(NSet())


class TestChooseForEFG:
    def test_spec_example(self):
        spec = choose_lambda_for_efg(NSet.of(2), NSet.of(5, INF), NSet.of(7))
        values = {
            q: eval_construction(spec, SIMPLE, 2, quadrant=q).value
            for q in ("both_zero", "both_one", "mixed")
        }
        assert values["both_zero"] == NSet.of(2)
        assert values["both_one"] == NSet.of(5, INF)
        assert values["mixed"] == NSet.of(7)

    def test_trivial_triple(self):
        spec = choose_lambda_for_efg(NSet.of(1), NSet.of(1), NSet.of(1))
        assert eval_construction(spec, SIMPLE, 2).value == NSet.of(1)

    def test_full_union(self):
        e, f, g = NSet.of(2), NSet.of(5), NSet.of(7)
        spec = choose_lambda_for_efg(e, f, g)
        assert eval_construction(spec, SIMPLE, 2).value == e | f | g

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            choose_lambda_for_efg(NSet.of(1), NSet(), NSet.of(1))


class TestCorPlan:
    def test_one_alone(self):
        plan = cor_plan_1_in_puk(NSet.of(1))
        assert plan.size == 1
        assert plan.evaluate() == NSet.of(1)

    def test_pair(self):
        plan = cor_plan_1_in_puk(NSet.of(1, 4))
        assert plan.size == 2
        assert plan.matrix[0][1] == 4
        assert plan.evaluate() == NSet.of(1, 4)

    def test_three_values(self):
        plan = cor_plan_1_in_puk(NSet.of(1, 2, 3, INF))
        assert plan.size == 3
        assert plan.evaluate() == NSet.of(1, 2, 3, INF)

    def test_matrix_is_symmetric_with_unit_diagonal(self):
        plan = cor_plan_1_in_puk(NSet.of(1, 2, 5, 6))
        for a in range(plan.size):
            assert plan.matrix[a][a] == 1
            for b in range(plan.size):
                assert plan.matrix[a][b] == plan.matrix[b][a]

    def test_requires_one(self):
        with pytest.raises(InvalidInputError):
            cor_plan_1_in_puk(NSet.of(2, 3))


def every_gadget_table(plan) -> tuple:
    """``pairwise_table`` as it took each pair's product over every gadget of the plan."""
    members = range(plan.size)
    return tuple(
        tuple(tensor_mixed(g.contribution(a, b) for g in plan.assignments) if a != b
              else NSet.of(1) for b in members)
        for a in members)


def every_gadget_evaluation(plan) -> NSet:
    table = every_gadget_table(plan)
    return union_all([NSet.of(1)] + [table[a][b] for a in range(plan.size)
                                     for b in range(a + 1, plan.size)])


@st.composite
def family_matrices(draw):
    k = draw(st.integers(1, 8))
    rows = [[1] * k for _ in range(k)]
    for a, b in itertools.combinations(range(k), 2):
        rows[a][b] = rows[b][a] = draw(st.one_of(st.integers(1, 9), st.just(INF)))
    return rows


class TestFamilyPlan:
    @settings(max_examples=60, deadline=None)
    @given(matrix=family_matrices())
    def test_pairs_match_the_product_over_every_gadget(self, matrix):
        plan = countable_family_plan(matrix)
        assert plan.pairwise_table() == every_gadget_table(plan)
        assert plan.evaluate() == every_gadget_evaluation(plan)

    def test_gadgets_sharing_a_pair_multiply(self):
        plan = FamilyPlan(3, ((1, 6, 1), (6, 1, INF), (1, INF, 1)), (
            GadgetAssignment((0, 1), 2), GadgetAssignment((1, 0), 3),
            GadgetAssignment((1, 2), INF)))
        assert plan.pairwise_invariant(1, 0) == NSet.of(6)
        assert plan.pairwise_table() == every_gadget_table(plan)
        assert plan.evaluate() == every_gadget_evaluation(plan) == NSet.of(1, 6, INF)

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.one_of(st.integers(2, 10**6), st.just(INF)), max_size=59,
                           unique=True))
    def test_cor1_plans_reproduce_their_targets(self, values):
        target = NSet([1, *values])
        assert cor_plan_1_in_puk(target).evaluate() == target
