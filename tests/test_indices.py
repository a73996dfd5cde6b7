import itertools

import pytest

from puklab import indices
from puklab.config import lambda_from_config
from puklab.errors import (
    CountCapError,
    InvalidLambdaError,
    RestrictionRangeError,
)
from puklab.indices import (
    ROOT,
    LambdaSpec,
    MultiIndex,
    Override,
    QuadrantRules,
    cross_pair_count,
    fiber,
    glue_check,
    index_count,
    iter_cross_pairs,
    iter_indices,
    iter_sibling_pairs,
    level_zero,
    pipe,
    restrict,
    sibling_pair_count,
)
from puklab.invariant import CutdownOracle, eval_construction
from puklab.nsets import INF, NSet


def brute_force_indices(r, m):
    """Independent enumeration as tuples of bit strings."""
    pools = [
        ["".join(bits) for bits in itertools.product("01", repeat=m + r - t)]
        for t in range(r + 1)
    ]
    return list(itertools.product(*pools))


class TestEnumeration:
    @pytest.mark.parametrize("r", range(4))
    @pytest.mark.parametrize("m", range(1, 4))
    def test_count_matches_brute_force(self, r, m):
        expected = brute_force_indices(r, m)
        got = list(iter_indices(r, m))
        assert index_count(r, m) == len(expected) == len(got)
        assert [i.to_bits() for i in got] == expected

    def test_examples(self):
        assert index_count(0, 1) == 2
        assert index_count(1, 1) == 8
        assert index_count(1, 2) == 32

    def test_lexicographic(self):
        seq = list(iter_indices(1, 1))
        assert seq == sorted(seq)
        assert seq[0].to_bits() == ("00", "0")
        assert seq[-1].to_bits() == ("11", "1")

    def test_cap(self, monkeypatch):
        # the cap is read when the enumeration starts, not when it is defined
        monkeypatch.setattr(indices, "ENUMERATION_CAP", 100)
        with pytest.raises(CountCapError):
            list(iter_indices(3, 3))

    def test_from_bits_validation(self):
        with pytest.raises(ValueError):
            MultiIndex.from_bits(["0", "01"])
        with pytest.raises(ValueError):
            MultiIndex.from_bits(["02"])


class TestRestriction:
    def test_identity(self):
        i = MultiIndex.from_bits(["011", "10", "1"])
        assert restrict(i, i.r, i.m) == i

    def test_spec_example(self):
        i = MultiIndex.from_bits(["01", "1"])
        assert pipe(i, 0) == MultiIndex.from_bits(["0"])

    def test_root_convention(self):
        i = MultiIndex.from_bits(["01", "1"])
        j = MultiIndex.from_bits(["10", "0"])
        assert pipe(i, -1) is ROOT
        assert pipe(i, -1) == pipe(j, -1)

    def test_functorial(self):
        for i in iter_indices(2, 2):
            step = restrict(restrict(i, 1, 2), 0, 2)
            direct = restrict(i, 0, 2)
            assert step == direct

    def test_range_error(self):
        i = MultiIndex.from_bits(["01", "1"])
        with pytest.raises(RestrictionRangeError):
            restrict(i, 2, 1)
        with pytest.raises(RestrictionRangeError):
            restrict(i, 0, 3)

    def test_restricts_to_its_prefix_index(self):
        i = MultiIndex.from_bits(["011", "10", "1"])
        assert restrict(i, 1, 1) == MultiIndex.from_bits(["01", "1"])
        assert restrict(i, 1, 1) != MultiIndex.from_bits(["11", "1"])

    def test_branch(self):
        assert MultiIndex.from_bits(["011", "10", "1"]).branch == 0
        assert MultiIndex.from_bits(["110", "10", "1"]).branch == 1


def brute_force_sibling_pairs(r):
    everything = list(iter_indices(r, 1))
    out = []
    for a in range(len(everything)):
        for b in range(a + 1, len(everything)):
            i, j = everything[a], everything[b]
            if pipe(i, r - 1) == pipe(j, r - 1):
                out.append((i, j))
    return out


class TestSiblingPairs:
    def test_level_zero(self):
        pairs = list(iter_sibling_pairs(0))
        assert pairs == [(level_zero(0), level_zero(1))]
        assert sibling_pair_count(0) == 1

    @pytest.mark.parametrize("r", [1, 2])
    def test_matches_brute_force(self, r):
        expected = brute_force_sibling_pairs(r)
        got = list(iter_sibling_pairs(r))
        assert got == sorted(expected)
        assert sibling_pair_count(r) == len(expected)

    def test_counts(self):
        assert sibling_pair_count(1) == 12
        assert sibling_pair_count(2) == 224

    def test_fiber_size(self):
        parent = level_zero(0)
        kids = fiber(parent)
        assert len(kids) == 4
        assert all(pipe(k, 0) == parent for k in kids)
        assert kids == sorted(kids)

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_each_index_covered(self, r):
        counts = {}
        for i, j in iter_sibling_pairs(r):
            counts[i] = counts.get(i, 0) + 1
            counts[j] = counts.get(j, 0) + 1
        expected = (1 << (r + 1)) - 1
        assert set(counts.values()) == {expected}
        assert len(counts) == index_count(r, 1)

    def test_restriction_compatibility(self):
        for i, j in iter_sibling_pairs(2):
            for s in range(2):
                assert pipe(i, s) == pipe(j, s)

    def test_cross_pairs(self):
        assert cross_pair_count(0) == 1
        assert cross_pair_count(1) == 16
        pairs = list(iter_cross_pairs(1))
        assert len(pairs) == 16
        assert all(i.branch == 0 and j.branch == 1 for i, j in pairs)


# 2·lcm of odd list lengths, of even ones, and of mixed ones, as the value lists give them
STREAM_MODULI = (2, 6, 2 * 3 * 5 * 7, 8, 2 * 12, 2 * 2 * 3 * 5 * 7)


class TestStreamStarts:
    """``indices._stream_starts``: where each level's streams start, modulo the value lists."""

    def test_table_counts_the_enumerated_streams(self):
        siblings = [sum(1 for _ in iter_sibling_pairs(s)) for s in range(4)]
        crosses = [sum(1 for _ in iter_cross_pairs(s)) for s in range(3)]
        for m in STREAM_MODULI:
            assert [indices._stream_starts(r, m)[0] for r in range(5)] == [
                sum(siblings[:r]) % m for r in range(5)]
            assert [indices._stream_starts(r, m)[1] for r in range(4)] == [
                sum(crosses[:r]) % m for r in range(4)]

    def test_table_matches_plain_sums_through_level_60(self):
        for r in range(61):
            siblings = sum(sibling_pair_count(s) for s in range(r))
            crosses = sum(cross_pair_count(s) for s in range(r))
            for m in STREAM_MODULI:
                start = indices._stream_starts(r, m)
                assert start == (siblings % m, crosses % m)
                # the branch streams start at half the sibling start, which
                # the start modulo m gives modulo m / 2
                assert start[0] // 2 % (m // 2) == siblings // 2 % (m // 2)
        assert all(sibling_pair_count(r) % 2 == 0 for r in range(1, 61))

    def test_deep_evaluation_counts_each_level_a_few_times(self, monkeypatch):
        count, calls = indices.sibling_pair_count, []
        monkeypatch.setattr(indices, "sibling_pair_count", lambda r: calls.append(r) or count(r))
        spec = LambdaSpec(enumeration=NSet.of(2, 3, 5))
        result = eval_construction(spec, CutdownOracle.simple(), 200)
        assert result.value == NSet.of(2, 3, 5) and result.converged
        # each level's table is built a few times, not once per later level
        assert len(calls) <= 3 * 201

    @pytest.mark.parametrize("config", [
        {"enumerate": "2,3,5"},
        {"quadrants": {"both_zero": "2,3", "both_one": "5", "mixed": "7,11,inf"}},
    ])
    def test_saturated_levels_count_no_pairs(self, config, monkeypatch):
        # every stream holds its whole list from level 1 on: no deeper level counts pairs
        count, calls = indices.sibling_pair_count, []
        monkeypatch.setattr(indices, "sibling_pair_count", lambda r: calls.append(r) or count(r))
        result = eval_construction(lambda_from_config(config), CutdownOracle.simple(), 4800)
        assert result.converged and len(calls) <= 10, len(calls)


class TestGlueCheck:
    def test_passes_default_bounds(self):
        report = glue_check(3, 3)
        assert report.passed
        assert report.cases_checked > 0

    def test_example_fiber_sizes(self):
        # 8 symbols of trace 1/8 at (1,1); refinement fibers of size 32/8
        assert index_count(1, 1) == 8
        assert index_count(1, 2) // index_count(1, 1) == 4
        # cross-level fiber from (1,1) over (0,2)
        assert index_count(1, 1) // index_count(0, 2) == 2


INTRO = LambdaSpec(default=3, overrides=(Override(0, level_zero(0), level_zero(1), 2),))


class TestLambdaSpec:
    def test_override_must_be_sibling(self):
        i = MultiIndex.from_bits(["00", "0"])
        j = MultiIndex.from_bits(["10", "0"])
        with pytest.raises(InvalidLambdaError):
            Override(1, i, j, 2)

    def test_override_orientation_normalized(self):
        o = Override(0, level_zero(1), level_zero(0), 2)
        assert o.i == level_zero(0) and o.j == level_zero(1)

    def test_duplicate_override_rejected(self):
        o = Override(0, level_zero(0), level_zero(1), 2)
        with pytest.raises(InvalidLambdaError):
            LambdaSpec(overrides=(o, o))

    def test_enumeration_and_quadrants_exclusive(self):
        with pytest.raises(InvalidLambdaError):
            LambdaSpec(
                enumeration=NSet.of(2),
                quadrants=QuadrantRules(NSet.of(1), NSet.of(1), NSet.of(1)),
            )

    def test_intro_values(self):
        assert INTRO.value(0, level_zero(0), level_zero(1)) == 2
        i, j = next(iter_sibling_pairs(1))
        assert INTRO.value(1, i, j) == 3
        assert INTRO.value_set_at_level(0) == NSet.of(2)
        assert INTRO.value_set_at_level(1) == NSet.of(3)

    def test_value_symmetric(self):
        assert INTRO.value(0, level_zero(1), level_zero(0)) == 2

    def test_enumeration_cycles(self):
        spec = LambdaSpec(enumeration=NSet.of(2, 3))
        values = [v for _, v in spec.level_assignments(1)]
        # position 0 was used at level 0, so level 1 starts mid-cycle
        assert values == [3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2]
        assert spec.value(0, level_zero(0), level_zero(1)) == 2

    @pytest.mark.parametrize("quadrant", [None, "both_zero", "both_one", "mixed"])
    @pytest.mark.parametrize(
        "spec",
        [
            INTRO,
            LambdaSpec(default=5),
            LambdaSpec(enumeration=NSet.of(2, 3, 7)),
            LambdaSpec(enumeration=NSet.of(1, 2, 3, 5, INF)),
            LambdaSpec(
                quadrants=QuadrantRules(NSet.of(2), NSet.of(5, INF), NSet.of(7, 11))
            ),
        ],
    )
    def test_value_sets_match_assignments(self, spec, quadrant):
        # oracle: classify every assignment by quadrant and collect values
        for r in range(3):
            expected = set()
            for (i, j), v in spec.level_assignments(r):
                if i.branch != j.branch:
                    bucket = "mixed"
                elif i.branch == 0:
                    bucket = "both_zero"
                else:
                    bucket = "both_one"
                if quadrant is None or bucket == quadrant:
                    expected.add(v)
            assert spec.value_set_at_level(r, quadrant) == NSet(expected)

    def test_limit(self):
        # the level-0 pair is the mixed one: INTRO's override shows only there
        assert [INTRO.limit(q) for q in (None, "both_zero", "both_one", "mixed")] == [
            NSet.of(2, 3), NSet.of(3), NSet.of(3), NSet.of(2)]
        assert INTRO.saturation_bound == 0
        spec = LambdaSpec(enumeration=NSet.of(1, 2, 3, 5, INF))
        assert spec.limit() == NSet.of(1, 2, 3, 5, INF) and spec.saturation_bound == 0
        spec = LambdaSpec(quadrants=QuadrantRules(NSet.of(2), NSet.of(5, INF), NSet.of(7, 11)))
        assert spec.limit("both_one") == NSet.of(5, INF)
        assert spec.limit() == NSet.of(2, 5, 7, 11, INF)

    def test_level_assignment_values_match_value_lookup(self):
        spec = LambdaSpec(
            quadrants=QuadrantRules(NSet.of(2, 3), NSet.of(5), NSet.of(7, 11))
        )
        for r in range(3):
            for (i, j), v in spec.level_assignments(r):
                assert spec.value(r, i, j) == v

    def test_non_carrier_pair_rejected(self):
        everything = list(iter_indices(1, 1))
        cross = (everything[0], everything[-1])
        with pytest.raises(InvalidLambdaError):
            INTRO.value(1, *cross)
