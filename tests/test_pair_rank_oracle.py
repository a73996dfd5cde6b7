"""Closed-form pair ranks and per-cell value sets against the pair streams.

The streams ``iter_sibling_pairs``, ``iter_cross_pairs`` and
``LambdaSpec.level_assignments`` enumerate every pair as a ``MultiIndex``;
they are the oracle here.  The closed-form sibling rank, ``cell_values``,
``value_set_at_level``, table evaluations and rendered diagrams are compared
with references that stream those pairs: the evaluation and diagram
references below are the per-pair routes the library used before it read
values per leading cell.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puklab.diagrams import MultiplicityDiagram, diagram_from_construction, render
from puklab.errors import InvalidLambdaError, ResourceGuardError
from puklab.indices import (
    LambdaSpec,
    MultiIndex,
    Override,
    QuadrantRules,
    iter_cross_pairs,
    iter_sibling_pairs,
)
from puklab.indices import _sibling_position
from puklab.invariant import QUADRANT_NAMES, CutdownOracle, eval_construction
from puklab.nsets import INF, NSet, nset_product, union_all

SIMPLE = CutdownOracle.simple()
SIBLINGS = {r: list(iter_sibling_pairs(r)) for r in range(3)}
CELL_VALUES = ("1", "2", "1,3", "2,inf", "5")


# ---------------------------------------------------------------------------
# streaming references


def quadrant_of(i, j) -> str:
    if i.branch != j.branch:
        return "mixed"
    return "both_zero" if i.branch == 0 else "both_one"


def streamed_cells(spec, r) -> dict:
    out: dict = {}
    for (i, j), v in spec.level_assignments(r):
        out.setdefault((i.words[0], j.words[0]), set()).add(v)
    return out


def streamed_value_set(spec, r, quadrant) -> NSet:
    return NSet.from_iterable(
        v for (i, j), v in spec.level_assignments(r)
        if quadrant is None or quadrant_of(i, j) == quadrant
    )


def streamed_level(spec, oracle, r, quadrant) -> NSet:
    out = NSet()
    for (i, j), value in spec.level_assignments(r):
        if quadrant is None or quadrant_of(i, j) == quadrant:
            out = out | nset_product(NSet.of(value), oracle.entry(i.bits(0), j.bits(0)))
    return out


def streamed_diagram(spec, oracle, r) -> MultiplicityDiagram:
    buckets: dict = {}
    for s in range(r + 1):
        for (i, j), value in spec.level_assignments(s):
            bi, bj = i.bits(0), j.bits(0)
            if bi != bj:
                buckets.setdefault((bi, bj), set()).add(value)
                buckets.setdefault((bj, bi), set()).add(value)
    labels = [format(x, f"0{r + 1}b") for x in range(1 << (r + 1))]
    rows = []
    for x in labels:
        row = []
        for y in labels:
            if x == y:
                row.append(oracle.entry(x, y))
                continue
            values = set()
            for t in range(r + 1):
                values |= buckets.get((x[: t + 1], y[: t + 1]), set())
            row.append(nset_product(NSet.from_iterable(values), oracle.entry(x, y))
                       if values else NSet())
        rows.append(tuple(row))
    return MultiplicityDiagram(r + 1, tuple(rows), diagonal_marked=True)


# ---------------------------------------------------------------------------
# strategies

values_st = st.one_of(st.integers(1, 12), st.just(INF))
nsets_st = st.builds(
    lambda finite, inf: NSet.from_iterable(finite + [INF] * inf),
    st.lists(st.integers(1, 40), min_size=1, max_size=7, unique=True),
    st.booleans(),
)


@st.composite
def overrides_st(draw):
    out = []
    for r in range(3):
        pairs = SIBLINGS[r]
        # level 1 has 12 pairs: drawing up to all of them can hide the default
        picks = draw(st.lists(st.integers(0, len(pairs) - 1), max_size=min(len(pairs), 12),
                              unique=True))
        out += [Override(r, *pairs[k], draw(values_st)) for k in picks]
    return tuple(out)


stream_specs = st.one_of(
    st.builds(lambda e: LambdaSpec(enumeration=e), nsets_st),
    st.builds(lambda d: LambdaSpec(default=d), values_st),
    st.builds(lambda d, o: LambdaSpec(default=d, overrides=o), values_st, overrides_st()),
    st.builds(lambda e, o: LambdaSpec(enumeration=e, overrides=o), nsets_st, overrides_st()),
)
quadrant_specs = st.builds(
    lambda e, f, g: LambdaSpec(quadrants=QuadrantRules(e, f, g)), nsets_st, nsets_st, nsets_st
)
all_specs = st.one_of(stream_specs, quadrant_specs)


def table_oracle(data, level) -> CutdownOracle:
    labels = [format(x, f"0{level}b") for x in range(1 << level)]
    return CutdownOracle.from_table(level, {
        (a, b): NSet.parse(data.draw(st.sampled_from(CELL_VALUES))) for a in labels for b in labels
    })


# ---------------------------------------------------------------------------
# closed-form sibling rank


@pytest.mark.parametrize("r", range(4))
def test_sibling_position_matches_enumeration(r):
    for pos, (i, j) in enumerate(iter_sibling_pairs(r)):
        assert _sibling_position(r, i, j) == pos


def test_sibling_position_rejects_non_siblings():
    i, j = SIBLINGS[2][5]
    with pytest.raises(InvalidLambdaError):
        _sibling_position(2, j, i)
    with pytest.raises(InvalidLambdaError):
        _sibling_position(2, i, i)
    with pytest.raises(InvalidLambdaError):
        _sibling_position(1, *next(iter_cross_pairs(1)))
    with pytest.raises(InvalidLambdaError):
        _sibling_position(1, i, j)


@pytest.mark.parametrize("r", range(1, 4))
def test_value_lookup_matches_stream_for_cross_and_sibling_pairs(r):
    spec = LambdaSpec(quadrants=QuadrantRules(NSet.of(2, 3), NSet.of(5, INF), NSet.of(7, 11, 13)))
    assignments = list(spec.level_assignments(r))
    for (i, j), v in assignments[:: max(1, len(assignments) // 997)]:
        assert spec.value(r, i, j) == spec.value(r, j, i) == v


# ---------------------------------------------------------------------------
# per-cell values and value sets


@settings(max_examples=40, deadline=None)
@given(spec=all_specs)
def test_cell_values_match_stream(spec):
    top = 2 if spec.quadrants is not None else 3
    for r in range(top + 1):
        assert spec.cell_values(r) == streamed_cells(spec, r)


@settings(max_examples=3, deadline=None)
@given(spec=quadrant_specs)
def test_quadrant_cell_values_match_stream_at_level_three(spec):
    assert spec.cell_values(3) == streamed_cells(spec, 3)


@settings(max_examples=40, deadline=None)
@given(spec=all_specs)
def test_value_sets_match_stream(spec):
    for r in range(3):
        for quadrant in QUADRANT_NAMES:
            assert spec.value_set_at_level(r, quadrant) == streamed_value_set(spec, r, quadrant)


def test_overrides_covering_a_level_hide_the_default():
    spec = LambdaSpec(default=4, overrides=tuple(Override(1, i, j, 9) for i, j in SIBLINGS[1]))
    assert spec.cell_values(1) == streamed_cells(spec, 1)
    assert spec.value_set_at_level(1) == NSet.of(9)
    assert spec.value_set_at_level(1, "both_zero") == NSet.of(9)


def branch_one_pair(r):
    """A level-``r`` sibling pair inside branch 1, built without streaming."""
    i = MultiIndex(r, 1, (1 << r,) + (0,) * r)
    j = MultiIndex(r, 1, ((1 << r) | 1,) + (0,) * r)
    assert i.branch == j.branch == 1
    return i, j


@pytest.mark.parametrize("base", [
    {"default": 1},
    {"enumeration": NSet.of(2, 3)},
])
def test_level_four_override_stays_in_its_branch(base):
    i, j = branch_one_pair(4)
    spec = LambdaSpec(overrides=(Override(4, i, j, 99),), **base)
    plain = LambdaSpec(**base).value_set_at_level(4)
    assert spec.value_set_at_level(4, "both_zero") == plain
    assert spec.value_set_at_level(4, "both_one") == plain | NSet.of(99)
    assert spec.value_set_at_level(4) == plain | NSet.of(99)
    assert spec.value_set_at_level(4, "mixed") == NSet()
    assert spec.value(4, i, j) == 99


def test_override_map_is_built_once():
    i, j = SIBLINGS[1][3]
    spec = LambdaSpec(default=2, overrides=(Override(1, i, j, 7),))
    assert spec._override_map is spec._override_map
    assert spec.value(1, j, i) == 7


# ---------------------------------------------------------------------------
# table evaluations and diagrams


@settings(max_examples=30, deadline=None)
@given(spec=all_specs, data=st.data())
def test_table_evaluation_matches_stream(spec, data):
    r_max = data.draw(st.integers(0, 2))
    oracle = table_oracle(data, r_max + 1)
    for quadrant in QUADRANT_NAMES:
        got = eval_construction(spec, oracle, r_max, quadrant)
        expected = [streamed_level(spec, oracle, r, quadrant) for r in range(r_max + 1)]
        assert list(got.per_level) == expected
        assert got.value == union_all(expected)


@settings(max_examples=30, deadline=None)
@given(spec=all_specs, data=st.data())
def test_diagram_and_render_match_stream(spec, data):
    r = data.draw(st.integers(0, 2))
    oracle = SIMPLE if data.draw(st.booleans()) else table_oracle(data, r + 1)
    got = diagram_from_construction(spec, oracle, r)
    expected = streamed_diagram(spec, oracle, r)
    assert got == expected
    for fmt in ("ascii", "svg"):
        assert render(got, fmt) == render(expected, fmt)


@pytest.mark.parametrize("spec", [
    LambdaSpec(enumeration=NSet.of(2, 3, 5, 7, INF),
               overrides=(Override(2, *SIBLINGS[2][40], 13), Override(1, *SIBLINGS[1][7], 17))),
    LambdaSpec(quadrants=QuadrantRules(NSet.of(2), NSet.of(3, INF), NSet.of(5, 7, 11))),
])
def test_level_three_diagram_matches_stream(spec):
    got = diagram_from_construction(spec, SIMPLE, 3)
    assert render(got, "ascii") == render(streamed_diagram(spec, SIMPLE, 3), "ascii")


# ---------------------------------------------------------------------------
# resource guards


def constant_table(level, value="1"):
    labels = [format(x, f"0{level}b") for x in range(1 << level)]
    entries = {(a, b): NSet.parse(value) for a in labels for b in labels}
    return CutdownOracle.from_table(level, entries)


def test_quadrant_table_evaluation_reaches_level_four():
    # 268,435,456 cross pairs at level 4: far past what a stream could visit
    spec = LambdaSpec(quadrants=QuadrantRules(NSet.of(2), NSet.of(3, INF), NSet.of(5, 7)))
    got = eval_construction(spec, constant_table(5), 4)
    assert got.per_level == eval_construction(spec, SIMPLE, 4).per_level


def test_guard_trips_at_level_five():
    spec = LambdaSpec(enumeration=NSet.of(2, 3))
    with pytest.raises(ResourceGuardError):
        spec.cell_values(5)
    with pytest.raises(ResourceGuardError):
        diagram_from_construction(spec, SIMPLE, 5)
    with pytest.raises(ResourceGuardError):
        eval_construction(spec, constant_table(6), 5)
    # a constant oracle needs no cells and still evaluates
    assert eval_construction(spec, SIMPLE, 5).value == NSet.of(2, 3)
