"""Closed-form pair ranks and per-cell value sets against the pair streams.

The streams ``iter_sibling_pairs``, ``iter_cross_pairs`` and
``LambdaSpec.level_assignments`` enumerate every pair as a ``MultiIndex``;
they are the oracle here.  The closed-form sibling rank, ``cell_values``,
``value_set_at_level``, table evaluations and rendered diagrams are compared
with references that stream those pairs: the evaluation and diagram
references below are the per-pair routes the library used before it read
values per leading cell, and they read a raw table through ``padded_entry``,
the union over refinements that ``CutdownOracle.entry`` took per call before
the oracle kept one grid per level.  Level 4 is past what the streams can
visit, so there ``cell_values`` is compared with the rank-by-rank walk the
library used before it walked each leading cell.  The ``per_cell_*``
references are the grid builder, table reader and table level that formed
one union and one product per cell, before each was formed once per distinct
pair of value sets.  ``segment_value_set`` is the level set as it read every
level's segment table, before levels past the saturation bound were read from
the value lists.
"""

from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from puklab.diagrams import MultiplicityDiagram, diagram_from_construction, render
from puklab.errors import InvalidLambdaError, ResourceGuardError
from puklab import indices
from puklab.indices import (
    CELL_WORK_CAP,
    QUADRANT_NAMES,
    LambdaSpec,
    MultiIndex,
    Override,
    QuadrantRules,
    cross_pair_count,
    index_count,
    iter_cross_pairs,
    iter_sibling_pairs,
    sibling_pair_count,
)
from puklab.indices import (
    _cyclic_slice,
    _decode_rank,
    _fiber_rank,
    _pair_position,
    _pairs_before,
)
from puklab.invariant import CutdownOracle, eval_construction
from puklab.nsets import INF, NSet, nset_product, union_all

SIMPLE = CutdownOracle.simple()
SIBLINGS = {r: list(iter_sibling_pairs(r)) for r in range(4)}
CELL_VALUES = ("1", "2", "1,3", "2,inf", "5")


# ---------------------------------------------------------------------------
# streaming references


def quadrant_of(i, j) -> str:
    if i.branch != j.branch:
        return "mixed"
    return "both_zero" if i.branch == 0 else "both_one"


def streamed_cells(spec, r) -> dict:
    """Quadrant name → the values of its pairs grouped by leading cell."""
    out: dict = {quadrant: {} for quadrant in QUADRANT_NAMES}
    for (i, j), v in spec.level_assignments(r):
        for quadrant in (None, quadrant_of(i, j)):
            out[quadrant].setdefault((i.words[0], j.words[0]), set()).add(v)
    return out


def streamed_value_set(spec, r, quadrant) -> NSet:
    return NSet(
        v for (i, j), v in spec.level_assignments(r)
        if quadrant is None or quadrant_of(i, j) == quadrant
    )


def padded_entry(entries, row, col) -> NSet:
    """A raw table's type at a pair of prefixes: the union over every padding of both keys."""
    pad = len(next(iter(entries))[0]) - len(row)
    out = NSet()
    for a in range(1 << pad):
        for b in range(1 << pad):
            key = (row + format(a, f"0{pad}b") if pad else row,
                   col + format(b, f"0{pad}b") if pad else col)
            out = out | entries[key]
    return out


def streamed_level(spec, entries, r, quadrant) -> NSet:
    out = NSet()
    for (i, j), value in spec.level_assignments(r):
        if quadrant is None or quadrant_of(i, j) == quadrant:
            out = out | nset_product(NSet.of(value), padded_entry(entries, i.bits(0), j.bits(0)))
    return out


def streamed_diagram(spec, entries, r) -> MultiplicityDiagram:
    buckets: dict = {}
    for s in range(r + 1):
        for (i, j), value in spec.level_assignments(s):
            bi, bj = i.bits(0), j.bits(0)
            if bi != bj:
                buckets.setdefault((bi, bj), set()).add(value)
                buckets.setdefault((bj, bi), set()).add(value)
    rows = []
    for x in labels(r + 1):
        row = []
        for y in labels(r + 1):
            if x == y:
                row.append(padded_entry(entries, x, y))
                continue
            values = set()
            for t in range(r + 1):
                values |= buckets.get((x[: t + 1], y[: t + 1]), set())
            row.append(nset_product(NSet(values), padded_entry(entries, x, y))
                       if values else NSet())
        rows.append(tuple(row))
    return MultiplicityDiagram(r + 1, tuple(rows), diagonal_marked=True)


def bucketed_diagram(spec, oracle, r) -> MultiplicityDiagram:
    """``diagram_from_construction`` by the per-level buckets it read before it refined one grid.

    Every level's values are kept by ``(level, lead_i, lead_j)`` in both orders,
    and each cell of the level-``r+1`` grid unions the bucket of its label
    prefixes at every level.
    """
    buckets: dict = {}
    for s in range(r + 1):
        for (a, b), values in spec.cell_values(s).items():
            if a != b:
                buckets.setdefault((s, a, b), set()).update(values)
                buckets.setdefault((s, b, a), set()).update(values)
    cutdown = oracle.cells(r + 1)
    rows = []
    for x in range(2 << r):
        row = []
        for y in range(2 << r):
            values: set = set()
            for t in range(r + 1):
                values |= buckets.get((t, x >> (r - t), y >> (r - t)), set())
            cell = cutdown[x][y]
            row.append(cell if x == y else nset_product(NSet(values), cell))
        rows.append(tuple(row))
    return MultiplicityDiagram(r + 1, tuple(rows), diagonal_marked=True)


def per_cell_table(level, entries) -> CutdownOracle:
    """``CutdownOracle.from_table`` as it read a table before it checked each label once.

    Every key is checked and converted, and each coarse cell is three ``|`` of
    its four refinements.
    """
    table = {}
    for (row, col), value in entries.items():
        if len(row) != level or len(col) != level or set(row + col) - {"0", "1"}:
            raise ValueError(f"bad oracle key ({row!r}, {col!r}) for level {level}")
        table[int(row or "0", 2), int(col or "0", 2)] = value
    grids = [tuple(tuple(table[x, y] for y in range(1 << level)) for x in range(1 << level))]
    for d in range(level, 0, -1):
        c, steps = grids[-1], range(0, 1 << d, 2)
        grids.append(tuple(
            tuple(c[x][y] | c[x][y + 1] | c[x + 1][y] | c[x + 1][y + 1] for y in steps)
            for x in steps))
    return CutdownOracle(tuple(MultiplicityDiagram(d, cells)
                               for d, cells in enumerate(reversed(grids))))


def per_cell_diagram(spec, oracle, r) -> MultiplicityDiagram:
    """``diagram_from_construction`` as it refined its grid with one union and one product per cell."""
    grid = [[NSet()]]
    for t in range(r + 1):
        values = spec.cell_values(t)
        grid = [
            [NSet() if x == y else grid[x >> 1][y >> 1] | values.get((min(x, y), max(x, y)), NSet())
             for y in range(2 << t)]
            for x in range(2 << t)
        ]
    rows = tuple(
        tuple(cell if x == y else nset_product(grid[x][y], cell) for y, cell in enumerate(row))
        for x, row in enumerate(oracle.cells(r + 1))
    )
    return MultiplicityDiagram(r + 1, rows, diagonal_marked=True)


def per_cell_level(spec, oracle, r, quadrant) -> NSet:
    """A table evaluation's level ``r`` with one product and one ``|`` per leading cell."""
    cells, out = oracle.cells(r + 1), NSet()
    for (a, b), values in spec.cell_values(r, quadrant).items():
        out = out | nset_product(values, cells[a][b])
    return out


def walked_cells(spec, r, quadrant) -> dict:
    """``cell_values`` by the rank-by-rank walk: every run of both streams, in order."""
    segments = spec._segments(r, quadrant)
    siblings = [s[1:5] for s in segments if not s[0]]
    crosses = [s[1:5] for s in segments if s[0]]
    n = index_count(r, 1)
    # a sibling run per index (two when its mates straddle a cell), and a
    # cross run per branch-0 index and branch-1 leading word
    work = n + n // 2 + (((n // 2) << r) if crosses else 0) + 4 ** (r + 1)
    assert work <= CELL_WORK_CAP, f"the walk at level {r} takes {work} runs and cells"
    cells: dict = {}
    fill(cells, sibling_runs(r), siblings)
    fill(cells, cross_runs(r), crosses)
    return cells


def fill(cells: dict, runs, segments: list):
    """Add each run ``(lead_i, lead_j, start, count)`` of one stream to its cell.

    ``segments`` are the stream's ``(lo, hi, values, base)`` in order; a run
    takes the cyclic slice of each segment it overlaps, and runs outside the
    segments are skipped.  A run inside one segment of more than one position
    adds to its cell only values of that segment's cycled list, so the cell
    is complete, and later such runs skipped, once it holds as many values as
    the list.  Every override is a segment of one position: the runs that meet
    one, or cross a segment end, gather their values beside the cells, and
    those join their cells when the walk ends.
    """
    segments = iter(segments)
    hi = -1
    beside: dict = {}
    for a, b, start, count in runs:
        while start >= hi and (segment := next(segments, None)):
            lo, hi, values, base = segment
            last = hi if hi - lo > 1 else lo  # runs ending past it go beside
        if start >= hi:
            break  # past the last segment
        if start < lo or not count:
            continue
        if start + count > last:
            got = beside.setdefault((a, b), set())
            while start + count > hi:
                got |= _cyclic_slice(values, base + start, hi - start)
                start, count = hi, start + count - hi
                lo, hi, values, base = next(segments)
                last = hi if hi - lo > 1 else lo
            got |= _cyclic_slice(values, base + start, count)
            continue
        got = cells.setdefault((a, b), set())
        if len(got) < len(values):
            got |= _cyclic_slice(values, base + start, count)
    for cell, extra in beside.items():
        cells.setdefault(cell, set()).update(extra)


def sibling_runs(r: int):
    """Runs of the level-``r`` sibling stream inside one leading cell.

    Yields ``(lead_i, lead_j, start, count)`` in stream order.  The mates of
    ``i`` above it come in fiber order; the top bit of the fiber rank is the
    low bit of word 0, so they split into at most two cells.
    """
    fiber, rest = 2 << r, r * (r + 1) // 2
    half = fiber >> 1
    start = 0
    for rank in range(index_count(r, 1)):
        fr, lead = _fiber_rank(r, rank), rank >> rest
        if fr < half:
            yield lead, lead, start, half - 1 - fr
            yield lead, lead | 1, start + half - 1 - fr, half
        else:
            yield lead, lead, start, fiber - 1 - fr
        start += fiber - 1 - fr


def cross_runs(r: int):
    """Runs of the level-``r`` cross stream (``r ≥ 1``) inside one leading cell.

    The cross pair ``(i, j)`` sits at ``rank_i·half + rank_j − half``; for
    fixed ``i`` the ``j`` sharing a leading word form a run of ``half/2^r``.
    """
    rest = r * (r + 1) // 2
    run, half = 1 << rest, index_count(r, 1) // 2
    for rank in range(half):
        lead = rank >> rest
        for b in range(1 << r):
            yield lead, (1 << r) | b, rank * half + b * run, run


def segment_value_set(spec, r, quadrant) -> NSet:
    """``value_set_at_level`` as it read each level: the cyclic slices of its segment table."""
    out: set = set()
    for _, lo, hi, values, base, _ in spec._segments(r, quadrant):
        out |= _cyclic_slice(values, base + lo, hi - lo)
    return NSet(out)


def sibling_pair_at(r, pos):
    """The pair at ``pos`` of the level-``r`` sibling stream, without streaming."""
    # the last index with at most pos pairs before it has pos among its mates
    rank = bisect_right(range(index_count(r, 1)), pos, key=lambda k: _pairs_before(r, k)) - 1
    mate = _fiber_rank(r, rank) + pos - _pairs_before(r, rank) + 1
    words = _decode_rank(rank, r, 1)
    i = MultiIndex(r, 1, words)
    j = MultiIndex(r, 1, tuple((w & ~1) | (mate >> (r - t) & 1) for t, w in enumerate(words)))
    assert _pair_position(r, i, j) == (False, pos)
    return i, j


# ---------------------------------------------------------------------------
# strategies

values_st = st.one_of(st.integers(1, 12), st.just(INF))
nsets_st = st.builds(
    lambda finite, inf: NSet(finite + [INF] * inf),
    st.lists(st.integers(1, 40), min_size=1, max_size=7, unique=True),
    st.booleans(),
)


@st.composite
def overrides_st(draw):
    # level 3 has many runs per cell, so its overrides split runs mid-cell
    out = []
    for r in range(4):
        pairs = SIBLINGS[r]
        # level 1 has 12 pairs: drawing up to all of them can hide the default
        picks = draw(st.lists(st.integers(0, len(pairs) - 1), max_size=min(len(pairs), 12),
                              unique=True))
        out += [Override(r, *pairs[k], draw(values_st)) for k in picks]
    return tuple(out)


@st.composite
def deep_overrides_st(draw):
    # levels 3 and 4: the segment ends, both sides of the branch boundary, or anywhere
    out = []
    for r in (3, 4):
        count = sibling_pair_count(r)
        ends = (0, 1, count // 2 - 1, count // 2, count - 1)
        picks = draw(st.lists(st.one_of(st.sampled_from(ends), st.integers(0, count - 1)),
                              max_size=6, unique=True))
        out += [Override(r, *sibling_pair_at(r, p), draw(values_st)) for p in picks]
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
# 7 to 130 values: level 1's branch halves of 6 pairs are short of them, level 2's 112 or
# level 3's 3,840 are not, so whole lists first show at level 2 or 3
long_nsets_st = st.lists(st.one_of(st.integers(1, 400), st.just(INF)),
                         min_size=7, max_size=130, unique=True).map(NSet)


def boundary_spec(side: str, r: int, delta: int) -> LambdaSpec:
    """Quadrant lists of ``{1}`` but one, as long as level ``r``'s stream for it plus ``delta``.

    The long list is ``both_one``'s, against a branch half of the sibling
    stream, or ``mixed``'s, against the cross stream: the saturation bound
    turns on these lengths.
    """
    count = sibling_pair_count(r) // 2 if side == "branch" else cross_pair_count(r)
    one, long = NSet.of(1), NSet(range(2, count + delta + 2))
    return LambdaSpec(quadrants=QuadrantRules(one, long, one) if side == "branch"
                      else QuadrantRules(one, one, long))


saturation_specs = st.one_of(
    st.builds(lambda e, o: LambdaSpec(enumeration=e, overrides=o), long_nsets_st,
              overrides_st()),
    st.builds(lambda e, f, g: LambdaSpec(quadrants=QuadrantRules(e, f, g)),
              *[st.one_of(nsets_st, long_nsets_st)] * 3),
    st.builds(boundary_spec, st.sampled_from(["branch", "cross"]), st.sampled_from([1, 2]),
              st.sampled_from([-1, 0, 1])),
)


def labels(level) -> list[str]:
    return [format(x, f"0{level}b") if level else "" for x in range(1 << level)]


def table_entries(data, level) -> dict:
    return {
        (a, b): NSet.parse(data.draw(st.sampled_from(CELL_VALUES)))
        for a in labels(level) for b in labels(level)
    }


def constant_entries(level, value="1") -> dict:
    """The raw table that the constant oracle of ``value`` agrees with up to ``level``."""
    return {(a, b): NSet.parse(value) for a in labels(level) for b in labels(level)}


# ---------------------------------------------------------------------------
# closed-form sibling rank


@pytest.mark.parametrize("r", range(4))
def test_sibling_position_matches_enumeration(r):
    for pos, (i, j) in enumerate(iter_sibling_pairs(r)):
        assert _pair_position(r, i, j) == (False, pos)
    # level 0 has no pair but its sibling pair; deeper, the streams are disjoint
    if r:
        for pos, (i, j) in enumerate(iter_cross_pairs(r)):
            assert _pair_position(r, i, j) == (True, pos)


def test_sibling_position_rejects_non_siblings():
    i, j = SIBLINGS[2][5]
    with pytest.raises(InvalidLambdaError):
        _pair_position(2, j, i)
    with pytest.raises(InvalidLambdaError):
        _pair_position(2, i, i)
    # a cross pair is no sibling pair: it has a place in the cross stream only
    assert _pair_position(1, *next(iter_cross_pairs(1))) == (True, 0)
    with pytest.raises(InvalidLambdaError):
        _pair_position(1, i, j)
    # same branch, different parents: in neither stream
    with pytest.raises(InvalidLambdaError):
        _pair_position(2, MultiIndex.from_bits(["000", "00", "0"]),
                       MultiIndex.from_bits(["010", "00", "0"]))


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
        streamed = streamed_cells(spec, r)
        for quadrant in QUADRANT_NAMES:
            assert spec.cell_values(r, quadrant) == streamed[quadrant]


@settings(max_examples=3, deadline=None)
@given(spec=quadrant_specs)
def test_quadrant_cell_values_match_stream_at_level_three(spec):
    streamed = streamed_cells(spec, 3)
    for quadrant in QUADRANT_NAMES:
        assert spec.cell_values(3, quadrant) == streamed[quadrant]


deep_specs = st.one_of(
    st.builds(lambda e: LambdaSpec(enumeration=e), nsets_st),
    st.builds(lambda d, o: LambdaSpec(default=d, overrides=o), values_st, deep_overrides_st()),
    st.builds(lambda e, o: LambdaSpec(enumeration=e, overrides=o), nsets_st, deep_overrides_st()),
    quadrant_specs,
)


@settings(max_examples=20, deadline=None)
@given(spec=deep_specs)
def test_cell_values_match_walk_at_levels_three_and_four(spec):
    for r in (3, 4):
        for quadrant in QUADRANT_NAMES:
            assert spec.cell_values(r, quadrant) == walked_cells(spec, r, quadrant)


def test_walk_matches_stream_at_level_three():
    # the walk is the level-4 reference; at level 3 the stream checks it
    count = sibling_pair_count(3)
    positions = (0, 1, count // 2 - 1, count // 2, count - 1, 777)
    spec = LambdaSpec(enumeration=NSet.of(2, 3, 5, INF), overrides=tuple(
        Override(3, *sibling_pair_at(3, p), v) for p, v in zip(positions, (9, 10, 11, 12, 13, 3))
    ))
    assert [spec.value(3, *SIBLINGS[3][p]) for p in positions] == [9, 10, 11, 12, 13, 3]
    streamed = streamed_cells(spec, 3)
    for quadrant in QUADRANT_NAMES:
        assert walked_cells(spec, 3, quadrant) == streamed[quadrant]


@settings(max_examples=25, deadline=None)
@given(spec=all_specs)
def test_value_matches_stream_on_every_pair(spec):
    # pairs the stream leaves out, siblings or not, carry no value
    for r in range(3):
        carried = dict(spec.level_assignments(r))
        indices = sorted({i for pair in SIBLINGS[r] for i in pair})
        for i in indices:
            for j in indices:
                if (i, j) in carried or (j, i) in carried:
                    assert spec.value(r, i, j) == carried.get((i, j), carried.get((j, i)))
                else:
                    with pytest.raises(InvalidLambdaError):
                        spec.value(r, i, j)


@settings(max_examples=20, deadline=None)
@given(spec=all_specs, name=st.sampled_from(["bogus", "", "BOTH_ZERO", "Mixed", "none"]))
def test_unknown_quadrant_names_raise(spec, name):
    for r in (1, 50):  # below and past the levels a spec builds
        with pytest.raises(ValueError):
            spec.value_set_at_level(r, name)
    with pytest.raises(ValueError):
        spec.cell_values(1, name)
    with pytest.raises(ValueError):
        eval_construction(spec, SIMPLE, 1, name)


@settings(max_examples=40, deadline=None)
@given(spec=all_specs)
def test_value_sets_match_stream(spec):
    for r in range(3):
        for quadrant in QUADRANT_NAMES:
            assert spec.value_set_at_level(r, quadrant) == streamed_value_set(spec, r, quadrant)


@settings(max_examples=60, deadline=None)
@given(spec=st.one_of(all_specs, saturation_specs))
# the 1,024 cross pairs of level 2 are short of mixed's 1,100 values: only level 3 shows them all
@example(spec=LambdaSpec(quadrants=QuadrantRules(NSet.of(2), NSet.of(3), NSet(range(1, 1101)))))
def test_value_sets_match_the_segment_tables(spec):
    # past the saturation level no table is read: the sets must still be each level's
    for r in range(-1, 9):
        for quadrant in QUADRANT_NAMES:
            assert spec.value_set_at_level(r, quadrant) == segment_value_set(spec, r, quadrant)


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("side", ["branch", "cross"])
def test_saturation_bound_turns_on_the_list_lengths(side, r, delta):
    # a list no longer than level r's stream shows whole from level r on; one more value
    # waits a level, so a bound one level early gives level r the whole list
    spec = boundary_spec(side, r, delta)
    assert spec.saturation_bound == (r - 1 if delta <= 0 else r)
    for quadrant in QUADRANT_NAMES:
        sets = [segment_value_set(spec, s, quadrant) for s in range(r + 3)]
        assert [spec.value_set_at_level(s, quadrant) for s in range(r + 3)] == sets
        assert spec.limit(quadrant) == union_all(sets)


def test_overrides_covering_a_level_hide_the_default():
    spec = LambdaSpec(default=4, overrides=tuple(Override(1, i, j, 9) for i, j in SIBLINGS[1]))
    assert spec.cell_values(1) == streamed_cells(spec, 1)[None]
    assert spec.value_set_at_level(1) == NSet.of(9)
    assert spec.value_set_at_level(1, "both_zero") == NSet.of(9)


@pytest.mark.parametrize("spec", [
    # every level-1 pair overridden to a value the enumeration already showed at level 0
    LambdaSpec(enumeration=NSet.of(2, 3, 5),
               overrides=tuple(Override(1, i, j, 2) for i, j in SIBLINGS[1])),
    LambdaSpec(overrides=tuple(Override(r, i, j, 2) for r in (0, 1) for i, j in SIBLINGS[r])),
])
def test_overrides_covering_a_level_do_not_complete_it(spec):
    assert spec.value_set_at_level(0) | spec.value_set_at_level(1) == NSet.of(2)
    assert not spec.value_set_at_level(2).issubset(NSet.of(2))
    assert not eval_construction(spec, SIMPLE, 1).converged
    assert eval_construction(spec, SIMPLE, 2).converged


def streams_reach_past_the_bound(spec) -> bool:
    """Whether the streams visit every level up to two past the saturation bound."""
    return spec.saturation_bound + 2 <= (2 if spec.quadrants is not None else 3)


@settings(max_examples=40, deadline=None)
@given(spec=st.one_of(all_specs, saturation_specs).filter(streams_reach_past_the_bound))
def test_limit_and_convergence_match_the_streamed_levels(spec):
    # levels past the bound repeat the lists, so the truncation two levels past it is the
    # whole invariant: converged must say exactly whether a truncation reached it
    levels = range(spec.saturation_bound + 3)
    streamed = [streamed_cells(spec, r) for r in levels]
    for quadrant in QUADRANT_NAMES:
        sets = [NSet(set().union(*cells[quadrant].values())) for cells in streamed]
        assert spec.limit(quadrant) == union_all(sets)
        for constant in (NSet.of(1), NSet.of(2, 3)):
            whole = union_all([nset_product(s, constant) for s in sets])
            for r_max in range(4):
                got = eval_construction(spec, CutdownOracle.constant(constant), r_max, quadrant)
                assert got.converged == (got.value == whole)


def test_table_convergence_does_not_wait_for_an_override_already_shown():
    # level 2's override carries the value levels 0 and 1 already show: by level 1 the
    # spec has shown its whole limit, and the last level added nothing
    spec = LambdaSpec(default=2, overrides=(Override(2, *SIBLINGS[2][0], 2),))
    assert spec.saturation_bound == 2 and spec.limit() == NSet.of(2)
    got = eval_construction(spec, constant_table(2, "1,3"), 1)
    assert got.value == NSet.of(2, 6) and got.converged


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


def test_override_is_a_one_position_segment():
    # the override is cut out of the level-1 table as a segment of its own
    i, j = SIBLINGS[1][3]
    spec = LambdaSpec(default=2, overrides=(Override(1, i, j, 7),))
    assert spec._segments(1) == (
        (False, 0, 3, [2], 0, "both_zero"),
        (False, 3, 4, [7], 0, "both_zero"),
        (False, 4, 6, [2], 0, "both_zero"),
        (False, 6, 12, [2], 0, "both_one"),
    )
    assert spec.value(1, j, i) == 7


@pytest.mark.parametrize("base", [{"default": 4}, {"enumeration": NSet.of(2, 3, 5)}])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_adjacent_overrides_at_the_segment_ends(base, r):
    # the first two positions, the two on either side of the branch boundary and
    # the last one: empty cuts between overrides and at both ends of each segment
    half = len(SIBLINGS[r]) // 2
    positions = (0, 1, half - 1, half, 2 * half - 1)
    values = (10, 11, INF, 12, 4)
    spec = LambdaSpec(overrides=tuple(Override(r, *SIBLINGS[r][p], v)
                                      for p, v in zip(positions, values)), **base)
    assignments = list(spec.level_assignments(r))
    assert [assignments[p][1] for p in positions] == list(values)
    for (i, j), v in assignments:
        assert spec.value(r, i, j) == spec.value(r, j, i) == v
    streamed = streamed_cells(spec, r)
    for quadrant in QUADRANT_NAMES:
        assert spec.value_set_at_level(r, quadrant) == streamed_value_set(spec, r, quadrant)
        assert spec.cell_values(r, quadrant) == streamed[quadrant]


# ---------------------------------------------------------------------------
# table evaluations and diagrams


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_oracle_grids_match_padded_table(data):
    level = data.draw(st.integers(0, 4))
    entries = table_entries(data, level)
    oracle = CutdownOracle.from_table(level, entries)
    assert oracle.level == level
    for depth in range(level + 1):
        for x, row in enumerate(labels(depth)):
            for y, col in enumerate(labels(depth)):
                assert oracle.cells(depth)[x][y] == padded_entry(entries, row, col)


@settings(max_examples=30, deadline=None)
@given(spec=all_specs, data=st.data())
def test_table_evaluation_matches_stream(spec, data):
    r_max = data.draw(st.integers(0, 2))
    entries = table_entries(data, r_max + 1)
    oracle = CutdownOracle.from_table(r_max + 1, entries)
    for quadrant in QUADRANT_NAMES:
        got = eval_construction(spec, oracle, r_max, quadrant)
        expected = [streamed_level(spec, entries, r, quadrant) for r in range(r_max + 1)]
        assert list(got.per_level) == expected
        assert got.value == union_all(expected)


@settings(max_examples=30, deadline=None)
@given(spec=all_specs, data=st.data())
def test_diagram_and_render_match_stream(spec, data):
    r = data.draw(st.integers(0, 2))
    if data.draw(st.booleans()):
        oracle, entries = SIMPLE, constant_entries(r + 1)
    else:
        entries = table_entries(data, r + 1)
        oracle = CutdownOracle.from_table(r + 1, entries)
    got = diagram_from_construction(spec, oracle, r)
    expected = streamed_diagram(spec, entries, r)
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
    assert render(got, "ascii") == render(streamed_diagram(spec, constant_entries(4), 3), "ascii")


@settings(max_examples=20, deadline=None)
@given(spec=st.one_of(all_specs, deep_specs), data=st.data())
def test_refined_diagram_matches_buckets(spec, data):
    r = data.draw(st.integers(0, 4))
    if data.draw(st.booleans()):
        oracle = SIMPLE
    else:
        oracle = CutdownOracle.from_table(r + 1, table_entries(data, r + 1))
    got = diagram_from_construction(spec, oracle, r)
    assert got == bucketed_diagram(spec, oracle, r)


@settings(max_examples=20, deadline=None)
@given(spec=st.one_of(all_specs, deep_specs), data=st.data())
def test_grids_and_levels_match_the_per_cell_reference(spec, data):
    # the table's five values repeat, so most pairs of value sets recur across cells
    r = data.draw(st.integers(0, 4))
    entries = table_entries(data, r + 1)
    table, reference = CutdownOracle.from_table(r + 1, entries), per_cell_table(r + 1, entries)
    assert [g.cells for g in table.grids] == [g.cells for g in reference.grids]
    for oracle in (SIMPLE, table):
        assert diagram_from_construction(spec, oracle, r) == per_cell_diagram(spec, oracle, r)
    for quadrant in QUADRANT_NAMES:
        assert eval_construction(spec, table, r, quadrant).per_level == tuple(
            per_cell_level(spec, reference, t, quadrant) for t in range(r + 1))


# ---------------------------------------------------------------------------
# resource guards


def constant_table(level, value="1"):
    return CutdownOracle.from_table(level, constant_entries(level, value))


def test_quadrant_table_evaluation_reaches_level_four():
    # 268,435,456 cross pairs at level 4: far past what a stream could visit
    spec = LambdaSpec(quadrants=QuadrantRules(NSet.of(2), NSet.of(3, INF), NSet.of(5, 7)))
    got = eval_construction(spec, constant_table(5), 4)
    assert got.per_level == eval_construction(spec, SIMPLE, 4).per_level


README_SPECS = [
    LambdaSpec(default=3, overrides=(Override(0, *SIBLINGS[0][0], 2),)),
    LambdaSpec(enumeration=NSet.of(2, 3)),
    LambdaSpec(quadrants=QuadrantRules(NSet.of(2), NSet.of(5, INF), NSet.of(7))),
]


@pytest.mark.parametrize("r", [5, 6])
@pytest.mark.parametrize("spec", README_SPECS)
def test_readme_specs_give_every_value_per_cell_at_levels_five_and_six(spec, r):
    cells = spec.cell_values(r)
    assert NSet(set().union(*cells.values())) == spec.value_set_at_level(r)


@pytest.mark.parametrize("spec", README_SPECS)
def test_cell_work_cap_passes_level_four_and_trips_at_five(spec, monkeypatch):
    # each level-4 cell of these specs is met by one run: the walk costs two per cell,
    # so a cap of exactly that fits level 4 and level 5's doubled cells overrun it
    cells = spec.cell_values(4)
    assert NSet(set().union(*cells.values())) == spec.value_set_at_level(4)
    monkeypatch.setattr(indices, "CELL_WORK_CAP", 2 * len(cells))
    assert spec.cell_values(4) == cells
    with pytest.raises(ResourceGuardError):
        spec.cell_values(5)


def test_guard_trips_before_any_walk_at_level_ten(monkeypatch):
    # 3·2^10 sibling and 4^10 cross cells: over the cap before a single run
    spec = README_SPECS[2]

    def no_walk(*args):
        raise AssertionError("walked past the guard")

    monkeypatch.setattr(indices, "_leading_cells", no_walk)
    with pytest.raises(ResourceGuardError, match="cap"):
        spec.cell_values(10)
    # an enumeration has 3·2^10 cells at level 10, but its grid has 4^11
    for lam in (spec, README_SPECS[1]):
        with pytest.raises(ResourceGuardError, match="grid"):
            diagram_from_construction(lam, SIMPLE, 10)
    # a constant oracle needs no cells and still evaluates
    assert eval_construction(spec, SIMPLE, 10).value == NSet.of(2, 5, 7, INF)


def test_guard_counts_the_runs_walked(monkeypatch):
    # an override at position 0 is in cell (0, 0); cell (0, 1) shares its span, never
    # sees the value and walks all 1,024 of its runs, past a cap of 1,000 with 48 cells
    spec = LambdaSpec(enumeration=NSet.of(2, 3),
                      overrides=(Override(4, *sibling_pair_at(4, 0), 9),))
    assert 9 in spec.cell_values(4)[0, 0] and 9 not in spec.cell_values(4)[0, 1]
    monkeypatch.setattr(indices, "CELL_WORK_CAP", 1000)
    with pytest.raises(ResourceGuardError, match="runs"):
        spec.cell_values(4)
    assert spec.cell_values(3)
