"""Nested bit-sequence indices, their restriction maps, and sibling-pair streams.

A level-``r`` multi-index holds ``r+1`` bit sequences whose lengths drop by
one from ``m+r`` down to ``m``.  Restrictions forget trailing sequences and
trailing bits; a *sibling pair* at level ``r`` is a distinct pair agreeing
after restriction to level ``r−1``.  Sibling pairs are the carriers of the
pair values that drive the inductive masa construction, bundled here as
:class:`LambdaSpec`.

The pair streams run level by level, lexicographically within a level;
level −1 is the one root, so level 0 needs no case of its own.  A cycled value
is read at its stream position modulo its list's length, so no table of
starts is kept: :func:`_stream_starts` sums the levels below modulo the lists.
A pair's position within its level is index arithmetic on lexicographic ranks:
:func:`_pair_position` decides from the ranks whether a pair is a sibling or a
cross pair and gives its position in that stream in closed form.  One segment
table per level, built by ``LambdaSpec._segments`` when read, says which
ranges of the sibling and cross streams carry which cycled values, by
quadrant, with each override a range of one position carrying its own value;
value lookups, per-level value sets and :meth:`LambdaSpec.cell_values`
(values grouped by leading words, walked cell by cell over runs of
consecutive positions) all read it.  Completeness is decided once per spec.
The enumerators :func:`iter_sibling_pairs`, :func:`iter_cross_pairs` and
:meth:`LambdaSpec.level_assignments`, which sums its own stream starts, stay
as the independent reference.

:func:`glue_check` certifies the nested projection families exhaustively
without building ``MultiIndex`` objects: it runs the word arithmetic of
:func:`restrict`, :func:`fiber` and the lexicographic rank on int64 arrays of
ranks, through the same helpers those functions use on Python ints.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, lcm

from .errors import (
    CountCapError,
    InvalidLambdaError,
    ResourceGuardError,
    RestrictionRangeError,
)
from .nsets import NSet, is_valid_value

# Enumerations larger than this raise instead of looping for minutes.
ENUMERATION_CAP = 1 << 22

# Bound on the leading cells plus the stream runs one ``cell_values`` call walks,
# and on the cells of one rendered grid.
CELL_WORK_CAP = 1 << 20

# Ranks per int64 array in ``glue_check``; bounds its working set.
GLUE_CHUNK = 1 << 12

# Quadrant filters of the pair-value queries; ``None`` keeps every pair.
QUADRANT_NAMES = (None, "both_zero", "both_one", "mixed")


class _Root:
    """The common restriction of every multi-index at level −1."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ROOT"


ROOT = _Root()


@dataclass(frozen=True, order=True)
class MultiIndex:
    """An element of the level-``r`` index set with final sequence length ``m``.

    ``words[t]`` packs sequence ``t`` as an integer with its first bit in the
    highest position, so truncating trailing bits is a right shift and
    lexicographic order is integer order.
    """

    r: int
    m: int
    words: tuple[int, ...]

    def __post_init__(self):
        if self.r < 0 or self.m < 1 or len(self.words) != self.r + 1:
            raise ValueError(f"malformed multi-index ({self.r}, {self.m}, {self.words})")
        for t, w in enumerate(self.words):
            if not 0 <= w < (1 << self.seq_length(t)):
                raise ValueError(f"word {t} out of range for length {self.seq_length(t)}")

    def seq_length(self, t: int) -> int:
        return self.m + self.r - t

    def bits(self, t: int) -> str:
        return format(self.words[t], f"0{self.seq_length(t)}b")

    def to_bits(self) -> tuple[str, ...]:
        return tuple(self.bits(t) for t in range(self.r + 1))

    @classmethod
    def from_bits(cls, seqs) -> "MultiIndex":
        seqs = [str(s) for s in seqs]
        if not seqs or any(set(s) - {"0", "1"} for s in seqs):
            raise ValueError(f"expected bit strings, got {seqs}")
        r, m = len(seqs) - 1, len(seqs[-1])
        lengths = [len(s) for s in seqs]
        if lengths != [m + r - t for t in range(r + 1)]:
            raise ValueError(f"sequence lengths {lengths} must step down by one to {m}")
        return cls(r, m, tuple(int(s, 2) for s in seqs))

    @property
    def branch(self) -> int:
        """First bit of the leading sequence; the level-0 restriction."""
        return self.words[0] >> (self.seq_length(0) - 1)


def index_count(r: int, m: int) -> int:
    """Size of the level-``r`` index set with final length ``m``."""
    return 1 << ((r + 1) * m + r * (r + 1) // 2)


def iter_indices(r: int, m: int):
    """All multi-indices at ``(r, m)`` in lexicographic order (leading word slowest)."""
    total = index_count(r, m)
    if total > ENUMERATION_CAP:
        raise CountCapError(f"{total} indices at ({r}, {m}) exceed the cap {ENUMERATION_CAP}")
    ranges = [range(1 << (m + r - t)) for t in range(r + 1)]
    for words in itertools.product(*ranges):
        yield MultiIndex(r, m, words)


def restrict(i: MultiIndex, s: int, l: int) -> MultiIndex:
    """Restriction to level ``s`` and final length ``l``: drop sequences and tail bits."""
    if not (0 <= s <= i.r) or not (1 <= l <= i.m + i.r - s):
        raise RestrictionRangeError(f"cannot restrict ({i.r}, {i.m}) to ({s}, {l})")
    return MultiIndex(s, l, _restrict_words(i.words, i.r, i.m, s, l))


def pipe(i: MultiIndex, s: int):
    """Restriction to final length one at level ``s``; level −1 is the shared root."""
    if s == -1:
        return ROOT
    return restrict(i, s, 1)


def level_zero(bit: int) -> MultiIndex:
    return MultiIndex(0, 1, (bit,))


def fiber(parent: MultiIndex) -> list[MultiIndex]:
    """Elements of the next level restricting to ``parent`` (final length one)."""
    if parent.m != 1:
        raise RestrictionRangeError("fibers are taken over final-length-one indices")
    r = parent.r + 1
    out = []
    for bits in itertools.product((0, 1), repeat=r + 1):
        words = _extend_words(parent.words, bits) + (bits[-1],)
        out.append(MultiIndex(r, 1, words))
    return out


def sibling_pair_count(r: int) -> int:
    """Number of sibling pairs at level ``r``; level 0's siblings share the one root."""
    return index_count(r - 1, 1) * comb(1 << (r + 1), 2)


def iter_sibling_pairs(r: int):
    """Sibling pairs ``(i, j)`` with ``i < j``, ordered lexicographically by pair."""
    if r == 0:
        yield (level_zero(0), level_zero(1))
        return
    for i in iter_indices(r, 1):
        mates = fiber(pipe(i, r - 1))
        for j in mates:
            if j > i:
                yield (i, j)


def cross_pair_count(r: int) -> int:
    """Pairs with one index in each branch; at level 0 that is the one sibling pair."""
    half = index_count(r, 1) // 2
    return half * half


def iter_cross_pairs(r: int):
    """Cross-branch pairs ``(i, j)`` with ``i`` in branch 0, lexicographic by pair."""
    everything = list(iter_indices(r, 1))
    half = len(everything) // 2
    for i in everything[:half]:
        for j in everything[half:]:
            yield (i, j)


def _stream_starts(r: int, modulus: int) -> tuple[int, int]:
    """Where level ``r`` starts in the sibling and the cross stream, modulo ``modulus``."""
    # level s holds 2^{s(s+3)/2}·(2^{s+1} − 1) sibling pairs and 2^{s(s+3)} cross pairs
    siblings = crosses = 0
    power, fiber = 1, 2  # 2^{s(s+3)/2} and 2^{s+1}, as running products
    for _ in range(r):
        siblings = (siblings + power * (fiber - 1)) % modulus
        crosses = (crosses + power * power) % modulus
        power, fiber = power * 2 * fiber % modulus, 2 * fiber % modulus
    return siblings, crosses


# ---------------------------------------------------------------------------
# pair-value specifications


def _check_value(v):
    if not is_valid_value(v):
        raise InvalidLambdaError(f"pair values must be positive integers or inf: {v!r}")
    return v


@dataclass(frozen=True)
class Override:
    """A single pair value pinned at level ``r``; indices are a sibling pair."""

    r: int
    i: MultiIndex
    j: MultiIndex
    value: object  # positive int or math.inf

    def __post_init__(self):
        _check_value(self.value)
        if self.i > self.j:
            lo, hi = self.j, self.i
            object.__setattr__(self, "i", lo)
            object.__setattr__(self, "j", hi)
        i, j = self.i, self.j
        if i.r != self.r or j.r != self.r or i.m != 1 or j.m != 1:
            raise InvalidLambdaError(f"override indices must live at level {self.r}, length 1")
        if i == j or _pair_position(self.r, i, j)[0]:
            raise InvalidLambdaError("override indices must form a sibling pair")


@dataclass(frozen=True)
class QuadrantRules:
    """Per-branch value sets for the direct-sum construction.

    ``both_zero`` covers sibling pairs inside branch 0 (levels ≥ 1),
    ``both_one`` those inside branch 1, and ``mixed`` the cross-branch pairs
    (the unique level-0 pair first, then one pair per branch-0/branch-1
    combination at each deeper level).  Values are assigned round-robin along
    each stream.
    """

    both_zero: NSet
    both_one: NSet
    mixed: NSet

    def __post_init__(self):
        for s in (self.both_zero, self.both_one, self.mixed):
            if s.is_empty:
                raise InvalidLambdaError("quadrant value sets must be non-empty")


@dataclass(frozen=True)
class LambdaSpec:
    """Symmetric pair values over the sibling-pair stream.

    Values resolve in order: explicit overrides, then the cyclic enumeration
    of a finite target set over the canonical pair stream (ascending level,
    then lexicographic), then quadrant rules, then the default.  Enumeration
    and quadrant rules are mutually exclusive.
    """

    default: object = 1
    overrides: tuple[Override, ...] = ()
    enumeration: NSet | None = None
    quadrants: QuadrantRules | None = None

    def __post_init__(self):
        _check_value(self.default)
        if self.enumeration is not None and self.enumeration.is_empty:
            raise InvalidLambdaError("enumeration target must be non-empty")
        if self.enumeration is not None and self.quadrants is not None:
            raise InvalidLambdaError("enumeration and quadrant rules cannot be combined")
        if self.quadrants is not None and self.overrides:
            raise InvalidLambdaError("overrides are not supported with quadrant rules")
        seen = set()
        for o in self.overrides:
            key = (o.r, o.i, o.j)
            if key in seen:
                raise InvalidLambdaError(f"duplicate override for pair {key}")
            seen.add(key)

    # -- stream bookkeeping ------------------------------------------------

    def max_override_level(self) -> int:
        return max((o.r for o in self.overrides), default=-1)

    def _segments(self, r: int, quadrant: str | None = None) -> tuple:
        """The value-carrying pairs of level ``r`` as ``(cross, lo, hi, values, base, quadrant)``.

        Positions ``lo … hi−1`` of the sibling stream, or of the cross stream
        when ``cross`` is set, carry ``values[(base + p) % len(values)]``.
        Each override is cut out of the sibling segment it falls in as a
        segment of one position carrying ``[value]``, so the table is the only
        record of which position carries which value.  Segments come in
        stream order, sibling stream first, so the table is sorted, and
        ``quadrant`` keeps only the named one.  The unique level-0 pair is the
        sibling pair across the branches, so it is ``mixed`` for every spec.
        """
        if quadrant not in QUADRANT_NAMES:
            raise ValueError(f"unknown quadrant {quadrant!r}")
        q, half = self.quadrants, sibling_pair_count(r) // 2
        lists = [s.sorted_values() for s in (q.both_zero, q.both_one, q.mixed)] if q else [
            [self.default] if self.enumeration is None else self.enumeration.sorted_values()]
        # bases are read modulo their lists, and the branch starts halve the odd sibling start
        siblings, crosses = _stream_starts(r, 2 * lcm(*map(len, lists)))
        if q is None:
            zero = one = mixed = (lists[0], 0 if self.enumeration is None else siblings)
        else:
            # each branch holds half of every level's siblings from level 1 on
            zero, one, mixed = zip(lists, (siblings // 2, siblings // 2 - half, crosses))
        if r == 0:
            table = ((False, 0, 1, *mixed, "mixed"),)
        else:
            table = ((False, 0, half, *zero, "both_zero"),
                     (False, half, 2 * half, *one, "both_one"))
            if q is not None:
                table += ((True, 0, cross_pair_count(r), *mixed, "mixed"),)
        pins = sorted((_pair_position(r, o.i, o.j)[1], o.value)
                      for o in self.overrides if o.r == r)
        cut = []
        for cross, lo, hi, values, base, name in table:
            for p, v in [] if cross else pins:
                if lo <= p < hi:
                    cut += [(cross, lo, p, values, base, name), (cross, p, p + 1, [v], 0, name)]
                    lo = p + 1
            cut.append((cross, lo, hi, values, base, name))
        return tuple(s for s in cut if s[1] < s[2] and quadrant in (None, s[5]))

    def value(self, r: int, i: MultiIndex, j: MultiIndex):
        """The value carried by the pair ``{i, j}`` at level ``r``; symmetric."""
        if i > j:
            i, j = j, i
        cross, pos = _pair_position(r, i, j)
        table = self._segments(r)
        # the last segment with (cross, lo) ≤ (cross, pos); the first is (False, 0, …)
        on_cross, _, hi, values, base, _ = table[bisect_left(table, (cross, pos + 1)) - 1]
        if on_cross == cross and pos < hi:
            return values[(base + pos) % len(values)]
        raise InvalidLambdaError(f"the level-{r} pair {i}, {j} carries no value")

    def level_assignments(self, r: int):
        """All value-carrying pairs at level ``r`` with their values, in stream order.

        This enumerates every pair; :meth:`cell_values` gives the same values
        grouped by leading cell without enumerating.
        """
        overrides = {(o.r, o.i, o.j): o.value for o in self.overrides}
        # its own sums, not _stream_starts, so that a wrong table shows as a difference
        if self.quadrants is None:
            offset = sum(sibling_pair_count(s) for s in range(r))
            values = self.enumeration or NSet.of(self.default)
            for pos, (i, j) in enumerate(iter_sibling_pairs(r)):
                hit = overrides.get((r, i, j))
                yield (i, j), _cycle(values, offset + pos) if hit is None else hit
            return
        # quadrant rules: branch siblings carry E/F, cross pairs carry G
        if r == 0:
            yield (level_zero(0), level_zero(1)), _cycle(self.quadrants.mixed, 0)
            return
        half = sibling_pair_count(r) // 2
        branch = sum(sibling_pair_count(s) // 2 for s in range(1, r))
        for pos, (i, j) in enumerate(iter_sibling_pairs(r)):
            rule, start = ((self.quadrants.both_zero, branch) if i.branch == 0
                           else (self.quadrants.both_one, branch - half))
            yield (i, j), _cycle(rule, start + pos)
        mixed = sum(cross_pair_count(s) for s in range(r))
        for pos, (i, j) in enumerate(iter_cross_pairs(r)):
            yield (i, j), _cycle(self.quadrants.mixed, mixed + pos)

    # -- values grouped by leading cell -------------------------------------

    def cell_values(self, r: int, quadrant: str | None = None) -> dict[tuple[int, int], NSet]:
        """Values of the level-``r`` pairs grouped by leading cell.

        Keys are ``(i.words[0], j.words[0])`` over the value-carrying pairs
        ``i < j``, optionally of one quadrant; each maps to the set of values
        those pairs carry.  No pair is enumerated: a cell's pairs are runs of
        stream positions (:func:`_leading_cells`), each carrying the cyclic
        slices of the segments of :meth:`_segments` it meets, walked until the
        cell holds every value of the segments its span meets.  Raises
        :class:`ResourceGuardError` when the cells, counted before any walk,
        or the cells plus the runs walked exceed :data:`CELL_WORK_CAP`.
        """
        segments = self._segments(r, quadrant)
        streams = ([s[1:5] for s in segments if not s[0]], [s[1:5] for s in segments if s[0]])
        half = 1 << r
        work = 3 * half + (half * half if streams[1] else 0)
        if work > CELL_WORK_CAP:
            raise ResourceGuardError(
                f"level {r} has {work} leading cells, over the cap {CELL_WORK_CAP}"
            )
        cells: dict = {}
        for cell, cross, span, runs in _leading_cells(r, *map(bool, streams)):
            # the runs lie inside the span, so they meet only the span's segments;
            # one segment, the usual case, needs no bisection
            meet = _meeting(streams[cross], *span)
            one = len(meet) == 1
            target = len(meet[0][2] if one else set().union(*(s[2] for s in meet)))
            got: set = set()
            for start, stop in runs if meet else ():
                work += 1
                if work > CELL_WORK_CAP:
                    raise ResourceGuardError(
                        f"level {r} walks more cells and runs than the cap {CELL_WORK_CAP}"
                    )
                for lo, hi, values, base in meet if one else _meeting(meet, start, stop):
                    lo, hi = max(lo, start), min(hi, stop)
                    got |= _cyclic_slice(values, base + lo, hi - lo)
                if len(got) == target:
                    break
            if got:
                cells[cell] = NSet(got)
        return cells

    # -- value sets without enumeration -------------------------------------

    def value_set_at_level(self, r: int, quadrant: str | None = None) -> NSet:
        """Set of values over the level-``r`` pairs, optionally quadrant-restricted.

        ``quadrant`` is one of ``None`` (everything), ``"both_zero"``,
        ``"both_one"`` or ``"mixed"``.  Each segment is a contiguous range of
        a stream, so the set is the union of their cyclic slices.
        """
        out: set = set()
        for _, lo, hi, values, base, _ in self._segments(r, quadrant):
            out |= _cyclic_slice(values, base + lo, hi - lo)
        return NSet(out)

    def values_complete_by(self, r: int) -> bool:
        """True when levels beyond ``r`` can only repeat values already seen by ``r``."""
        return r >= self._complete_level

    @cached_property
    def _complete_level(self) -> int:
        """The first level from the last override level on by which every listed value is seen."""
        # the next level carries no override, and from level 1 on every segment
        # of a level without overrides cycles through its whole value list
        top = max(self.max_override_level(), 0)
        listed = {v for s in self._segments(top + 1) for v in s[3]}
        seen, r = set(), -1
        while r < top or not listed <= seen:
            r += 1
            seen |= self.value_set_at_level(r)
        return r


def _cycle(target: NSet, position: int):
    values = target.sorted_values()
    return values[position % len(values)]


def _cyclic_slice(values: list, offset: int, count: int) -> set:
    """The values at positions ``offset … offset+count−1``, cycling through ``values``."""
    if count >= len(values):
        return set(values)
    start = offset % len(values)
    return {values[(start + t) % len(values)] for t in range(count)}


def _meeting(segments: list, start: int, stop: int) -> list:
    """The ``(lo, hi, values, base)`` of sorted stream segments meeting ``start … stop−1``."""
    # from the one holding start, up to the first beginning at stop
    k = bisect_left(segments, (start,))
    if k and segments[k - 1][1] > start:
        k -= 1
    return segments[k:bisect_left(segments, (stop,))]


# ---------------------------------------------------------------------------
# closed-form stream ranks
#
# At level r (final length one) the lexicographic rank of an index is its
# words concatenated, word 0 highest.  Word t has length r+1−t, so its low
# bit sits at bit (r−t)(r−t+1)/2 of the rank.  Siblings differ only in these
# r+1 low bits; read word 0 first they form the fiber rank fr, and lex order
# inside a fiber is fr order.  The sibling stream lists, for each i in rank
# order, its F−1−fr(i) mates above it (F = 2^{r+1} is the fiber size).


def _fiber_rank(r: int, rank: int) -> int:
    out = 0
    for s in range(r, -1, -1):  # word r − s's low bit
        out = (out << 1) | ((rank >> (s * (s + 1) >> 1)) & 1)
    return out


def _ones_below(n: int, p: int) -> int:
    """How many integers in ``[0, n)`` have bit ``p`` set."""
    period = 1 << (p + 1)
    return (n // period) * (period >> 1) + max(0, n % period - (period >> 1))


def _pairs_before(r: int, rank: int) -> int:
    """Sibling pairs whose first index ranks below ``rank``: Σ_{i′<rank} (F−1−fr(i′))."""
    fibre_sum = sum(_ones_below(rank, s * (s + 1) >> 1) << s for s in range(r + 1))
    return rank * ((2 << r) - 1) - fibre_sum


def _pair_position(r: int, i: MultiIndex, j: MultiIndex) -> tuple[bool, int]:
    """``(cross, pos)`` of a level-``r`` pair ``i < j``, from its ranks in O(r).

    A sibling pair differs only in the fiber bits; ``pos`` is then its place
    in the sibling stream.  Otherwise ``i`` must lie in branch 0 and ``j`` in
    branch 1, and ``pos = rank_i·half + rank_j − half`` is its place in the
    cross stream.  Any other pair raises :class:`InvalidLambdaError`.
    """
    if i.r != r or j.r != r or i.m != 1 or j.m != 1:
        raise InvalidLambdaError(f"not a level-{r} pair: {i}, {j}")
    rank_i, rank_j = _lex_rank(i), _lex_rank(j)
    if rank_i < rank_j and all(a >> 1 == b >> 1 for a, b in zip(i.words, j.words)):
        step = _fiber_rank(r, rank_j) - _fiber_rank(r, rank_i)
        return False, _pairs_before(r, rank_i) + step - 1
    half = index_count(r, 1) // 2
    if rank_i < half <= rank_j:
        return True, rank_i * half + rank_j - half
    raise InvalidLambdaError(f"not a sibling or cross pair at level {r}: {i}, {j}")


def _leading_cells(r: int, siblings: bool, crosses: bool):
    """The leading cells of level ``r`` in the streams asked for, with lazy runs.

    Yields ``((lead_i, lead_j), cross, (lo, hi), runs)``: the cell's pairs are
    the positions ``start … stop−1`` of each ``(start, stop)`` of ``runs``,
    inside ``lo … hi−1`` of the sibling or the cross stream.  The ``i`` of
    leading word ``a`` list their mates above them in fiber order, whose top
    bit is the low bit of ``a``: for odd ``a`` all share ``a``, one run; for
    even ``a`` each ``i`` has ``half−1−fr`` in ``(a, a)``, then ``half`` in
    ``(a, a|1)``.  Cross pairs from ``a`` into ``half|b`` are runs of ``2^rest``.
    """
    rest, half = r * (r + 1) // 2, 1 << r
    size = 1 << rest
    # fr mod half averages (half − 1)/2 over a leading word, so its i have
    # (3·half − 1)/2 mates above them on average when it is even, (half − 1)/2 when odd
    even, odd = ((3 * half - 1) << rest) >> 1, ((half - 1) << rest) >> 1
    for a in range(0, 2 * half, 2) if siblings else ():
        lo, ranks = (a >> 1) * (even + odd), range(a << rest, (a + 1) << rest)
        span, odd_span = (lo, lo + even), (lo + even, lo + even + odd)
        yield (a, a), False, span, _even_lead_runs(r, ranks, lo, False)
        yield (a, a | 1), False, span, _even_lead_runs(r, ranks, lo, True)
        yield (a | 1, a | 1), False, odd_span, (odd_span,)
    stride = index_count(r, 1) // 2
    for a, b in itertools.product(range(half), repeat=2) if crosses else ():
        first = (a << rest) * stride + b * size
        starts = range(first, first + size * stride, stride)
        yield (a, half | b), True, (first, starts[-1] + size), ((p, p + size) for p in starts)


def _even_lead_runs(r: int, ranks: range, start: int, mate: bool):
    """The runs of ``(a, a)``, or of ``(a, a|1)`` if ``mate``, over the ranks of an even ``a``."""
    half = 1 << r
    for k in ranks:
        own = half - 1 - _fiber_rank(r, k)
        yield (start + own, start + own + half) if mate else (start, start + own)
        start += own + half


def _lex_rank(i: MultiIndex) -> int:
    return _encode_words(i.words, i.r, i.m)


# ---------------------------------------------------------------------------
# word arithmetic on Python ints or int64 arrays
#
# The helpers below take one index as Python ints or a batch of indices as
# int64 arrays, one array per word, so the glue check runs the arithmetic of
# restrict, fiber and _lex_rank itself rather than a copy of it.


def _encode_words(words, r: int, m: int):
    """Lexicographic rank at ``(r, m)``: the words concatenated, word 0 highest."""
    rank = 0
    for t, w in enumerate(words):
        rank = (rank << (m + r - t)) | w
    return rank


def _decode_rank(rank, r: int, m: int) -> tuple:
    """The words of the index with lexicographic rank ``rank`` at ``(r, m)``."""
    words = []
    for t in range(r, -1, -1):
        length = m + r - t
        words.append(rank & ((1 << length) - 1))
        rank = rank >> length
    return tuple(reversed(words))


def _restrict_words(words, r: int, m: int, s: int, l: int) -> tuple:
    """Words of the restriction from ``(r, m)`` to ``(s, l)``: keep ``s+1``, drop tail bits."""
    shift = (m + r) - (l + s)
    return tuple(w >> shift for w in words[: s + 1])


def _extend_words(words, bits) -> tuple:
    """Append ``bits[t]`` to word ``t``: one refinement step of a fiber."""
    return tuple((w << 1) | b for w, b in zip(words, bits))


def _words_in_range(words, r: int, m: int):
    """Whether each word fits its length at ``(r, m)``; elementwise for arrays."""
    ok = True
    for t, w in enumerate(words):
        ok = ok & (w >= 0) & (w < (1 << (m + r - t)))
    return ok


# ---------------------------------------------------------------------------
# symbolic verification of the projection-family conditions


@dataclass(frozen=True)
class GlueReport:
    """Outcome of the exact rational checks on the nested projection families."""

    r_max: int
    m_max: int
    cases_checked: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def glue_check(r_max: int = 3, m_max: int = 3) -> GlueReport:
    """Verify the partition, refinement, and cross-level conditions exhaustively.

    Every check runs over int64 arrays of lexicographic ranks, in chunks of
    at most :data:`GLUE_CHUNK` ranks.  (i) Every rank of every index set
    decodes to in-range words that encode back to it.  (ii) and (iii) Every
    child is built from its parent's word arrays, by bit extension or by
    appended free words, and must restrict back to that parent; the children
    must cover the next index set exactly once (a one-byte seen map plus the
    count).  The dyadic split of each word length is one int64 array check,
    linear in the number of words.  Traces are exact rationals.  Raises :class:`CountCapError`
    before importing numpy or allocating anything when the largest index set of the grid,
    ``(r_max, m_max)``, exceeds :data:`ENUMERATION_CAP`.
    """
    if r_max >= 0 and m_max >= 1 and index_count(r_max, m_max) > ENUMERATION_CAP:
        raise CountCapError(
            f"{index_count(r_max, m_max)} indices at ({r_max}, {m_max}) "
            f"exceed the cap {ENUMERATION_CAP}"
        )

    import numpy as np
    failures: list[str] = []
    cases = 0

    # (i) each level is a trace partition of the identity
    for s in range(r_max + 1):
        for m in range(1, m_max + 1):
            total = index_count(s, m)
            bad = 0
            for ranks in _rank_chunks(total):
                words = _decode_rank(ranks, s, m)
                good = _words_in_range(words, s, m) & (_encode_words(words, s, m) == ranks)
                bad += ranks.size - int(np.count_nonzero(good))
            if bad:
                failures.append(f"(i) at ({s},{m}): {bad} of {total} ranks do not re-encode")
            if total * Fraction(1, total) != 1:
                failures.append(f"(i) traces at ({s},{m}) do not sum to 1")
            cases += 1

    # (ii) growing the final length refines each projection into its fiber
    for s in range(r_max + 1):
        for m in range(1, m_max):
            bits = itertools.product((0, 1), repeat=s + 1)
            failures += _fiber_failures(
                f"(ii) at ({s},{m})", (s, m), (s, m + 1), 1 << (s + 1), _extend_words, bits
            )
            cases += 1

    # (iii) deeper levels refine coarser ones across the grid
    for s in range(r_max + 1):
        for t in range(s + 1, r_max + 1):
            for m in range(1, m_max + 1):
                big = m + t - s
                if big > m_max:
                    continue
                lengths = [m + t - u for u in range(s + 1, t + 1)]
                free = itertools.product(*(range(1 << n) for n in lengths))
                failures += _fiber_failures(
                    f"(iii) at s={s},t={t},m={m}", (s, big), (t, m), 1 << sum(lengths),
                    operator.add, free,
                )
                cases += 1

    # dyadic splitting at the symbol level: k ↦ k >> 1 hits every w < 2^m
    # exactly twice, and every k is its parent extended by its last bit, so
    # the children of w are exactly its two extensions
    for m in range(1, m_max):
        k = np.arange(1 << (m + 1), dtype=np.int64)
        parent = k >> 1
        bad = np.bincount(parent, minlength=1 << m) != 2
        bad[parent[(parent << 1 | (k & 1)) != k]] = True
        failures += [
            f"dyadic split of {w:0{m}b} is not its two extensions"
            for w in np.flatnonzero(bad).tolist()
        ]
        cases += 1

    return GlueReport(r_max, m_max, cases, tuple(failures))


def _rank_chunks(count: int):
    """The ranks ``0 … count−1`` as int64 arrays of at most :data:`GLUE_CHUNK`."""
    import numpy as np
    for lo in range(0, count, GLUE_CHUNK):
        yield np.arange(lo, min(lo + GLUE_CHUNK, count), dtype=np.int64)


def _fiber_failures(
    case: str, parent: tuple[int, int], child: tuple[int, int], fiber_size: int, attach, patterns
) -> list[str]:
    """Failures of one refinement from ``parent`` to ``child``, both ``(level, final length)``.

    The closed-form counts must give ``fiber_size`` children of trace
    ``1/child_count`` per parent.  Then every child of every parent is built,
    a chunk of parents at a time, as ``attach(parent_words, pattern)`` for
    each of ``patterns``; it must be in range and restrict back to its
    parent, and the children must cover the child index set exactly once:
    every rank seen, and exactly ``child_count`` generated.
    """
    import numpy as np
    (s, pm), (t, cm) = parent, child
    parent_count, child_count = index_count(s, pm), index_count(t, cm)
    failures = []
    if parent_count * fiber_size != child_count:
        failures.append(f"{case}: fiber size mismatch")
    if fiber_size * Fraction(1, child_count) != Fraction(1, parent_count):
        failures.append(f"{case}: traces do not add up")
    patterns = list(patterns)
    seen = np.zeros(child_count, dtype=np.uint8)
    generated = escaped = 0
    for ranks in _rank_chunks(parent_count):
        words = _decode_rank(ranks, s, pm)
        for pattern in patterns:
            kid = attach(words, pattern)
            back = _encode_words(_restrict_words(kid, t, cm, s, pm), s, pm)
            good = _words_in_range(kid, t, cm) & (back == ranks)
            seen[_encode_words(kid, t, cm)[good]] = 1
            escaped += ranks.size - int(np.count_nonzero(good))
            generated += ranks.size
    if escaped:
        failures.append(f"{case}: {escaped} fiber elements escape their parents")
    if generated != child_count or not seen.all():
        failures.append(f"{case}: fibers do not partition the child level")
    return failures
