"""Nested bit-sequence indices, their restriction maps, and sibling-pair streams.

A level-``r`` multi-index holds ``r+1`` bit sequences whose lengths drop by
one from ``m+r`` down to ``m``.  Restrictions forget trailing sequences and
trailing bits; a *sibling pair* at level ``r`` is a distinct pair agreeing
after restriction to level ``r−1``.  Sibling pairs are the carriers of the
pair values that drive the inductive masa construction, bundled here as
:class:`LambdaSpec`.

The pair streams are ordered lexicographically, so a pair's position is
index arithmetic on lexicographic ranks: :func:`_sibling_position` and
:func:`_cross_position` are closed forms, and :meth:`LambdaSpec.cell_values`
reads the values of a whole level, grouped by leading words, from runs of
consecutive stream positions.  The enumerators :func:`iter_sibling_pairs`,
:func:`iter_cross_pairs` and :meth:`LambdaSpec.level_assignments` stay as the
reference the closed forms are tested against.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from .errors import (
    CountCapError,
    InvalidLambdaError,
    ResourceGuardError,
    RestrictionRangeError,
)
from .nsets import NSet, is_valid_value

# Enumerations larger than this raise instead of looping for minutes.
ENUMERATION_CAP = 1 << 22

# Bound on the stream runs plus leading cells one ``cell_values`` call builds.
CELL_WORK_CAP = 1 << 20


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


def iter_indices(r: int, m: int, cap: int = ENUMERATION_CAP):
    """All multi-indices at ``(r, m)`` in lexicographic order (leading word slowest)."""
    total = index_count(r, m)
    if total > cap:
        raise CountCapError(f"{total} indices at ({r}, {m}) exceed the cap {cap}")
    ranges = [range(1 << (m + r - t)) for t in range(r + 1)]
    for words in itertools.product(*ranges):
        yield MultiIndex(r, m, words)


def restrict(i: MultiIndex, s: int, l: int) -> MultiIndex:
    """Restriction to level ``s`` and final length ``l``: drop sequences and tail bits."""
    if not (0 <= s <= i.r) or not (1 <= l <= i.m + i.r - s):
        raise RestrictionRangeError(f"cannot restrict ({i.r}, {i.m}) to ({s}, {l})")
    shift = (i.m + i.r) - (l + s)
    return MultiIndex(s, l, tuple(w >> shift for w in i.words[: s + 1]))


def pipe(i: MultiIndex, s: int):
    """Restriction to final length one at level ``s``; level −1 is the shared root."""
    if s == -1:
        return ROOT
    return restrict(i, s, 1)


def geq(i: MultiIndex, k: MultiIndex) -> bool:
    """True when ``i`` restricts to ``k``."""
    return restrict(i, k.r, k.m) == k


def level_zero(bit: int) -> MultiIndex:
    return MultiIndex(0, 1, (bit,))


def fiber(parent: MultiIndex) -> list[MultiIndex]:
    """Elements of the next level restricting to ``parent`` (final length one)."""
    if parent.m != 1:
        raise RestrictionRangeError("fibers are taken over final-length-one indices")
    r = parent.r + 1
    out = []
    for bits in itertools.product((0, 1), repeat=r + 1):
        words = tuple((w << 1) | b for w, b in zip(parent.words, bits)) + (bits[-1],)
        out.append(MultiIndex(r, 1, words))
    return out


def sibling_pair_count(r: int) -> int:
    """Number of sibling pairs at level ``r``."""
    if r == 0:
        return 1
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
    """Pairs with one index in each branch; only the sibling pair exists at level 0."""
    if r == 0:
        return 1
    half = index_count(r, 1) // 2
    return half * half


def iter_cross_pairs(r: int):
    """Cross-branch pairs ``(i, j)`` with ``i`` in branch 0, lexicographic by pair."""
    if r == 0:
        yield (level_zero(0), level_zero(1))
        return
    everything = list(iter_indices(r, 1))
    half = len(everything) // 2
    for i in everything[:half]:
        for j in everything[half:]:
            yield (i, j)


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
        if i == j or pipe(i, self.r - 1) != pipe(j, self.r - 1):
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

    @cached_property
    def _override_map(self) -> dict:
        return {(o.r, o.i, o.j): o.value for o in self.overrides}

    @cached_property
    def _pinned(self) -> dict:
        """Level → ascending ``(stream position, value, cell)`` of the overrides there."""
        out: dict = {}
        for o in self.overrides:
            cell = (o.i.words[0], o.j.words[0])
            out.setdefault(o.r, []).append((_sibling_position(o.r, o.i, o.j), o.value, cell))
        return {r: sorted(pins) for r, pins in out.items()}

    def max_override_level(self) -> int:
        return max((o.r for o in self.overrides), default=-1)

    def _enum_offset(self, r: int) -> int:
        return sum(sibling_pair_count(s) for s in range(r))

    def _branch_offset(self, r: int) -> int:
        # branch pairs appear from level 1 on; both branch streams grow alike
        return sum(sibling_pair_count(s) // 2 for s in range(1, r))

    def _mixed_offset(self, r: int) -> int:
        return sum(cross_pair_count(s) for s in range(r))

    def _sibling_stream(self, r: int) -> tuple[list, int]:
        """Values cycled over the level-``r`` sibling stream without quadrant rules,
        and the stream offset of its first pair."""
        if self.enumeration is not None:
            return self.enumeration.sorted_values(), self._enum_offset(r)
        return [self.default], 0

    def value(self, r: int, i: MultiIndex, j: MultiIndex):
        """The value carried by the pair ``{i, j}`` at level ``r``; symmetric."""
        if i > j:
            i, j = j, i
        if i == j or i.r != r or j.r != r or i.m != 1 or j.m != 1:
            raise InvalidLambdaError(f"not a level-{r} pair: {i}, {j}")
        sibling = pipe(i, r - 1) == pipe(j, r - 1)
        if sibling:
            hit = self._override_map.get((r, i, j))
            if hit is not None:
                return hit
        if self.quadrants is not None:
            return self._quadrant_value(r, i, j, sibling)
        if not sibling:
            raise InvalidLambdaError("only sibling pairs carry values without quadrant rules")
        if self.enumeration is not None:
            pos = self._enum_offset(r) + _sibling_position(r, i, j)
            return _cycle(self.enumeration, pos)
        return self.default

    def _quadrant_value(self, r: int, i: MultiIndex, j: MultiIndex, sibling: bool):
        if i.branch != j.branch:
            if not sibling and r == 0:
                raise InvalidLambdaError("impossible pair")
            pos = self._mixed_offset(r) + (0 if r == 0 else _cross_position(r, i, j))
            return _cycle(self.quadrants.mixed, pos)
        if not sibling:
            raise InvalidLambdaError("same-branch pairs carry values only when siblings")
        target = self.quadrants.both_zero if i.branch == 0 else self.quadrants.both_one
        local = _sibling_position(r, i, j)
        half = sibling_pair_count(r) // 2
        if i.branch == 1:
            local -= half
        return _cycle(target, self._branch_offset(r) + local)

    def level_assignments(self, r: int):
        """All value-carrying pairs at level ``r`` with their values, in stream order.

        This enumerates every pair; :meth:`cell_values` gives the same values
        grouped by leading cell without enumerating.
        """
        overrides = self._override_map
        if self.quadrants is None:
            offset = self._enum_offset(r) if self.enumeration is not None else 0
            for pos, (i, j) in enumerate(iter_sibling_pairs(r)):
                hit = overrides.get((r, i, j))
                if hit is not None:
                    yield (i, j), hit
                elif self.enumeration is not None:
                    yield (i, j), _cycle(self.enumeration, offset + pos)
                else:
                    yield (i, j), self.default
            return
        # quadrant rules: branch siblings carry E/F, cross pairs carry G
        if r == 0:
            yield (level_zero(0), level_zero(1)), _cycle(self.quadrants.mixed, 0)
            return
        half = sibling_pair_count(r) // 2
        for pos, (i, j) in enumerate(iter_sibling_pairs(r)):
            if i.branch == 0:
                yield (i, j), _cycle(self.quadrants.both_zero, self._branch_offset(r) + pos)
            else:
                yield (i, j), _cycle(
                    self.quadrants.both_one, self._branch_offset(r) + pos - half
                )
        for pos, (i, j) in enumerate(iter_cross_pairs(r)):
            yield (i, j), _cycle(self.quadrants.mixed, self._mixed_offset(r) + pos)

    # -- values grouped by leading cell -------------------------------------

    def _run_count(self, r: int) -> int:
        """Stream runs :meth:`cell_values` walks at level ``r``."""
        n = index_count(r, 1)
        runs = n + n // 2  # one run per index, two when its mates straddle a cell
        if self.quadrants is not None:
            runs += 1 if r == 0 else (n // 2) << r
        return runs

    def cell_values(self, r: int) -> dict[tuple[int, int], set]:
        """Values of the level-``r`` pairs grouped by leading cell.

        Keys are ``(i.words[0], j.words[0])`` over the value-carrying pairs
        ``i < j``; each maps to the set of values those pairs carry.  No pair
        is enumerated.  For a fixed ``i`` the mates sharing a leading word
        are consecutive in the sibling stream, and the cross pairs from ``i``
        into one leading word of branch 1 are consecutive in the mixed
        stream, so every cell is a union of cyclic slices.  Override
        positions come from the closed-form rank and are taken out of the
        runs they fall in.  Raises :class:`ResourceGuardError` when the runs
        plus the ``4^{r+1}`` possible cells exceed :data:`CELL_WORK_CAP`.
        """
        work = self._run_count(r) + 4 ** (r + 1)
        if work > CELL_WORK_CAP:
            raise ResourceGuardError(
                f"level {r} needs {work} stream runs and cells, over the cap {CELL_WORK_CAP}"
            )
        cells: dict = {}
        if self.quadrants is None:
            values, offset = self._sibling_stream(r)
            pins = self._pinned.get(r, [])
            positions = [p for p, _, _ in pins]
            for a, b, start, count in _sibling_runs(r):
                lo, hi = bisect_left(positions, start), bisect_left(positions, start + count)
                hidden = [offset + p for p in positions[lo:hi]]
                _collect(cells, (a, b), values, offset + start, count, hidden)
            for _, value, cell in pins:
                cells.setdefault(cell, set()).add(value)
            return cells
        q = self.quadrants
        if r == 0:
            return {(0, 1): {_cycle(q.mixed, 0)}}
        zero, one = q.both_zero.sorted_values(), q.both_one.sorted_values()
        base, half = self._branch_offset(r), sibling_pair_count(r) // 2
        for a, b, start, count in _sibling_runs(r):
            if a >> r == 0:
                _collect(cells, (a, b), zero, base + start, count)
            else:
                _collect(cells, (a, b), one, base + start - half, count)
        mixed, offset = q.mixed.sorted_values(), self._mixed_offset(r)
        for a, b, start, count in _cross_runs(r):
            _collect(cells, (a, b), mixed, offset + start, count)
        return cells

    # -- value sets without enumeration -------------------------------------

    def value_set_at_level(self, r: int, quadrant: str | None = None) -> NSet:
        """Set of values over the level-``r`` pairs, optionally quadrant-restricted.

        ``quadrant`` is one of ``None`` (everything), ``"both_zero"``,
        ``"both_one"`` or ``"mixed"``.  Each quadrant is a contiguous range of
        the stream, so the set is exact from residue counts: a cycled value
        appears unless the overrides in the range cover every one of its
        positions there.
        """
        if self.quadrants is not None:
            return self._quadrant_value_set(r, quadrant)
        count = sibling_pair_count(r)
        if quadrant == "mixed":
            lo, hi = 0, (1 if r == 0 else 0)
        elif quadrant in ("both_zero", "both_one"):
            half = count // 2 if r >= 1 else 0
            lo, hi = (0, half) if quadrant == "both_zero" else (half, 2 * half)
        elif quadrant is None:
            lo, hi = 0, count
        else:
            raise ValueError(f"unknown quadrant {quadrant!r}")
        values, offset = self._sibling_stream(r)
        pins = [(p, v) for p, v, _ in self._pinned.get(r, []) if lo <= p < hi]
        out = _run_values(values, offset + lo, hi - lo, [offset + p for p, _ in pins])
        return NSet.from_iterable(out | {v for _, v in pins})

    def _quadrant_value_set(self, r: int, quadrant: str | None) -> NSet:
        q, half = self.quadrants, sibling_pair_count(r) // 2 if r >= 1 else 0
        streams = {
            "both_zero": (q.both_zero, self._branch_offset(r), half),
            "both_one": (q.both_one, self._branch_offset(r), half),
            "mixed": (q.mixed, self._mixed_offset(r), cross_pair_count(r)),
        }
        out: set = set()
        for name, (target, offset, count) in streams.items():
            if quadrant in (None, name):
                out |= _cyclic_slice(target.sorted_values(), offset, count)
        return NSet.from_iterable(out)

    def values_complete_by(self, r: int) -> bool:
        """True when levels beyond ``r`` can only repeat values already seen by ``r``."""
        if self.max_override_level() > r:
            return False
        seen = NSet()
        for s in range(r + 1):
            seen = seen | self.value_set_at_level(s)
        if self.enumeration is not None:
            eventual = self.enumeration
        elif self.quadrants is not None:
            eventual = self.quadrants.both_zero | self.quadrants.both_one | self.quadrants.mixed
        else:
            eventual = NSet.from_iterable([self.default])
        return eventual.issubset(seen)


def _cycle(target: NSet, position: int):
    values = target.sorted_values()
    return values[position % len(values)]


def _cyclic_slice(values: list, offset: int, count: int) -> set:
    """The values at positions ``offset … offset+count−1``, cycling through ``values``."""
    if count <= 0:
        return set()
    if count >= len(values):
        return set(values)
    start = offset % len(values)
    return {values[(start + t) % len(values)] for t in range(count)}


def _run_values(values: list, offset: int, count: int, hidden=()) -> set:
    """:func:`_cyclic_slice` without the positions in ``hidden`` (all inside the run).

    A value survives when the run holds more of its positions than ``hidden``.
    """
    if not hidden:
        return _cyclic_slice(values, offset, count)
    n = len(values)
    taken = Counter(p % n for p in hidden)

    def occurrences(k):  # positions ≡ k (mod n) in [offset, offset + count)
        return (offset + count - k + n - 1) // n - (offset - k + n - 1) // n

    return {v for k, v in enumerate(values) if occurrences(k) > taken[k]}


def _collect(cells: dict, key, values: list, offset: int, count: int, hidden=()):
    """Add one run's values to its cell; a cell already holding every value is skipped."""
    if count <= len(hidden):
        return
    got = cells.setdefault(key, set())
    if len(got) < len(values):
        got |= _run_values(values, offset, count, hidden)


# ---------------------------------------------------------------------------
# closed-form stream ranks
#
# At level r (final length one) the lexicographic rank of an index is its
# words concatenated, word 0 highest.  Word t has length r+1−t, so its low
# bit sits at bit (r−t)(r−t+1)/2 of the rank.  Siblings differ only in these
# r+1 low bits; read word 0 first they form the fiber rank fr, and lex order
# inside a fiber is fr order.  The sibling stream lists, for each i in rank
# order, its F−1−fr(i) mates above it (F = 2^{r+1} is the fiber size).


def _low_bit_positions(r: int) -> list[int]:
    return [(r - t) * (r - t + 1) // 2 for t in range(r + 1)]


def _fiber_rank(r: int, rank: int) -> int:
    out = 0
    for p in _low_bit_positions(r):
        out = (out << 1) | ((rank >> p) & 1)
    return out


def _ones_below(n: int, p: int) -> int:
    """How many integers in ``[0, n)`` have bit ``p`` set."""
    period = 1 << (p + 1)
    return (n // period) * (period >> 1) + max(0, n % period - (period >> 1))


def _pairs_before(r: int, rank: int) -> int:
    """Sibling pairs whose first index ranks below ``rank``: Σ_{i′<rank} (F−1−fr(i′))."""
    fibre_sum = sum(
        _ones_below(rank, p) << (r - t) for t, p in enumerate(_low_bit_positions(r))
    )
    return rank * ((2 << r) - 1) - fibre_sum


def _sibling_position(r: int, i: MultiIndex, j: MultiIndex) -> int:
    """Position of a sibling pair ``i < j`` in the lexicographic level-``r`` stream, in O(r)."""
    if i.r != r or j.r != r or i.m != 1 or j.m != 1:
        raise InvalidLambdaError(f"not a sibling pair at level {r}: {i}, {j}")
    rank_i, rank_j = _lex_rank(i), _lex_rank(j)
    fiber_mask = sum(1 << p for p in _low_bit_positions(r))
    if rank_i >= rank_j or (rank_i ^ rank_j) & ~fiber_mask:
        raise InvalidLambdaError(f"not a sibling pair at level {r}: {i}, {j}")
    return _pairs_before(r, rank_i) + _fiber_rank(r, rank_j) - _fiber_rank(r, rank_i) - 1


def _sibling_runs(r: int):
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


def _cross_runs(r: int):
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


def _cross_position(r: int, i: MultiIndex, j: MultiIndex) -> int:
    half = index_count(r, 1) // 2
    rank_i = _lex_rank(i)
    rank_j = _lex_rank(j) - half
    if not (0 <= rank_i < half and 0 <= rank_j < half):
        raise InvalidLambdaError(f"not a cross pair at level {r}: {i}, {j}")
    return rank_i * half + rank_j


def _lex_rank(i: MultiIndex) -> int:
    rank = 0
    for t, w in enumerate(i.words):
        rank = (rank << i.seq_length(t)) | w
    return rank


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
    """Verify the partition, refinement, and cross-level conditions symbolically.

    All traces are exact rationals.  Refinement fibers are generated directly
    and checked against the restriction maps, so the partitions are certified
    rather than assumed.  Bounds keep every index set within the requested
    ``(r_max, m_max)`` symbol range.
    """
    failures: list[str] = []
    cases = 0

    # (i) each level is a trace partition of the identity
    for s in range(r_max + 1):
        for m in range(1, m_max + 1):
            total = index_count(s, m)
            seen = sum(1 for _ in iter_indices(s, m))
            if seen != total:
                failures.append(f"(i) enumeration at ({s},{m}) gave {seen} != {total}")
            if total * Fraction(1, total) != 1:
                failures.append(f"(i) traces at ({s},{m}) do not sum to 1")
            cases += 1

    # (ii) growing the final length refines each projection into its fiber
    for s in range(r_max + 1):
        for m in range(1, m_max):
            parent_count, child_count = index_count(s, m), index_count(s, m + 1)
            fiber_size = 1 << (s + 1)
            if parent_count * fiber_size != child_count:
                failures.append(f"(ii) fiber size mismatch at ({s},{m})")
            if fiber_size * Fraction(1, child_count) != Fraction(1, parent_count):
                failures.append(f"(ii) traces do not add up at ({s},{m})")
            generated = 0
            for parent in iter_indices(s, m):
                for bits in itertools.product((0, 1), repeat=s + 1):
                    child = MultiIndex(
                        s, m + 1, tuple((w << 1) | b for w, b in zip(parent.words, bits))
                    )
                    generated += 1
                    if restrict(child, s, m) != parent:
                        failures.append(f"(ii) fiber element escapes its parent at ({s},{m})")
                        break
            if generated != child_count:
                failures.append(f"(ii) fibers do not partition level ({s},{m + 1})")
            cases += 1

    # (iii) deeper levels refine coarser ones across the grid
    for s in range(r_max + 1):
        for t in range(s + 1, r_max + 1):
            for m in range(1, m_max + 1):
                big = m + t - s
                if big > m_max:
                    continue
                parent_count, child_count = index_count(s, big), index_count(t, m)
                fiber_size = 1 << sum(m + t - u for u in range(s + 1, t + 1))
                if parent_count * fiber_size != child_count:
                    failures.append(f"(iii) fiber size mismatch at s={s},t={t},m={m}")
                if fiber_size * Fraction(1, child_count) != Fraction(1, parent_count):
                    failures.append(f"(iii) traces do not add up at s={s},t={t},m={m}")
                generated = 0
                free = [range(1 << (m + t - u)) for u in range(s + 1, t + 1)]
                for parent in iter_indices(s, big):
                    for extra in itertools.product(*free):
                        child = MultiIndex(t, m, parent.words + tuple(extra))
                        generated += 1
                        if restrict(child, s, big) != parent:
                            failures.append(
                                f"(iii) fiber element escapes its parent at s={s},t={t},m={m}"
                            )
                            break
                if generated != child_count:
                    failures.append(f"(iii) fibers do not partition at s={s},t={t},m={m}")
                cases += 1

    # dyadic splitting at the symbol level
    for m in range(1, m_max):
        for w in range(1 << m):
            children = {k for k in range(1 << (m + 1)) if k >> 1 == w}
            if children != {(w << 1) | 0, (w << 1) | 1}:
                failures.append(f"dyadic split of {w:0{m}b} is not its two extensions")
        cases += 1

    return GlueReport(r_max, m_max, cases, tuple(failures))
