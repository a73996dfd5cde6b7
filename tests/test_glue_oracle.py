"""The rank-array glue check against the enumerating one it replaced.

``enumerating_glue_check`` below is the previous ``glue_check``: it builds
and restricts every ``MultiIndex`` one at a time, and is the oracle here.
The word helpers the new check shares with ``restrict``, ``fiber`` and
``_lex_rank`` are compared with them exhaustively on small index sets, and
injected faults in those helpers must show up as failures.
"""

import itertools
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from puklab import indices
from puklab.errors import CountCapError
from puklab.indices import (
    ENUMERATION_CAP,
    GlueReport,
    MultiIndex,
    fiber,
    glue_check,
    index_count,
    iter_indices,
    restrict,
)
from puklab.indices import (
    _decode_rank,
    _encode_words,
    _extend_words,
    _lex_rank,
    _restrict_words,
)


def enumerating_glue_check(r_max: int = 3, m_max: int = 3) -> GlueReport:
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


GRID = [(r, m) for r in range(4) for m in range(1, 4)]
# single-word levels with long final lengths, where the dyadic split dominates
LONG_WORDS = [(0, m) for m in range(4, 11)]
DEGENERATE = [(-1, 3), (0, 0), (2, 0), (-2, -1)]


@pytest.mark.parametrize("r_max, m_max", GRID + LONG_WORDS + DEGENERATE)
def test_matches_enumerating_check(r_max, m_max):
    new, old = glue_check(r_max, m_max), enumerating_glue_check(r_max, m_max)
    assert new == old
    assert new.passed


SMALL_SETS = [
    (r, m) for r in range(5) for m in range(1, 13) if index_count(r, m) <= 1 << 12
]


@pytest.mark.parametrize("r, m", SMALL_SETS)
def test_word_helpers_match_index_methods(r, m):
    everything = list(iter_indices(r, m))
    ranks = np.arange(len(everything), dtype=np.int64)
    words = _decode_rank(ranks, r, m)
    expected = np.array([i.words for i in everything], dtype=np.int64).T
    assert np.array_equal(np.stack(words), expected)
    assert np.array_equal(_encode_words(words, r, m), ranks)
    for rank, i in enumerate(everything):
        assert _decode_rank(rank, r, m) == i.words
        assert _encode_words(i.words, r, m) == _lex_rank(i) == rank
    for s in range(r + 1):
        for length in range(1, m + r - s + 1):
            shorter = np.stack(_restrict_words(words, r, m, s, length))
            wanted = [restrict(i, s, length).words for i in everything]
            assert np.array_equal(shorter, np.array(wanted, dtype=np.int64).T)
    if m == 1:
        fibers = np.array([[k.words for k in fiber(i)] for i in everything], dtype=np.int64)
        for place, bits in enumerate(itertools.product((0, 1), repeat=r + 2)):
            grown = np.stack(_extend_words(words, bits) + (np.full_like(ranks, bits[-1]),))
            assert np.array_equal(grown, fibers[:, place].T)


def test_decoding_fault_fails_i(monkeypatch):
    exact = indices._decode_rank

    def flip_last_bit(rank, r, m):
        words = exact(rank, r, m)
        return words[:-1] + (words[-1] ^ 1,)

    monkeypatch.setattr(indices, "_decode_rank", flip_last_bit)
    report = glue_check(1, 2)
    assert any(f.startswith("(i)") and "re-encode" in f for f in report.failures)


def test_restriction_shift_off_by_one_fails_ii_and_iii(monkeypatch):
    exact = indices._restrict_words

    def off_by_one(words, r, m, s, l):
        return tuple(w >> 1 for w in exact(words, r, m, s, l))

    monkeypatch.setattr(indices, "_restrict_words", off_by_one)
    report = glue_check(2, 2)
    assert any(f.startswith("(ii)") and "escape" in f for f in report.failures)
    assert any(f.startswith("(iii)") and "escape" in f for f in report.failures)


def test_fiber_dropping_a_bit_fails_partition(monkeypatch):
    exact = indices._extend_words

    def drop_last_bit(words, bits):
        return exact(words, tuple(bits[:-1]) + (0,))

    monkeypatch.setattr(indices, "_extend_words", drop_last_bit)
    report = glue_check(2, 2)
    assert any(f.startswith("(ii)") and "do not partition" in f for f in report.failures)
    # the duplicated children still restrict to their parents
    assert not any("escape" in f for f in report.failures)


def test_miscounted_dyadic_split_fails(monkeypatch):
    class FirstWordHitOnce:
        """numpy, except that every word's first count is one short."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def bincount(x, minlength=0):
            counts = np.bincount(x, minlength=minlength)
            counts[0] -= 1
            return counts

    monkeypatch.setitem(sys.modules, "numpy", FirstWordHitOnce())
    report = glue_check(0, 3)
    assert report.failures == (
        "dyadic split of 0 is not its two extensions",
        "dyadic split of 00 is not its two extensions",
    )


def test_default_bounds_stay_small():
    tracemalloc.start()
    try:
        report = glue_check(3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.cases_checked == 30 and report.passed
    assert peak <= 8 << 20


def test_long_final_length_is_linear_in_words():
    # the enumerating dyadic split took about 3 s here
    report = glue_check(0, 13)
    assert report.cases_checked == 13 + 12 + 12
    assert report.failures == ()


@pytest.mark.parametrize("r_max, m_max", [(4, 3), (3, 5), (2, 7), (6, 1), (0, 23)])
def test_guard_raises_before_allocating(monkeypatch, r_max, m_max):
    assert index_count(r_max, m_max) > ENUMERATION_CAP
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(CountCapError):
        glue_check(r_max, m_max)


@pytest.mark.parametrize("r_max, m_max", [(4, 2), (3, 4)])
def test_largest_accepted_bounds_pass(r_max, m_max):
    assert index_count(r_max, m_max) <= ENUMERATION_CAP
    report = glue_check(r_max, m_max)
    assert report.passed
    crossings = sum(
        1
        for s in range(r_max + 1)
        for t in range(s + 1, r_max + 1)
        for m in range(1, m_max + 1)
        if m + t - s <= m_max
    )
    assert report.cases_checked == (r_max + 1) * (2 * m_max - 1) + crossings + m_max - 1
