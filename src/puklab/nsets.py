"""Subsets of N ∪ {∞} and the set arithmetic the invariant formulas use.

An :class:`NSet` is a frozenset whose members are positive integers and
``math.inf`` (:data:`INF`), the one form ∞ takes everywhere.  The product
convention ``n·∞ = ∞·n = ∞`` is float arithmetic, so no rule here branches on ∞.
"""

from __future__ import annotations

import math
from functools import reduce

from .errors import EmptyInputError, InvalidInputError, NonSingletonInfiniteError

INF = math.inf


def is_valid_value(v) -> bool:
    """True for positive integers and ∞ (``math.inf``)."""
    if v == INF:
        return True
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def parse_value(token: str):
    """One value of the textual form: ``"inf"`` or an integer, spaces allowed."""
    token = token.strip()
    return INF if token == "inf" else int(token)


class NSet(frozenset):
    """A subset of N ∪ {∞}: a frozenset of positive ints and :data:`INF`.

    The constructor takes an iterable and rejects any other member with
    ``ValueError``.  ``|`` and ``*`` of two ``NSet`` objects build an ``NSet``
    without that check; any other operand is checked first.  The other
    frozenset operations (``&``, ``-``, ``^``, ``.union``) return a plain
    ``frozenset``, and ``<=`` means subset.
    """

    __slots__ = ()

    def __new__(cls, values=()):
        out = frozenset.__new__(cls, values)
        for v in out:
            if not is_valid_value(v):
                raise ValueError(f"not a value in N ∪ {{∞}}: {v!r}")
        return out

    @classmethod
    def of(cls, *values) -> "NSet":
        return cls(values)

    @classmethod
    def parse(cls, text: str) -> "NSet":
        """Parse the textual form, e.g. ``"2,3,inf"``; empty text is the empty set."""
        if not isinstance(text, str):
            raise InvalidInputError(f'a value set must be a string like "2,3,inf", got {text!r}')
        text = text.strip()
        return cls(map(parse_value, text.split(","))) if text else cls()

    def __str__(self) -> str:
        # str(INF) is "inf", and it sorts last
        return ",".join(map(str, sorted(self)))

    def __or__(self, other) -> "NSet":
        if not isinstance(other, NSet):
            other = NSet(other)
        return _valid(frozenset.__or__(self, other))

    def __mul__(self, other) -> "NSet":
        return nset_product(self, other)

    @property
    def is_empty(self) -> bool:
        return not self

    @property
    def is_singleton(self) -> bool:
        return len(self) == 1

    def sorted_values(self) -> list:
        """Members ascending, with ∞ last; useful for round-robin assignment."""
        return sorted(self)


def _valid(members) -> NSet:
    """An ``NSet`` of members already known to be valid: no check."""
    return frozenset.__new__(NSet, members)


EMPTY = NSet()
ONE = NSet.of(1)
INFINITY_SET = NSet.of(INF)


def union_all(sets) -> NSet:
    """One union of all ``sets``; an operand that is not an ``NSet`` is checked first."""
    return _valid(EMPTY.union(*[s if isinstance(s, NSet) else NSet(s) for s in sets]))


def nset_product(e: NSet, f: NSet) -> NSet:
    """All pairwise products ``m·n``; ``∞·n = ∞`` needs no case of its own."""
    if not isinstance(e, NSet):
        e = NSet(e)
    if not isinstance(f, NSet):
        f = NSet(f)
    return _valid({m * n for m in e for n in f})


def tensor_mixed(factors) -> NSet:
    """Mixed invariant of a finite tensor product: the iterated set product."""
    return reduce(nset_product, factors, ONE)


def tensor_mixed_infinite(singletons, tail_all_ones: bool) -> NSet:
    """Mixed invariant of an infinite tensor product of singleton factors.

    ``singletons`` lists the leading factors; the unlisted tail is all ``{1}``
    when ``tail_all_ones`` is set, and otherwise repeats the last listed
    factor forever.  The result is the singleton product when all but finitely
    many factors are ``{1}``, and ``{∞}`` otherwise.  Non-singleton factors
    are rejected: the rule is only defined for singletons.
    """
    singletons = list(singletons)
    for s in singletons:
        if not s.is_singleton:
            raise NonSingletonInfiniteError(f"non-singleton factor: {s}")
    if not tail_all_ones:
        if not singletons:
            raise NonSingletonInfiniteError("an all-tail rule needs at least one factor")
        if singletons[-1] != ONE:
            return INFINITY_SET
    return tensor_mixed(singletons)


def direct_sum_puk(puk_a: NSet, puk_b: NSet, mixed_ab: NSet) -> NSet:
    """Invariant of a 2×2 direct sum: union of the two invariants and the mixed one."""
    for s in (puk_a, puk_b, mixed_ab):
        if s.is_empty:
            raise EmptyInputError("direct-sum rule needs non-empty inputs")
    return puk_a | puk_b | mixed_ab
