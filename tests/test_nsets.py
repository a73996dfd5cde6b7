from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

import puklab.nsets
from puklab.errors import EmptyInputError, NonSingletonInfiniteError
from puklab.nsets import (
    INF,
    NSet,
    direct_sum_puk,
    is_valid_value,
    nset_product,
    tensor_mixed,
    tensor_mixed_infinite,
)


@dataclass(frozen=True)
class RefNSet:
    """Reference model: an explicit finite set of positive ints plus an ∞ flag."""

    finite: frozenset = frozenset()
    has_infinity: bool = False

    def __post_init__(self):
        if not all(isinstance(v, int) and v >= 1 for v in self.finite):
            raise ValueError(f"finite part must contain positive integers: {self.finite}")

    @classmethod
    def from_iterable(cls, values) -> "RefNSet":
        finite, has_inf = set(), False
        for v in values:
            if v == INF:
                has_inf = True
            elif is_valid_value(v):
                finite.add(int(v))
            else:
                raise ValueError(f"not a value in N ∪ {{∞}}: {v!r}")
        return cls(frozenset(finite), has_inf)

    @classmethod
    def parse(cls, text: str) -> "RefNSet":
        text = text.strip()
        if not text:
            return cls()
        values = []
        for token in text.split(","):
            token = token.strip()
            values.append(INF if token == "inf" else int(token))
        return cls.from_iterable(values)

    def __str__(self) -> str:
        parts = [str(v) for v in sorted(self.finite)]
        if self.has_infinity:
            parts.append("inf")
        return ",".join(parts)

    def __contains__(self, v) -> bool:
        if v == INF:
            return self.has_infinity
        return v in self.finite

    def __len__(self) -> int:
        return len(self.finite) + (1 if self.has_infinity else 0)

    def __or__(self, other: "RefNSet") -> "RefNSet":
        return RefNSet(self.finite | other.finite, self.has_infinity or other.has_infinity)

    def issubset(self, other: "RefNSet") -> bool:
        if self.has_infinity and not other.has_infinity:
            return False
        return self.finite <= other.finite

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    @property
    def is_singleton(self) -> bool:
        return len(self) == 1

    def sorted_values(self) -> list:
        out: list = sorted(self.finite)
        if self.has_infinity:
            out.append(INF)
        return out


def ref_product(e: RefNSet, f: RefNSet) -> RefNSet:
    finite = frozenset(m * n for m in e.finite for n in f.finite)
    has_inf = (e.has_infinity and len(f) > 0) or (f.has_infinity and len(e) > 0)
    return RefNSet(finite, has_inf)


def with_infinity(finite, inf: bool) -> NSet:
    return NSet(finite | {INF} if inf else finite)


members = st.tuples(st.frozensets(st.integers(min_value=1, max_value=30), max_size=5),
                    st.booleans())
nsets = members.map(lambda m: with_infinity(*m))
nonempty_nsets = nsets.filter(lambda s: not s.is_empty)


class TestParseFormat:
    def test_parse(self):
        s = NSet.parse("2,3,inf")
        assert 2 in s and 3 in s and INF in s and 5 not in s

    def test_empty(self):
        assert NSet.parse("").is_empty

    def test_str_sorted_with_inf_last(self):
        assert str(NSet.of(3, INF, 1)) == "1,3,inf"

    @given(nsets)
    def test_round_trip(self, s):
        assert NSet.parse(str(s)) == s

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NSet.of(0)


class TestMembersChecked:
    @pytest.mark.parametrize("make", [
        lambda: NSet.of(2) | {0},
        lambda: nset_product(NSet.of(2), {0}),
        lambda: NSet({0}),
        lambda: NSet({True}),
        lambda: NSet({1.5}),
        lambda: NSet({-INF}),
    ], ids=["union", "product", "zero", "bool", "float", "minus-inf"])
    def test_bad_member_raises(self, make):
        with pytest.raises(ValueError):
            make()

    def test_two_nsets_combine_without_a_check(self, monkeypatch):
        e, f = NSet.of(2, INF), NSet.of(3)

        def refuse(v):
            raise AssertionError(f"member {v!r} checked again")

        monkeypatch.setattr(puklab.nsets, "is_valid_value", refuse)
        assert type(e | f) is NSet and e | f == {2, 3, INF}
        assert type(e * f) is NSet and nset_product(e, f) == e * f == {6, INF}

    def test_other_frozenset_operations_are_plain(self):
        e, f = NSet.of(2, 3), NSet.of(3, INF)
        assert all(type(s) is frozenset for s in (e & f, e - f, e ^ f, e.union(f)))
        assert NSet.of(3) <= f and not e <= f


class TestReferenceModel:
    """Every operation agrees with the two-field model the frozenset replaced."""

    @given(members, members)
    def test_binary_operations(self, a, b):
        (s, rs), (t, rt) = ((with_infinity(*m), RefNSet(*m)) for m in (a, b))
        assert RefNSet.from_iterable(s | t) == rs | rt
        assert RefNSet.from_iterable(nset_product(s, t)) == ref_product(rs, rt)
        assert RefNSet.from_iterable(s * t) == ref_product(rs, rt)
        assert s.issubset(t) == rs.issubset(rt)
        assert (s == t) == (rs == rt)

    @given(members)
    def test_unary_operations(self, m):
        s, rs = with_infinity(*m), RefNSet(*m)
        assert str(s) == str(rs)
        assert NSet.parse(str(rs)) == s and RefNSet.parse(str(s)) == rs
        assert all((v in s) == (v in rs) for v in [*range(32), INF])
        assert len(s) == len(rs) and bool(s) == (len(rs) > 0)
        assert s.sorted_values() == rs.sorted_values()
        assert s.is_empty == rs.is_empty and s.is_singleton == rs.is_singleton


class TestProduct:
    def test_identity_element(self):
        e = NSet.of(2, 5, INF)
        assert nset_product(NSet.of(1), e) == e

    def test_infinity_convention(self):
        assert nset_product(NSet.of(2), NSet.of(INF)) == NSet.of(INF)

    def test_plain_arithmetic(self):
        assert nset_product(NSet.of(2, 3), NSet.of(2, 5)) == NSet.of(4, 6, 10, 15)

    def test_empty_absorbs(self):
        assert nset_product(NSet(), NSet.of(2, INF)).is_empty

    @given(nsets, nsets)
    def test_commutative(self, e, f):
        assert nset_product(e, f) == nset_product(f, e)

    @given(nsets, nsets, nsets)
    def test_associative(self, e, f, g):
        assert nset_product(nset_product(e, f), g) == nset_product(e, nset_product(f, g))

    @given(nsets)
    def test_one_is_identity(self, e):
        assert nset_product(NSet.of(1), e) == e

    @given(nonempty_nsets)
    def test_infinity_absorbing(self, e):
        assert nset_product(NSet.of(INF), e) == NSet.of(INF)


class TestTensorRules:
    def test_finite_product(self):
        assert tensor_mixed([NSet.of(2), NSet.of(3)]) == NSet.of(6)

    def test_empty_list_is_identity(self):
        assert tensor_mixed([]) == NSet.of(1)

    def test_infinite_repeating_nontrivial(self):
        assert tensor_mixed_infinite([NSet.of(2)], tail_all_ones=False) == NSet.of(INF)

    def test_infinite_eventually_one(self):
        assert tensor_mixed_infinite([NSet.of(2)], tail_all_ones=True) == NSet.of(2)
        assert (
            tensor_mixed_infinite([NSet.of(2), NSet.of(1)], tail_all_ones=False)
            == NSet.of(2)
        )

    def test_non_singleton_rejected(self):
        with pytest.raises(NonSingletonInfiniteError):
            tensor_mixed_infinite([NSet.of(2, 3)], tail_all_ones=True)


class TestDirectSum:
    def test_conjugate_case(self):
        e = NSet.of(2, 3)
        assert direct_sum_puk(e, e, NSet.of(1)) == NSet.of(1, 2, 3)

    def test_plain_union(self):
        assert direct_sum_puk(NSet.of(2), NSet.of(3), NSet.of(5)) == NSet.of(2, 3, 5)

    def test_all_infinite(self):
        inf = NSet.of(INF)
        assert direct_sum_puk(inf, inf, inf) == inf

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            direct_sum_puk(NSet(), NSet.of(1), NSet.of(1))

    @given(nonempty_nsets)
    def test_self_sum_law(self, e):
        assert direct_sum_puk(e, e, NSet.of(1)) == e | NSet.of(1)


class TestSetOps:
    @given(nsets, nsets)
    def test_union_subset(self, e, f):
        assert e.issubset(e | f) and f.issubset(e | f)

    def test_sorted_values(self):
        assert NSet.of(3, INF, 1).sorted_values() == [1, 3, INF]

    def test_contains_infinity(self):
        assert INF in NSet.of(INF) and INF not in NSet.of(2)
