import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from test_certificate_oracle import (
    float_family_span_check,
    float_intertwiner_check,
    float_intertwiner_grams,
    float_keyclaim_check,
)

from puklab import constructions
from puklab.algebra import mixed_spectrum
from puklab.constructions import (
    TruncatedAutomorphism,
    build_gadget,
    countable_family_plan,
    family_span_check,
    intertwiner_check,
    intertwiner_grams,
    keyclaim_check,
    truncated_masa_pair,
)
from puklab.core import TracedAlgebraShape, normalized_trace, tensor
from puklab.errors import InvalidLambdaError, ResourceGuardError
from puklab.nsets import INF, NSet


def kron_all(mats):
    return reduce(tensor, mats)


def conjugate(auto, x):
    """``U x U*`` for the automorphism's unitary ``U``."""
    return auto.unitary @ x @ auto.unitary.conj().T


def step_unitary(gadget, r, depth):
    """``v`` placed in tensor slots ``r, r+1`` of ``M_n^{⊗(depth+1)}``: the Kronecker oracle."""
    n = gadget.n
    if not 1 <= r <= depth:
        raise ValueError(f"slot {r} does not fit depth {depth}")
    left = np.eye(n ** (r - 1), dtype=complex)
    right = np.eye(n ** (depth - r), dtype=complex)
    return tensor(tensor(left, gadget.v), right)


def trace_inner(x, y, n_dim):
    """⟨x, y⟩ = tr(y* x) with the normalized trace; the reference inner product."""
    shape = TracedAlgebraShape.full_matrix(n_dim)
    return normalized_trace(y.conj().T @ x, shape)


@pytest.mark.parametrize("n", [2, 3, 4])
class TestShiftGadget:
    def test_shift_is_unitary_of_order_n(self, n):
        g = build_gadget(n)
        assert np.allclose(g.w @ g.w.conj().T, np.eye(n), atol=1e-12)
        assert np.allclose(np.linalg.matrix_power(g.w, n), np.eye(n), atol=1e-12)

    def test_shift_permutes_diagonal_projections(self, n):
        g = build_gadget(n)
        for i in range(n):
            moved = g.w @ g.e[i] @ g.w.conj().T
            assert np.max(np.abs(moved - g.e[(i - 1) % n])) < 1e-12

    def test_partitions_of_unity(self, n):
        g = build_gadget(n)
        assert np.allclose(g.e.sum(axis=0), np.eye(n), atol=1e-12)
        assert np.allclose(g.f.sum(axis=0), np.eye(n), atol=1e-12)

    def test_spectral_projections(self, n):
        g = build_gadget(n)
        for i in range(n):
            f = g.f[i]
            assert np.max(np.abs(f @ f - f)) < 1e-12
            assert np.max(np.abs(f - f.conj().T)) < 1e-12
            assert np.max(np.abs(f @ g.w - g.w @ f)) < 1e-12

    def test_masas_are_orthogonal(self, n):
        # tr(e_i f_j) == 1/n² for every pair
        g = build_gadget(n)
        shape = TracedAlgebraShape.full_matrix(n)
        for i in range(n):
            for j in range(n):
                val = normalized_trace(g.e[i] @ g.f[j], shape)
                assert val == pytest.approx(1 / n**2, abs=1e-12)

    def test_step_unitary(self, n):
        g = build_gadget(n)
        v = g.v
        assert np.allclose(v @ v.conj().T, np.eye(n * n), atol=1e-12)
        # lies in the span of the circulant tensor products, whose norm² is 1/n
        coeffs = [
            trace_inner(v, tensor(np.linalg.matrix_power(g.w, a), g.f[b]), n * n)
            for a in range(n)
            for b in range(n)
        ]
        rebuilt = n * sum(
            c * tensor(np.linalg.matrix_power(g.w, a), g.f[b])
            for c, (a, b) in zip(coeffs, itertools.product(range(n), range(n)))
        )
        norm = trace_inner(v, v, n * n)
        assert abs(n * sum(abs(c) ** 2 for c in coeffs) - norm) < 1e-12
        assert np.max(np.abs(rebuilt - v)) < 1e-10


class TestExplicitSmallCase:
    def test_n2_matrices(self):
        g = build_gadget(2)
        assert np.array_equal(g.w.real, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(g.f[0], np.full((2, 2), 0.5), atol=1e-15)
        assert np.allclose(g.f[1], np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-15)

    def test_n2_step_unitary_explicit(self):
        g = build_gadget(2)
        expected = tensor(np.eye(2), g.f[0]) + tensor(g.w, g.f[1])
        assert np.max(np.abs(g.v - expected)) < 1e-15


class TestTruncatedAutomorphism:
    def test_steps_commute(self):
        for n in (2, 3):
            g = build_gadget(n)
            units = [step_unitary(g, r, 3) for r in (1, 2, 3)]
            for a in units:
                for b in units:
                    assert np.max(np.abs(a @ b - b @ a)) < 1e-12

    def test_step_has_order_n(self):
        for n in (2, 3):
            g = build_gadget(n)
            u = step_unitary(g, 1, 2)
            assert np.allclose(np.linalg.matrix_power(u, n), np.eye(n**3), atol=1e-12)

    @pytest.mark.parametrize("kind", ["theta", "phi"])
    def test_unitary_order(self, kind):
        auto = TruncatedAutomorphism.build(2, 3, kind)
        assert np.allclose(
            np.linalg.matrix_power(auto.unitary, 2), np.eye(16), atol=1e-12
        )

    def test_trace_preserving(self):
        rng = np.random.default_rng(0)
        auto = TruncatedAutomorphism.build(2, 2, "theta")
        shape = TracedAlgebraShape.full_matrix(8)
        for _ in range(5):
            x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            assert normalized_trace(conjugate(auto, x), shape) == pytest.approx(
                normalized_trace(x, shape), abs=1e-12
            )

    def test_depth_consistency(self):
        # on elements living strictly below the depth, deeper truncations agree:
        # the steps beyond an element's last slot fix it
        rng = np.random.default_rng(1)
        deep = TruncatedAutomorphism.build(2, 3, "theta")
        shallow = TruncatedAutomorphism.build(2, 2, "theta")
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        via_deep = conjugate(deep, tensor(x, np.eye(4)))
        via_shallow = tensor(conjugate(shallow, tensor(x, np.eye(2))), np.eye(2))
        assert np.max(np.abs(via_deep - via_shallow)) < 1e-10

    def test_theta_fixes_first_slot_circulant(self):
        g = build_gadget(3)
        auto = TruncatedAutomorphism.build(3, 2, "theta")
        for r in range(3):
            lifted = kron_all([g.f[r], np.eye(3), np.eye(3)])
            assert np.max(np.abs(conjugate(auto, lifted) - lifted)) < 1e-12

    @pytest.mark.parametrize("kind", ["theta", "phi"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_build_matches_kronecker_oracle(self, n, kind):
        # every depth with dim <= 256, from the bare identity at depth 0
        g = build_gadget(n)
        for depth in itertools.takewhile(lambda d: n ** (d + 1) <= 256, itertools.count()):
            oracle = np.eye(n ** (depth + 1), dtype=complex)
            for r in range(1, depth + 1, 1 if kind == "theta" else 2):
                oracle = oracle @ step_unitary(g, r, depth)
            unitary = TruncatedAutomorphism.build(n, depth, kind).unitary
            assert np.max(np.abs(unitary - oracle)) <= 1e-15, depth

    def test_phi_skips_even_slots(self):
        g = build_gadget(2)
        phi = TruncatedAutomorphism.build(2, 2, "phi")
        assert np.max(np.abs(phi.unitary - step_unitary(g, 1, 2))) < 1e-12


def direct_inner_product(n, m, i_tuple, j_tuple, r, s):
    """The conjugated inner product computed from first principles."""
    g = build_gadget(n)
    dim = n ** (m + 1)
    a = kron_all([g.e[i] for i in i_tuple] + [np.eye(n)]) if m else np.eye(n)
    b = kron_all([g.e[j] for j in j_tuple] + [np.eye(n)]) if m else np.eye(n)
    xi_r = kron_all([g.f[r]] + [np.eye(n)] * m)
    xi_s = kron_all([g.f[s]] + [np.eye(n)] * m)
    unitary = np.eye(dim, dtype=complex)
    for slot in range(1, m + 1):
        unitary = unitary @ step_unitary(g, slot, m)
    theta_b = unitary @ b @ unitary.conj().T
    return trace_inner(a @ xi_r @ theta_b, xi_s, dim)


class TestKeyclaim:
    def test_base_case_value(self):
        assert direct_inner_product(2, 0, (), (), 0, 0) == pytest.approx(0.5, abs=1e-12)

    def test_cross_term_vanishes(self):
        val = direct_inner_product(2, 1, (0,), (1,), 0, 1)
        assert abs(val) < 1e-12

    def test_depth_two_value(self):
        val = direct_inner_product(3, 2, (1, 2), (0, 2), 2, 2)
        assert val == pytest.approx(1 / 243, abs=1e-12)

    @pytest.mark.parametrize("n,m", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
    def test_check_agrees_with_direct_computation(self, n, m):
        # oracle: recompute a handful of tuples from first principles
        dev = keyclaim_check(n, m)
        assert dev < 1e-10
        expected = float(n) ** (-(2 * m + 1))
        rng = np.random.default_rng(17)
        for _ in range(3):
            i_tuple = tuple(rng.integers(0, n, m))
            j_tuple = tuple(rng.integers(0, n, m))
            r, s = rng.integers(0, n, 2)
            val = direct_inner_product(n, m, i_tuple, j_tuple, int(r), int(s))
            target = expected if r == s else 0.0
            assert val == pytest.approx(target, abs=1e-12)

    def test_full_sweep_invariant(self):
        # every workspace of matrix dimension at most 81
        for n in range(2, 82):
            m = 0
            while n ** (m + 1) <= 81:
                assert keyclaim_check(n, m) < 1e-10
                m += 1

    def test_resource_guard(self):
        # the first n = 2 depth whose three N-entry arrays, 3·2^23 entries, exceed the budget
        with pytest.raises(ResourceGuardError):
            float_keyclaim_check(2, 22)


class TestFamilySpan:
    @pytest.mark.parametrize(
        "n,m,count", [(2, 1, 4), (2, 2, 16), (3, 1, 9), (3, 2, 81), (2, 3, 64)]
    )
    def test_counts_and_rank(self, n, m, count):
        rep = family_span_check(n, m)
        assert rep.count == count == n ** (2 * m)
        assert rep.rank == count
        assert rep.min_gram_diag > 0
        assert rep.max_offdiag < 1e-10
        assert rep.margin > 1

    def test_gershgorin_fails_on_a_vanished_column(self, monkeypatch):
        # with one Fourier coefficient of u zeroed, U is singular and the family cannot span
        exact = constructions._unitary_symbol

        def coefficient_lost(n, depth, kind="theta"):
            lam = exact(n, depth, kind).copy()
            lam.flat[0] = 0.0
            return lam

        monkeypatch.setattr(constructions, "_unitary_symbol", coefficient_lost)
        rep = float_family_span_check(2, 2)
        assert rep.count == 16 and rep.rank < rep.count
        assert rep.margin <= 1

    def test_small_case_by_hand(self):
        # for m=1 the family is e_i f_r; check the Gram directly
        g = build_gadget(2)
        elements = [g.e[i] @ g.f[r] for i in range(2) for r in range(2)]
        for a, x in enumerate(elements):
            for b, y in enumerate(elements):
                val = trace_inner(x, y, 2)
                if a == b:
                    assert val == pytest.approx(1 / 4, abs=1e-12)
                else:
                    assert abs(val) < 1e-12


def dense_defects(n, m):
    """The largest entrywise difference of the float route's dense Grams of each pair ``r < s``."""
    return [float(np.max(np.abs(np.subtract(*float_intertwiner_grams(n, m, r, s)))))
            for r, s in itertools.combinations(range(n), 2)]


class TestIntertwiner:
    @pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (2, 2)])
    def test_defect_small(self, n, m):
        assert float_intertwiner_check(n, m) == max(dense_defects(n, m)) < 1e-10

    def test_grams_diagonal_with_expected_entries(self):
        n, m = 3, 1
        gram_r, gram_s = intertwiner_grams(n, m, 1, 2)
        expected = float(n) ** (-(2 * m + 1))
        for gram in (gram_r, gram_s):
            off = gram - np.diag(np.diagonal(gram))
            assert np.max(np.abs(off)) < 1e-10
            assert np.allclose(np.diagonal(gram).real, expected, atol=1e-10)

    def test_requires_n_at_least_two(self):
        for n in (0, 1):
            with pytest.raises(ValueError):
                intertwiner_check(n, 1)

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 1), (3, 2)])
    def test_check_is_the_dense_gram_difference(self, n, m):
        assert float_intertwiner_check(n, m) == max(dense_defects(n, m))

    def test_check_builds_no_dense_gram(self):
        # each dense Gram at (2, 5) holds 32^4 complex entries: 16 MiB
        tracemalloc.start()
        try:
            defect = float_intertwiner_check(2, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert defect < 1e-10 * 2.0 ** -11
        assert peak < 8 << 20


class TestTruncatedMasaPair:
    GRID = [(2, 1), (2, 3), (2, 6), (3, 1), (3, 3), (4, 2)]

    def test_depth_one_is_step_conjugation(self):
        g = build_gadget(2)
        (a,), (b,) = truncated_masa_pair(2, 2)
        assert np.array_equal(a, np.diag(np.arange(4)))
        assert np.max(np.abs(b - g.v @ a @ g.v.conj().T)) < 1e-12

    @pytest.mark.parametrize("kind", ["theta", "phi"])
    @pytest.mark.parametrize("n,k", GRID)
    def test_pair_is_conjugation_by_the_automorphism(self, n, k, kind):
        # one generator a side, d = diag(0, …, N−1) and U d U*; the oracle conjugates each
        # diagonal unit e_p by the built unitary and sums p·U e_p U*
        N = n**k
        a_gens, b_gens = truncated_masa_pair(n, k, kind)
        auto = TruncatedAutomorphism.build(n, k - 1, kind)
        assert a_gens.shape == b_gens.shape == (1, N, N)
        assert np.array_equal(a_gens[0], np.diag(np.arange(N)))
        units = np.eye(N, dtype=complex)
        oracle = sum(p * conjugate(auto, np.diag(units[p])) for p in range(N))
        assert np.max(np.abs(b_gens[0] - oracle)) <= 1e-15 * N * N

    @pytest.mark.parametrize("kind", ["theta", "phi"])
    @pytest.mark.parametrize("n,k", [*GRID, (2, 8)])
    def test_pair_is_a_pair_of_masas_in_general_position(self, n, k, kind):
        # (2, 8) is M_256, a spectrum of 65,536 blocks
        N = n**k
        a_gens, b_gens = truncated_masa_pair(n, k, kind)
        report = mixed_spectrum(a_gens, b_gens, TracedAlgebraShape.full_matrix(N))
        assert report.as_set == NSet.of(1)
        assert report.block_count == N * N

    def test_resource_guard(self):
        # the first n = 2 size whose 3·N² entries, U and the image's two, exceed the budget
        with pytest.raises(ResourceGuardError):
            truncated_masa_pair(2, 12)


FIGURE_MATRIX = [
    [1, 3, 1, 1],
    [3, 1, 1, 1],
    [1, 1, 1, 3],
    [1, 1, 3, 1],
]


class TestFamilyPlan:
    def test_single_pair(self):
        plan = countable_family_plan([[1, 5], [5, 1]])
        assert len(plan.assignments) == 1
        assert plan.assignments[0].n == 5
        assert plan.pairwise_invariant(0, 1) == NSet.of(5)

    def test_four_masa_grid(self):
        plan = countable_family_plan(FIGURE_MATRIX)
        table = plan.pairwise_table()
        for a in range(4):
            for b in range(4):
                expected = NSet.of(FIGURE_MATRIX[a][b]) if a != b else NSet.of(1)
                assert table[a][b] == expected

    def test_roles(self):
        plan = countable_family_plan(FIGURE_MATRIX)
        roles = {g.pair: g.roles for g in plan.assignments}
        assert roles[(0, 1)] == ("A", "B", "C", "C")
        assert roles[(2, 3)] == ("C", "C", "A", "B")

    def test_all_ones(self):
        plan = countable_family_plan([[1, 1], [1, 1]])
        assert plan.assignments == ()
        assert plan.pairwise_invariant(0, 1) == NSet.of(1)

    def test_infinite_entry(self):
        plan = countable_family_plan([[1, INF], [INF, 1]])
        assert plan.pairwise_invariant(0, 1) == NSet.of(INF)

    def test_direct_sum_union(self):
        plan = countable_family_plan([[1, 4, 1], [4, 1, 7], [1, 7, 1]])
        assert plan.evaluate() == NSet.of(1, 4, 7)

    def test_validation(self):
        with pytest.raises(InvalidLambdaError):
            countable_family_plan([[1, 2], [3, 1]])
        with pytest.raises(InvalidLambdaError):
            countable_family_plan([[2, 2], [2, 2]])
        with pytest.raises(InvalidLambdaError):
            countable_family_plan([[1, 2, 1], [2, 1, 1]])
