from fractions import Fraction

import numpy as np
import pytest

from puklab import core
from puklab.core import (
    ENTRY_TOL,
    GnsSpace,
    TracedAlgebraShape,
    adjoint,
    normalized_trace,
    tensor,
)
from puklab.errors import ShapeMismatchError


def diag_unit(n, i):
    return np.diag(np.eye(n, dtype=complex)[i])


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_units_order(self):
        # first factor on the slow index
        out = tensor(diag_unit(2, 0), diag_unit(2, 1))
        assert np.array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex))

    def test_associative_exact_on_exact_entries(self):
        rng = np.random.default_rng(0)
        a, b, c = (rng.integers(-3, 4, (2, 2)).astype(complex) for _ in range(3))
        assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))

    def test_associative_to_rounding(self):
        rng = np.random.default_rng(0)
        a, b, c = (random_matrix(rng, 2) for _ in range(3))
        assert np.allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)), rtol=1e-15)

    def test_trace_multiplicative(self):
        # oracle: compute both traces directly from entries
        rng = np.random.default_rng(1)
        shape2 = TracedAlgebraShape.full_matrix(2)
        shape4 = TracedAlgebraShape.full_matrix(4)
        for _ in range(10):
            x, y = random_matrix(rng, 2), random_matrix(rng, 2)
            lhs = normalized_trace(tensor(x, y), shape4)
            rhs = normalized_trace(x, shape2) * normalized_trace(y, shape2)
            assert abs(lhs - rhs) < 1e-12


class TestNormalizedTrace:
    def test_unit(self):
        shape = TracedAlgebraShape.full_matrix(3)
        assert normalized_trace(np.eye(3), shape) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_minimal_projection(self, n):
        shape = TracedAlgebraShape.full_matrix(n)
        assert normalized_trace(diag_unit(n, 0), shape) == pytest.approx(1 / n)

    def test_cyclic(self):
        rng = np.random.default_rng(2)
        shape = TracedAlgebraShape.full_matrix(3)
        x, y = random_matrix(rng, 3), random_matrix(rng, 3)
        assert normalized_trace(x @ y, shape) == pytest.approx(
            normalized_trace(y @ x, shape)
        )

    def test_weighted_blocks(self):
        shape = TracedAlgebraShape((2, 1), (Fraction(2, 3), Fraction(1, 3)))
        x = np.diag([1.0, 1.0, 0.0]).astype(complex)
        assert normalized_trace(x, shape) == pytest.approx(2 / 3)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            normalized_trace(np.eye(2), TracedAlgebraShape.full_matrix(3))


class TestOffBlockEntries:
    def setup_method(self):
        self.space = GnsSpace(TracedAlgebraShape.from_blocks((2, 1)))
        self.outside = np.diag([1.0, 2.0, 3.0]).astype(complex)
        self.outside[0, 2] = self.outside[2, 0] = 0.5

    @pytest.mark.parametrize("method", ["embed", "left", "right"])
    def test_rejected(self, method):
        with pytest.raises(ShapeMismatchError, match="outside the diagonal blocks"):
            getattr(self.space, method)(self.outside)

    def test_stack_names_its_first_matrix_off_the_blocks(self, monkeypatch):
        # two chunks of three: the first offender sits in the second chunk
        monkeypatch.setattr(core, "CHUNK_ENTRIES", 3 * 9)
        stack = np.stack([np.diag([1.0, 2.0, 3.0]).astype(complex)] * 6)
        stack[4] = stack[5] = self.outside
        with pytest.raises(ShapeMismatchError, match=r"matrix 4 has an entry of size 5\.00e-01"):
            self.space.shape.check_member(stack)
        self.space.shape.check_member(stack[:4])

    def test_rounding_noise_accepted(self):
        x = np.diag([1.0, 2.0, 3.0]).astype(complex)
        x[0, 2] = 0.1 * ENTRY_TOL
        assert np.array_equal(self.space.left(x), self.space.left(np.diag([1.0, 2.0, 3.0])))


class TestShapeValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ShapeMismatchError):
            TracedAlgebraShape((2,), (Fraction(1, 2),))

    def test_from_blocks(self):
        shape = TracedAlgebraShape.from_blocks((2, 1))
        assert shape.weights == (Fraction(2, 3), Fraction(1, 3))
        assert shape.total_dim == 3 and shape.gns_dim == 5

    def test_adjoint_is_involution(self):
        rng = np.random.default_rng(3)
        x = random_matrix(rng, 3)
        assert np.array_equal(adjoint(adjoint(x)), x)


SHAPES = [
    TracedAlgebraShape.full_matrix(2),
    TracedAlgebraShape.full_matrix(3),
    TracedAlgebraShape.from_blocks((2, 1)),
]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"blocks={s.blocks}")
class TestGnsSpace:
    def test_basis_orthonormal(self, shape):
        space = GnsSpace(shape)
        gram = np.empty((space.dim, space.dim), dtype=complex)
        elements = [space.basis_element(k) for k in range(space.dim)]
        for a in range(space.dim):
            for b in range(space.dim):
                gram[a, b] = space.inner(elements[a], elements[b])
        assert np.max(np.abs(gram - np.eye(space.dim))) < ENTRY_TOL

    def test_embed_unembed_roundtrip(self, shape):
        rng = np.random.default_rng(4)
        space = GnsSpace(shape)
        x = np.zeros((shape.total_dim, shape.total_dim), dtype=complex)
        for sl in shape.block_slices():
            d = sl.stop - sl.start
            x[sl, sl] = random_matrix(rng, d)
        assert np.allclose(space.unembed(space.embed(x)), x, atol=ENTRY_TOL)

    def test_norm_positive_definite(self, shape):
        rng = np.random.default_rng(5)
        space = GnsSpace(shape)
        x = space.unembed(rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim))
        assert space.norm2(x) > 0
        assert space.norm2(np.zeros((shape.total_dim,) * 2)) == 0.0

    def test_left_unit_is_identity(self, shape):
        space = GnsSpace(shape)
        assert np.allclose(space.left(np.eye(shape.total_dim)), np.eye(space.dim))

    def test_j_squared_identity(self, shape):
        rng = np.random.default_rng(6)
        space = GnsSpace(shape)
        vec = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        assert np.allclose(space.conjugation.apply(space.conjugation.apply(vec)), vec)

    def test_j_maps_to_adjoint(self, shape):
        rng = np.random.default_rng(7)
        space = GnsSpace(shape)
        x = np.zeros((shape.total_dim, shape.total_dim), dtype=complex)
        for sl in shape.block_slices():
            d = sl.stop - sl.start
            x[sl, sl] = random_matrix(rng, d)
        assert np.allclose(space.unembed(space.conjugation.apply(space.embed(x))), adjoint(x))

    def test_j_antiunitary(self, shape):
        # <Jx, Jy> == conj(<x, y>) on every basis pair
        space = GnsSpace(shape)
        J = space.conjugation
        eye = np.eye(space.dim, dtype=complex)
        for a in range(space.dim):
            for b in range(space.dim):
                lhs = np.vdot(J.apply(eye[b]), J.apply(eye[a]))
                rhs = np.conj(np.vdot(eye[b], eye[a]))
                assert abs(lhs - rhs) < ENTRY_TOL

    def test_left_right_commute(self, shape):
        rng = np.random.default_rng(8)
        space = GnsSpace(shape)
        for _ in range(5):
            a = np.zeros((shape.total_dim,) * 2, dtype=complex)
            b = np.zeros_like(a)
            for sl in shape.block_slices():
                d = sl.stop - sl.start
                a[sl, sl] = random_matrix(rng, d)
                b[sl, sl] = random_matrix(rng, d)
            la, rb = space.left(a), space.right(b)
            assert np.max(np.abs(la @ rb - rb @ la)) < 1e-12 * max(
                1.0, float(np.max(np.abs(la @ rb)))
            )

    def test_sandwich_rule_exact(self, shape):
        # J L(b) J == R(b*) at the operator level, entry for entry
        rng = np.random.default_rng(9)
        space = GnsSpace(shape)
        b = np.zeros((shape.total_dim,) * 2, dtype=complex)
        for sl in shape.block_slices():
            d = sl.stop - sl.start
            b[sl, sl] = random_matrix(rng, d)
        assert np.array_equal(space.conjugation.sandwich(space.left(b)), space.right(adjoint(b)))


class TestGnsOperators:
    def test_sandwich_rule_on_basis_vectors(self):
        # oracle: apply both routes to every basis vector of L2(M2)
        rng = np.random.default_rng(10)
        shape = TracedAlgebraShape.full_matrix(2)
        space = GnsSpace(shape)
        b = random_matrix(rng, 2)
        left, right, conj = space.left(b), space.right(adjoint(b)), space.conjugation
        for k in range(space.dim):
            vec = np.zeros(space.dim, dtype=complex)
            vec[k] = 1.0
            via_j = conj.apply(left @ conj.apply(vec))
            direct = space.embed(space.unembed(vec) @ adjoint(b))
            assert np.allclose(via_j, direct, atol=1e-12)
            assert np.allclose(right @ vec, direct, atol=1e-12)

    def test_tensor_norm_multiplicative(self):
        rng = np.random.default_rng(11)
        s2 = GnsSpace(TracedAlgebraShape.full_matrix(2))
        s4 = GnsSpace(TracedAlgebraShape.full_matrix(4))
        for _ in range(5):
            x, y = random_matrix(rng, 2), random_matrix(rng, 2)
            assert s4.norm2(tensor(x, y)) == pytest.approx(s2.norm2(x) * s2.norm2(y))
