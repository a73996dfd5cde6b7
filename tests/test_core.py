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


def random_member(rng, shape):
    """A random element of the multi-matrix algebra: a random matrix in each block."""
    x = np.zeros((shape.total_dim,) * 2, dtype=complex)
    for sl, d in zip(shape.block_slices(), shape.blocks):
        x[sl, sl] = random_matrix(rng, d)
    return x


def gns_coordinates(shape):
    """Row, column and scale of each GNS coordinate, in :class:`GnsSpace`'s order.

    Coordinate ``c`` of ``x`` is ``x[row, col]·scale``: each block's matrix
    units, row-major, scaled by ``√(w_k/d_k)`` to be orthonormal under
    ``⟨x, y⟩ = tr(y* x)``.
    """
    units = [(sl.start + i, sl.start + j, np.sqrt(float(w) / d))
             for sl, d, w in zip(shape.block_slices(), shape.blocks, shape.weights)
             for i in range(d) for j in range(d)]
    return tuple(map(np.array, zip(*units)))


def embed(shape, x):
    rows, cols, scales = gns_coordinates(shape)
    return np.asarray(x, dtype=complex)[rows, cols] * scales


def j_permutation(shape):
    """``J : x ↦ x*`` swaps each block's ``(i, j)`` and ``(j, i)`` coordinates and conjugates."""
    rows, cols, _ = gns_coordinates(shape)
    index = {rc: k for k, rc in enumerate(zip(rows, cols))}
    return np.array([index[c, r] for r, c in zip(rows, cols)])


def J(shape, vec):
    return np.conj(np.asarray(vec, dtype=complex)[j_permutation(shape)])


def inner(shape, x, y):
    """⟨x, y⟩ = tr(y* x)."""
    return normalized_trace(adjoint(y) @ x, shape)


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

    @pytest.mark.parametrize("method", ["left", "right"])
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

    @pytest.mark.parametrize("entry,value", [((0, 1), np.nan), ((0, 1), np.inf), ((1, 2), np.nan)],
                             ids=["nan-off", "inf-off", "nan-in"])
    def test_non_finite_entry_rejected(self, entry, value):
        # shape (1, 2): off the blocks and inside one, named by the matrix that holds it
        shape = TracedAlgebraShape.from_blocks((1, 2))
        stack = np.stack([np.diag([1.0, 2.0, 3.0]).astype(complex)] * 2)
        stack[1][entry] = value
        with pytest.raises(ShapeMismatchError, match="matrix 1 has a non-finite entry"):
            shape.check_member(stack)

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
        # ⟨x, y⟩ = tr(y* x) is the dot product of the coordinates
        rng = np.random.default_rng(4)
        for _ in range(5):
            x, y = random_member(rng, shape), random_member(rng, shape)
            assert abs(np.vdot(embed(shape, y), embed(shape, x)) - inner(shape, x, y)) < 1e-12

    def test_left_unit_is_identity(self, shape):
        space = GnsSpace(shape)
        assert np.allclose(space.left(np.eye(shape.total_dim)), np.eye(space.dim))

    def test_j_squared_identity(self, shape):
        rng = np.random.default_rng(6)
        space = GnsSpace(shape)
        vec = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        assert np.allclose(J(shape, J(shape, vec)), vec)

    def test_j_maps_to_adjoint(self, shape):
        x = random_member(np.random.default_rng(7), shape)
        assert np.allclose(J(shape, embed(shape, x)), embed(shape, adjoint(x)))

    def test_j_antiunitary(self, shape):
        # <Jx, Jy> == conj(<x, y>) on every basis pair
        space = GnsSpace(shape)
        eye = np.eye(space.dim, dtype=complex)
        for a in range(space.dim):
            for b in range(space.dim):
                lhs = np.vdot(J(shape, eye[b]), J(shape, eye[a]))
                rhs = np.conj(np.vdot(eye[b], eye[a]))
                assert abs(lhs - rhs) < ENTRY_TOL

    def test_left_right_commute(self, shape):
        rng = np.random.default_rng(8)
        space = GnsSpace(shape)
        for _ in range(5):
            la, rb = space.left(random_member(rng, shape)), space.right(random_member(rng, shape))
            assert np.max(np.abs(la @ rb - rb @ la)) < 1e-12 * max(
                1.0, float(np.max(np.abs(la @ rb)))
            )

    def test_sandwich_rule_exact(self, shape):
        # J L(b) J == R(b*) at the operator level, entry for entry
        space, perm = GnsSpace(shape), j_permutation(shape)
        b = random_member(np.random.default_rng(9), shape)
        assert np.array_equal(np.conj(space.left(b)[np.ix_(perm, perm)]), space.right(adjoint(b)))


class TestGnsOperators:
    def test_sandwich_rule_on_basis_vectors(self):
        # oracle: apply both routes to the coordinates of every matrix unit of M2
        rng = np.random.default_rng(10)
        shape = TracedAlgebraShape.full_matrix(2)
        space = GnsSpace(shape)
        b = random_matrix(rng, 2)
        left, right = space.left(b), space.right(adjoint(b))
        for unit in np.eye(4, dtype=complex).reshape(4, 2, 2):
            vec = embed(shape, unit)
            via_j = J(shape, left @ J(shape, vec))
            direct = embed(shape, unit @ adjoint(b))
            assert np.allclose(via_j, direct, atol=1e-12)
            assert np.allclose(right @ vec, direct, atol=1e-12)

    def test_tensor_norm_multiplicative(self):
        rng = np.random.default_rng(11)
        s2, s4 = TracedAlgebraShape.full_matrix(2), TracedAlgebraShape.full_matrix(4)
        for _ in range(5):
            x, y = random_matrix(rng, 2), random_matrix(rng, 2)
            assert inner(s4, tensor(x, y), tensor(x, y)) == pytest.approx(
                inner(s2, x, x) * inner(s2, y, y))
