"""The commutator kernel against the stacked constraint systems it replaced.

``commutant`` and ``relative_commutant_dim`` take the kernel of one
``D² × D²`` Hermitian matrix ``M`` with ``⟨x, M x⟩ = Σ_b ‖[x, b]‖²``.  The
oracles here solve the systems the library used to: ``dense_commutant`` takes
the SVD of the ``dim·D² × D²`` stack of Kronecker constraints
``1 ⊗ bᵀ − b ⊗ 1``, and ``dense_relative_commutant_dim`` the SVD of the
commutators of each block matrix unit with every basis element, one column
per unit.  Both cut singular values at ``SPAN_RTOL`` times the largest.

Inputs are drawn algebras on ``C^D``: random generator pairs, rotated
diagonal algebras (masas, and non-maximal ones with repeated eigenvalues),
``M_a ⊗ 1_b ⊕ C·1_c`` under a random unitary, the scalars and the empty
basis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puklab import algebra
from puklab.algebra import (
    SPAN_RTOL,
    AlgebraBasis,
    commutant,
    generate_algebra,
    relative_commutant_dim,
)
from puklab.core import TracedAlgebraShape

CLEARANCE = 1e3


def dense_commutant(alg):
    """All operators commuting with the basis, from the SVD of the stacked Kronecker constraints."""
    D = alg.ambient_dim
    if alg.dim == 0:
        units = np.zeros((D * D, D, D), dtype=complex)
        ii, jj = np.divmod(np.arange(D * D), D)
        units[np.arange(D * D), ii, jj] = 1.0
        return AlgebraBasis(D, units)
    eye = np.eye(D, dtype=complex)
    rows = [np.kron(eye, b.T) - np.kron(b, eye) for b in alg.basis]
    constraints = np.concatenate(rows)
    _, s, vh = np.linalg.svd(constraints, full_matrices=False)
    null = np.conj(vh[s <= SPAN_RTOL * max(s[0], 1.0)])
    return AlgebraBasis(D, null.reshape(-1, D, D))


def dense_relative_commutant_dim(alg, shape):
    """Dimension of the block operators commuting with the basis, one column per block matrix unit."""
    D = shape.total_dim
    units = []
    for sl, d in zip(shape.block_slices(), shape.blocks):
        for i in range(d):
            for j in range(d):
                u = np.zeros((D, D), dtype=complex)
                u[sl.start + i, sl.start + j] = 1.0
                units.append(u.reshape(-1))
    columns = []
    for u in units:
        mat = u.reshape(D, D)
        # every basis element at once, so an empty basis gives an empty column
        columns.append((np.matmul(mat, alg.basis) - np.matmul(alg.basis, mat)).reshape(-1))
    system = np.stack(columns, axis=1)
    s = np.linalg.svd(system, compute_uv=False)
    if s.size == 0:
        return len(units)
    return int(np.sum(s <= SPAN_RTOL * max(s[0], 1.0))) + len(units) - len(s)


def kernel_with_eigenvalues(call):
    """``call()`` and the eigenvalues of each Hermitian system it diagonalised."""
    seen = []
    eigh = np.linalg.eigh

    def recording(a):
        eigvals, vecs = eigh(a)
        seen.append(eigvals)
        return eigvals, vecs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra.np.linalg, "eigh", recording)
        result = call()
    assert len(seen) == 1
    return result, seen[0]


def assert_clears_cut(eigvals):
    """Every eigenvalue sits at least CLEARANCE times away from the cut, on its own side."""
    cut = SPAN_RTOL * max(eigvals[-1], 1.0)
    zero = eigvals <= cut
    assert np.all(eigvals[zero] <= cut / CLEARANCE), (cut, eigvals[zero].max())
    assert np.all(eigvals[~zero] >= cut * CLEARANCE), (cut, eigvals[~zero].min())


def projector(alg):
    flat = alg.basis_matrix()
    return flat.T @ flat.conj()


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def matrix_units(n):
    units = np.zeros((n * n, n, n), dtype=complex)
    ii, jj = np.divmod(np.arange(n * n), n)
    units[np.arange(n * n), ii, jj] = 1.0
    return units


def amplified_plus_scalar(a, b, c):
    """Generators of ``M_a ⊗ 1_b ⊕ C·1_c`` on ``C^{ab + c}``."""
    D = a * b + c
    gens = []
    for unit in matrix_units(a):
        g = np.zeros((D, D), dtype=complex)
        g[: a * b, : a * b] = np.kron(unit, np.eye(b))
        gens.append(g)
    if c:
        g = np.zeros((D, D), dtype=complex)
        g[a * b:, a * b:] = np.eye(c)
        gens.append(g)
    return gens


@st.composite
def algebras(draw):
    """A drawn algebra on C^D, D ≤ 6, given by its basis."""
    kind = draw(st.sampled_from(["pair", "diagonal", "amplified", "scalars", "empty"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "amplified":
        a, b, c = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
        D = a * b + c
        u = random_unitary(rng, D)
        return generate_algebra([u @ g @ u.conj().T for g in amplified_plus_scalar(a, b, c)])
    D = draw(st.integers(1, 6))
    if kind == "pair":
        count = draw(st.integers(1, 2))
        shape = (count, D, D)
        return generate_algebra(list(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    if kind == "diagonal":
        # labels in 1..3 repeat, so the algebra is a masa only when they are distinct
        labels = draw(st.lists(st.integers(1, 3), min_size=D, max_size=D))
        u = random_unitary(rng, D)
        return generate_algebra([u @ np.diag(np.asarray(labels, dtype=float)) @ u.conj().T])
    if kind == "scalars":
        return generate_algebra([np.eye(D)])
    return AlgebraBasis(D, np.zeros((0, D, D), dtype=complex))


@st.composite
def block_shapes(draw, D):
    cuts = draw(st.sets(st.integers(1, D - 1), max_size=2)) if D > 1 else set()
    bounds = [0, *sorted(cuts), D]
    return TracedAlgebraShape.from_blocks(tuple(b - a for a, b in zip(bounds, bounds[1:])))


@settings(max_examples=80, deadline=None)
@given(algebras())
def test_commutant_matches_dense_oracle(alg):
    comm, eigvals = kernel_with_eigenvalues(lambda: commutant(alg))
    expected = dense_commutant(alg)
    assert comm.dim == expected.dim
    assert comm.gram_defect() < 1e-12
    assert np.max(np.abs(projector(comm) - projector(expected))) <= 1e-12
    assert_clears_cut(eigvals)


@settings(max_examples=80, deadline=None)
@given(algebras().flatmap(lambda alg: st.tuples(st.just(alg), block_shapes(alg.ambient_dim))))
def test_relative_commutant_dim_matches_dense_oracle(case):
    alg, shape = case
    dim, eigvals = kernel_with_eigenvalues(lambda: relative_commutant_dim(alg, shape))
    assert dim == dense_relative_commutant_dim(alg, shape)
    assert_clears_cut(eigvals)


@pytest.mark.parametrize("a,b,c", [(1, 1, 0), (2, 1, 0), (2, 2, 1), (3, 2, 2), (1, 3, 2)])
def test_amplified_commutant_dimension(a, b, c):
    # the commutant of M_a ⊗ 1_b ⊕ C·1_c is 1_a ⊗ M_b ⊕ M_c
    alg = generate_algebra(amplified_plus_scalar(a, b, c))
    assert commutant(alg).dim == dense_commutant(alg).dim == b * b + c * c


def test_non_star_closed_basis_gets_its_exact_commutant():
    # a lone nilpotent: both sandwich terms of M are needed for it
    nil = np.zeros((3, 3), dtype=complex)
    nil[0, 1] = 1.0
    alg = AlgebraBasis(3, nil[None])
    comm = commutant(alg)
    assert comm.dim == dense_commutant(alg).dim == 5
    assert max(np.max(np.abs(x @ nil - nil @ x)) for x in comm.basis) < 1e-12
