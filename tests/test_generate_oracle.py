"""``generate_algebra`` against the growth loop it replaced.

The library scales each generator so that its largest entry has modulus 1,
seeds the span with an orthonormal basis of the unit, the scaled generators
and their adjoints, adds the spectral projections of each generator's
Hermitian parts, and cuts every later direction at the absolute
``SPAN_RTOL``.  The oracle ``grown_algebra`` is the earlier loop, kept as it
was: it seeds with the raw generators, their adjoints and the unit, cut
relative to the largest singular value, then
left-multiplies the newest elements by every generator and adjoint until the
dimension stops growing, cutting each batch at ``SPAN_RTOL`` times its
largest candidate norm (at least 1).

The two agree wherever the oracle's relative cuts are well clear of the
spectrum of the powers it forms, so the drawn sets are well conditioned and
live on ``C^D`` with ``D ≤ 8``: rotated diagonals with repeated labels, block
matrix units under a random unitary, GNS left and right actions of matrix
units, and one or two random complex generators.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_algebra import gram_defect

from puklab.algebra import SPAN_RTOL, AlgebraBasis, generate_algebra
from puklab.core import GnsSpace, TracedAlgebraShape, adjoint, as_matrix


def orthonormalize_span(mats) -> np.ndarray:
    """Orthonormal basis of the span of the given matrices, via SVD."""
    stack = np.stack([as_matrix(m) for m in mats])
    k, D, _ = stack.shape
    _, s, vh = np.linalg.svd(stack.reshape(k, -1), full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, D, D), dtype=complex)
    keep = s > SPAN_RTOL * s[0]
    return vh[keep].reshape(-1, D, D)


def grown_algebra(generators, unital: bool = True) -> AlgebraBasis:
    """Smallest *-closed (optionally unital) algebra containing the generators.

    The span is grown by left-multiplying the current basis with the
    generators and their adjoints until the dimension stabilises; since words
    in a *-closed generating set are *-closed, the resulting span is too.
    """
    gens = [as_matrix(g) for g in generators]
    if not gens and not unital:
        raise ValueError("need at least one generator for a non-unital algebra")
    dims = {g.shape[0] for g in gens}
    if len(dims) > 1:
        raise ValueError(f"generators act on different spaces: {sorted(dims)}")
    D = dims.pop() if dims else 1
    mult = gens + [adjoint(g) for g in gens]
    seeds = list(mult)
    if unital:
        seeds.append(np.eye(D, dtype=complex))
    basis = orthonormalize_span(seeds)
    # each basis element meets each multiplier once; spans only ever grow
    frontier = basis
    while mult and frontier.shape[0]:
        fresh = []
        for g in mult:
            novel = _components_outside_span(basis, np.matmul(g, frontier))
            if novel.shape[0]:
                basis = np.concatenate([basis, novel])
                fresh.append(novel)
        frontier = np.concatenate(fresh) if fresh else np.zeros((0, D, D), dtype=complex)
    return AlgebraBasis(D, np.ascontiguousarray(basis))


def _components_outside_span(basis: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Orthonormal directions of ``cands`` not already in the span of ``basis``."""
    k, D, _ = basis.shape
    b = basis.reshape(k, -1)
    c = cands.reshape(cands.shape[0], -1)
    resid = c - (c @ b.conj().T) @ b
    scale = max(float(np.max(np.linalg.norm(c, axis=1))), 1.0)
    live = np.linalg.norm(resid, axis=1) > SPAN_RTOL * scale
    if not live.any():
        return np.zeros((0, D, D), dtype=complex)
    _, s, vh = np.linalg.svd(resid[live], full_matrices=False)
    keep = s > SPAN_RTOL * scale
    new = vh[keep]
    # one clean-up projection pass keeps the enlarged basis orthonormal
    new = new - (new @ b.conj().T) @ b
    new /= np.linalg.norm(new, axis=1)[:, None]
    return new.reshape(-1, D, D)


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def block_units(blocks):
    """Matrix units of every block of ``⊕_k M_{d_k}`` on ``C^{Σ d_k}``."""
    shape = TracedAlgebraShape.from_blocks(blocks)
    D, units = shape.total_dim, []
    for sl, d in zip(shape.block_slices(), blocks):
        for i in range(d):
            for j in range(d):
                u = np.zeros((D, D), dtype=complex)
                u[sl.start + i, sl.start + j] = 1.0
                units.append(u)
    return units


def projector(alg):
    """The orthogonal projection of ``C^{D²}`` onto the span of the basis."""
    b = alg.basis_matrix()
    return b.T @ b.conj()


@st.composite
def generator_sets(draw):
    """A well-conditioned generating set on ``C^D``, ``D ≤ 8``."""
    kind = draw(st.sampled_from(["diagonal", "blocks", "gns", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "diagonal":
        # labels repeat, so the algebra is a masa only when they are distinct
        D = draw(st.integers(1, 8))
        labels = draw(st.lists(st.integers(0, 3), min_size=D, max_size=D))
        u = random_unitary(rng, D)
        return [u @ np.diag(np.asarray(labels, dtype=float)) @ u.conj().T]
    if kind == "blocks":
        sizes = st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda b: sum(b) <= 8)
        blocks = tuple(draw(sizes))
        u = random_unitary(rng, sum(blocks))
        return [u @ g @ u.conj().T for g in block_units(blocks)]
    if kind == "gns":
        # GNS spaces of dimension at most 8: M_2, C ⊕ C ⊕ C, and M_2 ⊕ C
        blocks = draw(st.sampled_from([(2,), (1, 1, 1), (2, 1)]))
        space = GnsSpace(TracedAlgebraShape.from_blocks(blocks))
        sides = draw(st.sampled_from([("left",), ("right",), ("left", "right")]))
        return [getattr(space, side)(u) for side in sides for u in block_units(blocks)]
    D, count = draw(st.integers(1, 8)), draw(st.integers(1, 2))
    return list(rng.standard_normal((count, D, D)) + 1j * rng.standard_normal((count, D, D)))


@settings(max_examples=80, deadline=None)
@given(generator_sets())
def test_generate_algebra_matches_grown_oracle(gens):
    alg = generate_algebra(gens)
    expected = grown_algebra(gens)
    assert alg.dim == expected.dim
    assert gram_defect(alg) < 1e-10
    assert np.max(np.abs(projector(alg) - projector(expected))) <= 1e-9
