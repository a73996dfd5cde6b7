"""Left-right spectra against the dense GNS route they replaced.

The oracle builds ``L(a)`` and ``R(b*)`` as ``gns_dim × gns_dim`` matrices,
generates the algebra they span and splits it with ``minimal_projections``;
for the Pukánszky spectrum it then drops the blocks inside the span of the
embedded masa.  Inputs are random abelian algebras of small multi-matrix
algebras: several blocks, uneven exact weights, and generators whose
eigenvalues repeat within and across blocks, so that minimal projections have
rank above one and straddle blocks.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from puklab.algebra import (
    MEMBER_TOL,
    SPAN_RTOL,
    finite_puk_spectrum,
    generate_algebra,
    minimal_projections,
    mixed_spectrum,
)
from puklab.core import GnsSpace, TracedAlgebraShape, adjoint
from puklab.errors import NotMasaError

PROJ_TOL = 1e-8


def dense_mixed_spectrum(a_gens, b_gens, shape, seed=0):
    """(multiplicity, projection) pairs of the dense route."""
    space = GnsSpace(shape)
    gens = [space.left(a) for a in a_gens] + [space.right(adjoint(b)) for b in b_gens]
    report = minimal_projections(generate_algebra(gens, unital=True), seed)
    return list(zip(report.multiplicities, report.block_projections))


def dense_puk_spectrum(a_gens, shape, seed=0):
    """(multiplicity, projection) pairs of the dense route, off the masa span."""
    space = GnsSpace(shape)
    small = generate_algebra(a_gens, unital=True)
    gens = [space.left(b) for b in small.basis] + [space.right(adjoint(b)) for b in small.basis]
    report = minimal_projections(generate_algebra(gens, unital=True), seed)
    embedded = np.stack([space.embed(b) for b in small.basis])
    _, s, vh = np.linalg.svd(embedded, full_matrices=False)
    rows = vh[s > SPAN_RTOL * s[0]]
    e_a = rows.T @ rows.conj()
    kept = []
    for mult, q in zip(report.multiplicities, report.block_projections):
        overlap = float(np.trace(q @ e_a).real)
        if overlap < MEMBER_TOL * max(1.0, mult):
            kept.append((mult, q))
        elif abs(overlap - mult) > MEMBER_TOL * max(1.0, mult):
            raise NotMasaError("a minimal projection straddles the masa subspace")
    return kept


def blockwise_unitary(rng, shape):
    D = shape.total_dim
    u = np.zeros((D, D), dtype=complex)
    for sl, d in zip(shape.block_slices(), shape.blocks):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(z)
        u[sl, sl] = q * (np.diag(r) / np.abs(np.diag(r)))
    return u


def conjugated_diagonals(rng, shape, label_rows):
    """Commuting generators ``U diag(labels) U*`` with one block-diagonal unitary U."""
    u = blockwise_unitary(rng, shape)
    return [u @ np.diag(np.asarray(row, dtype=float)) @ u.conj().T for row in label_rows]


@st.composite
def shapes(draw):
    D = draw(st.integers(1, 5))
    cuts = draw(st.sets(st.integers(1, D - 1), max_size=2)) if D > 1 else set()
    bounds = [0, *sorted(cuts), D]
    blocks = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(blocks), max_size=len(blocks)))
    return TracedAlgebraShape(blocks, tuple(Fraction(w, sum(raw)) for w in raw))


@st.composite
def label_rows(draw, D):
    """One or two label vectors with few values, so eigenvalues repeat."""
    count = draw(st.integers(1, 2))
    row = st.lists(st.integers(1, 3), min_size=D, max_size=D)
    return draw(st.lists(row, min_size=count, max_size=count))


@st.composite
def mixed_cases(draw):
    shape = draw(shapes())
    D = shape.total_dim
    return shape, draw(label_rows(D)), draw(label_rows(D)), draw(st.integers(0, 2**32 - 1))


@st.composite
def masa_cases(draw):
    shape = draw(shapes())
    labels = draw(st.permutations(range(1, shape.total_dim + 1)))
    return shape, list(labels), draw(st.integers(0, 2**32 - 1))


def assert_same_blocks(report, expected):
    """Each block of the report matches one expected projection; the multisets agree."""
    assert sorted(report.multiplicities) == sorted(m for m, _ in expected)
    unmatched = list(expected)
    for mult, q in zip(report.multiplicities, report.block_projections):
        hits = [
            k for k, (m, p) in enumerate(unmatched)
            if m == mult and np.max(np.abs(q - p)) < PROJ_TOL
        ]
        assert hits, f"no oracle projection matches a block of multiplicity {mult}"
        unmatched.pop(hits[0])


@settings(max_examples=40, deadline=None)
@given(mixed_cases())
def test_mixed_spectrum_matches_dense_oracle(case):
    shape, a_labels, b_labels, seed = case
    rng = np.random.default_rng(seed)
    a_gens = conjugated_diagonals(rng, shape, a_labels)
    b_gens = conjugated_diagonals(rng, shape, b_labels)
    report = mixed_spectrum(a_gens, b_gens, shape)
    assert report.ambient_dim == shape.gns_dim
    assert_same_blocks(report, dense_mixed_spectrum(a_gens, b_gens, shape))


@settings(max_examples=25, deadline=None)
@given(masa_cases())
def test_puk_spectrum_matches_dense_oracle(case):
    shape, labels, seed = case
    gens = conjugated_diagonals(np.random.default_rng(seed), shape, [labels])
    assert_same_blocks(finite_puk_spectrum(gens, shape), dense_puk_spectrum(gens, shape))
