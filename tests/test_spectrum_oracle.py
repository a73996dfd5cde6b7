"""Left-right spectra and their diagrams against the routes they replaced.

Two oracles.  The dense GNS route builds ``L(a)`` and ``R(b*)`` as
``gns_dim × gns_dim`` matrices, generates the algebra they span and splits it
with ``dense_minimal_projections``; for the Pukánszky spectrum it then drops
the blocks inside the span of the embedded masa.  The ``C^D`` route generates
the algebra of each side on ``C^D``, splits it with
``dense_minimal_projections`` and reads block ranks from traces, with
``relative_commutant_dim`` as its masa test.  ``dense_minimal_projections``
shares no code with the library's spectral certificate: it scans every pair
of basis elements for a commutator, then takes the spectral projections of a
random self-adjoint element and keeps them once their count is the algebra's
dimension and each lies in its span.  The library reads the projections from
one certified eigendecomposition of the generators, and so does its own
``minimal_projections``.  Inputs are random abelian algebras of small
multi-matrix algebras: several blocks, uneven exact weights, and generators
whose eigenvalues repeat within and across blocks, so that minimal
projections have rank above one and straddle blocks.

The abelian test of the library's failure path, two random combinations
``a`` and ``b`` with ``[a, b]`` and ``[a, b*]``, is checked against the
exact scan over every pair of generators, ``exact_commutator_defect``.

The stacked certificate, which checks, certifies and compares the generators
in chunks of a whole stack with one ``eigh`` per diagonal block, is checked
against the per-generator loops it replaced, ``loop_check_member`` and
``loop_joint_eigenbasis``, which takes one ``eigh`` of the whole sample and
rounds its block ranks from traces: the same labels (the library lists its
columns in block order) and ranks, or the same error with the same offending
generator.

Diagrams of a left-right report are checked against the dense overlap loop:
the report's products ``L(p_i) R(q_j)`` and the partition cutdowns built as
``gns_dim × gns_dim`` operators, with each block's trace against each cutdown
compared to its multiplicity.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_core import embed

from puklab import algebra, core
from puklab.algebra import (
    COMMUTE_TOL,
    MAX_RETRIES,
    MEMBER_TOL,
    SPAN_RTOL,
    _commutator_defect,
    _joint_eigenbasis,
    finite_puk_spectrum,
    generate_algebra,
    minimal_projections,
    mixed_spectrum,
    relative_commutant_dim,
)
from puklab.core import ENTRY_TOL, GnsSpace, TracedAlgebraShape, adjoint, as_matrix
from puklab.diagrams import diagram_from_numeric
from puklab.errors import (
    DegenerateSampleError,
    NotAbelianError,
    NotInAlgebraError,
    NotMasaError,
    ShapeMismatchError,
)
from puklab.nsets import NSet

PROJ_TOL = 1e-8
# the reference route splits eigenvalue clusters at relative gaps above this
ORACLE_GAP_RTOL = 1e-7


def exact_commutator_defect(mats):
    """Largest entry of ``[g, h]`` over generators ``g`` and generators or adjoints ``h``."""
    worst = 0.0
    for others in (mats, np.conj(np.transpose(mats, (0, 2, 1)))):
        for g in mats:
            comm = np.matmul(g, others)
            comm -= np.matmul(others, g)
            worst = max(worst, float(np.max(np.abs(comm), initial=0.0)))
    return worst


def dense_minimal_projections(alg, seed=0):
    """(multiplicity, projection) pairs of an abelian algebra, by the pairwise scan and one ``eigh``.

    The spectral projections of a random self-adjoint element of the algebra
    are kept once there are ``alg.dim`` of them and each lies in the span; a
    rejected sample is redrawn up to ``MAX_RETRIES`` times.
    """
    for b, c in itertools.combinations(alg.basis, 2):
        if np.max(np.abs(b @ c - c @ b)) >= COMMUTE_TOL:
            raise NotAbelianError("basis elements do not commute")
    rng = np.random.default_rng(seed)
    for _ in range(1 + MAX_RETRIES):
        coeffs = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        h = np.tensordot(coeffs, alg.basis, axes=1)
        eigvals, vecs = np.linalg.eigh(h + adjoint(h))
        spread = eigvals[-1] - eigvals[0]
        # a spread at rounding level is one atom
        one_atom = spread <= 1e-12 * max(1.0, np.max(np.abs(eigvals)))
        cuts = [] if one_atom else np.flatnonzero(np.diff(eigvals) > ORACLE_GAP_RTOL * spread) + 1
        clusters = np.split(np.arange(len(eigvals)), cuts)
        if len(clusters) != alg.dim:
            continue
        projections = [vecs[:, idx] @ vecs[:, idx].conj().T for idx in clusters]
        if all(alg.span_residual(q) <= MEMBER_TOL for q in projections):
            return [(len(idx), q) for idx, q in zip(clusters, projections)]
    raise DegenerateSampleError("no separating sample")


def dense_mixed_spectrum(a_gens, b_gens, shape, seed=0):
    """(multiplicity, projection) pairs of the dense route."""
    space = GnsSpace(shape)
    gens = [space.left(a) for a in a_gens] + [space.right(adjoint(b)) for b in b_gens]
    return dense_minimal_projections(generate_algebra(gens), seed)


def dense_puk_spectrum(a_gens, shape, seed=0):
    """(multiplicity, projection) pairs of the dense route, off the masa span."""
    space = GnsSpace(shape)
    small = generate_algebra(a_gens)
    gens = [space.left(b) for b in small.basis] + [space.right(adjoint(b)) for b in small.basis]
    pairs = dense_minimal_projections(generate_algebra(gens), seed)
    embedded = np.stack([embed(shape, b) for b in small.basis])
    _, s, vh = np.linalg.svd(embedded, full_matrices=False)
    rows = vh[s > SPAN_RTOL * s[0]]
    e_a = rows.T @ rows.conj()
    kept = []
    for mult, q in pairs:
        overlap = float(np.trace(q @ e_a).real)
        if overlap < MEMBER_TOL * max(1.0, mult):
            kept.append((mult, q))
        elif abs(overlap - mult) > MEMBER_TOL * max(1.0, mult):
            raise NotMasaError("a minimal projection straddles the masa subspace")
    return kept


def dense_products(blocks):
    """The kept products ``L(p_i) R(q_j)`` of a left-right report as GNS operators."""
    space = GnsSpace(blocks.shape)
    rows, cols = blocks.pairs
    out = np.zeros((len(rows), space.dim, space.dim), dtype=complex)
    for k, (i, j) in enumerate(zip(rows, cols)):
        out[k] = space.left(blocks.left.projection(i)) @ space.right(blocks.right.projection(j))
    return out


def dense_diagram_cells(report, partition, right_partition=None):
    """Diagram cells from the overlaps of the dense products with the dense cutdowns."""
    space = GnsSpace(report.blocks.shape)
    products = dense_products(report.blocks)
    rights = partition if right_partition is None else right_partition
    rows = []
    for p in partition:
        row = []
        for q in rights:
            cut = space.left(p) @ space.right(adjoint(q))
            mults = []
            for mult, block in zip(report.multiplicities, products):
                overlap = float(np.trace(block @ cut).real)
                if abs(overlap - mult) <= MEMBER_TOL * max(1.0, mult):
                    mults.append(mult)
                elif overlap > MEMBER_TOL * max(1.0, mult):
                    raise NotInAlgebraError("a report block straddles the partition cutdown")
            row.append(NSet(mults))
        rows.append(tuple(row))
    return tuple(rows)


def cd_block_ranks(gens, shape, seed=0):
    """Minimal projections on C^D and their block ranks, through the algebra basis."""
    small = generate_algebra(gens or [np.eye(shape.total_dim)])
    projs = np.stack([q for _, q in dense_minimal_projections(small, seed)])
    traces = np.stack(
        [np.trace(projs[:, sl, sl], axis1=1, axis2=2).real for sl in shape.block_slices()],
        axis=1,
    )
    ranks = np.rint(traces)
    assert np.max(np.abs(traces - ranks)) <= MEMBER_TOL
    return small, projs, ranks.astype(int)


def cd_puk_spectrum(gens, shape, seed=0):
    """Multiplicities of the C^D route, with the relative commutant as masa test."""
    small, _, ranks = cd_block_ranks(gens, shape, seed)
    rel_dim = relative_commutant_dim(small, shape)
    if rel_dim != small.dim:
        raise NotMasaError(f"relative commutant has dimension {rel_dim} > {small.dim}")
    mults = ranks @ ranks.T
    return sorted(int(mults[i, j]) for i, j in zip(*np.nonzero(mults)) if i != j)


def assert_same_projections(basis, expected_projs, expected_ranks):
    """Each joint eigenspace matches one oracle projection, with the same block ranks."""
    assert sorted(map(tuple, basis.ranks)) == sorted(map(tuple, expected_ranks))
    unmatched = list(zip(expected_projs, map(tuple, expected_ranks)))
    for i, row in enumerate(map(tuple, basis.ranks)):
        p = basis.projection(i)
        hits = [k for k, (q, r) in enumerate(unmatched)
                if r == row and np.max(np.abs(p - q)) < PROJ_TOL]
        assert hits, f"no oracle projection matches cluster {i}"
        unmatched.pop(hits[0])


def blockwise_unitary(rng, shape):
    D = shape.total_dim
    u = np.zeros((D, D), dtype=complex)
    for sl, d in zip(shape.block_slices(), shape.blocks):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(z)
        u[sl, sl] = q * (np.diag(r) / np.abs(np.diag(r)))
    return u


def conjugated(u, entries):
    """``U diag(entries) U*``."""
    return u @ np.diag(np.asarray(entries, dtype=float)) @ u.conj().T


def conjugated_diagonals(rng, shape, label_rows):
    """Commuting generators ``U diag(labels) U*`` with one block-diagonal unitary U."""
    u = blockwise_unitary(rng, shape)
    return [conjugated(u, row) for row in label_rows]


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


def assert_matched(got, expected):
    """Each (multiplicity, projection) pair got matches one expected pair; the multisets agree."""
    assert sorted(m for m, _ in got) == sorted(m for m, _ in expected)
    unmatched = list(expected)
    for mult, q in got:
        hits = [
            k for k, (m, p) in enumerate(unmatched)
            if m == mult and np.max(np.abs(q - p)) < PROJ_TOL
        ]
        assert hits, f"no oracle projection matches a block of multiplicity {mult}"
        unmatched.pop(hits[0])


def assert_same_blocks(report, expected):
    """Each block of a left-right report matches one expected projection."""
    assert_matched(list(zip(report.multiplicities, dense_products(report.blocks))), expected)


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
# a masa basis element here has a skew part near 3e-9, whose rounding-split spectral
# projections once grew the dense route's GNS algebra to dimension 16 on C^6
@example((TracedAlgebraShape((1, 1, 2), (Fraction(1, 3),) * 3), [1, 2, 4, 3], 1048576))
def test_puk_spectrum_matches_dense_oracle(case):
    shape, labels, seed = case
    gens = conjugated_diagonals(np.random.default_rng(seed), shape, [labels])
    assert_same_blocks(finite_puk_spectrum(gens, shape), dense_puk_spectrum(gens, shape))


@settings(max_examples=40, deadline=None)
@given(mixed_cases())
def test_joint_eigenspaces_match_cd_oracle(case):
    shape, a_labels, b_labels, seed = case
    rng = np.random.default_rng(seed)
    a_gens = conjugated_diagonals(rng, shape, a_labels)
    b_gens = conjugated_diagonals(rng, shape, b_labels)
    _, a_projs, a_ranks = cd_block_ranks(a_gens, shape, seed)
    _, b_projs, b_ranks = cd_block_ranks(b_gens, shape, seed)
    assert_same_projections(_joint_eigenbasis(a_gens, shape, seed), a_projs, a_ranks)
    assert_same_projections(_joint_eigenbasis(b_gens, shape, seed), b_projs, b_ranks)
    report = mixed_spectrum(a_gens, b_gens, shape, seed=seed)
    mults = a_ranks @ b_ranks.T
    assert report.multiset == tuple(sorted(int(x) for x in mults[mults != 0]))


@settings(max_examples=40, deadline=None)
@given(mixed_cases())
def test_minimal_projections_match_dense_oracle(case):
    # few labels, so the minimal projections have rank above one
    shape, labels, _, seed = case
    alg = generate_algebra(conjugated_diagonals(np.random.default_rng(seed), shape, labels))
    report = minimal_projections(alg, seed)
    assert sum(report.multiplicities) == shape.total_dim
    assert_matched(list(zip(report.multiplicities, report.blocks)),
                   dense_minimal_projections(alg, seed))


@settings(max_examples=40, deadline=None)
@given(mixed_cases())
def test_relative_commutant_is_trace_of_rank_gram(case):
    shape, labels, _, seed = case
    gens = conjugated_diagonals(np.random.default_rng(seed), shape, labels)
    ranks = _joint_eigenbasis(gens, shape, seed).ranks
    assert relative_commutant_dim(generate_algebra(gens), shape) == np.trace(ranks @ ranks.T)


@settings(max_examples=25, deadline=None)
@given(masa_cases())
def test_puk_spectrum_matches_cd_oracle(case):
    shape, labels, seed = case
    gens = conjugated_diagonals(np.random.default_rng(seed), shape, [labels])
    report = finite_puk_spectrum(gens, shape, seed=seed)
    assert list(report.multiset) == cd_puk_spectrum(gens, shape, seed)


@settings(max_examples=25, deadline=None)
@given(shapes().flatmap(lambda shape: st.tuples(
    st.just(shape),
    st.lists(st.integers(1, 3), min_size=shape.total_dim, max_size=shape.total_dim),
    st.integers(0, 2**32 - 1),
)))
def test_non_maximal_input_is_not_a_masa(case):
    shape, labels, seed = case
    assume(len(set(labels)) < len(labels))
    gens = conjugated_diagonals(np.random.default_rng(seed), shape, [labels])
    with pytest.raises(NotMasaError):
        cd_puk_spectrum(gens, shape, seed)
    with pytest.raises(NotMasaError):
        finite_puk_spectrum(gens, shape, seed=seed)


def partition_from_groups(u, groups, level):
    """The ``2^level`` projections ``U diag(groups == a) U*``; some may be zero."""
    groups = np.asarray(groups)
    return [conjugated(u, groups == a) for a in range(1 << level)]


def counted_cells(shape, a_keys, b_keys, a_groups, b_groups, level, off_diagonal=False):
    """Diagram cells counted from diagonal positions; ``"straddle"`` if a product straddles.

    With ``A`` and its partition diagonal in one basis, ``Tr_k(p_i P_a)`` counts
    the positions of block ``k`` in cluster ``i`` and part ``a``, and likewise
    for ``B``.  Clusters are the positions sharing a key.  Product ``(i, j)``
    meets cell ``(a, b)`` through each pair of positions of one block, one in
    cluster ``i`` and part ``a`` and one in cluster ``j`` and part ``b``.
    """
    block_of = np.repeat(np.arange(len(shape.blocks)), shape.blocks)
    count = 1 << level
    cells = [[set() for _ in range(count)] for _ in range(count)]
    for ka in set(a_keys):
        for kb in set(b_keys):
            if off_diagonal and ka == kb:
                continue
            meets = [
                (a_groups[x], b_groups[y])
                for x in range(shape.total_dim) if a_keys[x] == ka
                for y in range(shape.total_dim) if b_keys[y] == kb
                if block_of[x] == block_of[y]
            ]
            if len(set(meets)) > 1:
                return "straddle"
            if meets:
                a, b = meets[0]
                cells[a][b].add(len(meets))
    return tuple(tuple(NSet(c) for c in row) for row in cells)


def cells_or_straddle(cells):
    """``cells()``, or ``"straddle"`` if it raises :class:`NotInAlgebraError`."""
    try:
        return cells()
    except NotInAlgebraError:
        return "straddle"


def parts(D, level):
    """The part of a ``2^level`` partition that each diagonal position falls in."""
    return st.lists(st.integers(0, (1 << level) - 1), min_size=D, max_size=D)


@st.composite
def mixed_diagram_cases(draw):
    shape, a_labels, b_labels, seed = draw(mixed_cases())
    D, level = shape.total_dim, draw(st.integers(0, 2))
    return shape, a_labels, b_labels, seed, level, draw(parts(D, level)), draw(parts(D, level))


@st.composite
def puk_diagram_cases(draw):
    shape, labels, seed = draw(masa_cases())
    level = draw(st.integers(0, 2))
    return shape, labels, seed, level, draw(parts(shape.total_dim, level))


@settings(max_examples=40, deadline=None)
@given(mixed_diagram_cases())
def test_mixed_diagram_matches_dense_oracle(case):
    # a part that splits a cluster inside a block makes some product straddle
    shape, a_labels, b_labels, seed, level, a_groups, b_groups = case
    rng = np.random.default_rng(seed)
    u_a, u_b = blockwise_unitary(rng, shape), blockwise_unitary(rng, shape)
    report = mixed_spectrum([conjugated(u_a, row) for row in a_labels],
                            [conjugated(u_b, row) for row in b_labels], shape, seed=seed)
    left = partition_from_groups(u_a, a_groups, level)
    right = partition_from_groups(u_b, b_groups, level)
    factor = cells_or_straddle(lambda: diagram_from_numeric(report, left, right).cells)
    dense = cells_or_straddle(lambda: dense_diagram_cells(report, left, right))
    counted = counted_cells(shape, list(zip(*a_labels)), list(zip(*b_labels)),
                            a_groups, b_groups, level)
    assert factor == dense == counted


@settings(max_examples=25, deadline=None)
@given(puk_diagram_cases())
def test_puk_diagram_matches_dense_oracle(case):
    shape, labels, seed, level, groups = case
    u = blockwise_unitary(np.random.default_rng(seed), shape)
    report = finite_puk_spectrum([conjugated(u, labels)], shape, seed=seed)
    partition = partition_from_groups(u, groups, level)
    factor = cells_or_straddle(lambda: diagram_from_numeric(report, partition).cells)
    dense = cells_or_straddle(lambda: dense_diagram_cells(report, partition))
    counted = counted_cells(shape, labels, labels, groups, groups, level, off_diagonal=True)
    assert factor == dense == counted


def test_split_cluster_straddles_in_both_routes():
    # L(1) R(e_jj) has rank 2 and meets both rows of the unit partition
    shape = TracedAlgebraShape.full_matrix(2)
    units = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    report = mixed_spectrum([np.eye(2)], units, shape)
    with pytest.raises(NotInAlgebraError):
        diagram_from_numeric(report, units)
    with pytest.raises(NotInAlgebraError):
        dense_diagram_cells(report, units)


CLOSE_GAPS = (3e-6, 3e-7, 1e-7, 3e-8, 1e-9, 3e-12)


def planted_entries(n, gap, seed):
    """``(0, gap, 2, 3)`` for ``n = 4``; else seeded Gaussian entries, the second
    ``gap`` above the first unless ``gap`` is None."""
    if n == 4:
        return np.array([0.0, gap, 2.0, 3.0])
    entries = np.random.default_rng(seed).standard_normal(n)
    if gap is not None:
        entries[1] = entries[0] + gap
    return entries


@pytest.mark.parametrize("blocks, gap, seed, rotated", [
    *(((n,), gap, n, rotated) for n in (4, 16, 64) for gap in CLOSE_GAPS
      for rotated in (False, True)),
    ((256,), None, 27, False),
    # diag(0, 2 | δ, 3): the close pair straddles the two blocks
    *(((2, 2), gap, 2, rotated) for gap in CLOSE_GAPS for rotated in (False, True)),
])
def test_close_eigenvalues_still_decide_a_masa(blocks, gap, seed, rotated):
    # two eigenvalues far closer than the spread, yet far above its rounding: one
    # generator of distinct eigenvalues generates a masa, so every block has rank 1
    shape = TracedAlgebraShape.from_blocks(blocks)
    n = shape.total_dim
    entries = planted_entries(n, gap, seed)
    if len(blocks) > 1:
        entries = entries[[0, 2, 1, 3]]
    if rotated:
        u = blockwise_unitary(np.random.default_rng(seed), shape)
        gen = (u * entries) @ u.conj().T
    else:
        gen = np.diag(entries)
    puk = finite_puk_spectrum([gen], shape)
    assert puk.as_set == NSet.of(1) and puk.block_count == shape.gns_dim - n
    mixed = mixed_spectrum([gen], [np.diag(np.arange(n, dtype=float))], shape)
    assert mixed.as_set == NSet.of(1) and mixed.block_count == shape.gns_dim


@pytest.mark.parametrize("rotated", [False, True])
def test_joint_eigenvalue_in_both_blocks(rotated):
    # diag(1, 2 | 1, 2): each joint eigenspace has rank 1 in each block
    shape = TracedAlgebraShape.from_blocks((2, 2))
    u = blockwise_unitary(np.random.default_rng(4), shape) if rotated else np.eye(4)
    gen = conjugated(u, [1, 2, 1, 2])
    assert _joint_eigenbasis([gen], shape, 0).ranks.tolist() == [[1, 1], [1, 1]]
    assert mixed_spectrum([gen], [gen], shape).multiset == (2, 2, 2, 2)
    with pytest.raises(NotMasaError):
        finite_puk_spectrum([gen], shape)


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
SHIFT = np.array([[0, 1], [0, 0]], dtype=complex)


@pytest.mark.parametrize("gens", [[PAULI_X, PAULI_Z], [SHIFT], [PAULI_Z + SHIFT]],
                         ids=["non-commuting", "nilpotent", "non-normal-diagonalisable"])
def test_not_abelian_after_retries(gens):
    shape = TracedAlgebraShape.full_matrix(2)
    units = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    with pytest.raises(NotAbelianError):
        finite_puk_spectrum(gens, shape)
    with pytest.raises(NotAbelianError):
        mixed_spectrum(gens, units, shape)
    with pytest.raises(NotAbelianError):
        mixed_spectrum(units, gens, shape)


def normalized(gens):
    """The generators scaled as the failure path scales them, by ``max(1, ‖g‖)``."""
    mats = np.stack([np.asarray(g, dtype=complex) for g in gens])
    return mats / np.maximum(1.0, np.linalg.norm(mats, axis=(1, 2)))[:, None, None]


def assert_defects_agree(gens, seed=0):
    """The sampled and the exact defect fall on the same side of COMMUTE_TOL; return that side."""
    mats = normalized(gens)
    exact = exact_commutator_defect(mats)
    sampled = _commutator_defect(mats, np.random.default_rng(seed))
    assert (sampled > COMMUTE_TOL) == (exact > COMMUTE_TOL), (sampled, exact)
    return exact > COMMUTE_TOL


COMMUTING_NORMAL = [
    conjugated_diagonals(np.random.default_rng(5), TracedAlgebraShape.full_matrix(4),
                         [[1, 1, 2, 3], [2, 1, 1, 1]]),
    # complex eigenvalues: normal, not self-adjoint
    [np.diag([1j, 2.0, 1j]), np.diag([1.0, -1j, 0.0])],
]


@pytest.mark.parametrize("gens, abelian", [
    (COMMUTING_NORMAL[0], True),
    (COMMUTING_NORMAL[1], True),
    ([PAULI_X, PAULI_Z], False),
    ([SHIFT], False),
    # SHIFT commutes with itself but not with its adjoint: only [a, b*] sees it
    ([SHIFT, SHIFT], False),
    ([PAULI_Z + SHIFT], False),
], ids=["conjugated-diagonals", "complex-diagonals", "pauli-x-z", "nilpotent",
        "shift-with-itself", "non-normal-diagonalisable"])
def test_sampled_defect_matches_exact_scan(gens, abelian):
    for seed in range(5):
        assert assert_defects_agree(gens, seed) is not abelian


@st.composite
def generator_sets(draw):
    """One to three small Gaussian-integer matrices, diagonal or not, in one random basis."""
    D, count = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entries = st.lists(st.integers(-2, 2), min_size=2 * D * D, max_size=2 * D * D)
    mats = []
    for _ in range(count):
        parts = np.array(draw(entries), dtype=float).reshape(2, D, D)
        m = parts[0] + 1j * parts[1]
        mats.append(np.diag(np.diag(m)) if draw(st.booleans()) else m)
    u = blockwise_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                          TracedAlgebraShape.full_matrix(D))
    return [u @ m @ u.conj().T for m in mats], draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(generator_sets())
def test_sampled_defect_matches_exact_scan_on_drawn_sets(case):
    # a non-zero commutator of Gaussian-integer matrices is far above COMMUTE_TOL
    gens, seed = case
    assert_defects_agree(gens, seed)


def force_merged_sample(monkeypatch, conjugate):
    """``diag(1, 2, 3)`` on C^3 with every sample ``diag(1, 1, 3)``, which puts the
    joint eigenspaces of 1 and 2 in one eigenvalue of ``h``.

    Both are conjugated by one unitary when ``conjugate`` is set.  Returns the
    generators, the shape and the list each drawn sample appends to.
    """
    shape = TracedAlgebraShape.full_matrix(3)
    u = blockwise_unitary(np.random.default_rng(3), shape) if conjugate else np.eye(3)
    gens = [u @ np.diag([1.0, 2.0, 3.0]) @ u.conj().T]
    merged = u @ np.diag([1.0, 1.0, 3.0]) @ u.conj().T
    calls = []

    def merging_sample(rng, mats):
        calls.append(1)
        return merged

    monkeypatch.setattr(algebra, "_hermitian_sample", merging_sample)
    return gens, shape, calls


def test_merged_sample_on_the_joint_eigenbasis_is_decided(monkeypatch):
    # eigh of diag(1, 1, 3) returns the standard basis, which diagonalises the
    # generator: the joint eigenvalues 1 and 2 sit in adjacent columns and split
    gens, shape, calls = force_merged_sample(monkeypatch, conjugate=False)
    report = finite_puk_spectrum(gens, shape)
    assert report.as_set == NSet.of(1) and report.block_count == 6
    assert len(calls) == 1


@pytest.mark.parametrize("conjugate, reason", [
    # eigh returns some basis of the merged cluster, off the joint eigenvectors
    (True, "eigen-residual"),
])
def test_merged_sample_is_degenerate(monkeypatch, conjugate, reason):
    gens, shape, calls = force_merged_sample(monkeypatch, conjugate)
    with pytest.raises(DegenerateSampleError, match=reason):
        finite_puk_spectrum(gens, shape)
    assert len(calls) == 1 + MAX_RETRIES


def test_split_sample_is_degenerate(monkeypatch):
    # every sample puts the joint eigenspace of 1 on both sides of that of 3
    monkeypatch.setattr(algebra, "_hermitian_sample", lambda rng, mats: np.diag([1.0, 3.0, 2.0]))
    with pytest.raises(DegenerateSampleError, match="same joint eigenvalues"):
        mixed_spectrum([np.diag([1.0, 1.0, 3.0])], [], TracedAlgebraShape.full_matrix(3))


# ---------------------------------------------------------------------------
# the stacked certificate against the per-generator loops it replaced


def loop_check_member(shape, mats):
    """The membership test one matrix at a time, naming the first matrix off the blocks.

    With more than one block, a matrix with a NaN or infinite entry is refused first.
    """
    for i, x in enumerate(mats):
        mag = np.abs(x)
        if len(shape.blocks) > 1 and not np.isfinite(mag).all():
            raise ShapeMismatchError(f"matrix {i} has a non-finite entry")
        off_block = np.ones(mag.shape, dtype=bool)
        for sl in shape.block_slices():
            off_block[sl, sl] = False
        worst = float(np.max(mag[off_block], initial=0.0))
        if worst > ENTRY_TOL * float(np.max(mag)):
            raise ShapeMismatchError(f"matrix {i} has an entry of size {worst:.2e} outside "
                                     f"the diagonal blocks {shape.blocks}")


def loop_joint_eigenbasis(gens, shape, seed):
    """Labels and ranks of ``_joint_eigenbasis``, each generator converted and certified alone.

    The dense per-generator route: one ``eigh`` of the whole sample, its
    residual test read as ``not resid <= MEMBER_TOL``, so that a NaN residual is
    refused as in the library, and each block rank rounded from the trace
    ``‖V[sl_k, cluster_i]‖²``.  The sample and the failure path are the library's own.
    """
    D = shape.total_dim
    mats = np.empty((len(gens), D, D), dtype=complex)
    for k, g in enumerate(gens):
        mats[k] = as_matrix(g)
    loop_check_member(shape, mats)
    parts = mats.view(float).reshape(len(mats), 2 * D * D)
    scales = np.maximum(1.0, np.sqrt(np.einsum("ki,ki->k", parts, parts)))

    def certify(vecs):
        mu = np.empty((len(mats), D), dtype=complex)
        resid = np.empty(len(mats))
        gv = np.empty((D, D), dtype=complex)
        for k, g in enumerate(mats):
            np.matmul(g, vecs, out=gv)
            mu[k] = np.vecdot(vecs, gv, axis=0)
            gv -= vecs * mu[k]
            resid[k] = np.linalg.norm(gv) / scales[k]
            if not resid[k] <= MEMBER_TOL:
                raise algebra._Rejected(f"generator {k} has eigen-residual {resid[k]:.2e}")
        mu /= scales[:, None]
        bound = 2 * resid.max(initial=0.0) + 16 * D * np.finfo(float).eps
        step = np.max(np.abs(np.diff(mu, axis=1)), axis=0, initial=0.0)
        cut = np.concatenate(([True], step > bound))
        starts, labels = np.flatnonzero(cut), np.cumsum(cut) - 1
        gap = np.zeros((len(starts), len(starts)))
        for row in mu[:, starts]:
            np.maximum(gap, np.abs(row[:, None] - row[None, :]), out=gap)
        np.fill_diagonal(gap, np.inf)
        if gap.min() <= bound:
            raise algebra._Rejected("two clusters carry the same joint eigenvalues")
        squares = (vecs.conj() * vecs).real
        per_block = np.stack([squares[sl].sum(axis=0) for sl in shape.block_slices()], axis=1)
        traces = np.add.reduceat(per_block, starts)
        ranks = np.rint(traces)
        worst = float(np.max(np.abs(traces - ranks)))
        if worst > MEMBER_TOL:
            raise algebra._Rejected(f"a block rank is {worst:.2e} away from an integer")
        return labels, ranks.astype(int)

    rng = np.random.default_rng(seed)
    for _ in range(1 + MAX_RETRIES):
        try:
            return certify(np.linalg.eigh(algebra._hermitian_sample(rng, mats))[1])
        except algebra._Rejected as exc:
            reason = str(exc)
    defect = _commutator_defect(mats, rng, scales)
    if defect > COMMUTE_TOL:
        raise NotAbelianError(f"generators or their adjoints do not commute (defect {defect:.2e})")
    raise DegenerateSampleError(f"no separating sample after {MAX_RETRIES} retries: {reason}")


def stacked_joint_eigenbasis(gens, shape, seed):
    # the columns come in block order, the oracle's in the order of h's eigenvalues
    joint = _joint_eigenbasis(gens, shape, seed)
    return np.sort(joint.labels), joint.ranks


def certificate_outcome(route, gens, shape, seed):
    """Labels and ranks as lists, or the error's type and message.

    ``eigh`` of a sample with a NaN entry may fail to converge: the same error on both routes.
    """
    try:
        labels, ranks = route(gens, shape, seed)
    except (ShapeMismatchError, NotAbelianError, DegenerateSampleError,
            np.linalg.LinAlgError) as exc:
        return type(exc).__name__, str(exc)
    return labels.tolist(), ranks.tolist()


@st.composite
def certificate_inputs(draw):
    """Up to 12 generators on C^D, D ≤ 16 in 1–4 blocks, commuting with repeated eigenvalues.

    Real (one orthogonal basis) or complex (one unitary), as a list or a
    read-only stack; now and then one generator gets a NaN entry, an entry
    outside the blocks or a factor that makes it commute with nothing.
    """
    blocks = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    shape = TracedAlgebraShape.from_blocks(blocks)
    D, k = shape.total_dim, draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = blockwise_unitary(rng, shape)
    if real := draw(st.booleans()):
        u = np.zeros((D, D))
        for sl, d in zip(shape.block_slices(), blocks):
            u[sl, sl] = np.linalg.qr(rng.standard_normal((d, d)))[0]
    gens = [u @ np.diag(rng.integers(-2, 3, D).astype(float)) @ u.conj().T for _ in range(k)]
    fault = draw(st.sampled_from(["none", "none", "nan", "off-block", "tangled"]))
    if k and fault != "none":
        i, (r, c) = draw(st.integers(0, k - 1)), rng.integers(0, D, 2)
        if fault == "nan":
            gens[i][r, c] = np.nan
        elif fault == "off-block" and len(blocks) > 1:
            block = np.repeat(np.arange(len(blocks)), blocks)
            r, c = np.argmax(block == 0), np.argmax(block == 1)
            gens[i][r, c] += 0.5
        elif fault == "tangled":
            gens[i] = gens[i] @ (np.linalg.qr(rng.standard_normal((D, D)))[0] if real
                                 else blockwise_unitary(rng, shape))
    if draw(st.booleans()):
        gens = np.array(gens).reshape(k, D, D)
        gens.flags.writeable = False
    return gens, shape, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("chunk", ["one", "two", "uneven"])
@settings(max_examples=60, deadline=None)
@given(case=certificate_inputs())
def test_stacked_certificate_matches_the_per_generator_loops(chunk, case):
    gens, shape, seed = case
    D, k = shape.total_dim, len(gens)
    size = {"one": 1, "two": 2, "uneven": k // 2 + 1}[chunk]
    assume(chunk != "uneven" or k >= 3)  # k // 2 + 1 does not divide k from k = 3 on
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "CHUNK_ENTRIES", size * D * D)
        assert [len(range(k)[part]) for part in core.chunks(k, D)][:1] == [min(k, size)][:k]
        with np.errstate(invalid="ignore"):
            expected = certificate_outcome(loop_joint_eigenbasis, gens, shape, seed)
            assert certificate_outcome(stacked_joint_eigenbasis, gens, shape, seed) == expected


def test_nan_generator_is_an_error_not_a_report():
    # a NaN residual fails every comparison, so only "not resid <= MEMBER_TOL" refuses it
    with np.errstate(invalid="ignore"), pytest.raises(DegenerateSampleError,
                                                      match="eigen-residual nan"):
        mixed_spectrum([np.diag([np.nan, 1.0])], [np.eye(2)], TracedAlgebraShape.full_matrix(2))
