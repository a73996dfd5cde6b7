"""Generated *-algebras, commutants, minimal projections, and multiplicity spectra.

Operators are dense matrices on an ambient C^D.  An algebra is held as an
orthonormal basis of its span under the Hilbert-Schmidt inner product
``⟨A, B⟩ = Tr(B* A)``; a generated algebra grows from spectral projections
by unit-norm multipliers, so one absolute cut on singular values decides it.
Commutants are the kernel of one ``D² × D²`` matrix, ``M x = Σ_b [[x, b], b*]``.

The multiplicity spectrum of an abelian algebra (the dimensions of the ranges
of its minimal projections) is the finite-dimensional stand-in for the type
decomposition of a commutant, and is what the invariant computations consume.

Left-right spectra never build the GNS algebra.  For abelian ``A`` and ``B``
in ``⊕_k M_{d_k}``, ``L(A)`` and ``R(B)`` commute, so the minimal projections
of the algebra they generate are the non-zero products ``L(p_i) R(q_j)`` of
the minimal projections ``p_i`` of ``A`` and ``q_j`` of ``B`` on ``C^D``.
On block ``k`` the product acts as ``x ↦ p_i x q_j``, of rank
``rank_k(p_i) · rank_k(q_j)``, so the multiplicities are the non-zero entries
of ``R_A · R_Bᵀ`` for the per-block rank matrices ``R_A`` and ``R_B``.

Nor do they build an algebra basis.  The minimal projections of the unital algebra
of commuting normal generators are their joint eigenspaces, so one ``eigh`` per
diagonal block of a random self-adjoint combination of the generators gives them,
once every generator is certified diagonal in that eigenbasis (the one-element
block-diagonalisation of Murota, Kanno, Kojima and Kojima, Japan J. Indust. Appl.
Math. 27, 2010); each eigenvector lies in one block, so ranks are counts, and one
rounding bound, from the measured eigen-residuals, splits the eigenbasis into joint
eigenspaces and refuses samples it cannot split.  The masa test needs no commutant
either: the commutant of an abelian ``A`` in ``⊕_k M_{d_k}`` is
``⊕_{i,k} M_{rank_k(p_i)}``, of dimension ``trace(R_A · R_Aᵀ)``, so ``A`` is
maximal exactly when the diagonal of ``R_A · R_Aᵀ`` is all ones.

``minimal_projections`` reads the same certificate, with an algebra's basis
as the generators, so one eigendecomposition also decides whether an algebra
is abelian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import CHUNK_ENTRIES, TracedAlgebraShape, adjoint, as_matrix, check_workspace, chunks, np
from .errors import DegenerateSampleError, NotAbelianError, NotInAlgebraError, NotMasaError
from .nsets import NSet

# Rank cut of spans (singular values, times a scale) and commutator kernels (eigenvalues).
SPAN_RTOL = 1e-9
# Membership residual for projections extracted from an algebra.
MEMBER_TOL = 1e-8
# Commutator entries at most this count as zero in the abelian test.
COMMUTE_TOL = 1e-9
# Fresh random samples drawn before giving up on separating projections.
MAX_RETRIES = 8


@dataclass(frozen=True, eq=False)
class AlgebraBasis:
    """An orthonormal spanning set of a *-closed operator algebra on C^D."""

    ambient_dim: int
    basis: np.ndarray  # (dim, D, D), orthonormal under Hilbert-Schmidt

    def __post_init__(self):
        self.basis.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def basis_matrix(self) -> np.ndarray:
        """Basis elements flattened to rows of a (dim, D²) matrix."""
        return self.basis.reshape(self.dim, -1)

    def span_residual(self, mat: np.ndarray) -> float:
        """Frobenius distance from ``mat`` to the span of the basis."""
        v = np.asarray(mat, dtype=complex).reshape(-1)
        coeffs = (self.basis_matrix() @ v.conj()).conj()  # no conjugated copy of the basis
        return float(np.linalg.norm(v - self.basis_matrix().T @ coeffs))


def orthonormalize_span(mats) -> np.ndarray:
    """Orthonormal basis of the span of the given matrices, cut relative to the largest."""
    stack = np.stack([as_matrix(m) for m in mats])
    return _extend_span(stack[:0], stack, float(np.max(np.linalg.norm(stack, axis=(1, 2)))))


def generate_algebra(generators) -> AlgebraBasis:
    """Smallest unital *-closed algebra containing the generators.

    Each non-zero generator is scaled to largest entry modulus 1.  The
    multipliers, an orthonormal basis of the span of the unit, the scaled
    generators and their adjoints (cut as in :func:`orthonormalize_span`), seed
    the span; the spectral projections of each ``g + g*`` and ``i(g − g*)`` not
    within ``SPAN_RTOL`` of zero follow, with clusters split only at gaps above
    ``eps·‖g‖/SPAN_RTOL``, so that the rounding of ``g`` moves no projection by
    more than the span cut keeps.  Rounds then multiply the newest
    elements by every multiplier until one adds nothing or the span is
    ``M_D``.  Products have norm at most 1, so one absolute cut, ``SPAN_RTOL``,
    decides each later direction.  Each batch of ``r`` candidates
    declares ``(4k + 3·dim + 7·r)·D²`` entries first: ``k`` generators with
    scaled copies and multipliers, the basis thrice, the batch and its SVD.
    """
    gens = [as_matrix(g) for g in generators]
    dims = {g.shape[0] for g in gens}
    if len(dims) > 1:
        raise ValueError(f"generators act on different spaces: {sorted(dims)}")
    D, k = dims.pop() if dims else 1, len(gens)

    def declare(dim, rows):
        check_workspace((4 * k + 3 * dim + 7 * rows) * D * D, f"{rows} span candidates on C^{D}")

    declare(1, 2 * k + 1)
    scaled = [g / np.max(np.abs(g)) for g in gens if np.any(g)]
    mult = basis = orthonormalize_span([*scaled, *map(adjoint, scaled), np.eye(D)])
    for g in scaled:
        # rounding of about eps·‖g‖ moves a cluster's projection by about that over the
        # cluster's gap (Davis–Kahan): below this gap the move would pass the span cut
        floor = np.finfo(float).eps * np.linalg.norm(g) / SPAN_RTOL
        for part in (g + adjoint(g), 1j * (g - adjoint(g))):
            if len(basis) < D * D and np.linalg.norm(part) > SPAN_RTOL:
                declare(len(basis), D)
                eigvals, vecs = np.linalg.eigh(part)
                cuts = np.flatnonzero(np.diff(eigvals) > floor) + 1
                seeds = [v @ v.conj().T for v in np.split(vecs, cuts, axis=1)]
                basis = np.concatenate([basis, _extend_span(basis, np.stack(seeds), 1.0)])
    done = 0
    while done < len(basis) < D * D:
        frontier, done = basis[done:], len(basis)
        for m in mult:
            declare(len(basis), len(frontier))
            basis = np.concatenate([basis, _extend_span(basis, m @ frontier, 1.0)])
    return AlgebraBasis(D, basis)


def _extend_span(basis: np.ndarray, cands: np.ndarray, scale: float) -> np.ndarray:
    """Orthonormal directions of ``cands`` off the span of ``basis``, cut at ``SPAN_RTOL·scale``."""
    D = cands.shape[-1]
    b, c = basis.reshape(len(basis), D * D), cands.reshape(len(cands), D * D)
    resid = c - (c @ b.conj().T) @ b
    if np.linalg.norm(resid) <= SPAN_RTOL * scale:  # bounds every singular value
        return basis[:0]
    _, s, vh = np.linalg.svd(resid, full_matrices=False)
    # one clean-up pass keeps the enlarged basis orthonormal; it moves norms to second order
    new = vh[s > SPAN_RTOL * scale]
    new -= (new @ b.conj().T) @ b
    return new.reshape(-1, D, D)


def commutant(algebra: AlgebraBasis) -> AlgebraBasis:
    """All operators on C^D commuting with every basis element, by :func:`_commutator_kernel`."""
    D = algebra.ambient_dim
    return AlgebraBasis(D, _commutator_kernel(algebra.basis, np.arange(D * D)).reshape(-1, D, D))


def _commutator_kernel(basis: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Orthonormal rows ``x`` over the row-major ``coords`` of ``D × D`` with every ``[x, b] = 0``.

    The kernel of the ``D² × D²`` Gram matrix of the stacked constraints,
    ``M x = x S₁ + S₂ x − Σ_b (b x b* + b* x b)`` with ``S₁ = Σ b b*`` and
    ``S₂ = Σ b* b``, so ``⟨x, M x⟩ = Σ_b ‖[x, b]‖²`` for any basis, *-closed or
    not; one product over the basis forms it.  ``M ≥ 0``, so its principal
    submatrix on ``coords`` has exactly the kernel restricted to them.  Zero
    is ``λ ≤ SPAN_RTOL·max(λ_max, 1)``: the squared singular-value cut
    ``SPAN_RTOL²`` would sit below the zero eigenvalues, near ``ε·λ_max``.
    ``M``, its submatrix and its eigenvectors take at most ``6·D⁴`` entries.
    """
    D = basis.shape[-1]
    check_workspace(6 * D**4, f"the commutator system on C^{D}")
    flat = basis.reshape(len(basis), D * D)
    # gram[i, k, j, l] = Σ_b b[i, k] · conj(b[j, l])
    gram = (flat.T @ flat.conj()).reshape(D, D, D, D)
    s1, s2 = np.einsum("ikjk->ij", gram), np.einsum("kjki->ij", gram)
    # −Σ_b (b ⊗ b̄ + b* ⊗ bᵀ), the sandwiches on row-major vec(x)
    system = -gram.transpose(0, 2, 1, 3)
    system -= gram.transpose(3, 1, 2, 0)
    for i in range(D):
        system[i, :, i, :] += s1.T
        system[:, i, :, i] += s2
    eigvals, vecs = np.linalg.eigh(system.reshape(D * D, D * D)[np.ix_(coords, coords)])
    return vecs[:, eigvals <= SPAN_RTOL * max(eigvals[-1], 1.0)].T


@dataclass(frozen=True, eq=False)
class JointEigenbasis:
    """Minimal projections of an abelian algebra on C^D as one unitary and cluster labels.

    ``p_i = V_i V_i*`` for the columns ``V_i`` of ``vecs`` labelled ``i``; column ``c``
    lies in block ``home[c]``, and ``ranks[i, k]`` counts the columns of ``p_i`` there.
    Holding ``D²`` entries instead of ``a`` dense ``D × D`` projections keeps large masas cheap.
    """

    vecs: np.ndarray  # (D, D) block-diagonal unitary, columns in block order
    labels: np.ndarray  # (D,) cluster of each column
    home: np.ndarray  # (D,) block of each column
    ranks: np.ndarray  # (a, blocks) integer

    def projection(self, i: int) -> np.ndarray:
        v = self.vecs[:, self.labels == i]
        return v @ v.conj().T

    def block_traces(self, x: np.ndarray) -> np.ndarray:
        """``T[i, k] = Tr_k(p_i x)`` for ``x`` in the diagonal blocks."""
        a, blocks = self.ranks.shape
        dots = np.vecdot(self.vecs, x @ self.vecs, axis=0).real
        return np.bincount(self.labels * blocks + self.home, dots, a * blocks).reshape(a, blocks)


@dataclass(frozen=True, eq=False)
class ProductBlocks:
    """Minimal projections ``L(p_i) R(q_j)`` of a left-right algebra, kept as factors.

    ``left`` and ``right`` hold the projections ``p_i`` and ``q_j`` on C^D as
    joint eigenbases, and ``pairs`` the index arrays ``(i, j)`` of the products
    a report keeps, in its order.
    """

    shape: TracedAlgebraShape
    left: JointEigenbasis
    right: JointEigenbasis
    pairs: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Multiplicity data of an abelian algebra: one entry per minimal projection.

    ``multiplicities[k]`` is the dimension of the range of the ``k``-th
    minimal projection; view it as a multiset via :attr:`multiset`.
    ``blocks`` holds the projections as a dense ``(k, n, n)`` array for a
    one-sided report, or as the :class:`ProductBlocks` factors of a
    left-right spectrum.
    """

    ambient_dim: int
    multiplicities: tuple[int, ...]
    blocks: np.ndarray | ProductBlocks = field(repr=False)

    @property
    def multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.multiplicities))

    @property
    def as_set(self) -> NSet:
        return NSet(self.multiplicities)

    @property
    def block_count(self) -> int:
        return len(self.multiplicities)


def minimal_projections(algebra: AlgebraBasis, seed: int) -> SpectrumReport:
    """Pairwise-orthogonal minimal projections of an abelian algebra.

    The projections are the joint eigenspaces of the basis, from the
    certified eigenbasis of :func:`_joint_eigenbasis`, which also decides
    abelianness.  Their count must be ``algebra.dim`` and each must lie in the
    span, or :class:`DegenerateSampleError` is raised at once: a fresh sample
    cannot change a certified eigenbasis.  Deterministic given the seed.
    Multiplicities are the dimensions of the projection ranges.  Stacking the
    projections is a stage of its own, ``(dim + 3)·D²`` entries with the
    eigenbasis and one span residual, declared once the eigenbasis is
    certified.  The eigenbasis reads the basis without a copy and declares
    no ``dim·D²`` for it, so a call can be refused at the projections after
    its ``eigh``.
    """
    D = algebra.ambient_dim
    if algebra.dim == 0:
        return SpectrumReport(D, (), np.zeros((0, D, D), dtype=complex))
    joint = _joint_eigenbasis(algebra.basis, TracedAlgebraShape.full_matrix(D), seed)
    mults = joint.ranks[:, 0]
    if len(mults) != algebra.dim:
        raise DegenerateSampleError(f"sample produced {len(mults)} clusters for dim {algebra.dim}")
    check_workspace((algebra.dim + 3) * D * D, f"{algebra.dim} projections on C^{D}")
    projections = np.empty((algebra.dim, D, D), dtype=complex)
    for i in range(algebra.dim):
        projections[i] = joint.projection(i)
    if any(algebra.span_residual(q) > MEMBER_TOL for q in projections):
        raise DegenerateSampleError("spectral projection left the span")
    return SpectrumReport(D, tuple(mults.tolist()), projections)


class _Rejected(Exception):
    """A sample whose clusters failed a certificate; the message says why."""


def _combination(rng: np.random.Generator, mats: np.ndarray, scales=1.0) -> np.ndarray:
    """``Σ_k c_k m_k / s_k`` for complex Gaussian ``c_k`` drawn from ``rng``, one product."""
    coeffs = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
    return ((coeffs / scales) @ mats.reshape(-1, mats.shape[-1] ** 2)).reshape(mats.shape[1:])


def _hermitian_sample(rng: np.random.Generator, mats: np.ndarray) -> np.ndarray:
    """``Σ_k (c_k m_k + c̄_k m_k*)`` for complex Gaussian ``c_k`` drawn from ``rng``."""
    sample = _combination(rng, mats)
    return sample + adjoint(sample)


def _joint_eigenbasis(gens, shape: TracedAlgebraShape, seed: int) -> JointEigenbasis:
    """Minimal projections and block ranks of the unital algebra of commuting normal generators.

    The generators, a list or a ``(k, D, D)`` stack, must lie in ``⊕_k M_{d_k}``.
    The projections are their joint eigenspaces, read off a random
    ``h = Σ_k (c_k g_k + c̄_k g_k*)``: one ``eigh`` per diagonal block gives the
    block-diagonal eigenbasis ``V``.  A sample is accepted when every generator is
    diagonal in ``V`` (the residual ``‖g V − V diag(μ_g)‖``, ``μ_g = diag(V* g V)``, is at most
    :data:`MEMBER_TOL` times ``max(1, ‖g‖)`` in Frobenius norm; NaN is not) and
    the clusters (runs of columns, in the order of ``h``'s eigenvalues over all
    blocks, whose neighbouring tuples ``μ`` differ by at most one rounding
    bound ``b``) carry tuples more than ``b`` apart; ranks are counts of
    columns.  A rejected sample is redrawn from the same seeded stream, up to
    :data:`MAX_RETRIES` times; then generators that fail
    :func:`_commutator_defect` (with each other or with their adjoints) raise
    :class:`NotAbelianError`, and anything else :class:`DegenerateSampleError`
    with the last reason.  A C-contiguous ``complex128`` stack, such as a
    read-only basis, is read as it is and never written; anything else is
    converted to one stack of ``k·D²`` entries, declared.  Beside the stack
    the sample with the eigenbasis and one block's ``eigh``, or the eigenbasis
    with the residuals or with the cluster comparisons (``2·D²`` for the
    gaps), or the failure path's commutators take at most ``3·D²``: with the
    eigenbasis :func:`mixed_spectrum` holds and numpy's ufunc buffer,
    ``5·D²``.  The joint eigenvalues, their steps and the ``k`` residuals take
    at most ``3k·D`` of the ``5k·D`` more declared.  The membership test, the
    residuals and the gaps run over chunks of ``c = max(1, ⌊A/D²⌋)``
    generators, ``A =`` :data:`CHUNK_ENTRIES` (one from ``D = 33`` on); a
    chunk's products, differences and numpy's two buffers for a broadcast
    operand take ``4A`` (128 KiB) more.  A larger workspace raises
    :class:`ResourceGuardError` before any is built.
    """
    D, k = shape.total_dim, len(gens)
    # the stack is charged only when np.ascontiguousarray will copy it
    read_as_is = isinstance(gens, np.ndarray) and gens.dtype == complex and gens.flags.c_contiguous
    entries = (0 if read_as_is else k * D * D) + 5 * D * D + 5 * k * D + 4 * CHUNK_ENTRIES
    check_workspace(entries, f"{k} generators on C^{D}")
    mats = np.ascontiguousarray(gens if k else np.empty((0, D, D)), dtype=complex)
    shape.check_member(mats)
    # Frobenius norms summed over the real view, with no k·D² temporary
    parts = mats.view(float).reshape(k, 2 * D * D)
    scales = np.maximum(1.0, np.sqrt(np.einsum("ki,ki->k", parts, parts)))
    slices, stages = shape.block_slices(), chunks(k, D)
    blocks, home = len(slices), np.repeat(np.arange(len(slices)), shape.blocks)

    def certify(h):
        eigvals, vecs = np.empty(D), np.zeros((D, D), dtype=complex)
        for sl in slices:
            eigvals[sl], vecs[sl, sl] = np.linalg.eigh(h[sl, sl])
        del h  # freed before the residuals
        mu, squares = np.empty((k, D), dtype=complex), np.zeros(k)
        for sl in slices:
            v = vecs[sl, sl]
            for part in stages:
                gv = mats[part, sl, sl] @ v
                mu[part, sl] = np.vecdot(v, gv, axis=-2)
                gv -= v * mu[part, None, sl]
                flat = gv.view(float).reshape(len(gv), -1)  # re and im side by side
                squares[part] += np.vecdot(flat, flat)
                del gv, flat  # freed before the next chunk and the cluster comparisons
        resid = np.sqrt(squares) / scales
        if (bad := (~(resid <= MEMBER_TOL)).nonzero()[0]).size:
            raise _Rejected(f"generator {bad[0]} has eigen-residual {resid[bad[0]]:.2e}")
        order = np.argsort(eigvals, kind="stable")
        mu = mu[:, order] / scales[:, None]
        # b: μ lies within its column's residual of an eigenvalue of the normal g
        # (Bauer–Fike), so two columns at one joint eigenvalue differ by at most 2·resid;
        # μ and the residual each round by at most 2·D·eps for a scaled g, 8·D·eps for a
        # pair, doubled for V's loss of orthonormality.  A diagonal h gives V a permutation.
        bound = 2 * resid.max(initial=0.0) + 16 * D * np.finfo(float).eps
        step = np.abs(mu[:, 1:] - mu[:, :-1]).max(axis=0, initial=0.0)
        cut = np.concatenate(([True], step > bound))
        starts, labels = cut.nonzero()[0], np.empty(D, dtype=int)
        labels[order] = np.cumsum(cut) - 1
        tuples = mu.take(starts, axis=1)  # C order: a chunk's rows stay contiguous
        gap = np.zeros((len(starts), len(starts)))
        for part in stages:
            np.maximum(gap, np.abs(tuples[part, :, None] - tuples[part, None]).max(axis=0), out=gap)
        np.fill_diagonal(gap, np.inf)
        if gap.min() <= bound:
            raise _Rejected("two clusters carry the same joint eigenvalues")
        ranks = np.bincount(labels * blocks + home, minlength=len(starts) * blocks)
        return JointEigenbasis(vecs, labels, home, ranks.reshape(len(starts), blocks))

    rng = np.random.default_rng(seed)
    for _ in range(1 + MAX_RETRIES):
        try:
            return certify(_hermitian_sample(rng, mats))
        except _Rejected as exc:
            reason = str(exc)
    defect = _commutator_defect(mats, rng, scales)
    if defect > COMMUTE_TOL:
        raise NotAbelianError(f"generators or their adjoints do not commute (defect {defect:.2e})")
    raise DegenerateSampleError(f"no separating sample after {MAX_RETRIES} retries: {reason}")


def _commutator_defect(mats: np.ndarray, rng: np.random.Generator, scales=1.0) -> float:
    """Largest entry of ``[a, b]`` and ``[a, b*]`` for random combinations ``a``, ``b`` of ``mats``.

    ``a`` and ``b`` are drawn as in :func:`_combination`, over ``scales``.  Both
    commutators vanish for every draw exactly when each ``m_k`` commutes with every
    ``m_l`` and ``m_l*``; otherwise they are non-zero with probability 1.
    That costs ``O(k·D² + D³)``, against ``k²`` products of ``D × D`` for
    the pairwise scan.
    """
    a, b = _combination(rng, mats, scales), _combination(rng, mats, scales)

    def defect(h):
        out = a @ h
        out -= h @ a
        return float(np.max(np.abs(out), initial=0.0))

    # [a, b] first, then [a, b*] with b* the transpose of b conjugated in place
    return max(defect(b), defect(np.conjugate(b, out=b).T))


def _product_report(shape, left, right, mults: np.ndarray, keep: np.ndarray) -> SpectrumReport:
    """The products ``L(p_i) R(q_j)`` at the ``(i, j)`` where ``keep`` holds, row by row."""
    pairs = np.nonzero(keep)
    kept = tuple(mults[pairs].tolist())
    return SpectrumReport(shape.gns_dim, kept, ProductBlocks(shape, left, right, pairs))


def mixed_spectrum(a_gens, b_gens, shape: TracedAlgebraShape, seed: int = 0) -> SpectrumReport:
    """Multiplicity spectrum of the algebra generated by left-A and right-B actions.

    Reports the minimal projections of ``alg({L(a)} ∪ {J L(b) J}) =
    alg({L(a)} ∪ {R(b*)})`` on the GNS space of ``shape``: the non-zero
    ``L(p_i) R(q_j)``, of multiplicity ``Σ_k rank_k(p_i) · rank_k(q_j)``, from
    the minimal projections of ``A`` and ``B`` on C^D.  No GNS-sized operator
    is built.  For a pair of masas in a full matrix algebra the answer is
    always ``{1}``; abelian non-maximal inputs are allowed and reported as-is.
    """
    left = _joint_eigenbasis(a_gens, shape, seed)
    same = b_gens is a_gens and isinstance(a_gens, np.ndarray)  # one stack: one eigenbasis
    right = left if same else _joint_eigenbasis(b_gens, shape, seed)
    mults = left.ranks @ right.ranks.T
    return _product_report(shape, left, right, mults, mults != 0)


def relative_commutant_dim(algebra: AlgebraBasis, shape: TracedAlgebraShape) -> int:
    """Dimension of {T in the multi-matrix algebra : T commutes with the basis}.

    The kernel of :func:`_commutator_kernel` on the entries inside the blocks.
    The spectra need no such system: for an abelian algebra the dimension is
    ``trace(R·Rᵀ)`` of its block-rank matrix (see the module docstring).
    """
    block = np.repeat(np.arange(len(shape.blocks)), shape.blocks)
    return len(_commutator_kernel(algebra.basis, np.flatnonzero(block[:, None] == block)))


def finite_puk_spectrum(a_gens, shape: TracedAlgebraShape, seed: int = 0) -> SpectrumReport:
    """Spectrum of alg(L(A) ∪ R(A)) off the subspace spanned by the masa itself.

    With ``p_i`` the minimal projections of the masa, ``L(p_i) R(p_j)`` maps
    ``p_l`` to ``δ_il δ_lj p_i``, so the span of the masa lies in the diagonal
    pairs ``i == j``.  Each of those has rank 1 for a masa and is exactly that
    span; the report keeps the non-zero pairs ``i ≠ j``.  For the diagonal
    masa of M_n this is ``{1}`` with n²−n blocks.
    """
    basis = _joint_eigenbasis(a_gens, shape, seed)
    mults = basis.ranks @ basis.ranks.T
    # the commutant of A in ⊕_k M_{d_k} is ⊕_{i,k} M_{rank_k(p_i)}, of dimension
    # trace(R Rᵀ); A is maximal exactly when that is its own dimension
    if np.any(np.diagonal(mults) != 1):
        raise NotMasaError(
            f"relative commutant has dimension {int(np.trace(mults))} > "
            f"algebra dimension {len(mults)}"
        )
    off_diagonal = ~np.eye(len(mults), dtype=bool)
    return _product_report(shape, basis, basis, mults, (mults != 0) & off_diagonal)


def cutdown_spectrum(algebra: AlgebraBasis, p, seed: int = 0) -> SpectrumReport:
    """Spectrum of the minimal projections of an abelian algebra dominated by ``p``.

    ``p`` must be (numerically) a projection lying in the span of the algebra;
    the report then covers only the compressed corner, so its multiplicities
    sum to the rank of ``p`` rather than the ambient dimension.
    """
    P = as_matrix(p)
    if np.max(np.abs(P)) < MEMBER_TOL:
        D = algebra.ambient_dim
        return SpectrumReport(D, (), np.zeros((0, D, D), dtype=complex))
    if np.max(np.abs(P - adjoint(P))) > MEMBER_TOL or np.max(np.abs(P @ P - P)) > MEMBER_TOL:
        raise ValueError("cutdown target is not a projection")
    resid = algebra.span_residual(P)
    if resid > MEMBER_TOL:
        raise NotInAlgebraError(f"projection residual {resid:.2e} onto the span is too large")
    report = minimal_projections(algebra, seed)
    keep_mults, keep_blocks = [], []
    for mult, q in zip(report.multiplicities, report.blocks):
        overlap = float(np.vdot(P, q).real)  # Tr(q P), since P is Hermitian
        if abs(overlap - mult) <= MEMBER_TOL * max(1.0, mult):
            keep_mults.append(mult)
            keep_blocks.append(q)
        elif overlap > MEMBER_TOL * max(1.0, mult):
            raise NotInAlgebraError("cutdown does not split along the minimal projections")
    D = algebra.ambient_dim
    blocks = np.stack(keep_blocks) if keep_blocks else np.zeros((0, D, D), dtype=complex)
    return SpectrumReport(D, tuple(keep_mults), blocks)
