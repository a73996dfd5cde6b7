"""Generated *-algebras, commutants, minimal projections, and multiplicity spectra.

Operators are dense matrices on an ambient C^D.  An algebra is held as an
orthonormal basis of its span under the Hilbert-Schmidt inner product
``⟨A, B⟩ = Tr(B* A)``; rank decisions go through SVD with a relative
threshold so that span computations stay stable near machine precision.

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

Nor do they build an algebra basis.  The minimal projections of the unital
algebra of commuting normal generators are their joint eigenspaces, so one
``eigh`` of a random self-adjoint combination of the generators gives them,
once every generator is certified diagonal in its eigenbasis (the one-element
block-diagonalisation of Murota, Kanno, Kojima and Kojima, Japan J. Indust.
Appl. Math. 27, 2010).  The masa test needs no commutant either: the commutant
of an abelian ``A`` in ``⊕_k M_{d_k}`` is ``⊕_{i,k} M_{rank_k(p_i)}``, of
dimension ``trace(R_A · R_Aᵀ)``, so ``A`` is maximal exactly when the diagonal
of ``R_A · R_Aᵀ`` is all ones.

``minimal_projections`` reads the same certificate, with an algebra's basis
as the generators, so one eigendecomposition also decides whether an algebra
is abelian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import TracedAlgebraShape, adjoint, as_matrix, check_workspace
from .errors import DegenerateSampleError, NotAbelianError, NotInAlgebraError, NotMasaError
from .nsets import NSet

# Span closure keeps SVD directions above this relative threshold.
SPAN_RTOL = 1e-9
# Membership residual for projections extracted from an algebra.
MEMBER_TOL = 1e-8
# Commutator entries at most this count as zero in the abelian test.
COMMUTE_TOL = 1e-9
# Eigenvalue clusters split at relative gaps above this.
EIG_GAP_RTOL = 1e-7
# Fresh random samples drawn before giving up on separating projections.
MAX_RETRIES = 8


@dataclass(frozen=True, eq=False)
class AlgebraBasis:
    """An orthonormal spanning set of a *-closed operator algebra on C^D."""

    ambient_dim: int
    basis: np.ndarray  # (dim, D, D), orthonormal under Hilbert-Schmidt
    unital: bool = True

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
        coeffs = self.basis_matrix().conj() @ v
        return float(np.linalg.norm(v - self.basis_matrix().T @ coeffs))

    def gram_defect(self) -> float:
        b = self.basis_matrix()
        return float(np.max(np.abs(b @ b.conj().T - np.eye(self.dim))))

    def adjoint_defect(self) -> float:
        return max((self.span_residual(adjoint(b)) for b in self.basis), default=0.0)


def orthonormalize_span(mats, rtol: float = SPAN_RTOL) -> np.ndarray:
    """Orthonormal basis of the span of the given matrices, via SVD."""
    stack = np.stack([as_matrix(m) for m in mats])
    k, D, _ = stack.shape
    _, s, vh = np.linalg.svd(stack.reshape(k, -1), full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, D, D), dtype=complex)
    keep = s > rtol * s[0]
    return vh[keep].reshape(-1, D, D)


def generate_algebra(generators, unital: bool = True) -> AlgebraBasis:
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
    return AlgebraBasis(D, np.ascontiguousarray(basis), unital)


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


def commutant(algebra: AlgebraBasis) -> AlgebraBasis:
    """All operators commuting with every basis element, as a nullspace problem.

    The constraints are taken against the orthonormal basis rather than raw
    generators, which keeps the stacked system well scaled.
    """
    D = algebra.ambient_dim
    if algebra.dim == 0:
        units = np.zeros((D * D, D, D), dtype=complex)
        ii, jj = np.divmod(np.arange(D * D), D)
        units[np.arange(D * D), ii, jj] = 1.0
        return AlgebraBasis(D, units, unital=True)
    eye = np.eye(D, dtype=complex)
    rows = [np.kron(eye, b.T) - np.kron(b, eye) for b in algebra.basis]
    constraints = np.concatenate(rows)
    _, s, vh = np.linalg.svd(constraints, full_matrices=False)
    null = np.conj(vh[s <= SPAN_RTOL * max(s[0], 1.0)])
    return AlgebraBasis(D, null.reshape(-1, D, D), unital=True)


@dataclass(frozen=True, eq=False)
class JointEigenbasis:
    """Minimal projections of an abelian algebra on C^D as one unitary and cluster labels.

    ``p_i = V_i V_i*`` for the columns ``V_i`` of ``vecs`` labelled ``i``;
    ``ranks[i, k]`` is the rank of ``p_i`` in block ``k``.  Holding ``D²``
    entries instead of ``a`` dense ``D × D`` projections keeps large masas cheap.
    """

    vecs: np.ndarray  # (D, D) unitary, columns grouped by cluster
    labels: np.ndarray  # (D,) cluster of each column
    ranks: np.ndarray  # (a, blocks) integer

    def projection(self, i: int) -> np.ndarray:
        v = self.vecs[:, self.labels == i]
        return v @ v.conj().T

    def block_traces(self, x: np.ndarray, slices) -> np.ndarray:
        """``T[i, k] = Tr_k(p_i x)`` for ``x`` in the blocks cut out by ``slices``."""
        starts = np.flatnonzero(np.diff(self.labels, prepend=-1))
        return _cluster_block_traces(self.vecs, x @ self.vecs, starts, slices)


def _cluster_block_traces(vecs, xvecs, starts, slices) -> np.ndarray:
    """``Tr_k(V_i V_i* x)`` of block-diagonal ``x`` from ``xvecs = x V`` and cluster ``starts``."""
    dots = (vecs.conj() * xvecs).real
    per_block = np.stack([dots[sl].sum(axis=0) for sl in slices], axis=1)
    return np.add.reduceat(per_block, starts)


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
        return NSet.from_iterable(self.multiplicities)

    @property
    def total(self) -> int:
        return sum(self.multiplicities)

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
    Multiplicities are the dimensions of the projection ranges; the dense
    projections take ``dim·D²`` entries beyond the eigenbasis' workspace.
    """
    D = algebra.ambient_dim
    if algebra.dim == 0:
        return SpectrumReport(D, (), np.zeros((0, D, D), dtype=complex))
    check_workspace(algebra.dim * D * D, f"{algebra.dim} projections on C^{D}")
    joint = _joint_eigenbasis(algebra.basis, TracedAlgebraShape.full_matrix(D), seed)
    mults = joint.ranks[:, 0]
    if len(mults) != algebra.dim:
        raise DegenerateSampleError(f"sample produced {len(mults)} clusters for dim {algebra.dim}")
    projections = np.stack([joint.projection(i) for i in range(algebra.dim)])
    if any(algebra.span_residual(q) > MEMBER_TOL for q in projections):
        raise DegenerateSampleError("spectral projection left the span")
    return SpectrumReport(D, tuple(mults.tolist()), projections)


class _Rejected(Exception):
    """A sample whose clusters failed a certificate; the message says why."""


def _combination(rng: np.random.Generator, mats: np.ndarray) -> np.ndarray:
    """``Σ_k c_k m_k`` for complex Gaussian ``c_k`` drawn from ``rng``."""
    coeffs = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
    return np.tensordot(coeffs, mats, axes=1)


def _hermitian_sample(rng: np.random.Generator, mats: np.ndarray) -> np.ndarray:
    """``Σ_k (c_k m_k + c̄_k m_k*)`` for complex Gaussian ``c_k`` drawn from ``rng``."""
    sample = _combination(rng, mats)
    return sample + adjoint(sample)


def _split_eigenvalues(eigvals: np.ndarray) -> list[np.ndarray]:
    """Indices of eigenvalue clusters, split at relative gaps above EIG_GAP_RTOL."""
    scale = max(1.0, float(np.max(np.abs(eigvals))))
    spread = float(eigvals[-1] - eigvals[0])
    if spread <= 1e-12 * scale:
        # the whole spectrum is one atom; any spread is rounding noise
        return [np.arange(len(eigvals))]
    gaps = np.diff(eigvals)
    boundaries = np.flatnonzero(gaps > EIG_GAP_RTOL * spread)
    return np.split(np.arange(len(eigvals)), boundaries + 1)


def _joint_eigenbasis(gens, shape: TracedAlgebraShape, seed: int) -> JointEigenbasis:
    """Minimal projections and block ranks of the unital algebra of commuting normal generators.

    The generators must lie in ``⊕_k M_{d_k}``.  The projections are their
    joint eigenspaces, read off one ``eigh`` of a random
    ``h = Σ_k (c_k g_k + c̄_k g_k*)`` with eigenbasis ``V``.  The sample is
    accepted only when every generator is diagonal in ``V`` (the residual
    ``‖g V − V diag(μ_g)‖``, ``μ_g = diag(V* g V)``, is at most
    :data:`MEMBER_TOL` times ``max(1, ‖g‖)`` in Frobenius norm), the joint
    eigenvalue tuple is constant on each eigenvalue cluster of ``h`` and
    differs between clusters, and each block rank ``‖V[sl_k, cluster_i]‖²``
    is within :data:`MEMBER_TOL` of an integer.  A rejected sample is redrawn
    from the same seeded stream, up to :data:`MAX_RETRIES` times; once the
    retries run out, generators that fail :func:`_commutator_defect` (with
    each other or with their adjoints) raise :class:`NotAbelianError`,
    anything else :class:`DegenerateSampleError` with the last reason.  The
    ``k`` generators, the sample, its eigenbasis and the commutators of the
    failure path take at most ``(5k + 4)·D²`` entries; a larger workspace
    raises :class:`ResourceGuardError` before any of them is built.
    """
    D, gens = shape.total_dim, list(gens)
    check_workspace((5 * len(gens) + 4) * D * D, f"{len(gens)} generators on C^{D}")
    mats = np.empty((len(gens), D, D), dtype=complex)
    for k, g in enumerate(gens):
        g = as_matrix(g)
        shape.check_member(g)
        mats[k] = g
    scales = np.maximum(1.0, np.linalg.norm(mats, axis=(1, 2)))
    slices = shape.block_slices()

    def certify(vecs, clusters):
        starts = np.array([idx[0] for idx in clusters])
        labels = np.repeat(np.arange(len(clusters)), [len(idx) for idx in clusters])
        mu = np.empty((len(mats), D), dtype=complex)
        vecs_conj = vecs.conj()
        for k, g in enumerate(mats):
            gv = g @ vecs
            mu[k] = np.einsum("ij,ij->j", vecs_conj, gv)
            resid = float(np.linalg.norm(gv - vecs * mu[k])) / scales[k]
            if resid > MEMBER_TOL:
                raise _Rejected(f"generator {k} has eigen-residual {resid:.2e}")
        mu /= scales[:, None]
        tuples = mu[:, starts]
        spread = float(np.max(np.abs(mu - tuples[:, labels]), initial=0.0))
        if spread > MEMBER_TOL:
            raise _Rejected(f"a cluster merges joint eigenvalues {spread:.2e} apart")
        gap = np.zeros((len(clusters), len(clusters)))
        for row in tuples:
            np.maximum(gap, np.abs(row[:, None] - row[None, :]), out=gap)
        np.fill_diagonal(gap, np.inf)
        if gap.min() <= MEMBER_TOL:
            raise _Rejected("two clusters carry the same joint eigenvalues")
        traces = _cluster_block_traces(vecs, vecs, starts, slices)
        ranks = np.rint(traces)
        worst = float(np.max(np.abs(traces - ranks)))
        if worst > MEMBER_TOL:
            raise _Rejected(f"a block rank is {worst:.2e} away from an integer")
        return JointEigenbasis(vecs, labels, ranks.astype(int))

    rng = np.random.default_rng(seed)
    for _ in range(1 + MAX_RETRIES):
        eigvals, vecs = np.linalg.eigh(_hermitian_sample(rng, mats))
        try:
            return certify(vecs, _split_eigenvalues(eigvals))
        except _Rejected as exc:
            reason = str(exc)
    mats /= scales[:, None, None]
    defect = _commutator_defect(mats, rng)
    if defect > COMMUTE_TOL:
        raise NotAbelianError(f"generators or their adjoints do not commute (defect {defect:.2e})")
    raise DegenerateSampleError(f"no separating sample after {MAX_RETRIES} retries: {reason}")


def _commutator_defect(mats: np.ndarray, rng: np.random.Generator) -> float:
    """Largest entry of ``[a, b]`` and ``[a, b*]`` for random combinations ``a``, ``b`` of ``mats``.

    ``a`` and ``b`` are drawn as in :func:`_combination`.  Both commutators
    vanish for every draw exactly when each ``m_k`` commutes with every
    ``m_l`` and ``m_l*``; otherwise they are non-zero with probability 1.
    That costs ``O(k·D² + D³)``, against ``k²`` products of ``D × D`` for
    the pairwise scan.
    """
    a, b = _combination(rng, mats), _combination(rng, mats)
    return max(float(np.max(np.abs(a @ h - h @ a), initial=0.0)) for h in (b, adjoint(b)))


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
    right = _joint_eigenbasis(b_gens, shape, seed)
    mults = left.ranks @ right.ranks.T
    return _product_report(shape, left, right, mults, mults != 0)


def relative_commutant_dim(algebra: AlgebraBasis, shape: TracedAlgebraShape) -> int:
    """Dimension of {T in the multi-matrix algebra : T commutes with the basis}.

    Solves the dense ``D²·dim × Σ_k d_k²`` commutation system.  The spectrum
    routines need no such system: for an abelian algebra the dimension is
    ``trace(R·Rᵀ)`` of its block-rank matrix (see the module docstring).
    """
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
        columns.append(
            np.concatenate([(mat @ b - b @ mat).reshape(-1) for b in algebra.basis])
        )
    system = np.stack(columns, axis=1)
    s = np.linalg.svd(system, compute_uv=False)
    if s.size == 0:
        return len(units)
    return int(np.sum(s <= SPAN_RTOL * max(s[0], 1.0))) + len(units) - len(s)


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
        overlap = float(np.trace(q @ P).real)
        if abs(overlap - mult) <= MEMBER_TOL * max(1.0, mult):
            keep_mults.append(mult)
            keep_blocks.append(q)
        elif overlap > MEMBER_TOL * max(1.0, mult):
            raise NotInAlgebraError("cutdown does not split along the minimal projections")
    D = algebra.ambient_dim
    blocks = np.stack(keep_blocks) if keep_blocks else np.zeros((0, D, D), dtype=complex)
    return SpectrumReport(D, tuple(keep_mults), blocks)
