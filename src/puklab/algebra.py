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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import DEFAULT_GNS_CAP, GnsSpace, TracedAlgebraShape, adjoint, as_matrix
from .errors import (
    DegenerateSampleError,
    NotAbelianError,
    NotInAlgebraError,
    NotMasaError,
    ResourceGuardError,
)
from .nsets import NSet

# Span closure keeps SVD directions above this relative threshold.
SPAN_RTOL = 1e-9
# Gram matrix of a basis must be the identity to within this.
GRAM_TOL = 1e-10
# Adjoint-closure residual allowed for a *-closed basis.
ADJOINT_TOL = 1e-9
# Membership residual for projections extracted from an algebra.
MEMBER_TOL = 1e-8
# Pairwise commutator bound below which an algebra counts as abelian.
COMMUTE_TOL = 1e-9
# Eigenvalue clusters split at relative gaps above this.
EIG_GAP_RTOL = 1e-7
# Fresh random samples drawn before giving up on separating projections.
MAX_RETRIES = 8
# Cap on the GNS dimension of spaces built by the spectrum routines.
GNS_DIM_CAP = DEFAULT_GNS_CAP


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

    def max_commutator(self) -> float:
        worst = 0.0
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                comm = self.basis[i] @ self.basis[j] - self.basis[j] @ self.basis[i]
                worst = max(worst, float(np.max(np.abs(comm))))
        return worst

    def is_abelian(self, tol: float = COMMUTE_TOL) -> bool:
        return self.max_commutator() < tol


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
class ProductBlocks:
    """Minimal projections ``L(p_i) R(q_j)`` of a left-right algebra, kept as factors.

    ``left`` and ``right`` hold the projections ``p_i`` and ``q_j`` on C^D, and
    ``pairs`` the ``(i, j)`` of the products a report keeps, in its order.
    """

    shape: TracedAlgebraShape
    left: np.ndarray  # (a, D, D)
    right: np.ndarray  # (b, D, D)
    pairs: tuple[tuple[int, int], ...]

    def dense(self) -> np.ndarray:
        """The kept products as ``(k, gns_dim, gns_dim)`` operators on the GNS space."""
        space = GnsSpace(self.shape)
        out = np.zeros((len(self.pairs), space.dim, space.dim), dtype=complex)
        for k, (i, j) in enumerate(self.pairs):
            out[k] = space.left(self.left[i]) @ space.right(self.right[j])
        return out


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Multiplicity data of an abelian algebra: one entry per minimal projection.

    ``multiplicities[k]`` is the dimension of the range of
    ``block_projections[k]``; view it as a multiset via :attr:`multiset`.
    ``blocks`` holds the projections as a dense ``(k, n, n)`` array, or as the
    :class:`ProductBlocks` factors of a left-right spectrum, in which case
    :attr:`block_projections` builds the dense operators on first read.
    """

    ambient_dim: int
    multiplicities: tuple[int, ...]
    blocks: np.ndarray | ProductBlocks = field(repr=False)

    @cached_property
    def block_projections(self) -> np.ndarray:
        """The minimal projections as a dense ``(k, n, n)`` array."""
        if isinstance(self.blocks, ProductBlocks):
            return self.blocks.dense()
        return self.blocks

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

    A random self-adjoint element is eigendecomposed and its spectral
    projections are the candidates; a generic element separates all minimal
    idempotents, and failures (merged clusters or membership residuals) get a
    fresh sample up to :data:`MAX_RETRIES` times.  Deterministic given the
    seed.  Multiplicities are the dimensions of the projection ranges.
    """
    defect = algebra.max_commutator()
    if defect >= COMMUTE_TOL:
        raise NotAbelianError(f"basis elements do not commute (defect {defect:.2e})")
    D = algebra.ambient_dim
    if algebra.dim == 0:
        return SpectrumReport(D, (), np.zeros((0, D, D), dtype=complex))
    rng = np.random.default_rng(seed)
    last_reason = ""
    for _ in range(1 + MAX_RETRIES):
        coeffs = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
        sample = np.tensordot(coeffs, algebra.basis, axes=1)
        sample = (sample + adjoint(sample)) / 2
        eigvals, eigvecs = np.linalg.eigh(sample)
        clusters = _split_eigenvalues(eigvals)
        if len(clusters) != algebra.dim:
            last_reason = f"sample produced {len(clusters)} clusters for dim {algebra.dim}"
            continue
        projections, ok = [], True
        for idx in clusters:
            vecs = eigvecs[:, idx]
            proj = vecs @ vecs.conj().T
            if algebra.span_residual(proj) > MEMBER_TOL:
                ok = False
                last_reason = "spectral projection left the span"
                break
            projections.append(proj)
        if ok:
            mults = tuple(len(idx) for idx in clusters)
            return SpectrumReport(D, mults, np.stack(projections))
    raise DegenerateSampleError(f"no separating sample after {MAX_RETRIES} retries: {last_reason}")


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


def _check_gns_cap(shape: TracedAlgebraShape, cap: int):
    if shape.gns_dim > cap:
        raise ResourceGuardError(
            f"GNS dimension {shape.gns_dim} exceeds the cap {cap}; raise the cap to proceed"
        )


def _member_algebra(gens, shape: TracedAlgebraShape) -> AlgebraBasis:
    """The unital algebra on C^D of generators checked to lie in ``⊕_k M_{d_k}``."""
    mats = [as_matrix(g) for g in gens]
    for m in mats:
        shape.check_member(m)
    return generate_algebra(mats or [np.eye(shape.total_dim, dtype=complex)])


def _block_ranks(algebra: AlgebraBasis, shape: TracedAlgebraShape, seed: int):
    """Minimal projections of an abelian algebra on C^D and their rank in each block.

    Returns the ``(a, D, D)`` projections and the ``(a, blocks)`` integer
    matrix of ``Tr(p_i[sl, sl])``; a trace farther than :data:`MEMBER_TOL`
    from an integer means the sample did not give clean projections.
    """
    projs = minimal_projections(algebra, seed).block_projections
    traces = np.stack(
        [np.trace(projs[:, sl, sl], axis1=1, axis2=2).real for sl in shape.block_slices()],
        axis=1,
    )
    ranks = np.rint(traces)
    worst = float(np.max(np.abs(traces - ranks)))
    if worst > MEMBER_TOL:
        raise DegenerateSampleError(f"a block rank is {worst:.2e} away from an integer")
    return projs, ranks.astype(int)


def _product_report(shape, left, right, mults: np.ndarray, pairs) -> SpectrumReport:
    pairs = tuple((int(i), int(j)) for i, j in pairs)
    return SpectrumReport(
        shape.gns_dim, tuple(int(mults[p]) for p in pairs), ProductBlocks(shape, left, right, pairs)
    )


def mixed_spectrum(
    a_gens, b_gens, shape: TracedAlgebraShape, seed: int = 0, cap: int = GNS_DIM_CAP
) -> SpectrumReport:
    """Multiplicity spectrum of the algebra generated by left-A and right-B actions.

    Reports the minimal projections of ``alg({L(a)} ∪ {J L(b) J}) =
    alg({L(a)} ∪ {R(b*)})`` on the GNS space of ``shape``: the non-zero
    ``L(p_i) R(q_j)``, of multiplicity ``Σ_k rank_k(p_i) · rank_k(q_j)``, from
    the minimal projections of ``A`` and ``B`` on C^D.  No GNS-sized operator
    is built.  For a pair of masas in a full matrix algebra the answer is
    always ``{1}``; abelian non-maximal inputs are allowed and reported as-is.
    """
    _check_gns_cap(shape, cap)
    a_alg = _member_algebra(a_gens, shape)
    b_alg = _member_algebra(b_gens, shape)
    left, left_ranks = _block_ranks(a_alg, shape, seed)
    right, right_ranks = _block_ranks(b_alg, shape, seed)
    mults = left_ranks @ right_ranks.T
    return _product_report(shape, left, right, mults, zip(*np.nonzero(mults)))


def relative_commutant_dim(algebra: AlgebraBasis, shape: TracedAlgebraShape) -> int:
    """Dimension of {T in the multi-matrix algebra : T commutes with the basis}."""
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


def finite_puk_spectrum(
    a_gens, shape: TracedAlgebraShape, seed: int = 0, cap: int = GNS_DIM_CAP
) -> SpectrumReport:
    """Spectrum of alg(L(A) ∪ R(A)) off the subspace spanned by the masa itself.

    With ``p_i`` the minimal projections of the masa, ``L(p_i) R(p_j)`` maps
    ``p_l`` to ``δ_il δ_lj p_i``, so the span of the masa lies in the diagonal
    pairs ``i == j``.  Each of those has rank 1 for a masa and is exactly that
    span; the report keeps the non-zero pairs ``i ≠ j``.  For the diagonal
    masa of M_n this is ``{1}`` with n²−n blocks.
    """
    _check_gns_cap(shape, cap)
    small = _member_algebra(a_gens, shape)
    if not small.is_abelian():
        raise NotAbelianError("generators do not span an abelian algebra")
    rel_dim = relative_commutant_dim(small, shape)
    if rel_dim != small.dim:
        raise NotMasaError(
            f"relative commutant has dimension {rel_dim} > algebra dimension {small.dim}"
        )
    projs, ranks = _block_ranks(small, shape, seed)
    mults = ranks @ ranks.T
    if np.any(np.diagonal(mults) != 1):
        raise NotMasaError("a minimal projection straddles the masa subspace")
    pairs = [(i, j) for i, j in zip(*np.nonzero(mults)) if i != j]
    return _product_report(shape, projs, projs, mults, pairs)


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
    for mult, q in zip(report.multiplicities, report.block_projections):
        overlap = float(np.trace(q @ P).real)
        if abs(overlap - mult) <= MEMBER_TOL * max(1.0, mult):
            keep_mults.append(mult)
            keep_blocks.append(q)
        elif overlap > MEMBER_TOL * max(1.0, mult):
            raise NotInAlgebraError("cutdown does not split along the minimal projections")
    D = algebra.ambient_dim
    blocks = np.stack(keep_blocks) if keep_blocks else np.zeros((0, D, D), dtype=complex)
    return SpectrumReport(D, tuple(keep_mults), blocks)
