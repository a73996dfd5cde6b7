"""Shift gadgets, truncated tensor-product automorphisms, and their certified identities.

The gadget on ``M_n`` pairs the diagonal masa with the circulant masa
generated by the cyclic shift ``w``; the unitary ``v = Σ_i w^i ⊗ f_i`` lifts
the shift one tensor slot at a time.  The product automorphisms built from
copies of ``v`` only ever act through finitely many slots on any fixed
element, so depth-``k`` truncations on ``M_n^{⊗(k+1)}`` reproduce them
exactly where it matters.  The check routines here certify, numerically and
to stated tolerances, the inner-product, spanning, and intertwining
identities that the multiplicity analysis of the conjugated masa pair rests
on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_matrix, check_workspace
from .errors import InvalidLambdaError
from .nsets import INF, NSet, is_valid_value, tensor_mixed, tensor_mixed_infinite


@dataclass(frozen=True, eq=False)
class ShiftGadget:
    """The cyclic shift ``w`` on ``M_n`` with both masas it ties together.

    ``e[i]`` are the diagonal minimal projections, ``f[i]`` the spectral
    projections of ``w`` (Fourier averages ``f_i = n^{-1} Σ_k ω^{-ik} w^k``),
    and ``v = Σ_i w^i ⊗ f_i`` is the step unitary in ``M_n ⊗ M_n``, built on
    first use since it is quadratically larger than everything else.
    """

    n: int
    w: np.ndarray
    e: np.ndarray  # (n, n, n)
    f: np.ndarray  # (n, n, n)

    def __post_init__(self):
        for arr in (self.w, self.e, self.f):
            arr.flags.writeable = False

    @property
    def v(self) -> np.ndarray:
        cached = self.__dict__.get("_v")
        if cached is None:
            # w^i has its ones at (a, a + i), so v[(a, b), (c, d)] = f[(c − a) mod n][b, d]
            a = np.arange(self.n)
            shift = (a[None, :] - a[:, None]) % self.n
            cached = self.f[shift].transpose(0, 2, 1, 3).reshape(self.n**2, self.n**2)
            cached.flags.writeable = False
            object.__setattr__(self, "_v", cached)
        return cached


def build_gadget(n: int) -> ShiftGadget:
    """Construct the shift gadget on ``M_n`` for ``n ≥ 2``."""
    if n < 2:
        raise ValueError("the gadget needs n >= 2")
    w = np.roll(np.eye(n, dtype=complex), -1, axis=0)
    a = np.arange(n)
    e = np.zeros((n, n, n), dtype=complex)
    e[a, a, a] = 1.0
    phi = _shift_eigenvectors(n)
    f = phi[:, :, None] * phi.conj()[:, None, :]
    return ShiftGadget(n, w, e, f)


def _shift_eigenvectors(n: int) -> np.ndarray:
    """``φ_i[a] = ω^{ia}/√n``, the eigenvector of ``w`` with eigenvalue ``ω^i``.

    The matrix is symmetric, so ``φ_i`` is both its row and its column ``i``;
    the spectral projections are ``f_i = φ_i φ_i*``.
    """
    a = np.arange(n)
    return np.exp(2j * np.pi * (np.outer(a, a) % n) / n) / np.sqrt(n)


@dataclass(frozen=True, eq=False)
class TruncatedAutomorphism:
    """Conjugation by a finite product of commuting step unitaries.

    ``kind="theta"`` multiplies the steps at every slot up to the depth,
    ``kind="phi"`` only the odd ones.  The implementing unitary lives in
    ``M_n^{⊗(depth+1)}`` and has order ``n``; conjugation preserves the
    normalized trace.
    """

    gadget: ShiftGadget
    depth: int
    kind: str
    unitary: np.ndarray

    def __post_init__(self):
        self.unitary.flags.writeable = False

    @classmethod
    def build(cls, gadget: ShiftGadget, depth: int, kind: str = "theta") -> "TruncatedAutomorphism":
        """The product of the steps ``v`` in slots ``r, r+1`` of ``M_n^{⊗(depth+1)}``.

        Each step multiplies the running product from the left, applied as
        ``v`` to the slot pair ``r, r+1`` of its rows by a reshape, at
        ``n²·dim²`` per step; no step is embedded as a ``dim × dim`` matrix.
        The steps commute, so their order does not matter.
        """
        if kind not in ("theta", "phi"):
            raise ValueError(f"kind must be 'theta' or 'phi', got {kind!r}")
        if depth < 0:
            raise ValueError("depth must be non-negative")
        n = gadget.n
        dim = n ** (depth + 1)
        # the running product, the next one, and v with its gather (n⁴ ≤ dim² once a step acts)
        check_workspace(4 * dim * dim, f"a depth-{depth} unitary for n={n}")
        unitary = np.eye(dim, dtype=complex)
        for r in range(1, depth + 1, 1 if kind == "theta" else 2):
            unitary = (gadget.v @ unitary.reshape(n ** (r - 1), n * n, -1)).reshape(dim, dim)
        return cls(gadget, depth, kind, unitary)

    @property
    def ambient_dim(self) -> int:
        return self.gadget.n ** (self.depth + 1)

    def apply(self, x) -> np.ndarray:
        m = as_matrix(x)
        if m.shape[0] != self.ambient_dim:
            raise ValueError(f"element of dimension {m.shape[0]} does not fit {self.ambient_dim}")
        return self.unitary @ m @ self.unitary.conj().T


def _theta_factors(n: int, depth: int):
    """The factors that every shift-gadget certificate is read from.

    Write ``U`` for the depth-``depth`` θ unitary on ``M_n^{⊗(depth+1)}``,
    ``dim = n^{depth+1}`` and ``count = n^depth``.  The certified elements are
    ``X[t, J] = (f_t ⊗ 1) θ(e_J ⊗ 1)`` with ``J`` over the first ``depth``
    slots.  Since ``f_t = φ_t φ_t*`` and ``θ(e_J ⊗ 1) = S_J S_J*`` for the
    ``n`` columns ``S_J`` of ``U`` labelled by ``J``, row ``(i, I')`` of
    ``X[t, J]`` is ``φ_t[i] · ψ_t[I', J-cols] · S_J*`` with
    ``ψ_t = (φ_t* ⊗ 1) U``.  So the inner products of the family need only
    ``ψ`` and ``P = U*U``; ``P`` enters every one of them, and unitarity of
    ``U`` is never assumed.

    Returns ``(phi, psi, gram)``: ``phi[:, t] = φ_t``, ``psi[t] = ψ_t`` of
    shape ``(count, dim)`` and ``gram = P``.  The count
    ``4n³`` covers the gadget's ``e`` and ``f`` with the buffers numpy takes to
    broadcast ``f``, and ``8·dim²`` covers ``U``, its steps, ``ψ`` and ``P``
    with the products the certificates form from them.
    """
    dim, count = n ** (depth + 1), n**depth
    check_workspace(4 * n**3 + 8 * dim * dim, f"the depth-{depth} θ factors for n={n}")
    unitary = TruncatedAutomorphism.build(build_gadget(n), depth).unitary
    phi = _shift_eigenvectors(n)
    psi = (phi.conj().T @ unitary.reshape(n, count * dim)).reshape(n, count, dim)
    return phi, psi, unitary.conj().T @ unitary


def _tiles(psi: np.ndarray, depth: int) -> np.ndarray:
    """``ψ`` as the tiles ``T[t, I'', k, J, l] = ψ_t[(I'', k), (J, l)]``.

    A row block of ``n`` rows is ``I = (i, I'')``, the first slot ``i``
    followed by ``I''``; its rows ``k`` are the last slot.  At depth 0 there
    is no ``I''`` and the tile of each ``t`` is the single row ``ψ_t``.
    """
    n, count, _ = psi.shape
    rows = n if depth else 1
    return psi.reshape(n, count // rows, rows, count, n)


def _first_slot_weights(phi: np.ndarray, depth: int) -> np.ndarray:
    """``w[i, t, s] = φ_t[i] · conj(φ_s[i])``, the first-slot factor of row block ``(i, I'')``.

    At depth 0 the one row block holds every first-slot row, so its ``n``
    terms add up and the leading axis has length 1.
    """
    if depth == 0:
        return (phi.T @ phi.conj())[None]
    return phi[:, :, None] * phi.conj()[:, None, :]


def _same_j_grams(n: int, m: int) -> np.ndarray:
    """Inner products ``⟨X_{I,t,J}, X_{I,s,J}⟩`` of the depth-``m`` family, as ``[I, J, t, s]``.

    Within row block ``I = (i, I'')`` the entry is
    ``φ_t[i] conj(φ_s[i]) · tr(T[t,I'',J] P[J,J] T[s,I'',J]*) / dim``.
    """
    phi, psi, gram = _theta_factors(n, m)
    dim, count = n ** (m + 1), n**m
    tiles = _tiles(psi, m)
    by_j = tiles.transpose(3, 1, 0, 2, 4)  # [J, I'', t, k, l]
    p_diag = np.diagonal(gram.reshape(count, n, count, n), axis1=0, axis2=2)  # P[J, J] as [l, l', J]
    tiles_p = by_j.reshape(count, -1, n) @ p_diag.transpose(2, 0, 1)
    flat = (count, by_j.shape[1], n, -1)  # [J, I'', t, (k, l)]
    traces = tiles_p.reshape(flat) @ by_j.reshape(flat).conj().swapaxes(-1, -2)
    grams = _first_slot_weights(phi, m)[:, None, None] * traces.swapaxes(0, 1)[None] / dim
    return grams.reshape(count, count, n, n)


def keyclaim_check(n: int, m: int) -> float:
    """Max deviation of the conjugated inner products from ``δ_{r,s} n^{-(2m+1)}``.

    Sweeps every tuple ``(i_1..i_m, j_1..j_m, r, s)``: the inner product of
    ``(e_{i_1}⊗…⊗e_{i_m}) ξ_r θ(e_{j_1}⊗…⊗e_{j_m})`` against ``ξ_s`` in the
    trace inner product of ``M_n^{⊗(m+1)}``, where ``ξ_r`` is the first-slot
    spectral projection ``f_r`` and ``θ`` conjugates by the depth-``m``
    product unitary.  Since ``e_I`` and ``θ(e_J)`` are projections, that is
    the Gram entry of the family members at ``(I, r, J)`` and ``(I, s, J)``.
    """
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    expected = float(n) ** (-(2 * m + 1)) * np.eye(n)
    return float(np.max(np.abs(_same_j_grams(n, m) - expected)))


@dataclass(frozen=True)
class FamilySpanReport:
    """Gram statistics of the orthogonal family spanning a full tensor power."""

    count: int
    min_gram_diag: float
    max_offdiag: float
    rank: int  # members on the rows whose Gram passes Gershgorin's test
    margin: float  # the least |g_aa| / Σ_{b≠a} |g_ab| over all members


def family_span_check(n: int, m: int) -> FamilySpanReport:
    """Certify the ``n^{2m}`` products as orthogonal, non-zero, and spanning.

    The family ``(e_{i_1}⊗…⊗e_{i_m}) f_r θ(e_{j_1}⊗…⊗e_{j_{m-1}}⊗1)`` sits in
    ``M_n^{⊗m}``; with all index tuples it has exactly the dimension of the
    whole matrix space, so full rank certifies the span.  Members on
    different rows have disjoint support, so the family's Gram is block
    diagonal with one ``k × k`` block per row ``(i, I')``, ``k = n^m``, and
    the rank is certified block by block: a block whose diagonal dominates
    each of its rows is nonsingular (Gershgorin).  With the notation of
    :func:`_theta_factors` at depth ``m − 1``, the block of row ``(i, I')``
    is ``D_i H_I' D_i* / n^m`` with ``D_i = diag(φ_t[i])`` and
    ``H_I'[(t,J),(s,J')] = ψ_t[I',J-cols] P[J,J'] ψ_s[I',J'-cols]*``; since
    ``|φ_t[i]|² = 1/n``, its entry moduli are ``|H_I'| / n^{m+1}`` for all ``i``.
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    dim, count = n**m, n ** (m - 1)
    # the factors' count covers the loop: beside ψ and P, one I' holds three dim² buffers
    _, psi, gram = _theta_factors(n, m - 1)
    p_rows = gram.reshape(count, n, dim)  # the rows P[(J, l), :] of each J
    tiles = psi.reshape(n, count, count, n).transpose(1, 2, 0, 3)  # [I', J, t, l]
    min_diag, max_off, margin, certified = np.inf, 0.0, np.inf, 0
    for tile in tiles:
        tiles_p = (tile @ p_rows).reshape(dim, count, n)  # [(J, t), J', l']
        h = tiles_p.transpose(1, 0, 2) @ tile.conj().transpose(0, 2, 1)  # [J', (J, t), s]
        moduli = np.abs(h.transpose(1, 0, 2)).reshape(dim, dim) / n ** (m + 1)
        diag = moduli.diagonal().copy()
        np.fill_diagonal(moduli, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(diag > 0.0, diag / moduli.sum(axis=1), 0.0)
        least = float(ratios.min())
        certified += least > 1.0
        min_diag = min(min_diag, float(diag.min()))
        max_off = max(max_off, float(moduli.max()))
        margin = min(margin, least)
    # each certified I' stands for the n rows (i, I') with the same moduli
    return FamilySpanReport(dim * dim, min_diag, max_off, n * dim * certified, margin)


def intertwiner_blocks(n: int, m: int) -> np.ndarray:
    """Gram blocks of the families ``(e_I ⊗ 1) f_t θ(e_J ⊗ 1)``, one stack per ``t``.

    Entry ``[t, I, J, J']`` pairs the members ``(I, J)`` and ``(I, J')`` with
    ``f_t`` in the middle; members with different ``I`` have disjoint support,
    so for each ``t`` these blocks make up the whole Gram matrix.
    """
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    dim, count = n ** (m + 1), n**m
    # the blocks, and one t's tile products with their einsum operands
    check_workspace(4 * n * count**3, f"the intertwiner blocks for n={n}, m={m}")
    phi, psi, gram = _theta_factors(n, m)
    weights = np.diagonal(_first_slot_weights(phi, m), axis1=1, axis2=2)  # [i, t]
    p_rows = gram.reshape(count, n, dim)  # the rows P[(J, l), :] of each J
    blocks = np.empty((n, count, count, count), dtype=complex)
    for t, tiles in enumerate(_tiles(psi, m)):
        # tr(T[t,I'',J] P[J,J'] T[t,I'',J']*) for every (I'', J, J')
        tiles_p = tiles.transpose(2, 0, 1, 3).reshape(count, -1, n) @ p_rows
        tiles_p = tiles_p.reshape(count, *tiles.shape[:2], count, n)
        traces = np.einsum("jakbm,akbm->ajb", tiles_p, tiles.conj())
        blocks[t] = (weights[:, t, None, None, None] * traces[None]).reshape(count, count, count)
    return blocks / dim


def intertwiner_grams(n: int, m: int, r: int, s: int):
    """Gram matrices of the relabelled families with ``f_r`` and ``f_s`` in the middle.

    Rows and columns are indexed by ``(J, I)``, ``J`` major.
    """
    if r == s or not (0 <= r < n and 0 <= s < n):
        raise ValueError("need distinct r, s in range(n)")
    count = n**m
    check_workspace(2 * count**4, f"the intertwiner Grams for n={n}, m={m}")
    blocks = intertwiner_blocks(n, m)
    i = np.arange(count)
    grams = []
    for t in (r, s):
        gram = np.zeros((count, count, count, count), dtype=complex)  # (J, I, J', I')
        gram[:, i, :, i] = blocks[t]
        grams.append(gram.reshape(count * count, count * count))
    return grams[0], grams[1]


def intertwiner_check(n: int, m: int, r: int, s: int) -> float:
    """Max disagreement between the two Gram matrices (the isometry defect).

    Relabelling ``f_r`` to ``f_s`` inside the span of the mixed products
    extends to a partial isometry exactly when all pairwise inner products
    agree; this returns the largest entrywise difference.  Outside the
    blocks of :func:`intertwiner_blocks` both Grams vanish, so the blocks
    alone give it.
    """
    if r == s or not (0 <= r < n and 0 <= s < n):
        raise ValueError("need distinct r, s in range(n)")
    blocks = intertwiner_blocks(n, m)
    return float(np.max(np.abs(blocks[r] - blocks[s])))


def truncated_masa_pair(n: int, k: int, kind: str = "theta"):
    """Generators of the diagonal masa of ``M_n^{⊗k}`` and its conjugate.

    Returns ``(a_gens, b_gens)``: the diagonal matrix units, and their images
    under conjugation by the depth-``(k−1)`` truncated automorphism of the
    requested kind.  Both generate masas in ``M_n^{⊗k}``.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    N = n**k
    # the N generators of each side
    check_workspace(2 * N**3, f"the masa pair of M_{n}^⊗{k}")
    a_gens = [np.diag(np.eye(N, dtype=complex)[p]) for p in range(N)]
    if k == 1:
        # at N = n the gadget alone would hold more than the generators
        return a_gens, [g.copy() for g in a_gens]
    # the image of the unit e_p under conjugation by U is u_p u_p* for column p of U
    u = TruncatedAutomorphism.build(build_gadget(n), k - 1, kind).unitary
    return a_gens, [np.outer(u[:, p], u[:, p].conj()) for p in range(N)]


# ---------------------------------------------------------------------------
# assembling families of masas with prescribed pairwise mixed invariants


@dataclass(frozen=True)
class GadgetAssignment:
    """One tensor factor of the family: a gadget handling a single pair.

    The two members of ``pair`` play the conjugated roles (A and B) with
    parameter ``n``; every other family member takes the bystander role C,
    whose mixed invariant against either is ``{1}``.  ``n == inf`` stands for
    the infinite tensor power of the ``n = 2`` gadget.
    """

    pair: tuple[int, int]
    n: object  # int >= 2 or math.inf
    roles: tuple[str, ...]

    def contribution(self, a: int, b: int) -> NSet:
        if (a, b) != self.pair and (b, a) != self.pair:
            return NSet.of(1)
        if self.n == INF:
            return tensor_mixed_infinite([NSet.of(2)], tail_all_ones=False)
        return NSet.of(self.n)


@dataclass(frozen=True)
class FamilyPlan:
    """Role table realizing a symmetric target matrix of pairwise invariants."""

    size: int
    matrix: tuple[tuple[object, ...], ...]
    assignments: tuple[GadgetAssignment, ...]

    def pairwise_invariant(self, a: int, b: int) -> NSet:
        """Symbolic mixed invariant of family members ``a`` and ``b``."""
        if a == b:
            return NSet.of(1)
        return tensor_mixed(g.contribution(a, b) for g in self.assignments)

    def pairwise_table(self) -> tuple[tuple[NSet, ...], ...]:
        return tuple(
            tuple(self.pairwise_invariant(a, b) for b in range(self.size))
            for a in range(self.size)
        )

    def direct_sum_union(self) -> NSet:
        """Invariant of the block-diagonal sum of the family: {1} plus all pairs."""
        out = NSet.of(1)
        for a in range(self.size):
            for b in range(a + 1, self.size):
                out = out | self.pairwise_invariant(a, b)
        return out


def countable_family_plan(matrix) -> FamilyPlan:
    """Plan a family of masas whose pairwise mixed invariants match ``matrix``.

    ``matrix`` is a symmetric square array over positive integers and ``inf``
    with ones on the diagonal.  Each off-diagonal entry above 1 gets its own
    gadget; the symbolic evaluation of the plan returns exactly the singleton
    of the requested entry for every pair.
    """
    rows = [tuple(row) for row in matrix]
    k = len(rows)
    if any(len(row) != k for row in rows):
        raise InvalidLambdaError("matrix must be square")
    for a in range(k):
        if rows[a][a] != 1:
            raise InvalidLambdaError("diagonal entries must all be 1")
        for b in range(k):
            if not is_valid_value(rows[a][b]):
                raise InvalidLambdaError(f"entry ({a},{b}) is not in N ∪ {{inf}}")
            if rows[a][b] != rows[b][a]:
                raise InvalidLambdaError("matrix must be symmetric")
    assignments = []
    for a in range(k):
        for b in range(a + 1, k):
            value = rows[a][b]
            if value == 1:
                continue
            roles = tuple("A" if t == a else "B" if t == b else "C" for t in range(k))
            assignments.append(GadgetAssignment((a, b), value, roles))
    return FamilyPlan(k, tuple(rows), tuple(assignments))
