"""Shift gadgets, truncated tensor-product automorphisms, and their exact identities.

The gadget on ``M_n`` pairs the diagonal masa with the circulant masa
generated by the cyclic shift ``w``; the unitary ``v = Σ_i w^i ⊗ f_i`` lifts
the shift one tensor slot at a time.  The product automorphisms built from
copies of ``v`` only ever act through finitely many slots on any fixed
element, so depth-``k`` truncations on ``M_n^{⊗(k+1)}`` reproduce them
exactly where it matters.  Their unitaries are convolutions, diagonal in the
Fourier basis with eigenvalues ``λ = ω^q`` (:func:`_unitary_symbol`), where
``q = Σ a·k_i·k_j`` over the edges of :func:`_symbol_edges`.  The check
routines decide the inner-product, spanning, and intertwining identities that
the multiplicity analysis of the conjugated masa pair rests on exactly, from
those edges alone: ``|λ| = 1``, and one walk along the θ symbol's path
(:func:`_kappa_coefficient`) reduces each identity to whether one coefficient
is a unit mod ``n``, in ``O(m)`` integer steps and with no array.  The dense
Grams of :func:`intertwiner_grams` are read off ``λ`` in floating point
(:func:`_row_factors`); the position-space kernel ``u = ifftn(λ)`` is built
only for a dense unitary and the columns of the masa pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np
from numpy.fft import fft, ifft, ifftn

from .core import as_matrix, check_workspace

# the planner lives in invariant; perfbench's TARGETS still looks it up here
from .invariant import countable_family_plan  # noqa: F401


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
    return np.exp(2j * np.pi * a / n)[np.outer(a, a) % n] / np.sqrt(n)


def _symbol_edges(depth: int, kind: str = "theta") -> list[tuple[int, int, int]]:
    """The phase ``q = Σ a·k_i·k_j`` of the depth-``depth`` symbol as its ``(i, j, a)`` triples.

    The step ``v`` in slots ``r − 1, r`` contributes ``k_{r−1}·k_r``, at every
    ``r`` up to the depth for ``kind="theta"`` and at the odd ones for
    ``"phi"``; θ's edges form the path ``0 – 1 – … – depth``.
    """
    if kind not in ("theta", "phi"):
        raise ValueError(f"kind must be 'theta' or 'phi', got {kind!r}")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    return [(r - 1, r, 1) for r in range(1, depth + 1, 1 if kind == "theta" else 2)]


def _unitary_symbol(n: int, depth: int, kind: str = "theta") -> np.ndarray:
    """Fourier symbol ``λ = ω^q`` of the depth-``depth`` unitary, on shape ``(n,)*(depth+1)``.

    ``w^i = Σ_k ω^{ik} f_k``, so each step ``v = Σ_{i,k} ω^{ik} f_k ⊗ f_i`` is
    diagonal in the Fourier basis ``φ`` of its two slots, and
    ``U = φ^{⊗(depth+1)} diag(λ) φ^{⊗(depth+1)*}`` with ``λ = ω^{q(k)}`` and
    ``q`` summed over :func:`_symbol_edges`: the eigenvalues of ``U``,
    ``N = n^{depth+1}`` entries.
    """
    edges = _symbol_edges(depth, kind)  # checks kind and depth before any allocation
    k = np.arange(n)
    slots = [k.reshape((1,) * r + (n,) + (1,) * (depth - r)) for r in range(depth + 1)]
    q = np.zeros((n,) * (depth + 1), dtype=np.int64)
    for i, j, a in edges:
        q += a * slots[i] * slots[j]
    return np.exp(2j * np.pi * k / n)[q % n]


def _unitary_kernel(n: int, depth: int, kind: str = "theta") -> np.ndarray:
    """Kernel ``u = ifftn(λ)`` of the unitary: ``U[a, b] = u(a − b)`` slot by slot mod ``n``."""
    return ifftn(_unitary_symbol(n, depth, kind))


def _multilevel_circulant(kernel: np.ndarray, levels: int) -> np.ndarray:
    """``K[a, b] = kernel(a − b)`` over the first ``levels`` axes, slot by slot mod ``n``.

    ``a`` and ``b`` are flattened with the first slot slowest; the further
    axes of ``kernel`` trail.
    """
    n = kernel.shape[0] if levels else 1
    a = np.arange(n)
    diff = (a[:, None] - a) % n
    flat = np.zeros((1, 1), dtype=np.intp)  # the flat index of a − b over the slots so far
    for _ in range(levels):
        flat = (n * flat[:, None, :, None] + diff[:, None, :]).reshape(n * len(flat), -1)
    return kernel.reshape(n**levels, *kernel.shape[levels:])[flat]


@dataclass(frozen=True, eq=False)
class TruncatedAutomorphism:
    """Conjugation by a finite product of commuting step unitaries.

    ``kind="theta"`` multiplies the steps at every slot up to the depth,
    ``kind="phi"`` only the odd ones.  The implementing unitary lives in
    ``M_n^{⊗(depth+1)}`` and has order ``n``; conjugation preserves the
    normalized trace.
    """

    n: int
    depth: int
    kind: str
    unitary: np.ndarray

    def __post_init__(self):
        self.unitary.flags.writeable = False

    @classmethod
    def build(cls, n: int, depth: int, kind: str = "theta") -> "TruncatedAutomorphism":
        """The product of the steps ``v`` in slots ``r-1, r``, gathered from its kernel."""
        dim = n ** (depth + 1)
        # U, and the flat indices it is gathered by with their last step's temporary
        check_workspace(2 * dim * dim, f"a depth-{depth} unitary for n={n}")
        unitary = _multilevel_circulant(_unitary_kernel(n, depth, kind), depth + 1)
        return cls(n, depth, kind, unitary)

    @property
    def ambient_dim(self) -> int:
        return self.n ** (self.depth + 1)

    def apply(self, x) -> np.ndarray:
        m = as_matrix(x)
        if m.shape[0] != self.ambient_dim:
            raise ValueError(f"element of dimension {m.shape[0]} does not fit {self.ambient_dim}")
        return self.unitary @ m @ self.unitary.conj().T


def _row_factors(n: int, depth: int):
    """The factors ``(y, p̂)`` of the Gram entries of ``X_{t,J} = (f_t ⊗ 1) θ(e_J ⊗ 1)``.

    ``U`` is the depth-``depth`` θ unitary with symbol ``λ`` (:func:`_unitary_symbol`)
    and kernel ``u = ifftn(λ)``, and ``J`` runs over the first ``depth`` slots.  The
    slotwise shifts ``S_δ`` commute with every convolution, so with ``U``; they fix every
    ``f_t`` and send ``e_J`` to ``e_{J+δ}``, so conjugation by ``S_δ`` maps row ``a`` of
    ``X_{t,J}`` to row ``a + δ`` of ``X_{t,J+δ}`` and keeps inner products: the Gram of
    rows ``a`` is the Gram ``R`` of rows ``0`` with ``J`` re-indexed to ``J − a``.  Row
    ``0`` of ``X_{t,J}`` is ``φ_t[0]·ψ_t[0, J-cols]·S_J*`` with ``ψ_t = (φ_t* ⊗ 1) U`` and
    ``S_J`` the columns of ``U`` labelled by ``J``, and ``S_J* S_J'`` is the block
    ``p(J − J', ·)`` of ``P = U*U``, with kernel ``p = ifftn(|λ|²)``, diagonal in the
    Fourier basis of the last slot.  So
    ``R[(t, J), (s, J')] = Σ_κ p̂(J − J', κ)·y[t, J, κ]·conj(y[s, J', κ])`` with
    ``y[t, J] = ifft(ψ_t[0, (J, ·)])`` and ``p̂ = fft(p)`` along the last slot, returned as
    ``[t, J, κ]`` and unflattened.  Both are read off ``λ`` with the round trips through
    ``u`` cancelled: ``ψ_t[0, c] = conj(φ_t[c_0])·u_0[t, c_1, …]`` with
    ``u_0 = fftn(λ, slots 1..depth) / n^depth``, and ``p̂ = ifftn(|λ|², slots 0..depth−1)``.
    ``|λ|²`` stands wherever ``P`` did, so unitarity is never assumed.
    """
    lam = _unitary_symbol(n, depth)
    # slot by slot, which skips fftn's per-call set-up: most certified cases have depth 0 or 1
    p_hat = np.abs(lam) ** 2
    for axis in range(depth):
        p_hat = ifft(p_hat, axis=axis)
    u_0 = lam / n**depth  # [t, c_1, …, c_depth] once transformed
    for axis in range(1, depth + 1):
        u_0 = fft(u_0, axis=axis)
    rows = _shift_eigenvectors(n).conj()[:, :, None] * u_0.reshape(n, 1, -1)  # ψ_t[0, c]
    return ifft(rows.reshape(n, -1, n), axis=-1), p_hat


def _intertwiner_blocks(n: int, m: int) -> np.ndarray:
    """Gram blocks of the families ``(e_I ⊗ 1) f_t θ(e_J ⊗ 1)`` at ``I = 0``, one per ``t``.

    Entry ``[t, J, J']`` pairs the members ``(0, J)`` and ``(0, J')`` with
    ``f_t`` in the middle: ``n·R[(t, J), (t, J')] / n^{m+1}`` by
    :func:`_row_factors`, which also pairs ``(I, J)`` and ``(I, J')`` at
    ``[t, J − I, J' − I]``.  Members with different ``I`` have disjoint
    support, so these ``n^{2m+1}`` entries give the whole Gram of each ``t``.
    The caller declares the workspace.
    """
    y, p_hat = _row_factors(n, m)
    same_t = np.einsum("tjk,jJk,tJk->tjJ", y, _multilevel_circulant(p_hat, m), y.conj())
    return same_t / n**m


def intertwiner_grams(n: int, m: int, r: int, s: int):
    """Gram matrices of the relabelled families with ``f_r`` and ``f_s`` in the middle.

    Rows and columns are indexed by ``(J, I)``, ``J`` major; the entries are
    gathered from :func:`_intertwiner_blocks` at ``(J − I, J' − I)``.
    """
    if r == s or not (0 <= r < n and 0 <= s < n):
        raise ValueError("need distinct r, s in range(n)")
    count = n**m
    # the two Grams and one gather into them with its indices, and the blocks with their workspace
    check_workspace(2 * count**4 + 2 * count**3 + 2 * n * count**2 + 4 * n ** (m + 2),
                    f"the intertwiner Grams for n={n}, m={m}")
    shift = _multilevel_circulant(np.arange(count).reshape((n,) * m), m).T  # [I, J] = J − I
    i = np.arange(count)
    grams = []
    for block in _intertwiner_blocks(n, m)[[r, s]]:
        gram = np.zeros((count, count, count, count), dtype=complex)  # (J, I, J', I')
        gram[:, i, :, i] = block[shift[:, :, None], shift[:, None, :]]
        grams.append(gram.reshape(count * count, count * count))
    return grams[0], grams[1]


def _kappa_coefficient(n: int, depth: int) -> int:
    """The coefficient of ``t``, mod ``n``, in the form of the θ symbol that meets ``κ``.

    The certificates read the depth-``d`` symbol ``λ = ω^q``, with
    ``q = Σ a_r·k_{r−1}·k_r`` over the path ``0 – 1 – … – d`` of
    :func:`_symbol_edges`, through ``w[t, c, κ] = Σ ω^{q − Σ_r c_r·k_r}``
    over the interior slots ``k_1 … k_{d−1}``, with ``t = k_0`` and ``κ = k_d``.
    An odd interior slot ``r`` enters ``q`` only as
    ``k_r·(a_r·k_{r−1} + a_{r+1}·k_{r+1})``, so its sum is
    ``n·δ(a_r·k_{r−1} + a_{r+1}·k_{r+1} ≡ c_r)``: a unit ``a_{r+1}`` fixes
    ``k_{r+1}`` as an affine form in ``t`` and ``c``.  Every edge has one odd
    end, so a phase in ``t`` and ``c`` alone is left, times ``ω^{a_d·k_{d−1}·κ}``
    for odd ``d``; for even ``d`` the last sum solves for ``κ``.  So
    ``Σ_κ w[t, c, κ]·conj(w[s, c, κ])`` is ``f(t)·conj(f(s))``, of modulus
    ``n^d`` where ``coef·(t − s) ≡ 0`` and 0 elsewhere, for the returned
    ``coef`` of ``t`` in ``a_d·k_{d−1}`` (odd ``d``) or ``κ`` (even ``d``, and
    ``κ = t`` at ``d = 0``).  Raises ``ValueError`` for edges other than the
    path with each edge once, and for a solve by a weight that is not a unit.
    """
    weights = {}
    for i, j, a in _symbol_edges(depth):
        if j != i + 1 or not 0 < j <= depth or j in weights:
            raise ValueError(f"the edge ({i}, {j}) is not a new edge of the path 0 – … – {depth}")
        weights[j] = a % n
    if len(weights) != depth:
        missing = sorted(set(range(1, depth + 1)) - weights.keys())
        raise ValueError(f"the path 0 – … – {depth} misses the edges into slots {missing}")
    coef = 1  # of t in k_0 = t
    for r in range(1, depth, 2):
        if gcd(weights[r + 1], n) != 1:
            raise ValueError(f"slot {r + 1} is solved for by the weight {weights[r + 1]}, "
                             f"not a unit mod {n}")
        coef = -coef * weights[r] * pow(weights[r + 1], -1, n) % n
    return coef * weights[depth] % n if depth % 2 else coef


def keyclaim_check(n: int, m: int) -> float:
    """Max deviation of the conjugated inner products from ``δ_{r,s} n^{-(2m+1)}``.

    Sweeps every tuple ``(i_1..i_m, j_1..j_m, r, s)``: the inner product of
    ``(e_{i_1}⊗…⊗e_{i_m}) ξ_r θ(e_{j_1}⊗…⊗e_{j_m})`` against ``ξ_s`` in the
    trace inner product of ``M_n^{⊗(m+1)}``, where ``ξ_r`` is the first-slot
    spectral projection ``f_r`` and ``θ`` conjugates by the depth-``m``
    product unitary.  By :func:`_row_factors` with ``|λ| = 1`` that is
    ``ω^{(s−t)c₀}·Σ_κ w[t, c′, κ]·conj(w[s, c′, κ]) / n^{3m+1}`` for
    ``J − I = (c₀, c′)``, so by :func:`_kappa_coefficient` the deviation is 0
    when ``coef`` is a unit mod ``n`` and ``n^{-(2m+1)}``, off the diagonal,
    when it is not.
    """
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    return 0.0 if gcd(_kappa_coefficient(n, m), n) == 1 else float(n) ** (-(2 * m + 1))


@dataclass(frozen=True)
class FamilySpanReport:
    """Gram statistics of the orthogonal family spanning a full tensor power."""

    count: int
    min_gram_diag: float
    max_offdiag: float
    rank: int  # the rank of the family's Gram
    margin: float  # the least |g_aa| / Σ_{b≠a} |g_ab| over all members, inf for a diagonal Gram


def family_span_check(n: int, m: int) -> FamilySpanReport:
    """Gram statistics of the ``n^{2m}`` products, which span when the rank is full.

    The family ``(e_{i_1}⊗…⊗e_{i_m}) f_r θ(e_{j_1}⊗…⊗e_{j_{m-1}}⊗1)`` sits in
    ``M_n^{⊗m}``; with all index tuples it has exactly the dimension of the
    whole matrix space.  Members on different rows have disjoint support, and
    by :func:`_row_factors` at depth ``m − 1`` with ``U*U = 1`` each row's
    Gram pairs only members with the same ``J``: ``n × n`` blocks in
    ``(t, s)`` whose entries have modulus ``n^{-2m}`` where
    ``coef·(t − s) ≡ 0`` (:func:`_kappa_coefficient`), and vanish elsewhere.
    Their phase is ``f(t)·conj(f(s))``, so with ``g = gcd(coef, n)`` each
    block has ``n / g`` rank-one classes of ``g`` members: the rank is
    ``count / g``, and each row holds ``g − 1`` off-diagonal entries.
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    count, entry = n ** (2 * m), float(n) ** (-2 * m)
    g = gcd(_kappa_coefficient(n, m - 1), n)
    if g == 1:
        return FamilySpanReport(count, entry, 0.0, count, float("inf"))
    return FamilySpanReport(count, entry, entry, count // g, 1.0 / (g - 1))


def intertwiner_check(n: int, m: int) -> float:
    """Max disagreement between the Gram matrices of ``f_r`` and ``f_s``, over all ``r < s``.

    Relabelling ``f_r`` to ``f_s`` inside the span of the mixed products
    extends to a partial isometry exactly when all pairwise inner products
    agree.  Both Grams are gathered from :func:`_intertwiner_blocks`, and
    ``|λ| = 1`` makes ``p̂`` a ``δ`` at ``J = J′``: each block is diagonal,
    with entries ``Σ_κ |w[t, c′, κ]|² / n^{3m+1} = n^{-(2m+1)}`` for every
    ``t`` once the forms of :func:`_kappa_coefficient` exist.
    """
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    _kappa_coefficient(n, m)
    return 0.0


def truncated_masa_pair(n: int, k: int, kind: str = "theta"):
    """Generators of the diagonal masa of ``M_n^{⊗k}`` and its conjugate.

    Returns ``(a_gens, b_gens)``: the diagonal matrix units, and their images
    under conjugation by the depth-``(k−1)`` truncated automorphism of the
    requested kind.  Both generate masas in ``M_n^{⊗k}``.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    N = n**k
    # the N generators of each side, the temporary of the outer product that builds
    # each image, and one N² more for the kernel and the 2N arrays' headers
    check_workspace(2 * N**3 + 2 * N**2, f"the masa pair of M_{n}^⊗{k}")
    a_gens = [np.diag(np.eye(N, dtype=complex)[p]) for p in range(N)]
    # e_p's image under conjugation by U is u_p u_p*: column p of U is u rolled by p's slots
    u = _unitary_kernel(n, k - 1, kind)
    columns = (np.roll(u, np.unravel_index(p, u.shape), axis=range(k)).ravel() for p in range(N))
    return a_gens, [np.outer(c, c.conj()) for c in columns]
