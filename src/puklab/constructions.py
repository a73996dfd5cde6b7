"""Shift gadgets, truncated tensor-product automorphisms, and their certified identities.

The gadget on ``M_n`` pairs the diagonal masa with the circulant masa
generated by the cyclic shift ``w``; the unitary ``v = Σ_i w^i ⊗ f_i`` lifts
the shift one tensor slot at a time.  The product automorphisms built from
copies of ``v`` only ever act through finitely many slots on any fixed
element, so depth-``k`` truncations on ``M_n^{⊗(k+1)}`` reproduce them
exactly where it matters.  Their unitaries are convolutions, diagonal in the
Fourier basis with eigenvalues ``λ = ω^q`` (:func:`_unitary_symbol`).  The
check routines here certify, numerically and to stated tolerances, the
inner-product, spanning, and intertwining identities that the multiplicity
analysis of the conjugated masa pair rests on, from ``λ`` alone
(:func:`_row_factors`); the position-space kernel ``u = ifftn(λ)`` is
built only for a dense unitary and the columns of the masa pair.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _unitary_symbol(n: int, depth: int, kind: str = "theta") -> np.ndarray:
    """Fourier symbol ``λ = ω^q`` of the depth-``depth`` unitary, on shape ``(n,)*(depth+1)``.

    ``w^i = Σ_k ω^{ik} f_k``, so each step ``v = Σ_{i,k} ω^{ik} f_k ⊗ f_i`` is
    diagonal in the Fourier basis ``φ`` of its two slots, and
    ``U = φ^{⊗(depth+1)} diag(λ) φ^{⊗(depth+1)*}`` with ``λ = ω^{q(k)}``,
    ``q(k) = Σ_r k_{r-1}·k_r`` over the step slots ``r`` (every ``r`` up to
    the depth for ``kind="theta"``, the odd ones for ``"phi"``): the
    eigenvalues of ``U``, ``N = n^{depth+1}`` entries.
    """
    if kind not in ("theta", "phi"):
        raise ValueError(f"kind must be 'theta' or 'phi', got {kind!r}")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    k = np.arange(n)
    q = np.zeros((n,) * (depth + 1), dtype=np.int64)
    for r in range(1, depth + 1, 1 if kind == "theta" else 2):
        q += np.multiply.outer(k, k).reshape((1,) * (r - 1) + (n, n) + (1,) * (depth - r))
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
    """The factors ``(y, p̂)`` of every certificate's Gram entries.

    Let ``U`` be the depth-``depth`` θ unitary with kernel ``u = ifftn(λ)``
    and symbol ``λ`` (:func:`_unitary_symbol`), ``N = n^{depth+1}``, and
    ``X_{t,J} = (f_t ⊗ 1) θ(e_J ⊗ 1)`` with ``J`` over the first ``depth``
    slots; the certified members are rows of these.

    *One representative per shift class.*  The slotwise shifts ``S_δ``
    commute with every convolution, unitary or not, so with ``U``; they fix
    every ``f_t`` (its range is an eigenvector of each shift) and send
    ``e_J`` to ``e_{J+δ}``.  So conjugation by ``S_δ`` maps ``X_{t,J}`` to
    ``X_{t,J+δ}``, row ``a`` to row ``a+δ``, and keeps trace inner products:
    the Gram of rows ``a`` of the ``X_{t,J}`` is the Gram of their rows ``0``,
    ``R[(t, J), (s, J')] = Σ_c X_{t,J}[0, c]·conj(X_{s,J'}[0, c])``, with
    ``J`` re-indexed to ``J − a`` (``a`` cut to its first ``depth`` slots).

    *The Gram of rows 0.*  Row ``0`` of ``X_{t,J}`` is
    ``φ_t[0]·ψ_t[0, J-cols]·S_J*`` with ``ψ_t = (φ_t* ⊗ 1) U``,
    ``ψ_t[0, c] = conj(φ_t[c_0])·u_0[t, c_1, …, c_depth]``, and ``S_J`` the
    columns of ``U`` labelled by ``J``.  ``S_J* S_J'`` is the block
    ``P[(J, l), (J', l')] = p(J − J', l − l')`` of ``P = U*U``, whose kernel is
    ``p(d) = Σ_x conj(u(x))·u(x + d) = ifftn(|λ|²)``.  Each block is diagonal
    in the Fourier basis of the last slot, so
    ``R[(t, J), (s, J')] = Σ_κ p̂(J − J', κ)·y[t, J, κ]·conj(y[s, J', κ])``
    with ``y[t, J] = ifft(ψ_t[0, (J, ·)])`` and ``p̂ = fft(p)`` along the
    last slot.  Returns ``y`` as ``[t, J, κ]`` and ``p̂`` unflattened.

    *Read off λ.*  Both come from ``λ`` with the round trips through ``u``
    cancelled, ``2·depth + 1`` axis passes in all: ``u_0`` is
    ``fft(u, axis=0)[t, −c_1, …, −c_depth]``, where the ``fft`` undoes the
    ``ifft`` of slot 0 and an inverse transform read at ``−c`` is the forward
    one over ``n``, so ``u_0 = fftn(λ, slots 1..depth) / n^depth``; and
    ``fftn(u) = λ`` gives ``p = ifftn(|λ|²)``, whose last slot's ``ifft`` the
    ``fft`` of ``p̂`` undoes: ``p̂ = ifftn(|λ|², slots 0..depth−1)``.  ``|λ|²``
    stands wherever ``P`` did, so unitarity is still never assumed.
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


def _keyclaim_gram(n: int, m: int) -> np.ndarray:
    """``H[c′, t, s]`` for ``m ≥ 1``, with ``G[(c₀, c′), t, s] = ω^{(s−t)c₀}·H[c′, t, s]``.

    The keyclaim Gram ``G[J, t, s] = ⟨X_{0,t,J}, X_{0,s,J}⟩`` is
    ``n·R[(t, J), (s, J)] / n^{m+1}`` by :func:`_row_factors`, which reads ``p̂``
    at ``J − J = 0`` only: an inverse DFT read at 0 is a mean, so ``p̂₀`` is the
    mean of ``|λ|²`` over slots ``0 … m−1``.  With ``J = (c₀, c′)`` the rows are
    ``y[t, J] = conj(φ_t[c₀])·w[t, c′] / n^m`` for ``w = fft(λ)`` over slots
    ``1 … m−1`` (the last slot's ``fft`` and ``ifft`` cancel), for any symbol;
    ``conj(φ_t[c₀])·φ_s[c₀] = ω^{(s−t)c₀}/n`` then leaves
    ``H = Σ_κ p̂₀[κ]·w[t, c′, κ]·conj(w[s, c′, κ]) / n^{3m+1}``, ``N`` entries.
    """
    w = _unitary_symbol(n, m)
    p_hat_0 = (np.abs(w.reshape(-1, n)) ** 2).mean(axis=0) / float(n) ** (3 * m + 1)
    for axis in range(1, m):
        w = fft(w, axis=axis)
    by_c = w.reshape(n, -1, n).transpose(1, 0, 2)  # [c′, t, κ]
    weighted = by_c * p_hat_0
    # w is this call's own, so it is conjugated in place: no third copy of the rows
    return weighted @ np.conjugate(by_c, out=by_c).transpose(0, 2, 1)


def keyclaim_check(n: int, m: int) -> float:
    """Max deviation of the conjugated inner products from ``δ_{r,s} n^{-(2m+1)}``.

    Sweeps every tuple ``(i_1..i_m, j_1..j_m, r, s)``: the inner product of
    ``(e_{i_1}⊗…⊗e_{i_m}) ξ_r θ(e_{j_1}⊗…⊗e_{j_m})`` against ``ξ_s`` in the
    trace inner product of ``M_n^{⊗(m+1)}``, where ``ξ_r`` is the first-slot
    spectral projection ``f_r`` and ``θ`` conjugates by the depth-``m``
    product unitary.  Since ``e_I`` and ``θ(e_J)`` are projections, that is
    the Gram entry of the family members at ``(I, r, J)`` and ``(I, s, J)``,
    which depends only on ``J − I``.  The phase of :func:`_keyclaim_gram` has
    modulus 1 and is 1 where ``r = s``, so ``H`` alone gives the deviation.
    At ``m = 0`` the rows are ``y[t, κ] = λ_t·δ_{tκ}/√n`` and the Gram is
    ``diag(|λ_t|⁴)/n``, with no off-diagonal entry to read.
    """
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    # the symbol with q and q mod n; then w with one FFT temporary; then w, its
    # weighted copy and H; then H and its moduli: at most 3N at any one time
    check_workspace(3 * n ** (m + 1), f"the keyclaim Gram for n={n}, m={m}")
    if m == 0:
        return float(np.max(np.abs(np.abs(_unitary_symbol(n, 0)) ** 4 - 1.0))) / n
    deviation = _keyclaim_gram(n, m)
    t = np.arange(n)
    deviation[:, t, t] -= float(n) ** (-(2 * m + 1))
    return float(np.max(np.abs(deviation)))


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
    diagonal with one ``k × k`` block per row, ``k = n^m``, and a block whose
    diagonal dominates each of its rows is nonsingular (Gershgorin).  By
    :func:`_row_factors` at depth ``m − 1``, the block of row ``I`` is
    ``R / n^m`` with ``(t, J)`` re-indexed to ``(t, J − I)``, so it alone gives
    the extremes and the Gershgorin margin of all of them.
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    dim = n**m
    # the row Gram with its gathered p̂ or its moduli, and the row factors
    check_workspace(2 * dim * dim + 4 * n * dim, f"the span row Gram for n={n}, m={m}")
    y, p_hat = _row_factors(n, m - 1)
    gram = np.einsum("tjk,jJk,sJk->tjsJ", y, _multilevel_circulant(p_hat, m - 1), y.conj())
    moduli = np.abs(gram.reshape(dim, dim))
    del gram
    moduli /= dim
    diag = moduli.diagonal().copy()
    np.fill_diagonal(moduli, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(diag > 0.0, diag / moduli.sum(axis=1), 0.0)
    margin = float(ratios.min())
    # every row's block passes or fails with the block of row 0
    rank = dim * dim if margin > 1.0 else 0
    return FamilySpanReport(dim * dim, float(diag.min()), float(moduli.max()), rank, margin)


def _intertwiner_blocks(n: int, m: int) -> np.ndarray:
    """The blocks of :func:`intertwiner_blocks`, under the caller's workspace check."""
    y, p_hat = _row_factors(n, m)
    same_t = np.einsum("tjk,jJk,tJk->tjJ", y, _multilevel_circulant(p_hat, m), y.conj())
    return same_t / n**m


def intertwiner_blocks(n: int, m: int) -> np.ndarray:
    """Gram blocks of the families ``(e_I ⊗ 1) f_t θ(e_J ⊗ 1)`` at ``I = 0``, one per ``t``.

    Entry ``[t, J, J']`` pairs the members ``(0, J)`` and ``(0, J')`` with
    ``f_t`` in the middle: ``n·R[(t, J), (t, J')] / n^{m+1}`` by
    :func:`_row_factors`, which also pairs ``(I, J)`` and ``(I, J')`` at
    ``[t, J − I, J' − I]``.  Members with different ``I`` have disjoint
    support, so these ``n^{2m+1}`` entries give the whole Gram of each ``t``.
    """
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    count = n**m
    # the blocks and the gathered p̂ they are read with, and the row factors
    check_workspace(2 * n * count**2 + 4 * n ** (m + 2), f"the intertwiner blocks for n={n}, m={m}")
    return _intertwiner_blocks(n, m)


def intertwiner_grams(n: int, m: int, r: int, s: int):
    """Gram matrices of the relabelled families with ``f_r`` and ``f_s`` in the middle.

    Rows and columns are indexed by ``(J, I)``, ``J`` major; the entries are
    gathered from :func:`intertwiner_blocks` at ``(J − I, J' − I)``.
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


def intertwiner_check(n: int, m: int) -> float:
    """Max disagreement between the Gram matrices of ``f_r`` and ``f_s``, over all ``r < s``.

    Relabelling ``f_r`` to ``f_s`` inside the span of the mixed products
    extends to a partial isometry exactly when all pairwise inner products
    agree; this returns the largest entrywise difference over every pair.
    Both Grams are gathered from the blocks of :func:`intertwiner_blocks` at
    the same places and vanish elsewhere, so the blocks alone give it.
    """
    blocks = intertwiner_blocks(n, m)
    # the n blocks; for the n(n−1)/2 pairs r < s their indices, blocks[r] and blocks[s]
    check_workspace(n * n * blocks[0].size + n * (n - 1) // 2,
                    f"the intertwiner comparisons for n={n}, m={m}")
    r, s = np.triu_indices(n, 1)
    defects = blocks[r]
    defects -= blocks[s]
    return float(np.abs(defects).max())


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
