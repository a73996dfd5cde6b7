"""Shift gadgets, truncated tensor-product automorphisms, and their dense unitaries.

The gadget on ``M_n`` pairs the diagonal masa with the circulant masa
generated by the cyclic shift ``w``; the unitary ``v = Σ_i w^i ⊗ f_i`` lifts
the shift one tensor slot at a time.  The product automorphisms built from
copies of ``v`` only ever act through finitely many slots on any fixed
element, so depth-``k`` truncations on ``M_n^{⊗(k+1)}`` reproduce them
exactly where it matters.  Their unitaries are convolutions, diagonal in the
Fourier basis with eigenvalues ``λ = ω^q`` (:func:`_unitary_symbol`), where
``q = Σ a·k_i·k_j`` over the edges of ``gadgets._symbol_edges``; the exact
verdicts of the identities they satisfy live in :mod:`puklab.gadgets`.  The
one float route is the position-space kernel ``u = ifftn(λ)``, gathered into
the dense unitary ``U`` by :meth:`TruncatedAutomorphism.build` alone;
:func:`intertwiner_grams` and :func:`truncated_masa_pair` read that ``U``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gadgets
from .core import CHUNK_ENTRIES, check_workspace, np


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
    ``U = φ^{⊗(depth+1)} diag(λ) φ^{⊗(depth+1)*}`` with ``λ = ω^{q(k)}`` and
    ``q`` summed over ``gadgets._symbol_edges``: the eigenvalues of ``U``,
    ``N = n^{depth+1}`` entries.
    """
    edges = gadgets._symbol_edges(depth, kind)  # checks kind and depth before any allocation
    k = np.arange(n)
    slots = [k.reshape((1,) * r + (n,) + (1,) * (depth - r)) for r in range(depth + 1)]
    q = np.zeros((n,) * (depth + 1), dtype=np.int64)
    for i, j, a in edges:
        q += a * slots[i] * slots[j]
    return np.exp(2j * np.pi * k / n)[q % n]


def _unitary_kernel(n: int, depth: int, kind: str = "theta") -> np.ndarray:
    """Kernel ``u = ifftn(λ)`` of the unitary: ``U[a, b] = u(a − b)`` slot by slot mod ``n``."""
    return np.fft.ifftn(_unitary_symbol(n, depth, kind))


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


def intertwiner_grams(n: int, m: int, r: int, s: int):
    """Gram matrices of the relabelled families with ``f_r`` and ``f_s`` in the middle.

    Member ``(J, I)`` of the family of ``t`` is ``(e_I ⊗ 1) f_t θ(e_J ⊗ 1)``: row
    block ``I`` of ``W = (f_t ⊗ 1)·U`` times the adjoint of ``U``'s columns ``J``,
    for the dense θ unitary ``U``.  So its entry against ``(J′, I)`` is
    ``Σ_{c,c′} (U*U)[(J,c),(J′,c′)]·Σ_a W[(I,a),(J,c)]·conj(W[(I,a),(J′,c′)]) / N``:
    one ``N × N`` product per row block, weighted by ``U*U`` and summed over its
    ``n × n`` tiles.  Members with different ``I`` have disjoint support, so
    their entries are 0.  Rows and columns are indexed by ``(J, I)``, ``J`` major.
    """
    if r == s or not (0 <= r < n and 0 <= s < n):
        raise ValueError("need distinct r, s in range(n)")
    count, dim = n**m, n ** (m + 1)
    # U, U*U with its conjugate, two W while the second t's is formed, two row blocks'
    # products with their conjugated rows, and the two Grams: declared before the build,
    # so a refusal allocates nothing, and after it
    need, what = 8 * dim * dim + 2 * count**4, f"the intertwiner Grams for n={n}, m={m}"
    check_workspace(need, what)
    unitary = TruncatedAutomorphism.build(n, m).unitary
    check_workspace(need, what)
    weights = unitary.conj().T @ unitary
    weights /= dim  # the normalized trace
    phi = _shift_eigenvectors(n)
    grams = []
    for t in (r, s):
        # f_t = φ_t φ_t* acts on the first slot of the rows
        rows = np.outer(phi[t], phi[t].conj() @ unitary.reshape(n, -1)).reshape(count, n, dim)
        gram = np.zeros((count, count, count, count), dtype=complex)  # (J, I, J', I')
        for block, w in enumerate(rows):
            product = w.T @ w.conj()
            product *= weights
            gram[:, block, :, block] = np.einsum("icjd->ij", product.reshape(count, n, count, n))
        grams.append(gram.reshape(count * count, count * count))
    return grams[0], grams[1]


def truncated_masa_pair(n: int, k: int, kind: str = "theta"):
    """One generator a side: the diagonal masa of ``M_n^{⊗k}`` and its conjugate.

    Returns ``(a_gens, b_gens)``, two ``(1, N, N)`` stacks for ``N = n^k``:
    ``d = diag(0, …, N−1)``, whose distinct eigenvalues generate the masa, and its
    image ``U d U*`` under the depth-``(k−1)`` truncated automorphism of that kind.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    N = n**k
    # U, conj(U)·d with numpy's two buffers for the broadcast d, and the image; declared
    # before the build and again once its stage is over
    need, what = 3 * N * N + 4 * CHUNK_ENTRIES, f"the masa pair of M_{n}^⊗{k}"
    check_workspace(need, what)
    unitary = TruncatedAutomorphism.build(n, k - 1, kind).unitary
    check_workspace(need, what)
    d = np.arange(N, dtype=complex)  # complex, so that no cast adds a buffer
    # U d U* is Hermitian, so it is the conjugate of conj(U) d Uᵀ, whose Uᵀ is a view
    image = np.conjugate((unitary.conj() * d) @ unitary.T)
    return np.diag(d)[None], image[None]


def __getattr__(name):
    """Names perfbench's TARGETS still looks up here, from ``invariant`` and ``gadgets``."""
    if name in ("keyclaim_check", "family_span_check", "intertwiner_check"):
        return getattr(gadgets, name)
    if name != "countable_family_plan":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .invariant import countable_family_plan
    return countable_family_plan
