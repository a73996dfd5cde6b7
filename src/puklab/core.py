"""Dense complex matrix arithmetic, weighted traces, and the left-right GNS representation.

Everything downstream works with square ``complex128`` arrays.  A multi-matrix
algebra (a direct sum of full matrix blocks with a weighted normalized trace)
is described by :class:`TracedAlgebraShape`; :class:`GnsSpace` turns such an
algebra into the Hilbert space it acts on by left and right multiplication,
with the conjugate-linear involution ``J`` sending ``x`` to ``x*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ResourceGuardError, ShapeMismatchError

# Entrywise tolerance for identities that hold exactly in exact arithmetic.
ENTRY_TOL = 1e-12
# Bytes of complex128 workspace one numeric routine may hold at its peak.
WORKSPACE_BYTES = 1 << 28


def check_workspace(entries: int, what: str):
    """Refuse, before allocating, a routine whose peak holds ``entries`` complex entries.

    The bound is :data:`WORKSPACE_BYTES`, read at call time; ``what`` names
    the routine and its size in the error.
    """
    need = 16 * entries
    if need > WORKSPACE_BYTES:
        raise ResourceGuardError(
            f"{what} needs {need} bytes of workspace, over the budget of {WORKSPACE_BYTES}"
        )


def as_matrix(x) -> np.ndarray:
    """Coerce to a square complex matrix."""
    a = np.asarray(x, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def adjoint(x) -> np.ndarray:
    return np.conj(np.transpose(np.asarray(x, dtype=complex)))


def tensor(x, y) -> np.ndarray:
    """Kronecker product with the first factor on the slow index."""
    return np.kron(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))


@dataclass(frozen=True)
class TracedAlgebraShape:
    """Block sizes and trace weights of a multi-matrix algebra ``⊕_k M_{d_k}``.

    ``weights`` are exact rationals summing to one; the normalized trace of a
    block-diagonal element is ``Σ_k w_k · Tr(x_k)/d_k``.
    """

    blocks: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.weights) or not self.blocks:
            raise ShapeMismatchError("blocks and weights must be non-empty and match")
        if any(d < 1 for d in self.blocks):
            raise ShapeMismatchError("block sizes must be positive")
        if any(w <= 0 for w in self.weights):
            raise ShapeMismatchError("trace weights must be positive")
        if sum(self.weights, Fraction(0)) != 1:
            raise ShapeMismatchError("trace weights must sum to 1")

    @classmethod
    def full_matrix(cls, n: int) -> "TracedAlgebraShape":
        """The full matrix algebra ``M_n`` with its unique normalized trace."""
        return cls((n,), (Fraction(1),))

    @classmethod
    def from_blocks(cls, blocks) -> "TracedAlgebraShape":
        """Blocks with the trace inherited from ``B(C^D)``: weight ``d_k / D``."""
        blocks = tuple(int(d) for d in blocks)
        total = sum(blocks)
        return cls(blocks, tuple(Fraction(d, total) for d in blocks))

    @property
    def total_dim(self) -> int:
        """Dimension D of the space the algebra acts on block-diagonally."""
        return sum(self.blocks)

    @property
    def gns_dim(self) -> int:
        """Vector-space dimension of the algebra, ``Σ_k d_k²``."""
        return sum(d * d for d in self.blocks)

    def block_slices(self) -> list[slice]:
        out, start = [], 0
        for d in self.blocks:
            out.append(slice(start, start + d))
            start += d
        return out

    def check_compatible(self, x: np.ndarray):
        if x.shape != (self.total_dim, self.total_dim):
            raise ShapeMismatchError(
                f"matrix of shape {x.shape} does not fit shape with D={self.total_dim}"
            )

    def check_member(self, x: np.ndarray):
        """Reject a matrix that does not fit, or that leaves the diagonal blocks.

        An off-block entry larger than :data:`ENTRY_TOL` times the largest
        entry means ``x`` is outside ``⊕_k M_{d_k}``; reading only its diagonal
        blocks would silently compress it into the algebra.
        """
        self.check_compatible(x)
        mag = np.abs(x)
        off_block = np.ones(mag.shape, dtype=bool)
        for sl in self.block_slices():
            off_block[sl, sl] = False
        worst = float(np.max(mag[off_block], initial=0.0))
        if worst > ENTRY_TOL * float(np.max(mag)):
            raise ShapeMismatchError(
                f"matrix has an entry of size {worst:.2e} outside the diagonal blocks "
                f"{self.blocks}"
            )


def normalized_trace(x, shape: TracedAlgebraShape) -> complex:
    """Weighted sum of normalized block traces; satisfies tr(1)=1 and tr(xy)=tr(yx)."""
    a = as_matrix(x)
    shape.check_compatible(a)
    total = 0j
    for d, w, sl in zip(shape.blocks, shape.weights, shape.block_slices()):
        total += float(w) * np.trace(a[sl, sl]) / d
    return complex(total)


class GnsConjugation:
    """The involution ``J : x ↦ x*`` acting on GNS coordinates.

    ``J`` is conjugate-linear, so it is not a complex matrix.  It is stored as
    the real-linear action on coordinate vectors: a permutation ``P`` swapping
    the (i, j) and (j, i) matrix-unit coordinates of each block, composed with
    entrywise complex conjugation (``(re, im) ↦ (P·re, −P·im)``).  Consumers
    rely only on ``J² = 1`` and ``J L(b) J = R(b*)``, both of which hold
    exactly at the operator level.
    """

    def __init__(self, perm: np.ndarray):
        self.perm = perm
        self.perm.flags.writeable = False

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Coordinates of ``Jx`` given coordinates of ``x``."""
        return np.conj(np.asarray(vec, dtype=complex)[self.perm])

    def sandwich(self, op: np.ndarray) -> np.ndarray:
        """The linear operator ``J T J`` for a linear operator ``T``."""
        m = np.asarray(op, dtype=complex)
        return np.conj(m[np.ix_(self.perm, self.perm)])


class GnsSpace:
    """The algebra of a :class:`TracedAlgebraShape` viewed as a Hilbert space.

    The inner product is ``⟨x, y⟩ = tr(y* x)`` with the weighted normalized
    trace.  Coordinates are taken in the matrix-unit basis of each block
    scaled by ``√(d_k / w_k)``, which is orthonormal; projections onto
    subspaces are then plain Gram computations.
    """

    def __init__(self, shape: TracedAlgebraShape):
        self.shape = shape
        self.dim = shape.gns_dim
        rows, cols, scales, perm = [], [], [], np.empty(shape.gns_dim, dtype=np.intp)
        offset = 0
        for sl, d, w in zip(shape.block_slices(), shape.blocks, shape.weights):
            ii, jj = np.divmod(np.arange(d * d), d)
            rows.append(sl.start + ii)
            cols.append(sl.start + jj)
            scales.append(np.full(d * d, np.sqrt(float(w) / d)))
            perm[offset : offset + d * d] = offset + jj * d + ii
            offset += d * d
        self._rows = np.concatenate(rows)
        self._cols = np.concatenate(cols)
        self._scales = np.concatenate(scales)
        self._J = GnsConjugation(perm)

    def embed(self, x) -> np.ndarray:
        """Coordinates of an algebra element as a vector in the GNS space."""
        a = as_matrix(x)
        self.shape.check_member(a)
        return a[self._rows, self._cols] * self._scales

    def unembed(self, vec: np.ndarray) -> np.ndarray:
        D = self.shape.total_dim
        out = np.zeros((D, D), dtype=complex)
        out[self._rows, self._cols] = np.asarray(vec, dtype=complex) / self._scales
        return out

    def inner(self, x, y) -> complex:
        """⟨x, y⟩ = tr(y* x) for algebra elements x, y."""
        return complex(normalized_trace(adjoint(y) @ as_matrix(x), self.shape))

    def norm2(self, x) -> float:
        return float(np.sqrt(max(self.inner(x, x).real, 0.0)))

    def basis_element(self, index: int) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[index] = 1.0
        return self.unembed(vec)

    def left(self, a) -> np.ndarray:
        """Matrix of left multiplication ``x ↦ ax`` on GNS coordinates."""
        return self._one_sided(a, side="left")

    def right(self, b) -> np.ndarray:
        """Matrix of right multiplication ``x ↦ xb`` on GNS coordinates."""
        return self._one_sided(b, side="right")

    def _one_sided(self, a, side: str) -> np.ndarray:
        m = as_matrix(a)
        self.shape.check_member(m)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        offset = 0
        for sl, d in zip(self.shape.block_slices(), self.shape.blocks):
            blk = m[sl, sl]
            eye = np.eye(d, dtype=complex)
            piece = np.kron(blk, eye) if side == "left" else np.kron(eye, blk.T)
            out[offset : offset + d * d, offset : offset + d * d] = piece
            offset += d * d
        return out

    @property
    def conjugation(self) -> GnsConjugation:
        return self._J

