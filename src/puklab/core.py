"""Dense complex matrix arithmetic, weighted traces, and the left-right GNS representation.

Everything downstream works with square ``complex128`` arrays.  A multi-matrix
algebra (a direct sum of full matrix blocks with a weighted normalized trace)
is described by :class:`TracedAlgebraShape`; :class:`GnsSpace` turns such an
algebra into the Hilbert space it acts on by left and right multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _lazy_module
from .errors import ResourceGuardError, ShapeMismatchError

np = _lazy_module("numpy")  # runs on the first array, not when a layer imports core

# Entrywise tolerance for identities that hold exactly in exact arithmetic.
ENTRY_TOL = 1e-12
# Bytes of complex128 workspace one numeric routine may hold at its peak.
WORKSPACE_BYTES = 1 << 28
# Complex entries of one chunk of a stack of matrices read at once: 32 KiB.
CHUNK_ENTRIES = 2048


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


def chunks(count: int, D: int) -> list[slice]:
    """``count`` stacked ``D × D`` matrices as slices of ``max(1, ⌊CHUNK_ENTRIES/D²⌋)``."""
    step = max(1, CHUNK_ENTRIES // (D * D))
    return [slice(i, i + step) for i in range(0, count, step)]


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
        if any(d < 1 for d in blocks):
            raise ShapeMismatchError("block sizes must be positive")
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
        if x.ndim < 2 or x.shape[-2:] != (self.total_dim, self.total_dim):
            raise ShapeMismatchError(
                f"matrix of shape {x.shape} does not fit shape with D={self.total_dim}"
            )

    def check_member(self, x: np.ndarray):
        """Reject a matrix, or a stack ``(..., D, D)``, that does not fit or leaves the blocks.

        An off-block entry larger than :data:`ENTRY_TOL` times the largest entry
        of its matrix means that matrix is outside ``⊕_k M_{d_k}``; reading only
        its diagonal blocks would silently compress it into the algebra.  With
        more than one block, a matrix with a non-finite entry is refused too,
        since no comparison with it decides anything.  A stack is read in
        :func:`chunks`; the error names its first such matrix.
        """
        self.check_compatible(x)
        D, block = self.total_dim, np.repeat(np.arange(len(self.blocks)), self.blocks)
        off_block, stack = block[:, None] != block, x.reshape(-1, D, D)
        # a single block leaves no entry outside it
        for part in chunks(len(stack) if len(self.blocks) > 1 else 0, D):
            mag = np.abs(stack[part])
            top, worst = mag.max(axis=(1, 2)), mag[:, off_block].max(axis=1, initial=0.0)
            # the largest entry is NaN or inf exactly when some entry is
            if (bad := (~np.isfinite(top) | (worst > ENTRY_TOL * top)).nonzero()[0]).size:
                i, size = part.start + bad[0], worst[bad[0]]
                if not np.isfinite(top[bad[0]]):
                    raise ShapeMismatchError(f"matrix {i} has a non-finite entry")
                raise ShapeMismatchError(f"matrix {i} has an entry of size {size:.2e} outside "
                                         f"the diagonal blocks {self.blocks}")


def normalized_trace(x, shape: TracedAlgebraShape) -> complex:
    """Weighted sum of normalized block traces; satisfies tr(1)=1 and tr(xy)=tr(yx)."""
    a = as_matrix(x)
    shape.check_compatible(a)
    total = 0j
    for d, w, sl in zip(shape.blocks, shape.weights, shape.block_slices()):
        total += float(w) * np.trace(a[sl, sl]) / d
    return complex(total)


class GnsSpace:
    """The algebra of a :class:`TracedAlgebraShape` viewed as a Hilbert space.

    The inner product is ``⟨x, y⟩ = tr(y* x)`` with the weighted normalized
    trace.  Coordinates are taken in the matrix-unit basis of each block
    scaled by ``√(d_k / w_k)``, which is orthonormal, row-major within a block
    and block by block; the left and right actions are block-diagonal in them.
    """

    def __init__(self, shape: TracedAlgebraShape):
        self.shape = shape
        self.dim = shape.gns_dim

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
