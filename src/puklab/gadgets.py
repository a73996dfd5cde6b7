"""Exact verdicts of the shift-gadget identities, from the θ symbol's edge list alone.

The symbol ``λ = ω^q`` of the unitaries in ``constructions`` has ``|λ| = 1``, and one
walk along its path (:func:`_kappa_coefficient`) reduces each identity to whether one
coefficient is a unit mod ``n``: ``O(m)`` integer steps, no array, and the standard
library alone, so the exact ``verify`` suites run where numpy cannot be imported.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import gcd


def _symbol_edges(depth: int, kind: str = "theta") -> Iterator[tuple[int, int, int]]:
    """The phase ``q = Σ a·k_i·k_j`` of the depth-``depth`` symbol as its ``(i, j, a)`` triples.

    The step ``v`` in slots ``r − 1, r`` contributes ``k_{r−1}·k_r``, at every
    ``r`` up to the depth for ``kind="theta"`` and at the odd ones for
    ``"phi"``; θ's edges form the path ``0 – 1 – … – depth``.  ``kind`` and
    ``depth`` are checked at the call; the edges come one at a time.
    """
    if kind not in ("theta", "phi"):
        raise ValueError(f"kind must be 'theta' or 'phi', got {kind!r}")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    return ((r - 1, r, 1) for r in range(1, depth + 1, 1 if kind == "theta" else 2))


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
    path with each edge once, in path order, and for a solve by a weight that
    is not a unit.
    """
    coef, slot = 1, 0  # of t in k_0 = t, then in each even slot the walk solves for
    for i, j, a in _symbol_edges(depth):
        if (i, j) != (slot, slot + 1) or j > depth:
            raise ValueError(f"the edge ({i}, {j}) is not the next edge of the path "
                             f"0 – … – {depth}")
        slot, a = j, a % n
        if j % 2:
            odd = a  # the weight into odd slot j, which the next edge solves against
        elif gcd(a, n) != 1:
            raise ValueError(f"slot {j} is solved for by the weight {a}, not a unit mod {n}")
        else:
            coef = -coef * odd * pow(a, -1, n) % n
    if slot != depth:
        raise ValueError(f"the path 0 – … – {depth} misses the edges into slots "
                         f"{list(range(slot + 1, depth + 1))}")
    return coef * odd % n if depth % 2 else coef


def keyclaim_check(n: int, m: int) -> float:
    """Max deviation of the conjugated inner products from ``δ_{r,s} n^{-(2m+1)}``.

    Sweeps every tuple ``(i_1..i_m, j_1..j_m, r, s)``: the inner product of
    ``(e_{i_1}⊗…⊗e_{i_m}) ξ_r θ(e_{j_1}⊗…⊗e_{j_m})`` against ``ξ_s`` in the
    trace inner product of ``M_n^{⊗(m+1)}``, where ``ξ_r`` is the first-slot
    spectral projection ``f_r`` and ``θ`` conjugates by the depth-``m``
    product unitary.  The slotwise shifts commute with that unitary and fix
    every ``f_t``, so they move row block ``I`` to ``0`` with ``J`` re-indexed
    to ``J − I = (c₀, c′)``.  With ``|λ| = 1`` the inner product is then
    ``ω^{(s−t)c₀}·Σ_κ w[t, c′, κ]·conj(w[s, c′, κ]) / n^{3m+1}`` for the ``w``
    of :func:`_kappa_coefficient`, so the deviation is 0 when ``coef`` is a
    unit mod ``n`` and ``n^{-(2m+1)}``, off the diagonal, when it is not.  The
    float form of this reduction is the oracle in
    ``tests/test_certificate_oracle.py``.
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
    by the reduction of :func:`keyclaim_check` at depth ``m − 1``, with
    ``U*U = 1``, each row's Gram pairs only members with the same ``J``:
    ``n × n`` blocks in ``(t, s)`` whose entries have modulus ``n^{-2m}`` where
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
    agree.  No Gram is formed: ``|λ| = 1`` makes ``U*U = 1`` in the Grams of
    ``constructions.intertwiner_grams``, so each is diagonal, with the entries
    ``Σ_κ |w[t, c′, κ]|² / n^{3m+1}`` of :func:`keyclaim_check`.  They are
    ``n^{-(2m+1)}`` for every ``t`` once the forms of :func:`_kappa_coefficient`
    exist.  So the defect is 0 whenever that walk succeeds, and the walk's
    ``ValueError`` is raised otherwise.
    """
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    _kappa_coefficient(n, m)
    return 0.0
