"""Shift-gadget certificates: the exact verdicts against the float route, and both against
three slower routes.

The exact verdicts of ``keyclaim_check``, ``family_span_check`` and
``intertwiner_check`` walk the edge list of the θ symbol.  Their oracle is the
float route they replaced, kept here with the workspace it declares: the
keyclaim Gram ``H``, the span row Gram and the intertwiner blocks in float64,
from FFTs of the symbol ``λ = ω^q``.  At every ``SWEEP`` case the two agree to
rounding.  On symbols with one edge reweighted, an edge dropped or repeated, a
chord ``(0, 2)``, or φ's edges in place of θ's, each exact verdict passes
where the float one reads rounding, fails by exactly the size the float one
reads (keyclaim ``n^{-(2m+1)}``; span short of full rank by the factor the
float row Gram's SVD shows), or refuses a symbol outside its lemma.  The dense
Grams of ``intertwiner_grams``, formed on the gathered θ unitary, match the
intertwiner blocks gathered at every row block, for θ and for those mutated
symbols.

The zero-padded oracle builds the gadget's spectral projections as Fourier
sums of powers of the shift and the θ unitary slot by slot, and certifies
each family element by padding its rows into a zero matrix of the full size:
keyclaim sums the diagonal of ``f_r θ(e_J) f_s`` row block by row block, span
takes the Gram matrix and the singular values of the stack of all padded
elements, and the intertwiner Grams are the dense Gram matrices of the two
padded families.

The dense-family oracle holds the whole family ``X[t, J] = (f_t ⊗ 1)θ(e_J ⊗ 1)``
(``N³`` entries) for a given dense ``U`` and forms one Gram per row block.

The factor route reads the same Gram entries off ``ψ = (Φ* ⊗ 1)U`` and
``P = U*U`` in ``n × n`` tiles (``O(N²)`` entries), for any dense ``U``.  It
agrees with the dense family entry by entry up to rounding, also for a ``U``
that is neither unitary nor a convolution.

The float route reads them off the symbol ``λ = ω^q`` of ``U``, the
Fourier coefficients of its kernel ``u``, at one representative row block
``I = 0``.  Its Grams match the dense family's at every ``I`` once ``J`` is
re-indexed to ``J − I``, for the θ symbol and for symbols distorted by the
transform of noise on ``u``, by a scaled or a vanished coefficient, or by a
shifted phase.  Span reads only the moduli of one single-row Gram; their
smallest diagonal and largest off-diagonal entries agree with those of every
dense row.

The row-factor Grams ``G[J, t, s]`` (``n·N`` entries) are the oracle for
the keyclaim, which reads only ``H[c′, t, s]`` (``N`` entries) with the
first slot ``c₀`` of ``J = (c₀, c′)`` factored out: ``G = ω^{(s−t)c₀}·H``
holds entry by entry, and at depth 0 ``G = diag(|λ_t|⁴)/n``, for the θ
symbol and for distorted ones, and the deviations agree up to rounding.

The kernel route reads the same row factors off ``u`` in position space,
through the Fourier transforms that the float route cancels; its factors and
keyclaim Grams agree with the float route's up to rounding, and no float
certificate builds ``u`` at all.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.fft import fft, fftn, ifft, ifftn

from puklab import constructions, core
from puklab.cli import SUITE_TOL
from puklab.constructions import (
    FamilySpanReport,
    ShiftGadget,
    TruncatedAutomorphism,
    _shift_eigenvectors,
    _unitary_kernel,
    build_gadget,
    family_span_check,
    intertwiner_check,
    intertwiner_grams,
    keyclaim_check,
)
from puklab.core import tensor

CAP = 1296
TOL = 1e-13
ROUNDING = 1e-15  # entrywise gap allowed between the reduced and the dense Grams
# and between the two routes' p̂, whose entries are of order one: the kernel route's
# four transforms of N entries leave up to about 10 ulps of its largest entry
SYMBOL_ROUNDING = 1e-14
SWEEP = [(n, m) for n in range(2, 37) for m in range(6) if n ** (2 * (m + 1)) <= CAP]


def fourier_gadget(n):
    """The gadget with ``f_i = n^{-1} Σ_k ω^{-ik} w^k`` summed term by term."""
    w = np.roll(np.eye(n, dtype=complex), -1, axis=0)
    e = np.stack([np.diag(np.eye(n, dtype=complex)[i]) for i in range(n)])
    omega = np.exp(2j * np.pi / n)
    powers = [np.linalg.matrix_power(w, k) for k in range(n)]
    f = np.stack(
        [sum(omega ** (-i * k) * powers[k] for k in range(n)) / n for i in range(n)]
    )
    return ShiftGadget(n, w, e, f)


def selected_columns_projection(unitary, columns):
    """``U P U*`` for the diagonal projection onto the given basis columns."""
    sel = unitary[:, columns]
    return sel @ sel.conj().T


def oracle_keyclaim(n, m):
    gadget = fourier_gadget(n)
    N = n ** (m + 1)
    expected = float(n) ** (-(2 * m + 1))
    if m == 0:
        flat = gadget.f.reshape(n, -1)
        gram = (flat @ flat.conj().T) / n
        return float(np.max(np.abs(gram - expected * np.eye(n))))
    theta_u = slot_by_slot_unitary(gadget, m)
    f_ops = [tensor(gadget.f[r], np.eye(n**m)) for r in range(n)]
    worst = 0.0
    for j_flat in range(n**m):
        theta_b = selected_columns_projection(theta_u, np.arange(j_flat * n, (j_flat + 1) * n))
        for r in range(n):
            for s in range(n):
                diag = np.diagonal(f_ops[r] @ theta_b @ f_ops[s])
                values = diag.reshape(n**m, n).sum(axis=1) / N
                target = expected if r == s else 0.0
                worst = max(worst, float(np.max(np.abs(values - target))))
    return worst


def oracle_span(n, m):
    """(count, min Gram diagonal, max off-diagonal, rank) of the padded stack."""
    gadget = fourier_gadget(n)
    N = n**m
    theta_u = slot_by_slot_unitary(gadget, m - 1)
    f_ops = [tensor(gadget.f[r], np.eye(n ** (m - 1))) for r in range(n)]
    rows = []
    for j_flat in range(n ** (m - 1)):
        theta_b = selected_columns_projection(theta_u, np.arange(j_flat * n, (j_flat + 1) * n))
        for r in range(n):
            prod = f_ops[r] @ theta_b
            for i_flat in range(N):
                x = np.zeros((N, N), dtype=complex)
                x[i_flat] = prod[i_flat]
                rows.append(x.reshape(-1))
    stack = np.stack(rows)
    gram = (stack @ stack.conj().T) / N
    diag = np.abs(np.diagonal(gram))
    off = gram - np.diag(np.diagonal(gram))
    sing = np.linalg.svd(stack, compute_uv=False)
    rank = int(np.sum(sing > 1e-9 * sing[0]))
    return len(rows), float(diag.min()), float(np.max(np.abs(off))), rank


def oracle_intertwiner_grams(n, m, r, s):
    gadget = fourier_gadget(n)
    N = n ** (m + 1)
    theta_u = slot_by_slot_unitary(gadget, m)
    grams = []
    for t in (r, s):
        f_op = tensor(gadget.f[t], np.eye(n**m))
        rows = []
        for j_flat in range(n**m):
            theta_b = selected_columns_projection(theta_u, np.arange(j_flat * n, (j_flat + 1) * n))
            prod = f_op @ theta_b
            for i_flat in range(n**m):
                x = np.zeros((N, N), dtype=complex)
                block = slice(i_flat * n, (i_flat + 1) * n)
                x[block] = prod[block]
                rows.append(x.reshape(-1))
        stack = np.stack(rows)
        grams.append((stack @ stack.conj().T) / N)
    return grams


@pytest.mark.parametrize("n", list(range(2, 10)) + [64])
def test_gadget_closed_form(n):
    closed, summed = build_gadget(n), fourier_gadget(n)
    assert np.max(np.abs(closed.f - summed.f)) < 1e-14
    assert np.array_equal(closed.w, summed.w) and np.array_equal(closed.e, summed.e)
    if n < 10:
        rebuilt = sum(tensor(np.linalg.matrix_power(summed.w, i), summed.f[i]) for i in range(n))
        assert np.max(np.abs(closed.v - rebuilt)) < 1e-14


@pytest.mark.parametrize("n,m", SWEEP)
def test_keyclaim(n, m):
    assert abs(keyclaim_check(n, m) - oracle_keyclaim(n, m)) <= TOL


@pytest.mark.parametrize("n,m", [(n, m) for n, m in SWEEP if m >= 1])
def test_span(n, m):
    rep = family_span_check(n, m)
    count, min_diag, max_off, rank = oracle_span(n, m)
    assert (rep.count, rep.rank) == (count, rank)
    assert abs(rep.min_gram_diag - min_diag) <= TOL
    assert abs(rep.max_offdiag - max_off) <= TOL


@pytest.mark.parametrize("n,m", [(n, m) for n, m in SWEEP if n <= 8])
def test_intertwiner_grams_every_pair(n, m):
    for r, s in itertools.combinations(range(n), 2):
        for got, want in zip(intertwiner_grams(n, m, r, s),
                             oracle_intertwiner_grams(n, m, r, s)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= TOL


# ---------------------------------------------------------------------------
# the float route: the oracle of the exact verdicts, with the workspace it declares


def row_factors(n, depth):
    """The factors ``(y, p̂)`` of the Gram entries of ``X_{t,J} = (f_t ⊗ 1) θ(e_J ⊗ 1)``.

    ``U`` is the depth-``depth`` θ unitary with symbol ``λ`` (``_unitary_symbol``)
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
    lam = constructions._unitary_symbol(n, depth)
    # slot by slot, which skips fftn's per-call set-up: most certified cases have depth 0 or 1
    p_hat = np.abs(lam) ** 2
    for axis in range(depth):
        p_hat = ifft(p_hat, axis=axis)
    u_0 = lam / n**depth  # [t, c_1, …, c_depth] once transformed
    for axis in range(1, depth + 1):
        u_0 = fft(u_0, axis=axis)
    rows = _shift_eigenvectors(n).conj()[:, :, None] * u_0.reshape(n, 1, -1)  # ψ_t[0, c]
    return ifft(rows.reshape(n, -1, n), axis=-1), p_hat


def first_slot_free_gram(n, m):
    """``H[c′, t, s]`` for ``m ≥ 1``, with ``G[(c₀, c′), t, s] = ω^{(s−t)c₀}·H[c′, t, s]``.

    The keyclaim Gram ``G[J, t, s] = ⟨X_{0,t,J}, X_{0,s,J}⟩`` is
    ``n·R[(t, J), (s, J)] / n^{m+1}`` by :func:`row_factors`, which reads ``p̂``
    at ``J − J = 0`` only: an inverse DFT read at 0 is a mean, so ``p̂₀`` is the
    mean of ``|λ|²`` over slots ``0 … m−1``.  With ``J = (c₀, c′)`` the rows are
    ``y[t, J] = conj(φ_t[c₀])·w[t, c′] / n^m`` for ``w = fft(λ)`` over slots
    ``1 … m−1`` (the last slot's ``fft`` and ``ifft`` cancel), for any symbol;
    ``conj(φ_t[c₀])·φ_s[c₀] = ω^{(s−t)c₀}/n`` then leaves
    ``H = Σ_κ p̂₀[κ]·w[t, c′, κ]·conj(w[s, c′, κ]) / n^{3m+1}``, ``N`` entries.
    """
    w = constructions._unitary_symbol(n, m)
    p_hat_0 = (np.abs(w.reshape(-1, n)) ** 2).mean(axis=0) / float(n) ** (3 * m + 1)
    for axis in range(1, m):
        w = fft(w, axis=axis)
    by_c = w.reshape(n, -1, n).transpose(1, 0, 2)  # [c′, t, κ]
    weighted = by_c * p_hat_0
    # w is this call's own, so it is conjugated in place: no third copy of the rows
    return weighted @ np.conjugate(by_c, out=by_c).transpose(0, 2, 1)


def float_keyclaim_check(n, m):
    """The keyclaim deviation read off ``H`` of :func:`first_slot_free_gram` in float64.

    The phase ``ω^{(s−t)c₀}`` has modulus 1 and is 1 where ``r = s``, so
    ``H`` alone gives the deviation.  At ``m = 0`` the rows are
    ``y[t, κ] = λ_t·δ_{tκ}/√n`` and the Gram is ``diag(|λ_t|⁴)/n``, with no
    off-diagonal entry to read.
    """
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    # the symbol with q and q mod n; then w with one FFT temporary; then w, its
    # weighted copy and H; then H and its moduli: at most 3N at any one time
    core.check_workspace(3 * n ** (m + 1), f"the keyclaim Gram for n={n}, m={m}")
    if m == 0:
        return float(np.max(np.abs(np.abs(constructions._unitary_symbol(n, 0)) ** 4 - 1.0))) / n
    deviation = first_slot_free_gram(n, m)
    t = np.arange(n)
    deviation[:, t, t] -= float(n) ** (-(2 * m + 1))
    return float(np.max(np.abs(deviation)))


def span_row_gram(n, m):
    """The Gram ``R`` of row ``I = 0`` of the span family, ``(t, J)`` by ``(s, J')``.

    By :func:`row_factors` at depth ``m − 1``; the block of row ``I`` is
    ``R / n^m`` with ``(t, J)`` re-indexed to ``(t, J − I)``.
    """
    y, p_hat = row_factors(n, m - 1)
    gram = np.einsum("tjk,jJk,sJk->tjsJ", y, constructions._multilevel_circulant(p_hat, m - 1),
                     y.conj())
    return gram.reshape(n**m, n**m)


def float_family_span_check(n, m):
    """The span statistics of :func:`span_row_gram` in float64, its rank by Gershgorin.

    A block whose diagonal dominates each of its rows is nonsingular, and every
    row's block passes or fails with the block of row 0.
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    dim = n**m
    # the row Gram with its gathered p̂ or its moduli, and the row factors
    core.check_workspace(2 * dim * dim + 4 * n * dim, f"the span row Gram for n={n}, m={m}")
    moduli = np.abs(span_row_gram(n, m))
    moduli /= dim
    diag = moduli.diagonal().copy()
    np.fill_diagonal(moduli, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(diag > 0.0, diag / moduli.sum(axis=1), 0.0)
    margin = float(ratios.min())
    rank = dim * dim if margin > 1.0 else 0
    return FamilySpanReport(dim * dim, float(diag.min()), float(moduli.max()), rank, margin)


def intertwiner_blocks(n, m):
    """Gram blocks of the families ``(e_I ⊗ 1) f_t θ(e_J ⊗ 1)`` at ``I = 0``, one per ``t``.

    Entry ``[t, J, J']`` pairs the members ``(0, J)`` and ``(0, J')`` with
    ``f_t`` in the middle: ``n·R[(t, J), (t, J')] / n^{m+1}`` by
    :func:`row_factors`, which also pairs ``(I, J)`` and ``(I, J')`` at
    ``[t, J − I, J' − I]``.  Members with different ``I`` have disjoint
    support, so these ``n^{2m+1}`` entries give the whole Gram of each ``t``.
    """
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    count = n**m
    # the blocks and the gathered p̂ they are read with, and the row factors
    core.check_workspace(2 * n * count**2 + 4 * n ** (m + 2),
                         f"the intertwiner blocks for n={n}, m={m}")
    y, p_hat = row_factors(n, m)
    same_t = np.einsum("tjk,jJk,tJk->tjJ", y, constructions._multilevel_circulant(p_hat, m),
                       y.conj())
    return same_t / n**m


def float_intertwiner_grams(n, m, r, s):
    """The Grams of ``intertwiner_grams`` gathered from :func:`intertwiner_blocks`.

    Rows and columns are indexed by ``(J, I)``, ``J`` major; the entries are
    the blocks' at ``(J − I, J' − I)``.
    """
    count = n**m
    shift = difference_index(n, m)
    i = np.arange(count)
    grams = []
    for block in intertwiner_blocks(n, m)[[r, s]]:
        gram = np.zeros((count, count, count, count), dtype=complex)  # (J, I, J', I')
        gram[:, i, :, i] = block[shift[:, :, None], shift[:, None, :]]
        grams.append(gram.reshape(count * count, count * count))
    return grams


def float_intertwiner_check(n, m):
    """The largest entrywise difference of the blocks of every pair ``r < s``, in one broadcast."""
    blocks = intertwiner_blocks(n, m)
    # the n blocks; for the n(n−1)/2 pairs r < s their indices, blocks[r] and blocks[s]
    core.check_workspace(n * n * blocks[0].size + n * (n - 1) // 2,
                         f"the intertwiner comparisons for n={n}, m={m}")
    r, s = np.triu_indices(n, 1)
    defects = blocks[r]
    defects -= blocks[s]
    return float(np.abs(defects).max())


# ---------------------------------------------------------------------------
# the exact verdicts against the float route


EXACT = {"keyclaim": keyclaim_check, "span": family_span_check, "intertwiner": intertwiner_check}
THETA_EDGES = constructions._symbol_edges


@pytest.mark.parametrize("n,m", SWEEP)
def test_exact_verdicts_match_the_float_oracle(n, m):
    assert keyclaim_check(n, m) == intertwiner_check(n, m) == 0.0
    assert float_keyclaim_check(n, m) <= ROUNDING
    assert float_intertwiner_check(n, m) <= ROUNDING
    if m >= 1:
        exact, floated = family_span_check(n, m), float_family_span_check(n, m)
        assert exact.count == exact.rank == floated.rank == n ** (2 * m)
        assert abs(exact.min_gram_diag - floated.min_gram_diag) <= ROUNDING
        assert exact.max_offdiag == 0.0 and floated.max_offdiag <= ROUNDING
        assert exact.margin == np.inf and floated.margin > 1.0


def assert_exact_verdict_matches_float_oracle(suite, n, m, edges, classes):
    """The exact ``suite`` verdict and the float one on the symbol with θ's edges replaced.

    ``classes`` is ``gcd(coef, n)`` for the coefficient of the lemma, 1 for a
    pass, or ``None`` where the exact route must refuse the symbol.  ``t`` and
    ``s`` pair exactly when ``t ≡ s`` mod ``n / classes``.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "_symbol_edges",
                   patched_edges(m - 1 if suite == "span" else m, edges))
        if classes is None:
            with pytest.raises(ValueError):
                EXACT[suite](n, m)
            return
        verdict = EXACT[suite](n, m)
        if suite == "keyclaim":
            size = float(n) ** (-(2 * m + 1))
            assert verdict == (0.0 if classes == 1 else size)
            assert abs(float_keyclaim_check(n, m) - verdict) <= ROUNDING
            t = np.arange(n)
            pairs = (t[:, None] - t[None, :]) % (n // classes) == 0
            assert np.max(np.abs(np.abs(first_slot_free_gram(n, m)) - size * pairs)) <= ROUNDING
        elif suite == "span":
            count = n ** (2 * m)
            assert (verdict.count, verdict.rank) == (count, count // classes)
            sing = np.linalg.svd(span_row_gram(n, m), compute_uv=False)
            assert n**m * int(np.sum(sing > 1e-9 * sing[0])) == verdict.rank
            floated = float_family_span_check(n, m)
            assert abs(verdict.min_gram_diag - floated.min_gram_diag) <= ROUNDING
            assert abs(verdict.max_offdiag - floated.max_offdiag) <= ROUNDING
            if classes == 1:
                assert verdict.margin == np.inf and floated.margin > 1.0
            else:
                assert math.isclose(verdict.margin, floated.margin, rel_tol=1e-12)
        else:
            assert verdict == 0.0 and float_intertwiner_check(n, m) <= ROUNDING


def patched_edges(depth, edges):
    """``_symbol_edges`` with θ's edges at ``depth`` replaced by the list ``edges``."""
    return lambda d, kind="theta": edges if (d, kind) == (depth, "theta") else THETA_EDGES(d, kind)


def reweighted(depth, slot, weight):
    """θ's edges at ``depth`` with the edge into ``slot`` weighted by ``weight``."""
    return [(i, j, weight if j == slot else a) for i, j, a in THETA_EDGES(depth)]


def reweighted_classes(n, slot, weight):
    """``gcd(coef, n)`` by hand, or ``None`` for a refusal: an even slot is solved for by its
    edge's weight, which must be a unit; an odd slot's weight multiplies the coefficient."""
    g = math.gcd(weight, n)
    if slot % 2 == 0:
        return 1 if g == 1 else None
    return g


@pytest.mark.parametrize("suite,n,m,slot,weight", [
    # the non-unit weight multiplies the coefficient: keyclaim reads n^{-(2m+1)}, the blocks agree
    *[(suite, n, m, slot, weight) for suite in ("keyclaim", "intertwiner")
      for n, m, slot, weight in [(4, 1, 1, 2), (4, 2, 1, 2), (2, 3, 1, 2), (6, 2, 1, 3),
                                 (4, 3, 3, 2)]],
    # the span rank falls to count / gcd
    *[("span", n, m, 1, weight) for n, m in [(4, 2), (6, 2), (8, 2), (6, 3)] for weight in (2, 4)],
    # a unit weight: every suite passes
    *[(suite, 3, m, slot, 2) for suite in ("keyclaim", "span", "intertwiner") for m in (2, 3)
      for slot in (1, 2)],
])
def test_reweighted_edges_pass_fail_or_are_refused_as_the_float_oracle_reads(suite, n, m, slot,
                                                                               weight):
    depth = m - 1 if suite == "span" else m
    edges = reweighted(depth, slot, weight)
    classes = reweighted_classes(n, slot, weight)
    assert_exact_verdict_matches_float_oracle(suite, n, m, edges, classes)


def test_exact_route_refuses_where_the_float_intertwiner_fails():
    # slot 2 solved for by the weight 2 mod 4: the float blocks of f_r and f_s disagree
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "_symbol_edges",
                   lambda d, kind="theta": reweighted(d, 2, 2) if d >= 2 else THETA_EDGES(d, kind))
        assert float_intertwiner_check(4, 2) > SUITE_TOL * 4.0 ** -5
        for check in (keyclaim_check, family_span_check, intertwiner_check):
            with pytest.raises(ValueError, match="not a unit"):
                check(4, 3 if check is family_span_check else 2)


MUTATION_CASES = {
    "keyclaim": [(n, m) for n in range(2, 9) for m in range(1, 4)],
    "span": [(n, m) for n in range(2, 9) for m in range(2, 4)],
    # the float comparisons hold n²·n^{2m} entries: at most 16 MiB here
    "intertwiner": [(n, m) for n in range(2, 9) for m in range(1, 4) if n ** (2 * m + 2) <= 2**16],
}


def mutated_edges(draw, n, depth):
    """``(edges, classes)``: θ's edges at ``depth ≥ 1`` mutated once, drawn with ``draw``."""
    edges = list(THETA_EDGES(depth))
    kinds = ["weight", "drop", "repeat"] + (["chord", "phi"] if depth >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    slot = draw(st.integers(1, depth))
    if kind == "weight":
        weight = draw(st.integers(0, n - 1))
        return reweighted(depth, slot, weight), reweighted_classes(n, slot, weight)
    mutated = {
        "drop": [e for e in edges if e[1] != slot],
        "repeat": edges + [edges[slot - 1]],
        "chord": edges + [(0, 2, 1)],
        "phi": list(THETA_EDGES(depth, "phi")),
    }[kind]
    return mutated, None


@st.composite
def mutated_symbols(draw):
    """``(suite, n, m, edges, classes)``: θ's edges at the suite's depth, mutated once."""
    suite = draw(st.sampled_from(sorted(MUTATION_CASES)))
    n, m = draw(st.sampled_from(MUTATION_CASES[suite]))
    return (suite, n, m, *mutated_edges(draw, n, m - 1 if suite == "span" else m))


@settings(max_examples=60, deadline=None)
@given(mutated_symbols())
def test_mutated_symbols_pass_fail_or_are_refused_as_the_float_oracle_reads(case):
    assert_exact_verdict_matches_float_oracle(*case)


@pytest.mark.parametrize("n,m", [(n, m) for n, m in SWEEP if n <= 8])
def test_intertwiner_grams_match_the_float_route(n, m):
    for r, s in itertools.combinations(range(n), 2):
        for got, want in zip(intertwiner_grams(n, m, r, s), float_intertwiner_grams(n, m, r, s)):
            assert np.max(np.abs(got - want)) <= ROUNDING


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_intertwiner_grams_read_a_mutated_symbol_as_the_float_route_does(data):
    # both routes read the patched edges: where the float blocks of f_r and f_s
    # disagree, so must the dense Grams, which therefore cannot restate the lemma
    n, m = data.draw(st.sampled_from([(n, m) for n in range(2, 9) for m in range(1, 4)
                                      if n ** (4 * m) <= 2**14]))
    edges, _ = mutated_edges(data.draw, n, m)
    r, s = data.draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "_symbol_edges", patched_edges(m, edges))
        for got, want in zip(intertwiner_grams(n, m, r, s), float_intertwiner_grams(n, m, r, s)):
            assert np.max(np.abs(got - want)) <= ROUNDING


def slot_by_slot_unitary(gadget, depth):
    """The θ unitary as the product of its steps ``v``, each applied to a slot pair of the rows."""
    n = gadget.n
    dim = n ** (depth + 1)
    unitary = np.eye(dim, dtype=complex)
    for r in range(1, depth + 1):
        unitary = (gadget.v @ unitary.reshape(n ** (r - 1), n * n, -1)).reshape(dim, dim)
    return unitary


def product_family(unitary, n, depth, row_block):
    """Rows and per-row-block Grams of the whole family ``X[t, J] = (f_t ⊗ 1) θ(e_J ⊗ 1)``.

    ``θ`` conjugates by ``unitary``; ``rows[I, (t, J)]`` is row block ``I``
    (``row_block`` rows) of ``X[t, J]`` flattened, ``grams[I]`` their Gram
    matrix in the normalized trace inner product, and ``(t, J)`` is flattened
    ``t``-major.
    """
    dim, count = n ** (depth + 1), n**depth
    f = build_gadget(n).f
    f_u = (f @ unitary.reshape(n, -1)).reshape(n, dim, count, n)
    family = f_u.transpose(0, 2, 1, 3) @ unitary.conj().T.reshape(count, n, dim)
    rows = family.reshape(n * count, dim // row_block, row_block * dim).transpose(1, 0, 2)
    grams = rows @ rows.conj().transpose(0, 2, 1) / dim
    return rows, grams


def dense_grams(unitary, n, m):
    """The dense same-``J`` Grams ``[I, J, t, s]`` and same-``t`` blocks ``[t, I, J, J']``."""
    count = n**m
    _, grams = product_family(unitary, n, m, n)
    pairs = grams.reshape(count, n, count, n, count)  # [I, t, J, s, J']
    same_j = np.diagonal(pairs, axis1=2, axis2=4).transpose(0, 3, 1, 2)
    same_t = np.moveaxis(np.diagonal(pairs, axis1=1, axis2=3), -1, 0)
    return same_j, same_t


def dense_row_extremes(unitary, n, depth):
    """Per row of the depth-``depth`` family: least Gram diagonal, largest off-diagonal modulus."""
    _, row_grams = product_family(unitary, n, depth, 1)
    moduli = np.abs(row_grams)
    on_diag = np.eye(moduli.shape[1], dtype=bool)
    return moduli[:, on_diag].min(axis=1), moduli[:, ~on_diag].max(axis=1)


# ---------------------------------------------------------------------------
# the factor route: ψ and P of a dense U


def theta_factors(unitary, n, depth):
    """``(φ, ψ, P)``: ``φ[:, t] = φ_t``, ``ψ[t] = (φ_t* ⊗ 1) U`` as ``(count, dim)``, ``P = U*U``.

    Row ``(i, I')`` of ``X[t, J]`` is ``φ_t[i] · ψ_t[I', J-cols] · S_J*`` for
    the ``n`` columns ``S_J`` of ``U`` labelled by ``J``, so the inner
    products of the family need only ``ψ`` and ``P``.
    """
    dim, count = n ** (depth + 1), n**depth
    a = np.arange(n)
    phi = np.exp(2j * np.pi * (np.outer(a, a) % n) / n) / np.sqrt(n)
    psi = (phi.conj().T @ unitary.reshape(n, count * dim)).reshape(n, count, dim)
    return phi, psi, unitary.conj().T @ unitary


def tiles(psi, depth):
    """``ψ`` as ``T[t, I'', k, J, l] = ψ_t[(I'', k), (J, l)]``; at depth 0, each row ``ψ_t``."""
    n, count, _ = psi.shape
    rows = n if depth else 1
    return psi.reshape(n, count // rows, rows, count, n)


def first_slot_weights(phi, depth):
    """``w[i, t, s] = φ_t[i]·conj(φ_s[i])``; at depth 0 the one row block sums the ``n`` terms."""
    if depth == 0:
        return (phi.T @ phi.conj())[None]
    return phi[:, :, None] * phi.conj()[:, None, :]


def factor_same_j_grams(unitary, n, m):
    """``[I, J, t, s]``: ``φ_t[i] conj(φ_s[i]) · tr(T[t,I'',J] P[J,J] T[s,I'',J]*) / dim``."""
    phi, psi, gram = theta_factors(unitary, n, m)
    dim, count = n ** (m + 1), n**m
    by_j = tiles(psi, m).transpose(3, 1, 0, 2, 4)  # [J, I'', t, k, l]
    p_diag = np.diagonal(gram.reshape(count, n, count, n), axis1=0, axis2=2)  # [l, l', J]
    tiles_p = by_j.reshape(count, -1, n) @ p_diag.transpose(2, 0, 1)
    flat = (count, by_j.shape[1], n, -1)  # [J, I'', t, (k, l)]
    traces = tiles_p.reshape(flat) @ by_j.reshape(flat).conj().swapaxes(-1, -2)
    grams = first_slot_weights(phi, m)[:, None, None] * traces.swapaxes(0, 1)[None] / dim
    return grams.reshape(count, count, n, n)


def factor_intertwiner_blocks(unitary, n, m):
    """``[t, I, J, J']``: ``|φ_t[i]|² · tr(T[t,I'',J] P[J,J'] T[t,I'',J']*) / dim``."""
    phi, psi, gram = theta_factors(unitary, n, m)
    dim, count = n ** (m + 1), n**m
    weights = np.diagonal(first_slot_weights(phi, m), axis1=1, axis2=2)  # [i, t]
    p_rows = gram.reshape(count, n, dim)
    blocks = np.empty((n, count, count, count), dtype=complex)
    for t, tile in enumerate(tiles(psi, m)):
        tiles_p = tile.transpose(2, 0, 1, 3).reshape(count, -1, n) @ p_rows
        tiles_p = tiles_p.reshape(count, *tile.shape[:2], count, n)
        traces = np.einsum("jakbm,akbm->ajb", tiles_p, tile.conj())
        blocks[t] = (weights[:, t, None, None, None] * traces[None]).reshape(count, count, count)
    return blocks / dim


def factor_span_extremes(unitary, n, m):
    """Per row ``I'`` of ``ψ`` at depth ``m − 1``: the least diagonal and largest off-diagonal
    modulus of ``|H_I'| / n^{m+1}``, with
    ``H_I'[(t,J),(s,J')] = ψ_t[I',J-cols] P[J,J'] ψ_s[I',J'-cols]*``."""
    _, psi, gram = theta_factors(unitary, n, m - 1)
    dim, count = n**m, n ** (m - 1)
    p_rows = gram.reshape(count, n, dim)
    least, largest = [], []
    for tile in psi.reshape(n, count, count, n).transpose(1, 2, 0, 3):  # [J, t, l] per I'
        tiles_p = (tile @ p_rows).reshape(dim, count, n)
        h = tiles_p.transpose(1, 0, 2) @ tile.conj().transpose(0, 2, 1)  # [J', (J, t), s]
        moduli = np.abs(h.transpose(1, 0, 2)).reshape(dim, dim) / n ** (m + 1)
        on_diag = np.eye(dim, dtype=bool)
        least.append(moduli[on_diag].min())
        largest.append(moduli[~on_diag].max())
    return np.array(least), np.array(largest)


def assert_factored_matches_dense(n, m, distort=lambda unitary: unitary):
    """The factor route against the dense family, both for ``distort`` of the slot-by-slot ``U``."""
    gadget = build_gadget(n)
    unitary = distort(slot_by_slot_unitary(gadget, m))
    same_j, same_t = dense_grams(unitary, n, m)
    assert np.max(np.abs(factor_same_j_grams(unitary, n, m) - same_j)) <= ROUNDING
    assert np.max(np.abs(factor_intertwiner_blocks(unitary, n, m) - same_t)) <= ROUNDING
    if m >= 1:
        unitary = distort(slot_by_slot_unitary(gadget, m - 1))
        least, largest = dense_row_extremes(unitary, n, m - 1)
        got_least, got_largest = factor_span_extremes(unitary, n, m)
        # row (i, I') of the dense family has the moduli of row I' of ψ
        assert np.max(np.abs(np.repeat(got_least[None], n, 0).ravel() - least)) <= ROUNDING
        assert np.max(np.abs(np.repeat(got_largest[None], n, 0).ravel() - largest)) <= ROUNDING


@pytest.mark.parametrize("n,m", SWEEP)
def test_factored_grams_match_dense_family(n, m):
    assert_factored_matches_dense(n, m)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SWEEP), st.integers(0, 2**32 - 1), st.floats(1e-3, 0.1))
def test_factored_grams_match_dense_family_for_non_unitary_u(case, seed, size):
    # a dense perturbation: U is neither unitary nor a convolution any more
    def distort(unitary):
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(unitary.shape + (2,)) @ np.array([1.0, 1j])
        return unitary + size * noise

    assert_factored_matches_dense(*case, distort)


# ---------------------------------------------------------------------------
# the kernel route under test, against the dense family of the gathered U


def difference_index(n, m):
    """``[I, J]``: the flat index of ``J − I``, subtracting slot by slot mod ``n``."""
    digits = np.array(list(itertools.product(range(n), repeat=m)), dtype=int).reshape(n**m, m)
    diff = (digits[None, :, :] - digits[:, None, :]) % n
    return diff @ n ** np.arange(m - 1, -1, -1, dtype=int)


def assert_kernel_route_matches_dense(n, m):
    """Keyclaim Grams and intertwiner blocks at every row block ``I``, span extremes at every row.
    """
    same_j, same_t = dense_grams(TruncatedAutomorphism.build(n, m).unitary, n, m)
    shift = difference_index(n, m)
    assert np.max(np.abs(keyclaim_grams(n, m)[shift] - same_j)) <= ROUNDING
    blocks = intertwiner_blocks(n, m)
    assert np.max(np.abs(blocks[:, shift[:, :, None], shift[:, None, :]] - same_t)) <= ROUNDING
    if m >= 1:
        least, largest = dense_row_extremes(TruncatedAutomorphism.build(n, m - 1).unitary,
                                            n, m - 1)
        rep = float_family_span_check(n, m)
        assert np.max(np.abs(least - rep.min_gram_diag)) <= ROUNDING
        assert np.max(np.abs(largest - rep.max_offdiag)) <= ROUNDING


def distorted_symbol(change):
    """``_unitary_symbol`` with ``change`` applied to a copy of the symbol ``λ = ω^q`` it returns."""
    exact = constructions._unitary_symbol

    def symbol(n, depth, kind="theta"):
        lam = exact(n, depth, kind).copy()
        change(lam)
        return lam

    return symbol


def kernel_noise(seed, size):
    """Noise on ``u``, added to ``λ`` as its ``fftn``: ``U`` stays a convolution, ``U*U ≠ 1``.

    Scaled by ``1/√(2N)``, the noise moves each Fourier coefficient of ``u``,
    an eigenvalue of ``U``, by about ``size``.
    """
    def add(lam):
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(lam.shape + (2,)) @ np.array([1.0, 1j])
        lam += np.fft.fftn(size * noise / np.sqrt(2 * lam.size))

    return add


@pytest.mark.parametrize("n,m", SWEEP)
def test_kernel_route_matches_dense_family(n, m):
    assert_kernel_route_matches_dense(n, m)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SWEEP), st.integers(0, 2**32 - 1), st.floats(1e-3, 0.1))
def test_kernel_route_matches_dense_family_for_non_unitary_u(case, seed, size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "_unitary_symbol", distorted_symbol(kernel_noise(seed, size)))
        assert_kernel_route_matches_dense(*case)


def test_gram_of_u_is_used():
    # one Fourier coefficient of u scaled by 1.001: U*U is 1.002 on that Fourier mode
    def scale(lam):
        lam.flat[3] *= 1.001

    exact_grams = keyclaim_grams(2, 2), intertwiner_blocks(2, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "_unitary_symbol", distorted_symbol(scale))
        distorted = keyclaim_grams(2, 2), intertwiner_blocks(2, 2)
        assert float_keyclaim_check(2, 2) > 1e-6
        assert_kernel_route_matches_dense(2, 2)
    for got, exact in zip(distorted, exact_grams):
        assert np.max(np.abs(got - exact)) > 1e-6


@pytest.mark.parametrize("n", [2, 3, 5])
def test_keyclaim_fails_for_every_scaled_modulus_at_depth_zero(n):
    # |λ_t| → 1.001·|λ_t| at one t: the Gram's diagonal entry |λ_t|⁴/n moves by 0.4 %
    tolerance = SUITE_TOL / n
    for t in range(n):
        def scale(lam, t=t):
            lam[t] *= 1.001

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(constructions, "_unitary_symbol", distorted_symbol(scale))
            assert float_keyclaim_check(n, 0) > tolerance, t


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_keyclaim_fails_for_every_shifted_phase(n, m):
    # ω^{q(k)} → ω^{q(k)+1} at one k: U is still a unitary convolution, but not θ's
    tolerance = SUITE_TOL * float(n) ** (-(2 * m + 1))
    for k in range(n ** (m + 1)):
        def shift_phase(lam, k=k):
            lam.flat[k] *= np.exp(2j * np.pi / n)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(constructions, "_unitary_symbol", distorted_symbol(shift_phase))
            assert float_keyclaim_check(n, m) > tolerance, k


# ---------------------------------------------------------------------------
# the keyclaim's first-slot-free Gram against the Grams of the row factors


def keyclaim_grams(n, m):
    """``⟨X_{I,t,J}, X_{I,s,J}⟩`` at ``I = 0`` as ``[J, t, s]``; any ``I`` reads it at ``J − I``.

    The ``n`` rows ``(0, k)`` of row block ``0`` each contribute ``R`` of
    :func:`row_factors`, so the entry is ``n·R[(t, J), (s, J)] / n^{m+1}``:
    one ``n × n`` product ``(y_J·p̂_0) y_J*`` per ``J``, ``n·N`` entries in all.
    """
    y, p_hat = row_factors(n, m)
    by_j = y.transpose(1, 0, 2)  # [J, t, κ]
    weighted = by_j * (p_hat.reshape(-1, n)[0] / n**m)
    return weighted @ by_j.conj().transpose(0, 2, 1)


def first_slot_phases(n):
    """``[c₀, t, s] = ω^{(s−t)c₀}``, reduced mod ``n`` before the exponential."""
    a = np.arange(n)
    return np.exp(2j * np.pi * ((a[:, None, None] * (a[None, None, :] - a[None, :, None])) % n) / n)


def assert_keyclaim_reads_the_first_slot_free_gram(n, m):
    grams = keyclaim_grams(n, m)
    if m == 0:
        want = np.diag(np.abs(constructions._unitary_symbol(n, 0)) ** 4 / n)[None]
    else:
        want = first_slot_phases(n)[:, None] * first_slot_free_gram(n, m)[None]
        want = want.reshape(grams.shape)
    assert np.max(np.abs(grams - want)) <= ROUNDING
    deviation = float(np.max(np.abs(grams - float(n) ** (-(2 * m + 1)) * np.eye(n))))
    assert abs(float_keyclaim_check(n, m) - deviation) <= ROUNDING


@pytest.mark.parametrize("n,m", SWEEP)
def test_keyclaim_reads_the_first_slot_free_gram(n, m):
    assert_keyclaim_reads_the_first_slot_free_gram(n, m)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SWEEP), st.integers(0, 2**32 - 1), st.floats(1e-3, 0.1))
def test_keyclaim_reads_the_first_slot_free_gram_for_non_unitary_symbols(case, seed, size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "_unitary_symbol", distorted_symbol(kernel_noise(seed, size)))
        assert_keyclaim_reads_the_first_slot_free_gram(*case)


# ---------------------------------------------------------------------------
# the symbol route against the position-space kernel route it replaced


def kernel_row_factors(n, depth):
    """``(y, p̂)`` of :func:`row_factors` read off the kernel ``u`` in position space."""
    u = _unitary_kernel(n, depth)
    neg = (-np.arange(n)) % n
    u_0 = fft(u, axis=0)[(slice(None), *np.ix_(*[neg] * depth))]  # [t, −c_1, …, −c_depth]
    rows = _shift_eigenvectors(n).conj()[:, :, None] * u_0.reshape(n, 1, -1)  # ψ_t[0, c]
    y = ifft(rows.reshape(n, -1, n), axis=-1)
    p_hat = fft(ifftn(np.abs(fftn(u)) ** 2), axis=-1)
    return y, p_hat


def kernel_keyclaim_grams(n, m):
    """The Grams of :func:`keyclaim_grams` from :func:`kernel_row_factors`, by one ``einsum``."""
    y, p_hat = kernel_row_factors(n, m)
    return np.einsum("tjk,k,sjk->jts", y, p_hat.reshape(-1, n)[0], y.conj()) / n**m


def assert_symbol_route_matches_kernel_route(n, m):
    y, p_hat = row_factors(n, m)
    kernel_y, kernel_p_hat = kernel_row_factors(n, m)
    assert np.max(np.abs(y - kernel_y)) <= ROUNDING
    assert np.max(np.abs(p_hat - kernel_p_hat)) <= SYMBOL_ROUNDING
    assert np.max(np.abs(keyclaim_grams(n, m) - kernel_keyclaim_grams(n, m))) <= ROUNDING


@pytest.mark.parametrize("n,m", SWEEP)
def test_symbol_route_matches_kernel_route(n, m):
    assert_symbol_route_matches_kernel_route(n, m)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SWEEP), st.integers(0, 2**32 - 1), st.floats(1e-3, 0.1))
def test_symbol_route_matches_kernel_route_for_non_unitary_symbols(case, seed, size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "_unitary_symbol", distorted_symbol(kernel_noise(seed, size)))
        assert_symbol_route_matches_kernel_route(*case)


def test_certificates_never_build_the_position_space_kernel(monkeypatch):
    def refuse(n, depth, kind="theta"):
        raise AssertionError(f"the position-space kernel was built for n={n}, depth={depth}")

    monkeypatch.setattr(constructions, "_unitary_kernel", refuse)
    with pytest.raises(AssertionError, match="position-space kernel"):
        TruncatedAutomorphism.build(2, 1)
    for n, m in [(n, m) for n, m in SWEEP if n ** (m + 1) <= 27]:
        assert float_keyclaim_check(n, m) <= TOL
        assert np.max(np.abs(intertwiner_blocks(n, m)[0] - intertwiner_blocks(n, m)[1])) <= TOL
        if m >= 1:
            assert float_family_span_check(n, m).rank == n ** (2 * m)


@pytest.mark.parametrize(
    "certificate,bound",
    [
        # the dense family peaked at about 81 MB here
        (lambda: float_keyclaim_check(2, 6), 4_000_000),
        # and at about 10 MB here; the output alone is 1 MB
        (lambda: intertwiner_blocks(2, 5), 6_000_000),
        # the N³ span rows peaked at about 112 MB here
        pytest.param(lambda: float_family_span_check(2, 7), 4_000_000, id="span"),
    ],
)
def test_certificates_hold_no_cubic_family(certificate, bound):
    tracemalloc.start()
    try:
        certificate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
