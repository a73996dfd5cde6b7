"""Shift-gadget certificates against two slower routes.

The zero-padded oracle builds the gadget's spectral projections as Fourier
sums of powers of the shift, and certifies each family element by padding its
rows into a zero matrix of the full size: keyclaim sums the diagonal of
``f_r θ(e_J) f_s`` row block by row block, span takes the Gram matrix and the
singular values of the stack of all padded elements, and the intertwiner Grams
are the dense Gram matrices of the two padded families.

The dense-family oracle holds the whole family ``X[t, J] = (f_t ⊗ 1)θ(e_J ⊗ 1)``
(``N³`` entries) and forms one Gram per row block.  The engine under test reads
the same Gram entries off ``ψ = (Φ* ⊗ 1)U`` and ``P = U*U`` in ``n × n``
tiles, so the two agree entry by entry up to rounding, also for a ``U`` that
is not unitary.  Span reads only the moduli of its single-row Grams, one
row ``I'`` of ``ψ`` at a time; their smallest diagonal and largest
off-diagonal entries agree with those of the dense rows.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puklab.constructions import (
    ShiftGadget,
    TruncatedAutomorphism,
    _same_j_grams,
    build_gadget,
    family_span_check,
    intertwiner_blocks,
    intertwiner_grams,
    keyclaim_check,
)
from puklab.core import tensor

CAP = 1296
TOL = 1e-13
ROUNDING = 1e-15  # entrywise gap allowed between the factored and the dense Grams
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


def theta_unitary(gadget, depth):
    return TruncatedAutomorphism.build(gadget, depth, "theta").unitary


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
    theta_u = theta_unitary(gadget, m)
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
    theta_u = theta_unitary(gadget, m - 1)
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
    theta_u = theta_unitary(gadget, m)
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


def product_family(n, depth, row_block):
    """Rows and per-row-block Grams of the whole family ``X[t, J] = (f_t ⊗ 1) θ(e_J ⊗ 1)``.

    ``rows[I, (t, J)]`` is row block ``I`` (``row_block`` rows) of ``X[t, J]``
    flattened, ``grams[I]`` their Gram matrix in the normalized trace inner
    product, and ``(t, J)`` is flattened ``t``-major.
    """
    dim, count = n ** (depth + 1), n**depth
    gadget = build_gadget(n)
    unitary = TruncatedAutomorphism.build(gadget, depth, "theta").unitary
    f_u = (gadget.f @ unitary.reshape(n, -1)).reshape(n, dim, count, n)
    family = f_u.transpose(0, 2, 1, 3) @ unitary.conj().T.reshape(count, n, dim)
    rows = family.reshape(n * count, dim // row_block, row_block * dim).transpose(1, 0, 2)
    grams = rows @ rows.conj().transpose(0, 2, 1) / dim
    return rows, grams


def assert_factored_matches_dense(n, m):
    """Same-``J`` Grams and intertwiner blocks entry by entry, span Gram moduli at the extremes."""
    count = n**m
    _, grams = product_family(n, m, n)
    pairs = grams.reshape(count, n, count, n, count)  # [I, t, J, s, J']
    same_j = np.diagonal(pairs, axis1=2, axis2=4).transpose(0, 3, 1, 2)  # [I, J, t, s]
    same_t = np.moveaxis(np.diagonal(pairs, axis1=1, axis2=3), -1, 0)  # [t, I, J, J']
    assert np.max(np.abs(_same_j_grams(n, m) - same_j)) <= ROUNDING
    assert np.max(np.abs(intertwiner_blocks(n, m) - same_t)) <= ROUNDING
    if m >= 1:
        _, row_grams = product_family(n, m - 1, 1)
        moduli = np.abs(row_grams)
        on_diag = np.eye(moduli.shape[1], dtype=bool)
        rep = family_span_check(n, m)
        assert abs(rep.min_gram_diag - moduli[:, on_diag].min()) <= ROUNDING
        assert abs(rep.max_offdiag - moduli[:, ~on_diag].max()) <= ROUNDING


def distorted_build(distort):
    """``TruncatedAutomorphism.build`` with ``distort`` applied to a copy of ``U``."""
    exact = TruncatedAutomorphism.build

    def build(cls, gadget, depth, kind="theta"):
        return cls(gadget, depth, kind, distort(exact(gadget, depth, kind).unitary.copy()))

    return classmethod(build)


@pytest.mark.parametrize("n,m", SWEEP)
def test_factored_grams_match_dense_family(n, m):
    assert_factored_matches_dense(n, m)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SWEEP), st.integers(0, 2**32 - 1), st.floats(1e-3, 0.1))
def test_factored_grams_match_dense_family_for_non_unitary_u(case, seed, size):
    # a dense perturbation: U*U gets entries off its diagonal blocks as well
    def distort(unitary):
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(unitary.shape + (2,)) @ np.array([1.0, 1j])
        return unitary + size * noise

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TruncatedAutomorphism, "build", distorted_build(distort))
        assert_factored_matches_dense(*case)


def test_gram_of_u_is_used():
    # one column of U scaled by 1.001: reading U*U as I would be off by about 2e-3 relative
    def distort(unitary):
        unitary[:, 3] *= 1.001
        return unitary

    exact_grams = _same_j_grams(2, 2), intertwiner_blocks(2, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TruncatedAutomorphism, "build", distorted_build(distort))
        distorted = _same_j_grams(2, 2), intertwiner_blocks(2, 2)
        assert keyclaim_check(2, 2) > 1e-6
        assert_factored_matches_dense(2, 2)
    for got, exact in zip(distorted, exact_grams):
        assert np.max(np.abs(got - exact)) > 1e-6


@pytest.mark.parametrize(
    "certificate,bound",
    [
        # the dense family peaked at about 81 MB here
        (lambda: keyclaim_check(2, 6), 4_000_000),
        # and at about 10 MB here; the output alone is 1 MB
        (lambda: intertwiner_blocks(2, 5), 6_000_000),
        # the N³ span rows peaked at about 112 MB here
        pytest.param(lambda: family_span_check(2, 7), 4_000_000, id="span"),
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
