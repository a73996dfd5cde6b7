"""Shift-gadget certificates against the zero-padded route they replaced.

The oracle builds the gadget's spectral projections as Fourier sums of powers
of the shift, and certifies each family element by padding its rows into a
zero matrix of the full size: keyclaim sums the diagonal of ``f_r θ(e_J) f_s``
row block by row block, span takes the Gram matrix and the singular values of
the stack of all padded elements, and the intertwiner Grams are the dense
Gram matrices of the two padded families.  The engine under test forms one
Gram per row block instead; the cross-block entries it leaves out are exact
zeros of the padded route.
"""

import itertools

import numpy as np
import pytest

from puklab.constructions import (
    ShiftGadget,
    TruncatedAutomorphism,
    build_gadget,
    family_span_check,
    intertwiner_grams,
    keyclaim_check,
)
from puklab.core import tensor

CAP = 1296
TOL = 1e-13
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
    return TruncatedAutomorphism.build(gadget, depth, "theta", cap=CAP).unitary


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
    assert abs(keyclaim_check(n, m, cap=CAP) - oracle_keyclaim(n, m)) <= TOL


@pytest.mark.parametrize("n,m", [(n, m) for n, m in SWEEP if m >= 1])
def test_span(n, m):
    rep = family_span_check(n, m, cap=CAP)
    count, min_diag, max_off, rank = oracle_span(n, m)
    assert (rep.count, rep.rank) == (count, rank)
    assert abs(rep.min_gram_diag - min_diag) <= TOL
    assert abs(rep.max_offdiag - max_off) <= TOL


@pytest.mark.parametrize("n,m", [(n, m) for n, m in SWEEP if n <= 8])
def test_intertwiner_grams_every_pair(n, m):
    for r, s in itertools.combinations(range(n), 2):
        for got, want in zip(intertwiner_grams(n, m, r, s, cap=CAP),
                             oracle_intertwiner_grams(n, m, r, s)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= TOL
