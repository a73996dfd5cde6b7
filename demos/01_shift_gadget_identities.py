"""Walk through the shift gadget on M_n and the identities it certifies.

The gadget pairs the diagonal masa (projections e_i) with the circulant masa
generated by the cyclic shift w (spectral projections f_i).  Conjugating the
diagonal masa of a tensor power by products of the step unitary
v = sum_i w^i (x) f_i produces the pairs whose multiplicity structure the rest
of the package analyses; everything rests on three numerical facts checked
here: the inner-product formula, the spanning family, and the intertwiner
Gram identity.
"""

import numpy as np

from puklab import (
    TracedAlgebraShape,
    build_gadget,
    family_span_check,
    intertwiner_check,
    intertwiner_grams,
    keyclaim_check,
    normalized_trace,
)

np.set_printoptions(precision=3, suppress=True, linewidth=100)

n = 3
gadget = build_gadget(n)
print(f"== the shift gadget on M_{n} ==")
print("cyclic shift w:\n", gadget.w.real)
print("\nw e_1 w* (should be e_0):\n", (gadget.w @ gadget.e[1] @ gadget.w.conj().T).real)

shape = TracedAlgebraShape.full_matrix(n)
print("\ntrace table tr(e_i f_j), all entries 1/n^2 =", 1 / n**2)
table = np.array(
    [
        [normalized_trace(gadget.e[i] @ gadget.f[j], shape).real for j in range(n)]
        for i in range(n)
    ]
)
print(table)

print("\nstep unitary v = sum_i w^i (x) f_i is unitary:",
      np.allclose(gadget.v @ gadget.v.conj().T, np.eye(n * n)))

print("\n== the conjugated inner products ==")
print("After conjugating by the first m step unitaries, the inner product of")
print("(e_i1 (x) ... (x) e_im) f_r theta(e_j1 (x) ... (x) e_jm) against f_s")
print("equals  delta_{r,s} / n^(2m+1)  for every index tuple.")
for m in range(3):
    dev = keyclaim_check(n, m)
    print(f"  m={m}: expected {n ** -(2 * m + 1):.6f}, max deviation {dev:.2e}")

print("\n== the spanning family ==")
print("The products with one free slot give n^(2m) orthogonal non-zero")
print("elements of the n^m x n^m matrices, which is the whole space:")
for m in (1, 2):
    rep = family_span_check(n, m)
    print(
        f"  m={m}: {rep.count} elements, rank {rep.rank}, "
        f"min gram diag {rep.min_gram_diag:.4f}, max offdiag {rep.max_offdiag:.2e}"
    )

print("\n== the relabelling intertwiners ==")
print("Swapping f_r for f_s preserves every pairwise inner product, so the")
print("relabelling extends to a partial isometry between the two corners:")
print(f"  m=1, every pair r < s: max Gram disagreement {intertwiner_check(n, 1):.2e}")

gram_r, gram_s = intertwiner_grams(n, 1, 0, 1)
print("\nGram diagonal on either side (all entries 1/n^3):")
print(np.diagonal(gram_r).real)
