"""Acceptance suite: one pass/fail line per criterion, tolerances pinned inline.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import itertools
import time

import numpy as np

from puklab.algebra import (
    commutant,
    finite_puk_spectrum,
    generate_algebra,
    minimal_projections,
    mixed_spectrum,
)
from puklab.constructions import intertwiner_grams, truncated_masa_pair
from puklab.core import GnsSpace, TracedAlgebraShape
from puklab.diagrams import diagram_from_construction
from puklab.errors import NonSingletonInfiniteError
from puklab.gadgets import family_span_check, intertwiner_check, keyclaim_check
from puklab.indices import (
    LambdaSpec,
    Override,
    glue_check,
    index_count,
    iter_indices,
    iter_sibling_pairs,
    level_zero,
    pipe,
    sibling_pair_count,
)
from puklab.invariant import (
    CutdownOracle,
    choose_lambda_for_e,
    choose_lambda_for_efg,
    cor_plan_1_in_puk,
    countable_family_plan,
    eval_construction,
)
from puklab.nsets import (
    INF,
    NSet,
    direct_sum_puk,
    nset_product,
    tensor_mixed,
    tensor_mixed_infinite,
)

TOL = 1e-10
SIMPLE = CutdownOracle.simple()
INTRO = LambdaSpec(default=3, overrides=(Override(0, level_zero(0), level_zero(1), 2),))

KEYCLAIM_RANGE = [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2)]
FAMILY_RANGE = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]


def report(number, description, ok):
    print(f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_keyclaim_identity():
    start = time.perf_counter()
    worst = max(keyclaim_check(n, m) for n, m in KEYCLAIM_RANGE)
    elapsed = time.perf_counter() - start
    ok = worst < TOL and elapsed < 30.0
    report(1, f"keyclaim inner products within {TOL:g} "
              f"(worst {worst:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_2_orthogonal_family_spanning():
    ok = True
    worst_off = 0.0
    for n, m in FAMILY_RANGE:
        rep = family_span_check(n, m)
        worst_off = max(worst_off, rep.max_offdiag)
        ok = ok and rep.count == n ** (2 * m) == rep.rank and rep.min_gram_diag > 0.0
    ok = ok and worst_off < TOL
    report(2, f"orthogonal families span with full rank (worst offdiag {worst_off:.2e})", ok)


def test_criterion_3_intertwiner_isometry():
    ok = True
    worst = 0.0
    for n, m in KEYCLAIM_RANGE:
        expected = float(n) ** (-(2 * m + 1))
        worst = max(worst, intertwiner_check(n, m))
        for r in range(n):
            for s in range(r + 1, n):
                gram_r, gram_s = intertwiner_grams(n, m, r, s)
                for gram in (gram_r, gram_s):
                    off = gram - np.diag(np.diagonal(gram))
                    ok = ok and float(np.max(np.abs(off))) < TOL
                    ok = ok and np.allclose(np.diagonal(gram).real, expected, atol=TOL)
    ok = ok and worst < TOL
    report(3, f"relabelling maps are isometries (worst Gram defect {worst:.2e})", ok)


def test_criterion_4_dimension_checks():
    ok = True
    for n in (2, 3):
        a_gens, b_gens = truncated_masa_pair(n, 2)
        rep = mixed_spectrum(a_gens, b_gens, TracedAlgebraShape.full_matrix(n * n))
        ok = ok and rep.as_set == NSet.of(1) and rep.block_count == n**4
    for n in (2, 3, 4):
        gens = [np.diag(np.eye(n, dtype=complex)[i]) for i in range(n)]
        rep = finite_puk_spectrum(gens, TracedAlgebraShape.full_matrix(n))
        ok = ok and rep.as_set == NSet.of(1) and rep.block_count == n * n - n
    report(4, "mixed spectra of conjugated pairs and diagonal-masa spectra are {1}", ok)


def test_criterion_5_algebra_engine_oracles():
    ok = True
    # commutation theorem on the named shapes
    for shape in (
        TracedAlgebraShape.full_matrix(2),
        TracedAlgebraShape.full_matrix(3),
        TracedAlgebraShape.from_blocks((2, 1)),
    ):
        space = GnsSpace(shape)
        units = []
        for sl, d in zip(shape.block_slices(), shape.blocks):
            for i in range(d):
                for j in range(d):
                    u = np.zeros((shape.total_dim,) * 2, dtype=complex)
                    u[sl.start + i, sl.start + j] = 1.0
                    units.append(u)
        left = generate_algebra([space.left(u) for u in units])
        comm = commutant(left)
        rights = generate_algebra([space.right(u) for u in units])
        stacked = np.concatenate([comm.basis, rights.basis]).reshape(
            comm.dim + rights.dim, -1
        )
        sing = np.linalg.svd(stacked, compute_uv=False)
        joint = int(np.sum(sing > 1e-9 * sing[0]))
        ok = ok and comm.dim == rights.dim == joint == shape.gns_dim
        ok = ok and commutant(comm).dim == left.dim
    # 100 seeded random trials: bicommutant dimensions and multiplicity sums
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        gens = [
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for _ in range(int(rng.integers(1, 3)))
        ]
        alg = generate_algebra(gens)
        if commutant(commutant(alg)).dim != alg.dim:
            failures += 1
        parts, left = [], dim
        while left:
            take = int(rng.integers(1, left + 1))
            parts.append(take)
            left -= take
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        unitary = q * (np.diag(r) / np.abs(np.diag(r)))
        projs, start = [], 0
        for p in parts:
            diag = np.zeros(dim)
            diag[start : start + p] = 1.0
            projs.append(unitary @ np.diag(diag).astype(complex) @ unitary.conj().T)
            start += p
        rep = minimal_projections(generate_algebra(projs), seed=seed)
        if sum(rep.multiplicities) != dim or rep.multiset != tuple(sorted(parts)):
            failures += 1
    ok = ok and failures == 0
    report(5, f"bicommutant/commutation oracles and 100 seeded trials ({failures} failures)", ok)


def expected_intro_cells(level):
    out = []
    for x in range(1 << level):
        row = []
        for y in range(1 << level):
            if x == y:
                row.append("1")
            else:
                split = level - max(x ^ y, 1).bit_length()
                row.append("2" if split == 0 else "3")
        out.append(row)
    return out


def nonempty_subsets(values):
    for size in range(1, len(values) + 1):
        for combo in itertools.combinations(values, size):
            yield NSet(combo)


def test_criterion_6_symbolic_reproduction():
    ok = True
    # (a) the introductory spec and its staged diagrams
    result = eval_construction(INTRO, SIMPLE, 2)
    ok = ok and result.value == NSet.of(2, 3) and result.converged
    for r in (0, 1, 2):
        d = diagram_from_construction(INTRO, SIMPLE, r)
        ok = ok and [[str(c) for c in row] for row in d.cells] == expected_intro_cells(r + 1)
        ok = ok and d.diagonal_marked
    # (b) the all-infinity spec
    ok = ok and eval_construction(LambdaSpec(default=INF), SIMPLE, 2).value == NSet.of(INF)
    # (c) every non-empty target over {1,2,3,5,inf} round-trips
    for target in nonempty_subsets([1, 2, 3, 5, INF]):
        res = eval_construction(choose_lambda_for_e(target), SIMPLE, 3)
        ok = ok and res.value == target and res.converged
    # (d) every triple over non-empty subsets of {1,2,5,inf} round-trips
    pool = list(nonempty_subsets([1, 2, 5, INF]))
    for e in pool:
        for f in pool:
            for g in pool:
                spec = choose_lambda_for_efg(e, f, g)
                ok = ok and eval_construction(spec, SIMPLE, 2, "both_zero").value == e
                ok = ok and eval_construction(spec, SIMPLE, 2, "both_one").value == f
                ok = ok and eval_construction(spec, SIMPLE, 2, "mixed").value == g
                ok = ok and eval_construction(spec, SIMPLE, 2).value == e | f | g
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    # (e) every finite set containing 1 inside {1..6, inf} round-trips
    for extra in nonempty_subsets([2, 3, 4, 5, 6, INF]):
        target = extra | NSet.of(1)
        ok = ok and cor_plan_1_in_puk(target).evaluate() == target
    ok = ok and cor_plan_1_in_puk(NSet.of(1)).evaluate() == NSet.of(1)
    # (f) the four-masa family grid
    fig4 = [[1, 3, 1, 1], [3, 1, 1, 1], [1, 1, 1, 3], [1, 1, 3, 1]]
    table = countable_family_plan(fig4).pairwise_table()
    for a in range(4):
        for b in range(4):
            expected = NSet.of(1) if a == b else NSet.of(fig4[a][b])
            ok = ok and table[a][b] == expected
    report(6, "symbolic walkthrough, planners, and family grids round-trip", ok)


def test_criterion_7_combinatorics():
    ok = True
    for r in range(4):
        for m in range(1, 4):
            pools = [
                itertools.product((0, 1), repeat=m + r - t) for t in range(r + 1)
            ]
            brute = sum(1 for _ in itertools.product(*pools))
            enumerated = sum(1 for _ in iter_indices(r, m))
            ok = ok and brute == enumerated == index_count(r, m)
    ok = ok and sibling_pair_count(0) == 1 and sum(1 for _ in iter_sibling_pairs(0)) == 1
    ok = ok and sibling_pair_count(1) == 12 and sum(1 for _ in iter_sibling_pairs(1)) == 12
    for r in (1, 2):
        fiber_size = 1 << (r + 1)
        expected = index_count(r - 1, 1) * fiber_size * (fiber_size - 1) // 2
        ok = ok and sibling_pair_count(r) == expected
        ok = ok and all(
            pipe(i, r - 1) == pipe(j, r - 1) for i, j in iter_sibling_pairs(r)
        )
    glue = glue_check(3, 3)
    ok = ok and glue.passed
    report(7, f"index counts, sibling fibers, and {glue.cases_checked} exact glue cases", ok)


def test_criterion_8_set_calculus_laws():
    ok = True
    rng = np.random.default_rng(23)
    def random_nset():
        finite = frozenset(int(v) for v in rng.integers(1, 20, rng.integers(0, 5)))
        return NSet(finite | {INF} if rng.integers(0, 2) else finite)
    for _ in range(200):
        e, f, g = random_nset(), random_nset(), random_nset()
        ok = ok and nset_product(e, f) == nset_product(f, e)
        ok = ok and nset_product(nset_product(e, f), g) == nset_product(e, nset_product(f, g))
        ok = ok and nset_product(NSet.of(1), e) == e
        if e:
            ok = ok and nset_product(NSet.of(INF), e) == NSet.of(INF)
    ok = ok and nset_product(NSet.of(2), NSet.of(INF)) == NSet.of(INF)
    ok = ok and tensor_mixed([NSet.of(2), NSet.of(3)]) == NSet.of(6)
    ok = ok and tensor_mixed_infinite([NSet.of(2)], tail_all_ones=False) == NSet.of(INF)
    ok = ok and tensor_mixed_infinite([NSet.of(2)], tail_all_ones=True) == NSet.of(2)
    try:
        tensor_mixed_infinite([NSet.of(2, 3)], tail_all_ones=True)
        ok = False
    except NonSingletonInfiniteError:
        pass
    e = NSet.of(2, 3)
    ok = ok and direct_sum_puk(e, e, NSet.of(1)) == e | NSet.of(1)
    report(8, "set products, the infinity convention, and the tensor rules hold", ok)
