"""The workspace budget: every numeric routine declares its peak, and the peak holds to it.

Each routine that allocates calls ``core.check_workspace`` before it
allocates, with its peak count of complex entries; a routine that works in
stages declares each stage.  Here ``tracemalloc`` measures every such routine
over the ``verify`` sweep at ``--max-dim 16384`` and over spectra up to
``M_96``: the peak of each stage, from one declaration to the next or to the
end of the call, stays within 16 bytes per entry of its own declaration,
plus a fixed allowance for Python objects and small temporaries.  The
certificates are measured on their float route, the oracle of
``test_certificate_oracle``; the exact verdicts allocate no array at all.
``tracemalloc`` sees numpy's array buffers; LAPACK's per-call workspace is
allocated outside it.  The symbolic evaluation declares nothing, and its peak
stays small at any depth: it keeps no table of the levels it has passed.
"""

import tracemalloc

import numpy as np
import pytest
from test_certificate_oracle import (
    float_family_span_check,
    float_intertwiner_check,
    float_keyclaim_check,
    intertwiner_blocks,
)

from puklab import algebra, cli, constructions, core, gadgets
from puklab.algebra import (
    AlgebraBasis,
    commutant,
    finite_puk_spectrum,
    generate_algebra,
    minimal_projections,
    mixed_spectrum,
    relative_commutant_dim,
)
from puklab.cli import _construction_range
from puklab.config import lambda_from_config
from puklab.constructions import TruncatedAutomorphism, intertwiner_grams, truncated_masa_pair
from puklab.core import TracedAlgebraShape, check_workspace
from puklab.errors import NotAbelianError, ResourceGuardError
from puklab.gadgets import family_span_check, intertwiner_check, keyclaim_check
from puklab.indices import LambdaSpec, MultiIndex
from puklab.invariant import CutdownOracle, eval_construction
from puklab.nsets import NSet

SLACK = 64 * 1024
SWEEP = list(_construction_range(16384))
SPECTRUM_SIZES = (2, 3, 8, 16, 33, 65, 96)


def diag_units(n):
    return [np.diag(np.eye(n, dtype=complex)[i]) for i in range(n)]


def haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rotated_masa(rng, n):
    u = haar_unitary(rng, n)
    return [u @ g @ u.conj().T for g in diag_units(n)]


@pytest.fixture
def declared(monkeypatch):
    """The stages since the last ``clear()``: ``[entries, peak]`` for each call of
    ``check_workspace``, with the traced peak from it to the next call or to the end."""
    stages = []

    def recording(entries, what):
        if stages:
            stages[-1][1] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        stages.append([entries, 0])
        check_workspace(entries, what)

    # the CLI's runners import it from core when they run
    for module in (algebra, constructions, core):
        monkeypatch.setattr(module, "check_workspace", recording)
    return stages


def assert_within_declared(declared, label, call):
    """Hold each stage of ``call()`` to its own declaration; return what it raised."""
    declared.clear()
    raised = None
    tracemalloc.start()
    try:
        call()
    except NotAbelianError as exc:
        raised = exc
    finally:
        if declared:
            declared[-1][1] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert declared, f"{label} declared no workspace"
    for entries, peak in declared:
        assert peak <= 16 * entries + SLACK, (label, peak, entries)
    return raised


# ---------------------------------------------------------------------------
# the budget itself


def test_budget_is_inclusive_and_read_at_call_time(monkeypatch):
    check_workspace(core.WORKSPACE_BYTES // 16, "exactly the budget")
    with pytest.raises(ResourceGuardError, match="over the budget"):
        check_workspace(core.WORKSPACE_BYTES // 16 + 1, "one entry over")
    monkeypatch.setattr(core, "WORKSPACE_BYTES", 16 * 10)
    check_workspace(10, "ten entries")
    with pytest.raises(ResourceGuardError):
        check_workspace(11, "eleven entries")


# ---------------------------------------------------------------------------
# spectra past the old GNS-dimension cap of 4096


@pytest.mark.parametrize("n", [65, 96])
def test_rotated_diagonal_masas_beyond_gns_dimension_4096(n):
    rng = np.random.default_rng(n)
    shape = TracedAlgebraShape.full_matrix(n)
    a_gens, b_gens = diag_units(n), rotated_masa(rng, n)
    mixed = mixed_spectrum(a_gens, b_gens, shape, seed=1)
    assert mixed.as_set == NSet.of(1)
    assert mixed.block_count == n * n
    puk = finite_puk_spectrum(b_gens, shape, seed=1)
    assert puk.as_set == NSet.of(1)
    assert puk.block_count == n * n - n


# ---------------------------------------------------------------------------
# declared counts bound the traced peaks


@pytest.mark.parametrize("n,m", SWEEP)
def test_certificates_stay_within_declared_workspace(declared, n, m):
    calls = {
        "build": lambda: TruncatedAutomorphism.build(n, m),
        "keyclaim": lambda: float_keyclaim_check(n, m),
        "intertwiner blocks": lambda: intertwiner_blocks(n, m),
        "intertwiner check": lambda: float_intertwiner_check(n, m),
        "masa pair": lambda: truncated_masa_pair(n, m + 1),
    }
    if m >= 1:
        calls["span"] = lambda: float_family_span_check(n, m)
    if 16 * 2 * n ** (4 * m) <= core.WORKSPACE_BYTES:
        calls["intertwiner grams"] = lambda: intertwiner_grams(n, m, 0, 1)
    for label, call in calls.items():
        assert_within_declared(declared, label, call)


@pytest.mark.parametrize("m", [7, 8, 9])
def test_deep_unitaries_stay_within_declared_workspace(declared, m):
    # SWEEP stops at dim = 36; these reach dim = 1024, where the gather dominates
    assert_within_declared(declared, "build", lambda: TruncatedAutomorphism.build(2, m))


@pytest.mark.parametrize("k", [8, 10])
def test_masa_pair_stages_stay_within_declared_workspace(declared, k):
    # the pair's upfront check, the build's U with its indices, and the image stage's U
    # with conj(U)·d and the image: 3·N² entries, 48 MiB at N = 1024
    assert_within_declared(declared, "masa pair", lambda: truncated_masa_pair(2, k))
    image = (3 << 2 * k) + 4 * core.CHUNK_ENTRIES
    assert [entries for entries, _ in declared] == [image, 2 << 2 * k, image]


def test_deep_keyclaim_stays_within_declared_workspace(declared):
    assert_within_declared(declared, "keyclaim", lambda: float_keyclaim_check(2, 8))


def test_span_past_the_old_refusal_stays_within_declared_workspace(declared):
    # the N³ rows refused m = 8; the factors and one row's Gram take about 6 MiB
    assert_within_declared(declared, "span", lambda: float_family_span_check(2, 8))


def test_intertwiner_comparisons_stay_within_declared_workspace(declared, monkeypatch):
    # n = 128 at m = 0 compares 8,128 pairs at once: the pairs' indices and both gathered
    # stacks come to 3·8,128 entries beside the 128 blocks, over the slack on their own
    monkeypatch.setattr(gadgets, "intertwiner_check", float_intertwiner_check)
    verdicts = []
    assert_within_declared(declared, "intertwiner suite", lambda: verdicts.extend(
        good for good, _ in cli._RUNNERS["intertwiner"](16384)))
    assert len(verdicts) == len(SWEEP) and all(verdicts)
    assert 128 * 128 + 128 * 127 // 2 in [entries for entries, _ in declared]


@pytest.mark.parametrize("label,call", [
    ("keyclaim", lambda: float_keyclaim_check(2, 12)),
    ("span", lambda: float_family_span_check(2, 10)),
    ("intertwiner blocks", lambda: intertwiner_blocks(2, 10)),
    ("intertwiner grams", lambda: intertwiner_grams(2, 5, 0, 1)),
])
def test_certificates_at_their_quoted_reach_stay_within_declared_workspace(declared, label, call):
    # the sizes the README quotes for each certificate under the default budget
    assert_within_declared(declared, label, call)


@pytest.mark.parametrize("n", SPECTRUM_SIZES)
def test_spectra_stay_within_declared_workspace(declared, n):
    rng = np.random.default_rng(n)
    shape = TracedAlgebraShape.full_matrix(n)
    # real generators, so each one is converted to complex on the way in
    units = [g.real for g in diag_units(n)]
    rotated = rotated_masa(rng, n)
    assert_within_declared(declared, "mixed", lambda: mixed_spectrum(units, rotated, shape))
    assert_within_declared(declared, "puk", lambda: finite_puk_spectrum(rotated, shape))


@pytest.mark.parametrize("n", SPECTRUM_SIZES)
def test_commutator_failure_path_stays_within_declared_workspace(declared, n):
    # after the rejected samples, the failure path forms [a, b] and [a, b*]
    # for two random combinations a, b of the n generators: four n × n products
    rng = np.random.default_rng(n)
    shape = TracedAlgebraShape.full_matrix(n)
    units = [g.real for g in diag_units(n)]
    tangled = [g @ haar_unitary(rng, n) for g in diag_units(n)]
    raised = assert_within_declared(
        declared, "not abelian", lambda: mixed_spectrum(tangled, units, shape)
    )
    assert isinstance(raised, NotAbelianError)


@pytest.mark.parametrize("tangled", [False, True], ids=["commuting", "not abelian"])
def test_two_generators_stay_within_declared_workspace(declared, tangled):
    # with k = D the 5k·D term adds 5·D² of room; with k = 2 on C^128 it adds 8 %
    # of one D², so the sample, the eigenbasis with 128 clusters beside the left
    # one, and the failure path's commutators must each fit the (k + 5)·D² alone
    rng = np.random.default_rng(2)
    shape = TracedAlgebraShape.full_matrix(128)
    u = haar_unitary(rng, 128)
    gens = [u @ np.diag(rng.standard_normal(128)) @ u.conj().T for _ in range(2)]
    if tangled:
        gens[1] = gens[1] @ haar_unitary(rng, 128)
    raised = assert_within_declared(declared, "two generators",
                                    lambda: mixed_spectrum(gens, gens, shape))
    assert isinstance(raised, NotAbelianError) == tangled


def test_one_generator_of_distinct_eigenvalues_stays_within_declared_workspace(declared):
    # 256 clusters of one eigenvalue each: the cluster comparisons take 2·D², beside the
    # generator, the eigenbasis and the left eigenbasis mixed_spectrum holds
    rng = np.random.default_rng(256)
    u = haar_unitary(rng, 256)
    gen = (u * np.arange(1.0, 257.0)) @ u.conj().T
    shape = TracedAlgebraShape.full_matrix(256)
    raised = assert_within_declared(declared, "distinct eigenvalues",
                                    lambda: mixed_spectrum([gen], [gen], shape))
    assert raised is None and len(declared) == 2


@pytest.mark.parametrize("k", [1, 2])
def test_real_generators_of_distinct_eigenvalues_stay_within_declared_workspace(declared, k):
    # real generators are converted to complex on the way in; no copy of one may stay
    # held beside the k converted ones at the residual, where numpy's ufunc buffer sits
    o, _ = np.linalg.qr(np.random.default_rng(k).standard_normal((256, 256)))
    gens = [(o * np.arange(1.0, 257.0) ** (p + 1)) @ o.T for p in range(k)]
    shape = TracedAlgebraShape.full_matrix(256)
    raised = assert_within_declared(declared, f"{k} real generators",
                                    lambda: mixed_spectrum(gens, gens, shape))
    assert raised is None and len(declared) == 2


@pytest.mark.parametrize("blocks, side", [((64,) * 8, "generator"), ((16,) * 8, "projections")])
def test_block_masa_stays_within_declared_workspace(declared, blocks, side):
    # one eigh and the residuals per diagonal block, within the dense route's count; the
    # 512 projections of 8 blocks of 64 would hold 2 GiB, so those run on 8 blocks of 16
    shape = TracedAlgebraShape.from_blocks(blocks)
    n, rng = shape.total_dim, np.random.default_rng(len(blocks))
    u = np.zeros((n, n), dtype=complex)
    for sl, d in zip(shape.block_slices(), blocks):
        u[sl, sl] = haar_unitary(rng, d)
    if side == "generator":
        gens = [(u * np.arange(1.0, n + 1)) @ u.conj().T]
    else:
        gens = [u @ g @ u.conj().T for g in diag_units(n)]
    assert finite_puk_spectrum(gens, shape).block_count == shape.gns_dim - n
    assert_within_declared(declared, "puk", lambda: finite_puk_spectrum(gens, shape))
    assert_within_declared(declared, "mixed", lambda: mixed_spectrum(gens, list(gens), shape))


def test_minimal_projections_of_a_masa_stays_within_declared_workspace(declared):
    for n in (32, 64):
        alg = generate_algebra(rotated_masa(np.random.default_rng(n), n))
        report = minimal_projections(alg, seed=0)
        assert report.multiset == (1,) * n
        # the eigenbasis, then the projections stacked beside it: each held to its own count
        assert_within_declared(declared, f"C^{n}", lambda: minimal_projections(alg, seed=0))
        assert len(declared) == 2


def test_declared_counts_are_their_closed_forms(declared):
    # each stage declares its documented count, not only a count its peak fits under
    rng = np.random.default_rng(5)
    D, k = 6, 2
    gens = [rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)) for _ in range(k)]
    declared.clear()
    alg = generate_algebra(gens)
    # the first batch: k generators with their scaled copies and multipliers, the basis
    # thrice at dimension 1, and the 2k + 1 candidates with their SVD
    assert declared[0][0] == (4 * k + 3 + 7 * (2 * k + 1)) * D * D
    declared.clear()
    commutant(alg)
    assert [entries for entries, _ in declared] == [6 * D**4]
    masa = generate_algebra(rotated_masa(rng, D))
    declared.clear()
    minimal_projections(masa, seed=0)
    # the eigenbasis, then the projections with it and one span residual
    assert len(declared) == 2 and declared[1][0] == (masa.dim + 3) * D * D


@pytest.mark.parametrize("n", [4, 9, 16])
def test_commutator_kernels_stay_within_declared_workspace(declared, n):
    # a masa, the full matrix algebra and the scalars: kernels of dimension n, 1 and n²
    shape = TracedAlgebraShape.from_blocks((n - n // 3, n // 3))
    units = AlgebraBasis(n, np.eye(n * n, dtype=complex).reshape(-1, n, n))
    for alg in (generate_algebra(rotated_masa(np.random.default_rng(n), n)), units,
                generate_algebra([np.eye(n)])):
        assert_within_declared(declared, "commutant", lambda: commutant(alg))
        assert_within_declared(declared, "relative", lambda: relative_commutant_dim(alg, shape))


def matrix_units(n):
    return list(np.eye(n * n, dtype=complex).reshape(n * n, n, n))


@pytest.mark.parametrize("make", [
    lambda rng: rotated_masa(rng, 32),
    lambda rng: matrix_units(12),
    lambda rng: list(rng.standard_normal((2, 12, 12)) + 1j * rng.standard_normal((2, 12, 12))),
], ids=["masa of M_32", "units of M_12", "random pair on C^12"])
def test_generate_algebra_batches_stay_within_their_declared_counts(declared, make):
    # each batch is held to its own count, not to the sum over the call
    gens = make(np.random.default_rng(12))
    assert_within_declared(declared, "generate_algebra", lambda: generate_algebra(gens))


def test_spectrum_runs_within_its_declared_count(monkeypatch, declared):
    # 32 generators on C^32 declare 37 · 1024 + 5 · 32 · 32 + 4 · 2048 entries,
    # 819,200 bytes; the budget sits below the 164 · 1024 entries of the old count
    monkeypatch.setattr(core, "WORKSPACE_BYTES", 1 << 20)
    rng = np.random.default_rng(32)
    shape = TracedAlgebraShape.full_matrix(32)
    pair = rotated_masa(rng, 32), rotated_masa(rng, 32)
    assert mixed_spectrum(*pair, shape).as_set == NSet.of(1)
    assert_within_declared(declared, "mixed", lambda: mixed_spectrum(*pair, shape))


@pytest.mark.parametrize("n", [13, 22, 31])
def test_uneven_chunks_stay_within_declared_workspace(declared, n):
    # chunks of ⌊CHUNK_ENTRIES / n²⌋ generators, 12, 4 and 2, with a shorter one last
    assert n % (core.CHUNK_ENTRIES // (n * n)) != 0
    rng = np.random.default_rng(n)
    shape = TracedAlgebraShape.full_matrix(n)
    units = [g.real for g in diag_units(n)]
    rotated = rotated_masa(rng, n)
    assert_within_declared(declared, "mixed", lambda: mixed_spectrum(units, rotated, shape))
    assert_within_declared(declared, "puk", lambda: finite_puk_spectrum(rotated, shape))


def tangled_stack(n):
    """``n`` read-only generators on ``C^n`` that commute with nothing, as one complex stack."""
    rng = np.random.default_rng(n)
    stack = np.stack([3 * g @ haar_unitary(rng, n) for g in diag_units(n)])
    stack.flags.writeable = False
    return stack


def test_read_only_stack_is_left_unwritten_on_the_failure_path(declared):
    # the failure path scales the coefficients of its combinations, not the generators;
    # the B list is the caller's, built before the call like the stack
    n = 22
    stack, units = tangled_stack(n), diag_units(n)
    before = stack.copy()
    shape = TracedAlgebraShape.full_matrix(n)
    raised = assert_within_declared(declared, "read-only stack",
                                    lambda: mixed_spectrum(stack, units, shape))
    assert isinstance(raised, NotAbelianError)
    assert np.array_equal(stack, before)


def test_stack_is_declared_only_when_copied(declared):
    # a complex C-contiguous stack is read as it is: 5·D² + 5k·D + 4·CHUNK_ENTRIES entries,
    # 208,512 bytes for 22 generators on C^22; a list pays k·D² more for its copy
    n = 22
    stack, units = tangled_stack(n), diag_units(n)
    shape = TracedAlgebraShape.full_matrix(n)
    for gens, size in ((stack, 208_512), (list(stack), 208_512 + 16 * n**3)):
        raised = assert_within_declared(declared, f"{type(gens).__name__} of generators",
                                        lambda: mixed_spectrum(gens, units, shape))
        assert isinstance(raised, NotAbelianError)
        assert [16 * entries for entries, _ in declared] == [size]


@pytest.mark.parametrize("n,m", [(2, 40), (97, 6), (4096, 1), (2, 400), (3, 1000)])
def test_exact_certificates_declare_and_allocate_nothing(declared, n, m):
    # the verdicts walk the θ symbol's edges: past any array the budget could hold
    tracemalloc.start()
    try:
        verdicts = keyclaim_check(n, m), family_span_check(n, m), intertwiner_check(n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdicts[0] == verdicts[2] == 0.0 and verdicts[1].rank == n ** (2 * m)
    assert declared == [] and peak < 4096


@pytest.mark.parametrize("config", [
    {"enumerate": "2,3,5"},
    {"quadrants": {"both_zero": "2,3", "both_one": "5", "mixed": "7,11,inf"}},
])
def test_deep_evaluation_peak_is_bounded(config):
    # stream starts are taken modulo the value lists and each level's segment
    # table is dropped once read: no level's exact bounds outlive its level
    spec = lambda_from_config(config)
    tracemalloc.start()
    try:
        result = eval_construction(spec, CutdownOracle.simple(), 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged and peak < 2 << 20, peak


def test_value_lookups_at_deep_levels_hold_nothing():
    # a pair's rank is index arithmetic with no per-level memo left behind
    spec = LambdaSpec(enumeration=NSet.of(2, 3, 5))
    pairs = [(MultiIndex(r, 1, (0,) * (r + 1)), MultiIndex(r, 1, (0,) * r + (1,)))
             for r in range(301)]
    tracemalloc.start()
    try:
        for r, (i, j) in enumerate(pairs):
            spec.value(r, i, j)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < SLACK, held


# ---------------------------------------------------------------------------
# refusals come before any allocation


@pytest.mark.parametrize("label,call", [
    # the first sizes past the budget: 3·2^23 entries for keyclaim, the 4096² row
    # Gram and its moduli for span, the 2·2048² blocks and gathered p̂ for the intertwiner,
    # U and the two N² of the image at N = 4096 for the masa pair
    ("keyclaim", lambda: float_keyclaim_check(2, 22)),
    ("span", lambda: float_family_span_check(2, 12)),
    ("intertwiner blocks", lambda: intertwiner_blocks(2, 11)),
    ("intertwiner grams", lambda: intertwiner_grams(2, 6, 0, 1)),
    ("masa pair", lambda: truncated_masa_pair(2, 12)),
    ("build", lambda: TruncatedAutomorphism.build(2, 12)),
])
def test_refused_certificates_allocate_nothing(label, call):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SLACK, (label, peak)


def test_refused_spectrum_allocates_nothing(monkeypatch):
    units = diag_units(16)
    shape = TracedAlgebraShape.full_matrix(16)
    # 16 generators on C^16 declare 22 · 256 + 5 · 16 · 16 + 4 · 2048 entries, 241,664 bytes
    monkeypatch.setattr(core, "WORKSPACE_BYTES", 1 << 16)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError):
            mixed_spectrum(units, units, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SLACK


def test_refused_commutant_allocates_nothing(monkeypatch):
    alg = generate_algebra(diag_units(16))
    # its commutator system on C^16 declares 6 · 16⁴ entries, 6 MiB
    monkeypatch.setattr(core, "WORKSPACE_BYTES", 4 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError):
            commutant(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SLACK


def test_refused_generate_algebra_allocates_nothing(monkeypatch):
    units = matrix_units(12)
    # the first batch, 144 generators' multipliers, declares 2602 · 144 entries, 5.7 MiB
    monkeypatch.setattr(core, "WORKSPACE_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError):
            generate_algebra(units)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SLACK


def test_refused_minimal_projections_allocates_nothing(monkeypatch):
    alg = generate_algebra(diag_units(16))
    # its eigenbasis reads the basis as it is and declares 5 · 256 + 5 · 16 · 16 + 4 · 2048
    # entries, 172,032 bytes; the projections' stage after it declares less
    monkeypatch.setattr(core, "WORKSPACE_BYTES", 1 << 15)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError):
            minimal_projections(alg, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * (1 << 20)
