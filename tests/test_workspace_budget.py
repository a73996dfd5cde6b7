"""The workspace budget: every numeric routine declares its peak, and the peak holds to it.

Each routine that allocates calls ``core.check_workspace`` once, before it
allocates, with its peak count of complex entries.  Here ``tracemalloc``
measures every such routine over the ``verify`` sweep at ``--max-dim 16384``
and over spectra up to ``M_96``: the peak of a call stays within 16 bytes per
entry declared inside it, plus a fixed allowance for Python objects and
small temporaries.  ``tracemalloc`` sees numpy's array buffers; LAPACK's
per-call workspace is allocated outside it.
"""

import tracemalloc

import numpy as np
import pytest

from puklab import algebra, constructions, core
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
from puklab.constructions import (
    TruncatedAutomorphism,
    build_gadget,
    family_span_check,
    intertwiner_blocks,
    intertwiner_check,
    intertwiner_grams,
    keyclaim_check,
    truncated_masa_pair,
)
from puklab.core import TracedAlgebraShape, check_workspace
from puklab.errors import NotAbelianError, ResourceGuardError
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
    """The entry counts passed to ``check_workspace`` since the last ``clear()``."""
    counts = []

    def recording(entries, what):
        counts.append(entries)
        check_workspace(entries, what)

    for module in (algebra, constructions):
        monkeypatch.setattr(module, "check_workspace", recording)
    return counts


def assert_within_declared(declared, label, call):
    """Check the peak of ``call()`` against the entries declared in it; return what it raised."""
    declared.clear()
    raised = None
    tracemalloc.start()
    try:
        call()
    except NotAbelianError as exc:
        raised = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert declared, f"{label} declared no workspace"
    assert peak <= 16 * sum(declared) + SLACK, (label, peak, declared)
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
    gadget = build_gadget(n)
    calls = {
        "build": lambda: TruncatedAutomorphism.build(gadget, m),
        "theta factors": lambda: constructions._theta_factors(n, m),
        "keyclaim": lambda: keyclaim_check(n, m),
        "intertwiner blocks": lambda: intertwiner_blocks(n, m),
        "intertwiner check": lambda: intertwiner_check(n, m, 0, 1),
        "masa pair": lambda: truncated_masa_pair(n, m + 1),
    }
    if m >= 1:
        calls["span"] = lambda: family_span_check(n, m)
    if 16 * 2 * n ** (4 * m) <= core.WORKSPACE_BYTES:
        calls["intertwiner grams"] = lambda: intertwiner_grams(n, m, 0, 1)
    for label, call in calls.items():
        assert_within_declared(declared, label, call)


@pytest.mark.parametrize("m", [7, 8, 9])
def test_deep_unitaries_stay_within_declared_workspace(declared, m):
    # SWEEP stops at dim = 36; these reach dim = 1024, where the steps dominate
    gadget = build_gadget(2)
    assert_within_declared(declared, "build", lambda: TruncatedAutomorphism.build(gadget, m))
    assert_within_declared(declared, "theta factors", lambda: constructions._theta_factors(2, m))


def test_deep_keyclaim_stays_within_declared_workspace(declared):
    assert_within_declared(declared, "keyclaim", lambda: keyclaim_check(2, 8))


def test_span_past_the_old_refusal_stays_within_declared_workspace(declared):
    # the N³ rows refused m = 8; the factors and one row's Gram take about 6 MiB
    assert_within_declared(declared, "span", lambda: family_span_check(2, 8))


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


def test_minimal_projections_of_a_masa_stays_within_declared_workspace(declared):
    alg = generate_algebra(rotated_masa(np.random.default_rng(32), 32))
    report = minimal_projections(alg, seed=0)
    assert report.multiset == (1,) * 32
    assert_within_declared(declared, "projections", lambda: minimal_projections(alg, seed=0))


@pytest.mark.parametrize("n", [4, 9, 16])
def test_commutator_kernels_stay_within_declared_workspace(declared, n):
    # a masa, the full matrix algebra and the scalars: kernels of dimension n, 1 and n²
    shape = TracedAlgebraShape.from_blocks((n - n // 3, n // 3))
    units = AlgebraBasis(n, np.eye(n * n, dtype=complex).reshape(-1, n, n))
    for alg in (generate_algebra(rotated_masa(np.random.default_rng(n), n)), units,
                generate_algebra([np.eye(n)])):
        assert_within_declared(declared, "commutant", lambda: commutant(alg))
        assert_within_declared(declared, "relative", lambda: relative_commutant_dim(alg, shape))


def test_spectrum_runs_within_its_declared_count(monkeypatch, declared):
    # 32 generators on C^32 declare 38 · 1024 + 5 · 32 · 32 entries, 704,512 bytes;
    # the budget sits below the 164 · 1024 entries of the old count
    monkeypatch.setattr(core, "WORKSPACE_BYTES", 1 << 20)
    rng = np.random.default_rng(32)
    shape = TracedAlgebraShape.full_matrix(32)
    pair = rotated_masa(rng, 32), rotated_masa(rng, 32)
    assert mixed_spectrum(*pair, shape).as_set == NSet.of(1)
    assert_within_declared(declared, "mixed", lambda: mixed_spectrum(*pair, shape))


# ---------------------------------------------------------------------------
# refusals come before any allocation


@pytest.mark.parametrize("label,call", [
    ("keyclaim", lambda: keyclaim_check(2, 10)),
    # the span checks to m = 10; at 11 its θ factors alone are over the budget
    ("span", lambda: family_span_check(2, 11)),
    ("intertwiner blocks", lambda: intertwiner_blocks(2, 9)),
    ("intertwiner grams", lambda: intertwiner_grams(2, 6, 0, 1)),
    ("masa pair", lambda: truncated_masa_pair(2, 9)),
    ("build", lambda: TruncatedAutomorphism.build(build_gadget(2), 12)),
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
    # 16 generators on C^16 declare 22 · 256 + 5 · 16 · 16 entries, 110,592 bytes
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


def test_refused_minimal_projections_allocates_nothing(monkeypatch):
    alg = generate_algebra(diag_units(16))
    # its 16 dense projections on C^16 alone declare 16 · 256 entries, 65,536 bytes
    monkeypatch.setattr(core, "WORKSPACE_BYTES", 1 << 15)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError):
            minimal_projections(alg, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * (1 << 20)
