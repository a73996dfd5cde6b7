import itertools
import tracemalloc

import numpy as np
import pytest

from puklab import algebra, core
from puklab.algebra import (
    AlgebraBasis,
    commutant,
    cutdown_spectrum,
    finite_puk_spectrum,
    generate_algebra,
    minimal_projections,
    mixed_spectrum,
    orthonormalize_span,
)
from puklab.core import GnsSpace, TracedAlgebraShape, adjoint
from puklab.errors import (
    DegenerateSampleError,
    NotAbelianError,
    NotInAlgebraError,
    NotMasaError,
    ResourceGuardError,
    ShapeMismatchError,
)
from puklab.nsets import NSet


def diag_units(n):
    return [np.diag(np.eye(n, dtype=complex)[i]) for i in range(n)]


def matrix_units(n):
    return list(np.eye(n * n, dtype=complex).reshape(n * n, n, n))


def off_block_generator():
    """diag(1, 2, 3) with entries linking the blocks of shape (2, 1)."""
    m = np.diag([1.0, 2.0, 3.0]).astype(complex)
    m[0, 2] = m[2, 0] = 0.5
    return m


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gram_defect(alg):
    b = alg.basis_matrix()
    return float(np.max(np.abs(b @ b.conj().T - np.eye(alg.dim))))


def adjoint_defect(alg):
    return max((alg.span_residual(adjoint(b)) for b in alg.basis), default=0.0)


def span_rank(mats):
    """Independent rank oracle on a list of matrices."""
    stack = np.stack([np.asarray(m).reshape(-1) for m in mats])
    s = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(s > 1e-9 * s[0]))


def word_span_rank(generators, max_length):
    """Brute-force span of all words in the generators and their adjoints."""
    alphabet = list(generators) + [adjoint(g) for g in generators]
    D = alphabet[0].shape[0]
    words = [np.eye(D, dtype=complex)]
    for length in range(1, max_length + 1):
        for picks in itertools.product(alphabet, repeat=length):
            w = np.eye(D, dtype=complex)
            for p in picks:
                w = w @ p
            words.append(w)
    return span_rank(words)


class TestGenerateAlgebra:
    def test_identity_alone(self):
        assert generate_algebra([np.eye(2)]).dim == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_diagonal_masa(self, n):
        assert generate_algebra(diag_units(n)).dim == n

    def test_left_right_diagonal_on_gns(self):
        # oracle: brute-force word span of the four generators
        space = GnsSpace(TracedAlgebraShape.full_matrix(2))
        gens = [space.left(u) for u in diag_units(2)]
        gens += [space.right(u) for u in diag_units(2)]
        alg = generate_algebra(gens)
        assert alg.dim == 4
        assert word_span_rank(gens, 3) == 4
        # spanned by the rank-one products of left and right units
        products = [space.left(a) @ space.right(b) for a in diag_units(2) for b in diag_units(2)]
        assert span_rank(products + list(alg.basis)) == 4

    def test_full_matrix_algebra(self):
        rng = np.random.default_rng(0)
        gens = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))]
        assert generate_algebra(gens).dim == 9

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        gens = [rng.standard_normal((4, 4)) for _ in range(2)]
        alg = generate_algebra(gens)
        again = generate_algebra(list(alg.basis))
        assert again.dim == alg.dim

    def test_basis_invariants(self):
        rng = np.random.default_rng(2)
        gens = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))]
        alg = generate_algebra(gens)
        assert gram_defect(alg) < 1e-10
        assert adjoint_defect(alg) < 1e-9
        assert alg.span_residual(np.eye(4)) < 1e-9

    @pytest.mark.parametrize("D", [16, 20, 24])
    def test_one_symmetric_generator(self, D):
        # the powers of h fell below the old relative cut at D = 20 and 24,
        # and rounding noise grew the span into all of M_D
        rng = np.random.default_rng(1)
        a = rng.standard_normal((D, D))
        q, _ = np.linalg.qr(rng.standard_normal((D, D)))
        for h in ((a + a.T) / 2, q @ np.diag(np.arange(D, dtype=float)) @ q.T):
            alg = generate_algebra([h])
            assert alg.dim == D
            # abelian, with D rank-one minimal projections
            assert minimal_projections(alg, seed=0).multiset == (1,) * D

    @pytest.mark.parametrize("D", [3, 8, 16])
    @pytest.mark.parametrize("theta", [5e-10, 3e-8, 3e-7])
    def test_normal_generator_with_a_tiny_phase(self, D, theta):
        # e^{iθ}h is normal, so it generates the masa of h; its skew part i(g − g*) is
        # about θ, where the rounding of g split its spectrum into projections that
        # missed the algebra by more than the span cut, and the span grew towards M_D
        rng = np.random.default_rng(D)
        q, _ = np.linalg.qr(rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)))
        h = q @ np.diag(np.arange(1.0, D + 1)) @ q.conj().T
        alg = generate_algebra([np.exp(1j * theta) * h])
        assert alg.dim == D
        assert minimal_projections(alg, seed=0).multiset == (1,) * D

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
    def test_scale_free(self, c):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p, q = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])
        for gens, dim in (([c * g], 16), ([c * p], 2), ([c * p, q / c], 3)):
            alg = generate_algebra(gens)
            assert alg.dim == dim
            assert alg.span_residual(np.eye(len(gens[0]))) < 1e-9

    def test_hermitian_part_within_the_cut_adds_nothing(self):
        # i(g − g*) has norm 5e-11 after scaling: below SPAN_RTOL, as in the multipliers,
        # so g generates what its Hermitian part does
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((2, 6, 6))
        h = (a + a.T) / np.linalg.norm(a + a.T)
        g = h + 1e-11j * (b + b.T) / np.linalg.norm(b + b.T)
        assert generate_algebra([g]).dim == generate_algebra([h]).dim == 6


class TestCommutant:
    def test_full_algebra_gives_scalars(self):
        alg = generate_algebra(matrix_units(3))
        assert commutant(alg).dim == 1

    def test_scalars_give_everything(self):
        alg = generate_algebra([np.eye(4)])
        assert commutant(alg).dim == 16

    @pytest.mark.parametrize("n", [2, 3])
    def test_left_commutant_is_right_action(self, n):
        # finite commutation theorem; oracle checks span equality both ways
        space = GnsSpace(TracedAlgebraShape.full_matrix(n))
        left = generate_algebra([space.left(u) for u in matrix_units(n)])
        comm = commutant(left)
        rights = [space.right(u) for u in matrix_units(n)]
        assert comm.dim == n * n
        assert span_rank(rights) == n * n
        assert span_rank(list(comm.basis) + rights) == n * n

    def test_commutant_is_unital_and_star_closed(self):
        rng = np.random.default_rng(3)
        alg = generate_algebra([rng.standard_normal((4, 4)) for _ in range(1)])
        comm = commutant(alg)
        assert comm.span_residual(np.eye(4)) < 1e-9
        assert adjoint_defect(comm) < 1e-9

    def test_bicommutant_random_generators(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            dim = int(rng.integers(2, 17))
            count = int(rng.integers(1, 3))
            gens = [
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                for _ in range(count)
            ]
            alg = generate_algebra(gens)
            assert commutant(commutant(alg)).dim == alg.dim


class TestMinimalProjections:
    def test_scalars(self):
        rep = minimal_projections(generate_algebra([np.eye(4)]), seed=0)
        assert rep.multiset == (4,)

    def test_left_right_diagonal(self):
        # oracle: the four explicit rank-one cutdown projections
        space = GnsSpace(TracedAlgebraShape.full_matrix(2))
        gens = [space.left(u) for u in diag_units(2)] + [space.right(u) for u in diag_units(2)]
        rep = minimal_projections(generate_algebra(gens), seed=0)
        assert rep.multiset == (1, 1, 1, 1)
        expected = [space.left(a) @ space.right(b) for a in diag_units(2) for b in diag_units(2)]
        for q in rep.blocks:
            assert min(np.max(np.abs(q - p)) for p in expected) < 1e-8

    def test_diagonal_masa_on_column_space(self):
        rep = minimal_projections(generate_algebra(diag_units(3)), seed=0)
        assert rep.multiset == (1, 1, 1)

    def test_multiplicities_sum_to_dimension(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            dim = int(rng.integers(2, 9))
            parts = []
            left = dim
            while left:
                take = int(rng.integers(1, left + 1))
                parts.append(take)
                left -= take
            u = random_unitary(rng, dim)
            projs, start = [], 0
            for p in parts:
                d = np.zeros(dim)
                d[start : start + p] = 1.0
                projs.append(u @ np.diag(d).astype(complex) @ u.conj().T)
                start += p
            rep = minimal_projections(generate_algebra(projs), seed=seed)
            assert sum(rep.multiplicities) == dim
            assert rep.multiset == tuple(sorted(parts))

    def test_not_abelian(self):
        with pytest.raises(NotAbelianError):
            minimal_projections(generate_algebra(matrix_units(2)), seed=0)

    def test_cluster_count_short_of_dimension_raises_at_once(self, monkeypatch):
        # span{diag(1, 0, 0)} has no unit: the certified eigenbasis also splits
        # off 1 - diag(1, 0, 0), and no fresh sample can change that count
        calls = []
        sample = algebra._hermitian_sample
        monkeypatch.setattr(algebra, "_hermitian_sample",
                            lambda rng, mats: calls.append(1) or sample(rng, mats))
        alg = AlgebraBasis(3, np.diag([1.0, 0.0, 0.0]).astype(complex)[None])
        with pytest.raises(DegenerateSampleError, match="2 clusters for dim 1"):
            minimal_projections(alg, seed=0)
        assert len(calls) == 1

    def test_deterministic_for_seed(self):
        alg = generate_algebra(diag_units(4))
        a = minimal_projections(alg, seed=11)
        b = minimal_projections(alg, seed=11)
        assert a.multiplicities == b.multiplicities
        assert np.max(np.abs(a.blocks - b.blocks)) < 1e-10

    def test_projection_quality(self):
        rep = minimal_projections(generate_algebra(diag_units(3)), seed=1)
        for q in rep.blocks:
            assert np.max(np.abs(q @ q - q)) < 1e-8
            assert np.max(np.abs(q - adjoint(q))) < 1e-8


class TestMixedSpectrum:
    def test_diagonal_pair_m2(self):
        shape = TracedAlgebraShape.full_matrix(2)
        rep = mixed_spectrum(diag_units(2), diag_units(2), shape)
        assert rep.multiset == (1, 1, 1, 1)
        assert rep.as_set == NSet.of(1)

    def test_degenerate_scalars(self):
        shape = TracedAlgebraShape.full_matrix(2)
        rep = mixed_spectrum([np.eye(2)], [np.eye(2)], shape)
        assert rep.multiset == (4,)
        # no generators: the unit alone, on the shape's C^D
        assert mixed_spectrum([], [], shape).multiset == (4,)
        assert mixed_spectrum([], diag_units(2), shape).multiset == (2, 2)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        shape = TracedAlgebraShape.full_matrix(3)
        u = random_unitary(rng, 3)
        a = diag_units(3)
        b = [u @ x @ u.conj().T for x in diag_units(3)]
        assert mixed_spectrum(a, b, shape).as_set == mixed_spectrum(b, a, shape).as_set

    def test_unitary_invariance(self):
        rng = np.random.default_rng(7)
        shape = TracedAlgebraShape.full_matrix(2)
        a, b = diag_units(2), diag_units(2)
        base = mixed_spectrum(a, b, shape)
        for _ in range(3):
            u, v = random_unitary(rng, 2), random_unitary(rng, 2)
            moved = mixed_spectrum(
                [u @ x @ u.conj().T for x in a], [v @ x @ v.conj().T for x in b], shape
            )
            assert moved.multiset == base.multiset

    def test_resource_guard(self, monkeypatch):
        # 8 generators on C^8 declare (8 + 5)·64 + 5·8·8 + 4·2048 entries, 149,504 bytes
        monkeypatch.setattr(core, "WORKSPACE_BYTES", 1 << 14)
        shape = TracedAlgebraShape.full_matrix(8)
        with pytest.raises(ResourceGuardError):
            mixed_spectrum(diag_units(8), diag_units(8), shape)

    def test_not_abelian_propagates(self):
        shape = TracedAlgebraShape.full_matrix(2)
        with pytest.raises(NotAbelianError):
            mixed_spectrum(matrix_units(2), diag_units(2), shape)

    def test_off_block_generator_rejected(self):
        # reading only the diagonal blocks used to report (1,1,1,1,1) here
        shape = TracedAlgebraShape.from_blocks((2, 1))
        with pytest.raises(ShapeMismatchError):
            mixed_spectrum([off_block_generator()], diag_units(3), shape)
        with pytest.raises(ShapeMismatchError):
            mixed_spectrum(diag_units(3), [off_block_generator()], shape)
        with pytest.raises(ShapeMismatchError):
            finite_puk_spectrum([off_block_generator()], shape)
        # an eigenvector of the swap straddles the two 1 × 1 blocks: the spectra
        # read the diagonal blocks alone, so only the membership check refuses it
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(ShapeMismatchError):
            mixed_spectrum([swap], [], TracedAlgebraShape.from_blocks((1, 1)))

    def test_diagonal_pair_m16_builds_no_gns_operator(self, monkeypatch):
        # the dense GNS route took 327 s and 1.3 GB here
        def refuse(*args, **kwargs):
            raise AssertionError("a GNS-sized operator was built")

        monkeypatch.setattr(GnsSpace, "_one_sided", refuse)
        n = 16
        u = random_unitary(np.random.default_rng(16), n)
        b = [u @ x @ u.conj().T for x in diag_units(n)]
        shape = TracedAlgebraShape.full_matrix(n)
        rep = mixed_spectrum(diag_units(n), b, shape)
        assert rep.multiset == (1,) * (n * n)
        assert rep.ambient_dim == n * n
        assert finite_puk_spectrum(b, shape).multiset == (1,) * (n * n - n)

    def test_non_maximal_m12_is_rank_product(self):
        n, r, s = 12, (5, 4, 3), (2, 7, 1, 2)
        u = random_unitary(np.random.default_rng(12), n)
        a = np.diag(np.repeat([1.0, 2.0, 3.0], r)).astype(complex)
        b = u @ np.diag(np.repeat([1.0, 2.0, 3.0, 4.0], s)).astype(complex) @ u.conj().T
        rep = mixed_spectrum([a], [b], TracedAlgebraShape.full_matrix(n))
        assert rep.multiset == tuple(sorted(x * y for x in r for y in s))


class TestFinitePukSpectrum:
    @pytest.mark.parametrize("n,blocks", [(2, 2), (3, 6)])
    def test_diagonal_masa(self, n, blocks):
        rep = finite_puk_spectrum(diag_units(n), TracedAlgebraShape.full_matrix(n))
        assert rep.as_set == NSet.of(1)
        assert rep.block_count == blocks

    def test_not_masa(self):
        with pytest.raises(NotMasaError):
            finite_puk_spectrum([np.eye(2)], TracedAlgebraShape.full_matrix(2))

    def test_conjugated_masa_m48_in_small_memory(self):
        # the relative-commutant system here was 110,592 × 2,304, about 4 GB
        n = 48
        u = random_unitary(np.random.default_rng(48), n)
        gens = [u @ x @ u.conj().T for x in diag_units(n)]
        tracemalloc.start()
        try:
            rep = finite_puk_spectrum(gens, TracedAlgebraShape.full_matrix(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.multiset == (1,) * (n * n - n) == (1,) * 2256
        assert peak < 32 << 20

    def test_masa_subspace_has_full_rank(self):
        # the retained blocks miss exactly n dimensions: the span of the masa
        rep = finite_puk_spectrum(diag_units(3), TracedAlgebraShape.full_matrix(3))
        assert sum(rep.multiplicities) == 9 - 3


class TestCutdownSpectrum:
    def setup_method(self):
        self.space = GnsSpace(TracedAlgebraShape.full_matrix(2))
        gens = [self.space.left(u) for u in diag_units(2)]
        gens += [self.space.right(u) for u in diag_units(2)]
        self.alg = generate_algebra(gens)

    def test_unit_cutdown_is_everything(self):
        rep = cutdown_spectrum(self.alg, np.eye(4))
        assert rep.multiset == minimal_projections(self.alg, seed=0).multiset

    def test_single_corner(self):
        p = self.space.left(diag_units(2)[0]) @ self.space.right(diag_units(2)[1])
        rep = cutdown_spectrum(self.alg, p)
        assert rep.multiset == (1,)

    def test_zero_projection(self):
        rep = cutdown_spectrum(self.alg, np.zeros((4, 4)))
        assert rep.multiset == ()
        assert rep.as_set.is_empty

    def test_rejects_outside_projection(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[1] = 1 / np.sqrt(2)
        with pytest.raises(NotInAlgebraError):
            cutdown_spectrum(self.alg, np.outer(v, v.conj()))

    def test_rejects_non_projection(self):
        with pytest.raises(ValueError):
            cutdown_spectrum(self.alg, 2 * np.eye(4))


class TestOrthonormalize:
    def test_rank_detection(self):
        a = np.eye(2, dtype=complex)
        basis = orthonormalize_span([a, 2 * a, a + 1e-12 * a])
        assert basis.shape[0] == 1

    def test_algebra_basis_frozen(self):
        alg = generate_algebra(diag_units(2))
        with pytest.raises(ValueError):
            alg.basis[0, 0, 0] = 5.0
