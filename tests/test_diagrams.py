import tracemalloc

import numpy as np
import pytest

from puklab.algebra import generate_algebra, minimal_projections, mixed_spectrum
from puklab.constructions import build_gadget, truncated_masa_pair
from puklab.core import TracedAlgebraShape, tensor
from puklab.diagrams import (
    MultiplicityDiagram,
    diagram_from_construction,
    diagram_from_numeric,
    render,
)
from puklab.errors import ShapeMismatchError
from puklab.indices import LambdaSpec, Override, level_zero
from puklab.invariant import CutdownOracle, choose_lambda_for_efg, eval_construction
from puklab.nsets import INF, NSet, union_all

INTRO = LambdaSpec(default=3, overrides=(Override(0, level_zero(0), level_zero(1), 2),))
SIMPLE = CutdownOracle.simple()


def grid(diagram):
    return [[str(c) for c in row] for row in diagram.cells]


def off_diagonal_union(diagram):
    return union_all(c for x, row in enumerate(diagram.cells) for y, c in enumerate(row) if x != y)


def expected_intro_cells(level):
    """Frozen figure patterns: diagonal 1, split-at-root 2, deeper splits 3."""
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


class TestIntroDiagrams:
    def test_level_one_matches_first_figure(self):
        d = diagram_from_construction(INTRO, SIMPLE, 0)
        assert grid(d) == [["1", "2"], ["2", "1"]]
        assert d.diagonal_marked

    def test_level_two_matches_second_figure(self):
        d = diagram_from_construction(INTRO, SIMPLE, 1)
        assert grid(d) == expected_intro_cells(2)

    def test_level_three_matches_third_figure(self):
        d = diagram_from_construction(INTRO, SIMPLE, 2)
        assert grid(d) == expected_intro_cells(3)

    def test_all_infinity_spec(self):
        d = diagram_from_construction(LambdaSpec(default=INF), SIMPLE, 0)
        assert grid(d) == [["1", "inf"], ["inf", "1"]]

    def test_symmetric(self):
        d = diagram_from_construction(INTRO, SIMPLE, 2)
        assert grid(d) == [list(col) for col in zip(*grid(d))]


class TestDiagramInvariants:
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_off_diagonal_union_equals_evaluation(self, r):
        d = diagram_from_construction(INTRO, SIMPLE, r)
        assert off_diagonal_union(d) == eval_construction(INTRO, SIMPLE, r).value

    def test_constant_spec_union(self):
        spec = LambdaSpec(default=5)
        d = diagram_from_construction(spec, SIMPLE, 2)
        assert off_diagonal_union(d) == NSet.of(5)

    def test_coarsening_adds_finer_within_branch_values(self):
        fine = diagram_from_construction(INTRO, SIMPLE, 1).coarsen()
        coarse = diagram_from_construction(INTRO, SIMPLE, 0)
        for x in range(2):
            for y in range(2):
                if x == y:
                    # refined diagonal blocks pick up the within-branch values
                    assert fine.cells[x][y] == coarse.cells[x][y] | NSet.of(3)
                else:
                    assert fine.cells[x][y] == coarse.cells[x][y]

    def test_quadrant_spec_diagram(self):
        spec = choose_lambda_for_efg(NSet.of(2), NSet.of(5), NSet.of(7))
        d = diagram_from_construction(spec, SIMPLE, 1)
        # branch-0 block off-diagonals carry 2, branch-1 carry 5, cross carries 7
        assert d.cells[0b00][0b01] == NSet.of(2)
        assert d.cells[0b10][0b11] == NSet.of(5)
        assert d.cells[0b00][0b10] == NSet.of(7)
        assert d.cells[0b00][0b00] == NSet.of(1)

    def test_oracle_refinement_in_cells(self):
        entries = {
            ("0", "0"): NSet.of(1),
            ("0", "1"): NSet.of(4),
            ("1", "0"): NSet.of(4),
            ("1", "1"): NSet.of(2),
        }
        oracle = CutdownOracle.from_table(1, entries)
        d = diagram_from_construction(LambdaSpec(default=3), oracle, 0)
        assert d.cells[0b0][0b1] == NSet.of(12)
        assert d.cells[0b1][0b1] == NSet.of(2)


class TestNumericDiagrams:
    def test_diagonal_masa_grid(self):
        shape = TracedAlgebraShape.full_matrix(2)
        units = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        report = mixed_spectrum(units, units, shape)
        d = diagram_from_numeric(report, units)
        assert grid(d) == [["1", "1"], ["1", "1"]]
        assert not d.diagonal_marked

    def test_conjugated_tensor_pair_all_ones(self):
        shape = TracedAlgebraShape.full_matrix(4)
        a_gens, b_gens = truncated_masa_pair(2, 2)
        report = mixed_spectrum(a_gens, b_gens, shape)
        gadget = build_gadget(2)
        partition = [tensor(gadget.e[i], np.eye(2)) for i in range(2)]
        conjugated = [gadget.v @ p @ gadget.v.conj().T for p in partition]
        d = diagram_from_numeric(report, partition, right_partition=conjugated)
        assert grid(d) == [["1", "1"], ["1", "1"]]

    def test_empty_cells_across_blocks(self):
        # L(p) R(q) vanishes unless p and q share a block, so the cross cells are blank
        shape = TracedAlgebraShape.from_blocks((1, 1))
        units = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        report = mixed_spectrum(units, units, shape)
        d = diagram_from_numeric(report, units)
        assert grid(d) == [["1", ""], ["", "1"]]

    def test_partition_must_sum_to_identity(self):
        shape = TracedAlgebraShape.full_matrix(2)
        units = [np.diag([1.0, 0.0]).astype(complex)]
        report = mixed_spectrum(
            [np.eye(2, dtype=complex)], [np.eye(2, dtype=complex)], shape
        )
        with pytest.raises(ValueError):
            diagram_from_numeric(report, units)

    def test_off_block_partition_rejected(self):
        # projections summing to the identity, but off the diagonal blocks of (1, 1)
        shape = TracedAlgebraShape.from_blocks((1, 1))
        units = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        report = mixed_spectrum(units, units, shape)
        plus = np.full((2, 2), 0.5, dtype=complex)
        with pytest.raises(ShapeMismatchError):
            diagram_from_numeric(report, [plus, np.eye(2) - plus])
        with pytest.raises(ShapeMismatchError):
            diagram_from_numeric(report, units, right_partition=[plus, np.eye(2) - plus])

    def test_one_sided_report_rejected(self):
        units = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        report = minimal_projections(generate_algebra(units), seed=0)
        with pytest.raises(ValueError, match="left-right"):
            diagram_from_numeric(report, units)

    def test_haar_pair_m12_builds_no_gns_operator(self):
        # the dense products would be 144 operators of 144² complex entries, about 48 MB
        n = 12
        rng = np.random.default_rng(12)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        units = [np.diag(np.eye(n)[i]).astype(complex) for i in range(n)]
        report = mixed_spectrum(units, [u @ e @ u.conj().T for e in units],
                                TracedAlgebraShape.full_matrix(n))
        halves = [np.diag(np.repeat([1.0, 0.0], n // 2)), np.diag(np.repeat([0.0, 1.0], n // 2))]
        tracemalloc.start()
        try:
            d = diagram_from_numeric(report, halves,
                                     right_partition=[u @ h @ u.conj().T for h in halves])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid(d) == [["1", "1"], ["1", "1"]]
        assert peak < 4 << 20


FIG4 = MultiplicityDiagram(
    2,
    tuple(
        tuple(NSet.of(v) for v in row)
        for row in [[1, 3, 1, 1], [3, 1, 1, 1], [1, 1, 1, 3], [1, 1, 3, 1]]
    ),
)


class TestRender:
    def test_deterministic(self):
        d = diagram_from_construction(INTRO, SIMPLE, 1)
        assert render(d, "ascii") == render(d, "ascii")
        assert render(d, "svg") == render(d, "svg")

    def test_ascii_contents(self):
        text = render(FIG4, "ascii")
        assert "|  1 |  3 |  1 |  1 |" in text
        assert "00" in text and "11" in text

    def test_ascii_marks_diagonal(self):
        d = diagram_from_construction(INTRO, SIMPLE, 0)
        text = render(d, "ascii")
        assert "\\ 1" in text

    def test_ascii_infinity(self):
        d = diagram_from_construction(LambdaSpec(default=INF), SIMPLE, 0)
        assert "inf" in render(d, "ascii")

    def test_single_cell(self):
        d = MultiplicityDiagram(0, ((NSet.of(1),),))
        text = render(d, "ascii")
        assert "1" in text

    def test_blank_cell(self):
        d = MultiplicityDiagram(1, ((NSet.of(1), NSet()), (NSet(), NSet.of(1))))
        text = render(d, "ascii")
        assert "|   |" in text

    def test_svg_structure(self):
        d = diagram_from_construction(INTRO, SIMPLE, 0)
        svg = render(d, "svg")
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert 'stroke-width="2"' in svg  # the marked diagonal line
        assert ">2<" in svg

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(FIG4, "png")


class TestDiagramStructure:
    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            MultiplicityDiagram(1, ((NSet.of(1),),))

    def test_labels(self):
        assert FIG4.labels() == ["00", "01", "10", "11"]

    def test_coarsen_unions_cells(self):
        coarse = FIG4.coarsen()
        assert str(coarse.cells[0][0]) == "1,3"
        assert str(coarse.cells[0][1]) == "1"
