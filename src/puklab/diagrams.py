"""Dyadic multiplicity grids and their deterministic ASCII/SVG rendering.

A diagram is a ``2^m × 2^m`` grid of value sets indexed by dyadic row and
column labels.  Built from a pair-value specification it shows, in each
off-diagonal cell, the values of the pairs whose leading indices refine to
that cell, multiplied by the oracle entry there; diagonal cells show the
oracle alone and can carry the marker for the diagonal line of the limit
picture.  Pairs whose two leading indices coincide sit strictly inside a
diagonal cell at this resolution and are not drawn, which is what makes the
staged pictures come out with ones on the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import MEMBER_TOL, SpectrumReport
from .core import GnsSpace, adjoint, as_matrix
from .errors import NotInAlgebraError, OracleGapError
from .indices import LambdaSpec
from .invariant import CutdownOracle
from .nsets import NSet, nset_product, union_all


@dataclass(frozen=True)
class MultiplicityDiagram:
    """A dyadic grid of value sets; empty sets render as blank cells."""

    level: int
    cells: tuple[tuple[NSet, ...], ...]
    diagonal_marked: bool = False

    def __post_init__(self):
        n = self.size
        if len(self.cells) != n or any(len(row) != n for row in self.cells):
            raise ValueError(f"expected a {n}×{n} grid for level {self.level}")

    @property
    def size(self) -> int:
        return 1 << self.level

    def labels(self) -> list[str]:
        return [format(x, f"0{self.level}b") if self.level else "" for x in range(self.size)]

    def cell(self, row: str, col: str) -> NSet:
        return self.cells[int(row, 2) if row else 0][int(col, 2) if col else 0]

    def coarsen(self) -> "MultiplicityDiagram":
        """The level below, each cell the union of its four refinements."""
        if self.level == 0:
            raise ValueError("cannot coarsen a single cell")
        half = self.size // 2
        rows = []
        for x in range(half):
            row = []
            for y in range(half):
                row.append(
                    self.cells[2 * x][2 * y]
                    | self.cells[2 * x][2 * y + 1]
                    | self.cells[2 * x + 1][2 * y]
                    | self.cells[2 * x + 1][2 * y + 1]
                )
            rows.append(tuple(row))
        return MultiplicityDiagram(self.level - 1, tuple(rows), self.diagonal_marked)

    def off_diagonal_union(self) -> NSet:
        return union_all(
            self.cells[x][y] for x in range(self.size) for y in range(self.size) if x != y
        )

    def is_symmetric(self) -> bool:
        return all(
            self.cells[x][y] == self.cells[y][x]
            for x in range(self.size)
            for y in range(self.size)
        )


def diagram_from_construction(
    lam: LambdaSpec, oracle: CutdownOracle, r: int
) -> MultiplicityDiagram:
    """The staged multiplicity grid of the construction truncated at level ``r``.

    The grid has side ``2^{r+1}``.  An off-diagonal cell collects the values
    of every pair (at any level up to ``r``) whose pair of leading indices is
    a prefix pair of the cell's labels, multiplied by the oracle entry at the
    cell; the diagonal shows the oracle and carries the marker.  The values
    come per leading cell from :meth:`LambdaSpec.cell_values`, whose guard
    bounds the work at each level.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    if not oracle.covers_level(r + 1):
        raise OracleGapError(f"oracle level {oracle.level} cannot label a level-{r + 1} grid")
    buckets: dict[tuple[int, int, int], set] = {}  # (level, lead_i, lead_j) -> values
    for s in range(r + 1):
        for (a, b), values in lam.cell_values(s).items():
            if a != b:
                buckets.setdefault((s, a, b), set()).update(values)
                buckets.setdefault((s, b, a), set()).update(values)
    level = r + 1
    labels = [format(x, f"0{level}b") for x in range(1 << level)]
    rows = []
    for x, row_label in enumerate(labels):
        row = []
        for y, col_label in enumerate(labels):
            if x == y:
                row.append(oracle.entry(row_label, col_label))
                continue
            values: set = set()
            for t in range(r + 1):
                values |= buckets.get((t, x >> (r - t), y >> (r - t)), set())
            cell = oracle.entry(row_label, col_label)
            row.append(nset_product(NSet.from_iterable(values), cell) if values else NSet())
        rows.append(tuple(row))
    return MultiplicityDiagram(level, tuple(rows), diagonal_marked=True)


def diagram_from_numeric(
    report: SpectrumReport, partition, space: GnsSpace, right_partition=None
) -> MultiplicityDiagram:
    """Per-cell spectra of a computed report over a dyadic partition of the masa.

    ``partition`` lists ``2^m`` projections in the underlying algebra summing
    to the identity; cell ``(i, j)`` collects the multiplicities of the report
    blocks dominated by the left-right cutdown at ``(p_i, q_j)``.  The right
    side defaults to the left partition; for a report over two distinct masas
    pass the second masa's matching partition as ``right_partition``, since
    only its projections act from the right inside the generated algebra.
    """
    mats = _checked_partition(partition, space)
    rmats = mats if right_partition is None else _checked_partition(right_partition, space)
    count = len(mats)
    level = count.bit_length() - 1
    if count != 1 << level or len(rmats) != count:
        raise ValueError(f"partition sizes must be equal powers of two, got {count}")
    lefts = [space.left(p) for p in mats]
    rights = [space.right(adjoint(q)) for q in rmats]
    rows = []
    for li in lefts:
        row = []
        for rj in rights:
            cut = li @ rj
            mults = []
            for mult, q in zip(report.multiplicities, report.block_projections):
                overlap = float(np.trace(q @ cut).real)
                if abs(overlap - mult) <= MEMBER_TOL * max(1.0, mult):
                    mults.append(mult)
                elif overlap > MEMBER_TOL * max(1.0, mult):
                    raise NotInAlgebraError("a report block straddles the partition cutdown")
            row.append(NSet.from_iterable(mults))
        rows.append(tuple(row))
    return MultiplicityDiagram(level, tuple(rows), diagonal_marked=False)


def _checked_partition(partition, space: GnsSpace) -> list[np.ndarray]:
    mats = [as_matrix(p) for p in partition]
    D = space.shape.total_dim
    total = np.zeros((D, D), dtype=complex)
    for p in mats:
        if np.max(np.abs(p @ p - p)) > MEMBER_TOL or np.max(np.abs(p - adjoint(p))) > MEMBER_TOL:
            raise ValueError("partition entries must be projections")
        total += p
    if np.max(np.abs(total - np.eye(D))) > MEMBER_TOL:
        raise ValueError("partition must sum to the identity")
    return mats


# ---------------------------------------------------------------------------
# rendering


def render(diagram: MultiplicityDiagram, format: str = "ascii") -> str:
    """Deterministic text rendering; ``format`` is ``"ascii"`` or ``"svg"``."""
    if format == "ascii":
        return render_ascii(diagram)
    if format == "svg":
        return render_svg(diagram)
    raise ValueError(f"unknown format {format!r}")


def _cell_texts(diagram: MultiplicityDiagram) -> list[list[str]]:
    texts = []
    for x in range(diagram.size):
        row = []
        for y in range(diagram.size):
            body = str(diagram.cells[x][y])
            if diagram.diagonal_marked and x == y:
                body = ("\\ " + body) if body else "\\"
            row.append(body)
        texts.append(row)
    return texts


def render_ascii(diagram: MultiplicityDiagram) -> str:
    """Box-drawn grid with dyadic labels; ∞ prints as ``inf``, empty cells stay blank."""
    labels = diagram.labels()
    texts = _cell_texts(diagram)
    width = max(
        [len(t) for row in texts for t in row] + [len(lab) for lab in labels] + [1]
    )
    gutter = max(len(lab) for lab in labels)
    header = " " * (gutter + 1) + " ".join(f" {lab.rjust(width)} " for lab in labels)
    rule = " " * gutter + " " + "+".join([""] + ["-" * (width + 2)] * diagram.size + [""])
    lines = [header.rstrip(), rule]
    for x, lab in enumerate(labels):
        cells = "|".join(f" {texts[x][y].rjust(width)} " for y in range(diagram.size))
        lines.append(f"{lab.rjust(gutter)} |{cells}|")
        lines.append(rule)
    return "\n".join(lines) + "\n"


SVG_CELL = 64
SVG_MARGIN = 40


def render_svg(diagram: MultiplicityDiagram) -> str:
    """Square grid with text labels and the diagonal line when marked."""
    n = diagram.size
    side = n * SVG_CELL
    w = h = side + 2 * SVG_MARGIN
    labels = diagram.labels()
    texts = _cell_texts(diagram)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="{SVG_MARGIN}" y="{SVG_MARGIN}" width="{side}" height="{side}" '
        'fill="white" stroke="black"/>',
    ]
    for k in range(1, n):
        pos = SVG_MARGIN + k * SVG_CELL
        parts.append(
            f'<line x1="{pos}" y1="{SVG_MARGIN}" x2="{pos}" y2="{SVG_MARGIN + side}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<line x1="{SVG_MARGIN}" y1="{pos}" x2="{SVG_MARGIN + side}" y2="{pos}" '
            'stroke="black"/>'
        )
    for idx, lab in enumerate(labels):
        if not lab:
            continue
        centre = SVG_MARGIN + idx * SVG_CELL + SVG_CELL // 2
        parts.append(
            f'<text x="{centre}" y="{SVG_MARGIN - 8}" text-anchor="middle" '
            f'font-size="14">{lab}</text>'
        )
        parts.append(
            f'<text x="{SVG_MARGIN - 8}" y="{centre + 5}" text-anchor="end" '
            f'font-size="14">{lab}</text>'
        )
    for x in range(n):
        for y in range(n):
            body = str(diagram.cells[x][y])
            if not body:
                continue
            cx = SVG_MARGIN + y * SVG_CELL + SVG_CELL // 2
            cy = SVG_MARGIN + x * SVG_CELL + SVG_CELL // 2 + 5
            parts.append(
                f'<text x="{cx}" y="{cy}" text-anchor="middle" font-size="16">{body}</text>'
            )
    if diagram.diagonal_marked:
        parts.append(
            f'<line x1="{SVG_MARGIN}" y1="{SVG_MARGIN}" x2="{SVG_MARGIN + side}" '
            f'y2="{SVG_MARGIN + side}" stroke="black" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
