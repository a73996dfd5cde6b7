"""Dyadic multiplicity grids and their deterministic ASCII/SVG rendering.

A diagram is a ``2^m × 2^m`` grid of value sets indexed by dyadic row and
column labels.  Built from a pair-value specification it shows, in each
off-diagonal cell, the values of the pairs whose leading indices refine to
that cell, multiplied by the oracle entry there; diagonal cells show the
oracle alone and can carry the marker for the diagonal line of the limit
picture.  Pairs whose two leading indices coincide sit strictly inside a
diagonal cell at this resolution and are not drawn, which is what makes the
staged pictures come out with ones on the diagonal.  A table oracle keeps
its cutdown types as these grids, one per level, coarsened from the finest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

from .errors import NotInAlgebraError, OracleGapError, ResourceGuardError
from .indices import CELL_WORK_CAP, LambdaSpec
from .nsets import EMPTY, NSet, nset_product, union_all

if TYPE_CHECKING:
    import numpy as np

    from .algebra import SpectrumReport
    from .core import TracedAlgebraShape
    from .invariant import CutdownOracle


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

    def coarsen(self) -> "MultiplicityDiagram":
        """The level below, each cell the union of its four refinements."""
        if self.level == 0:
            raise ValueError("cannot coarsen a single cell")
        c, steps = self.cells, range(0, self.size, 2)
        rows = tuple(
            tuple(union_all((c[x][y], c[x][y + 1], c[x + 1][y], c[x + 1][y + 1])) for y in steps)
            for x in steps
        )
        return MultiplicityDiagram(self.level - 1, rows, self.diagonal_marked)


def diagram_from_construction(
    lam: LambdaSpec, oracle: CutdownOracle, r: int
) -> MultiplicityDiagram:
    """The staged multiplicity grid of the construction truncated at level ``r``.

    The grid has side ``2^{r+1}``.  An off-diagonal cell collects the values
    of every pair (at any level up to ``r``) whose pair of leading indices is
    a prefix pair of the cell's labels, times that cell of the oracle's grid
    at level ``r+1``; the diagonal shows the oracle and carries the marker.
    The values come per leading cell from :meth:`LambdaSpec.cell_values`;
    its guard, :data:`CELL_WORK_CAP`, bounds the cells and runs walked at each
    level, and the grid's ``4^{r+1}`` cells before any walk.  Within one call
    each union and each product is formed once per distinct pair of value sets.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    if 4 ** (r + 1) > CELL_WORK_CAP:
        raise ResourceGuardError(
            f"a level-{r} grid has {4 ** (r + 1)} cells, over the cap {CELL_WORK_CAP}"
        )
    if not oracle.covers_level(r + 1):
        raise OracleGapError(f"oracle level {oracle.level} cannot label a level-{r + 1} grid")
    join = cache(NSet.__or__)  # one union per distinct pair of value sets, within this call
    grid = [[EMPTY]]
    for t in range(r + 1):
        values = lam.cell_values(t)
        # each level refines the last once; its keys are (lead_i, lead_j) with lead_i <= lead_j,
        # so the grid is symmetric and each row copies its cells left of the diagonal from
        # the rows above.  The diagonal is reset to empty: a pair with one leading index sits
        # inside a diagonal cell, is not drawn, and so seeds no off-diagonal child
        refined = []
        for x in range(2 << t):
            parent = grid[x >> 1]
            refined.append([row[x] for row in refined] + [EMPTY] + [
                join(parent[y >> 1], values.get((x, y), EMPTY)) for y in range(x + 1, 2 << t)])
        grid = refined
    product = cache(nset_product)  # one product per distinct pair, within this call
    rows = tuple(
        tuple(cell if x == y else product(grid[x][y], cell) for y, cell in enumerate(row))
        for x, row in enumerate(oracle.cells(r + 1))
    )
    return MultiplicityDiagram(r + 1, rows, diagonal_marked=True)


def diagram_from_numeric(
    report: SpectrumReport, partition, right_partition=None
) -> MultiplicityDiagram:
    """Per-cell spectra of a left-right report over a dyadic partition of the masa.

    ``partition`` lists ``2^m`` projections in the underlying algebra summing
    to the identity; cell ``(a, b)`` collects the multiplicities of the report
    blocks dominated by the left-right cutdown at ``(P_a, Q_b)``.  The right
    side defaults to the left partition; for a report over two distinct masas
    pass the second masa's matching partition as ``right_partition``, since
    only its projections act from the right inside the generated algebra.

    ``L(x) R(y)`` has trace ``Tr_k(x) Tr_k(y)`` on block ``k``, so block
    ``L(p_i) R(q_j)`` overlaps the cutdown by ``Σ_k Tr_k(p_i P_a) Tr_k(q_j Q_b)``,
    read from the factors on C^D; any positive overlap short of the block's
    multiplicity is a straddle and raises :class:`NotInAlgebraError`.
    """
    import numpy as np

    from .algebra import MEMBER_TOL, ProductBlocks
    factors = report.blocks
    if not isinstance(factors, ProductBlocks):
        raise ValueError("diagram_from_numeric needs a left-right spectrum report")
    shape = factors.shape
    mats = _checked_partition(partition, shape)
    rmats = mats if right_partition is None else _checked_partition(right_partition, shape)
    count = len(mats)
    level = count.bit_length() - 1
    if count != 1 << level or len(rmats) != count:
        raise ValueError(f"partition sizes must be equal powers of two, got {count}")
    rows, cols = factors.pairs
    # (kept block, cell part, C^D block) traces of each side
    left = np.stack([factors.left.block_traces(p) for p in mats], axis=1)[rows]
    right = np.stack([factors.right.block_traces(q) for q in rmats], axis=1)[cols]
    overlaps = np.einsum("pak,pbk->abp", left, right)
    mults = np.array(report.multiplicities, dtype=int)
    slack = MEMBER_TOL * np.maximum(1.0, mults)
    inside = np.abs(overlaps - mults) <= slack
    if np.any(~inside & (overlaps > slack)):
        raise NotInAlgebraError("a report block straddles the partition cutdown")
    cells = [[NSet(mults[cell].tolist()) for cell in row] for row in inside]
    return MultiplicityDiagram(level, tuple(map(tuple, cells)), diagonal_marked=False)


def _checked_partition(partition, shape: TracedAlgebraShape) -> list[np.ndarray]:
    import numpy as np

    from .algebra import MEMBER_TOL
    from .core import as_matrix
    mats = [as_matrix(p) for p in partition]
    D = shape.total_dim
    total = np.zeros((D, D), dtype=complex)
    for p in mats:
        shape.check_member(p)
        if np.max(np.abs(p @ p - p)) > MEMBER_TOL or np.max(np.abs(p - p.conj().T)) > MEMBER_TOL:
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
    text = cache(str)  # each distinct set formatted once
    texts = [[text(cell) for cell in row] for row in diagram.cells]
    if diagram.diagonal_marked:
        for x, row in enumerate(texts):
            row[x] = ("\\ " + row[x]) if row[x] else "\\"
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
    text = cache(str)  # each distinct set formatted once
    for x, row in enumerate(diagram.cells):
        for y, cell in enumerate(row):
            body = text(cell)
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
