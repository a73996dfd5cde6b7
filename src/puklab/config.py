"""JSON-friendly forms of the objects the command line reads and writes.

Complex matrices are nested arrays of ``[re, im]`` pairs, value sets are their
textual form (``"2,3,inf"``), trace weights are exact strings like ``"1/2"``,
and multi-indices are arrays of bit strings (e.g. ``["01", "1"]``).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING

from . import diagrams, indices, invariant
from .errors import InvalidInputError
from .nsets import INF, NSet

if TYPE_CHECKING:
    import numpy as np

    from .core import TracedAlgebraShape


def matrix_from_config(data) -> np.ndarray:
    return stack_from_config([data], "matrix")[0]


def stack_from_config(data, name: str) -> np.ndarray:
    """A list of ``[re, im]`` matrices of finite JSON numbers as one ``(k, D, D)`` array."""
    import numpy as np
    try:
        raw = np.array(data)
        numeric = raw.dtype.kind in "biuf" or all(isinstance(v, (int, float)) for v in raw.flat)
        if not numeric or not np.isfinite(parts := raw.astype(float)).all():
            raise ValueError("an entry is not a finite JSON number")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{name} entries must be finite [re, im] pairs: {exc}") from exc
    if parts.shape != (0,) and (parts.ndim != 4 or parts.shape[2:] != (parts.shape[1], 2)):
        raise InvalidInputError(f"{name} must be square matrices of [re, im] pairs: {parts.shape}")
    return parts.view(complex)[..., 0] if parts.ndim == 4 else parts


def _weight_from_config(raw) -> Fraction:
    if isinstance(raw, bool):
        raise InvalidInputError(f"bad trace weight {raw!r}")
    if isinstance(raw, (int, str)):
        return Fraction(raw)
    if isinstance(raw, float):
        return Fraction(str(raw))
    raise InvalidInputError(f"bad trace weight {raw!r}")


def check_keys(data, allowed: tuple[str, ...], name: str, required=(), lists=()):
    """Refuse a config object holding a key no reader looks at, or lacking a ``required`` one.

    A misspelt key is no default, and a non-list at one of ``lists`` is refused, not iterated.
    """
    if not isinstance(data, dict):
        raise InvalidInputError(f"{name} must be an object, got {type(data).__name__}")
    if unknown := data.keys() - allowed:
        raise InvalidInputError(f"unknown {name} key {min(unknown)!r}; expected {', '.join(allowed)}")
    if missing := [key for key in required if key not in data]:
        raise InvalidInputError(f"{name} lacks the key {missing[0]!r}")
    if bad := [key for key in lists if key in data and not isinstance(data[key], list)]:
        raise InvalidInputError(f"{name} {bad[0]} must be a list, got {data[bad[0]]!r}")


def int_from_config(raw, name: str) -> int:
    """A JSON integer; floats, bools and strings are refused, not truncated."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    raise InvalidInputError(f"{name} must be an integer, got {raw!r}")


def shape_from_config(data) -> TracedAlgebraShape:
    from .core import TracedAlgebraShape
    check_keys(data, ("blocks", "weights"), "shape", ("blocks",), lists=("blocks", "weights"))
    blocks = tuple(int_from_config(d, "block size") for d in data["blocks"])
    if "weights" in data:
        weights = tuple(_weight_from_config(w) for w in data["weights"])
        return TracedAlgebraShape(blocks, weights)
    return TracedAlgebraShape.from_blocks(blocks)


def value_to_config(value):
    return "inf" if value == INF else int(value)


def value_from_config(raw):
    return INF if raw == "inf" else int_from_config(raw, "pair value")


def lambda_to_config(spec: indices.LambdaSpec) -> dict:
    out: dict = {"default": value_to_config(spec.default)}
    if spec.overrides:
        out["overrides"] = [
            {
                "r": o.r,
                "i": list(o.i.to_bits()),
                "j": list(o.j.to_bits()),
                "value": value_to_config(o.value),
            }
            for o in spec.overrides
        ]
    if spec.enumeration is not None:
        out["enumerate"] = str(spec.enumeration)
    if spec.quadrants is not None:
        out["quadrants"] = {name: str(getattr(spec.quadrants, name))
                            for name in indices.QUADRANT_NAMES[1:]}
    return out


def _bits_from_config(raw, name: str) -> indices.MultiIndex:
    """A multi-index from a list of bit strings; a bare string is refused, not split."""
    if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
        raise InvalidInputError(f"{name} must be a list of bit strings, got {raw!r}")
    return indices.MultiIndex.from_bits(raw)


def lambda_from_config(data) -> indices.LambdaSpec:
    check_keys(data, ("default", "overrides", "enumerate", "quadrants"), "value spec",
               lists=("overrides",))
    raw = data.get("overrides", [])
    for o in raw:
        check_keys(o, ("r", "i", "j", "value"), "override", ("r", "i", "j", "value"))
    overrides = tuple(
        indices.Override(
            r=int_from_config(o["r"], "override level"),
            i=_bits_from_config(o["i"], "override i"),
            j=_bits_from_config(o["j"], "override j"),
            value=value_from_config(o["value"]),
        )
        for o in raw
    )
    enumeration = NSet.parse(data["enumerate"]) if "enumerate" in data else None
    quadrants = None
    if "quadrants" in data:
        q, names = data["quadrants"], indices.QUADRANT_NAMES[1:]
        check_keys(q, names, "quadrants", names)
        quadrants = indices.QuadrantRules(**{name: NSet.parse(q[name]) for name in names})
    return indices.LambdaSpec(
        default=value_from_config(data.get("default", 1)),
        overrides=overrides,
        enumeration=enumeration,
        quadrants=quadrants,
    )


def oracle_from_config(data) -> invariant.CutdownOracle:
    if "constant" in data:
        check_keys(data, ("constant",), "oracle")
        return invariant.CutdownOracle.constant(NSet.parse(data["constant"]))
    check_keys(data, ("level", "entries"), "oracle", ("level", "entries"), lists=("entries",))
    fields = ("row", "col", "value")
    keys = set(fields)
    entries, parsed = {}, {}  # each distinct value text is parsed once
    for e in data["entries"]:
        # a table holds up to 4^level entries: a well-formed one costs one comparison
        if not isinstance(e, dict) or e.keys() != keys:
            check_keys(e, fields, "oracle entry", required=fields)
        row, col, text = e["row"], e["col"], e["value"]
        if not (isinstance(row, str) and isinstance(col, str)):
            name = "col" if isinstance(row, str) else "row"
            raise InvalidInputError(f"oracle entry {name} must be a bit string, got {e[name]!r}")
        if not isinstance(text, str) or text not in parsed:
            parsed[text] = NSet.parse(text)  # refuses a non-string before it is hashed
        entries[row, col] = parsed[text]
    if len(entries) != len(data["entries"]):  # a pair given twice: the later would win
        (row, col), _ = Counter((e["row"], e["col"]) for e in data["entries"]).most_common(1)[0]
        raise InvalidInputError(f"oracle entry row {row!r}, col {col!r} is given twice")
    level = int_from_config(data["level"], "oracle level")
    return invariant.CutdownOracle.from_table(level, entries)


def diagram_from_config(data) -> diagrams.MultiplicityDiagram:
    check_keys(data, ("level", "diagonal", "cells"), "diagram", required=("level", "cells"))
    rows = data["cells"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InvalidInputError("diagram cells must be a list of rows, each a list of value sets")
    cells = tuple(tuple(NSet.parse(c) for c in row) for row in rows)
    diagonal = data.get("diagonal", False)
    if not isinstance(diagonal, bool):
        raise InvalidInputError(f"diagonal must be true or false, got {diagonal!r}")
    level = int_from_config(data["level"], "diagram level")
    return diagrams.MultiplicityDiagram(level, cells, diagonal)
