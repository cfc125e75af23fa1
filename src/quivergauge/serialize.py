"""JSON encodings for matrices, representations, reports, and traces.

Matrices are encoded row-major as nested arrays of [re, im] pairs; a map
of matrices (markings, gauge values, moments) is encoded from its whole
stack at once, and decoded by one ``np.array`` over the whole map, with a
per-entry walk only to name a malformed entry.

``dumps`` writes one canonical layout.  Object keys are sorted.  An object
puts each member on its own line, indented two spaces per level, and so
does a list whose first element is an object.  Every other list (matrices,
vectors, histories, words) is written on one line as the C encoder of the
``json`` module writes it, with ", " and ": " separators: by that encoder,
except the vectors of a toric basis, whose text is built from their nonzero
entries (most entries are zero).  The text ends with one newline.
Identical inputs give byte-identical output; consumers should parse the
JSON rather than read it line by line.

The module belongs to the structural layer: numpy and the numeric classes
are imported inside the matrix, representation, gauge and additive codecs,
so encoding quivers, traces, certificates and toric bases never loads them.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any

from .quiver import GroupSpec, Quiver, RelationSet, Word

if TYPE_CHECKING:
    import numpy as np

    from .additive import AdditiveRep, DegenerationWitness
    from .kempfness import FlowReport, KNResidual
    from .quiver import OrbitCertificate
    from .representation import GaugeElement, Representation, RowView
    from .rewrites import CollapseStep, ReductionTrace
    from .toric import MonomialBasis


TRACE_FORMAT_VERSION = 2

_ONE_LINE = json.JSONEncoder(sort_keys=True, separators=(", ", ": ")).encode


def dumps(payload: Any) -> str:
    """Canonical JSON text in the layout of the module docstring (string keys only)."""
    out: list[str] = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


class _Written:
    """One-line JSON text that ``dumps`` copies as it stands."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def _write(value: Any, newline: str, out: list[str]) -> None:
    """Append ``value`` to ``out``; its lines after the first start with ``newline``."""
    inner = newline + "  "
    if type(value) is _Written:
        out.append(value.text)
    elif isinstance(value, dict) and value:
        out.append("{")
        for i, key in enumerate(sorted(value)):
            out.append(("," if i else "") + inner + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, out)
        out.append(newline + "}")
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        out.append("[")
        for i, item in enumerate(value):
            out.append(("," if i else "") + inner)
            _write(item, inner, out)
        out.append(newline + "]")
    else:
        out.append(_ONE_LINE(value))


def matrix_to_json(m: np.ndarray) -> list:
    """A matrix, or a stack of them, as nested lists of [re, im] float pairs."""
    import numpy as np

    a = np.ascontiguousarray(m, dtype=complex)
    return a.view(float).reshape(*a.shape, 2).tolist()


def _stack_to_json(view: RowView) -> dict:
    """A map of matrices from one encoding of its whole stack."""
    return dict(zip(view, matrix_to_json(view.stack)))


def matrix_from_json(data) -> np.ndarray:
    """Decode a non-empty list of equally long, non-empty rows of [re, im] number pairs.

    Any other shape, or an entry that is not a pair of JSON numbers in float
    range, raises TypeError.
    """
    if not isinstance(data, list) or not data or any(
        not isinstance(row, list) or not row or len(row) != len(data[0]) for row in data
    ):
        raise TypeError("a matrix must be a non-empty list of equally long, non-empty rows")
    import numpy as np

    return np.array([[_complex_from_json(entry) for entry in row] for row in data], dtype=complex)


def _complex_from_json(entry) -> complex:
    if isinstance(entry, list) and len(entry) == 2 and all(type(x) in (int, float) for x in entry):
        try:
            return complex(float(entry[0]), float(entry[1]))
        except OverflowError:
            pass
    raise TypeError("matrix entries must be [re, im] pairs of numbers in float range")


def _matrices_from_json(data, key: str) -> dict[str, np.ndarray]:
    """The object of matrices under ``key``; a TypeError names the bad entry.

    The whole map is decoded by one ``np.array`` and one type check of its
    leaves when every entry is a matrix of one shape; otherwise, or when a
    number is out of float range, each entry is decoded on its own, so the
    error names the first bad one.
    """
    entries = data[key]
    if not isinstance(entries, dict):
        raise TypeError(f"{key!r} must be an object of matrices")
    import numpy as np

    try:
        leaves = np.array(list(entries.values()), dtype=object)
        pairs = leaves.ndim == 4 and leaves.size and leaves.shape[3] == 2
        if pairs and {*map(type, leaves.flat)} <= {int, float}:
            return dict(zip(entries, leaves.astype(float).view(complex)[..., 0]))
    except (TypeError, ValueError, OverflowError):
        pass
    out = {}
    for name, m in entries.items():
        try:
            out[name] = matrix_from_json(m)
        except TypeError as exc:
            raise TypeError(f"{key}[{name!r}]: {exc}") from None
    return out


def group_to_json(g: GroupSpec) -> dict:
    return {"family": g.family, "n": g.n}


def _size_from_json(value, what: str) -> int:
    """A JSON integer >= 1; strings, floats, booleans and smaller integers raise TypeError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    if value < 1:
        raise TypeError(f"{what} must be >= 1, got {value}")
    return value


def group_from_json(data) -> GroupSpec:
    """Decode ``{"family": str, "n": int}``; a group that ``GroupSpec`` refuses raises TypeError."""
    if not isinstance(data, dict):
        raise TypeError("'group' must be an object")
    try:
        return GroupSpec(data["family"], _size_from_json(data["n"], "group n"))
    except ValueError as exc:
        raise TypeError(str(exc)) from None


def quiver_to_json(q: Quiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [{"name": a.name, "tail": a.tail, "head": a.head} for a in q.arrows],
    }


def word_to_json(w: Word) -> list[list]:
    return [[name, exp] for name, exp in w.letters]


def relations_to_json(r: RelationSet) -> list:
    return [word_to_json(w) for w in r.relations]


def representation_to_json(f: Representation) -> dict:
    return {
        "group": group_to_json(f.group),
        "markings": _stack_to_json(f.markings),
    }


def representation_from_json(data, q: Quiver) -> Representation:
    from .representation import Representation

    group = group_from_json(data["group"])
    return Representation(q, group, _matrices_from_json(data, "markings"))


def gauge_to_json(g: GaugeElement) -> dict:
    return {
        "group": group_to_json(g.group),
        "values": _stack_to_json(g.values),
    }


def gauge_from_json(data, q: Quiver) -> GaugeElement:
    from .representation import GaugeElement

    group = group_from_json(data["group"])
    return GaugeElement(q, group, _matrices_from_json(data, "values"))


def additive_to_json(x: AdditiveRep) -> dict:
    return {
        "n": x.n,
        "markings": _stack_to_json(x.markings),
    }


def additive_from_json(data, q: Quiver) -> AdditiveRep:
    from .additive import AdditiveRep

    return AdditiveRep(q, _size_from_json(data["n"], "n"), _matrices_from_json(data, "markings"))


def step_to_json(s: CollapseStep) -> dict:
    return {"arrow": s.arrow, "tail": s.tail, "head": s.head, "merged": s.merged}


def trace_to_json(t: ReductionTrace) -> dict:
    return {
        "version": TRACE_FORMAT_VERSION,
        "source": quiver_to_json(t.source),
        "steps": [step_to_json(s) for s in t.steps],
        "final": quiver_to_json(t.final),
        "final_relations": relations_to_json(t.final_relations),
    }


def residual_to_json(r: KNResidual) -> dict:
    return {
        "per_vertex": _stack_to_json(r.per_vertex),
        "aggregate": r.aggregate,
    }


def flow_report_to_json(r: FlowReport) -> dict:
    return {
        "iterations": r.iterations,
        "converged": r.converged,
        "residual_history": list(r.residual_history),
        "norm_history": list(r.norm_history),
        "final": representation_to_json(r.final),
    }


def witness_to_json(w: DegenerationWitness) -> dict:
    return {
        "vertex": w.vertex,
        "direction": w.direction,
        "parameters": list(w.parameters),
        "degenerated_arrows": list(w.degenerated_arrows),
        "samples": [additive_to_json(s) for s in w.samples],
        "limit": additive_to_json(w.limit),
    }


def certificate_to_json(c: OrbitCertificate) -> dict:
    payload: dict[str, Any] = {"verdict": c.verdict, "ends": list(c.ends)}
    if c.sample_alpha is not None:
        payload["sample_alpha"] = {v: w for v, w in c.sample_alpha}
    if c.sample_violation is not None:
        payload["sample_violation"] = {
            "ok": c.sample_violation.ok,
            "violating_arrow": c.sample_violation.violating_arrow,
            "witness_cycle": word_to_json(c.sample_violation.witness_cycle)
            if c.sample_violation.witness_cycle is not None
            else None,
        }
    return payload


def _int_vectors_text(nonzeros, n: int) -> str:
    """One-line JSON of length-``n`` integer vectors, each given as a map from index to nonzero entry.

    The zeros between entries are slices of one shared run of ``"0, "``, so
    the work is in proportion to the nonzero entries.
    """
    zeros = "0, " * n
    lines = []
    for row in nonzeros:
        parts, pos = [], 0
        for i in sorted(row):
            parts.append(zeros[: 3 * (i - pos)])
            parts.append(f"{row[i]}, ")
            pos = i + 1
        parts.append(zeros[: 3 * (n - pos)])
        lines.append("[" + "".join(parts)[:-2] + "]")
    return "[" + ", ".join(lines) + "]"


def monomial_basis_to_json(b: MonomialBasis) -> dict:
    """The basis for ``dumps``; its vectors are one-line text from their nonzero entries, never dense."""
    return {
        "arrow_order": list(b.arrow_order),
        "vectors": _Written(_int_vectors_text(b.nonzeros, len(b.arrow_order))),
        "cell_dimension": b.cell_dimension,
    }
