"""Group-valued quiver representations and the gauge action.

A representation marks every arrow with a group matrix; a gauge element
carries one group matrix per vertex and acts by
``g(head) marking g(tail)^(-1)``.  This module also evaluates cycle words,
checks relations, pushes representations through recorded collapse
sequences, and computes trace invariants.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator, Mapping

import numpy as np

from .matrices import TOL_EQ, TOL_MEMBERSHIP, _checked_count, _random_elements, as_matrix, identity, in_group_rows
from .quiver import (
    GroupSpec,
    Quiver,
    RelationSet,
    Word,
    _bfs,
    _check_relations,
    _checked_weights,
    _forest,
    _incidence,
    _Record,
    _setfield,
    fundamental_cycles,
    word_endpoints,
)

if TYPE_CHECKING:
    from .rewrites import ReductionTrace


class RowView(Mapping):
    """Read-only mapping from ids to the rows of a (k, n, n) stack.

    Iterates in the order of ``rows`` (quiver order); values are read-only
    views into ``stack``.
    """

    def __init__(self, rows: Mapping[str, int], stack: np.ndarray) -> None:
        self.rows = rows
        self.stack = stack

    def __getitem__(self, key: str) -> np.ndarray:
        return self.stack[self.rows[key]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return repr(dict(self))


class _Stacked(_Record):
    """The one constructor and shared core of the matrix-stack records: one validated stack.

    A subclass declares ``_fields`` (quiver, group or n, mapping field) and,
    in ``_defaults``, its optional ``membership_tol`` if it takes one.  Three
    positions plus that keyword bind here; any other call binds through
    ``_Record._bind``, with its TypeError messages.  ``stack`` is a read-only
    (k, n, n) complex array in quiver order (arrows or vertices, by ``_id``),
    given as such or as the mapping field, a read-only ``RowView`` of its
    rows.  Equality is identity.  The fields are stored here rather than
    through ``_Record.__init__``, which would cost one more call per stack,
    and every pushforward builds one.
    """

    _kind: ClassVar[str] = "marking"
    _id: ClassVar[str] = "arrow"
    _defaults = {"membership_tol": TOL_MEMBERSHIP}
    stack: np.ndarray
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        if len(args) != 3 or kwargs.keys() - self._defaults.keys():  # else 3 positions plus optional keywords
            args, kwargs = self._bind(args, kwargs), {}
        quiver, spec, data = args[0], args[1], args[2]
        _setfield(self, "quiver", quiver)
        _setfield(self, self._fields[1], spec)
        group, n = (spec, spec.n) if self._defaults else (None, spec)  # only the group-valued take a tolerance
        if group is not None:
            tol = args[3] if len(args) > 3 else kwargs.get("membership_tol", TOL_MEMBERSHIP)
            if not tol >= 0:
                raise ValueError(f"membership_tol must be non-negative, got {tol}")
            _setfield(self, "membership_tol", tol)
        rows = quiver._arrow_row if self._id == "arrow" else quiver._vertex_row
        if isinstance(data, Mapping):
            missing = next((k for k in rows if k not in data), None)
            if missing is not None:
                raise ValueError(f"missing {self._kind} for {missing!r}")
            extra = next((k for k in data if k not in rows), None)
            if extra is not None:
                raise ValueError(f"unexpected {self._kind} for {extra!r}")
            data = [np.asarray(data[k], dtype=complex) for k in rows]
            for m in data:
                if m.shape != (n, n):
                    as_matrix(m, n)
            data = np.reshape(data, (len(rows), n, n))
        stack = np.array(data, dtype=complex)
        if stack.shape != (len(rows), n, n):
            raise ValueError(f"expected a ({len(rows)}, {n}, {n}) stack, got shape {stack.shape}")
        if not np.isfinite(stack).all():  # one reduction; the offending id is looked up only on failure
            k = list(rows)[np.argmin(np.isfinite(stack).all(axis=(1, 2)))]
            raise ValueError(f"{self._kind} at {k!r}: matrix has non-finite entries")
        if group is not None and tol > 0:
            member = in_group_rows(stack, group, tol)
            if not member.all():
                k = list(rows)[np.argmin(member)]
                raise ValueError(f"{self._kind} at {k!r} is not in {group.family}({group.n}) at tol {tol}")
        stack.flags.writeable = False
        _setfield(self, "stack", stack)
        _setfield(self, self._fields[2], RowView(rows, stack))


class Representation(_Stacked):
    """Map from arrows to group matrices, all of one GroupSpec.

    ``membership_tol`` is the tolerance used to validate the markings at
    construction; pass 0 to skip the group test (finiteness is still
    enforced).
    """

    _fields = ("quiver", "group", "markings")


class GaugeElement(_Stacked):
    """Map from vertices to group matrices; multiplies vertex-wise."""

    _kind: ClassVar[str] = "gauge value"
    _id: ClassVar[str] = "vertex"
    _fields = ("quiver", "group", "values")

    def compose(self, other: "GaugeElement") -> "GaugeElement":
        """Vertex-wise product self * other."""
        _check_compatible(self, other)
        return GaugeElement(self.quiver, self.group, self.stack @ other.stack, membership_tol=0.0)


def _check_compatible(a, b) -> None:
    if a.quiver != b.quiver:
        raise ValueError("quiver mismatch")
    if a.group != b.group:
        raise ValueError("group mismatch")


def act_on_stack(values: np.ndarray, markings: np.ndarray, tails, heads) -> np.ndarray:
    """The gauge-action kernel: row i becomes values[heads[i]] markings[i] values[tails[i]]^(-1)."""
    return values[heads] @ markings @ np.linalg.inv(values)[tails]


def _lie_action(u: np.ndarray, markings: np.ndarray, tails, heads) -> np.ndarray:
    """The Lie-algebra action kernel: row i becomes markings[i] u[tails[i]] - u[heads[i]] markings[i]."""
    return markings @ u[tails] - u[heads] @ markings


def gauge_act(g: GaugeElement, f: Representation) -> Representation:
    """Act on every marking by g(head) marking g(tail)^(-1)."""
    _check_compatible(g, f)
    q = f.quiver
    moved = act_on_stack(g.stack, f.stack, q.tails, q.heads)
    return Representation(q, f.group, moved, membership_tol=f.membership_tol)


def evaluate_word(f: Representation, w: Word) -> np.ndarray:
    """Ordered product of markings along a word; empty words give I.

    Letters with exponent -1 contribute the inverse marking.  Raises on
    words that do not compose on the representation's quiver.
    """
    word_endpoints(f.quiver, w)
    out = identity(f.group.n)
    for name, exp in w.letters:
        m = f.markings[name]  # every letter is an arrow: ``word_endpoints`` looked each one up
        out = out @ (m if exp == 1 else np.linalg.inv(m))
    return out


def satisfies_relations(f: Representation, rels: RelationSet, tol: float = TOL_EQ) -> bool:
    """True when every relation word evaluates to I within ``tol``."""
    if not tol >= 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    _check_relations(f.quiver, rels)
    eye = identity(f.group.n)
    return all(
        np.linalg.norm(evaluate_word(f, w) - eye) <= tol for w in rels.relations
    )


def trace_invariants(f: Representation, words: Iterable[Word]) -> list[complex]:
    """Trace of the evaluation of each closed word.

    Open words are rejected: their evaluation depends on the basepoint, so
    the trace is not gauge-invariant.
    """
    out = []
    for w in words:
        ends = word_endpoints(f.quiver, w)
        if ends is not None and ends[0] != ends[1]:
            raise ValueError(f"word {w.display()!r} is not closed")
        out.append(complex(np.trace(evaluate_word(f, w))))
    return out


def standard_word_menu(q: Quiver, rels: RelationSet | None = None) -> tuple[Word, ...]:
    """Fundamental cycles, their pairwise products, and the relation words.

    Equality of traces over this menu is only a necessary condition for
    gauge equivalence, closed orbits included: the menu is finite, so equal
    traces on it do not show that two representations lie in one orbit.
    Only cycles sharing a basepoint are multiplied, so the menu is well
    formed on disconnected quivers too.
    """
    cycles, _ = fundamental_cycles(q)
    menu = list(cycles)
    bases = [word_endpoints(q, c) for c in cycles]
    for i in range(len(cycles)):
        for j in range(i, len(cycles)):
            if bases[i] == bases[j]:
                menu.append(Word(cycles[i].letters + cycles[j].letters))
    if rels is not None:
        menu.extend(rels.relations)
    return tuple(menu)


def _tree_gauge(f: Representation, roots: list[int], links: list[tuple[int, int, int, bool]]) -> np.ndarray:
    """The (V, n, n) gauge stack that is I at ``roots`` and marks every link's arrow I.

    ``links`` are the (child, parent, arrow, forward) rows of ``quiver._bfs``
    from ``roots``, in discovery order, so the parents' places
    in that order never decrease and each depth level is a contiguous run;
    every vertex is a root or a child.  A child's value is its parent's
    times the link's marking, inverted when the arrow points to the child.
    The forward markings, if any, are inverted in one call, and each level
    is one batched product, written in BFS order; one gather through each
    vertex's place in that order returns the stack in vertex rows.
    """
    n, first = f.group.n, len(roots)
    kids, parents, arrows, forward = zip(*links) if links else ((),) * 4
    order = [*roots, *kids]
    place = np.empty(f.quiver.n_vertices, dtype=np.intp)
    place[order] = np.arange(len(order))
    buf = np.empty((len(order), n, n), dtype=complex)
    buf[:first] = identity(n)
    if links:
        factors = f.stack[list(arrows)]
        forward = [k for k, fw in enumerate(forward) if fw]
        if forward:
            factors[forward] = np.linalg.inv(factors[forward])
        above = place[list(parents)]  # buffer row of each link's parent
        marks = above.tolist()
        s, e = 0, bisect_left(marks, first)
        while s < e:  # links [s, e) are one level; the next has its parents there
            if e - s == 1:  # a level of one, as along a path: plain indexing beats a gather
                np.matmul(buf[marks[s]], factors[s], out=buf[first + s])
            else:
                np.matmul(buf[above[s:e]], factors[s:e], out=buf[first + s : first + e])
            s, e = e, bisect_left(marks, first + e)
    return buf[place]


def pushforward_collapse(f: Representation, trace: ReductionTrace) -> Representation:
    """Carry a representation through a recorded collapse sequence.

    The surviving markings are gauged by the unique gauge that marks every
    collapsed arrow I and is I at every block anchor (``ReductionTrace``),
    the composite of gauging each step's collapsed marking away at its tail
    block, so closed-word evaluations change only by conjugation.  One
    replay of the steps (``ReductionTrace.blocks``) gives the anchors and
    the collapsed and kept arrow rows.  The collapsed arrows form a tree on
    each block, so one ``_bfs`` over them from the anchors orders the tree
    links and ``_tree_gauge`` fills the gauge one depth level at a time.
    Raises ValueError when the steps do not apply in turn or do not end at
    ``trace.final``.  ``membership_tol`` is 0: long tree products are too
    ill-conditioned for the relative GL test.
    """
    q = trace.source
    if f.quiver != q:
        raise ValueError("representation does not live on the trace's source quiver")
    _, anchor, collapsed, kept = trace.blocks()
    roots = [v for v, a in enumerate(anchor) if v == a]
    links = _bfs(q, _incidence(q, collapsed, directed=False), roots, [False] * q.n_vertices)
    gauge = _tree_gauge(f, roots, links)
    kept = np.array(kept, dtype=np.intp)  # one index array for the three gathers
    moved = act_on_stack(gauge, f.stack[kept], q.tails[kept], q.heads[kept])
    return Representation(trace.final, f.group, moved, membership_tol=0.0)


def induced_gauge(g: GaugeElement, trace: ReductionTrace) -> GaugeElement:
    """Image of a gauge element under a collapse sequence.

    Each final vertex takes the value at its block's anchor (see
    ``ReductionTrace``).  This is the gauge for which pushforward commutes
    with the action.
    """
    if g.quiver != trace.source:
        raise ValueError("gauge does not live on the trace's source quiver")
    image, anchor, _, _ = trace.blocks()
    values = g.stack[[anchor[v] for v, w in enumerate(image) if v == w]]  # final vertices, in source row order
    return GaugeElement(trace.final, g.group, values, membership_tol=g.membership_tol)


def normal_form_tree_gauge(f: Representation) -> tuple[GaugeElement, Representation]:
    """Gauge a connected representation so every BFS-tree arrow is marked I.

    The gauge is built along the spanning tree with the identity at the
    root; the returned representation carries all content on the non-tree
    arrows.
    """
    q = f.quiver
    roots, links = _forest(q)
    if len(roots) != 1:
        raise ValueError("tree normal form requires a connected quiver")
    gauge = GaugeElement(q, f.group, _tree_gauge(f, roots, links), membership_tol=0.0)
    return gauge, gauge_act(gauge, f)


def reverse_representation(f: Representation, subset: Iterable[str]) -> Representation:
    """Representation on the arrow-reversed quiver with inverted markings."""
    from .rewrites import reverse_arrows

    names = set(subset)
    reversed_q = reverse_arrows(f.quiver, names)
    flip = np.array([a.name in names for a in f.quiver.arrows], dtype=bool)
    markings = f.stack.copy()
    markings[flip] = np.linalg.inv(markings[flip])
    return Representation(reversed_q, f.group, markings, membership_tol=f.membership_tol)


def weighted_act(
    g: GaugeElement,
    f: Representation,
    mu: Mapping[str, int],
    nu: Mapping[str, int],
) -> Representation:
    """Weighted action g(head)^mu(a) marking g(tail)^(-nu(a)) per arrow.

    Weights are integers from 0 to ``MAX_WEIGHT`` (anything
    ``operator.index`` takes), by the rule of the toric action.
    Arrows with the same (mu, nu) are acted on together, with stacked
    matrix powers.  This is a genuine group action only when the matrices
    commute (or every weight is 0/1); for non-abelian values with a weight
    >= 2 the composition law fails, which callers can and do observe.
    """
    _check_compatible(g, f)
    q = f.quiver
    mu, nu = _checked_weights(q, mu, nu)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, a in enumerate(q.arrows):
        groups.setdefault((mu[a.name], nu[a.name]), []).append(i)
    moved = np.empty_like(f.stack)
    for (m, k), rows in groups.items():
        left = np.linalg.matrix_power(g.stack[q.heads[rows]], m)
        right = np.linalg.matrix_power(g.stack[q.tails[rows]], -k)
        moved[rows] = left @ f.stack[rows] @ right
    return Representation(q, f.group, moved, membership_tol=f.membership_tol)


def _random_values(ids: Iterable[str], group: GroupSpec, seed: int) -> dict[str, np.ndarray]:
    """Independent seeded group elements, drawn in sorted id order; the seed passes ``_checked_count``."""
    keys = sorted(ids)
    seeds = np.random.default_rng(_checked_count(seed, "seed")).integers(2**62, size=len(keys)).tolist()
    return dict(zip(keys, _random_elements(group, seeds)))


def random_representation(q: Quiver, group: GroupSpec, seed: int) -> Representation:
    """Seeded random representation; arrows draw independent elements."""
    return Representation(q, group, _random_values((a.name for a in q.arrows), group, seed))


def random_gauge(q: Quiver, group: GroupSpec, seed: int) -> GaugeElement:
    """Seeded random gauge element; vertices draw independent elements."""
    return GaugeElement(q, group, _random_values(q.vertices, group, seed))
