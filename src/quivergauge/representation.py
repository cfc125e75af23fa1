"""Group-valued quiver representations and the gauge action.

A representation marks every arrow with a group matrix; a gauge element
carries one group matrix per vertex and acts by
``g(head) marking g(tail)^(-1)``.  This module also evaluates cycle words,
checks relations, pushes representations through recorded collapse
sequences, and computes trace invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .matrices import TOL_EQ, TOL_MEMBERSHIP, as_matrix, identity, in_group
from .quiver import (
    Arrow,
    GroupSpec,
    Quiver,
    RelationSet,
    Word,
    fundamental_cycles,
    is_connected,
    spanning_forest,
    validate_relations,
    word_endpoints,
)
from .rewrites import ReductionTrace


def _validated_markings(
    keys: Sequence[str],
    values: Mapping[str, np.ndarray],
    group: GroupSpec,
    tol: float,
    kind: str,
) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    missing = [k for k in keys if k not in values]
    if missing:
        raise ValueError(f"missing {kind} for {missing[0]!r}")
    extra = [k for k in values if k not in set(keys)]
    if extra:
        raise ValueError(f"unexpected {kind} for {extra[0]!r}")
    for k in keys:
        m = as_matrix(values[k], group.n)
        if tol > 0 and not in_group(m, group, tol):
            raise ValueError(f"{kind} at {k!r} is not in {group.family}({group.n}) at tol {tol}")
        out[k] = m
    return out


@dataclass(frozen=True, eq=False)
class Representation:
    """Map from arrows to group matrices, all of one GroupSpec.

    ``membership_tol`` is the tolerance used to validate the markings at
    construction; pass 0 to skip the group test (finiteness is still
    enforced).
    """

    quiver: Quiver
    group: GroupSpec
    markings: Mapping[str, np.ndarray]
    membership_tol: float = field(default=TOL_MEMBERSHIP, repr=False)

    def __post_init__(self) -> None:
        names = [a.name for a in self.quiver.arrows]
        object.__setattr__(
            self,
            "markings",
            _validated_markings(names, self.markings, self.group, self.membership_tol, "marking"),
        )

    def matrix(self, arrow: str) -> np.ndarray:
        if arrow not in self.markings:
            raise ValueError(f"unknown arrow id {arrow!r}")
        return self.markings[arrow]


@dataclass(frozen=True, eq=False)
class GaugeElement:
    """Map from vertices to group matrices; multiplies vertex-wise."""

    quiver: Quiver
    group: GroupSpec
    values: Mapping[str, np.ndarray]
    membership_tol: float = field(default=TOL_MEMBERSHIP, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "values",
            _validated_markings(
                list(self.quiver.vertices), self.values, self.group, self.membership_tol, "gauge value"
            ),
        )

    def value(self, vertex: str) -> np.ndarray:
        if vertex not in self.values:
            raise ValueError(f"unknown vertex id {vertex!r}")
        return self.values[vertex]

    def compose(self, other: "GaugeElement") -> "GaugeElement":
        """Vertex-wise product self * other."""
        _check_compatible(self, other)
        vals = {v: self.values[v] @ other.values[v] for v in self.quiver.vertices}
        return GaugeElement(self.quiver, self.group, vals, membership_tol=0.0)

    def inverse(self) -> "GaugeElement":
        vals = {v: np.linalg.inv(self.values[v]) for v in self.quiver.vertices}
        return GaugeElement(self.quiver, self.group, vals, membership_tol=0.0)


def identity_gauge(q: Quiver, group: GroupSpec) -> GaugeElement:
    return GaugeElement(q, group, {v: identity(group.n) for v in q.vertices})


def _check_compatible(a, b) -> None:
    if a.quiver != b.quiver:
        raise ValueError("quiver mismatch")
    if a.group != b.group:
        raise ValueError("group mismatch")


def gauge_act(g: GaugeElement, f: Representation) -> Representation:
    """Act on every marking by g(head) marking g(tail)^(-1)."""
    _check_compatible(g, f)
    inverses = {v: np.linalg.inv(g.values[v]) for v in f.quiver.vertices}
    markings = {
        a.name: g.values[a.head] @ f.markings[a.name] @ inverses[a.tail]
        for a in f.quiver.arrows
    }
    return Representation(f.quiver, f.group, markings, membership_tol=f.membership_tol)


def evaluate_word(f: Representation, w: Word) -> np.ndarray:
    """Ordered product of markings along a word; empty words give I.

    Letters with exponent -1 contribute the inverse marking.  Raises on
    words that do not compose on the representation's quiver.
    """
    word_endpoints(f.quiver, w)
    out = identity(f.group.n)
    for name, exp in w.letters:
        m = f.matrix(name)
        out = out @ (m if exp == 1 else np.linalg.inv(m))
    return out


def satisfies_relations(f: Representation, rels: RelationSet, tol: float = TOL_EQ) -> bool:
    """True when every relation word evaluates to I within ``tol``."""
    bad = validate_relations(f.quiver, rels)
    if bad:
        raise ValueError(f"invalid relation set: {bad[0].message}")
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

    Equality of traces over this menu is a necessary condition for gauge
    equivalence and serves as the working test for closed orbits.  Only
    cycles sharing a basepoint are multiplied, so the menu is well formed
    on disconnected quivers too.
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


def pushforward_collapse(f: Representation, trace: ReductionTrace) -> Representation:
    """Carry a representation through a recorded collapse sequence.

    Each step applies the gauge that is the collapsed arrow's current
    marking at its tail and the identity elsewhere; the collapsed arrow is
    then marked I and is dropped when the endpoints merge.  Evaluations of
    surviving cycle words change only by conjugation, so traces and
    relation satisfaction are preserved.  The step gauges compose into one
    gauge per source vertex, applied to the surviving arrows at the end.
    Raises ValueError when the steps do not apply in turn or do not end at
    ``trace.final``.
    """
    q, names = trace.source, trace.source.vertices
    if f.quiver != q:
        raise ValueError("representation does not live on the trace's source quiver")
    index = {v: i for i, v in enumerate(names)}
    block = np.arange(q.n_vertices)  # source vertex -> row of its block's vertex
    gauge = np.array([identity(f.group.n)] * q.n_vertices)
    for step in trace.steps:
        a = q.arrow(step.arrow)
        t, h = block[index[a.tail]], block[index[a.head]]
        ends = (names[t], names[h])
        if ends != (step.tail, step.head) or t == h or step.merged != min(ends):
            raise ValueError("step does not match the quiver it is applied to")
        f0 = gauge[index[a.head]] @ f.markings[a.name] @ np.linalg.inv(gauge[index[a.tail]])
        rows = block == t
        gauge[rows] = f0 @ gauge[rows]
        block[rows | (block == h)] = index[step.merged]
    collapsed = {step.arrow for step in trace.steps}
    kept = [a for a in q.arrows if a.name not in collapsed]
    image = {v: names[b] for v, b in zip(names, block)}
    final = Quiver(
        tuple(names[b] for b in np.unique(block)),
        tuple(Arrow(a.name, image[a.tail], image[a.head]) for a in kept),
    )
    if final != trace.final:
        raise ValueError("trace steps do not end at the trace's final quiver")
    heads = np.array([index[a.head] for a in kept], dtype=int)
    tails = np.array([index[a.tail] for a in kept], dtype=int)
    n = f.group.n
    stack = np.array([f.markings[a.name] for a in kept], dtype=complex).reshape(-1, n, n)
    moved = gauge[heads] @ stack @ np.linalg.inv(gauge)[tails]
    markings = {a.name: m for a, m in zip(kept, moved)}
    return Representation(final, f.group, markings, membership_tol=f.membership_tol)


def induced_gauge(g: GaugeElement, trace: ReductionTrace) -> GaugeElement:
    """Image of a gauge element under a collapse sequence.

    At every step the merged vertex inherits the value at the collapsed
    arrow's head; all other vertices keep their values.  This is the gauge
    for which pushforward commutes with the action.
    """
    if g.quiver != trace.source:
        raise ValueError("gauge does not live on the trace's source quiver")
    vals = dict(g.values)
    for step in trace.steps:
        head_value = vals.pop(step.head)
        vals.pop(step.tail, None)
        vals[step.merged] = head_value
    return GaugeElement(trace.final, g.group, vals, membership_tol=g.membership_tol)


def normal_form_tree_gauge(f: Representation) -> tuple[GaugeElement, Representation]:
    """Gauge a connected representation so every BFS-tree arrow is marked I.

    The gauge is built along the spanning tree with the identity at the
    root; the returned representation carries all content on the non-tree
    arrows.
    """
    q = f.quiver
    if not is_connected(q):
        raise ValueError("tree normal form requires a connected quiver")
    forest = spanning_forest(q)
    vals: dict[str, np.ndarray] = {forest.roots[0]: identity(f.group.n)}
    for child, (parent, name, forward) in forest.parent.items():
        m = f.matrix(name)
        if forward:
            # arrow parent -> child: want g(child) m g(parent)^(-1) = I
            vals[child] = vals[parent] @ np.linalg.inv(m)
        else:
            # arrow child -> parent: want g(parent) m g(child)^(-1) = I
            vals[child] = vals[parent] @ m
    gauge = GaugeElement(q, f.group, vals, membership_tol=0.0)
    return gauge, gauge_act(gauge, f)


def reverse_representation(f: Representation, subset: Iterable[str]) -> Representation:
    """Representation on the arrow-reversed quiver with inverted markings."""
    from .rewrites import reverse_arrows

    names = set(subset)
    reversed_q = reverse_arrows(f.quiver, names)
    markings = {
        a.name: (np.linalg.inv(f.markings[a.name]) if a.name in names else f.markings[a.name])
        for a in f.quiver.arrows
    }
    return Representation(reversed_q, f.group, markings, membership_tol=f.membership_tol)


def weighted_act(
    g: GaugeElement,
    f: Representation,
    mu: Mapping[str, int],
    nu: Mapping[str, int],
) -> Representation:
    """Weighted action g(head)^mu(a) marking g(tail)^(-nu(a)) per arrow.

    This is a genuine group action only when the matrices commute (or every
    weight is 0/1); for non-abelian values with a weight >= 2 the
    composition law fails, which callers can and do observe.
    """
    _check_compatible(g, f)
    for a in f.quiver.arrows:
        if a.name not in mu or a.name not in nu:
            raise ValueError(f"missing weights for arrow {a.name!r}")
        if mu[a.name] < 0 or nu[a.name] < 0:
            raise ValueError("weights must be non-negative integers")
    markings = {}
    for a in f.quiver.arrows:
        left = np.linalg.matrix_power(g.values[a.head], int(mu[a.name]))
        right = np.linalg.matrix_power(g.values[a.tail], -int(nu[a.name]))
        markings[a.name] = left @ f.markings[a.name] @ right
    return Representation(f.quiver, f.group, markings, membership_tol=f.membership_tol)


def random_representation(q: Quiver, group: GroupSpec, seed: int) -> Representation:
    """Seeded random representation; arrows draw independent elements."""
    from .matrices import random_element

    rng = np.random.default_rng(seed)
    markings = {}
    for a in sorted(q.arrows, key=lambda a: a.name):
        markings[a.name] = random_element(group, int(rng.integers(2**62)))
    return Representation(q, group, markings)


def random_gauge(q: Quiver, group: GroupSpec, seed: int) -> GaugeElement:
    """Seeded random gauge element; vertices draw independent elements."""
    from .matrices import random_element

    rng = np.random.default_rng(seed)
    values = {}
    for v in sorted(q.vertices):
        values[v] = random_element(group, int(rng.integers(2**62)))
    return GaugeElement(q, group, values)
