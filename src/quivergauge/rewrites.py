"""Structural quiver rewrites: pinch, clip, collapse, reversal, rose reduction.

Collapsing a non-loop arrow merges its endpoints (the survivor is the
lexicographically smaller id) and deletes the arrow; relation words are
translated by dropping every occurrence of the collapsed arrow.  A relation
set is validated once, where it enters ``collapse`` or ``reduce_to_rose``,
by the relation-set check in ``quiver`` that ``satisfies_relations`` runs
too: dropping collapsed letters from a positive cycle leaves a positive
cycle on the collapsed quiver, so translation keeps a valid set valid (the
tests pin this on random quivers).  A ReductionTrace records the collapse sequence so
representations can be carried along afterwards.
"""

from __future__ import annotations

from typing import Iterable

from .quiver import Arrow, Quiver, RelationSet, Word, _check_relations, _forest, _Record


class CollapseStep(_Record):
    """One collapse: the removed arrow, its endpoints, and the merged vertex.

    ``tail`` and ``head`` both map to ``merged`` (the smaller id) and every
    other vertex to itself.
    """

    _fields = ("arrow", "tail", "head", "merged")


class ReductionTrace(_Record):
    """Record of a collapse sequence from ``source`` to ``final``; ``blocks`` validates it.

    Trace format 2 stores no vertex maps: they follow from the steps.  Each
    step merges two blocks of source vertices.  A single vertex is its own
    block's **anchor**; a merged block keeps the anchor of the block at the
    collapsed arrow's head, so the pushforward gauge never moves an anchor.
    ``blocks`` replays the steps once, on vertex and arrow rows, with a
    union-find whose roots are the anchors.
    """

    _fields = ("source", "steps", "final", "final_relations")

    def blocks(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """Replay the steps once: per source vertex row, the row of its final vertex and of its anchor,
        then the collapsed arrow rows in step order and the kept ones in source order.

        Raises ValueError when a step names an unknown arrow, does not match
        the blocks it joins (a loop joins a block to itself), or the steps do
        not end at ``final``.
        """
        q, final = self.source, self.final
        names, arrow_rows = q.vertices, q._arrow_row
        tails, heads = q.tail_rows, q.head_rows
        parent = list(range(q.n_vertices))  # the root of a block is its anchor
        current = parent[:]  # row of a block's current vertex, read at its root
        collapsed = []
        for step in self.steps:
            i = arrow_rows.get(step.arrow)
            if i is None:
                raise ValueError(f"unknown arrow id {step.arrow!r}")
            t, h = tails[i], heads[i]
            while parent[t] != t:
                parent[t] = t = parent[parent[t]]  # path halving
            while parent[h] != h:
                parent[h] = h = parent[parent[h]]
            tail, head = names[current[t]], names[current[h]]
            if t == h or tail != step.tail or head != step.head or step.merged != min(tail, head):
                raise ValueError("step does not match the quiver it is applied to")
            parent[t] = h
            if tail < head:
                current[h] = current[t]
            collapsed.append(i)
        anchor = []
        for r in range(q.n_vertices):
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]
            anchor.append(r)
        image = [current[r] for r in anchor]
        to = [names[j] for j in image]
        gone = set(collapsed)
        kept = [i for i in range(q.n_arrows) if i not in gone]
        arrows = [(q.arrows[i].name, to[tails[i]], to[heads[i]]) for i in kept]
        if tuple([v for v, w in zip(names, to) if v == w]) != final.vertices or arrows != [
            (a.name, a.tail, a.head) for a in final.arrows
        ]:
            raise ValueError("trace steps do not end at the trace's final quiver")
        return image, anchor, collapsed, kept


def _merge_vertices(q: Quiver, v1: str, v2: str) -> tuple[Quiver, dict[str, str]]:
    survivor = min(v1, v2)
    gone = max(v1, v2)
    ren = {v: (survivor if v == gone else v) for v in q.vertices}
    vertices = tuple(v for v in q.vertices if v != gone)
    arrows = tuple(Arrow(a.name, ren[a.tail], ren[a.head]) for a in q.arrows)
    return Quiver(vertices, arrows), dict(sorted(ren.items()))


def pinch(q: Quiver, v1: str, v2: str) -> tuple[Quiver, dict[str, str]]:
    """Identify two distinct vertices; arrows are kept as a set.

    The merged vertex takes the lexicographically smaller id, so the result
    is arrow-equivalent to the input with the identity bijection on ids.
    The map sends each source vertex, in sorted order, to its target vertex.
    """
    q.check_vertex(v1)
    q.check_vertex(v2)
    if v1 == v2:
        raise ValueError("pinch needs two distinct vertices")
    return _merge_vertices(q, v1, v2)


def clip(q: Quiver, arrow: str) -> Quiver:
    """Remove one arrow; vertices are untouched."""
    q.arrow(arrow)
    return Quiver(q.vertices, tuple(a for a in q.arrows if a.name != arrow))


def _translate_relations(rels: RelationSet, removed: set[str]) -> RelationSet:
    return RelationSet(
        tuple(Word(tuple(l for l in w.letters if l[0] not in removed)) for w in rels.relations)
    )


def collapse(q: Quiver, rels: RelationSet, arrow: str) -> tuple[Quiver, RelationSet, CollapseStep]:
    """Merge the endpoints of a non-loop arrow and delete it.

    ``rels`` must validate on ``q``.  Relation words are translated by
    deleting every letter carrying the collapsed arrow, which keeps them
    valid on the new quiver.
    """
    a = q.arrow(arrow)
    if a.is_loop:
        raise ValueError(f"cannot collapse loop {arrow!r}")
    _check_relations(q, rels)
    merged, _ = _merge_vertices(clip(q, arrow), a.tail, a.head)
    return merged, _translate_relations(rels, {arrow}), CollapseStep(arrow, a.tail, a.head, min(a.tail, a.head))


def reduce_to_rose(q: Quiver, rels: RelationSet | None = None) -> tuple[Quiver, RelationSet, ReductionTrace]:
    """Collapse the BFS spanning tree of a connected quiver down to one vertex.

    The result is a rose with exactly betti_number(q) loops; the translated
    relations present the fundamental group of the quiver relative to those
    loops.  Tree arrows are collapsed in BFS discovery order, so each step
    merges a newly discovered vertex into the root's block, which keeps the
    root's (smallest) id; everything is read off the spanning forest's rows
    in one pass and equals folding ``collapse`` over the trace's steps.
    """
    roots, links = _forest(q)
    if len(roots) != 1:
        raise ValueError("rose reduction requires a connected quiver")
    rels = rels if rels is not None else RelationSet()
    _check_relations(q, rels)
    vertices, arrows, root = q.vertices, q.arrows, q.vertices[roots[0]]
    in_tree, steps, tree = [False] * q.n_arrows, [], set()
    for c, _, i, fw in links:
        in_tree[i] = True
        name = arrows[i].name
        tree.add(name)
        steps.append(CollapseStep(name, root, vertices[c], root) if fw else CollapseStep(name, vertices[c], root, root))
    rose = Quiver((root,), [Arrow(a.name, root, root) for a, t in zip(arrows, in_tree) if not t])
    rose_rels = _translate_relations(rels, tree)
    return rose, rose_rels, ReductionTrace(q, tuple(steps), rose, rose_rels)


def reverse_arrows(q: Quiver, subset: Iterable[str]) -> Quiver:
    """Swap head and tail of the listed arrows."""
    names = set(subset)
    for name in names:
        q.arrow(name)
    arrows = tuple(
        Arrow(a.name, a.head, a.tail) if a.name in names else a for a in q.arrows
    )
    return Quiver(q.vertices, arrows)
