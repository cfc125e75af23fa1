"""Directed multigraphs (quivers), cycle words, relation sets, and group metadata.

Vertices and arrows are identified by strings.  Every ordering used by the
algorithms (component roots, breadth-first search, tie-breaks) is by
lexicographic id, so all derived structures are deterministic and replayable.

The orbit-closure certificate is graph theory too.  At a sink or source an
explicit one-parameter gauge degenerates every invertible representation
(``additive.sink_source_witness``).  On strongly connected quivers a
weight-monotonicity argument rules out every degeneration by a
vertex-scalar one-parameter subgroup ``t^alpha_v * I``, and only those: the
orbit of a representation is closed exactly when it is semisimple (King,
*Moduli of representations of finite dimensional algebras*, 1994), and the
Jordan block on the one-loop quiver is strongly connected without a closed
orbit.

Nothing here imports numpy at module level; only the ``tails`` and
``heads`` index arrays load it, on first use.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

GROUP_FAMILIES = ("GL", "SL", "U", "SU", "TORUS")
COMPACT_FAMILIES = ("U", "SU")


@dataclass(frozen=True)
class Arrow:
    """A named arrow from ``tail`` to ``head``; loops (tail == head) allowed."""

    name: str
    tail: str
    head: str

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head


@dataclass(frozen=True)
class Quiver:
    """Finite directed multigraph with named vertices and arrows.

    Parallel arrows and loops are permitted.  At least one vertex is
    required; arrows may be empty.  ``tail_rows`` and ``head_rows`` hold,
    per arrow in order, the row of its tail and head vertex in
    ``vertices``.  ``tails`` and ``heads`` are the same rows as read-only
    numpy index arrays, built on first use, so stacks of per-vertex values
    index with them directly; structural code never touches them, so it
    runs without numpy.
    """

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    _arrow_row: dict[str, int] = field(init=False, repr=False, compare=False)
    _vertex_row: dict[str, int] = field(init=False, repr=False, compare=False)
    tail_rows: tuple[int, ...] = field(init=False, repr=False, compare=False)
    head_rows: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self,
            "arrows",
            tuple(a if isinstance(a, Arrow) else Arrow(*a) for a in self.arrows),
        )
        if not self.vertices:
            raise ValueError("a quiver needs at least one vertex")
        rows = {v: i for i, v in enumerate(self.vertices)}
        if len(rows) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        arrow_rows = {a.name: i for i, a in enumerate(self.arrows)}
        if len(arrow_rows) != len(self.arrows):
            raise ValueError("duplicate arrow ids")
        for a in self.arrows:
            if a.tail not in rows or a.head not in rows:
                raise ValueError(f"arrow {a.name!r} references undeclared vertex")
        object.__setattr__(self, "_vertex_row", rows)
        object.__setattr__(self, "_arrow_row", arrow_rows)
        object.__setattr__(self, "tail_rows", tuple(rows[a.tail] for a in self.arrows))
        object.__setattr__(self, "head_rows", tuple(rows[a.head] for a in self.arrows))

    @cached_property
    def tails(self) -> np.ndarray:
        return _index_array(self.tail_rows)

    @cached_property
    def heads(self) -> np.ndarray:
        return _index_array(self.head_rows)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    def arrow(self, name: str) -> Arrow:
        try:
            return self.arrows[self._arrow_row[name]]
        except KeyError:
            raise ValueError(f"unknown arrow id {name!r}") from None

    def has_arrow(self, name: str) -> bool:
        return name in self._arrow_row

    def check_vertex(self, v: str) -> str:
        if v not in self._vertex_row:
            raise ValueError(f"unknown vertex id {v!r}")
        return v


def _index_array(rows: tuple[int, ...]) -> np.ndarray:
    import numpy as np

    index = np.array(rows, dtype=np.intp)
    index.flags.writeable = False
    return index


@dataclass(frozen=True)
class Word:
    """Sequence of arrow letters with exponents in {+1, -1}.

    Letters are stored in composition order: the first entry is applied
    last, so a stored sequence (a_k, ..., a_1) is evaluated as the product
    f(a_k) ... f(a_1).  Joining the letter ids in stored order therefore
    reproduces the conventional right-to-left display of the word.
    """

    letters: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple((str(n), int(e)) for n, e in self.letters))
        for name, exp in self.letters:
            if exp not in (1, -1):
                raise ValueError(f"letter {name!r} has exponent {exp}; only +1/-1 allowed")

    @classmethod
    def from_arrow_names(cls, names: Sequence[str]) -> "Word":
        """Word of positive letters given in display (stored) order."""
        return cls(tuple((n, 1) for n in names))

    @classmethod
    def from_application_order(cls, letters: Sequence[tuple[str, int]]) -> "Word":
        """Build a word from letters listed first-applied-first."""
        return cls(tuple(reversed([tuple(l) for l in letters])))

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "Word":
        return Word(tuple((n, -e) for n, e in reversed(self.letters)))

    def is_positive(self) -> bool:
        return all(e == 1 for _, e in self.letters)

    def arrow_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.letters)

    def display(self) -> str:
        parts = []
        for name, exp in self.letters:
            parts.append(name if exp == 1 else name + "^-1")
        return " ".join(parts) if parts else "(empty)"


def letter_endpoints(q: Quiver, letter: tuple[str, int]) -> tuple[str, str]:
    """Effective (tail, head) of a letter; inverse letters traverse backwards."""
    name, exp = letter
    a = q.arrow(name)
    return (a.tail, a.head) if exp == 1 else (a.head, a.tail)


def word_endpoints(q: Quiver, w: Word) -> tuple[str, str] | None:
    """(tail, head) of a composable word, None for the empty word.

    Raises ValueError when consecutive letters do not compose.
    """
    if not w.letters:
        return None
    ends = [letter_endpoints(q, l) for l in w.letters]
    for i in range(len(ends) - 1):
        # letters are stored last-applied first: the later letter in the
        # list is applied earlier, so its head must meet the next tail
        if ends[i][0] != ends[i + 1][1]:
            raise ValueError(
                f"word {w.display()!r} breaks between positions {i} and {i + 1}"
            )
    return ends[-1][0], ends[0][1]


def is_cycle(q: Quiver, w: Word) -> bool:
    """True when the word composes and closes up (empty words count)."""
    try:
        ends = word_endpoints(q, w)
    except ValueError:
        return False
    return ends is None or ends[0] == ends[1]


@dataclass(frozen=True)
class RelationViolation:
    word_index: int
    letter_index: int | None
    message: str


@dataclass(frozen=True)
class RelationSet:
    """Finite set of relations, each a positively oriented cycle."""

    relations: tuple[Word, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", tuple(self.relations))

    @classmethod
    def from_names(cls, cycles: Iterable[Sequence[str]]) -> "RelationSet":
        return cls(tuple(Word.from_arrow_names(c) for c in cycles))

    def __len__(self) -> int:
        return len(self.relations)


def validate_relations(q: Quiver, rels: RelationSet) -> tuple[RelationViolation, ...]:
    """Check every relation word for composability and closedness.

    Returns an empty tuple when everything validates; otherwise one
    violation per failing word naming the first offending letter index.
    """
    violations: list[RelationViolation] = []
    for wi, w in enumerate(rels.relations):
        bad = None
        for li, (name, exp) in enumerate(w.letters):
            if not q.has_arrow(name):
                bad = RelationViolation(wi, li, f"unknown arrow {name!r}")
                break
            if exp != 1:
                bad = RelationViolation(wi, li, "relations must be positively oriented")
                break
        if bad is None and w.letters:
            ends = [letter_endpoints(q, l) for l in w.letters]
            for i in range(len(ends) - 1):
                if ends[i][0] != ends[i + 1][1]:
                    bad = RelationViolation(wi, i, "consecutive letters do not compose")
                    break
            if bad is None and ends[-1][0] != ends[0][1]:
                bad = RelationViolation(wi, None, "word does not close up")
        if bad is not None:
            violations.append(bad)
    return tuple(violations)


# default tolerances of the group membership test and of matrix equality
TOL_MEMBERSHIP = 1e-9
TOL_EQ = 1e-8


@dataclass(frozen=True)
class GroupSpec:
    """Matrix group family and size.

    Families: GL, SL, U, SU, and TORUS (= GL(1), so n must be 1).  Dimension
    metadata is the complex dimension and is defined only for the
    non-compact families.
    """

    family: str
    n: int

    def __post_init__(self) -> None:
        if self.family not in GROUP_FAMILIES:
            raise ValueError(f"unknown group family {self.family!r}")
        if self.n < 1:
            raise ValueError("matrix size must be >= 1")
        if self.family == "TORUS" and self.n != 1:
            raise ValueError("TORUS means GL(1); use n=1")

    @property
    def is_compact(self) -> bool:
        return self.family in COMPACT_FAMILIES

    @property
    def complex_dimension(self) -> int:
        if self.family in ("GL",):
            return self.n * self.n
        if self.family == "SL":
            return self.n * self.n - 1
        if self.family == "TORUS":
            return 1
        raise ValueError(f"complex dimension undefined for compact family {self.family}")

    @property
    def center_dimension(self) -> int:
        if self.family in ("GL", "TORUS"):
            return 1
        if self.family == "SL":
            return 0
        raise ValueError(f"center dimension undefined for compact family {self.family}")


# ---------------------------------------------------------------------------
# topological invariants and vertex classification


def connected_components(q: Quiver) -> tuple[tuple[str, ...], ...]:
    """Undirected connected components, each a tuple of vertex ids, read off the spanning forest.

    Components are listed by smallest member (the forest roots); members are
    kept in quiver vertex order.
    """
    forest = spanning_forest(q)
    root = {r: r for r in forest.roots}
    for child, (parent, _, _) in forest.parent.items():
        root[child] = root[parent]
    comps: dict[str, list[str]] = {r: [] for r in forest.roots}
    for v in q.vertices:
        comps[root[v]].append(v)
    return tuple(tuple(c) for c in comps.values())


def is_connected(q: Quiver) -> bool:
    return len(spanning_forest(q).roots) == 1


def betti_number(q: Quiver) -> int:
    """First Betti number of the underlying 1-complex: N_A - N_V + #components."""
    return q.n_arrows - q.n_vertices + len(spanning_forest(q).roots)


def euler_characteristic(q: Quiver) -> int:
    """N_V - N_A; equals 1 - betti_number for connected quivers."""
    return q.n_vertices - q.n_arrows


def vertex_classes(q: Quiver) -> dict[str, str]:
    """Class of every vertex, in vertex order, from one pass over the arrows.

    Each class is one of 'source', 'sink', 'internal', 'isolated'.  A loop
    counts as both incoming and outgoing, so a vertex carrying only a loop
    is internal.
    """
    has_out, has_in = set(q.tail_rows), set(q.head_rows)
    names = ("internal", "sink", "source", "isolated")
    return {v: names[2 * (i not in has_in) + (i not in has_out)] for i, v in enumerate(q.vertices)}


def classify_vertex(q: Quiver, v: str) -> str:
    """Class of one vertex; see ``vertex_classes``."""
    return vertex_classes(q)[q.check_vertex(v)]


def ends(q: Quiver) -> tuple[str, ...]:
    """Vertices classified as source or sink, in vertex order."""
    return tuple(v for v, c in vertex_classes(q).items() if c in ("source", "sink"))


def is_super_cyclic(q: Quiver) -> bool:
    """True when the quiver has no sources and no sinks."""
    return not ends(q)


def strongly_connected_components(q: Quiver) -> tuple[tuple[str, ...], ...]:
    """Strongly connected components by Tarjan's algorithm (iterative).

    Deterministic: roots and adjacency are scanned in lexicographic order.
    """
    order = sorted(q.vertices)
    succ: dict[str, list[str]] = {v: [] for v in order}
    for a in sorted(q.arrows, key=lambda a: a.name):
        succ[a.tail].append(a.head)

    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    sccs: list[tuple[str, ...]] = []

    for root in order:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if w not in index:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(tuple(sorted(comp)))
    return tuple(sorted(sccs))


def is_strongly_connected(q: Quiver) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    return len(strongly_connected_components(q)) == 1


# ---------------------------------------------------------------------------
# spanning forests and fundamental cycles


@dataclass(frozen=True)
class SpanningForest:
    """Deterministic BFS spanning forest of the underlying undirected graph.

    ``parent`` maps each non-root vertex to (parent vertex, arrow id,
    forward) where ``forward`` is True when the arrow points parent to
    child.  ``tree_arrows`` lists tree arrow ids in BFS discovery order,
    and ``parent`` is filled in that same order.
    """

    roots: tuple[str, ...]
    parent: dict[str, tuple[str, str, bool]]
    tree_arrows: tuple[str, ...]


def spanning_forest(q: Quiver) -> SpanningForest:
    """BFS forest with roots at the smallest vertex id of each component.

    Neighbor exploration is by lexicographic arrow id, so parallel arrows
    are broken deterministically.  Loops never enter the incidence lists.
    """
    names = [a.name for a in q.arrows]
    tails, heads = q.tail_rows, q.head_rows
    incident: list[list[int]] = [[] for _ in q.vertices]
    for i in sorted(range(q.n_arrows), key=names.__getitem__):
        if tails[i] != heads[i]:
            incident[tails[i]].append(i)
            incident[heads[i]].append(i)

    vertices = q.vertices
    visited = [False] * q.n_vertices
    roots: list[str] = []
    parent: dict[str, tuple[str, str, bool]] = {}
    tree_arrows: list[str] = []

    for root in sorted(range(q.n_vertices), key=vertices.__getitem__):
        if visited[root]:
            continue
        roots.append(vertices[root])
        visited[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for i in incident[v]:
                forward = tails[i] == v
                other = heads[i] if forward else tails[i]
                if visited[other]:
                    continue
                visited[other] = True
                parent[vertices[other]] = (vertices[v], names[i], forward)
                tree_arrows.append(names[i])
                queue.append(other)
    return SpanningForest(tuple(roots), parent, tuple(tree_arrows))


def tree_path_letters(forest: SpanningForest, v: str) -> list[tuple[str, int]]:
    """Letters of the forest path root -> v in application order."""
    path: list[tuple[str, int]] = []
    while v in forest.parent:
        u, name, forward = forest.parent[v]
        path.append((name, 1 if forward else -1))
        v = u
    path.reverse()
    return path


def fundamental_cycles(q: Quiver) -> tuple[tuple[Word, ...], SpanningForest]:
    """One cycle word per non-tree arrow, each closed at its component root.

    The cycle for a non-tree arrow runs from the root to its tail along the
    forest, across the arrow, and back to the root; tree letters pick up
    exponent -1 when walked against their direction.  The list has exactly
    betti_number(q) entries.
    """
    forest = spanning_forest(q)
    tree = set(forest.tree_arrows)
    cycles = []
    for a in q.arrows:
        if a.name in tree:
            continue
        to_tail = tree_path_letters(forest, a.tail)
        to_head = tree_path_letters(forest, a.head)
        back = [(name, -e) for name, e in reversed(to_head)]
        application = to_tail + [(a.name, 1)] + back
        cycles.append(Word.from_application_order(application))
    return tuple(cycles), forest


def moduli_dimension(q: Quiver, group: GroupSpec) -> int:
    """Dimension of the representation moduli for a connected quiver.

    Trees give a single point (dimension 0); otherwise the dimension is
    dim center + (b1 - 1) * dim group.  Compact families are rejected:
    only complex dimensions are tabulated.
    """
    if not is_connected(q):
        raise ValueError("dimension formula requires a connected quiver")
    if group.is_compact:
        raise ValueError("dimension formula covers GL/SL/TORUS only")
    r = betti_number(q)
    if r == 0:
        return 0
    return group.center_dimension + (r - 1) * group.complex_dimension


# ---------------------------------------------------------------------------
# orbit-closure certificate

ALL_INVERTIBLE_ORBITS_CLOSED = "all_invertible_orbits_closed"
ENDS_OBSTRUCT = "ends_obstruct"
INCONCLUSIVE = "inconclusive"


def directed_path(q: Quiver, src: str, dst: str) -> list[str] | None:
    """Arrow ids of a directed path src -> dst, or None; [] when src == dst.

    Breadth-first with lexicographic arrow order, so deterministic.
    """
    q.check_vertex(src)
    q.check_vertex(dst)
    if src == dst:
        return []
    succ: dict[str, list[tuple[str, str]]] = {v: [] for v in q.vertices}
    for a in sorted(q.arrows, key=lambda a: a.name):
        succ[a.tail].append((a.name, a.head))
    prev: dict[str, tuple[str, str]] = {}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for name, w in succ[v]:
            if w in prev or w == src:
                continue
            prev[w] = (v, name)
            if w == dst:
                path = []
                while w != src:
                    v, name = prev[w]
                    path.append(name)
                    w = v
                path.reverse()
                return path
            queue.append(w)
    return None


@dataclass(frozen=True)
class MonotoneReport:
    """Outcome of the weight-monotonicity check.

    ``ok`` means the assignment is constant.  Otherwise
    ``violating_arrow`` names an arrow whose head weight is strictly below
    its tail weight and ``witness_cycle`` is an oriented cycle through that
    arrow: chaining head >= tail around the cycle forces equality, so no
    non-constant assignment can be monotone on a strongly connected quiver.
    """

    ok: bool
    violating_arrow: str | None = None
    witness_cycle: Word | None = None


def monotone_weights_force_constant(q: Quiver, alpha: Mapping[str, int]) -> MonotoneReport:
    """Check that head >= tail weight monotonicity forces a constant assignment."""
    if not is_strongly_connected(q):
        raise ValueError("weight monotonicity argument needs a strongly connected quiver")
    for v in q.vertices:
        if v not in alpha:
            raise ValueError(f"missing weight for vertex {v!r}")
    values = {alpha[v] for v in q.vertices}
    if len(values) <= 1:
        return MonotoneReport(ok=True)
    violating = None
    for a in sorted(q.arrows, key=lambda a: a.name):
        if alpha[a.head] < alpha[a.tail]:
            violating = a
            break
    if violating is None:
        # impossible: monotone weights on a strongly connected quiver are
        # constant, and this assignment is not constant
        raise AssertionError("non-constant assignment with no violating arrow")
    back = directed_path(q, violating.head, violating.tail)
    cycle = Word.from_application_order(
        [(violating.name, 1)] + [(name, 1) for name in back]
    )
    return MonotoneReport(ok=False, violating_arrow=violating.name, witness_cycle=cycle)


@dataclass(frozen=True)
class OrbitCertificate:
    """Verdict on the scalar degenerations of invertible representations.

    ``ends_obstruct`` lists the sink/source vertices at which every
    invertible representation degenerates.  The strongly connected verdict
    (``all_invertible_orbits_closed``) certifies only that no vertex-scalar
    one-parameter subgroup ``t^alpha_v * I`` degenerates one; other
    one-parameter subgroups still can (King 1994).  For it, a sample
    non-constant weight assignment and the cycle on which it fails
    monotonicity are attached as constructive evidence.
    """

    verdict: str
    ends: tuple[str, ...] = ()
    sample_alpha: tuple[tuple[str, int], ...] | None = None
    sample_violation: MonotoneReport | None = None


def closed_orbit_certificate(q: Quiver) -> OrbitCertificate:
    """Classify a connected quiver by the orbit-closure behavior it forces.

    Strongly connected quivers put every arrow on an oriented cycle, which
    rules out the degenerations by vertex-scalar one-parameter subgroups
    ``t^alpha_v * I``.  It does not make every invertible orbit closed: by
    King (1994) an orbit is closed exactly when the representation is
    semisimple, and the one-loop Jordan block is not.  Quivers with ends
    admit the explicit sink/source degeneration at every end.  Quivers with
    no ends that are not strongly connected are reported inconclusive
    rather than guessed.
    """
    if not is_connected(q):
        raise ValueError("certificate requires a connected quiver")
    end_vertices = ends(q)
    if end_vertices:
        return OrbitCertificate(verdict=ENDS_OBSTRUCT, ends=end_vertices)
    if is_strongly_connected(q):
        sample_alpha = None
        violation = None
        if q.n_vertices >= 2:
            marked = max(q.vertices)
            alpha = {v: (1 if v == marked else 0) for v in q.vertices}
            sample_alpha = tuple(sorted(alpha.items()))
            violation = monotone_weights_force_constant(q, alpha)
        return OrbitCertificate(
            verdict=ALL_INVERTIBLE_ORBITS_CLOSED,
            sample_alpha=sample_alpha,
            sample_violation=violation,
        )
    return OrbitCertificate(verdict=INCONCLUSIVE)
