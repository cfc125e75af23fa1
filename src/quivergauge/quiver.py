"""Directed multigraphs (quivers), cycle words, relation sets, and group metadata.

Vertices and arrows are identified by strings.  Every ordering that shapes a
derived structure (component roots, breadth-first search, tie-breaks) is by
lexicographic id, so all derived structures are deterministic and replayable.
Every traversal (the spanning forest with its fundamental cycles and
component count, strong connectivity, directed paths, and the pushforward's
tree gauge) runs on vertex and arrow rows over one incidence builder,
``_incidence``, and one breadth-first search, ``_bfs``; the skipping of loops
lives only there.

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

Every record of the package (``Arrow``, ``Quiver``, ``Representation``, ...)
is a plain class on one private base, ``_Record``: it declares ``_fields``
(plus ``_defaults``), and ``_Record`` binds its arguments and stores its
fields.  A record writes an ``__init__`` only to validate or normalize, and
hands its fields to the base's; the matrix stacks share ``_Stacked``'s,
which binds through the base but stores its fields itself.  No method is
generated at import: a decorator that generates them would load
``inspect`` and ``exec`` source for every class in every process, a large
share of a short CLI call.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

GROUP_FAMILIES = ("GL", "SL", "U", "SU", "TORUS")
COMPACT_FAMILIES = ("U", "SU")
# cap on a toric weight, checked by the document reader and by ``_checked_weights``
MAX_WEIGHT = 10**6


# How ``_Record.__init__`` stores a field, and a constructor what the base
# does not store, past ``_Record.__setattr__``.  Unlike writing to
# ``self.__dict__``, it keeps the instance's compact attribute storage.
_setfield = object.__setattr__


def _integer(value) -> int | None:
    """The one integer rule: ``value`` as an int if ``operator.index`` takes it (not 1.7, not "1"), else None."""
    try:
        return operator.index(value)
    except TypeError:
        return None


class _Record:
    """Immutable record: constructor, ``repr``, ``==`` and ``hash`` from the field names in ``_fields``.

    A subclass names its fields in ``_fields`` and the defaults of trailing
    optional ones in ``_defaults``; ``__init__`` binds arguments to them as
    ``(field, ..., optional=default)`` would, and stores them.  A subclass
    writes an ``__init__`` only to validate or normalize, and passes its
    fields on to this one; ``_setfield`` stores what is not a field, and the
    fields of ``_Stacked`` and ``toric.MonomialBasis`` (assignment and
    deletion raise AttributeError).  ``==`` (same class only) and ``hash``
    compare ``_fields`` by one ``operator.attrgetter`` per class, ``_key``.
    A record with identity equality sets ``__eq__ = object.__eq__`` and
    ``__hash__ = object.__hash__``.
    """

    _fields: tuple[str, ...] = ()
    _defaults: Mapping[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls._fields:
            cls._key = operator.attrgetter(*cls._fields)  # a plain callable: not bound as a method

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for i, name in enumerate(fields):  # indexing beats unpacking ``zip`` pairs here
            _setfield(self, name, args[i])

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The value of each parameter (``_fields``, then any other ``_defaults`` key) for a call; else TypeError."""
        fields, name = cls._fields, cls.__qualname__
        params = fields + tuple(key for key in cls._defaults if key not in fields)
        if len(args) > len(params):
            raise TypeError(f"{name}() takes {len(params)} arguments {params} but {len(args)} were given")
        given = dict(zip(params, args))
        for key in kwargs:
            if key not in params:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in given:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        bound = {**cls._defaults, **given, **kwargs}
        for key in params:
            if key not in bound:
                raise TypeError(f"{name}() missing required argument {key!r}")
        return [bound[key] for key in params]

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other is self:  # what comparing the two keys would give, as their items are identical
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({shown})"


def _checked_weights(q: Quiver, mu: Mapping[str, int], nu: Mapping[str, int]) -> tuple[dict, dict]:
    """The weights of the arrows of ``q`` as two int maps (mu, nu): the one weight rule.

    Every arrow needs both weights, each an integer (by ``_integer``) with
    0 <= w <= MAX_WEIGHT; else ValueError.
    The toric action and ``weighted_act`` both take their weights from here.
    """
    checked = {}, {}
    for a in q.arrows:
        for label, w, out in zip(("mu", "nu"), (mu, nu), checked):
            if a.name not in w:
                raise ValueError(f"missing {label} weight for arrow {a.name!r}")
            out[a.name] = value = _integer(w[a.name])
            if value is None or value < 0:
                raise ValueError("weights must be non-negative integers")
            if value > MAX_WEIGHT:
                raise ValueError(f"{label} weight for {a.name!r} exceeds the cap {MAX_WEIGHT}")
    return checked


class Arrow(_Record):
    """A named arrow from ``tail`` to ``head``; loops (tail == head) allowed."""

    _fields = ("name", "tail", "head")

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head


class Quiver(_Record):
    """Finite directed multigraph with named vertices and arrows.

    Parallel arrows and loops are permitted.  At least one vertex is
    required; arrows may be empty.  ``tail_rows`` and ``head_rows`` hold,
    per arrow in order, the row of its tail and head vertex in
    ``vertices``.  ``tails`` and ``heads`` are the same rows as read-only
    numpy index arrays, built on first use, so stacks of per-vertex values
    index with them directly; structural code never touches them, so it
    runs without numpy.
    """

    _fields = ("vertices", "arrows")  # the row maps and rows are derived: not shown, not compared

    def __init__(self, vertices: Iterable[str], arrows: Iterable[Arrow | tuple[str, str, str]]) -> None:
        vertices = tuple(vertices)
        arrows = tuple(a if isinstance(a, Arrow) else Arrow(*a) for a in arrows)
        if not vertices:
            raise ValueError("a quiver needs at least one vertex")
        rows = {v: i for i, v in enumerate(vertices)}
        if len(rows) != len(vertices):
            raise ValueError("duplicate vertex ids")
        arrow_rows = {a.name: i for i, a in enumerate(arrows)}
        if len(arrow_rows) != len(arrows):
            raise ValueError("duplicate arrow ids")
        for a in arrows:
            if a.tail not in rows or a.head not in rows:
                raise ValueError(f"arrow {a.name!r} references undeclared vertex")
        super().__init__(vertices, arrows)
        _setfield(self, "_vertex_row", rows)
        _setfield(self, "_arrow_row", arrow_rows)
        _setfield(self, "tail_rows", tuple(rows[a.tail] for a in arrows))
        _setfield(self, "head_rows", tuple(rows[a.head] for a in arrows))

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


class Word(_Record):
    """Sequence of arrow letters with exponents in {+1, -1}.

    Letters are stored in composition order: the first entry is applied
    last, so a stored sequence (a_k, ..., a_1) is evaluated as the product
    f(a_k) ... f(a_1).  Joining the letter ids in stored order therefore
    reproduces the conventional right-to-left display of the word.
    """

    _fields = ("letters",)

    def __init__(self, letters: Iterable[tuple[str, int]]) -> None:
        letters = [(str(n), e, _integer(e)) for n, e in letters]  # 1.7 and "1" are refused, not truncated
        for name, exp, sign in letters:
            if sign not in (1, -1):
                raise ValueError(f"letter {name!r} has exponent {exp!r}; only +1/-1 allowed")
        super().__init__(tuple([(name, sign) for name, _, sign in letters]))

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


def _walk(q: Quiver, w: Word) -> tuple[list[tuple[str, str]], int | None]:
    """The (tail, head) of each letter of ``w``, and the first i whose letters i and i + 1 do not compose, else None."""
    ends = [letter_endpoints(q, l) for l in w.letters]
    for i in range(len(ends) - 1):
        # letters are stored last-applied first: the later letter in the
        # list is applied earlier, so its head must meet the next tail
        if ends[i][0] != ends[i + 1][1]:
            return ends, i
    return ends, None


def word_endpoints(q: Quiver, w: Word) -> tuple[str, str] | None:
    """(tail, head) of a composable word, None for the empty word.

    Raises ValueError when consecutive letters do not compose.
    """
    if not w.letters:
        return None
    ends, i = _walk(q, w)
    if i is not None:
        raise ValueError(f"word {w.display()!r} breaks between positions {i} and {i + 1}")
    return ends[-1][0], ends[0][1]


class RelationViolation(_Record):
    _fields = ("word_index", "message")


class RelationSet(_Record):
    """Finite set of relations, each a positively oriented cycle."""

    _fields = ("relations",)

    def __init__(self, relations: Iterable[Word] = ()) -> None:
        super().__init__(tuple(relations))

    def __len__(self) -> int:
        return len(self.relations)


def validate_relations(q: Quiver, rels: RelationSet) -> tuple[RelationViolation, ...]:
    """Check every relation word for composability and closedness.

    Returns an empty tuple when everything validates; otherwise one
    violation per failing word, naming the first check its letters fail.
    """
    violations: list[RelationViolation] = []
    for wi, w in enumerate(rels.relations):
        bad = None
        for name, exp in w.letters:
            if not q.has_arrow(name):
                bad = f"unknown arrow {name!r}"
                break
            if exp != 1:
                bad = "relations must be positively oriented"
                break
        if bad is None and w.letters:
            ends, i = _walk(q, w)
            if i is not None:
                bad = "consecutive letters do not compose"
            elif ends[-1][0] != ends[0][1]:
                bad = "word does not close up"
        if bad is not None:
            violations.append(RelationViolation(wi, bad))
    return tuple(violations)


def _check_relations(q: Quiver, rels: RelationSet) -> None:
    """The one relation-set check of the library: ValueError naming the first violation of ``validate_relations``."""
    bad = validate_relations(q, rels)
    if bad:
        raise ValueError(f"invalid relation set: {bad[0].message}")


# default tolerances of the group membership test and of matrix equality
TOL_MEMBERSHIP = 1e-9
TOL_EQ = 1e-8


class GroupSpec(_Record):
    """Matrix group family and size.

    Families: GL, SL, U, SU, and TORUS (= GL(1), so n must be 1); ``n`` is
    stored as int.
    """

    _fields = ("family", "n")

    def __init__(self, family: str, n: int) -> None:
        if family not in GROUP_FAMILIES:
            families = ", ".join(GROUP_FAMILIES)
            raise ValueError(f"group family must be a string among {families}, got {family!r}")
        n, given = _integer(n), n  # ints and numpy integers, stored as int
        if n is None:
            raise ValueError(f"group n must be an integer, got {given!r}")
        if n < 1:
            raise ValueError(f"group n must be >= 1, got {n}")
        if family == "TORUS" and n != 1:
            raise ValueError(f"TORUS means GL(1), so group n must be 1, got {n}")
        super().__init__(family, n)

    @property
    def is_compact(self) -> bool:
        return self.family in COMPACT_FAMILIES


# ---------------------------------------------------------------------------
# topological invariants and vertex classification


def is_connected(q: Quiver) -> bool:
    return len(_forest(q)[0]) == 1


def betti_number(q: Quiver) -> int:
    """First Betti number of the underlying 1-complex: N_A - N_V + #components."""
    return q.n_arrows - q.n_vertices + len(_forest(q)[0])


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
    """Vertices classified as source or sink by ``vertex_classes``, in vertex order."""
    return tuple(v for v, c in vertex_classes(q).items() if c in ("source", "sink"))


def is_super_cyclic(q: Quiver) -> bool:
    """True when the quiver has no sources and no sinks."""
    return not ends(q)


def is_strongly_connected(q: Quiver) -> bool:
    """True iff every ordered vertex pair is joined by a directed path.

    That holds exactly when row 0 reaches every vertex along the arrows and
    against them: one ``_bfs`` each way.
    """
    arrows, others = range(q.n_arrows), q.n_vertices - 1
    return all(
        len(_bfs(q, _incidence(q, arrows, end), [0], [False] * q.n_vertices)) == others
        for end in (q.tail_rows, q.head_rows)
    )


# ---------------------------------------------------------------------------
# the graph core (one incidence builder, one BFS), spanning forests, fundamental cycles


def _id_order(rows: Mapping[str, int]) -> list[int]:
    """The rows of an id-to-row map in id order: the forest and directed paths break ties by lexicographic id."""
    return [rows[k] for k in sorted(rows)]


def _incidence(q: Quiver, arrow_rows: Iterable[int], *ends: tuple[int, ...]) -> list[list[int]]:
    """Per vertex row, the given arrow rows in order, listed at the vertex each of ``ends`` names.

    ``ends`` are ``q.tail_rows`` (search along the arrows), ``q.head_rows``
    (against them) or both (undirected).  Loops are skipped; they change no BFS.
    """
    incident: list[list[int]] = [[] for _ in q.vertices]
    tails, heads = q.tail_rows, q.head_rows
    for i in arrow_rows:
        if tails[i] != heads[i]:
            for end in ends:
                incident[end[i]].append(i)
    return incident


def _bfs(q: Quiver, incident: list[list[int]], roots: Sequence[int], seen: list[bool]) -> list[tuple]:
    """The one BFS: from all ``roots`` at once, a (child, parent, arrow, forward) row per new vertex.

    Rows come in discovery order; ``forward`` is True when the arrow points
    parent to child.  Every vertex reached is marked in ``seen``, and a
    vertex already seen is never entered.
    """
    tails, heads = q.tail_rows, q.head_rows
    for r in roots:
        seen[r] = True
    order, links = list(roots), []
    for v in order:  # grows while it is read: a BFS queue
        for i in incident[v]:
            forward = tails[i] == v
            kid = heads[i] if forward else tails[i]
            if not seen[kid]:
                seen[kid] = True
                links.append((kid, v, i, forward))
                order.append(kid)
    return links


def _forest(q: Quiver) -> tuple[list[int], list[tuple]]:
    """Root rows and BFS links of the spanning forest; see ``SpanningForest``."""
    incident = _incidence(q, _id_order(q._arrow_row), q.tail_rows, q.head_rows)
    seen = [False] * q.n_vertices
    roots: list[int] = []
    links: list[tuple] = []
    for root in _id_order(q._vertex_row):
        if not seen[root]:
            roots.append(root)
            links += _bfs(q, incident, [root], seen)
    return roots, links


class SpanningForest(_Record):
    """Deterministic BFS spanning forest of the underlying undirected graph.

    Each component's root is its smallest vertex id, neighbours are tried
    in lexicographic arrow-id order (so parallel arrows break
    deterministically), and loops never enter.  ``tree_arrows`` lists the
    tree arrow ids in BFS discovery order.
    """

    _fields = ("tree_arrows",)


def fundamental_cycles(q: Quiver) -> tuple[tuple[Word, ...], SpanningForest]:
    """One cycle word per non-tree arrow, each closed at its component root.

    The cycle for a non-tree arrow runs from the root to its tail along the
    forest, across the arrow, and back to the root; tree letters pick up
    exponent -1 when walked against their direction.  The list has exactly
    betti_number(q) entries.
    """
    _, links = _forest(q)
    names = [a.name for a in q.arrows]
    up: list[tuple | None] = [None] * q.n_vertices  # per vertex row: its parent row and the letter from it
    for child, parent, i, forward in links:
        up[child] = parent, (names[i], 1 if forward else -1)

    def from_root(v: int) -> list[tuple[str, int]]:
        """Letters of the forest path root -> v in application order."""
        path = []
        while up[v] is not None:
            v, letter = up[v]
            path.append(letter)
        path.reverse()
        return path

    tree = {i for _, _, i, _ in links}
    cycles = []
    for i, name in enumerate(names):
        if i in tree:
            continue
        back = [(n, -e) for n, e in reversed(from_root(q.head_rows[i]))]
        cycles.append(Word.from_application_order(from_root(q.tail_rows[i]) + [(name, 1)] + back))
    return tuple(cycles), SpanningForest(tuple(names[i] for _, _, i, _ in links))


def moduli_dimension(q: Quiver, group: GroupSpec) -> int:
    """Dimension of the representation moduli for a connected quiver.

    Trees give a single point (dimension 0); otherwise the dimension is
    dim center + (b1 - 1) * dim group.  A disconnected quiver is rejected
    first, then the compact families: only complex dimensions are
    tabulated.
    """
    if not is_connected(q):
        raise ValueError("dimension formula requires a connected quiver")
    if group.is_compact:
        raise ValueError("dimension formula covers GL/SL/TORUS only")
    betti = q.n_arrows - q.n_vertices + 1
    if betti == 0:
        return 0
    n = group.n
    # complex dimension of the group and of its center, by family
    dimension, center = {"GL": (n * n, 1), "SL": (n * n - 1, 0), "TORUS": (1, 1)}[group.family]
    return center + (betti - 1) * dimension


# ---------------------------------------------------------------------------
# orbit-closure certificate

ALL_INVERTIBLE_ORBITS_CLOSED = "all_invertible_orbits_closed"
ENDS_OBSTRUCT = "ends_obstruct"
INCONCLUSIVE = "inconclusive"


def directed_path(q: Quiver, src: str, dst: str) -> list[str] | None:
    """Arrow ids of a directed path src -> dst, or None; [] when src == dst.

    Breadth-first with lexicographic arrow order, so deterministic and of
    shortest length.
    """
    rows = q._vertex_row
    s, d = rows[q.check_vertex(src)], rows[q.check_vertex(dst)]
    if s == d:
        return []
    seen = [False] * q.n_vertices
    links = _bfs(q, _incidence(q, _id_order(q._arrow_row), q.tail_rows), [s], seen)
    if not seen[d]:
        return None
    came = {child: (parent, i) for child, parent, i, _ in links}
    path = []
    while d != s:
        d, i = came[d]
        path.append(q.arrows[i].name)
    path.reverse()
    return path


class MonotoneReport(_Record):
    """Outcome of the weight-monotonicity check.

    ``ok`` means the assignment is constant.  Otherwise
    ``violating_arrow`` names an arrow whose head weight is strictly below
    its tail weight and ``witness_cycle`` is an oriented cycle through that
    arrow: chaining head >= tail around the cycle forces equality, so no
    non-constant assignment can be monotone on a strongly connected quiver.
    """

    _fields = ("ok", "violating_arrow", "witness_cycle")
    _defaults = {"violating_arrow": None, "witness_cycle": None}


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
    return _monotone_violation(q, alpha)


def _monotone_violation(q: Quiver, alpha: Mapping[str, int]) -> MonotoneReport:
    """The report on a non-constant ``alpha`` that weighs every vertex of a strongly connected ``q``."""
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


class OrbitCertificate(_Record):
    """Verdict on the scalar degenerations of invertible representations.

    ``ends_obstruct`` lists the sink/source vertices at which every
    invertible representation degenerates.  The strongly connected verdict
    (``all_invertible_orbits_closed``) certifies only that no vertex-scalar
    one-parameter subgroup ``t^alpha_v * I`` degenerates one; other
    one-parameter subgroups still can (King 1994).  For it, a sample
    non-constant weight assignment and the cycle on which it fails
    monotonicity are attached as constructive evidence.
    """

    _fields = ("verdict", "ends", "sample_alpha", "sample_violation")
    _defaults = {"ends": (), "sample_alpha": None, "sample_violation": None}


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
            violation = _monotone_violation(q, alpha)  # strongly connected, every vertex weighed, not constant
        return OrbitCertificate(
            verdict=ALL_INVERTIBLE_ORBITS_CLOSED,
            sample_alpha=sample_alpha,
            sample_violation=violation,
        )
    return OrbitCertificate(verdict=INCONCLUSIVE)
