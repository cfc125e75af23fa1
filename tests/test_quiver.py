"""Quiver structure, topological invariants, and classification."""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quivergauge import (
    GroupSpec,
    Quiver,
    RelationSet,
    Word,
    betti_number,
    classify_vertex,
    directed_path,
    document_for,
    euler_characteristic,
    fundamental_cycles,
    is_connected,
    is_strongly_connected,
    is_super_cyclic,
    moduli_dimension,
    parse,
    print_document,
    pushforward_collapse,
    random_representation,
    reduce_to_rose,
    validate_relations,
    word_endpoints,
)
from quivergauge.cli import main
from conftest import (
    PROPERTY,
    bridge_two_cycles,
    long_loop,
    long_path,
    one_arrow,
    one_loop,
    quivers,
    random_connected_quiver,
    rose,
    theta,
    triangle,
)


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver((), ())
    with pytest.raises(ValueError):
        Quiver(("v0", "v0"), ())
    with pytest.raises(ValueError):
        Quiver(("v0",), (("a", "v0", "v1"),))
    with pytest.raises(ValueError):
        Quiver(("v0",), (("a", "v0", "v0"), ("a", "v0", "v0")))
    q = Quiver(("v0",), (("a", "v0", "v0"),))
    assert q.arrow("a").is_loop
    with pytest.raises(ValueError):
        q.arrow("missing")


def test_betti_number_examples():
    assert betti_number(one_loop()) == 1
    assert betti_number(long_path(2)) == 0
    cycle3 = Quiver(
        ("v0", "v1", "v2"),
        (("a0", "v0", "v1"), ("a1", "v1", "v2"), ("a2", "v2", "v0")),
    )
    assert betti_number(cycle3) == 1
    two_loops = Quiver(("v0", "v1"), (("l0", "v0", "v0"), ("l1", "v1", "v1")))
    assert betti_number(two_loops) == 2  # additive over components


def test_euler_characteristic_examples():
    assert euler_characteristic(long_path(4)) == 1  # tree with 5 vertices
    assert euler_characteristic(one_loop()) == 0
    assert euler_characteristic(theta()) == -1


def test_betti_plus_euler_is_one_for_connected():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = random_connected_quiver(rng)
        assert is_connected(q)
        assert betti_number(q) + euler_characteristic(q) == 1


def test_classify_vertex():
    tail = Quiver(("v0", "v1"), (("a0", "v0", "v1"), ("l", "v1", "v1")))
    assert classify_vertex(tail, "v0") == "source"
    assert classify_vertex(one_arrow(), "v1") == "sink"
    assert classify_vertex(one_loop(), "v0") == "internal"
    iso = Quiver(("v0", "v1"), (("l", "v0", "v0"),))
    assert classify_vertex(iso, "v1") == "isolated"
    with pytest.raises(ValueError):
        classify_vertex(one_loop(), "nope")


def test_super_cyclic_and_strong_connectivity():
    assert is_super_cyclic(one_loop()) and is_strongly_connected(one_loop())
    assert not is_super_cyclic(one_arrow()) and not is_strongly_connected(one_arrow())
    bridge = bridge_two_cycles()
    assert is_super_cyclic(bridge)
    assert not is_strongly_connected(bridge)


def test_strongly_connected_implies_super_cyclic():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        q = random_connected_quiver(rng)
        if q.n_arrows == 0:
            continue
        if any(classify_vertex(q, v) == "isolated" for v in q.vertices):
            continue
        if is_strongly_connected(q):
            assert is_super_cyclic(q)
            checked += 1
    assert checked > 0


def test_fundamental_cycles_tree_and_loop():
    cycles, _ = fundamental_cycles(long_path(3))
    assert cycles == ()
    cycles, _ = fundamental_cycles(one_loop())
    assert len(cycles) == 1
    assert cycles[0].letters == (("l0", 1),)


def test_fundamental_cycles_theta():
    q = theta()
    cycles, forest = fundamental_cycles(q)
    assert forest.tree_arrows == ("a0",)
    # stored last-applied-first; both cycles close at the root v0
    assert cycles[0].letters == (("a0", -1), ("a1", 1))
    assert cycles[1].letters == (("a0", -1), ("a2", 1))
    for c in cycles:
        assert word_endpoints(q, c) == ("v0", "v0")


def test_fundamental_cycles_count_and_closure():
    rng = np.random.default_rng(23)
    for _ in range(40):
        q = random_connected_quiver(rng)
        cycles, _ = fundamental_cycles(q)
        assert len(cycles) == betti_number(q)
        root = min(q.vertices)
        for c in cycles:
            ends_ = word_endpoints(q, c)
            assert ends_ == (root, root)


def test_moduli_dimension():
    assert moduli_dimension(rose(2), GroupSpec("GL", 2)) == 5
    assert moduli_dimension(rose(2), GroupSpec("SL", 2)) == 3
    assert moduli_dimension(long_path(4), GroupSpec("GL", 3)) == 0
    assert moduli_dimension(rose(1), GroupSpec("SL", 2)) == 0
    assert moduli_dimension(rose(3), GroupSpec("TORUS", 1)) == 3
    disconnected = Quiver(("v0", "v1"), ())
    with pytest.raises(ValueError):
        moduli_dimension(disconnected, GroupSpec("GL", 2))
    with pytest.raises(ValueError):
        moduli_dimension(rose(2), GroupSpec("U", 2))


FIXTURE_QUIVERS = {
    path.stem: parse(path.read_text(encoding="utf-8")).quiver
    for path in sorted((Path(__file__).parent / "fixtures").glob("*.quiver"))
}
GROUPS = [("GL", 2), ("GL", 3), ("SL", 2), ("SL", 3), ("TORUS", 1)]


def _oracle_cases():
    for name, q in FIXTURE_QUIVERS.items():
        for family, n in GROUPS:
            marks = ()
            if betti_number(q) == 1 and family != "TORUS":
                # Florentino-Lawton: one loop gives dimension rank G (n for GL, n - 1 for SL)
                reason = "b1 = 1 dimension (ROADMAP item 2, which waits on item 1's perfbench check)"
                marks = pytest.mark.xfail(strict=True, reason=reason)
            yield pytest.param(q, GroupSpec(family, n), marks=marks, id=f"{name}-{family}{n}")


@pytest.mark.parametrize("q, group", _oracle_cases())
def test_moduli_dimension_matches_the_orbit_dimension_on_the_rose(q, group):
    """r dim G minus the rank of u -> (u X_i - X_i u)_i at a generic point X of the rose.

    The identity lies in the kernel, so the rank over gl_n equals the rank
    over sl_n; the largest rank over two samples is the generic one.
    """
    rose_q, _, trace = reduce_to_rose(q)
    n, loops, eye = group.n, rose_q.n_arrows, np.eye(group.n)
    rank = 0
    for seed in (1, 2) if loops else ():
        xs = pushforward_collapse(random_representation(q, group, seed), trace).stack
        s = np.linalg.svd(np.vstack([np.kron(eye, x.T) - np.kron(x, eye) for x in xs]), compute_uv=False)
        rank = max(rank, int((s > 1e-9 * s[0]).sum()))
    dim_g = n * n - (group.family == "SL")
    assert moduli_dimension(q, group) == loops * dim_g - rank


def test_group_spec_metadata():
    with pytest.raises(ValueError, match=r"^group family must be a string among GL, SL, U, SU, TORUS, got 'SO'$"):
        GroupSpec("SO", 3)
    with pytest.raises(ValueError, match=r"^group n must be >= 1, got 0$"):
        GroupSpec("GL", 0)
    with pytest.raises(ValueError, match=r"^TORUS means GL\(1\), so group n must be 1, got 2$"):
        GroupSpec("TORUS", 2)


def test_group_spec_takes_n_through_operator_index():
    # a float or string size is refused up front, not deep in numpy
    for n in (2.0, "2", None):
        with pytest.raises(ValueError, match=rf"^group n must be an integer, got {n!r}$"):
            GroupSpec("GL", n)
    # numpy integers keep working and are stored as int, equal to the plain spec
    spec = GroupSpec("GL", np.int64(2))
    assert type(spec.n) is int and spec == GroupSpec("GL", 2) and hash(spec) == hash(GroupSpec("GL", 2))
    assert repr(spec) == "GroupSpec(family='GL', n=2)"
    with pytest.raises(ValueError, match=r"^group n must be >= 1, got 0$"):
        GroupSpec("SL", np.int32(0))


def test_validate_relations():
    q, rels = triangle()
    assert validate_relations(q, rels) == ()
    bad = RelationSet((Word.from_arrow_names(("a1", "a1")),))  # tail of a1 (v1) != head of a1 (v2)
    violations = validate_relations(q, bad)
    assert len(violations) == 1
    assert violations[0].word_index == 0
    assert violations[0].message == "consecutive letters do not compose"
    assert validate_relations(q, RelationSet()) == ()
    unknown = validate_relations(q, RelationSet((Word.from_arrow_names(("zz",)),)))
    assert unknown and "unknown" in unknown[0].message
    open_word = validate_relations(q, RelationSet((Word.from_arrow_names(("a0",)),)))
    assert open_word and "close" in open_word[0].message
    inverse = validate_relations(q, RelationSet((Word((("a2", 1), ("a1", -1), ("a0", 1))),)))
    assert [(v.word_index, v.message) for v in inverse] == [(0, "relations must be positively oriented")]


def test_word_conventions():
    q, _ = triangle()
    # display order a2 a1 a0 means a0 applied first
    w = Word.from_arrow_names(("a2", "a1", "a0"))
    assert word_endpoints(q, w) == ("v0", "v0")
    app = Word.from_application_order([("a0", 1), ("a1", 1), ("a2", 1)])
    assert app == w
    with pytest.raises(ValueError):
        word_endpoints(q, Word.from_arrow_names(("a0", "a0")))
    assert word_endpoints(q, Word(())) is None
    with pytest.raises(ValueError):
        Word((("a0", 2),))


def test_word_exponents_are_integers_by_operator_index():
    # neither truncated (1.7 -> 1) nor converted ("1" -> 1); the message shows the value as given
    for exp, shown in ((1.7, "1.7"), ("1", "'1'"), (2, "2"), (None, "None")):
        with pytest.raises(ValueError, match=rf"^letter 'a0' has exponent {shown}; only \+1/-1 allowed$"):
            Word((("a0", exp),))
    w = Word((("a0", np.int64(-1)), ("a1", 1)))
    assert w.letters == (("a0", -1), ("a1", 1)) and type(w.letters[0][1]) is int


def test_component_count_is_betti_number_plus_euler_characteristic():
    q = Quiver(
        ("b0", "a0", "c0"),
        (("e0", "a0", "a0"),),
    )
    assert (betti_number(q), euler_characteristic(q), is_connected(q)) == (1, 2, False)


def _reachable(q, src):
    seen = {src}
    frontier = [src]
    while frontier:
        v = frontier.pop()
        for a in q.arrows:
            if a.tail == v and a.head not in seen:
                seen.add(a.head)
                frontier.append(a.head)
    return seen


def test_strong_connectivity_against_bruteforce_oracle():
    rng = np.random.default_rng(31)
    for _ in range(100):
        q = random_connected_quiver(rng, max_vertices=6, max_arrows=10)
        expected = all(len(_reachable(q, v)) == q.n_vertices for v in q.vertices)
        assert is_strongly_connected(q) == expected


def test_row_tuples_and_lazy_index_arrays():
    q = Quiver(("b", "a"), (("x", "a", "b"), ("y", "b", "b"), ("z", "a", "a")))
    assert q.tail_rows == (1, 0, 1) and q.head_rows == (0, 0, 1)
    assert q.tails.tolist() == [1, 0, 1] and q.heads.tolist() == [0, 0, 1]
    assert q.tails is q.tails and not q.tails.flags.writeable
    assert q == Quiver(("b", "a"), (("x", "a", "b"), ("y", "b", "b"), ("z", "a", "a")))
    assert Quiver(("v",), ()).tails.shape == (0,)


def _distances(q, src):
    """Directed BFS distance from ``src`` to every vertex it reaches, by plain arrow scans."""
    dist, frontier, level = {src: 0}, {src}, 0
    while frontier:
        level += 1
        frontier = {a.head for a in q.arrows if a.tail in frontier and a.head not in dist}
        dist.update(dict.fromkeys(frontier, level))
    return dist


def _disjoint_union(p, q):
    """``p`` and ``q`` side by side, their ids prefixed "a" and "b"; ``q``'s rows come first."""
    parts = (("b", q), ("a", p))
    return Quiver(
        [tag + v for tag, r in parts for v in r.vertices],
        [(tag + a.name, tag + a.tail, tag + a.head) for tag, r in parts for a in r.arrows],
    )


@PROPERTY
@given(quivers(max_vertices=8), quivers(max_vertices=8))
def test_strong_connectivity_matches_mutual_reachability(p, q):
    for r in (p, _disjoint_union(p, q)):
        assert is_strongly_connected(r) == all(len(_reachable(r, v)) == r.n_vertices for v in r.vertices)


def test_strong_connectivity_of_one_vertex_and_of_disjoint_unions():
    assert is_strongly_connected(Quiver(("v0",), ())) and is_strongly_connected(one_loop())
    # each part is strongly connected, and a search from either part's rows misses the other
    assert not is_strongly_connected(_disjoint_union(long_loop(3), one_loop()))
    assert not is_strongly_connected(_disjoint_union(one_loop(), long_loop(3)))


def _name_walk_cycles(q):
    """Fundamental cycles and tree arrows by vertex and arrow names alone: the reference for ``fundamental_cycles``.

    A BFS forest keyed by vertex id (each component rooted at its smallest
    id, arrows tried in id order, loops skipped) gives every non-root vertex
    its parent, arrow and direction; each non-tree arrow closes along the
    root paths of its ends.
    """
    arrows = sorted(q.arrows, key=lambda a: a.name)
    seen, parent, tree = set(), {}, []
    for root in sorted(q.vertices):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for v in queue:
            for a in arrows:
                if a.is_loop or v not in (a.tail, a.head):
                    continue
                kid = a.head if a.tail == v else a.tail
                if kid not in seen:
                    seen.add(kid)
                    queue.append(kid)
                    parent[kid] = (v, a.name, a.tail == v)
                    tree.append(a.name)

    def tree_path_letters(v):
        path = []
        while v in parent:
            v, name, forward = parent[v]
            path.append((name, 1 if forward else -1))
        return path[::-1]

    cycles = []
    for a in q.arrows:
        if a.name not in tree:
            back = [(name, -e) for name, e in reversed(tree_path_letters(a.head))]
            cycles.append(Word.from_application_order(tree_path_letters(a.tail) + [(a.name, 1)] + back))
    return tuple(cycles), tuple(tree)


@PROPERTY
@given(quivers(max_vertices=30), quivers(max_vertices=30))
def test_fundamental_cycles_match_the_name_walk_word_for_word(p, q):
    union = _disjoint_union(p, q)
    for r in (p, union):
        cycles, forest = fundamental_cycles(r)
        assert (cycles, forest.tree_arrows) == _name_walk_cycles(r)
    cycles, _ = fundamental_cycles(union)
    assert len(cycles) == betti_number(union)
    for c in cycles:  # each closes at the smallest vertex of its own component
        tail, head = word_endpoints(union, c)
        assert tail == head == min(v for v in union.vertices if v[0] == tail[0])


def _union_find_components(q):
    """The number of undirected components of ``q``, by union-find over its arrows."""
    parent = {v: v for v in q.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a in q.arrows:
        parent[find(a.tail)] = find(a.head)
    return len({find(v) for v in q.vertices})


@PROPERTY
@given(quivers(max_vertices=30), quivers(max_vertices=30))
def test_info_counts_match_a_union_find_count(tmp_path_factory, p, q):
    path = tmp_path_factory.mktemp("info") / "q.quiver"
    for r in (p, _disjoint_union(p, q)):
        path.write_text(print_document(document_for(r)), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["info", str(path), "--json"]) == 0
        payload = json.loads(out.getvalue())
        c = _union_find_components(r)
        counts = (payload["components"], payload["betti_number"], payload["euler_characteristic"])
        assert counts == (c, r.n_arrows - r.n_vertices + c, r.n_vertices - r.n_arrows)


@PROPERTY
@given(quivers(), st.data())
def test_directed_path_is_a_shortest_path_or_none(q, data):
    vertices = st.sampled_from(q.vertices)
    for _ in range(10):
        u = data.draw(vertices)
        dist = _distances(q, u)
        for v in data.draw(st.lists(vertices, min_size=1, max_size=10)):
            path = directed_path(q, u, v)
            if v not in dist:
                assert path is None
                continue
            assert path is not None and len(path) == dist[v]
            at = u
            for name in path:
                assert q.arrow(name).tail == at
                at = q.arrow(name).head
            assert at == v


@PROPERTY
@given(quivers(max_vertices=12), st.data())
def test_word_endpoints_breaks_exactly_where_validate_relations_finds_no_composition(q, data):
    arrows = st.sampled_from(q.arrows)
    for _ in range(10):
        letters = [data.draw(arrows)]
        for _ in range(data.draw(st.integers(0, 6))):
            # stored order: the next letter is applied first, so its head meets the last letter's tail
            into = [a for a in q.arrows if a.head == letters[-1].tail]
            letters.append(data.draw(st.sampled_from(into)) if into and data.draw(st.booleans()) else data.draw(arrows))
        w = Word.from_arrow_names([a.name for a in letters])
        (violation,) = validate_relations(q, RelationSet((w,))) or (None,)
        try:
            ends = word_endpoints(q, w)
        except ValueError as exc:
            i = next(i for i in range(len(letters) - 1) if letters[i].tail != letters[i + 1].head)
            assert violation.message == "consecutive letters do not compose"
            assert str(exc) == f"word {w.display()!r} breaks between positions {i} and {i + 1}"
            continue
        assert (violation is None) == (ends[0] == ends[1])
        assert violation is None or violation.message == "word does not close up"
