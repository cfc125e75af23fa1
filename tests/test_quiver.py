"""Quiver structure, topological invariants, and classification."""

import numpy as np
import pytest

from quivergauge import (
    GroupSpec,
    Quiver,
    RelationSet,
    Word,
    betti_number,
    classify_vertex,
    connected_components,
    euler_characteristic,
    fundamental_cycles,
    is_connected,
    is_cycle,
    is_strongly_connected,
    is_super_cyclic,
    moduli_dimension,
    validate_relations,
    word_endpoints,
)
from conftest import (
    bridge_two_cycles,
    long_path,
    one_arrow,
    one_loop,
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
        cycles, forest = fundamental_cycles(q)
        assert len(cycles) == betti_number(q)
        root = forest.roots[0]
        for c in cycles:
            ends_ = word_endpoints(q, c)
            assert ends_ == (root, root)
            assert is_cycle(q, c)


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


def test_group_spec_metadata():
    assert GroupSpec("GL", 3).complex_dimension == 9
    assert GroupSpec("SL", 3).complex_dimension == 8
    assert GroupSpec("TORUS", 1).complex_dimension == 1
    assert GroupSpec("GL", 3).center_dimension == 1
    assert GroupSpec("SL", 3).center_dimension == 0
    assert GroupSpec("TORUS", 1).center_dimension == 1
    with pytest.raises(ValueError):
        GroupSpec("U", 2).complex_dimension
    with pytest.raises(ValueError):
        GroupSpec("SO", 3)
    with pytest.raises(ValueError):
        GroupSpec("TORUS", 2)


def test_validate_relations():
    q, rels = triangle()
    assert validate_relations(q, rels) == ()
    bad = RelationSet.from_names([("a1", "a1")])  # tail of a1 (v1) != head of a1 (v2)
    violations = validate_relations(q, bad)
    assert len(violations) == 1
    assert violations[0].word_index == 0
    assert violations[0].letter_index == 0
    assert validate_relations(q, RelationSet()) == ()
    unknown = validate_relations(q, RelationSet.from_names([("zz",)]))
    assert unknown and "unknown" in unknown[0].message
    open_word = validate_relations(q, RelationSet.from_names([("a0",)]))
    assert open_word and "close" in open_word[0].message


def test_word_conventions():
    q, _ = triangle()
    # display order a2 a1 a0 means a0 applied first
    w = Word.from_arrow_names(("a2", "a1", "a0"))
    assert word_endpoints(q, w) == ("v0", "v0")
    assert w.inverse().letters == (("a0", -1), ("a1", -1), ("a2", -1))
    assert word_endpoints(q, w.inverse()) == ("v0", "v0")
    app = Word.from_application_order([("a0", 1), ("a1", 1), ("a2", 1)])
    assert app == w
    with pytest.raises(ValueError):
        word_endpoints(q, Word.from_arrow_names(("a0", "a0")))
    assert word_endpoints(q, Word(())) is None
    with pytest.raises(ValueError):
        Word((("a0", 2),))


def test_connected_components_order():
    q = Quiver(
        ("b0", "a0", "c0"),
        (("e0", "a0", "a0"),),
    )
    comps = connected_components(q)
    assert comps == (("a0",), ("b0",), ("c0",))


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
