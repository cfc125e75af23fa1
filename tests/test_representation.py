"""Gauge action, word evaluation, pushforward, normal forms, weighted action."""

import numpy as np
import pytest

from quivergauge import (
    Arrow,
    CollapseStep,
    GaugeElement,
    GroupSpec,
    Quiver,
    ReductionTrace,
    RelationSet,
    Representation,
    Word,
    collapse,
    evaluate_word,
    fundamental_cycles,
    gauge_act,
    induced_gauge,
    normal_form_tree_gauge,
    pushforward_collapse,
    random_gauge,
    random_representation,
    reduce_to_rose,
    reverse_representation,
    satisfies_relations,
    standard_word_menu,
    trace_invariants,
    weighted_act,
)
from conftest import (
    GL2,
    GL3,
    SU3,
    long_loop,
    long_path,
    nine_class_quiver,
    one_arrow,
    one_loop,
    random_connected_quiver,
    random_tree,
    rose,
    theta,
    triangle,
    two_cycle,
)


def jordan_loop_rep():
    return Representation(
        one_loop(), GL2, {"l0": np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)}
    )


def triangle_satisfying_rep(seed):
    q, rels = triangle()
    rng = np.random.default_rng(seed)
    a1 = np.asarray(
        np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    ) * 2.0
    a2 = np.asarray(
        np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    )
    a0 = np.linalg.inv(a2 @ a1)
    return Representation(q, GL3, {"a0": a0, "a1": a1, "a2": a2}), rels


def test_representation_validation():
    with pytest.raises(ValueError):
        Representation(one_loop(), GL2, {})
    with pytest.raises(ValueError):
        Representation(one_loop(), GL2, {"l0": np.eye(3)})
    with pytest.raises(ValueError):
        Representation(one_loop(), GroupSpec("SL", 2), {"l0": np.diag([2.0, 1.0])})
    with pytest.raises(ValueError):
        Representation(one_loop(), GL2, {"l0": np.eye(2), "zz": np.eye(2)})


def test_identity_gauge_fixes():
    f = random_representation(theta(), GL3, 0)
    g = GaugeElement(theta(), GL3, {v: np.eye(3) for v in theta().vertices})
    acted = gauge_act(g, f)
    for name in f.markings:
        assert np.allclose(acted.markings[name], f.markings[name], atol=1e-14)


def test_random_samplers_refuse_a_negative_seed():
    for sample in (random_representation, random_gauge):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            sample(theta(), GL3, -1)
        for seed in (1.5, None, "1"):  # the count rule takes integers only
            with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed!r}$"):
                sample(theta(), GL3, seed)
    assert random_representation(theta(), GL3, np.int64(2)).stack.tobytes() == (
        random_representation(theta(), GL3, 2).stack.tobytes()
    )


def test_loop_action_is_conjugation():
    f = jordan_loop_rep()
    p = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    g = GaugeElement(one_loop(), GL2, {"v0": p})
    acted = gauge_act(g, f)
    assert np.allclose(acted.markings["l0"], np.array([[1.0, 0.0], [1.0, 1.0]]), atol=1e-14)


def test_action_law():
    rng = np.random.default_rng(8)
    for _ in range(20):
        q = random_connected_quiver(rng)
        f = random_representation(q, GL3, int(rng.integers(2**32)))
        g1 = random_gauge(q, GL3, int(rng.integers(2**32)))
        g2 = random_gauge(q, GL3, int(rng.integers(2**32)))
        lhs = gauge_act(g1.compose(g2), f)
        rhs = gauge_act(g1, gauge_act(g2, f))
        for name in f.markings:
            assert np.linalg.norm(lhs.markings[name] - rhs.markings[name]) <= 1e-10


def test_gauge_mismatch_errors():
    f = random_representation(one_loop(), GL2, 0)
    with pytest.raises(ValueError):
        gauge_act(random_gauge(one_arrow(), GL2, 0), f)
    with pytest.raises(ValueError):
        gauge_act(random_gauge(one_loop(), GL3, 0), f)


def test_evaluate_word():
    f, rels = triangle_satisfying_rep(0)
    assert np.allclose(evaluate_word(f, Word(())), np.eye(3), atol=1e-14)
    w = rels.relations[0]
    assert np.linalg.norm(evaluate_word(f, w) - np.eye(3)) <= 1e-8
    inv = evaluate_word(f, Word((("a0", -1),)))
    assert np.allclose(inv, np.linalg.inv(f.markings["a0"]), atol=1e-12)
    with pytest.raises(ValueError):
        evaluate_word(f, Word.from_arrow_names(("a0", "a0")))
    with pytest.raises(ValueError):
        evaluate_word(f, Word.from_arrow_names(("zz",)))


def test_satisfies_relations_and_gauge_preservation():
    f, rels = triangle_satisfying_rep(1)
    assert satisfies_relations(f, RelationSet())
    assert satisfies_relations(f, rels)
    rng = np.random.default_rng(10)
    for _ in range(100):
        g = random_gauge(f.quiver, GL3, int(rng.integers(2**32)))
        assert satisfies_relations(gauge_act(g, f), rels, tol=1e-7)
    broken = Representation(
        f.quiver, GL3, {**f.markings, "a0": 2.0 * f.markings["a0"]}
    )
    assert not satisfies_relations(broken, rels)
    # the gauge action preserves non-satisfaction too
    g = random_gauge(f.quiver, GL3, 99)
    assert not satisfies_relations(gauge_act(g, broken), rels)
    with pytest.raises(ValueError):
        satisfies_relations(f, RelationSet((Word.from_arrow_names(("a0",)),)))


def test_trace_invariants_basics():
    f = jordan_loop_rep()
    w = Word.from_arrow_names(("l0",))
    assert trace_invariants(f, [w]) == [pytest.approx(2.0)]
    with pytest.raises(ValueError):
        trace_invariants(
            random_representation(one_arrow(), GL2, 0), [Word.from_arrow_names(("a0",))]
        )


def test_trace_invariants_gauge_invariance():
    rng = np.random.default_rng(12)
    for _ in range(100):
        q = random_connected_quiver(rng)
        menu = standard_word_menu(q)
        if not menu:
            continue
        f = random_representation(q, GL3, int(rng.integers(2**32)))
        g = random_gauge(q, GL3, int(rng.integers(2**32)))
        before = trace_invariants(f, menu)
        after = trace_invariants(gauge_act(g, f), menu)
        assert max(abs(b - a) for b, a in zip(before, after)) <= 1e-10


def test_pushforward_two_cycle_example():
    q = two_cycle()
    a = np.diag([2.0, 1.0]).astype(complex)
    b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    f = Representation(q, GL2, {"a0": a, "a1": b})
    merged, rels, step = collapse(q, RelationSet(), "a0")
    trace = ReductionTrace(q, (step,), merged, rels)
    pushed = pushforward_collapse(f, trace)
    assert np.allclose(pushed.markings["a1"], np.array([[0.0, 2.0], [1.0, 0.0]]), atol=1e-12)
    assert abs(np.trace(pushed.markings["a1"])) <= 1e-12
    assert abs(np.trace(pushed.markings["a1"]) - np.trace(b @ a)) <= 1e-12


def test_pushforward_long_loop_conjugate_of_product():
    q = long_loop(5)
    f = random_representation(q, GL3, 21)
    rose_q, _, trace = reduce_to_rose(q)
    pushed = pushforward_collapse(f, trace)
    (loop_arrow,) = rose_q.arrows
    product = np.eye(3, dtype=complex)
    for i in range(5):
        product = f.markings[f"a{i}"] @ product  # apply a0 first
    got = pushed.markings[loop_arrow.name]
    assert abs(np.trace(got) - np.trace(product)) <= 1e-10
    assert np.allclose(
        np.sort_complex(np.linalg.eigvals(got)),
        np.sort_complex(np.linalg.eigvals(product)),
        atol=1e-8,
    )


def test_pushforward_tree_gives_empty_rose():
    q = long_path(3)
    f = random_representation(q, GL2, 2)
    _, _, trace = reduce_to_rose(q)
    pushed = pushforward_collapse(f, trace)
    assert pushed.quiver.n_arrows == 0
    assert pushed.markings == {}


def test_pushforward_matches_local_class_formula():
    """Independent oracle: the explicit per-class collapse formula."""
    q = nine_class_quiver()
    rng = np.random.default_rng(14)
    for _ in range(25):
        f = random_representation(q, GL3, int(rng.integers(2**32)))
        merged, rels, step = collapse(q, RelationSet(), "a0")
        trace = ReductionTrace(q, (step,), merged, rels)
        pushed = pushforward_collapse(f, trace)
        f0 = f.markings["a0"]
        f0_inv = np.linalg.inv(f0)
        expected = {
            "a_plus": f0 @ f.markings["a_plus"],
            "a_minus": f.markings["a_minus"] @ f0_inv,
            "b": f0 @ f.markings["b"] @ f0_inv,
            "f_plus": f.markings["f_plus"] @ f0_inv,
            "f_minus": f0 @ f.markings["f_minus"],
            "c": f.markings["c"],
            "d_plus": f.markings["d_plus"],
            "d_minus": f.markings["d_minus"],
            "e": f.markings["e"],
        }
        for name, want in expected.items():
            assert np.linalg.norm(pushed.markings[name] - want) <= 1e-12


def test_pushforward_equivariance_single_step():
    q = nine_class_quiver()
    rng = np.random.default_rng(15)
    merged, rels, step = collapse(q, RelationSet(), "a0")
    trace = ReductionTrace(q, (step,), merged, rels)
    for _ in range(100):
        f = random_representation(q, GL3, int(rng.integers(2**32)))
        g = random_gauge(q, GL3, int(rng.integers(2**32)))
        lhs = pushforward_collapse(gauge_act(g, f), trace)
        rhs = gauge_act(induced_gauge(g, trace), pushforward_collapse(f, trace))
        gap = max(
            np.linalg.norm(lhs.markings[n] - rhs.markings[n]) for n in lhs.markings
        )
        assert gap <= 1e-10


def test_pushforward_equivariance_full_reduction():
    rng = np.random.default_rng(16)
    for _ in range(20):
        q = random_connected_quiver(rng)
        _, _, trace = reduce_to_rose(q)
        f = random_representation(q, GL3, int(rng.integers(2**32)))
        g = random_gauge(q, GL3, int(rng.integers(2**32)))
        lhs = pushforward_collapse(gauge_act(g, f), trace)
        rhs = gauge_act(induced_gauge(g, trace), pushforward_collapse(f, trace))
        for n in lhs.markings:
            assert np.linalg.norm(lhs.markings[n] - rhs.markings[n]) <= 1e-10


def test_pushforward_preserves_cycle_traces_and_relations():
    rng = np.random.default_rng(17)
    for _ in range(30):
        q = random_connected_quiver(rng)
        cycles, _ = fundamental_cycles(q)
        f = random_representation(q, GL3, int(rng.integers(2**32)))
        rose_q, _, trace = reduce_to_rose(q)
        pushed = pushforward_collapse(f, trace)
        tree = {s.arrow for s in trace.steps}
        for c in cycles:
            translated = Word(tuple(l for l in c.letters if l[0] not in tree))
            t_before = trace_invariants(f, [c])[0]
            t_after = trace_invariants(pushed, [translated])[0]
            assert abs(t_before - t_after) <= 1e-9
    # a satisfied relation stays satisfied after translation and pushforward
    f, rels = triangle_satisfying_rep(33)
    _, translated_rels, trace = reduce_to_rose(f.quiver, rels)
    pushed = pushforward_collapse(f, trace)
    assert satisfies_relations(pushed, translated_rels, tol=1e-8)


def test_pushforward_wrong_quiver_errors():
    _, _, trace = reduce_to_rose(long_loop(3))
    f = random_representation(one_loop(), GL2, 0)
    with pytest.raises(ValueError):
        pushforward_collapse(f, trace)


def test_pushforward_rejects_mismatched_trace():
    q = long_loop(4)
    f = random_representation(q, GL2, 3)
    _, _, trace = reduce_to_rose(q)
    first, second, last = trace.steps
    for steps in ((last, first, second), (first, first, second, last), (first, second)):
        bad = ReductionTrace(q, steps, trace.final, trace.final_relations)
        with pytest.raises(ValueError):
            pushforward_collapse(f, bad)



def test_trace_validation_names_the_mismatch():
    # pushforward_collapse and induced_gauge reject a trace whose final
    # quiver differs from the replay in one arrow's head, the vertex order
    # or the arrow order, and steps whose ends do not match the blocks
    q = long_loop(5)
    current, rels, steps = q, RelationSet(), []
    for name in ("a0", "a2"):
        current, rels, step = collapse(current, rels, name)
        steps.append(step)
    f = random_representation(q, GL2, 8)
    g = random_gauge(q, GL2, 9)
    trace = ReductionTrace(q, tuple(steps), current, rels)
    pushforward_collapse(f, trace)
    induced_gauge(g, trace)
    assert current.n_vertices == 3 and current.n_arrows == 3
    first, *rest = current.arrows
    moved = Arrow(first.name, first.tail, next(v for v in current.vertices if v not in (first.tail, first.head)))
    finals = (
        Quiver(current.vertices, (moved, *rest)),
        Quiver(current.vertices[::-1], current.arrows),
        Quiver(current.vertices, current.arrows[::-1]),
    )
    for final in finals:
        bad = ReductionTrace(q, trace.steps, final, rels)
        with pytest.raises(ValueError, match="^trace steps do not end at the trace's final quiver$"):
            pushforward_collapse(f, bad)
        with pytest.raises(ValueError, match="^trace steps do not end at the trace's final quiver$"):
            induced_gauge(g, bad)
    s0, s1 = steps
    swapped = (
        CollapseStep(s0.arrow, s1.tail, s1.head, s1.merged),
        CollapseStep(s1.arrow, s0.tail, s0.head, s0.merged),
    )
    bad = ReductionTrace(q, swapped, current, rels)
    with pytest.raises(ValueError, match="^step does not match the quiver it is applied to$"):
        pushforward_collapse(f, bad)
    with pytest.raises(ValueError, match="^step does not match the quiver it is applied to$"):
        induced_gauge(g, bad)


def test_trace_replay_refuses_an_unknown_arrow_and_a_loop():
    # a step naming an arrow the source quiver lacks, and a step collapsing a
    # loop (it would join a block to itself), each on an otherwise valid trace
    q = Quiver(("v0", "v1"), (("a", "v0", "v1"), ("l", "v1", "v1")))
    rose, rels, trace = reduce_to_rose(q)
    f = random_representation(q, GL2, 4)
    g = random_gauge(q, GL2, 5)
    cases = (
        (CollapseStep("x", "v0", "v1", "v0"), "^unknown arrow id 'x'$"),
        (CollapseStep("l", "v1", "v1", "v1"), "^step does not match the quiver it is applied to$"),
    )
    for step, message in cases:
        bad = ReductionTrace(q, (step, *trace.steps), rose, rels)
        with pytest.raises(ValueError, match=message):
            pushforward_collapse(f, bad)
        with pytest.raises(ValueError, match=message):
            induced_gauge(g, bad)


def test_normal_form_one_arrow():
    f = random_representation(one_arrow(), GL3, 4)
    gauge, normal = normal_form_tree_gauge(f)
    assert np.linalg.norm(normal.markings["a0"] - np.eye(3)) <= 1e-12
    assert np.allclose(gauge.values["v0"], np.eye(3))


def test_normal_form_long_loop():
    q = long_loop(4)
    f = random_representation(q, GL3, 5)
    _, normal = normal_form_tree_gauge(f)
    tree = set(fundamental_cycles(q)[1].tree_arrows)
    assert len(tree) == 3
    (content_arrow,) = {a.name for a in q.arrows} - tree
    for name in tree:
        assert np.linalg.norm(normal.markings[name] - np.eye(3)) <= 1e-12
    product = np.eye(3, dtype=complex)
    for i in range(4):
        product = f.markings[f"a{i}"] @ product
    final = normal.markings[content_arrow]
    assert abs(np.trace(final) - np.trace(product)) <= 1e-10


def test_normal_form_rose_is_identity():
    f = random_representation(rose(3), GL2, 6)
    gauge, normal = normal_form_tree_gauge(f)
    assert np.allclose(gauge.values["v0"], np.eye(2))
    for name in f.markings:
        assert np.array_equal(normal.markings[name], f.markings[name]) or np.allclose(
            normal.markings[name], f.markings[name], atol=1e-14
        )


def test_normal_form_random_trees():
    rng = np.random.default_rng(18)
    for _ in range(20):
        q = random_tree(rng)
        f = random_representation(q, GL3, int(rng.integers(2**32)))
        _, normal = normal_form_tree_gauge(f)
        for name in normal.markings:
            assert np.linalg.norm(normal.markings[name] - np.eye(3)) <= 1e-12


def test_reversal_equivariance():
    rng = np.random.default_rng(19)
    for _ in range(20):
        q = random_connected_quiver(rng)
        if q.n_arrows == 0:
            continue
        subset = {a.name for a in q.arrows if rng.integers(0, 2)}
        f = random_representation(q, GL3, int(rng.integers(2**32)))
        g = random_gauge(q, GL3, int(rng.integers(2**32)))
        lhs = reverse_representation(gauge_act(g, f), subset)
        g_rev = GaugeElement(lhs.quiver, GL3, dict(g.values))
        rhs = gauge_act(g_rev, reverse_representation(f, subset))
        for name in lhs.markings:
            assert np.linalg.norm(lhs.markings[name] - rhs.markings[name]) <= 1e-10


def test_unitary_stability():
    rng = np.random.default_rng(20)
    q = theta()
    for _ in range(20):
        f = random_representation(q, SU3, int(rng.integers(2**32)))
        k = random_gauge(q, SU3, int(rng.integers(2**32)))
        acted = gauge_act(k, f)
        for name in acted.markings:
            m = acted.markings[name]
            assert np.linalg.norm(m @ m.conj().T - np.eye(3)) <= 1e-12


def test_weighted_act_weight_one_is_gauge_act():
    rng = np.random.default_rng(22)
    q = theta()
    ones = {a.name: 1 for a in q.arrows}
    f = random_representation(q, GL2, 1)
    g = random_gauge(q, GL2, 2)
    lhs = weighted_act(g, f, ones, ones)
    rhs = gauge_act(g, f)
    for name in lhs.markings:
        assert np.linalg.norm(lhs.markings[name] - rhs.markings[name]) <= 1e-12


def test_weighted_act_abelian_composition():
    q = two_cycle()
    mu = {"a0": 3, "a1": 2}
    nu = {"a0": 1, "a1": 4}
    rng = np.random.default_rng(23)
    for _ in range(20):
        diag = lambda: np.diag(rng.uniform(0.5, 2.0, size=2) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)))
        f = Representation(q, GL2, {"a0": diag(), "a1": diag()})
        g = GaugeElement(q, GL2, {"v0": diag(), "v1": diag()})
        gt = GaugeElement(q, GL2, {"v0": diag(), "v1": diag()})
        lhs = weighted_act(g, weighted_act(gt, f, mu, nu), mu, nu)
        rhs = weighted_act(g.compose(gt), f, mu, nu)
        for name in lhs.markings:
            assert np.linalg.norm(lhs.markings[name] - rhs.markings[name]) <= 1e-12


def test_weighted_act_nonabelian_counterexample():
    q = one_loop()
    mu = {"l0": 2}
    nu = {"l0": 1}
    f = Representation(q, GL2, {"l0": np.eye(2, dtype=complex)})
    g = GaugeElement(q, GL2, {"v0": np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)})
    gt = GaugeElement(q, GL2, {"v0": np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)})
    lhs = weighted_act(g, weighted_act(gt, f, mu, nu), mu, nu)
    rhs = weighted_act(g.compose(gt), f, mu, nu)
    gap = np.linalg.norm(lhs.markings["l0"] - rhs.markings["l0"])
    assert gap > 0.1


def test_weighted_act_validation():
    q = one_loop()
    f = random_representation(q, GL2, 0)
    g = random_gauge(q, GL2, 0)
    with pytest.raises(ValueError):
        weighted_act(g, f, {}, {"l0": 1})
    with pytest.raises(ValueError):
        weighted_act(g, f, {"l0": -1}, {"l0": 1})



def test_weighted_act_rejects_fractional_weights():
    # a weight of 1.5 used to act as 1; every weight must pass operator.index
    q = one_loop()
    f = random_representation(q, GL2, 0)
    g = random_gauge(q, GL2, 0)
    for mu, nu in (({"l0": 1.5}, {"l0": 1}), ({"l0": 1}, {"l0": 0.5}), ({"l0": 2.0}, {"l0": 1})):
        with pytest.raises(ValueError, match="^weights must be non-negative integers$"):
            weighted_act(g, f, mu, nu)
    exact = weighted_act(g, f, {"l0": np.int64(2)}, {"l0": True})
    assert np.array_equal(exact.stack, weighted_act(g, f, {"l0": 2}, {"l0": 1}).stack)


def test_weighted_act_matches_arrow_loop():
    # the batched pass groups arrows by (mu, nu); compare with one arrow at a time
    rng = np.random.default_rng(24)
    for _ in range(10):
        q = random_connected_quiver(rng)
        f = random_representation(q, GL3, int(rng.integers(2**32)))
        g = random_gauge(q, GL3, int(rng.integers(2**32)))
        mu = {a.name: int(rng.integers(0, 4)) for a in q.arrows}
        nu = {a.name: int(rng.integers(0, 4)) for a in q.arrows}
        acted = weighted_act(g, f, mu, nu)
        for a in q.arrows:
            left = np.linalg.matrix_power(g.values[a.head], mu[a.name])
            right = np.linalg.inv(np.linalg.matrix_power(g.values[a.tail], nu[a.name]))
            want = left @ f.markings[a.name] @ right
            scale = np.linalg.norm(left) * np.linalg.norm(f.markings[a.name]) * np.linalg.norm(right)
            assert np.linalg.norm(acted.markings[a.name] - want) <= 1e-12 * scale

def test_unitary_menu_traces_detect_inequivalence():
    # same eigenvalue multiset arranged differently on two loops
    q = rose(2)
    d1 = np.diag([1.0, 2.0]).astype(complex)
    d2 = np.diag([3.0, 4.0]).astype(complex)
    d2_swapped = np.diag([4.0, 3.0]).astype(complex)
    f1 = Representation(q, GL2, {"l0": d1, "l1": d2})
    f2 = Representation(q, GL2, {"l0": d1, "l1": d2_swapped})
    menu = standard_word_menu(q)
    t1 = trace_invariants(f1, menu)
    t2 = trace_invariants(f2, menu)
    assert max(abs(a - b) for a, b in zip(t1, t2)) > 0.5


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_satisfies_relations_rejects_nan_or_negative_tol(tol):
    f, rels = triangle_satisfying_rep(0)
    with pytest.raises(ValueError, match="tol must be non-negative"):
        satisfies_relations(f, rels, tol=tol)
