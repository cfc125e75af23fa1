"""Property tests of the stacked core against per-arrow reference loops.

Representations, gauge elements and additive representations store one
(k, n, n) stack in quiver order.  The batched gauge action, moment maps,
orbit norm and pushforward are checked here against plain Python loops over
arrows and vertices, on random connected quivers with up to 100 vertices,
loops and parallel arrows; the pushforward is also checked to commute with
the gauge action through the induced gauge.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quivergauge import (
    AdditiveRep,
    Arrow,
    GaugeElement,
    GroupSpec,
    Quiver,
    Representation,
    act_additive,
    fundamental_cycles,
    gauge_act,
    induced_gauge,
    kn_moment,
    normal_form_tree_gauge,
    orbit_norm,
    pushforward_collapse,
    random_gauge,
    random_representation,
    reduce_to_rose,
)
from quivergauge.quiver import RelationSet
from quivergauge.rewrites import ReductionTrace, collapse

from conftest import PROPERTY, quivers

REL = 1e-12


groups = st.sampled_from([GroupSpec("GL", 1), GroupSpec("GL", 2), GroupSpec("GL", 3), GroupSpec("U", 2)])
seeds = st.integers(0, 2**31 - 1)


def close(got, want, scale) -> bool:
    return np.linalg.norm(np.asarray(got) - np.asarray(want)) <= REL * scale


def traces(q, data) -> tuple[ReductionTrace, ...]:
    """The rose trace, and a trace of collapses in a drawn order that may stop before the rose."""
    _, _, rose = reduce_to_rose(q, RelationSet())
    current, rels, steps = q, RelationSet(), []
    for _ in range(data.draw(st.integers(0, q.n_vertices - 1))):
        names = [a.name for a in current.arrows if not a.is_loop]
        current, rels, step = collapse(current, rels, data.draw(st.sampled_from(names)))
        steps.append(step)
    return rose, ReductionTrace(q, tuple(steps), current, rels)


def stepwise(f: Representation, trace: ReductionTrace) -> tuple[Quiver, dict]:
    """Collapse one step at a time, gauging the collapsed marking away at its tail.

    The gauge is I away from the step's tail, so only arrows at the tail
    change.
    """
    markings = dict(f.markings)
    current = trace.source
    for step in trace.steps:
        f0 = markings.pop(step.arrow)
        f0_inv = np.linalg.inv(f0)
        for a in current.arrows:
            if a.name != step.arrow and step.tail in (a.tail, a.head):
                left = f0 if a.head == step.tail else np.eye(len(f0))
                right = f0_inv if a.tail == step.tail else np.eye(len(f0))
                markings[a.name] = left @ markings[a.name] @ right
        moved = {step.tail: step.merged, step.head: step.merged}
        current = Quiver(
            tuple(v for v in current.vertices if v == step.merged or v not in (step.tail, step.head)),
            tuple(
                Arrow(a.name, moved.get(a.tail, a.tail), moved.get(a.head, a.head))
                for a in current.arrows
                if a.name != step.arrow
            ),
        )
    return current, markings


def reference_action(g_values, markings, q) -> dict:
    out = {}
    for a in q.arrows:
        left, m, right = g_values[a.head], markings[a.name], np.linalg.inv(g_values[a.tail])
        out[a.name] = (left @ m @ right, np.linalg.norm(left) * np.linalg.norm(m) * np.linalg.norm(right))
    return out


@PROPERTY
@given(quivers(), groups, seeds)
def test_gauge_act_matches_arrow_loop(q, group, seed):
    f = random_representation(q, group, seed)
    g = random_gauge(q, group, seed + 1)
    acted = gauge_act(g, f)
    for name, (want, scale) in reference_action(g.values, f.markings, q).items():
        assert close(acted.markings[name], want, scale)


@PROPERTY
@given(quivers(), groups, seeds)
def test_act_additive_matches_arrow_loop(q, group, seed):
    # zero out one marking: additive representations may be singular
    f = random_representation(q, group, seed)
    markings = dict(f.markings)
    markings[q.arrows[0].name] = np.zeros((group.n, group.n))
    x = AdditiveRep(q, group.n, markings)
    g = random_gauge(q, group, seed + 1)
    acted = act_additive(g, x)
    for name, (want, scale) in reference_action(g.values, x.markings, q).items():
        assert close(acted.markings[name], want, scale)


@PROPERTY
@given(quivers(), groups, seeds)
def test_moments_and_norm_match_loops(q, group, seed):
    f = random_representation(q, group, seed)
    n = group.n
    moments = {v: np.zeros((n, n), dtype=complex) for v in q.vertices}
    norm = 0.0
    for a in q.arrows:
        m = f.markings[a.name]
        moments[a.tail] = moments[a.tail] + m.conj().T @ m
        moments[a.head] = moments[a.head] - m @ m.conj().T
        norm += float(np.linalg.norm(m) ** 2)
    projected = {v: m - np.trace(m) / n * np.eye(n) for v, m in moments.items()}
    aggregate = float(np.sqrt(sum(np.linalg.norm(p) ** 2 for p in projected.values())))

    residual = kn_moment(f)
    assert list(residual.per_vertex) == list(q.vertices)
    for v in q.vertices:
        assert close(residual.per_vertex[v], moments[v], norm)
    assert abs(residual.aggregate - aggregate) <= REL * norm
    assert abs(orbit_norm(f) - norm) <= REL * norm


@PROPERTY
@given(quivers(max_vertices=40), st.sampled_from([GroupSpec("U", 2), GroupSpec("SU", 3)]), seeds, st.data())
def test_pushforward_matches_collapse_loop(q, group, seed, data):
    # unitary markings keep every product of unit norm, so one relative
    # tolerance holds however long the tree paths are
    f = random_representation(q, group, seed)
    for trace in traces(q, data):
        current, markings = stepwise(f, trace)
        pushed = pushforward_collapse(f, trace)
        assert pushed.quiver == current == trace.final
        assert list(pushed.markings) == list(markings)
        for name, want in markings.items():
            assert close(pushed.markings[name], want, group.n)


@PROPERTY
@given(quivers(), st.sampled_from([GroupSpec("U", 2), GroupSpec("SU", 3)]), seeds, st.data())
def test_pushforward_is_gauge_equivariant(q, group, seed, data):
    # pushforward(g . f) = induced_gauge(g) . pushforward(f) along the rose
    # trace and along a drawn collapse order
    f = random_representation(q, group, seed)
    g = random_gauge(q, group, seed + 1)
    for trace in traces(q, data):
        lhs = pushforward_collapse(gauge_act(g, f), trace)
        rhs = gauge_act(induced_gauge(g, trace), pushforward_collapse(f, trace))
        assert lhs.quiver == rhs.quiver == trace.final
        for name, want in rhs.markings.items():
            assert close(lhs.markings[name], want, group.n)



def deep_or_wide(shape: str, size: int, rng: np.random.Generator) -> tuple[Quiver, list[str]]:
    """A path or a star on ``size`` vertices with random arrow directions, plus a few extra arrows.

    Returns the quiver and its tree arrows.  The extras close long cycles
    (end to end on the path, leaf to leaf on the star) and add a loop.
    """
    vs = [f"v{i}" for i in range(size)]
    pairs = [(vs[i], vs[i + 1]) if shape == "path" else (vs[0], vs[i + 1]) for i in range(size - 1)]
    tree = [(f"t{i}", *(p if rng.integers(2) else p[::-1])) for i, p in enumerate(pairs)]
    ends = [(vs[-1], vs[0] if shape == "path" else vs[1])]
    ends += [(vs[int(rng.integers(size))], vs[int(rng.integers(size))]) for _ in range(4)]
    ends.append((vs[size // 2],) * 2)
    extras = [(f"x{i}", t, h) for i, (t, h) in enumerate(ends)]
    return Quiver(tuple(vs), tuple(tree + extras)), [name for name, _, _ in tree]


@pytest.mark.parametrize("shape", ["path", "star"])
def test_pushforward_on_deep_and_wide_forests(shape):
    # the gauge is filled one BFS level at a time: a path is one vertex per
    # level, a star one level of every leaf; unitary markings keep the long
    # products bounded
    group = GroupSpec("U", 3)
    rng = np.random.default_rng(31)
    q, tree = deep_or_wide(shape, 300, rng)
    f = random_representation(q, group, 32)
    _, _, rose = reduce_to_rose(q)
    current, rels, steps = q, RelationSet(), []
    for name in rng.permutation(tree)[:-10]:
        current, rels, step = collapse(current, rels, str(name))
        steps.append(step)
    for trace in (rose, ReductionTrace(q, tuple(steps), current, rels)):
        final, markings = stepwise(f, trace)
        pushed = pushforward_collapse(f, trace)
        assert pushed.quiver == final == trace.final
        for name, want in markings.items():
            assert close(pushed.markings[name], want, group.n)


def test_normal_form_on_a_deep_path():
    group = GroupSpec("U", 3)
    q, _ = deep_or_wide("path", 300, np.random.default_rng(33))
    f = random_representation(q, group, 34)
    _, normal = normal_form_tree_gauge(f)
    eye = np.eye(3)
    for name in fundamental_cycles(q)[1].tree_arrows:
        assert np.linalg.norm(normal.markings[name] - eye) <= 1e-9 * np.linalg.norm(eye)

@PROPERTY
@given(quivers(max_vertices=30), groups, seeds)
def test_views_follow_quiver_order_and_are_read_only(q, group, seed):
    f = random_representation(q, group, seed)
    g = random_gauge(q, group, seed)
    x = AdditiveRep(q, group.n, f.stack)
    for view, ids in ((f.markings, q.arrows), (x.markings, q.arrows), (g.values, q.vertices)):
        assert list(view) == [getattr(i, "name", i) for i in ids]
    assert f.stack.shape == (q.n_arrows, group.n, group.n)
    assert g.stack.shape == (q.n_vertices, group.n, group.n)
    for view in (f.markings, x.markings, g.values):
        key = next(iter(view))
        with pytest.raises(TypeError):
            view[key] = np.eye(group.n)
        with pytest.raises(ValueError):
            view[key][0, 0] = 2.0
    with pytest.raises(ValueError):
        f.stack[0, 0, 0] = 2.0


def test_stack_constructors_and_empty_quiver():
    q = Quiver(("p", "q"), ())
    group = GroupSpec("GL", 3)
    f = Representation(q, group, {})
    assert f.stack.shape == (0, 3, 3) and dict(f.markings) == {}
    assert kn_moment(f).aggregate == 0.0 and orbit_norm(f) == 0.0
    assert AdditiveRep(q, 2, {}).stack.shape == (0, 2, 2)
    assert gauge_act(random_gauge(q, group, 0), f).stack.shape == (0, 3, 3)

    two = Quiver(("v0", "v1"), (("b", "v1", "v0"), ("a", "v0", "v1")))
    stack = np.array([2.0 * np.eye(2), 3.0 * np.eye(2)])
    f = Representation(two, GroupSpec("GL", 2), stack)
    assert np.array_equal(f.markings["b"], stack[0]) and np.array_equal(f.markings["a"], stack[1])
    stack[0] = 0.0  # the representation keeps its own copy
    assert np.array_equal(f.markings["b"], 2.0 * np.eye(2))
    with pytest.raises(ValueError, match=r"expected a \(2, 2, 2\) stack"):
        Representation(two, GroupSpec("GL", 2), stack[:1])
    with pytest.raises(ValueError, match="marking at 'b' is not in GL"):
        Representation(two, GroupSpec("GL", 2), stack)
    for tol, shown in ((-1.0, "-1.0"), (float("nan"), "nan")):  # neither may skip the group test
        with pytest.raises(ValueError, match=f"^membership_tol must be non-negative, got {shown}$"):
            Representation(two, GroupSpec("GL", 2), stack, membership_tol=tol)
    with pytest.raises(ValueError, match="gauge value at 'v1'"):
        GaugeElement(two, GroupSpec("GL", 2), {"v0": np.eye(2), "v1": np.diag([1.0, 0.0])})
