"""Polar retraction endpoints/equivariance and the Kempf-Ness residual/flow."""

import numpy as np
import pytest

import quivergauge.matrices as mg
from quivergauge import (
    GaugeElement,
    GroupSpec,
    Quiver,
    Representation,
    action_pairing,
    gauge_act,
    kn_flow,
    kn_moment,
    orbit_norm,
    pinch,
    polar_retract,
    random_gauge,
    random_representation,
    retract_representation,
    standard_word_menu,
    trace_invariants,
)
from conftest import (
    GL2,
    GL3,
    SL3,
    SU2,
    U2,
    one_arrow,
    one_loop,
    random_connected_quiver,
    theta,
)


def jordan_loop_rep():
    return Representation(
        one_loop(), GL2, {"l0": np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)}
    )


def test_polar_retract_example():
    got = polar_retract(np.diag([4.0, 1.0]), 0.5)
    assert np.allclose(got, np.diag([2.0, 1.0]), atol=1e-12)


def test_polar_retract_endpoints():
    g = mg.random_element(GL3, 1)
    assert np.array_equal(polar_retract(g, 0.0), g)  # exact identity at t=0
    k1 = polar_retract(g, 1.0)
    assert mg.in_group_rows(k1[None], GroupSpec("U", 3), 1e-8)[0]
    u = mg.random_element(U2, 2)
    for t in (0.0, 0.3, 1.0):
        assert np.linalg.norm(polar_retract(u, t) - u) <= 1e-12


def test_polar_retract_errors():
    with pytest.raises(ValueError):
        polar_retract(np.eye(2), 1.5)
    with pytest.raises(ValueError):
        polar_retract(np.eye(2), -0.1)
    with pytest.raises(ValueError):
        polar_retract(np.diag([1.0, 0.0]), 0.5)


def test_polar_retract_is_scale_independent():
    small = 1e-4 * np.eye(3)
    assert np.linalg.norm(polar_retract(small, 1.0) - np.eye(3)) <= 1e-12
    assert np.linalg.norm(polar_retract(small, 0.5) - 1e-2 * np.eye(3)) <= 1e-14
    with pytest.raises(ValueError, match="invertible"):
        polar_retract(np.diag([1e6, 1e-12, 1e6]), 0.5)
    # a stack retracts matrix by matrix
    stack = np.array([mg.random_element(GL3, s) for s in range(4)])
    batched = polar_retract(stack, 0.3)
    for g, got in zip(stack, batched):
        assert np.linalg.norm(got - polar_retract(g, 0.3)) <= 1e-12


@pytest.mark.parametrize("s", [1e-4, 1e-6, 1e-8, 2e-9])
def test_polar_form_near_singular_at_any_scale(s):
    # g = U diag(1, 0.5, s) V* passes the GL test down to s = 2e-9, so the
    # polar form must hold there too, at every scale; forming g* g would
    # square the condition number
    u3 = GroupSpec("U", 3)
    for seed in range(5):
        u, v = mg.random_element(u3, 2 * seed), mg.random_element(u3, 2 * seed + 1)
        g = (u * np.array([1.0, 0.5, s])) @ v.conj().T
        for c in (1e-6, 1.0, 1e4, 1e6):
            assert np.linalg.norm(polar_retract(c * g, 1.0) - u @ v.conj().T) <= 1e-6
            for t in (0.25, 0.5, 0.75):
                expected = c ** (1.0 - t) * polar_retract(g, t)
                assert np.linalg.norm(polar_retract(c * g, t) - expected) <= 1e-8 * np.linalg.norm(expected)
            # k e^(p/2) k* k e^(p/2) = k e^p: the t = 1/2 and t = 1 points reconstruct c g
            half = polar_retract(c * g, 0.5)
            reconstructed = half @ polar_retract(c * g, 1.0).conj().T @ half
            assert np.linalg.norm(reconstructed - c * g) <= 1e-12 * np.linalg.norm(c * g)


def test_retract_representation_unitary_at_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = random_connected_quiver(rng)
        f = random_representation(q, GL3, int(rng.integers(2**32)))
        r1 = retract_representation(f, 1.0)
        for m in r1.markings.values():
            assert np.linalg.norm(m @ m.conj().T - np.eye(3)) <= 1e-8


def test_retract_representation_sl_preserved():
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = random_connected_quiver(rng)
        f = random_representation(q, SL3, int(rng.integers(2**32)))
        for t in (0.3, 1.0):
            rt = retract_representation(f, t)
            for m in rt.markings.values():
                assert abs(np.linalg.det(m) - 1.0) <= 1e-10


def test_retract_fixes_unitary_valued():
    rng = np.random.default_rng(3)
    q = theta()
    f = random_representation(q, GroupSpec("GL", 2), 7)
    unitary = retract_representation(f, 1.0)
    for t in (0.2, 0.9):
        again = retract_representation(unitary, t)
        for name in unitary.markings:
            assert np.linalg.norm(again.markings[name] - unitary.markings[name]) <= 1e-12


def test_retract_compact_family_warns_and_returns_same():
    f = random_representation(one_loop(), SU2, 4)
    with pytest.warns(UserWarning):
        out = retract_representation(f, 0.7)
    assert out is f


def test_retract_semigroup_law():
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = mg.random_element(GL3, int(rng.integers(2**32)))
        s, t = rng.uniform(0, 1, size=2)
        lhs = polar_retract(polar_retract(g, s), t)
        rhs = polar_retract(g, t + s - t * s)
        assert np.linalg.norm(lhs - rhs) <= 1e-9


def hermitian_power(h, t: float) -> np.ndarray:
    """h^t for a Hermitian positive-definite h, from numpy's eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * vals**t) @ vecs.conj().T


def test_scalar_power_identity():
    rng = np.random.default_rng(6)
    for _ in range(30):
        h = mg.random_element(GroupSpec("U", 3), int(rng.integers(2**32)))
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p = 0.5 * (z + z.conj().T)
        t = float(rng.uniform(0, 1))
        lhs = h @ mg.hermitian_exp(t * p) @ h.conj().T
        rhs = hermitian_power(h @ mg.hermitian_exp(p) @ h.conj().T, t)
        assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_retract_unitary_equivariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = random_connected_quiver(rng)
        f = random_representation(q, GL3, int(rng.integers(2**32)))
        k = random_gauge(q, GroupSpec("U", 3), int(rng.integers(2**32)))
        ku = GaugeElement(q, GL3, dict(k.values))
        t = float(rng.uniform(0, 1))
        lhs = retract_representation(gauge_act(ku, f), t)
        rhs = gauge_act(ku, retract_representation(f, t))
        for name in lhs.markings:
            assert np.linalg.norm(lhs.markings[name] - rhs.markings[name]) <= 1e-9


def test_retract_equivariance_pinched_diagonal():
    # two loops on separate vertices; pinching identifies the vertices, and
    # the pinched gauge group embeds diagonally in the unpinched one
    q2 = Quiver(("p0", "p1"), (("l0", "p0", "p0"), ("l1", "p1", "p1")))
    q1, _ = pinch(q2, "p0", "p1")
    rng = np.random.default_rng(8)
    for _ in range(50):
        f2 = random_representation(q2, GL3, int(rng.integers(2**32)))
        k = mg.random_element(GroupSpec("U", 3), int(rng.integers(2**32)))
        diag = GaugeElement(q2, GL3, {"p0": k, "p1": k})
        t = float(rng.uniform(0, 1))
        lhs = retract_representation(gauge_act(diag, f2), t)
        rhs = gauge_act(diag, retract_representation(f2, t))
        for name in lhs.markings:
            assert np.linalg.norm(lhs.markings[name] - rhs.markings[name]) <= 1e-9
        # the same markings viewed on the pinched quiver transform identically
        f1 = Representation(q1, GL3, dict(f2.markings))
        k1 = GaugeElement(q1, GL3, {"p0": k})
        lhs1 = retract_representation(gauge_act(k1, f1), t)
        rhs1 = gauge_act(k1, retract_representation(f1, t))
        for name in lhs1.markings:
            assert np.linalg.norm(lhs1.markings[name] - rhs1.markings[name]) <= 1e-9
            assert np.linalg.norm(lhs1.markings[name] - lhs.markings[name]) <= 1e-9


def test_kn_moment_jordan_example():
    res = kn_moment(jordan_loop_rep())
    assert np.allclose(res.per_vertex["v0"], np.diag([-1.0, 1.0]), atol=1e-14)
    assert res.aggregate == pytest.approx(np.sqrt(2.0), abs=1e-13)


def test_kn_moment_unitary_valued_vanishes():
    rng = np.random.default_rng(9)
    for _ in range(50):
        q = random_connected_quiver(rng)
        f = random_representation(q, GroupSpec("U", 3), int(rng.integers(2**32)))
        assert kn_moment(f).aggregate <= 1e-12
        fg = Representation(q, GL3, dict(f.markings))
        assert kn_moment(fg).aggregate <= 1e-12


def test_kn_moment_normal_loop_marking():
    f = Representation(one_loop(), GL2, {"l0": np.diag([2.0, 1.0]).astype(complex)})
    assert kn_moment(f).aggregate == 0.0


def test_orbit_norm_examples():
    f = Representation(one_loop(), GL2, {"l0": np.eye(2, dtype=complex)})
    assert orbit_norm(f) == pytest.approx(2.0)
    assert orbit_norm(jordan_loop_rep()) == pytest.approx(3.0)


def test_orbit_norm_unitary_invariance():
    rng = np.random.default_rng(10)
    for _ in range(30):
        q = random_connected_quiver(rng)
        f = random_representation(q, GL3, int(rng.integers(2**32)))
        k = random_gauge(q, GroupSpec("U", 3), int(rng.integers(2**32)))
        ku = GaugeElement(q, GL3, dict(k.values))
        assert abs(orbit_norm(gauge_act(ku, f)) - orbit_norm(f)) <= 1e-10


def test_pairing_matches_moment_contraction():
    rng = np.random.default_rng(11)
    for _ in range(30):
        q = random_connected_quiver(rng)
        f = random_representation(q, GL3, int(rng.integers(2**32)))
        u = {}
        for v in q.vertices:
            z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            u[v] = z
        res = kn_moment(f)
        contraction = sum(np.trace(u[v] @ m) for v, m in res.per_vertex.items())
        assert abs(action_pairing(u, f) - contraction) <= 1e-10


def test_pairing_matches_finite_difference():
    rng = np.random.default_rng(12)
    for _ in range(20):
        q = random_connected_quiver(rng)
        f = random_representation(q, GL3, int(rng.integers(2**32)))
        u = {}
        for v in q.vertices:
            z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            u[v] = 0.5 * (z + z.conj().T)
        pairing = action_pairing(u, f)
        assert abs(pairing.imag) <= 1e-10  # Hermitian directions pair real
        h = 1e-5

        def norm_at(s: float) -> float:
            vals = {v: mg.hermitian_exp(-s * u[v]) for v in q.vertices}
            g = GaugeElement(q, GL3, vals, membership_tol=0.0)
            return orbit_norm(gauge_act(g, f))

        fd = (norm_at(h) - norm_at(-h)) / (2 * h)
        assert abs(fd - 2 * pairing.real) <= 1e-6 * max(1.0, abs(fd))


def test_infinitesimal_action_formula():
    # per arrow the action is m u(tail) - u(head) m; every theta arrow runs v0 -> v1
    rng = np.random.default_rng(14)
    f = random_representation(theta(), GL2, 3)
    u = {v: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for v in f.quiver.vertices}
    expected = sum(np.vdot(m, m @ u["v0"] - u["v1"] @ m) for m in f.markings.values())
    assert abs(action_pairing(u, f) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_kn_flow_unitary_converges_immediately():
    unitary = random_representation(theta(), GroupSpec("U", 3), 13)
    f = Representation(theta(), GL3, dict(unitary.markings))
    report = kn_flow(f, step0=0.1, max_iter=100, tol=1e-8)
    assert report.converged and report.iterations == 0
    for name in f.markings:
        assert np.array_equal(report.final.markings[name], f.markings[name])


def test_kn_flow_normal_loop_no_iterations():
    f = Representation(one_loop(), GL2, {"l0": np.diag([2.0, 1.0]).astype(complex)})
    report = kn_flow(f, step0=0.1, max_iter=100, tol=1e-8)
    assert report.converged and report.iterations == 0


def test_kn_flow_jordan_descends_to_semisimplification():
    f = jordan_loop_rep()
    report = kn_flow(f, step0=0.25, max_iter=10_000, tol=1e-4)
    assert report.converged
    assert report.residual_history[-1] <= 1e-4
    norms = report.norm_history
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    assert abs(np.trace(report.final.markings["l0"]) - 2.0) <= 1e-8
    # markings approach the identity: the closed orbit in the closure
    assert np.linalg.norm(report.final.markings["l0"] - np.eye(2)) <= 0.05


def test_kn_flow_preserves_word_menu_traces():
    rng = np.random.default_rng(14)
    for _ in range(5):
        q = random_connected_quiver(rng)
        menu = standard_word_menu(q)
        if not menu:
            continue
        f = random_representation(q, GL3, int(rng.integers(2**32)))
        before = trace_invariants(f, menu)
        report = kn_flow(f, step0=0.1, max_iter=200, tol=1e-10)
        after = trace_invariants(report.final, menu)
        assert max(abs(a - b) for a, b in zip(before, after)) <= 1e-8


def test_kn_flow_descent_direction_sign():
    # one accepted step from the Jordan block must decrease the norm
    report = kn_flow(jordan_loop_rep(), step0=0.05, max_iter=1, tol=1e-12)
    assert report.iterations == 1
    assert report.norm_history[1] < report.norm_history[0]


def test_kn_flow_validation():
    f = random_representation(one_loop(), SU2, 0)
    with pytest.raises(ValueError):
        kn_flow(f)
    g = jordan_loop_rep()
    with pytest.raises(ValueError):
        kn_flow(g, step0=0.0)
    with pytest.raises(ValueError):
        kn_flow(g, max_iter=-1)
    with pytest.raises(ValueError, match="^max_iter must be a non-negative integer, got 2.5$"):
        kn_flow(g, max_iter=2.5)  # would run 3 steps


def test_kn_flow_one_arrow_balances_singular_values():
    # trace-free directions cannot shrink the overall scale; the flow levels
    # the singular values instead and stops at a scalar-times-unitary marking
    f = Representation(one_arrow(), GL2, {"a0": np.diag([2.0, 1.0]).astype(complex)})
    report = kn_flow(f, step0=0.25, max_iter=500, tol=1e-6)
    assert report.converged
    assert report.norm_history[-1] < orbit_norm(f)
    m = report.final.markings["a0"]
    gram = m.conj().T @ m
    scalar = np.trace(gram) / 2.0
    assert np.linalg.norm(gram - scalar * np.eye(2)) <= 1e-5


@pytest.mark.parametrize(
    "kwargs", [{"step0": float("nan")}, {"step0": float("inf")}, {"tol": float("nan")}, {"tol": -1.0}]
)
def test_kn_flow_rejects_non_finite_step_and_nan_tol(kwargs):
    with pytest.raises(ValueError, match="step0|tol"):
        kn_flow(jordan_loop_rep(), **kwargs)


def test_kn_flow_refuses_steps_that_leave_gl():
    # markings of size 1e4 meet the absolute step0 with moments of size 1e9;
    # an accepted step must keep every marking invertible, and the trace-free
    # gauge must leave every |det| unchanged
    q = theta()
    sample = random_representation(q, GL3, 0)
    f = Representation(q, GL3, 1e4 * sample.stack)
    report = kn_flow(f, max_iter=3)
    before = np.abs(np.linalg.det(f.stack))
    after = np.abs(np.linalg.det(report.final.stack))
    assert np.all(np.abs(after / before - 1.0) <= 1e-8)
    assert all(b <= a for a, b in zip(report.norm_history, report.norm_history[1:]))
    assert report.norm_history[-1] > 1e9
    assert not report.converged
    assert mg.in_group_rows(report.final.stack, GL3).all()
