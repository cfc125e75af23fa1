"""Additive embedding, degeneration witnesses, certificates, rescaling."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given

from quivergauge import (
    ALL_INVERTIBLE_ORBITS_CLOSED,
    ENDS_OBSTRUCT,
    INCONCLUSIVE,
    AdditiveRep,
    GaugeElement,
    GroupSpec,
    Quiver,
    Representation,
    act_additive,
    closed_orbit_certificate,
    directed_path,
    embed_additive,
    ends,
    is_strongly_connected,
    is_super_cyclic,
    monotone_weights_force_constant,
    random_gauge,
    random_representation,
    sink_source_witness,
    unimodular_rescale,
    word_endpoints,
)
from quivergauge import quiver
from conftest import (
    GL2,
    GL3,
    PROPERTY,
    SL2,
    SL3,
    bridge_two_cycles,
    long_path,
    one_arrow,
    one_loop,
    quivers,
    random_connected_quiver,
    random_quiver_with_ends,
    random_strongly_connected_quiver,
    two_cycle,
)


def test_embed_additive_and_roundtrip():
    f = random_representation(two_cycle(), GL3, 0)
    x = embed_additive(f)
    for m in x.markings.values():
        assert abs(np.linalg.det(m)) > 1e-9
    back = Representation(x.quiver, GL3, x.stack)
    for name in f.markings:
        assert np.array_equal(back.markings[name], f.markings[name])

    f_sl = random_representation(two_cycle(), SL3, 1)
    x_sl = embed_additive(f_sl)
    for m in x_sl.markings.values():
        assert abs(np.linalg.det(m) - 1.0) <= 1e-10

    singular = AdditiveRep(one_loop(), 2, {"l0": np.zeros((2, 2))})
    with pytest.raises(ValueError):
        Representation(singular.quiver, GL2, singular.stack)
    with pytest.raises(ValueError):
        embed_additive(random_representation(one_loop(), GroupSpec("U", 2), 0))


def test_all_invertible_additive_reps_are_in_the_image():
    # set-level density direction: invertible markings always lift back
    rng = np.random.default_rng(30)
    q = two_cycle()
    for _ in range(20):
        markings = {}
        for a in q.arrows:
            while True:
                m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                if abs(np.linalg.det(m)) > 1e-6:
                    break
            markings[a.name] = m
        x = AdditiveRep(q, 2, markings)
        lifted = Representation(q, GL2, x.stack)
        assert embed_additive(lifted).markings.keys() == x.markings.keys()
        for name in markings:
            assert np.array_equal(embed_additive(lifted).markings[name], x.markings[name])


def test_witness_one_arrow_sink():
    x = AdditiveRep(one_arrow(), 2, {"a0": np.eye(2)})
    w = sink_source_witness(x, "v1")
    assert w.direction == "sink"
    assert w.parameters == (1.0, 0.5, 0.125, 1.0 / 64.0)
    assert w.degenerated_arrows == ("a0",)
    assert np.array_equal(w.limit.markings["a0"], np.zeros((2, 2)))
    # sample at t is exactly the explicit one-parameter gauge applied to x
    for t, sample in zip(w.parameters, w.samples):
        gauge = GaugeElement(
            one_arrow(), GL2, {"v0": np.eye(2), "v1": t * np.eye(2)}, membership_tol=0.0
        )
        acted = act_additive(gauge, x)
        assert np.allclose(sample.markings["a0"], acted.markings["a0"], atol=1e-12)


def test_witness_star_sink_zeroes_all():
    star = Quiver(
        ("c", "x0", "x1", "x2"),
        (("s0", "x0", "c"), ("s1", "x1", "c"), ("s2", "x2", "c")),
    )
    f = random_representation(star, GL2, 3)
    w = sink_source_witness(embed_additive(f), "c")
    assert set(w.degenerated_arrows) == {"s0", "s1", "s2"}
    for name in ("s0", "s1", "s2"):
        assert np.array_equal(w.limit.markings[name], np.zeros((2, 2)))


def test_witness_source_uses_reciprocal_parameters():
    x = AdditiveRep(one_arrow(), 2, {"a0": np.eye(2)})
    w = sink_source_witness(x, "v0")
    assert w.direction == "source"
    assert w.parameters == (1.0, 2.0, 8.0, 64.0)
    assert np.array_equal(w.limit.markings["a0"], np.zeros((2, 2)))


def test_witness_errors():
    x = AdditiveRep(one_loop(), 2, {"l0": np.eye(2)})
    with pytest.raises(ValueError):
        sink_source_witness(x, "v0")  # internal vertex
    z = AdditiveRep(one_arrow(), 2, {"a0": np.zeros((2, 2))})
    with pytest.raises(ValueError):
        sink_source_witness(z, "v1")  # nothing left to degenerate


def test_zero_persistence_under_gauge():
    rng = np.random.default_rng(4)
    q = two_cycle()
    x = AdditiveRep(
        q, 2, {"a0": np.zeros((2, 2)), "a1": rng.standard_normal((2, 2))}
    )
    for _ in range(10):
        g = random_gauge(q, GL2, int(rng.integers(2**32)))
        acted = act_additive(g, x)
        assert np.array_equal(acted.markings["a0"], np.zeros((2, 2)))


def test_certificate_basic_cases():
    assert closed_orbit_certificate(one_loop()).verdict == ALL_INVERTIBLE_ORBITS_CLOSED
    cert = closed_orbit_certificate(long_path(3))
    assert cert.verdict == ENDS_OBSTRUCT
    assert set(cert.ends) == {"v0", "v3"}
    assert closed_orbit_certificate(bridge_two_cycles()).verdict == INCONCLUSIVE
    disconnected = Quiver(("v0", "v1"), (("l", "v0", "v0"),))
    with pytest.raises(ValueError):
        closed_orbit_certificate(disconnected)


def test_certificate_attaches_constructive_evidence():
    cert = closed_orbit_certificate(two_cycle())
    assert cert.verdict == ALL_INVERTIBLE_ORBITS_CLOSED
    assert cert.sample_alpha is not None
    assert cert.sample_violation is not None and not cert.sample_violation.ok
    assert cert.sample_violation.witness_cycle is not None


def test_certificate_coherence_randomized():
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = random_connected_quiver(rng)
        cert = closed_orbit_certificate(q)
        assert (cert.verdict == ENDS_OBSTRUCT) == (not is_super_cyclic(q))
        if cert.verdict == ALL_INVERTIBLE_ORBITS_CLOSED:
            assert is_strongly_connected(q)
        if cert.verdict == ENDS_OBSTRUCT:
            assert set(cert.ends) == set(ends(q))


@PROPERTY
@given(quivers(max_vertices=6).filter(lambda q: q.n_vertices >= 2 and is_strongly_connected(q)))
def test_certificate_searches_for_strong_connectivity_once(q):
    calls = []
    search = quiver.is_strongly_connected

    def counted(r):
        calls.append(r)
        return search(r)

    with mock.patch.object(quiver, "is_strongly_connected", counted):
        cert = closed_orbit_certificate(q)
    assert calls == [q]
    assert cert.sample_violation == monotone_weights_force_constant(q, dict(cert.sample_alpha))


def test_monotone_weights_constant_ok():
    q = two_cycle()
    assert monotone_weights_force_constant(q, {"v0": 0, "v1": 0}).ok


def test_monotone_weights_two_cycle_violation():
    q = two_cycle()
    report = monotone_weights_force_constant(q, {"v0": 0, "v1": 1})
    assert not report.ok
    # the chain of head >= tail inequalities around the 2-cycle forces 0 >= 1
    assert report.violating_arrow == "a1"
    cycle = report.witness_cycle
    assert cycle is not None
    assert "a1" in cycle.arrow_names()
    ends_ = word_endpoints(q, cycle)
    assert ends_ is not None and ends_[0] == ends_[1]


def test_monotone_weights_requires_strong_connectivity():
    with pytest.raises(ValueError):
        monotone_weights_force_constant(one_arrow(), {"v0": 0, "v1": 0})
    with pytest.raises(ValueError):
        monotone_weights_force_constant(two_cycle(), {"v0": 0})


def test_monotone_weights_randomized():
    rng = np.random.default_rng(6)
    for _ in range(200):
        q = random_strongly_connected_quiver(rng)
        alpha = {v: int(rng.integers(-3, 4)) for v in q.vertices}
        report = monotone_weights_force_constant(q, alpha)
        constant = len({alpha[v] for v in q.vertices}) <= 1
        assert report.ok == constant
        if not constant:
            a = q.arrow(report.violating_arrow)
            assert alpha[a.head] < alpha[a.tail]
            cycle = report.witness_cycle
            ends_ = word_endpoints(q, cycle)
            assert ends_ is not None and ends_[0] == ends_[1]
            assert all(e == 1 for _, e in cycle.letters)
            assert report.violating_arrow in cycle.arrow_names()


def test_directed_path():
    q = bridge_two_cycles()
    assert directed_path(q, "u0", "w1") == ["br", "d0"]
    assert directed_path(q, "w0", "u0") is None
    assert directed_path(q, "u1", "u1") == []


def test_unimodular_rescale_loop_scalar_gauge():
    q = one_loop()
    x = AdditiveRep(q, 2, {"l0": np.array([[1.0, 1.0], [0.0, 1.0]])})
    g = GaugeElement(q, GL2, {"v0": 2.0 * np.eye(2)})
    out = unimodular_rescale(g, x, x, tol=1e-9)
    assert np.allclose(out.values["v0"], np.eye(2), atol=1e-12)
    acted = act_additive(out, x)
    assert np.allclose(acted.markings["l0"], x.markings["l0"], atol=1e-12)


def test_unimodular_rescale_two_cycle_example():
    q = two_cycle()
    f = random_representation(q, SL2, 7)
    x = embed_additive(f)
    g = GaugeElement(
        q,
        GL2,
        {"v0": 2.0 * np.eye(2), "v1": np.array([[0.0, 2.0], [-2.0, 0.0]])},
    )
    x_prime = act_additive(g, x)
    out = unimodular_rescale(g, x, x_prime, tol=1e-9)
    assert np.allclose(out.values["v1"], np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-11)
    assert np.allclose(out.values["v0"], np.eye(2), atol=1e-11)
    for v in q.vertices:
        assert abs(np.linalg.det(out.values[v]) - 1.0) <= 1e-11
    acted = act_additive(out, x)
    for name in x_prime.markings:
        assert np.linalg.norm(acted.markings[name] - x_prime.markings[name]) <= 1e-10


def test_unimodular_rescale_determinant_disagreement():
    # determinants can only disagree while preserving unimodularity across
    # disconnected components (loops see gauges by conjugation)
    q = Quiver(("v0", "v1"), (("l0", "v0", "v0"), ("l1", "v1", "v1")))
    f = random_representation(q, SL2, 8)
    x = embed_additive(f)
    g = GaugeElement(q, GL2, {"v0": np.eye(2), "v1": 2.0 * np.eye(2)})
    x_prime = act_additive(g, x)
    with pytest.raises(ValueError, match="determinants disagree"):
        unimodular_rescale(g, x, x_prime, tol=1e-9)


def test_unimodular_rescale_action_mismatch():
    q = one_loop()
    f = random_representation(q, SL2, 9)
    x = embed_additive(f)
    g = GaugeElement(q, GL2, {"v0": 2.0 * np.eye(2)})
    other = random_representation(q, SL2, 10)
    with pytest.raises(ValueError, match="does not carry"):
        unimodular_rescale(g, x, embed_additive(other), tol=1e-9)


def test_unimodular_rescale_rejects_non_unimodular():
    q = one_loop()
    x = AdditiveRep(q, 2, {"l0": np.diag([2.0, 1.0])})
    g = GaugeElement(q, GL2, {"v0": np.eye(2)})
    with pytest.raises(ValueError, match="unimodular"):
        unimodular_rescale(g, x, x, tol=1e-9)


def test_witnesses_on_random_quivers_with_ends():
    rng = np.random.default_rng(11)
    for _ in range(20):
        q = random_quiver_with_ends(rng)
        f = random_representation(q, GL2, int(rng.integers(2**32)))
        x = embed_additive(f)
        for v in ends(q):
            w = sink_source_witness(x, v)
            for name in w.degenerated_arrows:
                assert np.array_equal(w.limit.markings[name], np.zeros((2, 2)))
                # the input marking there was nonzero, so the limit cannot be
                # in the orbit: zero markings persist under every gauge
                assert np.linalg.norm(x.markings[name]) > 0
            for a in q.arrows:
                if a.name not in w.degenerated_arrows:
                    assert np.array_equal(w.limit.markings[a.name], x.markings[a.name])


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_unimodular_rescale_rejects_nan_or_negative_tol(tol):
    # at the NaN tolerance every "> tol" test is false, so a non-unimodular x passed
    q = one_loop()
    x = AdditiveRep(q, 2, {"l0": 3.0 * np.eye(2)})
    g = GaugeElement(q, GL2, {"v0": 2.0 * np.eye(2)})
    with pytest.raises(ValueError, match="tol must be non-negative"):
        unimodular_rescale(g, x, x, tol=tol)
