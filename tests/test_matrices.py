"""Matrix group numerics: membership, sampling, the Hermitian exponential, polar factors."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quivergauge.matrices as mg
from quivergauge import (
    AdditiveRep,
    GroupSpec,
    Quiver,
    Representation,
    polar_retract,
    random_gauge,
    random_representation,
    sink_source_witness,
)
from quivergauge.quiver import GROUP_FAMILIES
from conftest import one_arrow, one_loop

GL3 = GroupSpec("GL", 3)
SL3 = GroupSpec("SL", 3)
U2 = GroupSpec("U", 2)
SU2 = GroupSpec("SU", 2)


def in_group(m, group: GroupSpec, tol: float = mg.TOL_MEMBERSHIP) -> bool:
    """Membership of one matrix, through the stack test."""
    return bool(mg.in_group_rows(np.asarray(m, dtype=complex)[None], group, tol)[0])


def hermitian_function(h, f):
    """f(h) for a Hermitian matrix, from numpy's eigendecomposition: the oracle for ``hermitian_exp``."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * f(vals)) @ vecs.conj().T


def test_in_group():
    for g in (GL3, SL3, GroupSpec("U", 3), GroupSpec("SU", 3)):
        assert in_group(np.eye(3), g, 1e-10)
    assert not in_group(np.diag([2.0, 1.0]), GroupSpec("SL", 2), 1e-10)
    theta = 0.7
    d = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    assert in_group(d, SU2, 1e-10)
    assert not in_group(np.diag([2.0, 1.0]), U2, 1e-10)
    assert in_group(np.diag([2.0, 1.0]), GroupSpec("GL", 2), 1e-10)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        in_group(np.eye(2), U2, -1.0)
    # a marking of the wrong size or with a NaN is refused before any membership test
    with pytest.raises(ValueError, match="expected size 2"):
        Representation(one_loop(), U2, {"l0": np.eye(3)})
    with pytest.raises(ValueError, match="non-finite"):
        Representation(one_loop(), U2, {"l0": np.array([[np.nan, 0], [0, 1]])})


def test_in_group_rows_refuses_a_wrong_size_or_a_non_finite_entry():
    # a 3x3 identity used to pass as GL(2) and SL(2), to fail in numpy's
    # broadcasting for U(2), and a NaN to end in an SVD that did not converge
    for family in ("GL", "SL", "U", "SU"):
        with pytest.raises(ValueError, match="expected size 2, got 3"):
            mg.in_group_rows(np.eye(3)[None], GroupSpec(family, 2))
        with pytest.raises(ValueError, match="non-finite"):
            mg.in_group_rows(np.array([[[np.nan, 0], [0, 1]]]), GroupSpec(family, 2))
    assert mg.in_group_rows(np.eye(2)[None], GroupSpec("GL", 2)).tolist() == [True]


def test_random_element_membership_and_determinism():
    for g, tol in ((U2, 1e-10), (GroupSpec("U", 5), 1e-10), (SU2, 1e-10)):
        m = mg.random_element(g, 42)
        assert in_group(m, g, tol)
    assert abs(np.linalg.det(mg.random_element(SL3, 7)) - 1) <= 1e-10
    assert abs(np.linalg.det(mg.random_element(GroupSpec("SU", 3), 7)) - 1) <= 1e-10
    m = mg.random_element(GL3, 3)
    assert in_group(m, GL3, 1e-9)
    t = mg.random_element(GroupSpec("TORUS", 1), 3)
    assert t.shape == (1, 1) and abs(t[0, 0]) > 1e-9
    # bit-identical for equal seeds, different otherwise
    assert np.array_equal(mg.random_element(GL3, 11), mg.random_element(GL3, 11))
    assert not np.array_equal(mg.random_element(GL3, 11), mg.random_element(GL3, 12))


def test_random_element_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        mg.random_element(GL3, -1)
    for seed in (1.5, None, "1"):
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed!r}$"):
            mg.random_element(GL3, seed)


def test_random_element_closure():
    rng = np.random.default_rng(1)
    for g in (GL3, SL3, U2, SU2):
        for _ in range(10):
            a = mg.random_element(g, int(rng.integers(2**32)))
            b = mg.random_element(g, int(rng.integers(2**32)))
            assert in_group(a @ b, g, 1e-8)
            assert in_group(np.linalg.inv(a), g, 1e-8)


# First rows of the U(3) and SU(3) samples at seeds 0..4.  GL and SL draw
# their unitary factor k from the same first Ginibre draw and only then draw
# p, so these values do not depend on how the non-compact groups are sampled.
PINNED_FIRST_ROWS = {
    "U": [
        [0.041294101632-0.415607658827j, 0.042473904373-0.237428659450j, 0.873161394195+0.070553879423j],
        [0.196485960310+0.167232493242j, 0.795098544037+0.080470761795j, -0.058825054818+0.539730428360j],
        [0.073998799159-0.216775941554j, -0.519717055373+0.435155688615j, -0.566905208378-0.408270207853j],
        [0.458174109558+0.745993473551j, -0.433234901945+0.007966299422j, 0.207915485028-0.050847139998j],
        [-0.256017707490+0.094965820579j, -0.424113507470+0.394397511460j, 0.484330960466+0.596186449731j],
    ],
    "SU": [
        [0.249023787117-0.335294023739j, 0.158461060749-0.181841945401j, 0.712755300415+0.509282389195j],
        [0.185604347388+0.179232992570j, 0.788481681790+0.130207049403j, -0.092578866514+0.534975210497j],
        [-0.049039399554-0.223747108149j, -0.219011653540+0.641482803038j, -0.696415252834-0.055424484913j],
        [-0.109802505304+0.868546594650j, -0.342801332009-0.265034316575j, 0.193956622383+0.090526842395j],
        [-0.128993714672+0.240674458973j, -0.056723278929+0.576371524185j, 0.757696536422+0.126137705715j],
    ],
}


def test_compact_samples_match_pinned_values():
    for family, rows in PINNED_FIRST_ROWS.items():
        for seed, row in enumerate(rows):
            m = mg.random_element(GroupSpec(family, 3), seed)
            assert np.abs(m[0] - np.array(row)).max() <= 1e-11, (family, seed)


def test_gl_sample_has_unitary_and_hermitian_polar_factors():
    for seed in range(5):
        g = mg.random_element(GL3, seed)
        k = polar_retract(g, 1.0)
        assert np.linalg.norm(k @ k.conj().T - np.eye(3)) <= 1e-12
        # e^p = k* g is Hermitian positive definite
        h = k.conj().T @ g
        assert np.linalg.norm(h - h.conj().T) <= 1e-12 * np.linalg.norm(g)
        assert np.linalg.eigvalsh(h).min() > 0


def test_sl_samples_have_unit_determinant():
    for n in (2, 3):
        for seed in range(50):
            assert abs(np.linalg.det(mg.random_element(GroupSpec("SL", n), seed)) - 1) <= 1e-12, (n, seed)


def test_samples_repeat_for_the_same_seed():
    for family, n in (("GL", 1), ("GL", 3), ("SL", 2), ("U", 3), ("SU", 2), ("TORUS", 1)):
        group = GroupSpec(family, n)
        assert mg.random_element(group, 9).tobytes() == mg.random_element(group, 9).tobytes()


def test_batched_samples_equal_single_samples_bit_for_bit():
    seeds = np.random.default_rng(0).integers(2**62, size=50).tolist()
    for family in GROUP_FAMILIES:
        for n in (1,) if family == "TORUS" else (1, 2, 3):
            group = GroupSpec(family, n)
            single = np.stack([mg.random_element(group, s) for s in seeds])
            assert mg._random_elements(group, seeds).tobytes() == single.tobytes(), (family, n)
            assert mg._random_elements(group, []).shape == (0, n, n)


def test_sampling_a_quiver_without_arrows():
    q = Quiver(("v0", "v1"), ())
    for family, n in (("GL", 2), ("SU", 3), ("TORUS", 1)):
        group = GroupSpec(family, n)
        assert dict(random_representation(q, group, 4).markings) == {}
        g = random_gauge(q, group, 4)
        assert list(g.values) == ["v0", "v1"] and g.stack.shape == (2, n, n)


def test_package_import_loads_no_scipy():
    src = Path(mg.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = (
        "import sys, quivergauge.cli, quivergauge.additive, quivergauge.kempfness; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# The polar form g = k e^p is read from the retraction path k e^((1-t) p):
# k at t = 1, and g = half k* half with half = k e^(p/2) at t = 1/2.


def test_polar_decompose_diagonal():
    assert np.allclose(polar_retract(np.diag([4.0, 1.0]), 1.0), np.eye(2), atol=1e-12)
    assert np.allclose(polar_retract(np.diag([4.0, 1.0]), 0.5), np.diag([2.0, 1.0]), atol=1e-12)


def test_polar_decompose_unitary_input():
    u = mg.random_element(U2, 5)
    for t in (0.5, 1.0):
        assert np.allclose(polar_retract(u, t), u, atol=1e-10)


def test_polar_reconstruction_and_uniqueness():
    rng = np.random.default_rng(2)
    for _ in range(100):
        g = mg.random_element(GL3, int(rng.integers(2**32)))
        k, half = polar_retract(g, 1.0), polar_retract(g, 0.5)
        assert in_group(k, GroupSpec("U", 3), 1e-9)
        assert np.linalg.norm(half @ k.conj().T @ half - g) <= 1e-10
        # uniqueness: k e^p for any Hermitian p has unitary factor k and half-way point k e^(p/2)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p = 0.25 * (z + z.conj().T)
        g2 = k @ mg.hermitian_exp(p)
        assert np.linalg.norm(polar_retract(g2, 1.0) - k) <= 1e-9
        assert np.linalg.norm(polar_retract(g2, 0.5) - k @ mg.hermitian_exp(0.5 * p)) <= 1e-9


def test_polar_decompose_singular():
    with pytest.raises(ValueError, match="retraction needs an invertible matrix"):
        polar_retract(np.diag([1.0, 0.0]), 1.0)


def test_gl_membership_is_relative():
    # invertibility is sigma_min > tol * sigma_max: small but well-conditioned
    # matrices are members, large but numerically singular ones are not
    small = 1e-4 * np.eye(3)
    skewed = np.diag([1e6, 1e-12, 1e6])
    assert in_group(small, GL3)
    assert not in_group(skewed, GL3)
    assert in_group(np.array([[1e-12]]), GroupSpec("TORUS", 1))
    assert not in_group(np.zeros((1, 1)), GroupSpec("TORUS", 1))
    stack = np.array([small, skewed, np.eye(3)])
    assert mg.in_group_rows(stack, GL3).tolist() == [True, False, True]
    assert np.linalg.norm(polar_retract(small, 1.0) - np.eye(3)) <= 1e-12
    assert np.linalg.norm(polar_retract(small, 0.5) - 1e-2 * np.eye(3)) <= 1e-14
    with pytest.raises(ValueError, match="invertible"):
        polar_retract(skewed, 1.0)


@pytest.mark.filterwarnings("error")
def test_gl_membership_matches_the_singular_value_test():
    # the determinant bound clears most rows without an SVD; the verdict must
    # stay that of sigma_min > tol * sigma_max, at any scale and near tol
    rng = np.random.default_rng(7)
    u = np.linalg.qr(rng.standard_normal((400, 3, 3)) + 1j * rng.standard_normal((400, 3, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((400, 3, 3)) + 1j * rng.standard_normal((400, 3, 3)))[0]
    ratios = np.geomspace(1e-11, 1e-7, 400)
    sv = np.stack([np.ones(400), rng.uniform(ratios, 1.0), ratios], axis=1)
    stack = (u * sv[:, None, :]) @ v
    stack[0] = 0.0
    for scale in (1e-200, 1e-5, 1.0, 1e150, 1e200):
        scaled = scale * stack
        expected = mg._invertible(np.linalg.svd(scaled, compute_uv=False), mg.TOL_MEMBERSHIP)
        assert mg.in_group_rows(scaled, GL3).tolist() == expected.tolist()
    assert 100 < expected.sum() < 300


def test_hermitian_functions_batch_over_stacks():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    h = z @ z.conj().transpose(0, 2, 1) + np.eye(3)
    batched = mg.hermitian_exp(h)
    for i in range(len(h)):
        single = mg.hermitian_exp(h[i])
        assert np.linalg.norm(batched[i] - single) <= 1e-12 * np.linalg.norm(single)
    h[2, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        mg.hermitian_exp(h)
    with pytest.raises(ValueError, match="Hermitian"):
        mg.hermitian_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_exp_log_roundtrip():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = 0.5 * (z + z.conj().T)
    e = mg.hermitian_exp(h)
    assert np.linalg.norm(hermitian_function(e, np.log) - h) <= 1e-10
    assert np.linalg.norm(e - hermitian_function(h, np.exp)) <= 1e-12 * np.linalg.norm(e)


def _refusal(fn, *args):
    """The ValueError message of fn(*args), or None when it is accepted."""
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _verdicts(c: float) -> dict:
    """What each validity test says of c times a fixed set of inputs."""
    u3 = GroupSpec("U", 3)
    g = (mg.random_element(u3, 0) * np.array([1.0, 0.5, 1e-6])) @ mg.random_element(u3, 1).conj().T
    singular = np.diag([1.0, 1e-12, 1.0])
    rng = np.random.default_rng(8)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    negative = -(z @ z.conj().T) - np.eye(3)  # exp underflows rather than overflows at c = 1e8
    unit = np.zeros((3, 3))
    unit[0, 1] = np.linalg.norm(negative)
    k, half = polar_retract(c * g, 1.0), polar_retract(c * g, 0.5)
    return {
        "GL": mg.in_group_rows(c * np.array([g, singular]), GroupSpec("GL", 3)).tolist(),
        "Hermitian": [_refusal(mg.hermitian_exp, c * (negative + e * unit)) for e in (1e-12, 1e-3)],
        "polar": [
            in_group(k, u3, 1e-6),
            bool(np.linalg.norm(half @ k.conj().T @ half - c * g) <= 1e-12 * np.linalg.norm(c * g)),
            _refusal(polar_retract, c * singular, 0.5),
            _refusal(polar_retract, c * singular, 1.0),
        ],
        "witness": [
            _refusal(sink_source_witness, AdditiveRep(one_arrow(), 2, {"a0": c * m}), "v1")
            for m in (np.array([[1.0, 2.0], [0.0, 0.5]]), np.zeros((2, 2)))
        ],
    }


@pytest.mark.parametrize("c", [1e-9, 1e-6, 1.0, 1e4, 1e8])
def test_validity_verdicts_do_not_depend_on_scale(c):
    assert _verdicts(c) == {
        "GL": [True, False],
        "Hermitian": [None, "matrix is not Hermitian within tolerance"],
        "polar": [
            True,
            True,
            "retraction needs an invertible matrix",
            "retraction needs an invertible matrix",
        ],
        "witness": [None, "all markings incident to 'v1' are already zero"],
    }
