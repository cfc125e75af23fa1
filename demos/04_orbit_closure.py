"""Orbit-closure diagnostics for additive quiver representations.

Forgetting invertibility embeds group-valued representations into tuples
of arbitrary square matrices.  At a sink or source the scalar gauge t * I
degenerates every incident marking to zero, so such orbits are never
closed.  On strongly connected quivers the weight-monotonicity argument
rules out the degenerations by vertex-scalar one-parameter subgroups
t^alpha_v * I, and only those: an orbit is closed exactly when the
representation is semisimple (King 1994), which the one-loop Jordan block
is not.  Between unimodular representations, equal-determinant gauges can
always be rescaled to unit determinant.
"""

import numpy as np

import quivergauge as qg

# A path has two ends; the embedded orbit of any invertible marking
# degenerates there.
path = qg.Quiver(("v0", "v1", "v2"), (("a0", "v0", "v1"), ("a1", "v1", "v2")))
x = qg.embed_additive(qg.random_representation(path, qg.GroupSpec("GL", 2), seed=1))

witness = qg.sink_source_witness(x, "v2")
print("degenerating at", witness.vertex, "going", witness.direction)
print("sample gauge parameters:", witness.parameters)
print("arrows zeroed in the limit:", witness.degenerated_arrows)
print("limit marking at a1:\n", witness.limit.markings["a1"].real)
# a zero marking persists under every gauge, so the limit is outside the orbit

# Certificates per quiver shape.
two_cycle = qg.Quiver(("v0", "v1"), (("a0", "v0", "v1"), ("a1", "v1", "v0")))
bridge = qg.Quiver(
    ("u0", "u1", "w0", "w1"),
    (
        ("br", "u0", "w0"),
        ("c0", "u0", "u1"),
        ("c1", "u1", "u0"),
        ("d0", "w0", "w1"),
        ("d1", "w1", "w0"),
    ),
)
for name, q in (("path", path), ("two-cycle", two_cycle), ("bridge", bridge)):
    cert = qg.closed_orbit_certificate(q)
    print(f"{name}: {cert.verdict}", f"ends={list(cert.ends)}" if cert.ends else "")

# Monotone weights on a strongly connected quiver must be constant; a
# non-constant assignment is refuted by a cycle.
report = qg.monotone_weights_force_constant(two_cycle, {"v0": 0, "v1": 1})
print("\nnon-constant weights violate at", report.violating_arrow)
print("witnessing cycle:", report.witness_cycle.display())

# Unimodular rescaling: divide an equal-determinant gauge by the principal
# root of the common determinant; the action is unchanged.
f = qg.random_representation(two_cycle, qg.GroupSpec("SL", 2), seed=2)
x = qg.embed_additive(f)
g = qg.GaugeElement(
    two_cycle,
    qg.GroupSpec("GL", 2),
    {"v0": 2.0 * np.eye(2), "v1": np.array([[0.0, 2.0], [-2.0, 0.0]])},
)
x_prime = qg.act_additive(g, x)
rescaled = qg.unimodular_rescale(g, x, x_prime)
dets = [complex(round(np.linalg.det(rescaled.values[v]).real, 12)) for v in two_cycle.vertices]
print("\nrescaled gauge determinants:", dets)
