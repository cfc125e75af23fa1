"""Additive (endomorphism-valued) representations and orbit-closure diagnostics.

Group-valued representations embed into tuples of arbitrary n x n matrices
by forgetting invertibility.  At a sink or source an explicit one-parameter
gauge degenerates every incident marking to zero, certifying a non-closed
orbit.  On strongly connected quivers a weight-monotonicity argument rules
out every degeneration by a vertex-scalar one-parameter subgroup
``t^alpha_v * I``, and only those: the orbit of a representation is closed
exactly when it is semisimple (King, *Moduli of representations of finite
dimensional algebras*, 1994), and the Jordan block on the one-loop quiver is
strongly connected without a closed orbit.  Equal-determinant gauges between
unimodular representations can be rescaled to unit determinant without
changing their action.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .matrices import _principal_root
from .quiver import (
    GroupSpec,
    Quiver,
    Word,
    classify_vertex,
    ends,
    is_connected,
    is_strongly_connected,
)
from .representation import GaugeElement, Representation, _Stacked, act_on_stack

ALL_INVERTIBLE_ORBITS_CLOSED = "all_invertible_orbits_closed"
ENDS_OBSTRUCT = "ends_obstruct"
INCONCLUSIVE = "inconclusive"

_EMBEDDABLE = ("GL", "SL", "TORUS")


@dataclass(frozen=True, eq=False)
class AdditiveRep(_Stacked):
    """Arrow markings by arbitrary (possibly singular) n x n matrices."""

    quiver: Quiver
    n: int
    markings: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        self._validate(self.n, None, 0.0)

    matrix = _Stacked._row


def embed_additive(f: Representation) -> AdditiveRep:
    """Reinterpret a GL/SL representation as an additive one.

    The markings are unchanged, so the image consists of representations
    with all determinants nonzero (and equal to one for SL).
    """
    if f.group.family not in _EMBEDDABLE:
        raise ValueError("additive embedding applies to GL/SL/TORUS representations")
    return AdditiveRep(f.quiver, f.group.n, f.stack)


def to_representation(x: AdditiveRep, group: GroupSpec) -> Representation:
    """Round-trip back to a group-valued representation.

    Succeeds exactly when every marking passes the group membership test.
    """
    if group.n != x.n:
        raise ValueError("size mismatch")
    return Representation(x.quiver, group, x.stack)


def act_additive(g: GaugeElement, x: AdditiveRep) -> AdditiveRep:
    """Gauge action g(head) marking g(tail)^(-1) on an additive representation."""
    if g.quiver != x.quiver:
        raise ValueError("quiver mismatch")
    if g.group.n != x.n:
        raise ValueError("size mismatch")
    q = x.quiver
    return AdditiveRep(q, x.n, act_on_stack(g.stack, x.stack, q.tails, q.heads))


@dataclass(frozen=True, eq=False)
class DegenerationWitness:
    """A one-parameter gauge degeneration at an end vertex.

    The gauge is t * I at ``vertex`` and the identity elsewhere; for a sink
    the incident markings scale by t (limit t -> 0), for a source by 1/t
    (limit t -> infinity).  ``samples`` realize the gauge at the recorded
    ``parameters``; ``limit`` zeroes the degenerated arrows exactly and
    keeps every other marking.  Since a zero marking stays zero under every
    gauge, the limit lies in the orbit closure but outside the orbit
    whenever one degenerated marking was nonzero.
    """

    vertex: str
    direction: str
    parameters: tuple[float, ...]
    samples: tuple[AdditiveRep, ...]
    limit: AdditiveRep
    degenerated_arrows: tuple[str, ...]


def _scale_rows(x: AdditiveRep, rows: np.ndarray, t: float, direction: str) -> AdditiveRep:
    markings = x.stack.copy()
    markings[rows] = t * markings[rows] if direction == "sink" else markings[rows] / t
    return AdditiveRep(x.quiver, x.n, markings)


def sink_source_witness(x: AdditiveRep, v: str) -> DegenerationWitness:
    """Degeneration witness at an end vertex with a nonzero incident marking."""
    kind = classify_vertex(x.quiver, v)
    if kind not in ("sink", "source"):
        raise ValueError(f"vertex {v!r} is {kind}, not a sink or source")
    rows = (x.quiver.heads if kind == "sink" else x.quiver.tails) == x.quiver._vertex_row[v]
    if not x.stack[rows].any():
        raise ValueError(f"all markings incident to {v!r} are already zero")

    parameters = (1.0, 0.5, 0.125, 1.0 / 64.0)
    if kind == "source":
        parameters = tuple(1.0 / t for t in parameters)
    samples = tuple(_scale_rows(x, rows, t, kind) for t in parameters)

    limit_markings = x.stack.copy()
    limit_markings[rows] = 0.0
    return DegenerationWitness(
        vertex=v,
        direction=kind,
        parameters=parameters,
        samples=samples,
        limit=AdditiveRep(x.quiver, x.n, limit_markings),
        degenerated_arrows=tuple(a.name for a, hit in zip(x.quiver.arrows, rows) if hit),
    )


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


def unimodular_rescale(
    g: GaugeElement,
    x: AdditiveRep,
    x_prime: AdditiveRep,
    tol: float = 1e-9,
) -> GaugeElement:
    """Rescale an equal-determinant gauge between unimodular representations.

    Requires x and x_prime unimodular within tol, g carrying x to x_prime
    within tol, and all vertex determinants of g equal within tol.  The
    returned gauge divides every value by the principal n-th root of the
    common determinant: its determinants are 1 within 10 tol and, because
    the scalar cancels across each arrow, it still carries x to x_prime.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    if g.quiver != x.quiver or x.quiver != x_prime.quiver:
        raise ValueError("quiver mismatch")
    n = x.n
    if g.group.n != n or x_prime.n != n:
        raise ValueError("size mismatch")
    arrows = x.quiver.arrows
    for rep, label in ((x, "x"), (x_prime, "x_prime")):
        bad = np.flatnonzero(np.abs(np.linalg.det(rep.stack) - 1.0) > tol)
        if bad.size:
            raise ValueError(f"{label} is not unimodular at arrow {arrows[bad[0]].name!r}")
    gaps = np.linalg.norm(act_additive(g, x).stack - x_prime.stack, axis=(1, 2))
    bad = np.flatnonzero(gaps > tol)
    if bad.size:
        name, gap = arrows[bad[0]].name, gaps[bad[0]]
        raise ValueError(f"gauge does not carry x to x_prime at arrow {name!r} (gap {gap:.3e})")

    dets = np.linalg.det(g.stack)
    reference = complex(dets[g.quiver._vertex_row[min(g.quiver.vertices)]])
    bad = np.flatnonzero(np.abs(dets - reference) > tol)
    if bad.size:
        v, d = g.quiver.vertices[bad[0]], complex(dets[bad[0]])
        raise ValueError(f"gauge determinants disagree at vertex {v!r}: {d} vs {reference}")
    root = _principal_root(reference, n)
    return GaugeElement(
        g.quiver, GroupSpec("SL", n), g.stack / root, membership_tol=max(10.0 * tol, 1e-12)
    )
