"""Additive (endomorphism-valued) representations and their degenerations.

Group-valued representations embed into tuples of arbitrary n x n matrices
by forgetting invertibility.  At a sink or source an explicit one-parameter
gauge degenerates every incident marking to zero, certifying a non-closed
orbit; ``quiver.closed_orbit_certificate`` says, from the quiver alone,
where such witnesses exist.  Equal-determinant gauges between unimodular
representations can be rescaled to unit determinant without changing their
action.
"""

from __future__ import annotations

import numpy as np

from .matrices import _principal_root
from .quiver import GroupSpec, _Record, classify_vertex
from .representation import GaugeElement, Representation, _Stacked, act_on_stack


class AdditiveRep(_Stacked):
    """Arrow markings by arbitrary (possibly singular) n x n matrices."""

    _fields = ("quiver", "n", "markings")
    _defaults = {}  # no ``membership_tol``: any matrix is a marking


def embed_additive(f: Representation) -> AdditiveRep:
    """Reinterpret a GL/SL representation as an additive one.

    The markings are unchanged, so the image consists of representations
    with all determinants nonzero (and equal to one for SL).
    """
    if f.group.is_compact:
        raise ValueError("additive embedding applies to GL/SL/TORUS representations")
    return AdditiveRep(f.quiver, f.group.n, f.stack)


def act_additive(g: GaugeElement, x: AdditiveRep) -> AdditiveRep:
    """Gauge action g(head) marking g(tail)^(-1) on an additive representation."""
    if g.quiver != x.quiver:
        raise ValueError("quiver mismatch")
    if g.group.n != x.n:
        raise ValueError("size mismatch")
    q = x.quiver
    return AdditiveRep(q, x.n, act_on_stack(g.stack, x.stack, q.tails, q.heads))


class DegenerationWitness(_Record):
    """A one-parameter gauge degeneration at an end vertex.

    The gauge is t * I at ``vertex`` and the identity elsewhere; for a sink
    the incident markings scale by t (limit t -> 0), for a source by 1/t
    (limit t -> infinity).  ``samples`` realize the gauge at the recorded
    ``parameters``; ``limit`` zeroes the degenerated arrows exactly and
    keeps every other marking.  Since a zero marking stays zero under every
    gauge, the limit lies in the orbit closure but outside the orbit
    whenever one degenerated marking was nonzero.
    """

    _fields = ("vertex", "direction", "parameters", "samples", "limit", "degenerated_arrows")
    __eq__ = object.__eq__
    __hash__ = object.__hash__


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
