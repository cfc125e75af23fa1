"""Polar-decomposition retraction and the Kempf-Ness apparatus.

The retraction interpolates every marking from a general invertible matrix
at time 0 to its unitary polar factor at time 1 and is equivariant under
unitary gauges.  The residual measures, vertex by vertex, how far a
representation is from being a minimal-norm point of its gauge orbit; the
flow descends the orbit norm along Hermitian gauge directions until the
residual is small.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .matrices import _polar_svd, as_matrix, as_stack, hermitian_exp, in_group_rows
from .quiver import GroupSpec
from .representation import GaugeElement, Representation, RowView, gauge_act

_MAX_BACKTRACKS = 60
_MAX_STEP = 1e12

_NONCOMPACT = ("GL", "SL", "TORUS")


def _check_time(t: float) -> None:
    if not 0.0 <= t <= 1.0:  # also refuses nan
        raise ValueError("retraction time must lie in [0, 1]")


def polar_retract(gm, t: float) -> np.ndarray:
    """k e^((1-t) p) = U S^(1-t) V*: the straight path from g = U S V* to its unitary factor.

    t=0 returns g unchanged; t=1 returns the unitary polar factor U V*;
    unitary inputs are fixed for every t, and the path scales as
    c^(1-t) under g -> c g.  Requires t in [0, 1] and an invertible matrix
    (the relative GL test of ``in_group_rows``).  A (k, n, n) stack is
    retracted matrix by matrix from one batched SVD.
    """
    _check_time(t)
    g = as_stack(gm)
    if t == 0.0:
        return g
    u, sv, vh = _polar_svd(g, "retraction")
    return (u * (sv ** (1.0 - t))[..., None, :]) @ vh


def retract_representation(f: Representation, t: float) -> Representation:
    """Apply the polar retraction to every marking.

    At t=1 all markings are unitary (and keep unit determinant for SL).
    Compact families are already at the endpoint: the representation is
    returned unchanged with a warning, once ``t`` is checked.
    """
    _check_time(t)
    if f.group.is_compact:
        warnings.warn(
            f"{f.group.family}({f.group.n}) is compact; retraction is the identity",
            stacklevel=2,
        )
        return f
    if t == 0.0:
        return f
    markings = polar_retract(f.stack, t)
    return Representation(f.quiver, f.group, markings, membership_tol=f.membership_tol)


@dataclass(frozen=True)
class KNResidual:
    """Per-vertex Hermitian moment matrices and their aggregate norm.

    ``per_vertex`` holds, for each vertex, the sum of marking* marking over
    outgoing arrows minus marking marking* over incoming arrows (loops
    contribute both).  ``projected`` removes the trace part: the compact
    gauge directions are traceless in their orthogonal presentation, and
    the pure-trace directions are determinant rescalings under which the
    orbit norm has no minimum on degree-unbalanced quivers.  ``aggregate``
    is the square root of the summed squared Frobenius norms of the
    projections; zero aggregate is the minimal-norm (critical point)
    condition, and unitary-valued representations always satisfy it.
    """

    per_vertex: Mapping[str, np.ndarray]
    projected: Mapping[str, np.ndarray]
    aggregate: float


def kn_moment(f: Representation) -> KNResidual:
    """Moment matrices of a representation under the unitary gauge group."""
    q, m, n = f.quiver, f.stack, f.group.n
    adjoint = m.conj().swapaxes(1, 2)
    # tail and head terms interleave in arrow order; add.at also sums the
    # repeated rows of parallel arrows and loops
    terms = np.stack((adjoint @ m, -(m @ adjoint)), axis=1).reshape(-1, n, n)
    moments = np.zeros((q.n_vertices, n, n), dtype=complex)
    np.add.at(moments, np.stack((q.tails, q.heads), axis=1).ravel(), terms)
    trace = np.trace(moments, axis1=1, axis2=2)
    projected = moments - (trace / n)[:, None, None] * np.eye(n, dtype=complex)
    rows = q._vertex_row
    return KNResidual(RowView(rows, moments), RowView(rows, projected), float(np.linalg.norm(projected)))


def orbit_norm(f: Representation) -> float:
    """Sum of squared Frobenius norms of the markings."""
    return float(np.vdot(f.stack, f.stack).real)


def infinitesimal_action(u: Mapping[str, np.ndarray], f: Representation) -> dict[str, np.ndarray]:
    """Derivative of the gauge path exp(-t u) acting on f, at t = 0.

    Per arrow this is marking u(tail) - u(head) marking.
    """
    q, m = f.quiver, f.stack
    us = np.array([as_matrix(u[v], f.group.n) for v in q.vertices])
    return dict(zip(f.markings, m @ us[q.tails] - us[q.heads] @ m))


def action_pairing(u: Mapping[str, np.ndarray], f: Representation) -> complex:
    """Hermitian pairing of the infinitesimal action with f itself.

    Equals the moment contraction sum over vertices of tr(u_v M_v); for
    Hermitian u it is half the derivative of the orbit norm along the
    gauge path exp(-t u).
    """
    df = infinitesimal_action(u, f)
    return complex(sum(np.vdot(m, df[name]) for name, m in f.markings.items()))


def moment_contraction(u: Mapping[str, np.ndarray], residual: KNResidual) -> complex:
    """Sum over vertices of tr(u_v M_v)."""
    return complex(sum(np.trace(as_matrix(u[v]) @ m) for v, m in residual.per_vertex.items()))


@dataclass(frozen=True)
class FlowReport:
    """Outcome of a norm-minimizing flow run.

    ``norm_history`` and ``residual_history`` record the state after each
    accepted step, starting with the input; the norm history is strictly
    decreasing until the stop.  ``converged`` means the final aggregate
    residual is at or below the requested tolerance.
    """

    iterations: int
    residual_history: tuple[float, ...]
    norm_history: tuple[float, ...]
    final: Representation
    converged: bool


def kn_flow(
    f: Representation,
    step0: float = 0.25,
    max_iter: int = 1000,
    tol: float = 1e-8,
) -> FlowReport:
    """Steepest descent of the orbit norm along Hermitian gauge directions.

    Each step acts by the gauge whose value at vertex v is
    exp(step * projected moment at v); the sign makes the directional
    derivative of the orbit norm equal minus twice the squared aggregate
    residual, so small enough steps always descend.  Step sizes backtrack
    by halving until the norm strictly decreases and every marking passes
    the relative GL test of ``in_group_rows`` (non-finite trials count as
    failures), and double after success.  The trace-free gauge keeps every
    |det|, so a trial that makes a marking numerically singular is an
    overflowed step, never progress.  The flow stops at residual <=
    tol, after max_iter accepted steps, or when no step size descends.

    For representations whose gauge orbit is not closed the flow descends
    toward the minimal-norm representative in the orbit closure; trace
    invariants of closed words are constant along the way.
    """
    if f.group.family not in _NONCOMPACT:
        raise ValueError("flow applies to GL/SL/TORUS representations")
    if not (0 < step0 < math.inf):
        raise ValueError(f"step0 must be positive and finite, got {step0}")
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")

    invertible = GroupSpec("GL", f.group.n)
    current = Representation(f.quiver, f.group, f.stack, membership_tol=0.0)
    residual = kn_moment(current)
    norms = [orbit_norm(current)]
    residuals = [residual.aggregate]
    eps = float(step0)
    iterations = 0

    while residuals[-1] > tol and iterations < max_iter:
        projected = residual.projected.stack
        direction = 0.5 * (projected + projected.conj().swapaxes(1, 2))
        accepted = None
        trial = eps
        for _ in range(_MAX_BACKTRACKS + 1):
            try:
                # an overflowing trial is a failure below, not a warning
                with np.errstate(over="ignore", invalid="ignore"):
                    values = hermitian_exp(trial * direction)
                    gauge = GaugeElement(current.quiver, current.group, values, membership_tol=0.0)
                    candidate = gauge_act(gauge, current)
                    candidate_norm = orbit_norm(candidate)
            except (ValueError, FloatingPointError, np.linalg.LinAlgError):
                trial /= 2.0
                continue
            if (
                np.isfinite(candidate_norm)
                and candidate_norm < norms[-1]
                and in_group_rows(candidate.stack, invertible).all()
            ):
                accepted = (candidate, candidate_norm)
                eps = min(trial * 2.0, _MAX_STEP)
                break
            trial /= 2.0
        if accepted is None:
            break
        current, new_norm = accepted
        residual = kn_moment(current)
        norms.append(new_norm)
        residuals.append(residual.aggregate)
        iterations += 1

    return FlowReport(
        iterations=iterations,
        residual_history=tuple(residuals),
        norm_history=tuple(norms),
        final=current,
        converged=residuals[-1] <= tol,
    )
