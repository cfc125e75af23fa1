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
from typing import Mapping

import numpy as np

from .matrices import _checked_count, _exp_from_eigh, _hermitian_eigh, _invertible, as_matrix, as_stack, in_group_rows
from .quiver import TOL_MEMBERSHIP, GroupSpec, _Record
from .representation import Representation, RowView, _lie_action, act_on_stack

_MAX_BACKTRACKS = 60
_MAX_STEP = 1e12


def _check_time(t: float) -> None:
    if not 0.0 <= t <= 1.0:  # also refuses nan
        raise ValueError("retraction time must lie in [0, 1]")


def polar_retract(gm, t: float) -> np.ndarray:
    """k e^((1-t) p) = U S^(1-t) V*: the straight path from g = U S V* to its unitary factor.

    t=0 returns g unchanged; t=1 returns the unitary polar factor U V*;
    unitary inputs are fixed for every t, and the path scales as
    c^(1-t) under g -> c g.  Requires t in [0, 1] and an invertible matrix
    (the relative GL test of ``in_group_rows`` on S).  A (k, n, n) stack is
    retracted matrix by matrix from one batched SVD.
    """
    _check_time(t)
    g = as_stack(gm)
    if t == 0.0:
        return g
    u, sv, vh = np.linalg.svd(g)
    if not _invertible(sv, TOL_MEMBERSHIP).all():
        raise ValueError("retraction needs an invertible matrix")
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


class KNResidual(_Record):
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

    _fields = ("per_vertex", "projected", "aggregate")


def _moments(q, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-vertex moment stack of markings ``m`` on ``q``, and its trace-free projection."""
    n = m.shape[-1]
    size = q.n_vertices * n * n
    adjoint = m.conj().swapaxes(1, 2)
    # tail and head terms interleave in arrow order; bincount adds the terms
    # that share a flat index (row * n^2 + entry) in that order, as add.at
    # did, so parallel arrows and loops add up and outputs stay bit-identical
    terms = np.stack((adjoint @ m, -(m @ adjoint)), axis=1).reshape(-1, n * n)
    rows = np.stack((q.tails, q.heads), axis=1).reshape(-1, 1)
    flat = (rows * (n * n) + np.arange(n * n)).ravel()
    moments = np.empty(size, dtype=complex)
    moments.real = np.bincount(flat, terms.real.ravel(), size)
    moments.imag = np.bincount(flat, terms.imag.ravel(), size)
    moments = moments.reshape(-1, n, n)
    trace = np.trace(moments, axis1=1, axis2=2)
    return moments, moments - (trace / n)[:, None, None] * np.eye(n, dtype=complex)


def kn_moment(f: Representation) -> KNResidual:
    """Moment matrices of a representation under the unitary gauge group."""
    moments, projected = _moments(f.quiver, f.stack)
    rows = f.quiver._vertex_row
    return KNResidual(RowView(rows, moments), RowView(rows, projected), float(np.linalg.norm(projected)))


def orbit_norm(f: Representation) -> float:
    """Sum of squared Frobenius norms of the markings."""
    return float(np.vdot(f.stack, f.stack).real)


def action_pairing(u: Mapping[str, np.ndarray], f: Representation) -> complex:
    """Hermitian pairing of the infinitesimal action with f itself.

    The infinitesimal action of the gauge path exp(-t u) at t = 0 is, per
    arrow, marking u(tail) - u(head) marking.  The pairing equals the moment
    contraction sum over vertices of tr(u_v M_v); for Hermitian u it is half
    the derivative of the orbit norm along the path.
    """
    q, m = f.quiver, f.stack
    us = np.array([as_matrix(u[v], f.group.n) for v in q.vertices])
    return complex(np.vdot(m, _lie_action(us, m, q.tails, q.heads)))


class FlowReport(_Record):
    """Outcome of a norm-minimizing flow run.

    ``norm_history`` and ``residual_history`` record the state after each
    accepted step, starting with the input; the norm history is strictly
    decreasing until the stop.  ``converged`` means the final aggregate
    residual is at or below the requested tolerance.
    """

    _fields = ("iterations", "residual_history", "norm_history", "final", "converged")


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
    if f.group.is_compact:
        raise ValueError("flow applies to GL/SL/TORUS representations")
    if not (0 < step0 < math.inf):
        raise ValueError(f"step0 must be positive and finite, got {step0}")
    if not tol >= 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    max_iter = _checked_count(max_iter, "max_iter")

    q, m = f.quiver, f.stack
    invertible = GroupSpec("GL", f.group.n)
    projected = _moments(q, m)[1]
    norms = [orbit_norm(f)]
    residuals = [float(np.linalg.norm(projected))]
    eps = float(step0)
    iterations = 0

    while residuals[-1] > tol and iterations < max_iter:
        try:
            # one decomposition serves every trial: exp(trial * direction) has eigenvalues trial * vals
            vals, vecs = _hermitian_eigh(0.5 * (projected + projected.conj().swapaxes(1, 2)))
        except (ValueError, np.linalg.LinAlgError):
            break  # no trial could be exponentiated: the flow ends as when every trial fails
        trial = eps
        for _ in range(_MAX_BACKTRACKS + 1):
            try:
                # an overflowing trial is a failure below, not a warning
                with np.errstate(over="ignore", invalid="ignore"):
                    moved = act_on_stack(_exp_from_eigh(trial * vals, vecs), m, q.tails, q.heads)
                    moved_norm = float(np.vdot(moved, moved).real)
            except (ValueError, FloatingPointError, np.linalg.LinAlgError):
                moved_norm = math.nan
            if np.isfinite(moved_norm) and moved_norm < norms[-1] and in_group_rows(moved, invertible).all():
                break
            trial /= 2.0
        else:
            break
        m, eps = moved, min(trial * 2.0, _MAX_STEP)
        projected = _moments(q, m)[1]
        norms.append(moved_norm)
        residuals.append(float(np.linalg.norm(projected)))
        iterations += 1

    return FlowReport(
        iterations=iterations,
        residual_history=tuple(residuals),
        norm_history=tuple(norms),
        final=Representation(q, f.group, m, membership_tol=0.0),
        converged=residuals[-1] <= tol,
    )
