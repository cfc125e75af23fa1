"""Dense complex matrix routines for the supported group families.

Membership tests, seeded sampling, the Cartan involution, polar
decomposition, and Hermitian fractional powers.  Everything Hermitian goes
through an eigendecomposition; the only general matrix exponential (used
for sampling) is scipy's scaling-and-squaring Pade implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .quiver import GroupSpec

TOL_MEMBERSHIP = 1e-9
TOL_EQ = 1e-8


def as_matrix(m, n: int | None = None) -> np.ndarray:
    """Coerce to a finite square complex matrix (optionally of size n)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix has non-finite entries")
    if n is not None and a.shape[0] != n:
        raise ValueError(f"expected size {n}, got {a.shape[0]}")
    return a


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def cartan_involution(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def frobenius_distance(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def is_hermitian(m, tol: float = TOL_EQ) -> bool:
    a = as_matrix(m)
    return frobenius_distance(a, a.conj().T) <= tol


def in_group(m, group: GroupSpec, tol: float = TOL_MEMBERSHIP) -> bool:
    """Membership test at tolerance ``tol``.

    GL/TORUS: |det| > tol.  SL: |det - 1| <= tol.  U: ||m m* - I||_F <= tol.
    SU: both of the last two.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    a = as_matrix(m, group.n)
    det = np.linalg.det(a)
    if group.family in ("GL", "TORUS"):
        return bool(abs(det) > tol)
    if group.family == "SL":
        return bool(abs(det - 1.0) <= tol)
    unitary = frobenius_distance(a @ a.conj().T, identity(group.n)) <= tol
    if group.family == "U":
        return unitary
    return unitary and bool(abs(det - 1.0) <= tol)


def random_element(group: GroupSpec, seed: int) -> np.ndarray:
    """Deterministic random group element for the given seed.

    U(n) is sampled Haar by QR of a complex Ginibre matrix with the usual
    phase fix on the R diagonal; SU divides by the principal n-th root of
    the determinant.  GL is exp(Z) with Z complex Gaussian scaled by
    1/sqrt(n); SL uses the traceless part of Z.
    """
    rng = np.random.default_rng(seed)
    n = group.n
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    if group.family in ("U", "SU"):
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        q = q * (d / np.abs(d))
        if group.family == "SU":
            q = q / _principal_root(np.linalg.det(q), n)
        return q
    z = z / np.sqrt(n)
    if group.family == "SL":
        z = z - (np.trace(z) / n) * identity(n)
    return scipy.linalg.expm(z)


def _principal_root(value: complex, n: int) -> complex:
    return np.exp(np.log(value) / n)


@dataclass(frozen=True)
class PolarFactors:
    """Unitary factor k and Hermitian exponent p with k e^p = g."""

    k: np.ndarray
    p: np.ndarray


def _hermitian_functions(h, *fns, tol: float | None = TOL_EQ, positive: bool = False) -> list[np.ndarray]:
    """f(h) for each f from one eigendecomposition; tol=None skips the Hermitian test."""
    a = as_matrix(h)
    if tol is not None and not is_hermitian(a, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(a)
    if positive and np.min(vals) <= 0:
        raise ValueError("matrix is not positive definite")
    return [(vecs * f(vals)) @ vecs.conj().T for f in fns]


def hermitian_power(h, s: float, tol: float = TOL_EQ) -> np.ndarray:
    """Fractional power of a Hermitian positive-definite matrix."""
    return _hermitian_functions(h, lambda x: np.power(x, s), tol=tol, positive=True)[0]


def hermitian_log(h, tol: float = TOL_EQ) -> np.ndarray:
    """Logarithm of a Hermitian positive-definite matrix."""
    return _hermitian_functions(h, np.log, tol=tol, positive=True)[0]


def hermitian_exp(h, tol: float = TOL_EQ) -> np.ndarray:
    """Exponential of a Hermitian matrix via its eigendecomposition."""
    return _hermitian_functions(h, np.exp, tol=tol)[0]


def polar_decompose(gm, tol: float = TOL_MEMBERSHIP) -> PolarFactors:
    """Unique polar factors of an invertible matrix.

    k = g (g* g)^(-1/2) is unitary and p = log(g* g) / 2 is Hermitian; the
    pair reconstructs g as k e^p.
    """
    g = as_matrix(gm)
    if abs(np.linalg.det(g)) <= tol:
        raise ValueError("polar decomposition needs an invertible matrix")
    gram = g.conj().T @ g
    inv_sqrt, log_half = _hermitian_functions(
        gram, lambda x: np.power(x, -0.5), lambda x: 0.5 * np.log(x), tol=None, positive=True
    )
    return PolarFactors(k=g @ inv_sqrt, p=log_half)
