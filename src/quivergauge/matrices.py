"""Dense complex matrix routines for the supported group families.

Membership tests, seeded sampling, the Cartan involution, polar
decomposition, and Hermitian functions.  The polar form g = k e^p comes
from one singular value decomposition g = U S V*, whose singular values
also give the relative invertibility test; Hermitian functions go through
an eigendecomposition.  GL and SL are sampled in that polar form, so no
general matrix exponential (and no dependency beyond numpy) is needed.
Every validity test is relative, so it gives the same verdict on c m as on m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quiver import GroupSpec

TOL_MEMBERSHIP = 1e-9
TOL_EQ = 1e-8


def as_stack(m, n: int | None = None) -> np.ndarray:
    """Coerce to a finite square complex matrix or (k, n, n) stack (optionally of size n)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if n is not None and a.shape[-1] != n:
        raise ValueError(f"expected size {n}, got {a.shape[-1]}")
    return a


def as_matrix(m, n: int | None = None) -> np.ndarray:
    """Coerce to a finite square complex matrix (optionally of size n)."""
    a = as_stack(m, n)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def cartan_involution(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def in_group_rows(stack: np.ndarray, group: GroupSpec, tol: float = TOL_MEMBERSHIP) -> np.ndarray:
    """Membership of a finite matrix, or of each matrix of a stack, at tolerance ``tol``.

    GL/TORUS: sigma_min > tol * sigma_max, so the test does not depend on
    scale.  SL: |det - 1| <= tol.  U: ||m m* - I||_F <= tol.  SU: both of
    the last two.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if group.family in ("GL", "TORUS"):
        return _invertible(np.linalg.svd(stack, compute_uv=False), tol)
    unimodular = np.abs(np.linalg.det(stack) - 1.0) <= tol
    if group.family == "SL":
        return unimodular
    gram = stack @ stack.conj().swapaxes(-1, -2)
    unitary = np.linalg.norm(gram - identity(group.n), axis=(-2, -1)) <= tol
    return unitary if group.family == "U" else unitary & unimodular


def _invertible(sv: np.ndarray, tol: float) -> np.ndarray:
    """The relative GL test on singular values sorted in descending order."""
    return sv[..., -1] > tol * sv[..., 0]


def in_group(m, group: GroupSpec, tol: float = TOL_MEMBERSHIP) -> bool:
    """Membership test of one matrix at tolerance ``tol``; see ``in_group_rows``."""
    return bool(in_group_rows(as_matrix(m, group.n), group, tol))


def random_element(group: GroupSpec, seed: int) -> np.ndarray:
    """Deterministic random group element for the given seed.

    U(n) is sampled Haar by QR of a complex Ginibre matrix with the phase
    fix on the R diagonal (Mezzadri, Notices AMS 54, 2007); SU divides by
    the principal n-th root of the determinant.  GL (and TORUS = GL(1)) is
    sampled in polar form k e^p: k is that U(n) sample and p = (W + W*) /
    (2 sqrt(n)) is Hermitian Gaussian from a second Ginibre draw W.  SL
    takes k in SU and the traceless part of p, so det = 1 up to rounding.
    U and SU consume only the first draw.
    """
    return _random_elements(group, [seed])[0]


def _random_elements(group: GroupSpec, seeds: list[int]) -> np.ndarray:
    """(k, n, n) stack whose row i is ``random_element(group, seeds[i])``.

    Each element draws its Ginibre matrices from its own ``default_rng(seed)``;
    the QR, phase fix, determinant root and Hermitian exponential then run
    once on the whole stack.
    """
    n = group.n
    draws = 1 if group.family in ("U", "SU") else 2
    # one call per seed yields the real and imaginary parts of every draw in turn
    z = np.array([np.random.default_rng(s).standard_normal((2 * draws, n, n)) for s in seeds])
    z = z.reshape(len(seeds), draws, 2, n, n)
    w = (z[:, :, 0] + 1j * z[:, :, 1]) / np.sqrt(2.0)
    q, r = np.linalg.qr(w[:, 0])
    d = np.diagonal(r, axis1=1, axis2=2)
    k = q * (d / np.abs(d))[:, None, :]
    if group.family in ("SU", "SL"):
        k = k / _principal_root(np.linalg.det(k), n)[:, None, None]
    if draws == 1:
        return k
    p = (w[:, 1] + w[:, 1].conj().swapaxes(1, 2)) / (2.0 * np.sqrt(n))
    if group.family == "SL":
        p = p - (np.trace(p, axis1=1, axis2=2) / n)[:, None, None] * identity(n)
    return k @ hermitian_exp(p)


def _principal_root(value: complex, n: int) -> complex:
    return np.exp(np.log(value) / n)


@dataclass(frozen=True)
class PolarFactors:
    """Unitary factor k and Hermitian exponent p with k e^p = g."""

    k: np.ndarray
    p: np.ndarray


def _hermitian_functions(h, *fns, positive: bool = False) -> list[np.ndarray]:
    """f(h) for each f from one eigendecomposition of a Hermitian matrix or stack.

    Each matrix must satisfy ||h - h*|| <= TOL_EQ ||h|| (Frobenius), a test
    relative to its own norm; a (k, n, n) stack goes through one batched eigh.
    """
    a = as_stack(h)
    skew = np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1))
    if np.any(skew > TOL_EQ * np.linalg.norm(a, axis=(-2, -1))):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(a)
    if positive and np.any(vals <= 0):
        raise ValueError("matrix is not positive definite")
    adjoint = vecs.conj().swapaxes(-1, -2)
    return [(vecs * f(vals)[..., None, :]) @ adjoint for f in fns]


def hermitian_power(h, s: float) -> np.ndarray:
    """Fractional power of a Hermitian positive-definite matrix (or stack)."""
    return _hermitian_functions(h, lambda x: np.power(x, s), positive=True)[0]


def hermitian_log(h) -> np.ndarray:
    """Logarithm of a Hermitian positive-definite matrix (or stack)."""
    return _hermitian_functions(h, np.log, positive=True)[0]


def hermitian_exp(h) -> np.ndarray:
    """Exponential of a Hermitian matrix (or stack) via its eigendecomposition."""
    return _hermitian_functions(h, np.exp)[0]


def _polar_svd(g: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U, S, V* of an invertible matrix or stack g = U S V*, from one batched SVD.

    Invertibility is the relative GL test of ``in_group_rows`` at
    ``TOL_MEMBERSHIP`` on those singular values; otherwise a ValueError says
    that ``what`` needs an invertible matrix.
    """
    u, sv, vh = np.linalg.svd(g)
    if not _invertible(sv, TOL_MEMBERSHIP).all():
        raise ValueError(f"{what} needs an invertible matrix")
    return u, sv, vh


def polar_decompose(gm) -> PolarFactors:
    """Unique polar factors of an invertible matrix.

    With g = U S V*, k = U V* is unitary and p = V log(S) V* is Hermitian;
    the pair reconstructs g as k e^p.  Invertibility is the relative GL
    test of ``in_group_rows`` on S.
    """
    u, sv, vh = _polar_svd(as_matrix(gm), "polar decomposition")
    return PolarFactors(k=u @ vh, p=(vh.conj().T * np.log(sv)) @ vh)
