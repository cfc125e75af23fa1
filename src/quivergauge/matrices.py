"""Dense complex matrix routines for the supported group families.

Membership tests, seeded sampling and the Hermitian exponential.  The
GL test reads singular values; the exponential goes through an
eigendecomposition.  GL and SL are sampled in polar form k e^p, so no
general matrix exponential (and no dependency beyond numpy) is needed.
Every validity test is relative, so it gives the same verdict on c m as on m.
"""

from __future__ import annotations

import operator

import numpy as np

from .quiver import TOL_EQ, TOL_MEMBERSHIP, GroupSpec


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


def in_group_rows(stack: np.ndarray, group: GroupSpec, tol: float = TOL_MEMBERSHIP) -> np.ndarray:
    """Membership of a finite matrix, or of each matrix of a stack, at tolerance ``tol``.

    A matrix of the wrong size or with a non-finite entry raises ValueError.
    GL/TORUS: sigma_min > tol * sigma_max, so the test does not depend on
    scale.  Since sigma_min / sigma_max >= |det| / ||m||_F^n, a matrix with
    |det| > 2 tol ||m||_F^n passes without an SVD (the factor 2 covers the
    rounding of det); only the others are decomposed.  SL: |det - 1| <= tol.
    U: ||m m* - I||_F <= tol.  SU: both of the last two.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    stack = as_stack(stack, group.n)
    if group.family in ("GL", "TORUS"):
        rows = stack.reshape(-1, *stack.shape[-2:])
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan bound sends the row to the SVD
            bound = 2.0 * tol * np.linalg.norm(rows, axis=(1, 2)) ** stack.shape[-1]
            ok = np.abs(np.linalg.det(rows)) > bound
        if not ok.all():
            ok[~ok] = _invertible(np.linalg.svd(rows[~ok], compute_uv=False), tol)
        return ok.reshape(stack.shape[:-2])
    unimodular = np.abs(np.linalg.det(stack) - 1.0) <= tol
    if group.family == "SL":
        return unimodular
    gram = stack @ stack.conj().swapaxes(-1, -2)
    unitary = np.linalg.norm(gram - identity(group.n), axis=(-2, -1)) <= tol
    return unitary if group.family == "U" else unitary & unimodular


def _invertible(sv: np.ndarray, tol: float) -> np.ndarray:
    """The relative GL test on singular values sorted in descending order."""
    return sv[..., -1] > tol * sv[..., 0]


def random_element(group: GroupSpec, seed: int) -> np.ndarray:
    """Deterministic random group element for the given seed.

    U(n) is sampled Haar by QR of a complex Ginibre matrix with the phase
    fix on the R diagonal (Mezzadri, Notices AMS 54, 2007); SU divides by
    the principal n-th root of the determinant.  GL (and TORUS = GL(1)) is
    sampled in polar form k e^p: k is that U(n) sample and p = (W + W*) /
    (2 sqrt(n)) is Hermitian Gaussian from a second Ginibre draw W.  SL
    takes k in SU and the traceless part of p, so det = 1 up to rounding.
    U and SU consume only the first draw.  A seed that is not a non-negative
    integer is a ValueError.
    """
    return _random_elements(group, [_checked_count(seed, "seed")])[0]


def _checked_count(value, name: str, positive: bool = False) -> int:
    """The one rule for seeds and counts: ``value`` by ``operator.index``, >= 1 if ``positive``, else >= 0."""
    try:
        count = operator.index(value)
    except TypeError:
        count = -1
    if count < positive:
        raise ValueError(f"{name} must be {'a positive' if positive else 'a non-negative'} integer, got {value!r}")
    return count


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


def hermitian_exp(h) -> np.ndarray:
    """Exponential of a Hermitian matrix (or stack) via its eigendecomposition.

    Each matrix must satisfy ||h - h*|| <= TOL_EQ ||h|| (Frobenius), a test
    relative to its own norm; a (k, n, n) stack goes through one batched eigh.
    """
    return _exp_from_eigh(*_hermitian_eigh(h))


def _hermitian_eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian matrix (or stack), after ``hermitian_exp``'s relative check."""
    a = as_stack(h)
    skew = np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1))
    if np.any(skew > TOL_EQ * np.linalg.norm(a, axis=(-2, -1))):
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigh(a)


def _exp_from_eigh(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The Hermitian matrix (or stack) with eigenpairs ``(vals, vecs)``, exponentiated: vecs e^vals vecs*."""
    return (vecs * np.exp(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
