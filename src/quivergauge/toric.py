"""Weighted scalar actions on quiver markings and exact invariant monomials.

A pair of non-negative integer weights per arrow induces a scalar gauge
action whose characters are encoded by an integer matrix with one row per
arrow and one column per vertex.  The Laurent monomials in the markings
invariant under the action are exactly the integer kernel of the transposed
matrix; that kernel lattice is computed exactly with unimodular column
operations and reported in Hermite-reduced form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .quiver import Quiver

MAX_WEIGHT = 10**6


@dataclass(frozen=True)
class WeightedToricAction:
    """Integer weight maps per arrow and the induced character matrix.

    Row a of ``matrix`` has mu(a) in the head column and -nu(a) in the tail
    column (a loop gets mu(a) - nu(a) in its single column); rows follow
    quiver arrow order and columns quiver vertex order.
    """

    quiver: Quiver
    mu: Mapping[str, int]
    nu: Mapping[str, int]
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", {k: int(v) for k, v in self.mu.items()})
        object.__setattr__(self, "nu", {k: int(v) for k, v in self.nu.items()})
        expected = _weight_rows(self.quiver, self.mu, self.nu)
        object.__setattr__(self, "matrix", tuple(tuple(int(x) for x in r) for r in self.matrix))
        if self.matrix != expected:
            raise ValueError("stored weight matrix does not match the weight maps")


def _weight_rows(q: Quiver, mu: Mapping[str, int], nu: Mapping[str, int]) -> tuple[tuple[int, ...], ...]:
    index = {v: i for i, v in enumerate(q.vertices)}
    rows = []
    for a in q.arrows:
        row = [0] * q.n_vertices
        row[index[a.head]] += mu[a.name]
        row[index[a.tail]] -= nu[a.name]
        rows.append(tuple(row))
    return tuple(rows)


def weight_matrix(q: Quiver, mu: Mapping[str, int], nu: Mapping[str, int]) -> WeightedToricAction:
    """Build the weighted action for total weight maps on the arrows."""
    for a in q.arrows:
        for label, w in (("mu", mu), ("nu", nu)):
            if a.name not in w:
                raise ValueError(f"missing {label} weight for arrow {a.name!r}")
            value = int(w[a.name])
            if value < 0:
                raise ValueError(f"{label} weight for {a.name!r} must be non-negative")
            if value > MAX_WEIGHT:
                raise ValueError(f"{label} weight for {a.name!r} exceeds the cap {MAX_WEIGHT}")
    mu = {a.name: int(mu[a.name]) for a in q.arrows}
    nu = {a.name: int(nu[a.name]) for a in q.arrows}
    return WeightedToricAction(q, mu, nu, _weight_rows(q, mu, nu))


# ---------------------------------------------------------------------------
# exact integer linear algebra (arbitrary-precision Python ints throughout)


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[list[int]], int]:
    """Saturated lattice basis of {m : rows . m = 0} and the rank of ``rows``.

    Column reduction by unimodular operations: per matrix row, the nonzero
    entries among unpivoted columns are combined by Euclidean steps until
    one remains, which locks that column as a pivot.  Columns never pivoted
    end up zero in every row, and the matching columns of the accumulated
    transform are a basis of the integer kernel (saturated, because the
    transform is invertible over the integers).
    """
    m = [[int(x) for x in row] for row in rows]
    for row in m:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    transform = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    free = list(range(ncols))

    def col_addmul(dst: int, src: int, k: int) -> None:
        for row in m:
            row[dst] += k * row[src]
        for row in transform:
            row[dst] += k * row[src]

    def col_negate(c: int) -> None:
        for row in m:
            row[c] = -row[c]
        for row in transform:
            row[c] = -row[c]

    rank = 0
    for r in range(len(m)):
        nonzero = [c for c in free if m[r][c] != 0]
        while len(nonzero) > 1:
            nonzero.sort(key=lambda c: abs(m[r][c]))
            base = nonzero[0]
            for c in nonzero[1:]:
                col_addmul(c, base, -(m[r][c] // m[r][base]))
            nonzero = [c for c in free if m[r][c] != 0]
        if nonzero:
            pivot = nonzero[0]
            if m[r][pivot] < 0:
                col_negate(pivot)
            free.remove(pivot)
            rank += 1
    basis = [[transform[i][c] for i in range(ncols)] for c in free]
    return basis, rank


def hermite_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row Hermite normal form (positive pivots, reduced entries above)."""
    mat = [[int(x) for x in row] for row in rows]
    if not mat:
        return []
    n_rows, n_cols = len(mat), len(mat[0])
    i = 0
    for j in range(n_cols):
        if i == n_rows:
            break
        live = [r for r in range(i, n_rows) if mat[r][j] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(mat[r][j]))
            base = live[0]
            for r in live[1:]:
                qq = mat[r][j] // mat[base][j]
                mat[r] = [x - qq * y for x, y in zip(mat[r], mat[base])]
            live = [r for r in range(i, n_rows) if mat[r][j] != 0]
        mat[i], mat[live[0]] = mat[live[0]], mat[i]
        if mat[i][j] < 0:
            mat[i] = [-x for x in mat[i]]
        for r in range(i):
            qq = mat[r][j] // mat[i][j]
            if qq:
                mat[r] = [x - qq * y for x, y in zip(mat[r], mat[i])]
        i += 1
    return mat


@dataclass(frozen=True)
class MonomialBasis:
    """Lattice basis of invariant Laurent monomial exponents.

    Each vector lists one integer exponent per arrow (in ``arrow_order``);
    the corresponding monomial is the product of markings to those powers.
    ``cell_dimension`` is the arrow count minus the rank of the weight
    matrix: the dimension of the dense torus chart the monomials coordinatize.
    """

    arrow_order: tuple[str, ...]
    vectors: tuple[tuple[int, ...], ...]
    cell_dimension: int


def invariant_monomial_basis(action: WeightedToricAction) -> MonomialBasis:
    """Exact basis of the exponent vectors killed by the transposed weights.

    The basis is Hermite-reduced with positive leading entries, so equal
    actions always produce identical output.
    """
    q = action.quiver
    n_arrows = q.n_arrows
    transposed = [
        [action.matrix[a][v] for a in range(n_arrows)] for v in range(q.n_vertices)
    ]
    kernel, rank = integer_kernel(transposed, n_arrows)
    reduced = hermite_rows(kernel)
    vectors = tuple(tuple(row) for row in reduced)
    return MonomialBasis(
        arrow_order=tuple(a.name for a in q.arrows),
        vectors=vectors,
        cell_dimension=n_arrows - rank,
    )


def scalar_weighted_act(
    gauge: Mapping[str, complex],
    markings: Mapping[str, complex],
    action: WeightedToricAction,
) -> dict[str, complex]:
    """Weighted scalar gauge action gauge(head)^mu marking gauge(tail)^(-nu)."""
    out = {}
    for a in action.quiver.arrows:
        g_head = complex(gauge[a.head]) ** action.mu[a.name]
        g_tail = complex(gauge[a.tail]) ** (-action.nu[a.name])
        out[a.name] = g_head * complex(markings[a.name]) * g_tail
    return out


def check_invariance(
    action: WeightedToricAction,
    exponents: Sequence[int],
    trials: int = 20,
    seed: int = 0,
    rel_tol: float = 1e-9,
) -> bool:
    """Numerically test invariance of a monomial under the weighted action.

    Samples random nonzero scalar gauges and markings (moduli kept in
    [1/2, 2]) and measures the relative change of the monomial.  The ratio
    after/before is a pure gauge monomial, so it is accumulated in log
    space; integer powers are branch-independent, which keeps this exact in
    principle and safe from overflow for large weights or exponents.
    Non-kernel exponent vectors are rejected with overwhelming probability
    per trial.
    """
    q = action.quiver
    if len(exponents) != q.n_arrows:
        raise ValueError("exponent vector length must match the arrow count")
    rng = np.random.default_rng(seed)

    for _ in range(trials):
        gauge = {}
        for v in q.vertices:
            modulus = rng.uniform(0.5, 2.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            gauge[v] = complex(modulus * np.exp(1j * phase))
        log_gauge = {v: np.log(gauge[v]) for v in q.vertices}
        log_ratio = 0j
        for a, e in zip(q.arrows, exponents):
            log_ratio += int(e) * (
                action.mu[a.name] * log_gauge[a.head]
                - action.nu[a.name] * log_gauge[a.tail]
            )
        if abs(log_ratio.real) > 50.0:
            return False
        if abs(np.exp(log_ratio) - 1.0) > rel_tol:
            return False
    return True
