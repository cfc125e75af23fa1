"""Weighted scalar actions on quiver markings and exact invariant monomials.

A pair of non-negative integer weights per arrow induces a scalar gauge
action whose characters are encoded by an integer matrix with one row per
arrow and one column per vertex.  The Laurent monomials in the markings
invariant under the action are exactly the integer kernel of the transposed
matrix.  That matrix has at most two nonzeros per arrow, so one sparse
exact engine does all the work: unimodular column elimination on sparse
columns (dicts from row to entry), where ties among the live columns of
smallest |entry| go to the largest column index, then row Hermite form on
sparse rows.  The Hermite form of a saturated lattice is unique, so the
emitted basis does not depend on the elimination order; the tie-break only
decides how much work the Hermite pass has left.  A basis stores those
sparse rows only; its dense vectors are derived when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .quiver import MAX_WEIGHT, Quiver

Sparse = dict[int, int]


@dataclass(frozen=True)
class WeightedToricAction:
    """Integer weight maps per arrow and the induced character matrix.

    Row a of ``matrix`` has mu(a) in the head column and -nu(a) in the tail
    column (a loop gets mu(a) - nu(a) in its single column); rows follow
    quiver arrow order and columns quiver vertex order.  The matrix is
    derived from the weight maps on first access; the kernel never reads it.
    """

    quiver: Quiver
    mu: Mapping[str, int]
    nu: Mapping[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", {k: int(v) for k, v in self.mu.items()})
        object.__setattr__(self, "nu", {k: int(v) for k, v in self.nu.items()})

    @cached_property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        q, rows = self.quiver, []
        for a, t, h in zip(q.arrows, q.tail_rows, q.head_rows):
            row = [0] * q.n_vertices
            row[h] += self.mu[a.name]
            row[t] -= self.nu[a.name]
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
    return WeightedToricAction(q, mu, nu)


# ---------------------------------------------------------------------------
# exact sparse integer linear algebra (arbitrary-precision Python ints)


def _addmul(dst: Sparse, src: Sparse, k: int, key: int = -1, index: list[set[int]] | None = None) -> None:
    """dst += k * src, dropping zeros.

    With ``index``, ``dst`` is vector ``key`` of a family and ``index[i]``
    the set of vectors nonzero at i; it is kept in step.
    """
    for i, x in src.items():
        y = dst.get(i, 0) + k * x
        if y:
            if index is not None and i not in dst:
                index[i].add(key)
            dst[i] = y
        elif i in dst:
            del dst[i]
            if index is not None:
                index[i].discard(key)


def _kernel(cols: list[Sparse], n_rows: int) -> tuple[list[Sparse], int]:
    """Saturated kernel basis of sparse columns, by unimodular column elimination.

    Rows are eliminated in order.  Per row, the live (unpivoted, nonzero)
    columns are combined by Euclidean steps: the base is the live column of
    smallest |entry|, ties going to the largest column index, and every
    other live column is reduced by it, until one column is left; it
    becomes that row's pivot.  Columns never pivoted end up zero, and the
    matching columns of the accumulated transform are a basis of the
    integer kernel, saturated because the transform is unimodular.
    ``cols`` is consumed.  Returns the basis in increasing column order and
    the rank.
    """
    transform = [{c: 1} for c in range(len(cols))]
    live_at: list[set[int]] = [set() for _ in range(n_rows)]
    for c, col in enumerate(cols):
        for r in col:
            live_at[r].add(c)
    pivoted = [False] * len(cols)
    for r in range(n_rows):
        live = live_at[r]
        while len(live) > 1:
            base = min(live, key=lambda c: (abs(cols[c][r]), -c))
            entry = cols[base][r]
            for c in [c for c in live if c != base]:
                k = -(cols[c][r] // entry)
                _addmul(cols[c], cols[base], k, c, live_at)
                _addmul(transform[c], transform[base], k)
        for c in live:
            pivoted[c] = True
            for i in cols[c]:
                if i != r:
                    live_at[i].discard(c)
    rank = sum(pivoted)
    return [t for t, p in zip(transform, pivoted) if not p], rank


def _hermite(rows: list[Sparse], n_cols: int) -> list[Sparse]:
    """Nonzero rows of the row Hermite form of sparse rows (consumed), in pivot order.

    Column by column, the unpivoted rows with a nonzero entry are combined
    by Euclidean steps until one is left; it becomes the pivot, made
    positive, and the entries above it are reduced into [0, pivot).  A
    column-to-rows index finds the rows of each column.
    """
    at: list[set[int]] = [set() for _ in range(n_cols)]
    for i, row in enumerate(rows):
        for j in row:
            at[j].add(i)
    is_pivot = [False] * len(rows)
    pivots: list[int] = []
    for j in range(n_cols):
        live = [i for i in at[j] if not is_pivot[i]]
        while len(live) > 1:
            base = min(live, key=lambda i: abs(rows[i][j]))
            entry = rows[base][j]
            for i in live:
                if i != base:
                    _addmul(rows[i], rows[base], -(rows[i][j] // entry), i, at)
            live = [i for i in at[j] if not is_pivot[i]]
        if not live:
            continue
        p = live[0]
        pivot = rows[p]
        if pivot[j] < 0:
            for c in pivot:
                pivot[c] = -pivot[c]
        for i in [i for i in at[j] if is_pivot[i]]:
            k = rows[i][j] // pivot[j]
            if k:
                _addmul(rows[i], pivot, -k, i, at)
        is_pivot[p] = True
        pivots.append(p)
    return [rows[p] for p in pivots]


@dataclass(frozen=True, eq=False, repr=False)
class MonomialBasis:
    """Lattice basis of invariant Laurent monomial exponents.

    ``nonzeros`` maps, per basis vector, each index with a nonzero exponent
    to that exponent (the sparse rows of the elimination); it is the one
    stored form, so output can be written in proportion to it.  ``vectors``
    lists each vector densely, one integer exponent per arrow (in
    ``arrow_order``); the corresponding monomial is the product of markings
    to those powers.  ``cell_dimension`` is the arrow count minus the rank
    of the weight matrix: the dimension of the dense torus chart the
    monomials coordinatize.  Equality, hash and repr read ``arrow_order``,
    ``vectors`` and ``cell_dimension``.
    """

    arrow_order: tuple[str, ...]
    cell_dimension: int
    nonzeros: tuple[Mapping[int, int], ...]

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        n, out = len(self.arrow_order), []
        for row in self.nonzeros:
            dense = [0] * n
            for i, x in row.items():
                dense[i] = x
            out.append(tuple(dense))
        return tuple(out)

    def _key(self) -> tuple:
        return self.arrow_order, self.vectors, self.cell_dimension

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"MonomialBasis(arrow_order={self.arrow_order!r}, vectors={self.vectors!r}, "
            f"cell_dimension={self.cell_dimension!r})"
        )


def invariant_monomial_basis(action: WeightedToricAction) -> MonomialBasis:
    """Exact basis of the exponent vectors killed by the transposed weights.

    One sparse column per arrow (mu at its head row, -nu at its tail row)
    goes through the column elimination; its kernel is then put in row
    Hermite form with positive leading entries.  That form of a saturated
    lattice is unique, so equal actions always produce identical output.

    Among the live columns of smallest |entry|, the elimination's base is
    the one with the largest arrow index.  That choice changes only the
    speed: with unit weights the pivots then grow a spanning forest
    greedily from the last arrow, and each kernel vector is the fundamental
    cycle of one non-tree arrow (+1 there, +-1 on later tree arrows),
    already the Hermite form up to row order.
    """
    q = action.quiver
    n_arrows = q.n_arrows
    names = tuple(a.name for a in q.arrows)
    cols: list[Sparse] = []
    for name, t, h in zip(names, q.tail_rows, q.head_rows):
        col = {h: action.mu[name]}
        col[t] = col.get(t, 0) - action.nu[name]
        cols.append({r: x for r, x in col.items() if x})
    kernel, rank = _kernel(cols, q.n_vertices)
    return MonomialBasis(names, n_arrows - rank, tuple(_hermite(kernel, n_arrows)))


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
    import numpy as np

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
