"""Weighted scalar actions on quiver markings and exact invariant monomials.

A pair of non-negative integer weights per arrow induces a scalar gauge
action whose characters are encoded by an integer matrix with one row per
arrow and one column per vertex.  The Laurent monomials in the markings
invariant under the action are exactly the integer kernel of the transposed
matrix.  That matrix has at most two nonzeros per arrow, so one sparse
exact loop does all the work: Euclidean row echelon on sparse rows (dicts
from column to entry), where ties among the live rows of smallest |entry|
go to the largest row index.  It runs twice: on the rows of the transposed
matrix augmented by the identity, whose rows never pivoted carry the
kernel, and on that kernel, whose echelon form is then reduced to row
Hermite form.  The Hermite form of a saturated lattice is unique, so the
emitted basis does not depend on the elimination order; the tie-break only
decides how much work the second run has left.  A basis stores those
sparse rows only; its dense vectors are derived when first read.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Sequence

from .quiver import Quiver, _checked_weights, _integer, _Record, _setfield

Sparse = dict[int, int]


class WeightedToricAction(_Record):
    """Integer weight maps per arrow and the induced character matrix.

    Row a of ``matrix`` has mu(a) in the head column and -nu(a) in the tail
    column (a loop gets mu(a) - nu(a) in its single column); rows follow
    quiver arrow order and columns quiver vertex order.  The matrix is
    derived from the weight maps on first access; the kernel never reads it.
    """

    _fields = ("quiver", "mu", "nu")

    def __init__(self, quiver: Quiver, mu: Mapping[str, int], nu: Mapping[str, int]) -> None:
        mu, nu = _checked_weights(quiver, mu, nu)
        super().__init__(quiver, mu, nu)

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
    return WeightedToricAction(q, mu, nu)


# ---------------------------------------------------------------------------
# exact sparse integer linear algebra (arbitrary-precision Python ints)


def _addmul(dst: Sparse, src: Sparse, k: int, key: int, index: list[set[int]]) -> None:
    """dst += k * src, dropping zeros.

    ``dst`` is row ``key`` of a family and ``index[j]`` the set of rows
    nonzero at column j, kept in step for the columns it covers.
    """
    n = len(index)
    for i, x in src.items():
        y = dst.get(i, 0) + k * x
        if y:
            if i < n and i not in dst:
                index[i].add(key)
            dst[i] = y
        elif i in dst:
            del dst[i]
            if i < n:
                index[i].discard(key)


def _echelon(rows: list[Sparse], n_cols: int) -> tuple[list[tuple[int, int]], list[set[int]]]:
    """Row echelon form of sparse rows (in place) on columns 0 .. n_cols - 1.

    Column by column, the unpivoted rows with a nonzero entry are combined
    by Euclidean steps: the base is the row of smallest |entry|, ties going
    to the largest row index, and every other such row is reduced by it,
    until one row is left; it becomes that column's pivot.  Entries at
    columns n_cols and beyond ride along, neither eliminated nor indexed.
    Rows never pivoted end up zero on the eliminated columns.  Returns the
    (column, row) pivots in column order and the index from each
    eliminated column to the rows nonzero there.
    """
    at: list[set[int]] = [set() for _ in range(n_cols)]
    for i, row in enumerate(rows):
        for j in row:
            if j < n_cols:
                at[j].add(i)
    is_pivot = [False] * len(rows)
    pivots = []
    for j, nonzero in enumerate(at):
        live = [i for i in nonzero if not is_pivot[i]]
        while len(live) > 1:
            base = min(live, key=lambda i: (abs(rows[i][j]), -i))
            entry = rows[base][j]
            for i in live:
                if i != base:
                    _addmul(rows[i], rows[base], -(rows[i][j] // entry), i, at)
            live = [i for i in nonzero if not is_pivot[i]]
        for p in live:
            is_pivot[p] = True
            pivots.append((j, p))
    return pivots, at


def _hermite(rows: list[Sparse], n_cols: int) -> list[Sparse]:
    """Nonzero rows of the row Hermite form of sparse rows (consumed), in pivot order.

    After ``_echelon``, each pivot in turn is made positive and the entries
    above it, the other rows nonzero in its column, are reduced into
    [0, pivot).
    """
    pivots, at = _echelon(rows, n_cols)
    for j, p in pivots:
        pivot = rows[p]
        if pivot[j] < 0:
            for c in pivot:
                pivot[c] = -pivot[c]
        for i in [i for i in at[j] if i != p]:
            k = rows[i][j] // pivot[j]
            if k:
                _addmul(rows[i], pivot, -k, i, at)
    return [rows[p] for _, p in pivots]


class MonomialBasis(_Record):
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

    _fields = ("arrow_order", "vectors", "cell_dimension")

    def __init__(
        self, arrow_order: tuple[str, ...], cell_dimension: int, nonzeros: tuple[Mapping[int, int], ...]
    ) -> None:
        _setfield(self, "arrow_order", arrow_order)
        _setfield(self, "cell_dimension", cell_dimension)
        _setfield(self, "nonzeros", nonzeros)

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        n, out = len(self.arrow_order), []
        for row in self.nonzeros:
            dense = [0] * n
            for i, x in row.items():
                dense[i] = x
            out.append(tuple(dense))
        return tuple(out)


def invariant_monomial_basis(action: WeightedToricAction) -> MonomialBasis:
    """Exact basis of the exponent vectors killed by the transposed weights.

    Arrow k gives the augmented row of its weight column (mu at its head,
    -nu at its tail) followed by the unit vector e_k.  ``_echelon`` on the
    vertex columns gives the rank as its pivot count, and the rows never
    pivoted carry, in their unit part, a basis of the kernel, saturated
    because the steps are unimodular.  That basis is then put in row
    Hermite form with positive leading entries, which for a saturated
    lattice is unique, so equal actions always produce identical output.

    Among the live rows of smallest |entry|, the elimination's base is the
    one with the largest arrow index.  That choice changes only the speed:
    with unit weights the pivots then grow a spanning forest greedily from
    the last arrow, and each kernel vector is the fundamental cycle of one
    non-tree arrow (+1 there, +-1 on later tree arrows), already the
    Hermite form up to row order.
    """
    q = action.quiver
    n_vertices, names = q.n_vertices, tuple(a.name for a in q.arrows)
    rows: list[Sparse] = []
    for k, (name, t, h) in enumerate(zip(names, q.tail_rows, q.head_rows)):
        row = {h: action.mu[name]}
        row[t] = row.get(t, 0) - action.nu[name]
        row = {r: x for r, x in row.items() if x}
        row[n_vertices + k] = 1
        rows.append(row)
    pivoted = {p for _, p in _echelon(rows, n_vertices)[0]}
    kernel = [{i - n_vertices: x for i, x in row.items()} for k, row in enumerate(rows) if k not in pivoted]
    return MonomialBasis(names, len(names) - len(pivoted), tuple(_hermite(kernel, len(names))))


# the largest |ratio - 1| of a monomial before and after a sampled gauge that counts as invariant
_INVARIANCE_TOL = 1e-9


def check_invariance(
    action: WeightedToricAction,
    exponents: Sequence[int],
    trials: int = 20,
    seed: int = 0,
) -> bool:
    """Numerically test invariance of a monomial under the weighted action.

    Samples random nonzero scalar gauges (moduli kept in [1/2, 2]) and
    measures the relative change of the monomial.  The ratio after/before is
    the gauge monomial prod_v g_v^c_v, where the character c_v (the summed
    mu-weighted exponents of the arrows into v minus the nu-weighted ones of
    the arrows out of v) is computed in integers first; so the ratio is
    accumulated in log space as sum_v c_v log g_v, exactly 0 for an invariant
    monomial at any weight or exponent size, and safe from overflow.
    Non-kernel exponent vectors are rejected with overwhelming probability
    per trial.  ``trials`` must be at least 1, and every exponent an integer
    (by ``quiver._integer``).
    """
    q = action.quiver
    if len(exponents) != q.n_arrows:
        raise ValueError("exponent vector length must match the arrow count")
    powers = [_integer(e) for e in exponents]
    if None in powers:
        raise ValueError(f"exponents must be integers, got {exponents[powers.index(None)]!r}")
    import numpy as np

    from .matrices import _checked_count

    trials = _checked_count(trials, "trials", positive=True)
    rng = np.random.default_rng(_checked_count(seed, "seed"))

    character = dict.fromkeys(q.vertices, 0)
    for a, e in zip(q.arrows, powers):
        character[a.head] += e * action.mu[a.name]
        character[a.tail] -= e * action.nu[a.name]
    for _ in range(trials):
        log_ratio = 0j
        for v in q.vertices:
            modulus = rng.uniform(0.5, 2.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            log_ratio += character[v] * np.log(complex(modulus * np.exp(1j * phase)))
        if abs(log_ratio.real) > 50.0:
            return False
        if abs(np.exp(log_ratio) - 1.0) > _INVARIANCE_TOL:
            return False
    return True
