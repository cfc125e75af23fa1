"""Properties that fix the toric basis uniquely, at up to 100 vertices.

For connected quivers with up to 100 vertices and about 200 arrows, with
default weights and with random weights in 0..3, the basis must lie exactly
in the kernel, be in row Hermite form, have A - rank vectors, and be
saturated (every invariant factor 1).  The Hermite form of a saturated
lattice is unique, so any kernel algorithm that passes gives the same output.
"""

import numpy as np
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from quivergauge import invariant_monomial_basis, weight_matrix

from conftest import PROPERTY, is_row_hermite, quivers, tree_plus_extras

weight_seeds = st.one_of(st.none(), st.integers(0, 2**32 - 1))


@settings(PROPERTY, max_examples=10)
@given(quivers(max_vertices=100), weight_seeds)
@example(tree_plus_extras(100, 200, 0), None)
@example(tree_plus_extras(100, 200, 1), 7)
def test_toric_basis_is_the_hermite_form_of_the_saturated_kernel(q, weight_seed):
    names = [a.name for a in q.arrows]
    if weight_seed is None:
        mu = nu = {n: 1 for n in names}
    else:
        rng = np.random.default_rng(weight_seed)
        mu, nu = ({n: int(w) for n, w in zip(names, rng.integers(0, 4, len(names)))} for _ in range(2))
    action = weight_matrix(q, mu, nu)
    basis = invariant_monomial_basis(action)
    vectors = [list(v) for v in basis.vectors]

    assert basis.arrow_order == tuple(names)
    for v in vectors:
        assert all(sum(row[c] * x for row, x in zip(action.matrix, v)) == 0 for c in range(q.n_vertices))
    assert is_row_hermite(vectors)
    rank = DomainMatrix.from_list_sympy(q.n_arrows, q.n_vertices, action.matrix).rank()
    assert len(vectors) == basis.cell_dimension == q.n_arrows - rank
    if vectors:
        snf = smith_normal_form(sympy.Matrix(vectors))
        assert [abs(snf[i, i]) for i in range(len(vectors))] == [1] * len(vectors)
