"""Properties that fix the toric basis uniquely, at up to 100 vertices.

For connected quivers with up to 100 vertices and about 200 arrows, with
default weights and with random weights in 0..3, the basis must lie exactly
in the kernel, be in row Hermite form, have A - rank vectors, and be
saturated (every invariant factor 1).  The Hermite form of a saturated
lattice is unique, so any kernel algorithm that passes gives the same output.
The ``toric`` command's stdout is checked against the standard library's C
JSON encoder applied to the dense vectors, and ``reverse`` must negate the
reversed arrows' coordinates of the lattice.
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from quivergauge import Quiver, document_for, invariant_monomial_basis, parse, print_document, weight_matrix
from quivergauge.cli import main

from conftest import PROPERTY, is_row_hermite, one_arrow, one_loop, quivers, theta, tree_plus_extras

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


def _weights(q: Quiver, seed: int | None, high: int) -> tuple[dict | None, dict | None]:
    """Random weights in 0..high, or None (no weights section: all 1) without a seed."""
    names = [a.name for a in q.arrows]
    if seed is None:
        return None, None
    rng = np.random.default_rng(seed)
    return tuple({n: int(w) for n, w in zip(names, rng.integers(0, high + 1, len(names)))} for _ in range(2))


@settings(PROPERTY, max_examples=30)
@given(quivers(max_vertices=40), weight_seeds)
@example(Quiver(("v0",), ()), None)  # no arrows
@example(one_arrow(), None)  # a tree: empty basis
@example(one_loop(), None)  # a single loop: the basis [1]
@example(one_loop(), 3)  # a single loop with unequal weights: empty basis
@example(theta(), 0)  # entries (47, -99, -23) and the like: negative, multi-digit
@example(tree_plus_extras(12, 20, 3), 5)
def test_toric_stdout_is_the_c_encoder_text_of_the_dense_vectors(q, weight_seed):
    mu, nu = _weights(q, weight_seed, 12)
    text = print_document(document_for(q, mu=mu, nu=nu))
    doc = parse(text)
    basis = invariant_monomial_basis(weight_matrix(doc.quiver, *doc.effective_weights()))
    assert json.encoder.c_make_encoder is not None
    expected = (
        "{\n"
        f'  "arrow_order": {json.dumps(list(basis.arrow_order))},\n'
        f'  "cell_dimension": {json.dumps(basis.cell_dimension)},\n'
        f'  "vectors": {json.dumps([list(v) for v in basis.vectors])}\n'
        "}\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "q.quiver"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["toric", str(path)]) == 0
    assert out.getvalue() == expected


@settings(PROPERTY, max_examples=30)
@given(quivers(max_vertices=30), st.integers(0, 2**32 - 1))
@example(theta(), 5)
def test_reverse_negates_the_reversed_coordinates_of_the_toric_lattice(q, seed):
    # a reversed arrow with swapped weights has the negated character row, mu e_head - nu e_tail
    mu, nu = _weights(q, seed, 3)
    rng = np.random.default_rng([seed, 1])
    flipped = {a.name for a in q.arrows if rng.integers(2)} or {q.arrows[0].name}
    text = print_document(document_for(q, mu=mu, nu=nu))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "q.quiver"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["reverse", str(path), "--arrows", *sorted(flipped)]) == 0
    before, after = (parse(t) for t in (text, out.getvalue()))
    assert [a.name for a in after.quiver.arrows] == [a.name for a in before.quiver.arrows]
    old, new = (invariant_monomial_basis(weight_matrix(d.quiver, *d.effective_weights())) for d in (before, after))
    assert new.cell_dimension == old.cell_dimension
    # two saturated lattices of one rank are equal when their rows span one space: the stacked rank is that rank
    signs = [-1 if name in flipped else 1 for name in old.arrow_order]
    negated = [[s * x for s, x in zip(signs, v)] for v in old.vectors]
    both = negated + [list(v) for v in new.vectors]
    assert DomainMatrix.from_list_sympy(len(both), q.n_arrows, both).rank() == new.cell_dimension
