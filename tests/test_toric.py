"""Weight matrices and the exact invariant-monomial lattice."""

import re

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from quivergauge import (
    Quiver,
    check_invariance,
    invariant_monomial_basis,
    weight_matrix,
)
from quivergauge.toric import _echelon, _hermite
from conftest import (
    cycle_plus_extras,
    is_row_hermite,
    one_arrow,
    one_loop,
    random_connected_quiver,
    tree_plus_extras,
    two_cycle,
)


# Dense adapters over the sparse engine, so it can be checked on general integer matrices.


def integer_kernel(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], int]:
    """A saturated basis of {m : rows . m = 0} and the rank of ``rows``, by ``_echelon``.

    Column c of ``rows``, augmented by e_c, is row c of the elimination;
    only the ``len(rows)`` columns of ``rows`` are eliminated.
    """
    nr = len(rows)
    augmented = [{r: row[c] for r, row in enumerate(rows) if row[c]} | {nr + c: 1} for c in range(ncols)]
    pivoted = {p for _, p in _echelon(augmented, nr)[0]}
    basis = [[row.get(nr + c, 0) for c in range(ncols)] for i, row in enumerate(augmented) if i not in pivoted]
    return basis, len(pivoted)


def hermite_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite form by ``_hermite``: its pivot rows, then one zero row per lost rank."""
    ncols = len(rows[0]) if rows else 0
    reduced = _hermite([{j: x for j, x in enumerate(row) if x} for row in rows], ncols)
    zeros = [[0] * ncols for _ in range(len(rows) - len(reduced))]
    return [[row.get(j, 0) for j in range(ncols)] for row in reduced] + zeros


def double_arrow():
    return Quiver(("v0", "v1"), (("a0", "v0", "v1"), ("a1", "v0", "v1")))


def ones(q):
    return {a.name: 1 for a in q.arrows}


def test_weight_matrix_rows():
    q = one_arrow()
    w = weight_matrix(q, ones(q), ones(q))
    assert w.matrix == ((-1, 1),)

    q = one_loop()
    w = weight_matrix(q, ones(q), ones(q))
    assert w.matrix == ((0,),)

    q = double_arrow()
    w = weight_matrix(q, ones(q), ones(q))
    assert w.matrix == ((-1, 1), (-1, 1))

    q = one_loop()
    w = weight_matrix(q, {"l0": 5}, {"l0": 2})
    assert w.matrix == ((3,),)


def test_weight_matrix_validation():
    q = one_arrow()
    with pytest.raises(ValueError):
        weight_matrix(q, {}, ones(q))
    with pytest.raises(ValueError):
        weight_matrix(q, {"a0": -1}, ones(q))
    with pytest.raises(ValueError):
        weight_matrix(q, {"a0": 10**7}, ones(q))


def test_one_weight_rule_refuses_fractional_and_negative_weights():
    # 1.5 and 0.7 used to truncate to (1, 0) in weight_matrix, and the action
    # class took -3 as is; all three entries now share one rule
    from quivergauge import GroupSpec, WeightedToricAction, random_gauge, random_representation, weighted_act

    q = one_arrow()
    torus = GroupSpec("TORUS", 1)
    f, g = random_representation(q, torus, 0), random_gauge(q, torus, 0)
    for mu, nu in (({"a0": 1.5}, {"a0": 0.7}), ({"a0": -3}, {"a0": 2}), ({"a0": 1}, {"a0": -1})):
        for build in (weight_matrix, WeightedToricAction, lambda q, mu, nu: weighted_act(g, f, mu, nu)):
            with pytest.raises(ValueError, match="^weights must be non-negative integers$"):
                build(q, mu, nu)
    with pytest.raises(ValueError, match="exceeds the cap"):
        weighted_act(g, f, {"a0": 10**6 + 1}, {"a0": 0})
    assert WeightedToricAction(q, {"a0": np.int64(2)}, {"a0": True}).matrix == ((-1, 2),)


def test_monomial_basis_double_arrow():
    q = double_arrow()
    basis = invariant_monomial_basis(weight_matrix(q, ones(q), ones(q)))
    assert basis.vectors == ((1, -1),)
    assert basis.cell_dimension == 1
    assert basis.arrow_order == ("a0", "a1")
    # equality, hash and repr read the dense vectors, not the stored sparse rows
    again = invariant_monomial_basis(weight_matrix(q, ones(q), ones(q)))
    assert basis == again and basis is not again
    assert hash(basis) == hash(again) == hash((("a0", "a1"), ((1, -1),), 1))
    assert repr(basis) == "MonomialBasis(arrow_order=('a0', 'a1'), vectors=((1, -1),), cell_dimension=1)"
    assert basis != invariant_monomial_basis(weight_matrix(q, {"a0": 2, "a1": 1}, ones(q)))
    assert basis != (("a0", "a1"), ((1, -1),), 1)


def test_monomial_basis_loop_and_arrow():
    q = one_loop()
    basis = invariant_monomial_basis(weight_matrix(q, ones(q), ones(q)))
    assert basis.vectors == ((1,),)
    assert basis.cell_dimension == 1

    q = one_arrow()
    basis = invariant_monomial_basis(weight_matrix(q, ones(q), ones(q)))
    assert basis.vectors == ()
    assert basis.cell_dimension == 0


def _random_action(rng):
    q = random_connected_quiver(rng, max_vertices=5, max_arrows=8)
    mu = {a.name: int(rng.integers(0, 21)) for a in q.arrows}
    nu = {a.name: int(rng.integers(0, 21)) for a in q.arrows}
    return weight_matrix(q, mu, nu)


def test_kernel_exactness_randomized():
    rng = np.random.default_rng(1)
    for _ in range(50):
        action = _random_action(rng)
        basis = invariant_monomial_basis(action)
        n_arrows = action.quiver.n_arrows
        for vec in basis.vectors:
            for v_index in range(action.quiver.n_vertices):
                acc = sum(action.matrix[a][v_index] * vec[a] for a in range(n_arrows))
                assert acc == 0  # exact integer arithmetic, no tolerance


def test_kernel_matches_sympy_nullspace_and_is_saturated():
    rng = np.random.default_rng(2)
    for _ in range(25):
        action = _random_action(rng)
        basis = invariant_monomial_basis(action)
        transposed = sympy.Matrix(
            [
                [action.matrix[a][v] for a in range(action.quiver.n_arrows)]
                for v in range(action.quiver.n_vertices)
            ]
        )
        null = transposed.nullspace()
        assert len(null) == len(basis.vectors)
        assert basis.cell_dimension == action.quiver.n_arrows - transposed.rank()
        if basis.vectors:
            kernel_matrix = sympy.Matrix([list(v) for v in basis.vectors])
            # every sympy nullspace vector must be a rational combination
            for vec in null:
                sol, params = kernel_matrix.T.gauss_jordan_solve(vec)
                assert params.shape[1] == 0 or sol is not None
            # saturation: invariant factors of the basis matrix are all 1
            snf = smith_normal_form(kernel_matrix)
            diag = [snf[i, i] for i in range(min(snf.shape))]
            assert all(abs(d) == 1 for d in diag if d != 0)
            assert sum(1 for d in diag if d != 0) == len(basis.vectors)


def test_kernel_membership_integer_combinations():
    # integer vectors in the kernel must be integer combinations of the basis
    rng = np.random.default_rng(3)
    for _ in range(25):
        action = _random_action(rng)
        basis = invariant_monomial_basis(action)
        if not basis.vectors:
            continue
        coeffs = rng.integers(-5, 6, size=len(basis.vectors))
        combo = [
            int(sum(c * v[i] for c, v in zip(coeffs, basis.vectors)))
            for i in range(action.quiver.n_arrows)
        ]
        kernel_matrix = sympy.Matrix([list(v) for v in basis.vectors]).T
        sol, params = kernel_matrix.gauss_jordan_solve(sympy.Matrix(combo))
        free = {s: 0 for s in params}
        solved = sol.xreplace(free)
        assert all(value == sympy.Integer(int(value)) for value in solved)


def test_integer_kernel_general_matrices_vs_sympy():
    rng = np.random.default_rng(8)
    for _ in range(60):
        nr = int(rng.integers(1, 5))
        nc = int(rng.integers(1, 6))
        mat = [[int(rng.integers(-9, 10)) for _ in range(nc)] for _ in range(nr)]
        basis, rank = integer_kernel(mat, nc)
        sm = sympy.Matrix(nr, nc, lambda i, j: mat[i][j])
        assert rank == sm.rank()
        assert len(basis) == nc - rank
        for vec in basis:
            assert all(
                sum(mat[r][c] * vec[c] for c in range(nc)) == 0 for r in range(nr)
            )
        if basis:
            snf = smith_normal_form(sympy.Matrix(basis))
            diag = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i] != 0]
            assert diag == [1] * len(basis)  # saturated


def test_integer_kernel_empty_cases():
    basis, rank = integer_kernel([], 3)
    assert rank == 0 and len(basis) == 3
    basis, rank = integer_kernel([[0, 0]], 2)
    assert rank == 0 and len(basis) == 2
    basis, rank = integer_kernel([[1, 0], [0, 1]], 2)
    assert rank == 2 and basis == []


def test_hermite_rows_canonical():
    assert hermite_rows([[-1, 1]]) == [[1, -1]]
    assert hermite_rows([[2, 4], [1, 3]]) == [[1, 1], [0, 2]]
    assert hermite_rows([]) == []
    assert hermite_rows([[1, 2], [2, 4]]) == [[1, 2], [0, 0]]


def test_check_invariance_accepts_kernel_rejects_others():
    q = double_arrow()
    action = weight_matrix(q, ones(q), ones(q))
    assert check_invariance(action, (1, -1), trials=20, seed=0)
    assert check_invariance(action, (0, 0), trials=5, seed=0)
    assert not check_invariance(action, (1, 0), trials=5, seed=0)
    with pytest.raises(ValueError):
        check_invariance(action, (1,), trials=1, seed=0)


def test_check_invariance_accepts_the_basis_at_the_weight_cap():
    # summed per-arrow float logs left about 2e-4 of rounding here; the integer character is exactly 0
    q = Quiver(("v0", "v1"), (("a", "v0", "v1"), ("b", "v0", "v1"), ("c", "v0", "v1")))
    weights = {"a": 1, "b": 10**6, "c": 10**6 - 1}
    action = weight_matrix(q, weights, dict(weights))
    basis = invariant_monomial_basis(action)
    assert basis.vectors == ((1, 999998, -999999), (0, 999999, -1000000))
    for vec in basis.vectors:
        assert all(check_invariance(action, vec, seed=seed) for seed in range(5))
    assert not check_invariance(action, (1, 999998, -999998))


def test_check_invariance_refuses_a_negative_seed():
    q = one_loop()
    action = weight_matrix(q, ones(q), ones(q))
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        check_invariance(action, (1,), seed=-1)
    for seed in (1.5, None, "1"):
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed!r}$"):
            check_invariance(action, (1,), seed=seed)
    # no trial would accept the non-invariant monomial of one arrow v0 -> v1 unchecked
    action = weight_matrix(one_arrow(), ones(one_arrow()), ones(one_arrow()))
    assert not check_invariance(action, (1,), trials=1)
    for trials in (0, -3, 2.5):
        with pytest.raises(ValueError, match=f"^trials must be a positive integer, got {trials}$"):
            check_invariance(action, (1,), trials=trials)


def test_check_invariance_refuses_a_non_integer_exponent():
    # int(0.5) is 0, so a truncating check would call the monomial of one arrow v0 -> v1 invariant
    action = weight_matrix(one_arrow(), ones(one_arrow()), ones(one_arrow()))
    for exponent in (0.5, "1", None):
        with pytest.raises(ValueError, match=f"^exponents must be integers, got {re.escape(repr(exponent))}$"):
            check_invariance(action, (exponent,))
    assert check_invariance(action, (np.int64(0),), trials=1)


def test_check_invariance_randomized_agreement():
    rng = np.random.default_rng(4)
    for _ in range(10):
        action = _random_action(rng)
        basis = invariant_monomial_basis(action)
        for vec in basis.vectors[:3]:
            assert check_invariance(action, vec, trials=10, seed=int(rng.integers(2**32)))
        n = action.quiver.n_arrows
        if n == 0:
            continue
        planted = list(rng.integers(-3, 4, size=n))
        in_kernel = all(
            sum(action.matrix[a][v] * planted[a] for a in range(n)) == 0
            for v in range(action.quiver.n_vertices)
        )
        if not in_kernel:
            assert not check_invariance(action, planted, trials=8, seed=7)


def test_scalar_weighted_action_law_exact():
    # scalar gauges compose exactly under the weighted action: weighted_act on TORUS
    from quivergauge import GaugeElement, GroupSpec, Representation, weighted_act

    q = two_cycle()
    torus = GroupSpec("TORUS", 1)
    mu, nu = {"a0": 3, "a1": 2}, {"a0": 1, "a1": 5}
    rng = np.random.default_rng(5)

    def scalars(names):
        return {k: np.array([[complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))]]) for k in names}

    for _ in range(20):
        f = Representation(q, torus, scalars(a.name for a in q.arrows))
        g1, g2 = (GaugeElement(q, torus, scalars(q.vertices)) for _ in range(2))
        lhs = weighted_act(g1, weighted_act(g2, f, mu, nu), mu, nu)
        rhs = weighted_act(g1.compose(g2), f, mu, nu)
        assert np.all(abs(lhs.stack - rhs.stack) <= 1e-12 * np.maximum(1.0, abs(rhs.stack)))


def fundamental_cycles_from_last_arrow(q):
    """Oracle for unit weights: one row per non-tree arrow, ascending.

    The forest grows greedily from the last arrow (a union-find keeps an
    arrow unless its ends are already joined).  A non-tree arrow's row is
    its fundamental cycle: +1 at the arrow, and +-1 on the tree path from its
    head back to its tail, by the direction each tree arrow is walked.
    Every tree arrow on that path comes later, so the rows are in Hermite form.
    """
    tails, heads = q.tails.tolist(), q.heads.tolist()
    root = list(range(q.n_vertices))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    tree = [[] for _ in q.vertices]
    non_tree = []
    for a in reversed(range(q.n_arrows)):
        t, h = find(tails[a]), find(heads[a])
        if t == h:
            non_tree.append(a)
        else:
            root[t] = h
            tree[tails[a]].append((heads[a], a, 1))
            tree[heads[a]].append((tails[a], a, -1))
    rows = []
    for a in sorted(non_tree):
        step = {heads[a]: None}  # vertex -> (previous vertex, tree arrow, sign) from the head
        queue = [heads[a]]
        for v in queue:
            for w, b, sign in tree[v]:
                if w not in step:
                    step[w] = (v, b, sign)
                    queue.append(w)
        row = [0] * q.n_arrows
        row[a] = 1
        v = tails[a]
        while step[v] is not None:
            v, b, sign = step[v]
            row[b] += sign
        rows.append(tuple(row))
    return tuple(rows)


def disconnected_quiver():
    """A tree-plus-extras and a cycle-plus-extras piece side by side, plus an antiparallel pair and a loop."""
    left, right = tree_plus_extras(30, 60, 4), cycle_plus_extras(20, 45, 5)
    vertices = tuple(f"L{v}" for v in left.vertices) + tuple(f"R{v}" for v in right.vertices)
    arrows = [(f"L{a.name}", f"L{a.tail}", f"L{a.head}") for a in left.arrows]
    arrows += [(f"R{a.name}", f"R{a.tail}", f"R{a.head}") for a in right.arrows]
    arrows += [("p0", "Lv3", "Lv7"), ("p1", "Lv7", "Lv3"), ("loop", "Rv2", "Rv2")]
    return Quiver(vertices, tuple(arrows))


def test_unit_weight_basis_is_the_fundamental_cycles_from_the_last_arrow():
    cases = [disconnected_quiver(), Quiver(("v0",), ())]
    for seed, size in enumerate((3, 10, 50, 400)):
        cases += [tree_plus_extras(size, 2 * size, seed), cycle_plus_extras(size, 2 * size, seed)]
    loops = parallels = 0
    for q in cases:
        basis = invariant_monomial_basis(weight_matrix(q, ones(q), ones(q)))
        expected = fundamental_cycles_from_last_arrow(q)
        assert basis.vectors == expected
        assert basis.cell_dimension == len(expected)
        ends = [(a.tail, a.head) for a in q.arrows]
        loops += sum(t == h for t, h in ends)
        parallels += len(ends) - len({frozenset(e) for e in ends})
    assert loops and parallels


def rank_mod_p(rows, p=2**31 - 1):
    """Rank over GF(p): a lower bound on the rational rank."""
    m = np.array(rows, dtype=np.int64) % p
    rank = 0
    for j in range(m.shape[1]):
        nonzero = np.flatnonzero(m[rank:, j])
        if not len(nonzero):
            continue
        m[[rank, rank + nonzero[0]]] = m[[rank + nonzero[0], rank]]
        m[rank] = m[rank] * pow(int(m[rank, j]), p - 2, p) % p
        below = rank + 1 + np.flatnonzero(m[rank + 1 :, j])
        m[below] = (m[below] - np.outer(m[below, j], m[rank]) % p) % p
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def test_random_weight_basis_at_400_vertices_exactly():
    q = tree_plus_extras(400, 800, 9)
    rng = np.random.default_rng(9)
    mu, nu = ({a.name: int(w) for a, w in zip(q.arrows, rng.integers(0, 4, q.n_arrows))} for _ in range(2))
    action = weight_matrix(q, mu, nu)
    basis = invariant_monomial_basis(action)
    names, tails, heads = basis.arrow_order, q.tails.tolist(), q.heads.tolist()
    for vec in basis.vectors:
        acc = [0] * q.n_vertices
        for a, x in enumerate(vec):
            if x:
                acc[heads[a]] += mu[names[a]] * x
                acc[tails[a]] -= nu[names[a]] * x
        assert not any(acc)
    assert is_row_hermite(basis.vectors)
    # independent kernel vectors number at most A - rank(Q) <= A - rank(GF(p)), so equality pins the count
    assert len(basis.vectors) == basis.cell_dimension == q.n_arrows - rank_mod_p(action.matrix)
