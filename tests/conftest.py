"""Shared quiver constructors, randomized generators, hypothesis tooling and a fresh-process runner."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

import quivergauge
from quivergauge import Arrow, GroupSpec, Quiver, RelationSet, Word

SRC = Path(quivergauge.__file__).resolve().parents[1]

# Property tests are deterministic (same examples every run) and untimed;
# modules with costly examples derive from it: settings(PROPERTY, max_examples=...).
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def python(*args: str, **options) -> subprocess.CompletedProcess:
    """Run this interpreter on ``args`` with the tested sources first on PYTHONPATH.

    Stdout and stderr are captured as text unless ``options`` say otherwise.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, "timeout": 60, **options}
    return subprocess.run([sys.executable, *args], env=env, **options)


def one_arrow() -> Quiver:
    return Quiver(("v0", "v1"), (("a0", "v0", "v1"),))


def one_loop() -> Quiver:
    return Quiver(("v0",), (("l0", "v0", "v0"),))


def rose(loops: int) -> Quiver:
    return Quiver(("v0",), tuple((f"l{i}", "v0", "v0") for i in range(loops)))


def theta() -> Quiver:
    return Quiver(("v0", "v1"), (("a0", "v0", "v1"), ("a1", "v0", "v1"), ("a2", "v0", "v1")))


def triangle() -> tuple[Quiver, RelationSet]:
    q = Quiver(
        ("v0", "v1", "v2"),
        (("a0", "v0", "v1"), ("a1", "v1", "v2"), ("a2", "v2", "v0")),
    )
    return q, RelationSet((Word.from_arrow_names(("a2", "a1", "a0")),))


def long_loop(m: int) -> Quiver:
    vertices = tuple(f"v{i}" for i in range(m))
    arrows = tuple((f"a{i}", f"v{i}", f"v{(i + 1) % m}") for i in range(m))
    return Quiver(vertices, arrows)


def long_path(m: int) -> Quiver:
    vertices = tuple(f"v{i}" for i in range(m + 1))
    arrows = tuple((f"a{i}", f"v{i}", f"v{i + 1}") for i in range(m))
    return Quiver(vertices, arrows)


def two_cycle() -> Quiver:
    return Quiver(("v0", "v1"), (("a0", "v0", "v1"), ("a1", "v1", "v0")))


def bridge_two_cycles() -> Quiver:
    """No ends, but not strongly connected: no directed path back over the bridge."""
    return Quiver(
        ("u0", "u1", "w0", "w1"),
        (
            ("br", "u0", "w0"),
            ("c0", "u0", "u1"),
            ("c1", "u1", "u0"),
            ("d0", "w0", "w1"),
            ("d1", "w1", "w0"),
        ),
    )


def comet(loop_len: int = 3, tail_len: int = 2) -> Quiver:
    """A directed cycle with a path attached: reduces to a single loop."""
    vertices = [f"v{i}" for i in range(loop_len)]
    arrows = [(f"a{i}", f"v{i}", f"v{(i + 1) % loop_len}") for i in range(loop_len)]
    for j in range(tail_len):
        vertices.append(f"t{j}")
        src = f"t{j - 1}" if j else "v0"
        arrows.append((f"p{j}", src, f"t{j}"))
    return Quiver(tuple(vertices), tuple(arrows))


def nine_class_quiver() -> Quiver:
    """A quiver realizing every local arrow class around the collapsed arrow a0.

    t/h are the endpoints of a0; p and q carry the outside arrows, including
    one (e) disjoint from both endpoints.
    """
    return Quiver(
        ("t", "h", "p", "q"),
        (
            ("a0", "t", "h"),
            ("a_plus", "p", "t"),
            ("a_minus", "t", "p"),
            ("b", "t", "t"),
            ("f_plus", "t", "h"),
            ("f_minus", "h", "t"),
            ("c", "h", "h"),
            ("d_plus", "h", "q"),
            ("d_minus", "q", "h"),
            ("e", "p", "q"),
        ),
    )


def random_connected_quiver(
    rng: np.random.Generator, max_vertices: int = 8, max_arrows: int = 14
) -> Quiver:
    """Random connected quiver: a random spanning tree plus extra arrows."""
    nv = int(rng.integers(1, max_vertices + 1))
    vertices = tuple(f"v{i}" for i in range(nv))
    arrows: list[tuple[str, str, str]] = []
    for i in range(1, nv):
        j = int(rng.integers(0, i))
        u, w = (f"v{j}", f"v{i}") if rng.integers(0, 2) else (f"v{i}", f"v{j}")
        arrows.append((f"a{len(arrows)}", u, w))
    budget = max_arrows - len(arrows)
    extra = int(rng.integers(0, budget + 1)) if budget > 0 else 0
    for _ in range(extra):
        u = f"v{int(rng.integers(0, nv))}"
        w = f"v{int(rng.integers(0, nv))}"
        arrows.append((f"a{len(arrows)}", u, w))
    return Quiver(vertices, tuple(arrows))


def tree_plus_extras(n_vertices: int, n_arrows: int, seed: int) -> Quiver:
    """Random spanning tree (a0 .. a<V-2>, away from v0) plus uniform extra arrows: loops and parallels occur."""
    rng = np.random.default_rng(seed)
    vs = [f"v{i}" for i in range(n_vertices)]
    ends = [(vs[int(rng.integers(i))], vs[i]) for i in range(1, n_vertices)]
    ends += [(vs[int(rng.integers(n_vertices))], vs[int(rng.integers(n_vertices))]) for _ in range(n_arrows - len(ends))]
    return Quiver(tuple(vs), tuple((f"a{i}", t, h) for i, (t, h) in enumerate(ends)))


def cycle_plus_extras(n_vertices: int, n_arrows: int, seed: int) -> Quiver:
    """Random Hamiltonian cycle (a0 .. a<V-1>) plus uniform extra arrows: loops and parallels occur."""
    rng = np.random.default_rng(seed)
    vs = [f"v{i}" for i in range(n_vertices)]
    order = [vs[i] for i in rng.permutation(n_vertices)]
    ends = [(order[i], order[(i + 1) % n_vertices]) for i in range(n_vertices)]
    ends += [(vs[int(rng.integers(n_vertices))], vs[int(rng.integers(n_vertices))]) for _ in range(n_arrows - len(ends))]
    return Quiver(tuple(vs), tuple((f"a{i}", t, h) for i, (t, h) in enumerate(ends)))


def is_row_hermite(rows) -> bool:
    """Positive pivots in strictly increasing columns, reduced entries above, no zero rows."""
    last = -1
    for i, row in enumerate(rows):
        col = next((j for j, x in enumerate(row) if x != 0), None)
        if col is None or col <= last or row[col] <= 0:
            return False
        if any(not 0 <= rows[k][col] < row[col] for k in range(i)):
            return False
        last = col
    return True


def random_tree(rng: np.random.Generator, max_vertices: int = 8) -> Quiver:
    nv = int(rng.integers(2, max_vertices + 1))
    vertices = tuple(f"v{i}" for i in range(nv))
    arrows = []
    for i in range(1, nv):
        j = int(rng.integers(0, i))
        u, w = (f"v{j}", f"v{i}") if rng.integers(0, 2) else (f"v{i}", f"v{j}")
        arrows.append((f"a{len(arrows)}", u, w))
    return Quiver(vertices, tuple(arrows))


def random_strongly_connected_quiver(
    rng: np.random.Generator, max_vertices: int = 7, max_extra: int = 6
) -> Quiver:
    """A directed cycle through every vertex plus random extra arrows."""
    nv = int(rng.integers(1, max_vertices + 1))
    vertices = tuple(f"v{i}" for i in range(nv))
    arrows = [(f"a{i}", f"v{i}", f"v{(i + 1) % nv}") for i in range(nv)]
    for _ in range(int(rng.integers(0, max_extra + 1))):
        u = f"v{int(rng.integers(0, nv))}"
        w = f"v{int(rng.integers(0, nv))}"
        arrows.append((f"a{len(arrows)}", u, w))
    return Quiver(vertices, tuple(arrows))


def random_quiver_with_ends(rng: np.random.Generator) -> Quiver:
    """Random connected quiver guaranteed to have at least one end."""
    from quivergauge import ends

    q = random_connected_quiver(rng, max_vertices=6, max_arrows=10)
    if ends(q):
        return q
    vertices = q.vertices + ("pend",)
    arrows = tuple((a.name, a.tail, a.head) for a in q.arrows) + (("pendarrow", q.vertices[0], "pend"),)
    return Quiver(vertices, arrows)


@st.composite
def quivers(draw, max_vertices: int = 100) -> Quiver:
    """Connected quiver: random tree, extra arrows, a loop and a parallel pair.

    Vertices and arrows are listed in shuffled order, so quiver order is not
    the order of the ids.
    """
    nv = draw(st.integers(1, max_vertices))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vs = [f"v{i}" for i in range(nv)]
    ends = []
    for i in range(1, nv):
        j = int(rng.integers(i))
        ends.append((vs[i], vs[j]) if rng.integers(2) else (vs[j], vs[i]))
    for _ in range(draw(st.integers(0, nv))):
        ends.append((vs[int(rng.integers(nv))], vs[int(rng.integers(nv))]))
    ends.append((vs[int(rng.integers(nv))],) * 2)
    ends.append(ends[int(rng.integers(len(ends)))])
    arrows = [Arrow(f"a{i}", t, h) for i, (t, h) in enumerate(ends)]
    return Quiver(
        tuple(vs[i] for i in rng.permutation(nv)),
        tuple(arrows[i] for i in rng.permutation(len(arrows))),
    )


GL2 = GroupSpec("GL", 2)
GL3 = GroupSpec("GL", 3)
SL2 = GroupSpec("SL", 2)
SL3 = GroupSpec("SL", 3)
U2 = GroupSpec("U", 2)
SU2 = GroupSpec("SU", 2)
SU3 = GroupSpec("SU", 3)
