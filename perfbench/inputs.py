"""Seeded quiver documents for the three workloads.

Every generator takes a ``random.Random`` and returns the document text;
the same seed always yields byte-identical text.  Arrow ``a<i>`` keeps the
generation index ``i`` so checks can recover the construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Sizes of the generated quivers, by workload.
LARGE_V, LARGE_A = 400, 800
GL3_V, GL3_A = 50, 150
SMALL_MAX_V = 8
MAX_RANDOM_WEIGHT = 3


@dataclass(frozen=True)
class Doc:
    """One generated document and the structure it was built from."""

    name: str
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]  # (name, tail, head)
    relations: tuple[tuple[str, ...], ...] = ()  # words, leftmost applied last
    weights: tuple[tuple[str, int, int], ...] | None = None  # (arrow, mu, nu)

    def text(self) -> str:
        lines = [f"quiver {self.name} {{", "  vertices: " + " ".join(self.vertices) + ";"]
        if self.arrows:
            lines.append("  arrows:")
            lines.extend(f"    {a}: {t} -> {h};" for a, t, h in self.arrows)
        if self.relations:
            lines.append("  relations: " + ", ".join(" ".join(w) for w in self.relations) + ";")
        if self.weights is not None:
            lines.append("  weights: " + " ".join(f"{a}({m},{n})" for a, m, n in self.weights) + ";")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def effective_weights(self) -> dict[str, tuple[int, int]]:
        if self.weights is None:
            return {a: (1, 1) for a, _, _ in self.arrows}
        return {a: (m, n) for a, m, n in self.weights}

    def with_random_weights(self, rng: random.Random) -> "Doc":
        weights = tuple(
            (a, rng.randint(0, MAX_RANDOM_WEIGHT), rng.randint(0, MAX_RANDOM_WEIGHT))
            for a, _, _ in self.arrows
        )
        return Doc(self.name + "W", self.vertices, self.arrows, self.relations, weights)


def _vertices(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


def _named(pairs: list[tuple[str, str]]) -> tuple[tuple[str, str, str], ...]:
    return tuple((f"a{i}", t, h) for i, (t, h) in enumerate(pairs))


def _uniform_extras(rng: random.Random, vs: list[str], count: int) -> list[tuple[str, str]]:
    """Arrows with independent uniform endpoints: loops and parallels allowed."""
    return [(rng.choice(vs), rng.choice(vs)) for _ in range(count)]


def tree_plus_extras(rng: random.Random, n_vertices: int, n_arrows: int, name: str = "T") -> Doc:
    """Connected quiver: a random spanning tree plus uniform extra arrows.

    Vertex i attaches to a uniformly chosen earlier vertex, with the arrow
    direction chosen by a coin flip.
    """
    vs = _vertices(n_vertices)
    pairs = []
    for i in range(1, n_vertices):
        j = rng.randrange(i)
        pairs.append((vs[i], vs[j]) if rng.random() < 0.5 else (vs[j], vs[i]))
    pairs += _uniform_extras(rng, vs, n_arrows - len(pairs))
    return Doc(name, tuple(vs), _named(pairs))


def cycle_plus_extras(rng: random.Random, n_vertices: int, n_arrows: int, name: str = "H") -> Doc:
    """Strongly connected quiver: a random Hamiltonian cycle plus uniform extras.

    Arrows a0 .. a<V-1> form the cycle in order.
    """
    vs = _vertices(n_vertices)
    order = vs[:]
    rng.shuffle(order)
    pairs = [(order[i], order[(i + 1) % n_vertices]) for i in range(n_vertices)]
    pairs += _uniform_extras(rng, vs, n_arrows - len(pairs))
    return Doc(name, tuple(vs), _named(pairs))


def _short_cycles(arrows) -> list[tuple[str, ...]]:
    """Loops and two-cycles of the quiver, as relation words."""
    words = [(a,) for a, t, h in arrows if t == h]
    for i, (a, t, h) in enumerate(arrows):
        for b, t2, h2 in arrows[i + 1 :]:
            if t != h and (t2, h2) == (h, t):
                words.append((b, a))  # a applies first, then b returns
    return words


def small_doc(rng: random.Random, name: str = "S") -> Doc:
    """Tiny connected document: 1-8 vertices, loops, parallels, relations, weights."""
    n_vertices = rng.randint(1, SMALL_MAX_V)
    n_extra = rng.randint(1 if n_vertices == 1 else 0, n_vertices + 2)
    doc = tree_plus_extras(rng, n_vertices, n_vertices - 1 + n_extra, name)
    cycles = _short_cycles(doc.arrows)
    relations = tuple(rng.sample(cycles, rng.randint(0, min(2, len(cycles)))))
    doc = Doc(doc.name, doc.vertices, doc.arrows, relations)
    if rng.random() < 0.4:
        doc = doc.with_random_weights(rng)
    return doc


def instance_rng(seed: int, workload: str, index: int) -> random.Random:
    """Independent generator for instance ``index`` of a workload under ``seed``."""
    return random.Random(f"{workload}/{seed}/{index}")
