"""Round-trip properties of the document format on generated documents.

Documents have up to 30 vertices, loops, parallel arrows, relation cycles,
optional weights up to ``MAX_WEIGHT``, comments, and their declarations split
over repeated sections in shuffled order.  Parsing must recover the generated
quiver, relations and weights; printing and reparsing must reproduce the
document, and canonicalizing twice must change nothing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from quivergauge import canonicalize, parse, print_document
from quivergauge.toric import MAX_WEIGHT

from conftest import PROPERTY

VERTEX_PREFIXES = ("v", "w", "Node_", "_x")
ARROW_PREFIXES = ("a", "B", "e_", "_f")


@st.composite
def documents(draw, max_vertices: int = 30):
    """(text, expected) where expected holds the vertex set, arrow triples, words, weights."""
    nv = draw(st.integers(1, max_vertices))
    vertices = [f"{draw(st.sampled_from(VERTEX_PREFIXES))}{i}" for i in range(nv)]
    vertex = st.sampled_from(vertices)
    arrows: list[tuple[str, str, str]] = []

    def new_arrow(tail: str, head: str) -> str:
        name = f"{draw(st.sampled_from(ARROW_PREFIXES))}{len(arrows)}"
        arrows.append((name, tail, head))
        return name

    for _ in range(draw(st.integers(0, 2 * nv))):
        new_arrow(draw(vertex), draw(vertex))
    if arrows and draw(st.booleans()):
        _, tail, head = draw(st.sampled_from(arrows))
        new_arrow(tail, head)  # parallel to an existing arrow (a loop if that one is)
    words = []
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.lists(vertex, min_size=1, max_size=5))
        names = [new_arrow(t, h) for t, h in zip(path, path[1:] + path[:1])]
        words.append(tuple(reversed(names)))  # leftmost letter is applied last

    weights = None
    if arrows and draw(st.booleans()):
        chosen = draw(st.lists(st.sampled_from(arrows), min_size=1, unique=True))
        pair = st.tuples(st.integers(0, MAX_WEIGHT), st.integers(0, MAX_WEIGHT))
        weights = {name: draw(pair) for name, _, _ in chosen}

    pieces = [f"vertices: {' '.join(part)};" for part in _split(draw, vertices)]
    pieces += ["arrows: " + " ".join(f"{n}: {t} -> {h};" for n, t, h in part) for part in _split(draw, arrows)]
    pieces += [f"relations: {', '.join(' '.join(w) for w in part)};" for part in _split(draw, words)]
    if weights:
        entries = [f"{n}({m},{k})" for n, (m, k) in weights.items()]
        pieces += [f"weights: {' '.join(part)};" for part in _split(draw, entries)]
    pieces = draw(st.permutations(pieces))
    body = []
    for piece in pieces:
        if draw(st.booleans()):
            body.append("# a comment, with -> : ; punctuation")
        body.append(piece + draw(st.sampled_from(["", "  # trailing comment"])))
    name = draw(st.sampled_from([None, "Q", "doc_1"]))
    header = "quiver {" if name is None else f"quiver {name} {{"
    text = "\n".join([header, *body, "}"]) + draw(st.sampled_from(["", "\n", "\n# end\n"]))
    return text, (name, set(vertices), set(arrows), sorted(words), weights)


def _split(draw, items: list) -> list[list]:
    """Shuffle items into one or more non-empty consecutive groups."""
    if not items:
        return []
    items = draw(st.permutations(items))
    cuts = sorted(draw(st.sets(st.integers(1, len(items) - 1), max_size=3)) if len(items) > 1 else [])
    bounds = [0, *cuts, len(items)]
    return [items[i:j] for i, j in zip(bounds, bounds[1:])]


@settings(PROPERTY, max_examples=50)
@given(documents())
def test_parse_recovers_the_generated_document(generated):
    text, (name, vertices, arrows, words, weights) = generated
    doc = parse(text)
    assert doc.name == name
    assert list(doc.quiver.vertices) == sorted(vertices)
    assert {(a.name, a.tail, a.head) for a in doc.quiver.arrows} == arrows
    assert [w.arrow_names() for w in doc.relations.relations] == words
    if weights is None:
        assert doc.mu is None and doc.nu is None
    else:
        assert doc.mu == {n: weights.get(n, (1, 1))[0] for n, _, _ in arrows}
        assert doc.nu == {n: weights.get(n, (1, 1))[1] for n, _, _ in arrows}


@settings(PROPERTY, max_examples=50)
@given(documents())
def test_print_parse_round_trip_and_idempotent_canonical_form(generated):
    text, _ = generated
    doc = parse(text)
    printed = print_document(doc)
    assert parse(printed) == doc
    assert canonicalize(text) == printed
    assert canonicalize(printed) == printed
