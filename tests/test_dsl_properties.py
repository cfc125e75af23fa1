"""Round-trip properties of the document format on generated documents.

Documents have up to 30 vertices, loops, parallel arrows, relation cycles,
optional weights up to ``MAX_WEIGHT``, comments, and their declarations split
over repeated sections in shuffled order.  Parsing must recover the generated
quiver, relations and weights; printing and reparsing must reproduce the
document, and canonicalizing twice must change nothing.

Documents of up to 400 vertices are also written twice, once compactly and
once with random whitespace and comments between any two symbols, inside
arrow declarations and weight entries too (where the reader stops matching
whole declarations at the cursor and reads symbol by symbol).  Both must
parse to the same document, and an arrow whose tail is made undeclared must
be reported at the line:column of its declaration in the spaced text.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quivergauge import Quiver, QuiverDocument, canonicalize, document_for, parse, print_document
from quivergauge.dsl import Diagnostic, ParseError, Span
from quivergauge.quiver import MAX_WEIGHT

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


# No text weighs an arrowless quiver (a weights section needs an entry), but
# a rewrite that removes the last arrow of a weighted document builds one.
ARROWLESS_WEIGHTED = document_for(Quiver(("v0",), ()), mu={}, nu={})


@settings(PROPERTY, max_examples=50)
@given(documents().map(lambda generated: (generated[0], parse(generated[0]))))
@example((None, ARROWLESS_WEIGHTED))
def test_print_parse_round_trip_and_idempotent_canonical_form(source):
    text, doc = source
    printed = print_document(doc)
    # with no arrow, weights and no weights are the same document
    unweighted = QuiverDocument(doc.name, doc.quiver, doc.relations, None, None)
    assert parse(printed) == (doc if doc.quiver.arrows else unweighted)
    if text is not None:
        assert canonicalize(text) == printed
    assert canonicalize(printed) == printed


# Runs of spaces keep a declaration one token; tabs, newlines and comments split it.
GAPS = ("  ", "\t", "\n", "\n  ", " # note: a -> b; c(1,2)\n", "#\n", "\r\n")


def spaced_document(n_vertices: int, seed: int) -> tuple[str, str, dict[str, tuple[Span, int, str]]]:
    """(spaced text, compact text, arrows) of a random document.

    A spanning tree, up to as many extra arrows again, a loop, relations on
    the loop, and weights on a random subset of the arrows.  The compact
    text separates symbols by one space only where two words meet; the
    spaced text puts a random gap between a third of all symbol pairs.
    Sizes and seeds come from hypothesis and the text from ``random``, so
    documents of hundreds of declarations stay within hypothesis' data budget.
    ``arrows`` maps each arrow id to the span of its declaration in the
    spaced text, and the offset there and id of its tail.
    """
    rng = random.Random(seed)
    vertices = [f"v{i}" for i in range(n_vertices)]
    ends = [(vertices[rng.randrange(i)], v) if rng.random() < 0.5 else (v, vertices[rng.randrange(i)])
            for i, v in enumerate(vertices) if i]
    ends += [(rng.choice(vertices), rng.choice(vertices)) for _ in range(rng.randint(0, n_vertices))]
    loop = f"a{len(ends)}"
    ends.append((vertices[0], vertices[0]))
    arrows = [(f"a{i}", t, h) for i, (t, h) in enumerate(ends)]
    rng.shuffle(arrows)
    words = sorted({tuple([loop] * k) for k in rng.sample(range(1, 4), rng.randint(0, 3))})
    weighted = rng.sample(arrows, rng.randint(0, len(arrows)))
    weights = [(name, rng.randint(0, MAX_WEIGHT), rng.randint(0, 20)) for name, _, _ in weighted]

    spaced: list[str] = []
    compact: list[str] = []
    located: dict[str, tuple[int, int, str]] = {}
    size = 0
    previous = ""

    def put(*symbols: str) -> int:
        """Append each symbol after a gap; return the first one's offset in the spaced text."""
        nonlocal size, previous
        offsets = []
        for symbol in symbols:
            word = symbol[0].isalnum() or symbol[0] == "_"
            minimal = " " if word and (previous[-1:].isalnum() or previous[-1:] == "_") else ""
            gap = rng.choice(GAPS) if rng.random() < 1 / 3 else minimal
            spaced.append(gap + symbol)
            compact.append(minimal + symbol)
            size += len(gap)
            offsets.append(size)
            size += len(symbol)
            previous = symbol
        return offsets[0]

    put("quiver", "Q", "{")
    sections = ["vertices", "arrows"] + ["relations"] * bool(words) + ["weights"] * bool(weights)
    rng.shuffle(sections)
    for section in sections:
        put(section, ":")
        if section == "vertices":
            put(*vertices, ";")
        elif section == "arrows":
            for name, t, h in arrows:
                start = put(name, ":")
                located[name] = (start, put(t, "->", h, ";"), t)
        elif section == "relations":
            for i, word in enumerate(words):
                if i:
                    put(",")
                put(*word)
            put(";")
        else:
            for name, m, n in weights:
                put(name, "(", str(m), ",", str(n), ")")
            put(";")
    put("}")
    text = "".join(spaced)

    def span(offset: int) -> Span:
        return Span(text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))

    return text, "".join(compact), {name: (span(start), *tail) for name, (start, *tail) in located.items()}


@settings(PROPERTY, max_examples=30)
@given(st.builds(spaced_document, st.integers(1, 400), st.integers(0, 2**32 - 1)))
@example(spaced_document(400, 0))
@example(spaced_document(400, 1))
def test_spaced_and_compact_texts_read_alike_and_diagnose_at_exact_spans(generated):
    text, compact, arrows = generated
    assert parse(text) == parse(compact)
    # one arrow's tail made undeclared: reported at the arrow, whether read whole or symbol by symbol
    name = random.Random(text).choice(sorted(arrows))
    span, tail_offset, tail = arrows[name]
    broken = text[:tail_offset] + "nowhere" + text[tail_offset + len(tail) :]
    with pytest.raises(ParseError) as caught:
        parse(broken)
    assert caught.value.diagnostics == (Diagnostic(span, f"arrow {name!r} uses undeclared vertex 'nowhere'"),)
