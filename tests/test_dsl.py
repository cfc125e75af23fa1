"""Document parsing, canonical printing, and diagnostics."""

from pathlib import Path

import pytest

from quivergauge import ParseError, QuiverDocument, RelationSet, Word, canonicalize, document_for, parse, print_document
from quivergauge.dsl import Diagnostic, Span

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def test_parse_one_arrow():
    doc = parse("quiver T { vertices: v0 v1; arrows: a0: v0 -> v1; }")
    assert doc.name == "T"
    assert doc.quiver.vertices == ("v0", "v1")
    assert doc.quiver.arrow("a0").head == "v1"
    assert doc.relations.relations == ()
    assert doc.mu is None


def test_parse_triangle_relation_order():
    doc = parse(fixture_text("triangle.quiver"))
    (rel,) = doc.relations.relations
    # display order a2 a1 a0: a0 applied first
    assert rel == Word.from_arrow_names(("a2", "a1", "a0"))


def test_parse_weights_fill_defaults():
    doc = parse(
        "quiver W { vertices: v0; arrows: l0: v0 -> v0; m0: v0 -> v0; weights: l0(2,3); }"
    )
    assert doc.mu == {"l0": 2, "m0": 1}
    assert doc.nu == {"l0": 3, "m0": 1}
    mu, nu = doc.effective_weights()
    assert mu["m0"] == 1 and nu["l0"] == 3


def test_effective_weights_when_absent():
    doc = parse("quiver { vertices: v0; arrows: l0: v0 -> v0; }")
    mu, nu = doc.effective_weights()
    assert mu == {"l0": 1} and nu == {"l0": 1}


def test_parse_unknown_arrow_in_relation_has_span():
    text = "quiver {\n  vertices: v0;\n  arrows: l0: v0 -> v0;\n  relations: zz;\n}"
    with pytest.raises(ParseError) as err:
        parse(text)
    (diag,) = err.value.diagnostics
    assert "zz" in diag.message
    assert diag.span.line == 4
    assert diag.span.column == 14


def test_parse_duplicate_ids():
    with pytest.raises(ParseError) as err:
        parse("quiver { vertices: v0 v0; arrows: a: v0 -> v0; }")
    assert any("duplicate vertex" in d.message for d in err.value.diagnostics)
    with pytest.raises(ParseError) as err:
        parse("quiver { vertices: v0; arrows: a: v0 -> v0; a: v0 -> v0; }")
    assert any("duplicate arrow" in d.message for d in err.value.diagnostics)


def test_parse_undeclared_vertex():
    with pytest.raises(ParseError) as err:
        parse("quiver { vertices: v0; arrows: a: v0 -> v9; }")
    assert any("undeclared vertex" in d.message for d in err.value.diagnostics)


def test_parse_non_cycle_relation():
    with pytest.raises(ParseError) as err:
        parse("quiver { vertices: v0 v1; arrows: a0: v0 -> v1; relations: a0; }")
    assert any("not a cycle" in d.message for d in err.value.diagnostics)


def test_parse_reserved_word_rejected():
    with pytest.raises(ParseError):
        parse("quiver { vertices: relations; arrows: a: relations -> relations; }")
    # a keyword anywhere in a one-line declaration is reported where it stands
    for decl, diagnostic in (
        ("arrows: quiver: v -> v;", "1:31: keyword 'quiver' cannot be used as an arrow id"),
        ("arrows: a: weights -> v;", "1:34: keyword 'weights' cannot be used as a tail vertex"),
        ("arrows: a: v -> arrows;", "1:39: keyword 'arrows' cannot be used as a head vertex"),
        ("arrows: a: v -> v; weights: vertices(1,1);", "1:51: keyword 'vertices' cannot be used as an arrow id"),
    ):
        with pytest.raises(ParseError) as err:
            parse(f"quiver {{ vertices: v; {decl} }}")
        assert [str(d) for d in err.value.diagnostics] == [diagnostic]


def test_parse_negative_weight_rejected():
    with pytest.raises(ParseError) as err:
        parse("quiver { vertices: v0; arrows: l: v0 -> v0; weights: l(-1,1); }")
    assert any("non-negative" in d.message for d in err.value.diagnostics)


def test_parse_duplicate_and_unknown_weights_rejected_with_spans():
    text = "quiver { vertices: v0; arrows: l: v0 -> v0; weights: l(1,2) l(3,4) zz(1,1); }"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert [str(d) for d in err.value.diagnostics] == [
        "1:61: duplicate weights for arrow 'l'",
        "1:68: weights for unknown arrow 'zz'",
    ]


def test_parse_weight_over_cap_rejected_with_span():
    from quivergauge.quiver import MAX_WEIGHT

    # a literal past Python's 4300-digit int() limit, and one just over the cap
    for literal in ("9" * 5000, str(MAX_WEIGHT + 1)):
        with pytest.raises(ParseError) as err:
            parse(f"quiver {{ vertices: v0; arrows: l: v0 -> v0; weights: l(1,{literal}); }}")
        (d,) = err.value.diagnostics
        assert d.span == Span(1, 58)
        assert "cap" in d.message
    doc = parse(f"quiver {{ vertices: v0; arrows: l: v0 -> v0; weights: l(00{MAX_WEIGHT},0); }}")
    assert doc.mu == {"l": MAX_WEIGHT}


def test_parse_comments_and_whitespace():
    doc = parse(
        "# heading\nquiver X {  # trailing\n  vertices: v0;\n  arrows: l: v0 -> v0;\n}\n"
    )
    assert doc.name == "X"


def test_parse_lexical_error_position():
    with pytest.raises(ParseError) as err:
        parse("quiver { vertices: v0 $ }")
    (diag,) = err.value.diagnostics
    assert diag.span.line == 1 and diag.span.column == 23


def test_parse_batched_semantic_diagnostics():
    text = "quiver { vertices: v0 v0 v1 v1; arrows: a: v0 -> v1; }"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert len(err.value.diagnostics) == 2


def test_roundtrip_fixtures():
    for path in sorted(FIXTURES.glob("*.quiver")):
        text = path.read_text(encoding="utf-8")
        doc = parse(text)
        printed = print_document(doc)
        assert parse(printed) == doc
        assert print_document(parse(printed)) == printed


def test_canonical_form_is_declaration_order_invariant():
    a = "quiver T { vertices: v1 v0; arrows: b: v1 -> v0; a: v0 -> v1; }"
    b = "quiver T { vertices: v0 v1; arrows: a: v0 -> v1; b: v1 -> v0; }"
    assert canonicalize(a) == canonicalize(b)
    assert parse(a) == parse(b)


def test_canonical_print_shape():
    doc = parse(fixture_text("triangle.quiver"))
    text = print_document(doc)
    lines = text.splitlines()
    assert lines[0] == "quiver Triangle {"
    assert lines[1] == "  vertices: v0 v1 v2;"
    assert lines[2] == "  arrows: a0: v0 -> v1; a1: v1 -> v2; a2: v2 -> v0;"
    assert lines[3] == "  relations: a2 a1 a0;"
    assert lines[4] == "}"


def test_empty_relations_section_omitted():
    doc = parse("quiver { vertices: v0; arrows: l: v0 -> v0; }")
    assert "relations" not in print_document(doc)


def test_empty_relation_words_dropped_in_print():
    doc = parse(fixture_text("one_loop.quiver"))
    wrapped = document_for(doc.quiver, relations=None, name=doc.name)
    assert "relations" not in print_document(wrapped)


def test_print_rejects_bad_identifiers():
    doc = parse("quiver { vertices: v0; arrows: l: v0 -> v0; }")
    bad = document_for(doc.quiver, name="not valid")
    with pytest.raises(ValueError):
        print_document(bad)


def test_document_for_applies_the_one_weight_rule():
    q = parse("quiver { vertices: v0 v1; arrows: a: v0 -> v1; b: v1 -> v0; }").quiver
    with pytest.raises(ValueError, match="missing mu weight for arrow 'b'"):
        document_for(q, mu={"a": 2}, nu={"a": 1})
    with pytest.raises(ValueError, match="missing nu weight for arrow 'a'"):
        document_for(q, mu={"a": 2, "b": 1})
    # weights of arrows the quiver lacks are dropped
    doc = document_for(q, mu={"a": 2, "b": 1, "zz": 5}, nu={"a": 1, "b": 3, "zz": 1})
    assert (doc.mu, doc.nu) == ({"a": 2, "b": 1}, {"a": 1, "b": 3})
    assert "weights: a(2,1) b(1,3);" in print_document(doc)
    assert document_for(q).mu is None


@pytest.mark.parametrize(
    "mu, nu, message",
    [
        ({"a": 2}, {"a": 1}, "missing mu weight for arrow 'b'"),  # printing it raised KeyError: 'b'
        ({"a": -2, "b": 1}, {"a": 1, "b": 1}, "weights must be non-negative integers"),
        ({"a": 2, "b": 1.5}, {"a": 1, "b": 1}, "weights must be non-negative integers"),  # printed as 1
    ],
)
def test_document_constructor_applies_the_one_weight_rule(mu, nu, message):
    q = parse("quiver { vertices: v0 v1; arrows: a: v0 -> v1; b: v1 -> v0; }").quiver
    with pytest.raises(ValueError, match=f"^{message}$"):
        QuiverDocument(None, q, RelationSet(), mu, nu)


def test_malformed_inputs_always_diagnose():
    junk = [
        "",
        "quiver",
        "quiver {",
        "quiver } {",
        "vertices: v0;",
        "quiver T { vertices: ; }",
        "quiver T { vertices: v0; arrows: a: v0 -> ; }",
        "quiver T { vertices: v0; arrows: a: v0 v0; }",
        "quiver T { vertices: v0; weights: a(1); }",
        "quiver T { vertices: v0; relations: ; }",
        "quiver T { vertices: v0; } trailing",
        "\x00\x01\x02",
        "quiver T { unknown: v0; }",
        "#" * 70000,
        ("quiver T { vertices: " + "v " * 30000 + "; }")[:65536],
    ]
    for text in junk:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.diagnostics
        for d in err.value.diagnostics:
            assert d.span.line >= 1 and d.span.column >= 1


def test_diagnostic_str():
    d = Diagnostic(Span(3, 7), "boom")
    assert str(d) == "3:7: boom"


def test_fuzzed_fixture_mutations_never_panic():
    import random

    texts = [p.read_text() for p in FIXTURES.glob("*.quiver")]
    rng = random.Random(0)
    alphabet = "abcdefgh {}();:,->#0123456789_\n\t$%^&*[]\"'\\\x00"
    for _ in range(500):
        chars = list(rng.choice(texts))
        for _ in range(rng.randint(1, 8)):
            op = rng.randint(0, 2)
            pos = rng.randrange(len(chars) + 1) if chars else 0
            if op == 0 and chars:
                chars[min(pos, len(chars) - 1)] = rng.choice(alphabet)
            elif op == 1:
                chars.insert(pos, rng.choice(alphabet))
            elif op == 2 and chars:
                del chars[min(pos, len(chars) - 1)]
        try:
            parse("".join(chars))
        except ParseError:
            pass  # structured rejection is the contract


# The golden below pins exact reader output.  Its inputs are those of the two
# tests above: the malformed documents, and the same seeded mutation draw, with
# the fixtures read in sorted order so the draw does not depend on the file system.
MALFORMED = [
    "",
    "quiver",
    "quiver {",
    "quiver } {",
    "vertices: v0;",
    "quiver T { vertices: ; }",
    "quiver T { vertices: v0; arrows: a: v0 -> ; }",
    "quiver T { vertices: v0; arrows: a: v0 v0; }",
    "quiver T { vertices: v0; weights: a(1); }",
    "quiver T { vertices: v0; relations: ; }",
    "quiver T { vertices: v0; } trailing",
    "\x00\x01\x02",
    "quiver T { unknown: v0; }",
    "#" * 70000,
    ("quiver T { vertices: " + "v " * 30000 + "; }")[:65536],
]


def fixture_mutations(count: int = 500, seed: int = 0):
    import random

    texts = [p.read_text() for p in sorted(FIXTURES.glob("*.quiver"))]
    rng = random.Random(seed)
    alphabet = "abcdefgh {}();:,->#0123456789_\n\t$%^&*[]\"'\\\x00"
    for _ in range(count):
        chars = list(rng.choice(texts))
        for _ in range(rng.randint(1, 8)):
            op = rng.randint(0, 2)
            pos = rng.randrange(len(chars) + 1) if chars else 0
            if op == 0 and chars:
                chars[min(pos, len(chars) - 1)] = rng.choice(alphabet)
            elif op == 1:
                chars.insert(pos, rng.choice(alphabet))
            elif op == 2 and chars:
                del chars[min(pos, len(chars) - 1)]
        yield "".join(chars)


def reader_outcome(text: str) -> str:
    """Each diagnostic as ``line:column: message``, or ``ok`` and the canonical text."""
    try:
        doc = parse(text)
    except ParseError as err:
        return "".join(f"{d}\n" for d in err.diagnostics)
    return f"ok\n{print_document(doc)}"


def reader_outcomes() -> str:
    """The contents of ``fixtures/diagnostics.golden``."""
    labelled = [(f"malformed {i}", t) for i, t in enumerate(MALFORMED)]
    labelled += [(f"mutation {i}", t) for i, t in enumerate(fixture_mutations())]
    return "".join(f"=== {label}\n{reader_outcome(text)}" for label, text in labelled)


def test_reader_outcomes_match_golden():
    assert reader_outcomes() == (FIXTURES / "diagnostics.golden").read_text(encoding="utf-8")


# The second golden pins the reader where a whole declaration stops matching
# and the symbol-by-symbol reading takes over: seeded insertions of whole tokens
# (keywords, punctuation, out-of-range and negative weights, comments, newlines
# and runs of spaces) into the fixtures and into copies of them with a weights
# section, mostly among the declarations, at random offsets and at symbol
# boundaries.
TOKEN_INSERTS = (
    "quiver", "vertices", "arrows", "relations", "weights",
    "->", ";", "(", ")", ":", ",", "9999999", "-1", "#c\n", "\n", "spaces",
)


def weighted_fixtures() -> list[str]:
    """Each fixture, then each fixture with every arrow weighed, compactly or spaced."""
    texts = [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.quiver"))]
    weighted = []
    for index, text in enumerate(texts):
        names = [a.name for a in parse(text).quiver.arrows]
        entry = "{}({},{})" if index % 2 else "{} ( {} , {} )"
        entries = " ".join(entry.format(n, k % 4, (k + index) % 3) for k, n in enumerate(names))
        if entries:
            body, close = text.rstrip().rsplit("}", 1)
            weighted.append(f"{body}  weights: {entries};\n}}{close}\n")
    return texts + weighted


def token_mutations(count: int = 600, seed: int = 1):
    import random

    texts = weighted_fixtures()
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            # mostly between "arrows:" and the closing brace, where declarations are
            start, end = (text.find("arrows:"), text.rfind("}")) if rng.random() < 0.85 else (0, len(text))
            boundaries = [i for i in range(start, end + 1) if text[i - 1 : i] in (" ", ";", ":", "(", ",", ")", "\n")]
            pos = rng.choice(boundaries) if rng.random() < 0.5 else rng.randint(start, end)
            token = rng.choice(TOKEN_INSERTS)
            if token == "spaces":
                token = " " * rng.randint(2, 80)
            pad = rng.choice(("", " "))
            text = f"{text[:pos]}{pad}{token}{pad}{text[pos:]}"
        yield text


def token_outcomes() -> str:
    """The contents of ``fixtures/diagnostics_tokens.golden``."""
    return "".join(f"=== insertion {i}\n{reader_outcome(t)}" for i, t in enumerate(token_mutations()))


def test_token_insertions_match_golden():
    assert token_outcomes() == (FIXTURES / "diagnostics_tokens.golden").read_text(encoding="utf-8")


# Long runs of spaces or comments where a declaration pattern fails: after
# "arrows:", after a whole declaration, inside a weight entry, and between an
# arrow id and its tail.  A reader that backtracks more than linearly over them
# would take hours; a linear one takes milliseconds.
LINEAR_HEAD = "quiver T { vertices: v0; arrows: "
LINEAR_CASES = [
    ("", "}", "expected an arrow id, found '}'"),
    ("a0: v0 -> v0;", "a1 }", "expected :, found '}'"),
    ("a0: v0 -> v0; weights: a0(", "}", "expected an integer weight, found '}'"),
    ("a0:", "}", "expected a tail vertex, found '}'"),
]


@pytest.mark.parametrize("fill", [" " * 200_000, "#c\n" * 50_000], ids=["spaces", "comments"])
@pytest.mark.parametrize("before, after, message", LINEAR_CASES)
def test_reader_is_linear_where_declarations_fail(fill, before, after, message):
    import time

    text = LINEAR_HEAD + before + fill + after
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse(text)
    elapsed = time.perf_counter() - start
    # the diagnostic points at the closing brace, the last character
    line, column = (1, len(text)) if fill[0] == " " else (50_001, len(after))
    assert [str(d) for d in err.value.diagnostics] == [f"{line}:{column}: {message}"]
    assert elapsed < 2.0
