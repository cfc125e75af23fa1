"""Text format for quivers with relations and weights.

Grammar::

    document  := "quiver" ident? "{" section+ "}"
    section   := "vertices" ":" ident+ ";"
               | "arrows"   ":" (ident ":" ident "->" ident ";")+
               | "relations" ":" word ("," word)* ";"
               | "weights"  ":" (ident "(" int "," int ")")+ ";"
    word      := ident+          # leftmost letter applied last

Comments run from ``#`` to the end of the line; identifiers match
``[A-Za-z_][A-Za-z0-9_]*`` and may not be one of the five keywords.
Relation words are validated as oriented cycles at parse time; weights
default to (1, 1) for arrows the section does not mention.  Parsed
documents are canonically ordered (vertices, arrows, and relations
sorted), so printing and reparsing reproduces them exactly.  Parsing
failures raise ParseError carrying line/column diagnostics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

from .quiver import Quiver, RelationSet, Word, validate_relations
from .toric import MAX_WEIGHT

KEYWORDS = ("quiver", "vertices", "arrows", "relations", "weights")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r\n]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<arrowop>->)"
    r"|(?P<int>-?[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[{}:;,()])"
)


@dataclass(frozen=True)
class Span:
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class Diagnostic:
    span: Span
    message: str

    def __str__(self) -> str:
        return f"{self.span}: {self.message}"


class ParseError(ValueError):
    """Raised with one or more positioned diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in diagnostics))


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    span: Span


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError([Diagnostic(Span(line, col), f"unexpected character {text[pos]!r}")])
        kind = m.lastgroup or ""
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, Span(line, col)))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(_Token("eof", "", Span(line, col)))
    return tokens


@dataclass(frozen=True)
class QuiverDocument:
    """Parsed quiver with relations, optional weights, and source spans.

    ``mu``/``nu`` are None when the document has no weights section;
    ``effective_weights`` fills the default (1, 1).  Spans do not take part
    in equality, so parsing the canonical printout reproduces the document.
    """

    name: str | None
    quiver: Quiver
    relations: RelationSet
    mu: Mapping[str, int] | None
    nu: Mapping[str, int] | None
    spans: Mapping[str, Span] = field(compare=False, default_factory=dict)

    def effective_weights(self) -> tuple[dict[str, int], dict[str, int]]:
        names = [a.name for a in self.quiver.arrows]
        mu = dict(self.mu) if self.mu is not None else {n: 1 for n in names}
        nu = dict(self.nu) if self.nu is not None else {n: 1 for n in names}
        return mu, nu


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, span: Span, message: str) -> ParseError:
        self.diagnostics.append(Diagnostic(span, message))
        return ParseError(self.diagnostics)

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            expected = what or (text if text is not None else kind)
            shown = tok.text if tok.kind != "eof" else "end of input"
            raise self.fail(tok.span, f"expected {expected}, found {shown!r}")
        return self.advance()

    def expect_ident(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident":
            shown = tok.text if tok.kind != "eof" else "end of input"
            raise self.fail(tok.span, f"expected {what}, found {shown!r}")
        if tok.text in KEYWORDS:
            raise self.fail(tok.span, f"keyword {tok.text!r} cannot be used as {what}")
        return self.advance()

    def expect_weight(self) -> int:
        tok = self.expect("int", what="an integer weight")
        # compare digit counts first: int() refuses literals over 4300 digits
        digits = tok.text.lstrip("-").lstrip("0")
        if len(digits) > len(str(MAX_WEIGHT)) or int(digits or "0") > MAX_WEIGHT:
            raise self.fail(tok.span, f"weight magnitude exceeds the cap {MAX_WEIGHT}")
        return int(tok.text)


def parse(text: str) -> QuiverDocument:
    """Parse document text; raises ParseError with spanned diagnostics."""
    parser = _Parser(_tokenize(text))
    diagnostics = parser.diagnostics

    parser.expect("ident", "quiver")
    name = None
    if parser.peek().kind == "ident" and parser.peek().text not in KEYWORDS:
        name = parser.advance().text
    parser.expect("punct", "{")

    vertices: list[tuple[str, Span]] = []
    arrows: list[tuple[str, str, str, Span]] = []
    relation_words: list[tuple[tuple[str, ...], Span]] = []
    weight_entries: list[tuple[str, int, int, Span]] = []

    while True:
        tok = parser.peek()
        if tok.kind == "punct" and tok.text == "}":
            parser.advance()
            break
        if tok.kind == "eof":
            raise parser.fail(tok.span, "expected a section or '}', found end of input")
        if tok.kind != "ident" or tok.text not in ("vertices", "arrows", "relations", "weights"):
            shown = tok.text or "end of input"
            raise parser.fail(tok.span, f"expected a section keyword, found {shown!r}")
        section = parser.advance().text
        parser.expect("punct", ":")
        if section == "vertices":
            first = parser.expect_ident("a vertex id")
            vertices.append((first.text, first.span))
            while parser.peek().kind == "ident" and parser.peek().text not in KEYWORDS:
                tok = parser.advance()
                vertices.append((tok.text, tok.span))
            parser.expect("punct", ";")
        elif section == "arrows":
            while True:
                name_tok = parser.expect_ident("an arrow id")
                parser.expect("punct", ":")
                tail = parser.expect_ident("a tail vertex")
                parser.expect("arrowop", what="'->'")
                head = parser.expect_ident("a head vertex")
                parser.expect("punct", ";")
                arrows.append((name_tok.text, tail.text, head.text, name_tok.span))
                nxt = parser.peek()
                if nxt.kind != "ident" or nxt.text in KEYWORDS:
                    break
        elif section == "relations":
            while True:
                first = parser.expect_ident("an arrow id")
                letters = [first.text]
                span = first.span
                while parser.peek().kind == "ident" and parser.peek().text not in KEYWORDS:
                    letters.append(parser.advance().text)
                relation_words.append((tuple(letters), span))
                if parser.peek().kind == "punct" and parser.peek().text == ",":
                    parser.advance()
                    continue
                parser.expect("punct", ";")
                break
        else:
            while True:
                name_tok = parser.expect_ident("an arrow id")
                parser.expect("punct", "(")
                m = parser.expect_weight()
                parser.expect("punct", ",")
                n = parser.expect_weight()
                parser.expect("punct", ")")
                weight_entries.append((name_tok.text, m, n, name_tok.span))
                nxt = parser.peek()
                if nxt.kind != "ident" or nxt.text in KEYWORDS:
                    break
            parser.expect("punct", ";")

    tail_tok = parser.peek()
    if tail_tok.kind != "eof":
        raise parser.fail(tail_tok.span, f"unexpected trailing input {tail_tok.text!r}")

    # semantic checks, batched so several problems surface at once
    spans: dict[str, Span] = {}
    seen_vertices: list[str] = []
    for vid, span in vertices:
        if vid in seen_vertices:
            diagnostics.append(Diagnostic(span, f"duplicate vertex id {vid!r}"))
        else:
            seen_vertices.append(vid)
            spans[f"vertex:{vid}"] = span
    arrow_names: list[str] = []
    arrow_triples: list[tuple[str, str, str]] = []
    for aid, tail, head, span in arrows:
        if aid in arrow_names:
            diagnostics.append(Diagnostic(span, f"duplicate arrow id {aid!r}"))
            continue
        arrow_names.append(aid)
        spans[f"arrow:{aid}"] = span
        bad_endpoint = False
        for v in (tail, head):
            if v not in seen_vertices:
                diagnostics.append(Diagnostic(span, f"arrow {aid!r} uses undeclared vertex {v!r}"))
                bad_endpoint = True
        if not bad_endpoint:
            arrow_triples.append((aid, tail, head))
    if not seen_vertices:
        diagnostics.append(Diagnostic(Span(1, 1), "a quiver needs at least one vertex"))
    if diagnostics:
        raise ParseError(diagnostics)

    # canonical order: vertices, arrows, and relations sorted
    quiver = Quiver(tuple(sorted(seen_vertices)), tuple(sorted(arrow_triples)))

    for letters, span in relation_words:
        for l in letters:
            if not quiver.has_arrow(l):
                diagnostics.append(Diagnostic(span, f"relation uses unknown arrow {l!r}"))
    if diagnostics:
        raise ParseError(diagnostics)
    ordered_words = sorted(relation_words, key=lambda t: t[0])
    relations = RelationSet(tuple(Word.from_arrow_names(l) for l, _ in ordered_words))
    for index, (_, span) in enumerate(ordered_words):
        spans[f"relation:{index}"] = span
    for violation in validate_relations(quiver, relations):
        span = spans[f"relation:{violation.word_index}"]
        diagnostics.append(Diagnostic(span, f"relation is not a cycle: {violation.message}"))

    mu = nu = None
    if weight_entries:
        mu, nu = {}, {}
        for aid, m, n, span in weight_entries:
            if aid in mu:
                diagnostics.append(Diagnostic(span, f"duplicate weights for arrow {aid!r}"))
                continue
            if not quiver.has_arrow(aid):
                diagnostics.append(Diagnostic(span, f"weights for unknown arrow {aid!r}"))
                continue
            if m < 0 or n < 0:
                diagnostics.append(Diagnostic(span, "weights must be non-negative"))
                continue
            spans[f"weight:{aid}"] = span
            mu[aid], nu[aid] = m, n
        for a in quiver.arrows:
            mu.setdefault(a.name, 1)
            nu.setdefault(a.name, 1)
    if diagnostics:
        raise ParseError(diagnostics)

    return QuiverDocument(name, quiver, relations, mu, nu, spans)


def _check_ident(value: str, what: str) -> str:
    if not _IDENT_RE.fullmatch(value) or value in KEYWORDS:
        raise ValueError(f"{what} {value!r} is not printable as an identifier")
    return value


def print_document(doc: QuiverDocument) -> str:
    """Canonical text: sections in fixed order, each sorted lexicographically.

    Empty relation words (which the grammar cannot express) are dropped; an
    absent weights section stays absent.  Parsing the output reproduces the
    document up to canonical ordering.
    """
    header = "quiver {"
    if doc.name is not None:
        header = f"quiver {_check_ident(doc.name, 'document name')} {{"
    lines = [header]
    vs = " ".join(_check_ident(v, "vertex id") for v in sorted(doc.quiver.vertices))
    lines.append(f"  vertices: {vs};")
    if doc.quiver.arrows:
        decls = " ".join(
            f"{_check_ident(a.name, 'arrow id')}: {a.tail} -> {a.head};"
            for a in sorted(doc.quiver.arrows, key=lambda a: a.name)
        )
        lines.append(f"  arrows: {decls}")
    nonempty = [w for w in doc.relations.relations if len(w) > 0]
    if any(exp != 1 for w in nonempty for _, exp in w.letters):
        raise ValueError("relations with inverse letters are not printable")
    if nonempty:
        body = ", ".join(" ".join(names) for names in sorted(w.arrow_names() for w in nonempty))
        lines.append(f"  relations: {body};")
    if doc.mu is not None and doc.nu is not None:
        entries = " ".join(
            f"{a.name}({int(doc.mu[a.name])},{int(doc.nu[a.name])})"
            for a in sorted(doc.quiver.arrows, key=lambda a: a.name)
        )
        lines.append(f"  weights: {entries};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def document_for(
    quiver: Quiver,
    relations: RelationSet | None = None,
    mu: Mapping[str, int] | None = None,
    nu: Mapping[str, int] | None = None,
    name: str | None = None,
) -> QuiverDocument:
    """Wrap computed structures as a document (canonically ordered)."""
    q = Quiver(tuple(sorted(quiver.vertices)), tuple(sorted(quiver.arrows, key=lambda a: a.name)))
    rels = relations if relations is not None else RelationSet()
    kept = tuple(sorted((w for w in rels.relations if len(w) > 0), key=lambda w: w.arrow_names()))
    return QuiverDocument(name, q, RelationSet(kept), mu, nu)


def canonicalize(text: str) -> str:
    """parse then print: the canonical form of a document."""
    return print_document(parse(text))
