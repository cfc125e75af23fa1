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

The reader keeps one cursor over the text and no token list.  One match
of whitespace, comments and symbols from offset 0 first reports the first
character no symbol can start.  The cursor holds the next symbol, ``(kind,
text, offset)``, and ``advance`` reads the one after it.  ``take`` reads a
run of whole arrow declarations or weight entries with at most spaces
inside, one match each, and stops before one that uses a keyword or a
weight over the cap; the symbol-by-symbol ``expect`` chain, the only source
of syntax diagnostics, reads on from there.  A ``Span`` is made from an
offset (by bisecting the line starts) only where a diagnostic is reported,
and the line-start table only for the first one.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import cached_property
from typing import Mapping, NamedTuple

from .quiver import MAX_WEIGHT, Quiver, RelationSet, Word, _checked_weights, _Record, validate_relations

KEYWORDS = ("quiver", "vertices", "arrows", "relations", "weights")
_IDENT = r"[A-Za-z_]\w*"
# ASCII patterns: \w is [A-Za-z0-9_], \d is [0-9].  The skip matches
# whitespace and comments in one way only (whitespace runs between whole
# comments), so a pattern failing after it backtracks in linear time and
# never finds a declaration inside a comment.  Weights have at most as many
# digits as MAX_WEIGHT, so int() is safe.
_SKIP = r"[ \t\r\n]*(?:#[^\n]*(?![^\n])[ \t\r\n]*)*"
_SYMBOLS = {"ident": _IDENT, "arrowop": "->", "int": r"-?\d+", "punct": r"[{}:;,()]"}
_WEIGHT = rf"(-?\d{{1,{len(str(MAX_WEIGHT))}}})"
_LEXICAL_RE = re.compile(rf"(?:{_SKIP}(?:{'|'.join(_SYMBOLS.values())}))*{_SKIP}", re.ASCII)
_SYMBOL_RE = re.compile(
    rf"{_SKIP}(?:{'|'.join(f'(?P<{kind}>{p})' for kind, p in _SYMBOLS.items())})?", re.ASCII
)
_DECLARATION_RES = {
    "arrow": re.compile(rf"{_SKIP}({_IDENT}) *: *({_IDENT}) *-> *({_IDENT}) *;", re.ASCII),
    "weight": re.compile(rf"{_SKIP}({_IDENT}) *\( *{_WEIGHT} *, *{_WEIGHT} *\)", re.ASCII),
}


class Span(NamedTuple):
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Diagnostic(NamedTuple):
    span: Span
    message: str

    def __str__(self) -> str:
        return f"{self.span}: {self.message}"


class ParseError(ValueError):
    """Raised with one or more positioned diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in diagnostics))


class QuiverDocument(_Record):
    """Parsed quiver with relations and optional weights.

    ``mu``/``nu`` are None when the document has no weights section, else
    they pass ``_checked_weights`` (every arrow needs both; others are
    dropped); ``effective_weights`` fills the default (1, 1).  A document
    keeps no source positions, so parsing its canonical printout reproduces it.
    """

    _fields = ("name", "quiver", "relations", "mu", "nu")

    def __init__(
        self,
        name: str | None,
        quiver: Quiver,
        relations: RelationSet,
        mu: Mapping[str, int] | None,
        nu: Mapping[str, int] | None,
    ) -> None:
        if mu is not None or nu is not None:
            mu, nu = _checked_weights(quiver, mu or {}, nu or {})
        super().__init__(name, quiver, relations, mu, nu)

    def effective_weights(self) -> tuple[dict[str, int], dict[str, int]]:
        ones = {a.name: 1 for a in self.quiver.arrows}
        return (dict(self.mu), dict(self.nu)) if self.mu is not None else (ones, dict(ones))


class _Parser:
    """Cursor over the text, holding the next symbol ``tok`` and the offset ``end`` after it."""

    def __init__(self, text: str):
        self.text = text
        self.diagnostics: list[Diagnostic] = []
        bad = _LEXICAL_RE.match(text).end()
        if bad < len(text):
            raise self.fail(bad, f"unexpected character {text[bad]!r}")
        self.read(0)

    @cached_property
    def line_starts(self) -> list[int]:
        return [0, *(m.end() for m in re.finditer("\n", self.text))]

    def report(self, offset: int, message: str) -> None:
        line = bisect_right(self.line_starts, offset)
        self.diagnostics.append(Diagnostic(Span(line, offset - self.line_starts[line - 1] + 1), message))

    def fail(self, offset: int, message: str) -> ParseError:
        self.report(offset, message)
        return ParseError(self.diagnostics)

    def take(self, kind: str) -> list[tuple]:
        """The run of ``kind`` declarations at the cursor, consumed, as (id, a, b, offset).

        ``a``, ``b`` are the tail and head ids of an arrow or the two weights
        of a weight entry.  The run ends before the first text that is not
        such a declaration, or that uses a keyword or exceeds the weight cap.
        """
        match, text, pos, run = _DECLARATION_RES[kind].match, self.text, self.tok[2], []
        while m := match(text, pos):
            aid, a, b = m.groups()
            if kind == "arrow":
                accepted = a not in KEYWORDS and b not in KEYWORDS
            else:
                a, b = int(a), int(b)
                accepted = abs(a) <= MAX_WEIGHT and abs(b) <= MAX_WEIGHT
            if not accepted or aid in KEYWORDS:
                break
            run.append((aid, a, b, m.start(1)))
            pos = m.end()
        if run:
            self.read(pos)
        return run

    def read(self, pos: int) -> None:
        """Move the cursor to the first symbol at or after ``pos``, or to ``eof``."""
        m = _SYMBOL_RE.match(self.text, pos)
        kind = m.lastgroup
        self.tok = (kind, m[kind], m.start(kind)) if kind else ("eof", "", m.end())
        self.end = m.end()

    def advance(self) -> tuple[str, str, int]:
        """The symbol at the cursor, which moves on to the next one."""
        tok = self.tok
        self.read(self.end)
        return tok

    def at_ident(self) -> bool:
        """The next symbol is an identifier that is not a keyword."""
        kind, text, _ = self.tok
        return kind == "ident" and text not in KEYWORDS

    def at_punct(self, text: str) -> bool:
        return self.tok[:2] == ("punct", text)

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> tuple[str, str, int]:
        tok_kind, tok_text, offset = self.tok
        if tok_kind != kind or (text is not None and tok_text != text):
            expected = what or (text if text is not None else kind)
            shown = tok_text if tok_kind != "eof" else "end of input"
            raise self.fail(offset, f"expected {expected}, found {shown!r}")
        return self.advance()

    def expect_ident(self, what: str) -> tuple[str, int]:
        """(identifier, offset) of the next symbol, which must not be a keyword."""
        kind, text, offset = self.tok
        if kind != "ident":
            shown = text if kind != "eof" else "end of input"
            raise self.fail(offset, f"expected {what}, found {shown!r}")
        if text in KEYWORDS:
            raise self.fail(offset, f"keyword {text!r} cannot be used as {what}")
        self.advance()
        return text, offset

    def expect_weight(self) -> int:
        _, text, offset = self.expect("int", what="an integer weight")
        # compare digit counts first: int() refuses literals over 4300 digits
        digits = text.lstrip("-").lstrip("0")
        if len(digits) > len(str(MAX_WEIGHT)) or int(digits or "0") > MAX_WEIGHT:
            raise self.fail(offset, f"weight magnitude exceeds the cap {MAX_WEIGHT}")
        return int(text)


def parse(text: str) -> QuiverDocument:
    """Parse document text; raises ParseError with spanned diagnostics."""
    parser = _Parser(text)
    report, diagnostics = parser.report, parser.diagnostics

    parser.expect("ident", "quiver")
    name = parser.advance()[1] if parser.at_ident() else None
    parser.expect("punct", "{")

    # declarations with the source offset of their first token
    vertices: list[tuple[str, int]] = []
    arrows: list[tuple[str, str, str, int]] = []
    relation_words: list[tuple[tuple[str, ...], int]] = []
    weight_entries: list[tuple[str, int, int, int]] = []

    while not parser.at_punct("}"):
        kind, section, offset = parser.tok
        if kind == "eof":
            raise parser.fail(offset, "expected a section or '}', found end of input")
        if kind != "ident" or section not in ("vertices", "arrows", "relations", "weights"):
            raise parser.fail(offset, f"expected a section keyword, found {section!r}")
        parser.advance()
        parser.expect("punct", ":")
        if section == "vertices":
            vertices.append(parser.expect_ident("a vertex id"))
            while parser.at_ident():
                vertices.append(parser.expect_ident("a vertex id"))
            parser.expect("punct", ";")
        elif section == "arrows":
            while True:
                run = parser.take("arrow")
                if run:
                    arrows += run
                else:
                    aid, offset = parser.expect_ident("an arrow id")
                    parser.expect("punct", ":")
                    tail, _ = parser.expect_ident("a tail vertex")
                    parser.expect("arrowop", what="'->'")
                    head, _ = parser.expect_ident("a head vertex")
                    parser.expect("punct", ";")
                    arrows.append((aid, tail, head, offset))
                if not parser.at_ident():
                    break
        elif section == "relations":
            while True:
                first, offset = parser.expect_ident("an arrow id")
                letters = [first]
                while parser.at_ident():
                    letters.append(parser.advance()[1])
                relation_words.append((tuple(letters), offset))
                if not parser.at_punct(","):
                    break
                parser.advance()
            parser.expect("punct", ";")
        else:
            while True:
                run = parser.take("weight")
                if run:
                    weight_entries += run
                else:
                    aid, offset = parser.expect_ident("an arrow id")
                    parser.expect("punct", "(")
                    m = parser.expect_weight()
                    parser.expect("punct", ",")
                    n = parser.expect_weight()
                    parser.expect("punct", ")")
                    weight_entries.append((aid, m, n, offset))
                if not parser.at_ident():
                    break
            parser.expect("punct", ";")
    parser.advance()

    kind, trailing, offset = parser.tok
    if kind != "eof":
        raise parser.fail(offset, f"unexpected trailing input {trailing!r}")

    # semantic checks, batched so several problems surface at once
    vertex_ids: set[str] = set()
    for vid, offset in vertices:
        if vid in vertex_ids:
            report(offset, f"duplicate vertex id {vid!r}")
        else:
            vertex_ids.add(vid)
    arrow_ids: set[str] = set()
    arrow_triples: list[tuple[str, str, str]] = []
    for aid, tail, head, offset in arrows:
        if aid in arrow_ids:
            report(offset, f"duplicate arrow id {aid!r}")
            continue
        arrow_ids.add(aid)
        undeclared = [v for v in (tail, head) if v not in vertex_ids]
        for v in undeclared:
            report(offset, f"arrow {aid!r} uses undeclared vertex {v!r}")
        if not undeclared:
            arrow_triples.append((aid, tail, head))
    if not vertex_ids:
        report(0, "a quiver needs at least one vertex")
    if diagnostics:
        raise ParseError(diagnostics)

    # canonical order: vertices, arrows, and relations sorted
    quiver = Quiver(tuple(sorted(vertex_ids)), tuple(sorted(arrow_triples)))

    for letters, offset in relation_words:
        for l in letters:
            if not quiver.has_arrow(l):
                report(offset, f"relation uses unknown arrow {l!r}")
    if diagnostics:
        raise ParseError(diagnostics)
    ordered_words = sorted(relation_words, key=lambda t: t[0])
    relations = RelationSet(tuple(Word.from_arrow_names(l) for l, _ in ordered_words))
    for violation in validate_relations(quiver, relations):
        report(ordered_words[violation.word_index][1], f"relation is not a cycle: {violation.message}")

    mu = nu = None
    if weight_entries:
        mu, nu = {}, {}
        for aid, m, n, offset in weight_entries:
            if aid in mu:
                report(offset, f"duplicate weights for arrow {aid!r}")
            elif not quiver.has_arrow(aid):
                report(offset, f"weights for unknown arrow {aid!r}")
            elif m < 0 or n < 0:
                report(offset, "weights must be non-negative")
            else:
                mu[aid], nu[aid] = m, n
        for a in quiver.arrows:
            mu.setdefault(a.name, 1)
            nu.setdefault(a.name, 1)
    if diagnostics:
        raise ParseError(diagnostics)

    return QuiverDocument(name, quiver, relations, mu, nu)


def _check_ident(value: str, what: str) -> str:
    if re.fullmatch(_IDENT, value, re.ASCII) is None or value in KEYWORDS:
        raise ValueError(f"{what} {value!r} is not printable as an identifier")
    return value


def print_document(doc: QuiverDocument) -> str:
    """Canonical text: sections in fixed order, each sorted lexicographically.

    Empty relation words (which the grammar cannot express) are dropped; an
    absent weights section stays absent, and so does one with no arrow to
    weigh (the grammar needs an entry).  Parsing the output reproduces the
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
    if doc.mu is not None and doc.quiver.arrows:
        entries = " ".join(
            f"{a.name}({doc.mu[a.name]},{doc.nu[a.name]})"
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
    """Wrap computed structures as a document (canonically ordered); weights as ``QuiverDocument`` takes them."""
    q = Quiver(tuple(sorted(quiver.vertices)), tuple(sorted(quiver.arrows, key=lambda a: a.name)))
    rels = relations if relations is not None else RelationSet()
    kept = tuple(sorted((w for w in rels.relations if len(w) > 0), key=lambda w: w.arrow_names()))
    return QuiverDocument(name, q, RelationSet(kept), mu, nu)


def canonicalize(text: str) -> str:
    """parse then print: the canonical form of a document."""
    return print_document(parse(text))
