"""Subcommand CLI over the library.

Every command takes the same path: ``main`` parses the arguments, reads and
parses the quiver document once, decodes the payload files the command
declares (``--rep``, ``--gauge``, ``--x``, ``--x-prime``) in place of their
paths, and calls the command's handler as ``handler(args, doc) -> (payload,
text)``.  It then writes ``text``, or the canonical JSON of ``payload`` when
the handler has no text or ``--json`` is given.  Handlers compute only: they
read no file and never write.

The global ``--stats`` flag (``quivergauge --stats <command> ...``) writes
one JSON line to stderr after a successful command: the wall times of the
three phases (``parse_s``: reading and decoding the document and payloads;
``compute_s``: the handler; ``serialize_s``: building the stdout text), the
quiver's vertex and arrow counts ``V`` and ``A``, and the group size ``n``
(null for a command without a group).  Stdout does not change.

Text commands (info, reduce, collapse, pinch, clip, reverse, certificate,
check-relations) print text and take ``--json``; the others always print
the module JSON encodings.  ``--seed`` belongs to sample; ``--tol`` to
kn-flow, rescale and check-relations.  A negative ``--seed`` or
``--max-iter`` is a usage error.

Arguments are read from one table of subcommand declarations,
``_COMMANDS``, in one of two ways.  A plain call (an optional leading
``--stats``, the command name, one document path, and the command's own
flags written in full: ``--flag value``, a switch, or ``--arrows`` with its
list) is read by ``_read_args``, which converts and checks each value as
argparse would and returns the same arguments.  Every other call goes to
argparse: help, an abbreviated, unknown or misplaced flag,
``--flag=value``, ``--``, a path or value starting with ``-``, a value that
does not convert, a missing or extra argument.  Help, usage and error
messages and exit codes are therefore argparse's own, and ``argparse``,
``gettext`` and ``locale`` are imported only on that path, where
``_build_parser`` declares every subcommand in one parser.

Every handler imports its library function when it runs; at module level
this module imports only what argument parsing and document reading need
(``dsl``, ``quiver`` and ``serialize``).  A command therefore loads only
the modules it calls: info, reduce, collapse, pinch, clip, reverse,
certificate and toric never load numpy, and info and certificate load
neither ``rewrites`` nor ``toric``.  The numeric commands sample,
kn-residual, kn-flow and retract do not load ``rewrites``.  The structural
commands do not load ``inspect`` either: every record is a plain class on
``quiver._Record``, whose one constructor binds arguments to the fields
the class names, so no code is generated at import.

Library warnings are written to stderr as ``warning: <message>`` lines.

Exit codes: 0 success, 1 usage (a ``--group``/``--n`` pair its family
refuses included) or unwritable stdout, 2 parse diagnostics or a malformed
payload file, 3 numeric precondition failure (a size past
``MAX_MATRIX_SIZE`` included).

``main(argv) -> int`` is the in-process API: it writes and flushes stdout,
returns the exit code and leaves the interpreter running.  ``run()`` is the
process entry (the ``quivergauge`` script and ``python -m
quivergauge.cli``): it calls ``main`` and ends the process with
``os._exit``, skipping module and object teardown and ``atexit`` hooks.
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings
from types import SimpleNamespace

from . import dsl, serialize
from .quiver import COMPACT_FAMILIES, GROUP_FAMILIES, TOL_EQ, GroupSpec, RelationSet

MAX_MATRIX_SIZE = 16


class _UsageError(Exception):
    pass


class _InputError(Exception):
    """Malformed input file (non-DSL): reported like parse diagnostics."""


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: not UTF-8 text: {exc}") from exc


def _check_size(n: int) -> int:
    if n > MAX_MATRIX_SIZE:
        raise ValueError(f"matrix size {n} exceeds the supported limit {MAX_MATRIX_SIZE}")
    return n


def _group(args) -> GroupSpec:
    """The ``--group``/``--n`` pair: a size past the limit exits 3, a size the family refuses is a usage error."""
    _check_size(args.n)
    try:
        return GroupSpec(args.group, args.n)
    except ValueError as exc:
        raise _UsageError(f"argument --n: {exc}") from None


def _count(args, dest: str) -> int:
    """An integer option that must not be negative (``--seed``, ``--max-iter``): a negative one is a usage error."""
    value = getattr(args, dest)
    if value < 0:
        raise _UsageError(f"argument --{dest.replace('_', '-')}: must be a non-negative integer, got {value}")
    return value


def _load(path: str, decode, quiver):
    """Decode a JSON payload file; errors name it: _InputError for bad JSON or types, ValueError for bad values."""
    try:
        data = json.loads(_read_file(path))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, an int past the digit limit, or too deep a nesting
        raise _InputError(f"{path}: invalid JSON: {exc}") from exc
    try:
        if not isinstance(data, dict):
            raise TypeError("payload must be a JSON object")
        value = decode(data, quiver)
        _check_size(value.stack.shape[-1])
    except (KeyError, TypeError) as exc:
        raise _InputError(f"{path}: bad payload: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return value


def _additive_from_json(data, quiver):
    """An additive payload, or a GL/SL/TORUS representation payload embedded."""
    from .additive import embed_additive

    if "group" in data:
        return embed_additive(serialize.representation_from_json(data, quiver))
    return serialize.additive_from_json(data, quiver)


def _rewritten(args, doc, quiver, relations, extra: dict, note: str = "", weights=None):
    """The payload (the document, then ``extra``) and text (``note``, then the document) of a rewrite's output.

    The document is ``quiver`` and ``relations`` under ``doc``'s name, with ``weights`` (mu, nu) or ``doc``'s.
    Under ``--json`` the text is None, as the payload is printed.
    """
    mu, nu = weights or (doc.mu, doc.nu)
    out = dsl.document_for(quiver, relations, mu, nu, name=doc.name)
    payload = {"quiver": serialize.quiver_to_json(out.quiver), "relations": serialize.relations_to_json(out.relations)}
    if out.mu is not None:
        payload["weights"] = {a: [out.mu[a], out.nu[a]] for a in out.mu}
    return {**payload, **extra}, None if args.json else note + dsl.print_document(out)


def _drop_relations_mentioning(relations: RelationSet, names: set[str]) -> tuple[RelationSet, int]:
    kept = tuple(w for w in relations.relations if names.isdisjoint(w.arrow_names()))
    return RelationSet(kept), len(relations.relations) - len(kept)


def _cmd_info(args, doc):
    from .quiver import (
        _ends,
        _moduli_dimension,
        connected_components,
        euler_characteristic,
        is_strongly_connected,
        vertex_classes,
    )

    # one spanning forest (in connected_components) and one vertex classification
    q = doc.quiver
    components = len(connected_components(q))
    chi = euler_characteristic(q)
    classes = vertex_classes(q)
    end_vertices = _ends(classes)
    payload = {
        "betti_number": components - chi,
        "euler_characteristic": chi,
        "components": components,
        "vertex_classes": classes,
        "ends": list(end_vertices),
        "super_cyclic": not end_vertices,
        "strongly_connected": is_strongly_connected(q),
    }
    lines = [
        f"b1 = {payload['betti_number']}",
        f"euler characteristic = {payload['euler_characteristic']}",
        f"components = {payload['components']}",
    ]
    lines += [f"vertex {v}: {classes[v]}" for v in q.vertices]
    lines.append("ends: " + (" ".join(payload["ends"]) if payload["ends"] else "(none)"))
    lines.append(f"super-cyclic: {'yes' if payload['super_cyclic'] else 'no'}")
    lines.append(f"strongly connected: {'yes' if payload['strongly_connected'] else 'no'}")
    if args.group:
        group = _group(args)
        dim = _moduli_dimension(group, payload["betti_number"], components)
        payload["group"] = serialize.group_to_json(group)
        payload["moduli_dimension"] = dim
        payload["moduli_dimension_ignores_relations"] = bool(doc.relations)
        lines.append(f"moduli dimension for {args.group}({args.n}) = {dim}")
        if doc.relations:
            lines.append(f"note: the moduli dimension counts no relations ({len(doc.relations)} ignored)")
    return payload, "\n".join(lines) + "\n"


def _cmd_reduce(args, doc):
    from .rewrites import reduce_to_rose

    rose, rels, trace = reduce_to_rose(doc.quiver, doc.relations)
    r = rose.n_arrows  # the quiver is connected, so its rose has b1 loops
    payload = {
        "rose": serialize.quiver_to_json(rose),
        "relations": serialize.relations_to_json(rels),
        "trace": serialize.trace_to_json(trace),
        "betti_number": r,
    }
    notes = [f"# rose with {rose.n_arrows} loops after {len(trace.steps)} collapse steps"]
    if r == 0:
        payload["message"] = "moduli is a point"
        notes.append("# moduli is a point")
    if args.json:  # the payload is printed: rendering the rose's text would be wasted
        return payload, None
    return payload, "\n".join(notes) + "\n" + dsl.print_document(dsl.document_for(rose, rels))


def _cmd_collapse(args, doc):
    from .rewrites import collapse

    new_q, new_rels, step = collapse(doc.quiver, doc.relations, args.arrow)
    return _rewritten(args, doc, new_q, new_rels, {"step": serialize.step_to_json(step)})


def _cmd_pinch(args, doc):
    from .rewrites import pinch

    new_q, vmap = pinch(doc.quiver, args.v1, args.v2)
    return _rewritten(args, doc, new_q, doc.relations, {"vertex_map": vmap})


def _cmd_clip(args, doc):
    from .rewrites import clip

    new_q = clip(doc.quiver, args.arrow)
    rels, dropped = _drop_relations_mentioning(doc.relations, {args.arrow})
    note = f"# dropped {dropped} relation(s) mentioning {args.arrow}\n" if dropped else ""
    return _rewritten(args, doc, new_q, rels, {"dropped_relations": dropped}, note)


def _cmd_reverse(args, doc):
    from .rewrites import reverse_arrows

    new_q, flipped = reverse_arrows(doc.quiver, args.arrows), set(args.arrows)
    rels, dropped = _drop_relations_mentioning(doc.relations, flipped)
    mu, nu = doc.mu, doc.nu
    if mu is not None:  # a reversed arrow carries the inverse marking g_t^nu m^-1 g_h^-mu: its weights swap
        mu, nu = {**mu, **{a: nu[a] for a in flipped}}, {**nu, **{a: mu[a] for a in flipped}}
    note = f"# dropped {dropped} relation(s) mentioning reversed arrows\n" if dropped else ""
    return _rewritten(args, doc, new_q, rels, {"dropped_relations": dropped}, note, (mu, nu))


def _cmd_sample(args, doc):
    from .representation import random_representation

    seed = _count(args, "seed")
    return serialize.representation_to_json(random_representation(doc.quiver, _group(args), seed)), None


def _cmd_act(args, doc):
    from .representation import gauge_act

    return serialize.representation_to_json(gauge_act(args.gauge, args.rep)), None


def _cmd_retract(args, doc):
    from .kempfness import retract_representation

    return serialize.representation_to_json(retract_representation(args.rep, args.t)), None


def _cmd_kn_residual(args, doc):
    from .kempfness import kn_moment

    return serialize.residual_to_json(kn_moment(args.rep)), None


def _cmd_kn_flow(args, doc):
    from .kempfness import kn_flow

    report = kn_flow(args.rep, step0=args.step, max_iter=_count(args, "max_iter"), tol=args.tol)
    return serialize.flow_report_to_json(report), None


def _cmd_witness(args, doc):
    from .additive import sink_source_witness

    return serialize.witness_to_json(sink_source_witness(args.rep, args.vertex)), None


def _cmd_certificate(args, doc):
    from .quiver import closed_orbit_certificate

    cert = closed_orbit_certificate(doc.quiver)
    lines = [f"verdict: {cert.verdict}"]
    if cert.ends:
        lines.append("ends: " + " ".join(cert.ends))
    return serialize.certificate_to_json(cert), "\n".join(lines) + "\n"


def _cmd_rescale(args, doc):
    from .additive import unimodular_rescale

    return serialize.gauge_to_json(unimodular_rescale(args.gauge, args.x, args.x_prime, tol=args.tol)), None


def _cmd_toric(args, doc):
    from .toric import invariant_monomial_basis, weight_matrix

    mu, nu = doc.effective_weights()
    basis = invariant_monomial_basis(weight_matrix(doc.quiver, mu, nu))
    return serialize.monomial_basis_to_json(basis), None


def _cmd_check_relations(args, doc):
    from .representation import satisfies_relations

    ok = satisfies_relations(args.rep, doc.relations, tol=args.tol)
    payload = {"satisfied": ok, "tol": args.tol, "relations": len(doc.relations)}
    verdict = "satisfied" if ok else "NOT satisfied"
    return payload, f"{len(doc.relations)} relation(s) {verdict} within {args.tol}\n"


def _command(handler, help_text, *options, text=False, tol=None, payloads=None):
    """One subcommand's declaration: ``(help_text, options, defaults)``.

    ``options`` lists every flag as a ``(flag, keywords)`` pair in the order
    the help shows them: ``--json`` when ``text``, ``--tol`` with default
    ``tol``, one required flag per payload, then the command's own.
    ``payloads`` maps each payload flag's dest to its decoder; ``defaults``
    are the values every call carries beside its arguments.
    """
    payloads = payloads or {}
    declared = [("--json", {"action": "store_true", "help": "emit JSON output"})] if text else []
    if tol is not None:
        declared.append(("--tol", {"type": float, "default": tol, "help": "numeric tolerance (default %(default)g)"}))
    declared += [("--" + dest.replace("_", "-"), {"required": True, "help": "JSON payload file"}) for dest in payloads]
    return help_text, (*declared, *options), {"handler": handler, "json": False, "payloads": payloads}


_REP = {"rep": serialize.representation_from_json}
_SIZE = ("--n", {"type": int, "default": 2})
_COMMANDS = {
    "info": _command(
        _cmd_info, "topological invariants, vertex classes, moduli dimension",
        # the dimension formula covers the non-compact families only
        ("--group", {"choices": tuple(f for f in GROUP_FAMILIES if f not in COMPACT_FAMILIES)}), _SIZE, text=True,
    ),
    "reduce": _command(_cmd_reduce, "collapse the spanning tree down to a rose", text=True),
    "collapse": _command(_cmd_collapse, "collapse one non-loop arrow", ("--arrow", {"required": True}), text=True),
    "pinch": _command(
        _cmd_pinch, "identify two vertices", ("--v1", {"required": True}), ("--v2", {"required": True}), text=True,
    ),
    "clip": _command(_cmd_clip, "remove one arrow", ("--arrow", {"required": True}), text=True),
    "reverse": _command(
        _cmd_reverse, "reverse the listed arrows", ("--arrows", {"nargs": "+", "required": True}), text=True,
    ),
    "sample": _command(
        _cmd_sample, "random representation",
        ("--group", {"choices": GROUP_FAMILIES, "default": "GL"}), _SIZE,
        ("--seed", {"type": int, "default": 0, "help": "random seed (default 0)"}),
    ),
    "act": _command(
        _cmd_act, "apply a gauge element to a representation", payloads={**_REP, "gauge": serialize.gauge_from_json},
    ),
    "retract": _command(
        _cmd_retract, "polar retraction of every marking", ("--t", {"type": float, "required": True}), payloads=_REP,
    ),
    "kn-residual": _command(_cmd_kn_residual, "per-vertex moment matrices and aggregate residual", payloads=_REP),
    "kn-flow": _command(
        _cmd_kn_flow, "norm-minimizing gauge flow",
        ("--step", {"type": float, "default": 0.25}), ("--max-iter", {"type": int, "default": 1000}),
        tol=1e-8, payloads=_REP,
    ),
    "witness": _command(
        _cmd_witness, "sink/source degeneration witness",
        ("--vertex", {"required": True}), payloads={"rep": _additive_from_json},
    ),
    "certificate": _command(_cmd_certificate, "orbit-closure certificate for the quiver", text=True),
    "rescale": _command(
        _cmd_rescale, "rescale an equal-determinant gauge to unit determinant", tol=1e-9,
        payloads={"gauge": serialize.gauge_from_json, "x": _additive_from_json, "x_prime": _additive_from_json},
    ),
    "toric": _command(_cmd_toric, "invariant monomial basis of the weighted scalar action"),
    "check-relations": _command(
        _cmd_check_relations, "evaluate the relation words on a representation", text=True, tol=TOL_EQ, payloads=_REP,
    ),
}


def _read_args(argv):
    """The arguments of a plain call, as argparse would parse them, or None for any other call.

    A plain call is an optional leading ``--stats``, a command name, one
    document path and the command's own flags, each written out in full:
    ``--flag value``, a ``store_true`` flag alone, or a list flag with one
    or more values.  Values convert with the declared ``type`` and must be
    among the ``choices``; a repeated flag keeps its last value.  Anything
    else (help, an unknown, abbreviated or misplaced flag, ``--flag=value``,
    ``--``, an argument starting with ``-`` where a path or value belongs,
    a value that does not convert, a missing or extra argument) returns
    None, and argparse reads the call.
    """
    stats = argv[:1] == ["--stats"]
    command, *rest = argv[stats:] or [None]
    if command not in _COMMANDS:
        return None
    _, options, defaults = _COMMANDS[command]
    declared = dict(options)
    given, paths, i = {}, [], 0
    while i < len(rest):
        arg = rest[i]
        i += 1
        if not arg.startswith("-"):
            paths.append(arg)
            continue
        keywords = declared.get(arg)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            given[arg] = True
            continue
        many, start = keywords.get("nargs") == "+", i
        while i < len(rest) and not rest[i].startswith("-") and (many or i == start):
            i += 1
        try:
            values = [keywords.get("type", str)(value) for value in rest[start:i]]
        except (TypeError, ValueError):
            return None
        if not values or any(value not in keywords.get("choices", values) for value in values):
            return None
        given[arg] = values if many else values[0]
    if len(paths) != 1 or any(keywords.get("required") and flag not in given for flag, keywords in options):
        return None
    args = {"stats": stats, "command": command, "quiver_file": paths[0], **defaults}
    for flag, keywords in options:
        default = keywords.get("default", False if keywords.get("action") == "store_true" else None)
        args[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(**args)


def _build_parser():
    """The argparse parser, with every subcommand of ``_COMMANDS`` declared."""
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(f"{self.prog}: {message}")

    parser = _ArgumentParser(prog="quivergauge", description="Compute with group-valued quiver representations.")
    parser.add_argument("--stats", action="store_true", help="write phase timings and sizes to stderr")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)
    for name, (help_text, options, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("quiver_file", help="quiver document file")
        p.set_defaults(**defaults)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


def _group_size(args) -> int | None:
    """The size of the first decoded payload, else of the command's ``--group``."""
    for dest in args.payloads:
        return getattr(args, dest).stack.shape[-1]
    return args.n if getattr(args, "group", None) else None


def main(argv=None) -> int:
    """Parse arguments, load the document and payloads, run the handler, write stdout once."""
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            argv = sys.argv[1:] if argv is None else argv
            args = _read_args(argv)
            if args is None:  # help, a usage error or a form the reader leaves to argparse
                args = _build_parser().parse_args(argv)
            start = time.perf_counter()
            doc = dsl.parse(_read_file(args.quiver_file))
            for dest, decode in args.payloads.items():
                setattr(args, dest, _load(getattr(args, dest), decode, doc.quiver))
            parsed = time.perf_counter()
            payload, text = args.handler(args, doc)
            computed = time.perf_counter()
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except dsl.ParseError as exc:
        for d in exc.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return 2
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # numpy.linalg.LinAlgError is a ValueError subclass
        print(f"error: {exc}", file=sys.stderr)
        return 3
    out = serialize.dumps(payload) if text is None or args.json else text
    serialized = time.perf_counter()
    try:
        if sys.stdout is None:  # descriptor 1 was closed at start-up
            raise OSError("stdout is closed")
        sys.stdout.write(out)
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    if args.stats:
        stats = {
            "parse_s": parsed - start,
            "compute_s": computed - parsed,
            "serialize_s": serialized - computed,
            "V": doc.quiver.n_vertices,
            "A": doc.quiver.n_arrows,
            "n": _group_size(args),
        }
        print(json.dumps(stats, sort_keys=True), file=sys.stderr)
    return 0


def run() -> None:
    """Process entry: ``main`` on ``sys.argv``, then exit without interpreter teardown."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError):  # closed, or a failed write main has reported
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
