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
kn-flow, rescale and check-relations.

The package has two import layers.  The structural layer (``quiver``,
``dsl``, ``rewrites``, ``toric``, ``serialize`` and this module) imports no
numpy at module level, so info, reduce, collapse, pinch, clip, reverse,
certificate and toric run without loading numpy.  The numeric layer
(``matrices``, ``representation``, ``kempfness``, ``additive``) loads with
numpy when a numeric handler (sample, act, retract, kn-residual, kn-flow,
witness, rescale, check-relations) imports its function from the defining
module at call time.

Library warnings are written to stderr as ``warning: <message>`` lines.

Exit codes: 0 success, 1 usage, 2 parse diagnostics or a malformed payload
file, 3 numeric precondition failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

from . import dsl, serialize
from .quiver import (
    GROUP_FAMILIES,
    TOL_EQ,
    GroupSpec,
    RelationSet,
    betti_number,
    closed_orbit_certificate,
    connected_components,
    ends,
    euler_characteristic,
    is_strongly_connected,
    moduli_dimension,
    vertex_classes,
)
from .rewrites import clip, collapse, pinch, reduce_to_rose, reverse_arrows
from .toric import invariant_monomial_basis, weight_matrix

MAX_MATRIX_SIZE = 16


class _UsageError(Exception):
    pass


class _InputError(Exception):
    """Malformed input file (non-DSL): reported like parse diagnostics."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


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


def _load(path: str, decode, quiver):
    """Decode a JSON payload file; malformed JSON or payload types are an _InputError."""
    try:
        data = json.loads(_read_file(path))
    except ValueError as exc:  # JSONDecodeError, or an int literal past the digit limit
        raise _InputError(f"{path}: invalid JSON: {exc}") from exc
    try:
        value = decode(data, quiver)
    except (KeyError, TypeError) as exc:
        raise _InputError(f"{path}: bad payload: {exc}") from exc
    _check_size(value.stack.shape[-1])
    return value


def _additive_from_json(data, quiver):
    """An additive payload, or a GL/SL/TORUS representation payload embedded."""
    from .additive import embed_additive

    if "group" in data:
        return embed_additive(serialize.representation_from_json(data, quiver))
    return serialize.additive_from_json(data, quiver)


def _document_payload(doc: dsl.QuiverDocument, extra: dict) -> dict:
    payload = {
        "quiver": serialize.quiver_to_json(doc.quiver),
        "relations": serialize.relations_to_json(doc.relations),
    }
    if doc.mu is not None:
        payload["weights"] = {a: [doc.mu[a], doc.nu[a]] for a in doc.mu}
    return {**payload, **extra}


def _surviving_weights(doc: dsl.QuiverDocument, quiver) -> tuple[dict | None, dict | None]:
    if doc.mu is None:
        return None, None
    names = {a.name for a in quiver.arrows}
    return (
        {k: v for k, v in doc.mu.items() if k in names},
        {k: v for k, v in doc.nu.items() if k in names},
    )


def _drop_relations_mentioning(relations: RelationSet, names: set[str]) -> tuple[RelationSet, int]:
    kept = tuple(w for w in relations.relations if names.isdisjoint(w.arrow_names()))
    return RelationSet(kept), len(relations.relations) - len(kept)


def _cmd_info(args, doc):
    q = doc.quiver
    classes = vertex_classes(q)
    end_vertices = ends(q)
    payload = {
        "betti_number": betti_number(q),
        "euler_characteristic": euler_characteristic(q),
        "components": len(connected_components(q)),
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
        group = GroupSpec(args.group, _check_size(args.n))
        dim = moduli_dimension(q, group)
        payload["group"] = serialize.group_to_json(group)
        payload["moduli_dimension"] = dim
        payload["moduli_dimension_ignores_relations"] = bool(doc.relations)
        lines.append(f"moduli dimension for {args.group}({args.n}) = {dim}")
        if doc.relations:
            lines.append(f"note: the moduli dimension counts no relations ({len(doc.relations)} ignored)")
    return payload, "\n".join(lines) + "\n"


def _cmd_reduce(args, doc):
    rose, rels, trace = reduce_to_rose(doc.quiver, doc.relations)
    r = betti_number(doc.quiver)
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
    return payload, "\n".join(notes) + "\n" + dsl.print_document(dsl.document_for(rose, rels))


def _cmd_collapse(args, doc):
    new_q, new_rels, step = collapse(doc.quiver, doc.relations, args.arrow)
    mu, nu = _surviving_weights(doc, new_q)
    out = dsl.document_for(new_q, new_rels, mu, nu, name=doc.name)
    return _document_payload(out, {"step": serialize.step_to_json(step)}), dsl.print_document(out)


def _cmd_pinch(args, doc):
    new_q, vmap = pinch(doc.quiver, args.v1, args.v2)
    out = dsl.document_for(new_q, doc.relations, doc.mu, doc.nu, name=doc.name)
    return _document_payload(out, {"vertex_map": vmap}), dsl.print_document(out)


def _cmd_clip(args, doc):
    new_q = clip(doc.quiver, args.arrow)
    rels, dropped = _drop_relations_mentioning(doc.relations, {args.arrow})
    mu, nu = _surviving_weights(doc, new_q)
    out = dsl.document_for(new_q, rels, mu, nu, name=doc.name)
    note = f"# dropped {dropped} relation(s) mentioning {args.arrow}\n" if dropped else ""
    return _document_payload(out, {"dropped_relations": dropped}), note + dsl.print_document(out)


def _cmd_reverse(args, doc):
    new_q = reverse_arrows(doc.quiver, args.arrows)
    rels, dropped = _drop_relations_mentioning(doc.relations, set(args.arrows))
    out = dsl.document_for(new_q, rels, doc.mu, doc.nu, name=doc.name)
    note = f"# dropped {dropped} relation(s) mentioning reversed arrows\n" if dropped else ""
    return _document_payload(out, {"dropped_relations": dropped}), note + dsl.print_document(out)


def _cmd_sample(args, doc):
    from .representation import random_representation

    group = GroupSpec(args.group, _check_size(args.n))
    return serialize.representation_to_json(random_representation(doc.quiver, group, args.seed)), None


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

    report = kn_flow(args.rep, step0=args.step, max_iter=args.max_iter, tol=args.tol)
    return serialize.flow_report_to_json(report), None


def _cmd_witness(args, doc):
    from .additive import sink_source_witness

    return serialize.witness_to_json(sink_source_witness(args.rep, args.vertex)), None


def _cmd_certificate(args, doc):
    cert = closed_orbit_certificate(doc.quiver)
    lines = [f"verdict: {cert.verdict}"]
    if cert.ends:
        lines.append("ends: " + " ".join(cert.ends))
    return serialize.certificate_to_json(cert), "\n".join(lines) + "\n"


def _cmd_rescale(args, doc):
    from .additive import unimodular_rescale

    return serialize.gauge_to_json(unimodular_rescale(args.gauge, args.x, args.x_prime, tol=args.tol)), None


def _cmd_toric(args, doc):
    mu, nu = doc.effective_weights()
    basis = invariant_monomial_basis(weight_matrix(doc.quiver, mu, nu))
    return serialize.monomial_basis_to_json(basis), None


def _cmd_check_relations(args, doc):
    from .representation import satisfies_relations

    ok = satisfies_relations(args.rep, doc.relations, tol=args.tol)
    payload = {"satisfied": ok, "tol": args.tol, "relations": len(doc.relations)}
    verdict = "satisfied" if ok else "NOT satisfied"
    return payload, f"{len(doc.relations)} relation(s) {verdict} within {args.tol}\n"


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="quivergauge", description=__doc__)
    parser.add_argument("--stats", action="store_true", help="write phase timings and sizes to stderr")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)
    rep = {"rep": serialize.representation_from_json}

    def add(name, handler, help_text, text=False, tol=None, payloads=None):
        """A subcommand; ``payloads`` maps each payload flag's dest to its decoder."""
        payloads = payloads or {}
        p = sub.add_parser(name, help=help_text)
        p.add_argument("quiver_file", help="quiver document file")
        p.set_defaults(handler=handler, json=False, payloads=payloads)
        if text:
            p.add_argument("--json", action="store_true", help="emit JSON output")
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol, help="numeric tolerance (default %(default)g)")
        for dest in payloads:
            p.add_argument("--" + dest.replace("_", "-"), required=True, help="JSON payload file")
        return p

    p = add("info", _cmd_info, "topological invariants, vertex classes, moduli dimension", text=True)
    p.add_argument("--group", choices=GROUP_FAMILIES)
    p.add_argument("--n", type=int, default=2)

    add("reduce", _cmd_reduce, "collapse the spanning tree down to a rose", text=True)

    p = add("collapse", _cmd_collapse, "collapse one non-loop arrow", text=True)
    p.add_argument("--arrow", required=True)

    p = add("pinch", _cmd_pinch, "identify two vertices", text=True)
    p.add_argument("--v1", required=True)
    p.add_argument("--v2", required=True)

    p = add("clip", _cmd_clip, "remove one arrow", text=True)
    p.add_argument("--arrow", required=True)

    p = add("reverse", _cmd_reverse, "reverse the listed arrows", text=True)
    p.add_argument("--arrows", nargs="+", required=True)

    p = add("sample", _cmd_sample, "random representation")
    p.add_argument("--group", choices=GROUP_FAMILIES, default="GL")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    add(
        "act", _cmd_act, "apply a gauge element to a representation",
        payloads={**rep, "gauge": serialize.gauge_from_json},
    )

    p = add("retract", _cmd_retract, "polar retraction of every marking", payloads=rep)
    p.add_argument("--t", type=float, required=True)

    add("kn-residual", _cmd_kn_residual, "per-vertex moment matrices and aggregate residual", payloads=rep)

    p = add("kn-flow", _cmd_kn_flow, "norm-minimizing gauge flow", tol=1e-8, payloads=rep)
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--max-iter", type=int, default=1000)

    p = add(
        "witness", _cmd_witness, "sink/source degeneration witness", payloads={"rep": _additive_from_json}
    )
    p.add_argument("--vertex", required=True)

    add("certificate", _cmd_certificate, "orbit-closure certificate for the quiver", text=True)

    add(
        "rescale", _cmd_rescale, "rescale an equal-determinant gauge to unit determinant", tol=1e-9,
        payloads={
            "gauge": serialize.gauge_from_json, "x": _additive_from_json, "x_prime": _additive_from_json
        },
    )

    add("toric", _cmd_toric, "invariant monomial basis of the weighted scalar action")

    add(
        "check-relations", _cmd_check_relations, "evaluate the relation words on a representation",
        text=True, tol=TOL_EQ, payloads=rep,
    )

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
    sys.stdout.write(out)
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


if __name__ == "__main__":
    sys.exit(main())
