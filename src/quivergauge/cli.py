"""Subcommand CLI over the library.

Structural commands (info, reduce, collapse, pinch, clip, reverse,
certificate, check-relations) print text by default and JSON with
``--json``; numeric commands always emit the module JSON encodings.

Exit codes: 0 success, 1 usage, 2 parse diagnostics, 3 numeric
precondition failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import dsl, serialize
from .additive import (
    AdditiveRep,
    closed_orbit_certificate,
    embed_additive,
    sink_source_witness,
    unimodular_rescale,
)
from .kempfness import kn_flow, kn_moment, retract_representation
from .matrices import TOL_EQ
from .quiver import (
    GroupSpec,
    betti_number,
    connected_components,
    ends,
    euler_characteristic,
    is_strongly_connected,
    moduli_dimension,
    vertex_classes,
)
from .representation import gauge_act, random_representation, satisfies_relations
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


def _build_parser() -> _ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON output")
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument("--tol", type=float, default=None, help="numeric tolerance override")

    parser = _ArgumentParser(prog="quivergauge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    def add(name, help_text, **kwargs):
        p = sub.add_parser(name, parents=[common], help=help_text, **kwargs)
        p.add_argument("quiver_file", help="quiver document file")
        return p

    p = add("info", "topological invariants, vertex classes, moduli dimension")
    p.add_argument("--group", choices=("GL", "SL", "U", "SU", "TORUS"))
    p.add_argument("--n", type=int, default=2)

    add("reduce", "collapse the spanning tree down to a rose")

    p = add("collapse", "collapse one non-loop arrow")
    p.add_argument("--arrow", required=True)

    p = add("pinch", "identify two vertices")
    p.add_argument("--v1", required=True)
    p.add_argument("--v2", required=True)

    p = add("clip", "remove one arrow")
    p.add_argument("--arrow", required=True)

    p = add("reverse", "reverse the listed arrows")
    p.add_argument("--arrows", nargs="+", required=True)

    p = add("sample", "random representation")
    p.add_argument("--group", choices=("GL", "SL", "U", "SU", "TORUS"), default="GL")
    p.add_argument("--n", type=int, default=2)

    p = add("act", "apply a gauge element to a representation")
    p.add_argument("--rep", required=True)
    p.add_argument("--gauge", required=True)

    p = add("retract", "polar retraction of every marking")
    p.add_argument("--rep", required=True)
    p.add_argument("--t", type=float, required=True)

    p = add("kn-residual", "per-vertex moment matrices and aggregate residual")
    p.add_argument("--rep", required=True)

    p = add("kn-flow", "norm-minimizing gauge flow")
    p.add_argument("--rep", required=True)
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--max-iter", type=int, default=1000)

    p = add("witness", "sink/source degeneration witness")
    p.add_argument("--rep", required=True)
    p.add_argument("--vertex", required=True)

    add("certificate", "orbit-closure certificate for the quiver")

    p = add("rescale", "rescale an equal-determinant gauge to unit determinant")
    p.add_argument("--gauge", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--x-prime", required=True)

    add("toric", "invariant monomial basis of the weighted scalar action")

    p = add("check-relations", "evaluate the relation words on a representation")
    p.add_argument("--rep", required=True)

    return parser


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _load_document(path: str) -> dsl.QuiverDocument:
    return dsl.parse(_read_file(path))


def _load_json(path: str):
    text = _read_file(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: invalid JSON: {exc}") from exc


def _check_size(n: int) -> int:
    if n > MAX_MATRIX_SIZE:
        raise ValueError(f"matrix size {n} exceeds the supported limit {MAX_MATRIX_SIZE}")
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    return n


def _load_representation(path: str, quiver):
    data = _load_json(path)
    try:
        rep = serialize.representation_from_json(data, quiver)
    except (KeyError, TypeError) as exc:
        raise _InputError(f"{path}: bad representation payload: {exc}") from exc
    _check_size(rep.group.n)
    return rep


def _load_gauge(path: str, quiver):
    data = _load_json(path)
    try:
        gauge = serialize.gauge_from_json(data, quiver)
    except (KeyError, TypeError) as exc:
        raise _InputError(f"{path}: bad gauge payload: {exc}") from exc
    _check_size(gauge.group.n)
    return gauge


def _load_additive(path: str, quiver) -> AdditiveRep:
    data = _load_json(path)
    try:
        if "group" in data:
            return embed_additive(serialize.representation_from_json(data, quiver))
        return serialize.additive_from_json(data, quiver)
    except (KeyError, TypeError) as exc:
        raise _InputError(f"{path}: bad additive payload: {exc}") from exc


def _document_payload(doc: dsl.QuiverDocument, extra: dict | None = None) -> dict:
    payload = {
        "quiver": serialize.quiver_to_json(doc.quiver),
        "relations": serialize.relations_to_json(doc.relations),
    }
    if doc.mu is not None:
        payload["weights"] = {a: [doc.mu[a], doc.nu[a]] for a in doc.mu}
    if extra:
        payload.update(extra)
    return payload


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        sys.stdout.write(serialize.dumps(payload))
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict) -> None:
    sys.stdout.write(serialize.dumps(payload))


def _surviving_weights(doc: dsl.QuiverDocument, quiver) -> tuple[dict | None, dict | None]:
    if doc.mu is None:
        return None, None
    names = {a.name for a in quiver.arrows}
    return (
        {k: v for k, v in doc.mu.items() if k in names},
        {k: v for k, v in doc.nu.items() if k in names},
    )


def _drop_relations_mentioning(relations, names: set[str]):
    kept, dropped = [], 0
    for w in relations.relations:
        if any(n in names for n in w.arrow_names()):
            dropped += 1
        else:
            kept.append(w)
    from .quiver import RelationSet

    return RelationSet(tuple(kept)), dropped


def _cmd_info(args) -> int:
    doc = _load_document(args.quiver_file)
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
    for v in q.vertices:
        lines.append(f"vertex {v}: {classes[v]}")
    lines.append("ends: " + (" ".join(payload["ends"]) if payload["ends"] else "(none)"))
    lines.append(f"super-cyclic: {'yes' if payload['super_cyclic'] else 'no'}")
    lines.append(f"strongly connected: {'yes' if payload['strongly_connected'] else 'no'}")
    if args.group:
        group = GroupSpec(args.group, _check_size(args.n))
        dim = moduli_dimension(q, group)
        payload["group"] = serialize.group_to_json(group)
        payload["moduli_dimension"] = dim
        lines.append(f"moduli dimension for {args.group}({args.n}) = {dim}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def _cmd_reduce(args) -> int:
    doc = _load_document(args.quiver_file)
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
    text = "\n".join(notes) + "\n" + dsl.print_document(dsl.document_for(rose, rels))
    _emit(args, payload, text)
    return 0


def _cmd_collapse(args) -> int:
    doc = _load_document(args.quiver_file)
    new_q, new_rels, step = collapse(doc.quiver, doc.relations, args.arrow)
    mu, nu = _surviving_weights(doc, new_q)
    out = dsl.document_for(new_q, new_rels, mu, nu, name=doc.name)
    payload = _document_payload(out, {"step": serialize.step_to_json(step)})
    _emit(args, payload, dsl.print_document(out))
    return 0


def _cmd_pinch(args) -> int:
    doc = _load_document(args.quiver_file)
    new_q, vmap = pinch(doc.quiver, args.v1, args.v2)
    out = dsl.document_for(new_q, doc.relations, doc.mu, doc.nu, name=doc.name)
    payload = _document_payload(out, {"vertex_map": vmap.as_dict()})
    _emit(args, payload, dsl.print_document(out))
    return 0


def _cmd_clip(args) -> int:
    doc = _load_document(args.quiver_file)
    new_q = clip(doc.quiver, args.arrow)
    rels, dropped = _drop_relations_mentioning(doc.relations, {args.arrow})
    mu, nu = _surviving_weights(doc, new_q)
    out = dsl.document_for(new_q, rels, mu, nu, name=doc.name)
    payload = _document_payload(out, {"dropped_relations": dropped})
    note = f"# dropped {dropped} relation(s) mentioning {args.arrow}\n" if dropped else ""
    _emit(args, payload, note + dsl.print_document(out))
    return 0


def _cmd_reverse(args) -> int:
    doc = _load_document(args.quiver_file)
    new_q = reverse_arrows(doc.quiver, args.arrows)
    rels, dropped = _drop_relations_mentioning(doc.relations, set(args.arrows))
    out = dsl.document_for(new_q, rels, doc.mu, doc.nu, name=doc.name)
    payload = _document_payload(out, {"dropped_relations": dropped})
    note = f"# dropped {dropped} relation(s) mentioning reversed arrows\n" if dropped else ""
    _emit(args, payload, note + dsl.print_document(out))
    return 0


def _cmd_sample(args) -> int:
    doc = _load_document(args.quiver_file)
    group = GroupSpec(args.group, _check_size(args.n))
    rep = random_representation(doc.quiver, group, args.seed)
    _emit_json(serialize.representation_to_json(rep))
    return 0


def _cmd_act(args) -> int:
    doc = _load_document(args.quiver_file)
    rep = _load_representation(args.rep, doc.quiver)
    gauge = _load_gauge(args.gauge, doc.quiver)
    _emit_json(serialize.representation_to_json(gauge_act(gauge, rep)))
    return 0


def _cmd_retract(args) -> int:
    doc = _load_document(args.quiver_file)
    rep = _load_representation(args.rep, doc.quiver)
    _emit_json(serialize.representation_to_json(retract_representation(rep, args.t)))
    return 0


def _cmd_kn_residual(args) -> int:
    doc = _load_document(args.quiver_file)
    rep = _load_representation(args.rep, doc.quiver)
    _emit_json(serialize.residual_to_json(kn_moment(rep)))
    return 0


def _cmd_kn_flow(args) -> int:
    doc = _load_document(args.quiver_file)
    rep = _load_representation(args.rep, doc.quiver)
    tol = args.tol if args.tol is not None else 1e-8
    report = kn_flow(rep, step0=args.step, max_iter=args.max_iter, tol=tol)
    _emit_json(serialize.flow_report_to_json(report))
    return 0


def _cmd_witness(args) -> int:
    doc = _load_document(args.quiver_file)
    x = _load_additive(args.rep, doc.quiver)
    _check_size(x.n)
    witness = sink_source_witness(x, args.vertex)
    _emit_json(serialize.witness_to_json(witness))
    return 0


def _cmd_certificate(args) -> int:
    doc = _load_document(args.quiver_file)
    cert = closed_orbit_certificate(doc.quiver)
    payload = serialize.certificate_to_json(cert)
    lines = [f"verdict: {cert.verdict}"]
    if cert.ends:
        lines.append("ends: " + " ".join(cert.ends))
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def _cmd_rescale(args) -> int:
    doc = _load_document(args.quiver_file)
    gauge = _load_gauge(args.gauge, doc.quiver)
    x = _load_additive(args.x, doc.quiver)
    x_prime = _load_additive(args.x_prime, doc.quiver)
    tol = args.tol if args.tol is not None else 1e-9
    rescaled = unimodular_rescale(gauge, x, x_prime, tol=tol)
    _emit_json(serialize.gauge_to_json(rescaled))
    return 0


def _cmd_toric(args) -> int:
    doc = _load_document(args.quiver_file)
    mu, nu = doc.effective_weights()
    basis = invariant_monomial_basis(weight_matrix(doc.quiver, mu, nu))
    _emit_json(serialize.monomial_basis_to_json(basis))
    return 0


def _cmd_check_relations(args) -> int:
    doc = _load_document(args.quiver_file)
    rep = _load_representation(args.rep, doc.quiver)
    tol = args.tol if args.tol is not None else TOL_EQ
    ok = satisfies_relations(rep, doc.relations, tol=tol)
    payload = {"satisfied": ok, "tol": tol, "relations": len(doc.relations)}
    text = (
        f"{len(doc.relations)} relation(s) "
        + ("satisfied" if ok else "NOT satisfied")
        + f" within {tol}\n"
    )
    _emit(args, payload, text)
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "reduce": _cmd_reduce,
    "collapse": _cmd_collapse,
    "pinch": _cmd_pinch,
    "clip": _cmd_clip,
    "reverse": _cmd_reverse,
    "sample": _cmd_sample,
    "act": _cmd_act,
    "retract": _cmd_retract,
    "kn-residual": _cmd_kn_residual,
    "kn-flow": _cmd_kn_flow,
    "witness": _cmd_witness,
    "certificate": _cmd_certificate,
    "rescale": _cmd_rescale,
    "toric": _cmd_toric,
    "check-relations": _cmd_check_relations,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
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
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
