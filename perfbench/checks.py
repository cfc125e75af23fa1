"""Output checks, computed independently of the program under test.

Each check takes the generated document (and, where needed, the input
representation) plus the command's stdout, and returns ``None`` when the
output is right or a one-line reason when it is not.  Only numpy and the
standard library are used, so a defect in the program cannot also hide in
its own check.
"""

from __future__ import annotations

import json
from collections import deque

import numpy as np

from inputs import Doc

# Trace agreement for closed words, relative to the absolute-value product
# |M_L|...|M_1| of the word's matrices (the scale rounding errors of the
# product itself are proportional to).  Pushforward conjugates each marking
# once per collapse step, up to V-1 = 399 times, and the flow composes
# about a hundred gauge steps, so errors grow well beyond a single product;
# 1e-7 leaves a wide margin over the worst ratio measured (see README.md)
# while still catching any wrong marking, which moves a trace by O(1).
TRACE_RTOL = 1e-7
# Number of fundamental cycles whose traces are compared per check.
TRACE_WORDS = 32
# Moment matrices recomputed here must match the program's to this
# relative accuracy (same arithmetic, different summation order).
MOMENT_RTOL = 1e-9
# Group membership of sampled markings.
MEMBERSHIP_TOL = 1e-9
# Retraction identity (m'* m')^2 = m* m at t = 1/2, relative.
RETRACT_RTOL = 1e-8

VERDICTS = ("all_invertible_orbits_closed", "ends_obstruct", "inconclusive")


def matrix(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data], dtype=complex)


def markings(payload) -> dict[str, np.ndarray]:
    return {name: matrix(m) for name, m in payload["markings"].items()}


def _json(out: str):
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def betti(doc: Doc) -> int:
    return len(doc.arrows) - len(doc.vertices) + 1


def ends(doc: Doc) -> set[str]:
    """Sources and sinks; a loop counts as both an in- and an out-arrow."""
    tails = {t for _, t, _ in doc.arrows}
    heads = {h for _, _, h in doc.arrows}
    return {v for v in doc.vertices if (v in tails) != (v in heads)}


def moduli_dimension_gl2(doc: Doc) -> int:
    b = betti(doc)
    return 0 if b == 0 else 1 + (b - 1) * 4


# ---------------------------------------------------------------- structure


def check_info_text(doc: Doc, out: str) -> str | None:
    lines = set(out.splitlines())
    want = (
        f"b1 = {betti(doc)}",
        "components = 1",
        f"moduli dimension for GL(2) = {moduli_dimension_gl2(doc)}",
    )
    for line in want:
        if line not in lines:
            return f"info: missing line {line!r}"
    return None


def check_info_json(doc: Doc, out: str, strongly_connected: bool | None = None) -> str | None:
    payload, err = _json(out)
    if err:
        return err
    if payload["betti_number"] != betti(doc) or payload["components"] != 1:
        return f"info: betti {payload['betti_number']} components {payload['components']}"
    if set(payload["ends"]) != ends(doc):
        return "info: ends differ from sources and sinks"
    if strongly_connected is not None and payload["strongly_connected"] != strongly_connected:
        return f"info: strongly_connected is {payload['strongly_connected']}"
    return None


def check_reduce(doc: Doc, out: str) -> str | None:
    payload, err = _json(out)
    if err:
        return err
    rose = payload["rose"]
    loops = [a for a in rose["arrows"] if a["tail"] == a["head"]]
    if len(rose["vertices"]) != 1 or len(loops) != len(rose["arrows"]):
        return f"reduce: rose has {len(rose['vertices'])} vertices"
    if len(loops) != betti(doc):
        return f"reduce: {len(loops)} loops, expected A-V+1 = {betti(doc)}"
    if len(payload["trace"]["steps"]) != len(doc.vertices) - 1:
        return f"reduce: {len(payload['trace']['steps'])} steps, expected V-1"
    return None


def check_certificate(doc: Doc, out: str, strongly_connected: bool | None = None) -> str | None:
    payload, err = _json(out)
    if err:
        return err
    verdict, want_ends = payload.get("verdict"), ends(doc)
    if verdict not in VERDICTS:
        return f"certificate: unknown verdict {verdict!r}"
    if want_ends and (verdict != "ends_obstruct" or set(payload["ends"]) != want_ends):
        return f"certificate: verdict {verdict} with ends present"
    if strongly_connected and verdict != "all_invertible_orbits_closed":
        return f"certificate: verdict {verdict} on a strongly connected quiver"
    return None


def _rank(rows) -> int:
    return int(np.linalg.matrix_rank(np.array(rows, dtype=float))) if rows else 0


def check_toric(doc: Doc, out: str) -> str | None:
    """Vectors lie in the exact kernel and their count is the cell dimension."""
    payload, err = _json(out)
    if err:
        return err
    order, vectors = payload["arrow_order"], payload["vectors"]
    arrows = {a: (t, h) for a, t, h in doc.arrows}
    weights = doc.effective_weights()
    if sorted(order) != sorted(arrows):
        return "toric: arrow order does not list the arrows"
    for k, vec in enumerate(vectors):
        acc: dict[str, int] = {}
        for name, e in zip(order, vec):
            if e:
                tail, head = arrows[name]
                mu, nu = weights[name]
                acc[head] = acc.get(head, 0) + mu * e
                acc[tail] = acc.get(tail, 0) - nu * e
        if any(acc.values()):
            return f"toric: vector {k} is not in the kernel"
    weight_rows = []
    index = {v: i for i, v in enumerate(doc.vertices)}
    for name in order:
        row = [0] * len(doc.vertices)
        tail, head = arrows[name]
        mu, nu = weights[name]
        row[index[head]] += mu
        row[index[tail]] -= nu
        weight_rows.append(row)
    cell = len(order) - _rank(weight_rows)
    if payload["cell_dimension"] != cell or len(vectors) != cell:
        return f"toric: {len(vectors)} vectors, cell_dimension {payload['cell_dimension']}, expected {cell}"
    if all(abs(x) < 2**50 for v in vectors for x in v) and _rank(vectors) != len(vectors):
        return "toric: vectors are linearly dependent"
    return None


# ---------------------------------------------------------------- numerics


def check_sample(doc: Doc, family: str, n: int, out: str) -> str | None:
    payload, err = _json(out)
    if err:
        return err
    if payload["group"] != {"family": family, "n": n}:
        return f"sample: group {payload['group']}"
    ms = markings(payload)
    if set(ms) != {a for a, _, _ in doc.arrows}:
        return "sample: markings do not match the arrows"
    for name, m in ms.items():
        if m.shape != (n, n) or not np.all(np.isfinite(m)):
            return f"sample: marking {name} has shape {m.shape} or is not finite"
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] <= MEMBERSHIP_TOL * s[0]:
            return f"sample: marking {name} is singular"
        if family == "SL" and abs(np.linalg.det(m) - 1) > MEMBERSHIP_TOL:
            return f"sample: marking {name} has det != 1"
        if family == "U" and np.linalg.norm(m @ m.conj().T - np.eye(n)) > MEMBERSHIP_TOL:
            return f"sample: marking {name} is not unitary"
    return None


def moments(doc: Doc, ms: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    n = next(iter(ms.values())).shape[0]
    out = {v: np.zeros((n, n), dtype=complex) for v in doc.vertices}
    for a, t, h in doc.arrows:
        m = ms[a]
        out[t] += m.conj().T @ m
        out[h] -= m @ m.conj().T
    return out


def residual(doc: Doc, ms: dict[str, np.ndarray]) -> float:
    total = 0.0
    for m in moments(doc, ms).values():
        p = m - np.trace(m) / m.shape[0] * np.eye(m.shape[0])
        total += float(np.linalg.norm(p) ** 2)
    return total**0.5


def check_residual(doc: Doc, rep: dict[str, np.ndarray], out: str) -> str | None:
    payload, err = _json(out)
    if err:
        return err
    want = moments(doc, rep)
    scale = max(1.0, max(float(np.linalg.norm(m)) for m in want.values()))
    for v, m in want.items():
        if np.linalg.norm(matrix(payload["per_vertex"][v]) - m) > MOMENT_RTOL * scale:
            return f"kn-residual: moment at {v} differs"
    if abs(payload["aggregate"] - residual(doc, rep)) > MOMENT_RTOL * scale:
        return "kn-residual: aggregate differs"
    return None


def check_retract(doc: Doc, rep: dict[str, np.ndarray], out: str) -> str | None:
    """At t = 1/2, m' = m (m*m)^(-1/4), so (m'* m')^2 = m* m."""
    payload, err = _json(out)
    if err:
        return err
    for name, m2 in markings(payload).items():
        gram = rep[name].conj().T @ rep[name]
        half = m2.conj().T @ m2
        if np.linalg.norm(half @ half - gram) > RETRACT_RTOL * np.linalg.norm(gram):
            return f"retract: marking {name} is not the t=1/2 polar point"
    return None


def cycle_words(doc: Doc, limit: int = TRACE_WORDS) -> list[list[tuple[str, int]]]:
    """Fundamental cycles of a BFS tree from the first vertex.

    Letters are (arrow, +1) when the walk follows the arrow and (arrow, -1)
    against it, in the order they are applied.
    """
    adj: dict[str, list[tuple[str, str, int]]] = {v: [] for v in doc.vertices}
    for a, t, h in doc.arrows:
        adj[t].append((a, h, 1))
        adj[h].append((a, t, -1))
    root = doc.vertices[0]
    path = {root: []}  # letters from root to the vertex
    tree = set()
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for a, w, e in adj[v]:
            if w not in path:
                path[w] = path[v] + [(a, e)]
                tree.add(a)
                queue.append(w)
    words = []
    for a, t, h in doc.arrows:
        if a in tree:
            continue
        back = [(b, -e) for b, e in reversed(path[h])]
        words.append(path[t] + [(a, 1)] + back)
        if len(words) == limit:
            break
    return words


def word_trace(ms: dict[str, np.ndarray], word) -> tuple[complex, float]:
    """Trace of the word's product and the norm of its absolute-value product."""
    n = next(iter(ms.values())).shape[0]
    prod, absprod = np.eye(n, dtype=complex), np.eye(n)
    for a, e in word:
        m = ms[a] if e == 1 else np.linalg.inv(ms[a])
        prod, absprod = m @ prod, np.abs(m) @ absprod
    return complex(np.trace(prod)), float(np.linalg.norm(absprod))


def trace_error(doc: Doc, before: dict, after: dict, dropped: frozenset = frozenset()) -> float:
    """Worst trace change over the cycle words, relative to their scale.

    ``dropped`` arrows were collapsed (marked I) and are left out of the
    words evaluated on ``after``.
    """
    worst = 0.0
    for word in cycle_words(doc):
        t0, scale = word_trace(before, word)
        kept = [(a, e) for a, e in word if a not in dropped]
        t1 = word_trace(after, kept)[0] if kept else complex(len(next(iter(before.values()))))
        worst = max(worst, abs(t1 - t0) / scale)
    return worst


def check_flow(doc: Doc, rep: dict[str, np.ndarray], tol: float, out: str) -> str | None:
    payload, err = _json(out)
    if err:
        return err
    norms, residuals = payload["norm_history"], payload["residual_history"]
    if not payload["converged"]:
        return f"kn-flow: converged false, final residual {residuals[-1]:.3g} > tol {tol:g}"
    if len(norms) != payload["iterations"] + 1 or len(residuals) != len(norms):
        return "kn-flow: history length does not match iterations"
    if any(b > a for a, b in zip(norms, norms[1:])):
        return "kn-flow: norm history increases"
    final = markings(payload["final"])
    got = residual(doc, final)
    if got > tol * (1 + 1e-6):
        return f"kn-flow: recomputed final residual {got:.3g} exceeds tol {tol:g}"
    err_ratio = trace_error(doc, rep, final)
    if err_ratio > TRACE_RTOL:
        return f"kn-flow: closed-word traces moved by {err_ratio:.3g} of scale"
    return None


def check_pushforward(doc: Doc, rep: dict, rose: dict, collapsed: frozenset) -> str | None:
    err_ratio = trace_error(doc, rep, rose, collapsed)
    if err_ratio > TRACE_RTOL:
        return f"pushforward: closed-word traces moved by {err_ratio:.3g} of scale"
    return None
