"""JSON encodings: round trips and canonical text output."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quivergauge.serialize as sz
from quivergauge import (
    Word,
    embed_additive,
    kn_flow,
    kn_moment,
    random_gauge,
    random_representation,
    reduce_to_rose,
)
from conftest import GL2, PROPERTY, comet, long_loop, one_loop, triangle, two_cycle


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    encoded = sz.matrix_to_json(m)
    assert encoded[0][1] == [m[0, 1].real, m[0, 1].imag]
    assert np.array_equal(sz.matrix_from_json(encoded), m)


def test_representation_and_gauge_roundtrip():
    q = two_cycle()
    f = random_representation(q, GL2, 1)
    payload = sz.representation_to_json(f)
    assert payload["group"] == {"family": "GL", "n": 2}
    back = sz.representation_from_json(payload, q)
    for name in f.markings:
        assert np.array_equal(back.markings[name], f.markings[name])

    g = random_gauge(q, GL2, 2)
    back_g = sz.gauge_from_json(sz.gauge_to_json(g), q)
    for v in q.vertices:
        assert np.array_equal(back_g.values[v], g.values[v])


def test_additive_roundtrip():
    x = embed_additive(random_representation(one_loop(), GL2, 3))
    back = sz.additive_from_json(sz.additive_to_json(x), one_loop())
    assert np.array_equal(back.markings["l0"], x.markings["l0"])


def test_quiver_relations_word_encoding():
    # the documents are the only input of quivers and relations, so these encoders have no decoder
    q, rels = triangle()
    assert sz.quiver_to_json(q) == {
        "vertices": ["v0", "v1", "v2"],
        "arrows": [
            {"name": "a0", "tail": "v0", "head": "v1"},
            {"name": "a1", "tail": "v1", "head": "v2"},
            {"name": "a2", "tail": "v2", "head": "v0"},
        ],
    }
    assert sz.relations_to_json(rels) == [[["a2", 1], ["a1", 1], ["a0", 1]]]
    assert sz.word_to_json(Word((("a0", -1), ("a1", 1)))) == [["a0", -1], ["a1", 1]]


def test_trace_is_versioned_and_ordered():
    _, _, trace = reduce_to_rose(comet())
    payload = sz.trace_to_json(trace)
    assert payload["version"] == 2
    assert [s["arrow"] for s in payload["steps"]] == [s.arrow for s in trace.steps]
    assert payload["final"]["vertices"] == list(trace.final.vertices)


def test_flow_report_and_residual_payloads():
    f = random_representation(one_loop(), GL2, 4)
    report = kn_flow(f, step0=0.2, max_iter=50, tol=1e-6)
    payload = sz.flow_report_to_json(report)
    assert payload["iterations"] == report.iterations
    assert payload["norm_history"] == list(report.norm_history)
    res = kn_moment(f)
    rp = sz.residual_to_json(res)
    assert rp["aggregate"] == res.aggregate
    assert set(rp["per_vertex"]) == {"v0"}


def test_dumps_is_canonical():
    text = sz.dumps({"b": 1, "a": [1.5, 2]})
    assert text == '{\n  "a": [1.5, 2],\n  "b": 1\n}\n'
    assert json.loads(text) == {"a": [1.5, 2], "b": 1}


def test_dumps_indents_lists_of_objects_and_keeps_other_lists_on_one_line():
    payload = {"arrows": [{"tail": "v0", "name": "a0"}, {}], "empty": {}, "words": [[["a0", -1]], []]}
    assert sz.dumps(payload) == (
        "{\n"
        '  "arrows": [\n'
        "    {\n"
        '      "name": "a0",\n'
        '      "tail": "v0"\n'
        "    },\n"
        "    {}\n"
        "  ],\n"
        '  "empty": {},\n'
        '  "words": [[["a0", -1]], []]\n'
        "}\n"
    )


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([0.0, -0.0, 1e300, -1e-300, 0.1, 2.5])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5)
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.dictionaries(st.text(max_size=4), inner, max_size=3), min_size=1, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)


@settings(PROPERTY, max_examples=200)
@given(JSON_TREES)
def test_dumps_round_trips_with_sorted_keys_and_one_newline(payload):
    text = sz.dumps(payload)
    assert json.loads(text) == payload
    assert text.endswith("\n") and not text.endswith("\n\n")

    def keys_sorted(x) -> bool:
        if isinstance(x, dict):
            return list(x) == sorted(x) and all(keys_sorted(v) for v in x.values())
        return not isinstance(x, list) or all(keys_sorted(v) for v in x)

    assert keys_sorted(json.loads(text))


MALFORMED_MATRICES = [
    None, [[1, 0], [0, 1]], [[[1, 0, 0]]], [[["a", 0]]], [[[True, 0]]], [[[1, 0]], []], [[[10**400, 0]]]
]


@pytest.mark.parametrize("data", MALFORMED_MATRICES)
def test_matrix_from_json_rejects_malformed_matrices(data):
    with pytest.raises(TypeError):
        sz.matrix_from_json(data)


@pytest.mark.parametrize("data", MALFORMED_MATRICES)
@pytest.mark.parametrize("kind", ["representation", "gauge", "additive"])
def test_matrix_maps_name_a_malformed_second_entry(kind, data):
    """A bad matrix among well-formed 1x1 ones is named, whichever decoder reads the map."""
    q = long_loop(3)
    ids = q.vertices if kind == "gauge" else tuple(a.name for a in q.arrows)
    entries = {k: data if i == 1 else [[[1, 0]]] for i, k in enumerate(ids)}
    group = {"family": "GL", "n": 1}
    key, decode, payload = {
        "representation": ("markings", sz.representation_from_json, {"group": group, "markings": entries}),
        "gauge": ("values", sz.gauge_from_json, {"group": group, "values": entries}),
        "additive": ("markings", sz.additive_from_json, {"n": 1, "markings": entries}),
    }[kind]
    with pytest.raises(TypeError, match="^" + re.escape(f"{key}[{ids[1]!r}]: ")):
        decode(payload, q)


def test_payloads_reject_non_object_matrix_maps():
    q = one_loop()
    with pytest.raises(TypeError, match="markings"):
        sz.representation_from_json({"group": {"family": "GL", "n": 2}, "markings": [1, 2]}, q)
    with pytest.raises(TypeError, match="values"):
        sz.gauge_from_json({"group": {"family": "GL", "n": 2}, "values": [1, 2]}, q)
    with pytest.raises(TypeError, match=r"markings\['l0'\]"):
        sz.additive_from_json({"n": 1, "markings": {"l0": [[[1, 0, 0]]]}}, q)
