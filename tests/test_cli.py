"""CLI subcommands, exit codes, and byte-determinism of JSON output."""

import json
from pathlib import Path

import numpy as np
import pytest

from quivergauge import GroupSpec, parse, random_gauge, serialize
from quivergauge.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(name: str) -> str:
    return str(FIXTURES / name)


def test_info_text(capsys):
    code, out, _ = run(capsys, "info", fx("long_loop_5.quiver"))
    assert code == 0
    assert "b1 = 1" in out
    assert "super-cyclic: yes" in out
    assert "strongly connected: yes" in out


def test_info_dimension_long_loop_sl2(capsys):
    code, out, _ = run(capsys, "info", fx("long_loop_5.quiver"), "--group", "SL", "--n", "2")
    assert code == 0
    assert "moduli dimension for SL(2) = 0" in out


def test_info_dimension_notes_ignored_relations(capsys):
    code, out, _ = run(capsys, "info", fx("triangle.quiver"), "--group", "GL", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-2:] == [
        "moduli dimension for GL(2) = 1",
        "note: the moduli dimension counts no relations (1 ignored)",
    ]
    _, out, _ = run(capsys, "info", fx("triangle.quiver"), "--group", "GL", "--n", "2", "--json")
    payload = json.loads(out)
    assert payload["moduli_dimension"] == 1 and payload["moduli_dimension_ignores_relations"] is True
    _, out, _ = run(capsys, "info", fx("theta.quiver"), "--group", "GL", "--n", "2")
    assert out.endswith("moduli dimension for GL(2) = 5\n")
    _, out, _ = run(capsys, "info", fx("theta.quiver"), "--group", "GL", "--n", "2", "--json")
    assert json.loads(out)["moduli_dimension_ignores_relations"] is False


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", fx("theta.quiver"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["betti_number"] == 2
    assert payload["ends"] == ["v0", "v1"]


def test_reduce_tree_reports_point(capsys):
    tree = FIXTURES / "tmp_tree.quiver"
    tree.write_text("quiver T { vertices: v0 v1 v2; arrows: a0: v0 -> v1; a1: v1 -> v2; }")
    try:
        code, out, _ = run(capsys, "reduce", str(tree))
        assert code == 0
        assert "moduli is a point" in out
        code, out, _ = run(capsys, "reduce", str(tree), "--json")
        payload = json.loads(out)
        assert payload["betti_number"] == 0
        assert payload["message"] == "moduli is a point"
        assert len(payload["trace"]["steps"]) == 2
    finally:
        tree.unlink()


def test_reduce_output_reparses(capsys):
    code, out, _ = run(capsys, "reduce", fx("comet.quiver"))
    assert code == 0
    doc = parse(out)  # comment lines are skipped by the lexer
    assert doc.quiver.n_vertices == 1
    assert doc.quiver.n_arrows == 1


def test_rewrite_commands_roundtrip(capsys):
    code, out, _ = run(capsys, "collapse", fx("triangle.quiver"), "--arrow", "a0")
    assert code == 0
    doc = parse(out)
    assert doc.quiver.n_vertices == 2
    assert len(doc.relations.relations[0]) == 2

    code, out, _ = run(capsys, "pinch", fx("one_arrow.quiver"), "--v1", "v0", "--v2", "v1")
    assert code == 0
    assert parse(out).quiver.arrow("a0").is_loop

    code, out, _ = run(capsys, "clip", fx("theta.quiver"), "--arrow", "a2")
    assert code == 0
    assert parse(out).quiver.n_arrows == 2

    code, out, _ = run(capsys, "reverse", fx("one_arrow.quiver"), "--arrows", "a0")
    assert code == 0
    assert parse(out).quiver.arrow("a0").tail == "v1"


def test_clip_drops_relations_with_note(capsys):
    code, out, _ = run(capsys, "clip", fx("triangle.quiver"), "--arrow", "a0")
    assert code == 0
    assert "dropped 1 relation" in out
    assert parse(out).relations.relations == ()


def test_sample_deterministic_bytes(capsys):
    code1, out1, _ = run(capsys, "sample", fx("theta.quiver"), "--group", "SL", "--n", "3", "--seed", "5")
    code2, out2, _ = run(capsys, "sample", fx("theta.quiver"), "--group", "SL", "--n", "3", "--seed", "5")
    code3, out3, _ = run(capsys, "sample", fx("theta.quiver"), "--group", "SL", "--n", "3", "--seed", "6")
    assert code1 == code2 == code3 == 0
    assert out1 == out2
    assert out1 != out3
    payload = json.loads(out1)
    assert payload["group"] == {"family": "SL", "n": 3}
    assert set(payload["markings"]) == {"a0", "a1", "a2"}


def test_act_retract_residual_pipeline(capsys, tmp_path):
    code, rep_json, _ = run(capsys, "sample", fx("one_loop.quiver"), "--group", "GL", "--n", "2", "--seed", "1")
    assert code == 0
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(rep_json)

    # gauge: the sampled representation's marking reused as a vertex value
    markings = json.loads(rep_json)["markings"]
    gauge_payload = {"group": {"family": "GL", "n": 2}, "values": {"v0": markings["l0"]}}
    gauge_file = tmp_path / "gauge.json"
    gauge_file.write_text(json.dumps(gauge_payload))

    code, acted, _ = run(capsys, "act", fx("one_loop.quiver"), "--rep", str(rep_file), "--gauge", str(gauge_file))
    assert code == 0
    acted_markings = json.loads(acted)["markings"]
    # conjugating a loop marking by itself changes nothing
    got = np.array([[complex(re, im) for re, im in row] for row in acted_markings["l0"]])
    want = np.array([[complex(re, im) for re, im in row] for row in markings["l0"]])
    assert np.linalg.norm(got - want) <= 1e-9

    code, retracted, _ = run(capsys, "retract", fx("one_loop.quiver"), "--rep", str(rep_file), "--t", "1.0")
    assert code == 0
    m = json.loads(retracted)["markings"]["l0"]
    u = np.array([[complex(re, im) for re, im in row] for row in m])
    assert np.linalg.norm(u @ u.conj().T - np.eye(2)) <= 1e-8

    unit_file = tmp_path / "unitary.json"
    unit_file.write_text(retracted)
    code, residual, _ = run(capsys, "kn-residual", fx("one_loop.quiver"), "--rep", str(unit_file))
    assert code == 0
    assert json.loads(residual)["aggregate"] <= 1e-12


def test_kn_flow_cli(capsys, tmp_path):
    rep = {
        "group": {"family": "GL", "n": 2},
        "markings": {"l0": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    }
    rep_file = tmp_path / "jordan.json"
    rep_file.write_text(json.dumps(rep))
    code, out, _ = run(
        capsys, "kn-flow", fx("one_loop.quiver"), "--rep", str(rep_file),
        "--step", "0.25", "--max-iter", "10000", "--tol", "1e-4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["residual_history"][-1] <= 1e-4
    norms = payload["norm_history"]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_witness_cli(capsys, tmp_path):
    code, rep_json, _ = run(capsys, "sample", fx("star.quiver"), "--group", "GL", "--n", "2", "--seed", "2")
    rep_file = tmp_path / "star.json"
    rep_file.write_text(rep_json)
    code, out, _ = run(capsys, "witness", fx("star.quiver"), "--rep", str(rep_file), "--vertex", "c")
    assert code == 0
    payload = json.loads(out)
    assert payload["direction"] == "sink"
    assert set(payload["degenerated_arrows"]) == {"s0", "s1", "s2"}
    for row in payload["limit"]["markings"]["s0"]:
        assert all(entry == [0.0, 0.0] for entry in row)


def test_certificate_cli(capsys):
    code, out, _ = run(capsys, "certificate", fx("one_loop.quiver"))
    assert code == 0 and "all_invertible_orbits_closed" in out
    code, out, _ = run(capsys, "certificate", fx("one_arrow.quiver"), "--json")
    payload = json.loads(out)
    assert payload["verdict"] == "ends_obstruct"
    assert payload["ends"] == ["v0", "v1"]
    code, out, _ = run(capsys, "certificate", fx("bridge_cycles.quiver"))
    assert "inconclusive" in out


def test_rescale_cli(capsys, tmp_path):
    code, rep_json, _ = run(capsys, "sample", fx("one_loop.quiver"), "--group", "SL", "--n", "2", "--seed", "3")
    x_file = tmp_path / "x.json"
    x_file.write_text(rep_json)
    gauge_payload = {
        "group": {"family": "GL", "n": 2},
        "values": {"v0": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]},
    }
    gauge_file = tmp_path / "g.json"
    gauge_file.write_text(json.dumps(gauge_payload))
    code, out, _ = run(
        capsys, "rescale", fx("one_loop.quiver"),
        "--gauge", str(gauge_file), "--x", str(x_file), "--x-prime", str(x_file),
    )
    assert code == 0
    values = json.loads(out)["values"]["v0"]
    got = np.array([[complex(re, im) for re, im in row] for row in values])
    assert np.linalg.norm(got - np.eye(2)) <= 1e-10


def test_toric_cli(capsys):
    code, out, _ = run(capsys, "toric", fx("double_arrow_weighted.quiver"))
    assert code == 0
    payload = json.loads(out)
    assert payload["vectors"] == [[1, -1]]
    assert payload["cell_dimension"] == 1
    # weights default to (1,1) when the section is absent
    code, out, _ = run(capsys, "toric", fx("theta.quiver"))
    payload = json.loads(out)
    assert payload["cell_dimension"] == 2


# Byte-exact stdout of machine-independent JSON commands, so a change of the
# JSON layout shows here as the DSL goldens show a change of the printer.
JSON_GOLDENS = {
    "comet.reduce.json": ("reduce", "comet.quiver", "--json"),
    "double_arrow_weighted.toric.json": ("toric", "double_arrow_weighted.quiver"),
}


@pytest.mark.parametrize("golden", sorted(JSON_GOLDENS))
def test_json_output_matches_golden(capsys, golden):
    command, quiver, *flags = JSON_GOLDENS[golden]
    code, out, _ = run(capsys, command, fx(quiver), *flags)
    assert code == 0
    assert out == (FIXTURES / golden).read_text(encoding="utf-8")


def test_numeric_payloads_parse_as_their_indented_encoding(capsys, tmp_path, monkeypatch):
    """Stdout parses to the value, every number's digits included, of ``json.dumps(payload, indent=2)``."""
    payloads = []
    dumps = serialize.dumps
    monkeypatch.setattr(serialize, "dumps", lambda payload: payloads.append(payload) or dumps(payload))

    def check(*argv) -> str:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        old = json.dumps(payloads[-1], indent=2, sort_keys=True) + "\n"
        assert json.loads(out, parse_float=str) == json.loads(old, parse_float=str), argv
        return out

    for name in ("theta", "star", "comet", "one_loop"):
        q = fx(f"{name}.quiver")
        rep = tmp_path / f"{name}.json"
        rep.write_text(check("sample", q, "--group", "GL", "--n", "3", "--seed", "4"))
        check("retract", q, "--rep", str(rep), "--t", "0.5")
        check("kn-residual", q, "--rep", str(rep))
        check("kn-flow", q, "--rep", str(rep), "--max-iter", "40")
        check("toric", q)
    gauge = tmp_path / "gauge.json"
    theta = parse((FIXTURES / "theta.quiver").read_text(encoding="utf-8")).quiver
    gauge.write_text(serialize.dumps(serialize.gauge_to_json(random_gauge(theta, GroupSpec("GL", 3), 1))))
    check("act", fx("theta.quiver"), "--rep", str(tmp_path / "theta.json"), "--gauge", str(gauge))
    check("witness", fx("star.quiver"), "--rep", str(tmp_path / "star.json"), "--vertex", "c")
    check("toric", fx("double_arrow_weighted.quiver"))
    x = tmp_path / "x.json"
    x.write_text(check("sample", fx("one_loop.quiver"), "--group", "SL", "--n", "2", "--seed", "3"))
    scalar = {"group": {"family": "GL", "n": 2}, "values": {"v0": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]}}
    gauge.write_text(json.dumps(scalar))
    check("rescale", fx("one_loop.quiver"), "--gauge", str(gauge), "--x", str(x), "--x-prime", str(x))


def test_check_relations_cli(capsys, tmp_path):
    rep = {
        "group": {"family": "GL", "n": 2},
        "markings": {
            "a0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "a1": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "a2": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        },
    }
    rep_file = tmp_path / "id.json"
    rep_file.write_text(json.dumps(rep))
    code, out, _ = run(capsys, "check-relations", fx("triangle.quiver"), "--rep", str(rep_file))
    assert code == 0
    assert "satisfied" in out and "NOT" not in out

    rep["markings"]["a0"] = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    rep_file.write_text(json.dumps(rep))
    code, out, _ = run(capsys, "check-relations", fx("triangle.quiver"), "--rep", str(rep_file))
    assert code == 0
    assert "NOT satisfied" in out


def test_exit_code_usage(capsys):
    assert run(capsys, "no-such-command", "x")[0] == 1
    assert run(capsys, "info")[0] == 1
    assert run(capsys, "info", "/no/such/file.quiver")[0] == 1


def test_exit_code_parse_diagnostics(capsys, tmp_path):
    bad = tmp_path / "bad.quiver"
    bad.write_text("quiver { vertices: v0 v0; }")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2
    assert "duplicate vertex" in err

    rep = tmp_path / "bad.json"
    rep.write_text("{ not json")
    code, _, err = run(capsys, "kn-residual", fx("one_loop.quiver"), "--rep", str(rep))
    assert code == 2


def test_exit_code_weight_over_cap(capsys, tmp_path):
    bad = tmp_path / "big.quiver"
    for weight in ("2000000", "9" * 5000):
        bad.write_text(f"quiver {{ vertices: v0; arrows: x: v0 -> v0;\n weights: x({weight},1); }}")
        code, _, err = run(capsys, "toric", str(bad))
        assert code == 2
        assert "2:13: weight magnitude exceeds the cap" in err


def test_exit_code_numeric_precondition(capsys, tmp_path):
    code, _, err = run(capsys, "collapse", fx("one_loop.quiver"), "--arrow", "l0")
    assert code == 3
    assert "loop" in err

    rep_file = tmp_path / "rep.json"
    _, rep_json, _ = run(capsys, "sample", fx("one_loop.quiver"), "--group", "GL", "--n", "2", "--seed", "0")
    rep_file.write_text(rep_json)
    code, _, err = run(capsys, "retract", fx("one_loop.quiver"), "--rep", str(rep_file), "--t", "2.0")
    assert code == 3
    _, rep_json, _ = run(capsys, "sample", fx("one_loop.quiver"), "--group", "U", "--n", "2", "--seed", "0")
    rep_file.write_text(rep_json)
    for t in ("2.0", "nan"):
        code, _, err = run(capsys, "retract", fx("one_loop.quiver"), "--rep", str(rep_file), "--t", t)
        assert code == 3
        assert "retraction time must lie in [0, 1]" in err

    code, _, err = run(capsys, "sample", fx("one_loop.quiver"), "--n", "17")
    assert code == 3
    assert "16" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_structural_json_deterministic(capsys):
    _, out1, _ = run(capsys, "reduce", fx("bridge_cycles.quiver"), "--json")
    _, out2, _ = run(capsys, "reduce", fx("bridge_cycles.quiver"), "--json")
    assert out1 == out2


IDENTITY_2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
MALFORMED_MATRICES = {
    "markings not an object": None,
    "entry with three numbers": [[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]],
    "entry with a string": [[["a", 0], [0, 0]], [[0, 0], [1, 0]]],
    "entry that is a bare number": [[1, 0], [0, 1]],
    "ragged rows": [[[1, 0], [0, 0]], [[1, 0]]],
    "no rows": [],
    "an empty row": [[]],
}


def _payload_cases(tmp_path):
    """(argv, the malformed file it reads) for every malformed matrix under --rep, --gauge and --x."""
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"n": 2, "markings": {"l0": IDENTITY_2}}))
    good_gauge = tmp_path / "good_gauge.json"
    good_gauge.write_text(json.dumps({"group": {"family": "GL", "n": 2}, "values": {"v0": IDENTITY_2}}))
    q, cases = fx("one_loop.quiver"), []
    for label, matrix in MALFORMED_MATRICES.items():
        stem = tmp_path / label.replace(" ", "_")
        rep, gauge, additive = (stem.with_suffix(f".{kind}.json") for kind in ("rep", "gauge", "x"))
        group = {"family": "GL", "n": 2}
        rep.write_text(json.dumps({"group": group, "markings": [1, 2] if matrix is None else {"l0": matrix}}))
        gauge.write_text(json.dumps({"group": group, "values": [1, 2] if matrix is None else {"v0": matrix}}))
        additive.write_text(json.dumps({"n": 2, "markings": [1, 2] if matrix is None else {"l0": matrix}}))
        cases += [
            (["kn-residual", q, "--rep", str(rep)], rep),
            (["witness", q, "--rep", str(rep), "--vertex", "v0"], rep),
            (["rescale", q, "--gauge", str(gauge), "--x", str(good), "--x-prime", str(good)], gauge),
            (["rescale", q, "--gauge", str(good_gauge), "--x", str(additive), "--x-prime", str(good)], additive),
        ]
    return cases


def test_malformed_payload_files_exit_2_and_name_the_file(capsys, tmp_path):
    for argv, path in _payload_cases(tmp_path):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), (argv, err)
        assert str(path) in err and "Traceback" not in err


def test_well_formed_invalid_payloads_keep_exit_3(capsys, tmp_path):
    singular = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    big = [[[float(i == j), 0.0] for j in range(17)] for i in range(17)]
    for group, matrix, message in (
        ({"family": "GL", "n": 2}, singular, "not in GL(2)"),
        ({"family": "GL", "n": 3}, IDENTITY_2, "expected size 3"),
        ({"family": "GL", "n": 17}, big, "exceeds the supported limit 16"),
    ):
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"group": group, "markings": {"l0": matrix}}))
        code, _, err = run(capsys, "kn-residual", fx("one_loop.quiver"), "--rep", str(rep))
        assert code == 3 and message in err, err


def test_non_utf8_payload_exits_2(capsys, tmp_path):
    rep = tmp_path / "latin1.json"
    rep.write_bytes(b'{"group": "\xe9"}')
    code, _, err = run(capsys, "kn-residual", fx("one_loop.quiver"), "--rep", str(rep))
    assert code == 2 and str(rep) in err


def test_options_only_on_the_commands_that_read_them(capsys):
    for argv in (
        ["sample", fx("one_loop.quiver"), "--json"],
        ["toric", fx("one_loop.quiver"), "--json"],
        ["info", fx("one_loop.quiver"), "--tol", "1"],
        ["info", fx("one_loop.quiver"), "--seed", "1"],
        ["reduce", fx("one_loop.quiver"), "--seed", "1"],
        ["certificate", fx("one_loop.quiver"), "--tol", "1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert "unrecognized arguments" in err


def test_nan_and_negative_tolerances_exit_3(capsys, tmp_path):
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps({"group": {"family": "GL", "n": 2}, "markings": {"l0": IDENTITY_2}}))
    gauge_file = tmp_path / "g.json"
    gauge_file.write_text(json.dumps({"group": {"family": "GL", "n": 2}, "values": {"v0": IDENTITY_2}}))
    q, rep, gauge = fx("one_loop.quiver"), str(rep_file), str(gauge_file)
    for argv, message in (
        (["kn-flow", q, "--rep", rep, "--step", "nan"], "step0"),
        (["kn-flow", q, "--rep", rep, "--step", "inf"], "step0"),
        (["kn-flow", q, "--rep", rep, "--tol", "nan"], "tol"),
        (["rescale", q, "--gauge", gauge, "--x", rep, "--x-prime", rep, "--tol", "nan"], "tol"),
        (["rescale", q, "--gauge", gauge, "--x", rep, "--x-prime", rep, "--tol", "-1"], "tol"),
        (["check-relations", q, "--rep", rep, "--tol", "nan"], "tol"),
        (["check-relations", q, "--rep", rep, "--tol", "-1"], "tol"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert message in err


def test_group_size_and_family_must_be_json_types(capsys, tmp_path):
    good_gauge = tmp_path / "gauge.json"
    good_gauge.write_text(json.dumps({"group": {"family": "GL", "n": 2}, "values": {"v0": IDENTITY_2}}))
    q = fx("one_loop.quiver")
    for n in ("x", 2.7, True):
        rep, x = tmp_path / "rep.json", tmp_path / "x.json"
        rep.write_text(json.dumps({"group": {"family": "GL", "n": n}, "markings": {"l0": IDENTITY_2}}))
        x.write_text(json.dumps({"n": n, "markings": {"l0": IDENTITY_2}}))
        for argv, path in (
            (["kn-residual", q, "--rep", str(rep)], rep),
            (["rescale", q, "--gauge", str(good_gauge), "--x", str(x), "--x-prime", str(x)], x),
            (["rescale", q, "--gauge", str(good_gauge), "--x", str(rep), "--x-prime", str(rep)], rep),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), (argv, n, err)
            assert str(path) in err and "must be an integer" in err
    rep = tmp_path / "family.json"
    rep.write_text(json.dumps({"group": {"family": 2, "n": 2}, "markings": {"l0": IDENTITY_2}}))
    code, out, err = run(capsys, "kn-residual", q, "--rep", str(rep))
    assert (code, out) == (2, "") and str(rep) in err and "must be a string" in err


def test_unknown_family_and_nonpositive_n_exit_2_and_name_the_file(capsys, tmp_path):
    q = fx("one_loop.quiver")
    good_rep = tmp_path / "good.json"
    good_rep.write_text(json.dumps({"group": {"family": "GL", "n": 2}, "markings": {"l0": IDENTITY_2}}))
    good_gauge = tmp_path / "good_gauge.json"
    good_gauge.write_text(json.dumps({"group": {"family": "GL", "n": 2}, "values": {"v0": IDENTITY_2}}))
    for group, message in (
        ({"family": "XX", "n": 2}, "group family must be a string among GL, SL, U, SU, TORUS, got 'XX'"),
        ({"family": "GL", "n": 0}, "group n must be >= 1, got 0"),
        ({"family": "GL", "n": -3}, "group n must be >= 1, got -3"),
        ({"family": "TORUS", "n": 2}, "TORUS means GL(1), so group n must be 1, got 2"),
    ):
        rep, gauge = tmp_path / "rep.json", tmp_path / "gauge.json"
        rep.write_text(json.dumps({"group": group, "markings": {"l0": IDENTITY_2}}))
        gauge.write_text(json.dumps({"group": group, "values": {"v0": IDENTITY_2}}))
        for argv, path in (
            (["kn-residual", q, "--rep", str(rep)], rep),
            (["act", q, "--rep", str(good_rep), "--gauge", str(gauge)], gauge),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), (argv, group, err)
            assert str(path) in err and message in err, err
    for n in (0, -1):
        x = tmp_path / "x.json"
        x.write_text(json.dumps({"n": n, "markings": {"l0": IDENTITY_2}}))
        for argv in (
            ["witness", q, "--rep", str(x), "--vertex", "v0"],
            ["rescale", q, "--gauge", str(good_gauge), "--x", str(x), "--x-prime", str(good_rep)],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), (argv, n, err)
            assert str(x) in err and f"n must be >= 1, got {n}" in err, err


def test_library_warnings_are_one_plain_line(capsys, tmp_path):
    q = fx("one_loop.quiver")
    _, sample, _ = run(capsys, "sample", q, "--group", "U", "--n", "2")
    rep = tmp_path / "rep.json"
    rep.write_text(sample)
    code, out, err = run(capsys, "retract", q, "--rep", str(rep), "--t", "0.5")
    assert code == 0 and json.loads(out) == json.loads(sample)
    assert err == "warning: U(2) is compact; retraction is the identity\n"


def _scaled_gl3_theta_sample(capsys, tmp_path, c: float) -> str:
    """A GL(3) sample on theta with every marking multiplied by c, as a file."""
    _, sample, _ = run(capsys, "sample", fx("theta.quiver"), "--group", "GL", "--n", "3")
    payload = json.loads(sample)
    payload["markings"] = {
        name: [[[c * x for x in entry] for entry in row] for row in m] for name, m in payload["markings"].items()
    }
    rep = tmp_path / "scaled.json"
    rep.write_text(json.dumps(payload))
    return str(rep)


def test_retract_of_a_scaled_sample_succeeds(capsys, tmp_path):
    # validity tests are relative, so scaling the markings changes no verdict
    rep = _scaled_gl3_theta_sample(capsys, tmp_path, 1e4)
    code, out, err = run(capsys, "retract", fx("theta.quiver"), "--rep", rep, "--t", "0.5")
    assert (code, err) == (0, "")
    for m in json.loads(out)["markings"].values():
        assert np.isfinite(np.array(m)).all()


def test_flow_trials_that_overflow_print_no_warnings(capsys, tmp_path):
    rep = _scaled_gl3_theta_sample(capsys, tmp_path, 1e4)
    code, out, err = run(capsys, "kn-flow", fx("theta.quiver"), "--rep", rep, "--max-iter", "3")
    assert (code, err) == (0, "")
    assert json.loads(out)["iterations"] <= 3


def test_stats_goes_to_stderr_and_leaves_stdout_alone(capsys):
    for name, vertices, arrows in (("theta.quiver", 2, 3), ("comet.quiver", 5, 5)):
        for argv, n in (
            (["info"], None),
            (["reduce", "--json"], None),
            (["toric"], None),
            (["sample", "--group", "SU", "--n", "3"], 3),
            (["info", "--group", "SL", "--n", "2"], 2),
        ):
            argv = [argv[0], fx(name), *argv[1:]]
            code, plain, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            code, out, err = run(capsys, "--stats", *argv)
            assert (code, out) == (0, plain), argv
            lines = err.splitlines()
            assert len(lines) == 1, argv
            stats = json.loads(lines[0])
            assert set(stats) == {"parse_s", "compute_s", "serialize_s", "V", "A", "n"}
            assert (stats["V"], stats["A"], stats["n"]) == (vertices, arrows, n), argv
            assert all(stats[k] >= 0 for k in ("parse_s", "compute_s", "serialize_s"))


def test_stats_reports_the_payload_group_size(capsys, tmp_path):
    _, rep_json, _ = run(capsys, "sample", fx("one_loop.quiver"), "--group", "U", "--n", "3")
    rep = tmp_path / "rep.json"
    rep.write_text(rep_json)
    code, _, err = run(capsys, "--stats", "kn-residual", fx("one_loop.quiver"), "--rep", str(rep))
    assert code == 0 and json.loads(err)["n"] == 3
    # a failed command writes its error and no stats line
    code, _, err = run(capsys, "--stats", "kn-residual", fx("one_loop.quiver"), "--rep", str(tmp_path / "none"))
    assert code == 1 and err.startswith("error:") and "parse_s" not in err
