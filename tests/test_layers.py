"""Import layers: structural commands never load numpy; numeric names resolve lazily."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import quivergauge

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(quivergauge.__file__).resolve().parents[1]

# Every name the package exported while it imported all of its modules
# eagerly, by the module that defines it now.
EXPORTED = {
    "additive": """AdditiveRep DegenerationWitness act_additive embed_additive sink_source_witness
        to_representation unimodular_rescale""",
    "dsl": "ParseError QuiverDocument canonicalize document_for parse print_document",
    "kempfness": """FlowReport KNResidual action_pairing infinitesimal_action kn_flow kn_moment
        moment_contraction orbit_norm polar_retract retract_representation""",
    "matrices": """PolarFactors cartan_involution hermitian_exp hermitian_log hermitian_power in_group
        polar_decompose random_element""",
    "quiver": """ALL_INVERTIBLE_ORBITS_CLOSED ENDS_OBSTRUCT INCONCLUSIVE TOL_EQ TOL_MEMBERSHIP Arrow
        GroupSpec MonotoneReport OrbitCertificate Quiver RelationSet SpanningForest Word betti_number
        classify_vertex closed_orbit_certificate connected_components directed_path ends
        euler_characteristic fundamental_cycles is_connected is_cycle is_strongly_connected
        is_super_cyclic moduli_dimension monotone_weights_force_constant spanning_forest
        strongly_connected_components validate_relations vertex_classes word_endpoints""",
    "representation": """GaugeElement Representation evaluate_word gauge_act identity_gauge induced_gauge
        normal_form_tree_gauge pushforward_collapse random_gauge random_representation
        reverse_representation satisfies_relations standard_word_menu trace_invariants weighted_act""",
    "rewrites": "CollapseStep ReductionTrace arrows_equivalent clip collapse pinch reduce_to_rose reverse_arrows",
    "toric": """MonomialBasis WeightedToricAction check_invariance integer_kernel hermite_rows
        invariant_monomial_basis scalar_weighted_act weight_matrix""",
}

THETA = str(FIXTURES / "theta.quiver")
STRUCTURAL = {
    "info": ["info", THETA, "--group", "GL", "--n", "2"],
    "info-json": ["info", str(FIXTURES / "triangle.quiver"), "--json", "--group", "SL", "--n", "3"],
    "reduce": ["reduce", THETA, "--json"],
    "collapse": ["collapse", THETA, "--arrow", "a0"],
    "pinch": ["pinch", THETA, "--v1", "v0", "--v2", "v1"],
    "clip": ["clip", THETA, "--arrow", "a1"],
    "reverse": ["reverse", THETA, "--arrows", "a0", "a2"],
    "certificate": ["certificate", str(FIXTURES / "long_loop_5.quiver")],
    "toric": ["toric", str(FIXTURES / "double_arrow_weighted.quiver")],
}

# Runs the CLI in this process, then reports whether numpy got loaded.
PROBE = """
import sys
from quivergauge.cli import main
code = main(sys.argv[1:])
print("numpy" in sys.modules, code, file=sys.stderr)
"""


def python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("argv", STRUCTURAL.values(), ids=STRUCTURAL.keys())
def test_structural_command_does_not_load_numpy(argv):
    done = python("-c", PROBE, *argv)
    assert done.stdout
    assert done.stderr.splitlines()[-1] == "False 0", done.stderr


def test_importing_the_cli_does_not_load_numpy():
    done = python("-c", "import sys, quivergauge.cli; print('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_numeric_commands_run_from_a_fresh_process(tmp_path):
    done = python("-m", "quivergauge.cli", "sample", THETA, "--group", "GL", "--n", "3", "--seed", "4")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["group"] == {"family": "GL", "n": 3}
    rep = tmp_path / "rep.json"
    rep.write_text(done.stdout)
    done = python("-m", "quivergauge.cli", "kn-residual", THETA, "--rep", str(rep))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["aggregate"] > 0


def test_every_exported_name_is_its_defining_module_attribute():
    names = dir(quivergauge)
    for module, exported in EXPORTED.items():
        defining = import_module(f"quivergauge.{module}")
        for name in exported.split():
            assert name in names
            assert getattr(quivergauge, name) is getattr(defining, name), name
    assert "__version__" in names


def test_certificate_lives_in_the_structural_layer_only():
    from quivergauge import additive

    for name in ("closed_orbit_certificate", "OrbitCertificate", "directed_path", "INCONCLUSIVE"):
        assert not hasattr(additive, name)


def test_modules_stay_package_attributes():
    for name in EXPORTED:
        assert name in dir(quivergauge)
        assert getattr(quivergauge, name) is sys.modules[f"quivergauge.{name}"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quivergauge.no_such_name
