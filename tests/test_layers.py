"""Import layers: every name resolves lazily, and each command loads only the modules it calls.

No module imports ``dataclasses``, and no structural command loads it or
``inspect``.

Every exported name, every public method, property and record field of an
exported class, and every public function of ``serialize`` also has a user
besides the unit tests.
"""

import ast
import inspect
import json
import sys
from functools import cache, cached_property
from importlib import import_module
from pathlib import Path

import pytest

import quivergauge
from conftest import python
from quivergauge.quiver import _Record

FIXTURES = Path(__file__).parent / "fixtures"

# Every name the package exports, by the module that defines it.
EXPORTED = {
    "additive": """AdditiveRep DegenerationWitness act_additive embed_additive sink_source_witness
        unimodular_rescale""",
    "dsl": "ParseError QuiverDocument canonicalize document_for parse print_document",
    "kempfness": """FlowReport KNResidual action_pairing kn_flow kn_moment orbit_norm polar_retract
        retract_representation""",
    "matrices": "hermitian_exp random_element",
    "quiver": """ALL_INVERTIBLE_ORBITS_CLOSED ENDS_OBSTRUCT INCONCLUSIVE TOL_EQ TOL_MEMBERSHIP Arrow
        GroupSpec MonotoneReport OrbitCertificate Quiver RelationSet SpanningForest Word betti_number
        classify_vertex closed_orbit_certificate connected_components directed_path ends
        euler_characteristic fundamental_cycles is_connected is_strongly_connected
        is_super_cyclic moduli_dimension monotone_weights_force_constant spanning_forest
        strongly_connected_components validate_relations vertex_classes word_endpoints""",
    "representation": """GaugeElement Representation evaluate_word gauge_act induced_gauge
        normal_form_tree_gauge pushforward_collapse random_gauge random_representation
        reverse_representation satisfies_relations standard_word_menu trace_invariants weighted_act""",
    "rewrites": "CollapseStep ReductionTrace clip collapse pinch reduce_to_rose reverse_arrows",
    "toric": """MonomialBasis WeightedToricAction check_invariance invariant_monomial_basis
        weight_matrix""",
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

# Runs the CLI in this process, then reports which of the WATCHED modules
# got loaded, the exit code and the quivergauge modules loaded.  A plain
# call is read without argparse, so it loads neither argparse nor the
# gettext and locale modules that argparse's help strings pull in.
WATCHED = ("numpy", "dataclasses", "inspect", "argparse", "gettext", "locale")
PROBE = f"""
import sys
from quivergauge.cli import main
code = main(sys.argv[1:])
loaded = sorted(m.split(".")[-1] for m in sys.modules if m.startswith("quivergauge."))
print(*(m in sys.modules for m in {WATCHED!r}), code, *loaded, file=sys.stderr)
"""
# Structural modules a command does not call, so may not load.
NOT_CALLED = {"info": ("rewrites", "toric"), "certificate": ("rewrites", "toric"), "toric": ("rewrites",)}
# Numeric commands: none loads ``rewrites``.  Extra options; the ones with a
# payload read a GL(2) sample on theta.
NUMERIC = {"sample": ["--n", "2"], "kn-residual": [], "kn-flow": ["--max-iter", "3"], "retract": ["--t", "0.5"]}


def probe(argv) -> tuple[dict[str, bool], str, list[str]]:
    done = python("-c", PROBE, *argv)
    assert done.stdout
    words = done.stderr.splitlines()[-1].split()
    watched = {m: flag == "True" for m, flag in zip(WATCHED, words)}
    return watched, words[len(WATCHED)], words[len(WATCHED) + 1 :]


@pytest.mark.parametrize("argv", STRUCTURAL.values(), ids=STRUCTURAL.keys())
def test_structural_command_does_not_load_numpy(argv):
    watched, code, loaded = probe(argv)
    assert code == "0"
    assert not any(watched.values()), watched
    assert not {"matrices", "representation", "kempfness", "additive"} & set(loaded), loaded


@pytest.mark.parametrize("command", NOT_CALLED)
def test_command_loads_only_the_structural_modules_it_calls(command):
    _, code, loaded = probe(STRUCTURAL[command])
    assert code == "0"
    assert {"cli", "dsl", "quiver", "serialize"} <= set(loaded)
    assert not set(NOT_CALLED[command]) & set(loaded), loaded


@pytest.fixture(scope="module")
def theta_rep(tmp_path_factory) -> str:
    done = python("-m", "quivergauge.cli", "sample", THETA, "--n", "2", "--seed", "4")
    assert done.returncode == 0, done.stderr
    path = tmp_path_factory.mktemp("rep") / "theta.rep.json"
    path.write_text(done.stdout)
    return str(path)


@pytest.mark.parametrize("command", NUMERIC)
def test_numeric_command_does_not_load_rewrites(command, theta_rep):
    payload = [] if command == "sample" else ["--rep", theta_rep]
    watched, code, loaded = probe([command, THETA, *payload, *NUMERIC[command]])
    assert (watched["numpy"], watched["dataclasses"], code) == (True, False, "0")
    assert not any(watched[m] for m in ("argparse", "gettext", "locale")), watched
    assert {"representation", "matrices"} <= set(loaded)
    assert "rewrites" not in loaded, loaded


def test_importing_the_cli_does_not_load_numpy():
    done = python("-c", "import sys, quivergauge.cli; print('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_importing_the_cli_does_not_load_argparse():
    done = python("-c", "import sys, quivergauge.cli; print([m for m in sys.modules if m in ('argparse', 'gettext', 'locale')])")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_help_still_goes_through_argparse():
    watched, code, _ = probe(["info", THETA, "--help"])
    assert (watched["argparse"], code) == (True, "0")


def test_importing_the_package_loads_no_submodule():
    done = python("-c", "import sys, quivergauge; print(sorted(m for m in sys.modules if 'quivergauge' in m))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['quivergauge']\n"


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


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from quivergauge import *", namespace)
    assert {name for names in EXPORTED.values() for name in names.split()} <= set(namespace)


# The code whose reads make an exported name used: the library, the demos,
# the benchmark and the acceptance suite, but no unit test.
ROOT = Path(__file__).resolve().parents[1]
USERS = [
    *ROOT.glob("src/quivergauge/*.py"),
    *ROOT.glob("demos/**/*.py"),
    *ROOT.glob("perfbench/**/*.py"),
    ROOT / "tests" / "test_acceptance.py",
]


def _reads(path: Path) -> list[tuple[str, frozenset, bool]]:
    """Each name a file reads, as a variable or an attribute, with the definitions that enclose the read.

    The flag is True for an attribute read.
    """
    out = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, inside, False))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, inside, True))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return out


def _members() -> set[str]:
    """Public methods, properties and record fields of exported classes, as ``Class.name``, and public functions of serialize.

    The functions are named ``serialize.name``, and a record's fields are
    its ``_fields``.  A class's members include those of its bases in the
    package.  A member that a base outside the package defines is an
    override of that base's hook, which the base calls (as argparse calls
    ``ArgumentParser.error``), so it is left out.
    """
    members = set()
    for name in quivergauge.__all__:
        cls = getattr(quivergauge, name)
        if not isinstance(cls, type):
            continue
        outside = [base for base in cls.__mro__ if not base.__module__.startswith("quivergauge")]
        for base in (base for base in cls.__mro__ if base not in outside):
            for attr, value in vars(base).items():
                routine = inspect.isfunction(value) or isinstance(value, (property, cached_property, classmethod, staticmethod))
                if routine and not attr.startswith("_") and not any(hasattr(b, attr) for b in outside):
                    members.add(f"{name}.{attr}")
        if issubclass(cls, _Record):
            members.update(f"{name}.{field}" for field in cls._fields)
    serialize = import_module("quivergauge.serialize")
    for name, value in vars(serialize).items():
        if inspect.isfunction(value) and value.__module__ == serialize.__name__ and not name.startswith("_"):
            members.add(f"serialize.{name}")
    return members


@cache
def _unused() -> frozenset[str]:
    """The exported names and members whose (last) name has no use in USERS.

    A read inside the name's own definition, or inside the definition of an
    unused name, is no use; strings and docstrings are never reads.  Reads
    match by name only: a ``Class.member`` counts as used when any object's
    attribute of that name is read, and an exported name or ``serialize``
    function when a variable or an attribute of that name is.
    """
    reads = [read for path in USERS for read in _reads(path)]
    unused: set[str] = set()
    while True:
        names = {name.rpartition(".")[2] for name in unused}
        used = {(name, attr) for name, inside, attr in reads if not inside & (names | {name})}
        found = set()
        for name in {*quivergauge.__all__, *_members()}:
            owner, _, last = name.rpartition(".")
            kinds = (True,) if owner not in ("", "serialize") else (True, False)  # a Class.member only as an attribute
            if not any((last, attr) in used for attr in kinds):
                found.add(name)
        if found == unused:
            return frozenset(unused)
        unused = found


def test_every_exported_name_has_a_user_besides_the_unit_tests():
    unused = _unused() & set(quivergauge.__all__)
    assert not unused, f"exported but used only by unit tests: {sorted(unused)}"


def test_every_public_member_and_serialize_function_has_a_user_besides_the_unit_tests():
    unused = _unused() - set(quivergauge.__all__)
    assert not unused, f"public but used only by unit tests: {sorted(unused)}"


def test_no_module_imports_dataclasses():
    for path in ROOT.glob("src/quivergauge/*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not [m for m in modules if m.partition(".")[0] == "dataclasses"], f"{path.name}:{node.lineno}"


def _stores_only(init: ast.FunctionDef, fields: tuple[str, ...]) -> bool:
    """Whether ``init`` takes exactly ``fields`` in order and only stores them, one by one or through the base."""
    params = [a.arg for a in init.args.posonlyargs + init.args.args + init.args.kwonlyargs][1:]
    statements = init.body[1:] if ast.get_docstring(init) is not None else init.body
    body = sorted(ast.unparse(s) for s in statements)
    stores = sorted(f"_setfield(self, {f!r}, {f})" for f in fields)
    return params == list(fields) and body in (stores, [f"super().__init__({', '.join(fields)})"])


def test_no_record_writes_a_constructor_that_only_stores_its_fields():
    # the check itself: a constructor the shared one makes redundant is caught
    for body in ("_setfield(self, 'b', b)\n    _setfield(self, 'a', a)", "super().__init__(a, b)"):
        redundant = ast.parse(f"def __init__(self, a, b):\n    {body}").body[0]
        assert _stores_only(redundant, ("a", "b")) and not _stores_only(redundant, ("b", "a"))
    written = set()
    for path in ROOT.glob("src/quivergauge/*.py"):
        module = import_module(f"quivergauge.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            cls = getattr(module, node.name, None) if isinstance(node, ast.ClassDef) else None
            if not (isinstance(cls, type) and issubclass(cls, _Record)):
                continue
            for init in [n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]:
                written.add(node.name)
                assert not _stores_only(init, cls._fields), f"{path.name}:{init.lineno} {node.name}: use _Record's"
    # the shared constructor, the matrix stacks' one, and those of the records that validate or normalize their inputs
    assert written == {
        "_Record", "_Stacked", "Quiver", "Word", "RelationSet", "GroupSpec", "WeightedToricAction", "MonomialBasis",
        "QuiverDocument",
    }


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
