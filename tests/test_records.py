"""Record semantics of every record class, pinned to what the package printed and compared before.

Each class is a plain class on ``quiver._Record``, built by the base's one
constructor or, where it validates, by its own.  For one small instance of
each, the ``repr`` string is pinned; ``==`` and ``hash`` read the compared
fields only; the identity-equal classes stay identity-equal; and assignment
and deletion raise AttributeError.  The shared constructor binds arguments
as a signature would and refuses a bad binding with TypeError.
"""

import numpy as np
import pytest

from quivergauge import (
    AdditiveRep,
    Arrow,
    CollapseStep,
    DegenerationWitness,
    FlowReport,
    GaugeElement,
    GroupSpec,
    KNResidual,
    MonomialBasis,
    MonotoneReport,
    OrbitCertificate,
    Quiver,
    QuiverDocument,
    ReductionTrace,
    RelationSet,
    Representation,
    SpanningForest,
    WeightedToricAction,
    Word,
    closed_orbit_certificate,
    invariant_monomial_basis,
    kn_flow,
    kn_moment,
    monotone_weights_force_constant,
    parse,
    reduce_to_rose,
    sink_source_witness,
    spanning_forest,
    validate_relations,
    weight_matrix,
)

TEXT = "quiver T { vertices: x y; arrows: a: x -> y; b: y -> x; relations: b a; weights: a(2, 1) b(1, 1); }"
LOOP = Quiver(("v",), (("l", "v", "v"),))
GL1 = GroupSpec("GL", 1)
ONES = {"a": 1, "b": 1}
# a flow's final representation is identity-equal, so equal reports share it
FLOW = kn_flow(Representation(LOOP, GL1, {"l": [[2.0]]}), max_iter=2)


def _witness():
    q = Quiver(("s", "t"), (("e", "s", "t"),))
    return sink_source_witness(AdditiveRep(q, 1, {"e": [[3.0]]}), "t")


# One builder per record class; every call builds a new, equal instance
# (identity-equal classes excepted).
BUILD = {
    "Arrow": lambda: Arrow("a", "x", "y"),
    "Quiver": lambda: Quiver(("x", "y"), (("a", "x", "y"), ("b", "y", "x"))),
    "Word": lambda: Word((("b", 1), ("a", -1))),
    "RelationViolation": lambda: validate_relations(LOOP, RelationSet((Word((("k", 1),)),)))[0],
    "RelationSet": lambda: RelationSet((Word.from_arrow_names(("l", "l")),)),
    "GroupSpec": lambda: GroupSpec("SL", 3),
    "SpanningForest": lambda: spanning_forest(parse(TEXT).quiver),
    "MonotoneReport": lambda: monotone_weights_force_constant(parse(TEXT).quiver, {"x": 0, "y": 1}),
    "OrbitCertificate": lambda: closed_orbit_certificate(parse(TEXT).quiver),
    "QuiverDocument": lambda: parse(TEXT),
    "CollapseStep": lambda: CollapseStep("a", "x", "y", "x"),
    "ReductionTrace": lambda: reduce_to_rose(parse(TEXT).quiver)[2],
    "Representation": lambda: Representation(LOOP, GL1, {"l": [[2.0]]}),
    "GaugeElement": lambda: GaugeElement(LOOP, GL1, {"v": [[1j]]}),
    "KNResidual": lambda: kn_moment(Representation(LOOP, GL1, {"l": [[2.0]]})),
    "FlowReport": lambda: FlowReport(
        FLOW.iterations, FLOW.residual_history, FLOW.norm_history, FLOW.final, FLOW.converged
    ),
    "WeightedToricAction": lambda: weight_matrix(LOOP, {"l": 2}, {"l": 1}),
    "MonomialBasis": lambda: invariant_monomial_basis(weight_matrix(parse(TEXT).quiver, ONES, ONES)),
    "AdditiveRep": lambda: AdditiveRep(LOOP, 1, {"l": [[0.0]]}),
    "DegenerationWitness": _witness,
}

TWO_CYCLE_TEXT = (
    "Quiver(vertices=('x', 'y'), arrows=(Arrow(name='a', tail='x', head='y'), Arrow(name='b', tail='y', head='x')))"
)
LOOP_TEXT = "Quiver(vertices=('v',), arrows=(Arrow(name='l', tail='v', head='v'),))"
ONE_ARROW_TEXT = "Quiver(vertices=('s', 't'), arrows=(Arrow(name='e', tail='s', head='t'),))"
REPRS = {
    "Arrow": "Arrow(name='a', tail='x', head='y')",
    "Quiver": TWO_CYCLE_TEXT,
    "Word": "Word(letters=(('b', 1), ('a', -1)))",
    "RelationViolation": "RelationViolation(word_index=0, letter_index=0, message=\"unknown arrow 'k'\")",
    "RelationSet": "RelationSet(relations=(Word(letters=(('l', 1), ('l', 1))),))",
    "GroupSpec": "GroupSpec(family='SL', n=3)",
    "SpanningForest": "SpanningForest(parent={'y': ('x', 'a', True)}, tree_arrows=('a',))",
    "MonotoneReport": (
        "MonotoneReport(ok=False, violating_arrow='b', witness_cycle=Word(letters=(('a', 1), ('b', 1))))"
    ),
    "OrbitCertificate": (
        "OrbitCertificate(verdict='all_invertible_orbits_closed', ends=(), sample_alpha=(('x', 0), ('y', 1)), "
        "sample_violation=MonotoneReport(ok=False, violating_arrow='b', witness_cycle=Word(letters=(('a', 1), "
        "('b', 1)))))"
    ),
    "QuiverDocument": (
        f"QuiverDocument(name='T', quiver={TWO_CYCLE_TEXT}, relations=RelationSet(relations=(Word(letters=(("
        "'b', 1), ('a', 1))),)), mu={'a': 2, 'b': 1}, nu={'a': 1, 'b': 1})"
    ),
    "CollapseStep": "CollapseStep(arrow='a', tail='x', head='y', merged='x')",
    "ReductionTrace": (
        f"ReductionTrace(source={TWO_CYCLE_TEXT}, "
        "steps=(CollapseStep(arrow='a', tail='x', head='y', merged='x'),), "
        "final=Quiver(vertices=('x',), arrows=(Arrow(name='b', tail='x', head='x'),)), "
        "final_relations=RelationSet(relations=()))"
    ),
    "Representation": (
        f"Representation(quiver={LOOP_TEXT}, group=GroupSpec(family='GL', n=1), markings={{'l': array([[2.+0.j]])}})"
    ),
    "GaugeElement": (
        f"GaugeElement(quiver={LOOP_TEXT}, group=GroupSpec(family='GL', n=1), values={{'v': array([[0.+1.j]])}})"
    ),
    "KNResidual": "KNResidual(per_vertex={'v': array([[0.+0.j]])}, aggregate=0.0)",
    "FlowReport": (
        "FlowReport(iterations=0, residual_history=(0.0,), norm_history=(4.0,), "
        f"final=Representation(quiver={LOOP_TEXT}, group=GroupSpec(family='GL', n=1), "
        "markings={'l': array([[2.+0.j]])}), converged=True)"
    ),
    "WeightedToricAction": f"WeightedToricAction(quiver={LOOP_TEXT}, mu={{'l': 2}}, nu={{'l': 1}})",
    "MonomialBasis": "MonomialBasis(arrow_order=('a', 'b'), vectors=((1, 1),), cell_dimension=1)",
    "AdditiveRep": f"AdditiveRep(quiver={LOOP_TEXT}, n=1, markings={{'l': array([[0.+0.j]])}})",
    "DegenerationWitness": (
        "DegenerationWitness(vertex='t', direction='sink', parameters=(1.0, 0.5, 0.125, 0.015625), samples=("
        + ", ".join(
            f"AdditiveRep(quiver={ONE_ARROW_TEXT}, n=1, markings={{'e': array([[{x}+0.j]])}})"
            for x in ("3.", "1.5", "0.375", "0.046875")
        )
        + f"), limit=AdditiveRep(quiver={ONE_ARROW_TEXT}, n=1, markings={{'e': array([[0.+0.j]])}}), "
        "degenerated_arrows=('e',))"
    ),
}

IDENTITY_EQUAL = ("Representation", "GaugeElement", "AdditiveRep", "DegenerationWitness")
# Hashing fails on a compared field that is a dict or mapping, as it did before.
UNHASHABLE = ("SpanningForest", "QuiverDocument", "KNResidual", "WeightedToricAction")
# The compared-equal classes, each with a builder of an instance that differs in one compared field.
DIFFERENT = {
    "Arrow": lambda: Arrow("a", "x", "x"),
    "Quiver": lambda: Quiver(("x", "y"), (("a", "x", "y"), ("b", "x", "y"))),
    "Word": lambda: Word((("b", 1), ("a", 1))),
    "RelationViolation": lambda: validate_relations(LOOP, RelationSet((Word((("l", -1),)),)))[0],
    "RelationSet": lambda: RelationSet(),
    "GroupSpec": lambda: GroupSpec("GL", 3),
    "SpanningForest": lambda: spanning_forest(Quiver(("x", "y"), (("b", "y", "x"),))),
    "MonotoneReport": lambda: MonotoneReport(True),
    "OrbitCertificate": lambda: OrbitCertificate("inconclusive"),
    "QuiverDocument": lambda: parse(TEXT.replace("b(1, 1)", "b(1, 2)")),
    "CollapseStep": lambda: CollapseStep("a", "x", "y", "y"),
    "ReductionTrace": lambda: ReductionTrace(LOOP, (), LOOP, RelationSet()),
    "KNResidual": lambda: KNResidual({}, 0.0),
    "FlowReport": lambda: FlowReport(0, (0.0,), (4.0,), FLOW.final, False),
    "WeightedToricAction": lambda: weight_matrix(LOOP, {"l": 2}, {"l": 2}),
    "MonomialBasis": lambda: MonomialBasis(("a", "b"), 1, ({0: 1, 1: 2},)),
}


def test_every_record_class_is_covered():
    assert BUILD.keys() == REPRS.keys() == set(DIFFERENT) | set(IDENTITY_EQUAL)
    for name in BUILD:
        assert type(BUILD[name]()).__name__ == name


@pytest.mark.parametrize("name", BUILD)
def test_repr_is_pinned(name):
    assert repr(BUILD[name]()) == REPRS[name]


@pytest.mark.parametrize("name", DIFFERENT)
def test_equality_and_hash_read_the_compared_fields(name):
    a, b, other = BUILD[name](), BUILD[name](), DIFFERENT[name]()
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    assert a != object() and a != (a,)
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a, b} == {a}


def test_uncompared_fields_do_not_take_part_in_equality():
    # a quiver's row maps and rows and its numpy index arrays
    q, fresh = BUILD["Quiver"](), BUILD["Quiver"]()
    assert q.tails.tolist() == [0, 1] and q.heads.tolist() == [1, 0]
    assert q == fresh and hash(q) == hash(fresh)
    # a basis compares its dense vectors, not the stored sparse rows
    assert MonomialBasis(("a",), 1, ({0: 0},)) == MonomialBasis(("a",), 1, ({},))
    assert hash(MonomialBasis(("a",), 1, ({0: 0},))) == hash(MonomialBasis(("a",), 1, ({},)))


@pytest.mark.parametrize("name", IDENTITY_EQUAL)
def test_identity_equality(name):
    a, b = BUILD[name](), BUILD[name]()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2


@pytest.mark.parametrize("name", BUILD)
def test_assignment_and_deletion_raise_attribute_error(name):
    record = BUILD[name]()
    field = REPRS[name].split("(", 1)[1].split("=", 1)[0]
    before = repr(record)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'new'"):
        record.new = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    assert repr(record) == before


def test_constructors_keep_their_keywords_and_defaults():
    assert RelationSet() == RelationSet(relations=())
    assert MonotoneReport(ok=True) == MonotoneReport(True, None, None)
    assert OrbitCertificate(verdict="v") == OrbitCertificate("v", (), None, None)
    doc = parse(TEXT)
    bare = QuiverDocument(name=doc.name, quiver=doc.quiver, relations=doc.relations, mu=doc.mu, nu=doc.nu)
    assert bare == doc
    rep = Representation(quiver=LOOP, group=GL1, markings={"l": [[2.0]]})
    assert rep.membership_tol == 1e-9
    gauge = GaugeElement(quiver=LOOP, group=GL1, values=np.ones((1, 1, 1)), membership_tol=0.0)
    assert gauge.membership_tol == 0.0 and gauge.values["v"][0, 0] == 1
    assert AdditiveRep(quiver=LOOP, n=1, markings=np.zeros((1, 1, 1))).markings["l"][0, 0] == 0
    step = CollapseStep(arrow="a", tail="x", head="y", merged="x")
    assert ReductionTrace(source=LOOP, steps=(step,), final=LOOP, final_relations=RelationSet()).steps == (step,)
    action = WeightedToricAction(quiver=LOOP, mu={"l": 2}, nu={"l": 1})
    assert action.matrix == ((1,),)
    basis = MonomialBasis(arrow_order=("a", "b"), cell_dimension=1, nonzeros=({1: 2},))
    assert basis.vectors == ((0, 2),)
    assert SpanningForest(parent={}, tree_arrows=()) == spanning_forest(LOOP)
    assert KNResidual(per_vertex={}, aggregate=1.0).aggregate == 1.0
    report = FlowReport(iterations=0, residual_history=(), norm_history=(), final=rep, converged=False)
    assert report.final is rep
    witness = _witness()
    assert DegenerationWitness(
        vertex="t", direction="sink", parameters=(), samples=(), limit=witness.limit, degenerated_arrows=("e",)
    ).limit is witness.limit
    assert Arrow(name="a", tail="x", head="y") == Arrow("a", "x", "y")
    assert Word(letters=[("a", 1)]).letters == (("a", 1),)
    assert GroupSpec(family="GL", n=2) == GroupSpec("GL", 2)


# Each bad binding, by what is wrong: the TypeError names the class and the argument.
BAD_BINDINGS = {
    "missing": (lambda: Arrow("a", "x"), r"Arrow\(\) missing required argument 'head'"),
    "missing-after-keywords": (
        lambda: CollapseStep(arrow="a", tail="x", head="y"),
        r"CollapseStep\(\) missing required argument 'merged'",
    ),
    "missing-without-default": (lambda: MonotoneReport(), r"MonotoneReport\(\) missing required argument 'ok'"),
    "unknown": (lambda: Arrow("a", "x", "y", colour="red"), r"Arrow\(\) got an unexpected keyword argument 'colour'"),
    "repeated": (
        lambda: OrbitCertificate("v", verdict="w"),
        r"OrbitCertificate\(\) got multiple values for argument 'verdict'",
    ),
    "surplus": (
        lambda: Arrow("a", "x", "y", "z"),
        r"Arrow\(\) takes 3 arguments \('name', 'tail', 'head'\) but 4 were given",
    ),
    "surplus-past-defaults": (
        lambda: MonotoneReport(True, None, None, None),
        r"MonotoneReport\(\) takes 3 arguments .* but 4 were given",
    ),
    # the matrix stacks bind the same way: ``_fields``, then ``membership_tol`` where the class takes one
    "stack-surplus": (
        lambda: Representation(LOOP, GL1, {"l": [[2.0]]}, 0.0, 0.0),
        r"Representation\(\) takes 4 arguments \('quiver', 'group', 'markings', 'membership_tol'\) but 5 were given",
    ),
    "stack-missing": (
        lambda: Representation(LOOP, GL1, membership_tol=0.0),
        r"Representation\(\) missing required argument 'markings'",
    ),
    "stack-unknown": (
        lambda: Representation(LOOP, GL1, {"l": [[2.0]]}, tol=0.0),
        r"Representation\(\) got an unexpected keyword argument 'tol'",
    ),
    "stack-repeated": (
        lambda: Representation(LOOP, GL1, {"l": [[2.0]]}, group=GL1),
        r"Representation\(\) got multiple values for argument 'group'",
    ),
    "stack-without-a-tolerance": (
        lambda: AdditiveRep(LOOP, 1, {"l": [[2.0]]}, membership_tol=0.0),
        r"AdditiveRep\(\) got an unexpected keyword argument 'membership_tol'",
    ),
}


@pytest.mark.parametrize("case", BAD_BINDINGS)
def test_the_shared_constructor_refuses_a_bad_binding(case):
    build, message = BAD_BINDINGS[case]
    with pytest.raises(TypeError, match=f"^{message}$"):
        build()


def test_the_shared_constructor_binds_positions_then_keywords_then_defaults():
    assert OrbitCertificate("v", sample_alpha=(("x", 0),)) == OrbitCertificate("v", (), (("x", 0),), None)
    assert MonotoneReport(False, witness_cycle=None, violating_arrow="a").violating_arrow == "a"
    # like a signature's defaults, one default object serves every instance
    assert OrbitCertificate("v").ends is OrbitCertificate("w").ends == ()
