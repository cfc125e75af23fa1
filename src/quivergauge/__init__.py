"""Computing with group-valued quiver representations.

Quivers carry invertible matrix markings on their arrows and a gauge group
acting vertex-wise.  The library provides the structural rewrites that
reduce any connected quiver to a one-vertex rose (identifying the moduli
with a character variety), the polar-decomposition retraction onto unitary
markings, the Kempf-Ness residual and norm-minimizing flow, orbit-closure
diagnostics for the additive embedding, and exact invariant-monomial
lattices for weighted scalar actions.

Every exported name, and every module that defines one, is resolved on
first use by the module ``__getattr__``, so ``import quivergauge`` loads no
submodule.  The structural modules
(``quiver``, ``dsl``, ``rewrites``, ``toric``) import no numpy at module
level; the numeric ones (``matrices``, ``representation``, ``kempfness``,
``additive``) load it with themselves.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the names it exports
_EXPORTS = {
    "dsl": "ParseError QuiverDocument canonicalize document_for parse print_document",
    "quiver": """ALL_INVERTIBLE_ORBITS_CLOSED ENDS_OBSTRUCT INCONCLUSIVE TOL_EQ TOL_MEMBERSHIP Arrow
        GroupSpec MonotoneReport OrbitCertificate Quiver RelationSet SpanningForest Word
        betti_number classify_vertex closed_orbit_certificate directed_path ends
        euler_characteristic fundamental_cycles is_connected is_strongly_connected
        is_super_cyclic moduli_dimension monotone_weights_force_constant validate_relations
        vertex_classes word_endpoints""",
    "rewrites": "CollapseStep ReductionTrace clip collapse pinch reduce_to_rose reverse_arrows",
    "toric": """MonomialBasis WeightedToricAction check_invariance invariant_monomial_basis
        weight_matrix""",
    "matrices": "hermitian_exp random_element",
    "representation": """GaugeElement Representation evaluate_word gauge_act induced_gauge
        normal_form_tree_gauge pushforward_collapse random_gauge random_representation
        reverse_representation satisfies_relations standard_word_menu trace_invariants
        weighted_act""",
    "kempfness": """FlowReport KNResidual action_pairing kn_flow kn_moment orbit_norm polar_retract
        retract_representation""",
    "additive": """AdditiveRep DegenerationWitness act_additive embed_additive sink_source_witness
        unimodular_rescale""",
}
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_MODULES = frozenset(_EXPORTS)
__all__ = sorted(_LAZY)


def __getattr__(name: str):
    """A submodule, or an exported name read from its defining module."""
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *_LAZY})
