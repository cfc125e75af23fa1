"""Computing with group-valued quiver representations.

Quivers carry invertible matrix markings on their arrows and a gauge group
acting vertex-wise.  The library provides the structural rewrites that
reduce any connected quiver to a one-vertex rose (identifying the moduli
with a character variety), the polar-decomposition retraction onto unitary
markings, the Kempf-Ness residual and norm-minimizing flow, orbit-closure
diagnostics for the additive embedding, and exact invariant-monomial
lattices for weighted scalar actions.

The structural names below import without numpy.  The numeric names
(``matrices``, ``representation``, ``kempfness``, ``additive``) are
resolved by the module ``__getattr__`` from their defining module, which
loads numpy on first use.
"""

from importlib import import_module

from .dsl import ParseError, QuiverDocument, canonicalize, document_for, parse, print_document
from .quiver import (
    ALL_INVERTIBLE_ORBITS_CLOSED,
    ENDS_OBSTRUCT,
    INCONCLUSIVE,
    TOL_EQ,
    TOL_MEMBERSHIP,
    Arrow,
    GroupSpec,
    MonotoneReport,
    OrbitCertificate,
    Quiver,
    RelationSet,
    SpanningForest,
    Word,
    betti_number,
    classify_vertex,
    closed_orbit_certificate,
    connected_components,
    directed_path,
    ends,
    euler_characteristic,
    fundamental_cycles,
    is_connected,
    is_cycle,
    is_strongly_connected,
    is_super_cyclic,
    moduli_dimension,
    monotone_weights_force_constant,
    spanning_forest,
    strongly_connected_components,
    validate_relations,
    vertex_classes,
    word_endpoints,
)
from .rewrites import (
    CollapseStep,
    ReductionTrace,
    arrows_equivalent,
    clip,
    collapse,
    pinch,
    reduce_to_rose,
    reverse_arrows,
)
from .toric import (
    MonomialBasis,
    WeightedToricAction,
    check_invariance,
    integer_kernel,
    hermite_rows,
    invariant_monomial_basis,
    scalar_weighted_act,
    weight_matrix,
)

__version__ = "0.1.0"

# exported name -> defining module of the numeric layer
_LAZY = {
    name: module
    for module, names in {
        "additive": (
            "AdditiveRep",
            "DegenerationWitness",
            "act_additive",
            "embed_additive",
            "sink_source_witness",
            "to_representation",
            "unimodular_rescale",
        ),
        "kempfness": (
            "FlowReport",
            "KNResidual",
            "action_pairing",
            "infinitesimal_action",
            "kn_flow",
            "kn_moment",
            "moment_contraction",
            "orbit_norm",
            "polar_retract",
            "retract_representation",
        ),
        "matrices": (
            "PolarFactors",
            "cartan_involution",
            "hermitian_exp",
            "hermitian_log",
            "hermitian_power",
            "in_group",
            "polar_decompose",
            "random_element",
        ),
        "representation": (
            "GaugeElement",
            "Representation",
            "evaluate_word",
            "gauge_act",
            "identity_gauge",
            "induced_gauge",
            "normal_form_tree_gauge",
            "pushforward_collapse",
            "random_gauge",
            "random_representation",
            "reverse_representation",
            "satisfies_relations",
            "standard_word_menu",
            "trace_invariants",
            "weighted_act",
        ),
    }.items()
    for name in names
}
_NUMERIC_MODULES = frozenset(_LAZY.values())


def __getattr__(name: str):
    """A numeric-layer module, or an exported name read from its defining module."""
    if name in _NUMERIC_MODULES:
        return import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_NUMERIC_MODULES, *_LAZY})
