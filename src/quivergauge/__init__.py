"""Computing with group-valued quiver representations.

Quivers carry invertible matrix markings on their arrows and a gauge group
acting vertex-wise.  The library provides the structural rewrites that
reduce any connected quiver to a one-vertex rose (identifying the moduli
with a character variety), the polar-decomposition retraction onto unitary
markings, the Kempf-Ness residual and norm-minimizing flow, orbit-closure
diagnostics for the additive embedding, and exact invariant-monomial
lattices for weighted scalar actions.
"""

from .additive import (
    ALL_INVERTIBLE_ORBITS_CLOSED,
    ENDS_OBSTRUCT,
    INCONCLUSIVE,
    AdditiveRep,
    DegenerationWitness,
    MonotoneReport,
    OrbitCertificate,
    act_additive,
    closed_orbit_certificate,
    directed_path,
    embed_additive,
    monotone_weights_force_constant,
    sink_source_witness,
    to_representation,
    unimodular_rescale,
)
from .dsl import ParseError, QuiverDocument, canonicalize, document_for, parse, print_document
from .kempfness import (
    FlowReport,
    KNResidual,
    action_pairing,
    infinitesimal_action,
    kn_flow,
    kn_moment,
    moment_contraction,
    orbit_norm,
    polar_retract,
    retract_representation,
)
from .matrices import (
    TOL_EQ,
    TOL_MEMBERSHIP,
    PolarFactors,
    cartan_involution,
    hermitian_exp,
    hermitian_log,
    hermitian_power,
    in_group,
    polar_decompose,
    random_element,
)
from .quiver import (
    Arrow,
    GroupSpec,
    Quiver,
    RelationSet,
    SpanningForest,
    Word,
    betti_number,
    classify_vertex,
    connected_components,
    ends,
    euler_characteristic,
    fundamental_cycles,
    is_connected,
    is_cycle,
    is_strongly_connected,
    is_super_cyclic,
    moduli_dimension,
    spanning_forest,
    strongly_connected_components,
    validate_relations,
    vertex_classes,
    word_endpoints,
)
from .representation import (
    GaugeElement,
    Representation,
    evaluate_word,
    gauge_act,
    identity_gauge,
    induced_gauge,
    normal_form_tree_gauge,
    pushforward_collapse,
    random_gauge,
    random_representation,
    reverse_representation,
    satisfies_relations,
    standard_word_menu,
    trace_invariants,
    weighted_act,
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
