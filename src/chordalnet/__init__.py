"""Discrete Bayesian, Markov and chordal networks with validated
moralisation, triangulation and variable elimination."""

from .factors import (
    Factor,
    Kernel,
    OutOfRangeError,
    TableTooLargeError,
    VariableTable,
    enumerate_assignments,
    factor_entry,
    factor_marginalize,
    factor_product,
    kernel_to_factor,
    normalize_to_kernel,
)
from .graphs import (
    ClusterTree,
    GraphHom,
    OrderedDag,
    OrderedUGraph,
    check_hom,
    d_separated,
    decontract_hom,
    identity_hom,
    is_ordered_chordal,
    junction_tree,
    moralise_graph,
    running_intersection_holds,
    triangulate_graph,
    u_separated,
)
from .morphisms import (
    MorphismDecomposition,
    NetworkMorphism,
    PearlVertexUpdate,
    compose_morphisms,
    decompose_morphism,
    identity_morphism,
    marginalization_morphism,
    morphism_violations,
    pearl_update,
    transfer_matrix,
)
from .networks import (
    BayesianNetwork,
    ChordalNetwork,
    DegenerateDistributionError,
    MarkovNetwork,
    NetworkValidationError,
    bn_joint,
    cn_product,
    marginal_distribution,
    mn_partition,
    mn_unnormalized,
    network_distribution,
    network_violations,
    require_valid,
)
from .serial import (
    DocumentError,
    document_to_network,
    dumps_network,
    load_network,
    loads_network,
    network_to_document,
)
from .transforms import (
    EliminationStep,
    EliminationTrace,
    VStructureWitness,
    mn_to_bn,
    moralise_bn,
    moralise_cn,
    triangulate_bn,
    triangulate_mn,
    variable_elimination,
    vstructure_counterexample,
)

__version__ = "0.1.0"
