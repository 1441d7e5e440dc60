"""Input checks across the package, one table row each.

Each row names a malformed argument, the call that receives it and what
that call must answer: the words of its ``ValueError``, or the
list of violations a ``*_violations`` check returns.
"""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from chordalnet import (
    BayesianNetwork,
    Factor,
    GraphHom,
    Kernel,
    NetworkMorphism,
    OrderedDag,
    OrderedUGraph,
    PearlVertexUpdate,
    VariableTable,
    check_hom,
    decompose_morphism,
    decontract_hom,
    identity_morphism,
    kernel_to_factor,
    marginalization_morphism,
    morphism_violations,
    network_violations,
    normalize_to_kernel,
    pearl_update,
)

VT = VariableTable((("A", ("a0", "a1")), ("B", ("b0", "b1"))))
AB = OrderedDag(("A", "B"), {("A", "B")})
BN = BayesianNetwork(
    AB,
    VT,
    {"A": Kernel("A", (), [0.3, 0.7]), "B": Kernel("B", ("A",), [0.1, 0.9, 0.5, 0.5])},
)
# A table over the same graph whose B column sums to 1.5: not a network.
NOT_STOCHASTIC = BayesianNetwork(
    AB,
    VT,
    {"A": Kernel("A", (), [0.3, 0.7]), "B": Kernel("B", ("A",), [0.1, 1.4, 0.5, 0.5])},
)
EYE = {"A": np.eye(2), "B": np.eye(2)}
PARTIAL = NetworkMorphism(GraphHom(AB, AB, {"A": "A"}), EYE)
SWAPPED = GraphHom(AB, AB, {"A": "B", "B": "A"})  # total, reverses the order


def _pearl(**update):
    return lambda: pearl_update(BN, {"A": PearlVertexUpdate(**update)})


RAISES = [
    pytest.param(
        lambda: normalize_to_kernel(Factor(("A",), [1.0, 2.0]), "B", VT),
        "B is not a variable of the factor",
        id="normalize_to_kernel-child-not-in-factor",
    ),
    pytest.param(
        lambda: kernel_to_factor(Kernel("B", ("B",), [0.5] * 4), VT),
        "kernel for B repeats a variable",
        id="kernel_to_factor-repeated-variable",
    ),
    pytest.param(
        lambda: OrderedDag(("A",), {("A", "A")}),
        "self-loop on A",
        id="dag-self-loop",
    ),
    pytest.param(
        lambda: OrderedUGraph(("A", "B", "A")),
        "duplicate vertex names",
        id="ugraph-duplicate-vertex",
    ),
    pytest.param(
        lambda: OrderedUGraph(("A", "B"), {frozenset(("A", "Z"))}),
        "mentions an unknown vertex",
        id="ugraph-unknown-vertex",
    ),
    pytest.param(
        lambda: check_hom(GraphHom(AB, AB, {"A": "A", "B": "Z"})),
        "vertex map has images outside the target",
        id="check_hom-image-outside-target",
    ),
    pytest.param(
        lambda: decontract_hom(
            GraphHom(OrderedUGraph(("A",)), OrderedUGraph(("A",)), {"A": "A"})
        ),
        "decontract_hom is defined for directed graphs",
        id="decontract_hom-undirected",
    ),
    pytest.param(
        lambda: decontract_hom(SWAPPED),
        "not a valid graph homomorphism",
        id="decontract_hom-not-a-homomorphism",
    ),
    pytest.param(
        lambda: decompose_morphism(PARTIAL, BN, BN),
        "cannot decompose an invalid morphism: alpha is malformed: vertex map "
        "is not total on the source vertices",
        id="decompose_morphism-non-total-alpha",
    ),
    pytest.param(
        _pearl(iso=np.eye(3)), "iso for A must be 2x2", id="pearl_update-iso-shape"
    ),
    pytest.param(
        _pearl(iso=np.ones((2, 2))),
        "iso for A is not a permutation matrix",
        id="pearl_update-iso-not-a-permutation",
    ),
    pytest.param(
        _pearl(weight=np.ones(3)),
        "weight vector for A must have length 2",
        id="pearl_update-weight-length",
    ),
    pytest.param(
        _pearl(weight=np.array([np.nan, 1.0])),
        "weight vector for A must be finite and nonnegative",
        id="pearl_update-weight-nan",
    ),
    pytest.param(
        _pearl(weight=np.array([-0.5, 1.0])),
        "weight vector for A must be finite and nonnegative",
        id="pearl_update-weight-negative",
    ),
    pytest.param(
        lambda: pearl_update(
            BN, {"Z": PearlVertexUpdate(weight=np.array([0.0, 1.0])), "Y": PearlVertexUpdate()}
        ),
        "updates name unknown vertices: ['Y', 'Z']",
        id="pearl_update-unknown-vertex",
    ),
    pytest.param(
        # Read as no update, the network would come back unchanged.
        lambda: pearl_update(BN, {"B": {"weight": [0.0, 1.0]}}),
        "update for B is not a PearlVertexUpdate",
        id="pearl_update-not-an-update",
    ),
    pytest.param(
        lambda: marginalization_morphism(BN, "Z"),
        "unknown vertex Z",
        id="marginalization_morphism-unknown-vertex",
    ),
]


@pytest.mark.parametrize("call, message", RAISES)
def test_malformed_input_raises(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


VIOLATIONS = [
    pytest.param(
        lambda: morphism_violations(PARTIAL, BN, BN),
        ["alpha is malformed: vertex map is not total on the source vertices"],
        id="morphism-non-total-alpha",
    ),
    pytest.param(
        lambda: morphism_violations(
            NetworkMorphism(GraphHom(AB, OrderedDag(("A", "B")), {"A": "A", "B": "B"}), EYE),
            BN,
            BN,
        ),
        ["alpha must map into the source network's graph"],
        id="morphism-alpha-into-wrong-graph",
    ),
    pytest.param(
        lambda: morphism_violations(NetworkMorphism(SWAPPED, EYE), BN, BN),
        ["alpha is not an order- and edge-preserving homomorphism"],
        id="morphism-total-alpha-not-a-homomorphism",
    ),
    pytest.param(
        # A well-formed alpha that is not a homomorphism keeps the eta checks.
        lambda: morphism_violations(NetworkMorphism(SWAPPED, {**EYE, "A": np.eye(3)}), BN, BN),
        [
            "alpha is not an order- and edge-preserving homomorphism",
            "eta[A] has shape (3, 3), expected (2, 2)",
        ],
        id="morphism-not-a-homomorphism-and-eta-shape",
    ),
    pytest.param(
        lambda: [
            v.split(":")[0] for v in morphism_violations(identity_morphism(BN), BN, NOT_STOCHASTIC)
        ],
        ["cannot check distribution preservation"],
        id="morphism-invalid-target-network",
    ),
    pytest.param(
        lambda: network_violations(SimpleNamespace(vt=VT, graph=AB)),
        ["unknown network type SimpleNamespace"],
        id="network-not-a-network-kind",
    ),
]


@pytest.mark.parametrize("call, expected", VIOLATIONS)
def test_violations_are_listed(call, expected):
    assert call() == expected
