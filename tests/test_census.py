"""A census of every engine against the exact ``Fraction`` oracle.

The corpus is every ``wide_random_mn`` of seeds 17 and 5, 300 each as
``TestRangeExact`` draws them, whose Z is not 0.  Their tables span
10**±300, so each engine either answers, refuses with ``OutOfRangeError``,
or is wrong: it answers off the oracle by more than rtol 1e-12 and atol
2 * 2**-1074, or it raises another error.  The engines and what is right:

* ``mn_to_bn``: each kernel row equals the oracle's conditional wherever
  its parents' marginal is nonzero;
* ``sweep``: ``variable_elimination(triangulate_mn(mn))``'s
  ``log_partition`` is log Z, and its ``partition_mass`` Z where Z is a
  normal double;
* ``mn_partition``: Z where it is a normal double; elsewhere a refusal
  whose ``log_mass`` is log Z;
* ``marginal``: ``marginal_distribution`` onto each vertex, unnormalised,
  refused only where its largest entry is not a normal double;
* ``pearl``: ``pearl_update`` with a seeded weight on the first vertex;
  each eta column is its vertex's posterior marginal.

Each census asserts that no network outside its named list is wrong, and
prints its (right, refused, wrong) counts per seed, so that a change that
turns refusals into answers can quote them.  Each named network is its own
strict ``xfail`` case citing its ``FOUND`` line in ``CHANGES.md``: its mend
turns the case into a failure until the name is dropped.
"""

import functools
import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from chordalnet import (
    OutOfRangeError,
    PearlVertexUpdate,
    marginal_distribution,
    mn_partition,
    mn_to_bn,
    pearl_update,
    triangulate_mn,
    variable_elimination,
)
from helpers import exact_mn_marginal, wide_random_mn

SEEDS = (17, 5)

SUBNORMAL_KERNEL = (
    "FOUND: transforms._kept accepts a product entry that rounds to a nonzero "
    "subnormal, with the bits it lost"
)

# The networks, as (seed, index), on which each engine is known wrong.
KNOWN_WRONG = {
    "mn_to_bn": {(17, 5): SUBNORMAL_KERNEL, (17, 274): SUBNORMAL_KERNEL},
    "sweep": {(5, 85): SUBNORMAL_KERNEL},
    "mn_partition": {},
    "marginal": {},
    "pearl": {(17, 5): SUBNORMAL_KERNEL, (17, 274): SUBNORMAL_KERNEL},
}

SMALLEST, LARGEST = Fraction(2) ** -1022, Fraction(sys.float_info.max)


@functools.cache
def corpus() -> dict:
    """``(seed, index) -> (mn, joint)`` for every network whose Z is not 0,
    ``joint`` the exact product over the declared order, one axis each."""
    out = {}
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for index in range(300):
            mn = wide_random_mn(rng)
            names = mn.graph.vertices
            joint = np.array(exact_mn_marginal(mn, set(names)), dtype=object)
            joint = joint.reshape(mn.vt.shape(names))
            if joint.sum():
                out[seed, index] = mn, joint
    return out


def onto(joint, names, keep) -> np.ndarray:
    """The exact marginal of ``joint`` onto ``keep``, in declared order."""
    axes = tuple(i for i, v in enumerate(names) if v not in keep)
    return joint.sum(axis=axes) if axes else joint


def close(got, exact) -> bool:
    def to_float(x):
        try:
            return float(x)
        except OverflowError:
            return math.inf

    want = np.array([to_float(x) for x in np.ravel(exact)])
    return np.allclose(np.ravel(got), want, rtol=1e-12, atol=2 * 2.0**-1074)


def log_of(z: Fraction) -> float:
    return math.log(z.numerator) - math.log(z.denominator)


def close_log(got: float, z: Fraction) -> bool:
    want = log_of(z)
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def normal(x: Fraction) -> bool:
    return SMALLEST <= x <= LARGEST


def right_mn_to_bn(mn, joint, key) -> bool:
    bn, names = mn_to_bn(mn), mn.graph.vertices
    for v in names:
        card = mn.vt.card(v)
        exact = onto(joint, names, {v, *bn.graph.parents_of(v)}).reshape(-1, card)
        for got, row in zip(bn.kernels[v].values.reshape(-1, card), exact):
            total = row.sum()
            if total and not close(got, row / total):
                return False
    return True


def right_sweep(mn, joint, key) -> bool:
    z = joint.sum()
    _, trace = variable_elimination(triangulate_mn(mn))
    if not close_log(trace.log_partition(), z):
        return False
    return not normal(z) or close(trace.partition_mass(), z)


def right_mn_partition(mn, joint, key) -> bool:
    z = joint.sum()
    if normal(z):
        return close(mn_partition(mn), z)
    try:
        mn_partition(mn)
    except OutOfRangeError as exc:
        if close_log(exc.log_mass, z):
            raise
    return False


def right_marginal(mn, joint, key) -> bool:
    names = mn.graph.vertices
    for v in names:
        exact = onto(joint, names, {v})
        try:
            got = marginal_distribution(mn, [v]).values
        except OutOfRangeError:
            if normal(exact.max()):
                return False
            raise
        if not close(got, exact):
            return False
    return True


def right_pearl(mn, joint, key) -> bool:
    names = mn.graph.vertices
    first = names[0]
    weight = np.random.default_rng(key).uniform(0.5, 1.5, mn.vt.card(first))
    _, morphism = pearl_update(mn, {first: PearlVertexUpdate(weight=weight)})
    exact_weight = np.array([Fraction(w) for w in weight], dtype=object)
    posterior = joint * exact_weight.reshape((-1,) + (1,) * (len(names) - 1))
    z = posterior.sum()
    return all(
        close(morphism.eta[v][:, 0], onto(posterior, names, {v}) / z) for v in names
    )


ENGINES = {
    "mn_to_bn": right_mn_to_bn,
    "sweep": right_sweep,
    "mn_partition": right_mn_partition,
    "marginal": right_marginal,
    "pearl": right_pearl,
}


def verdict(engine: str, key) -> str:
    mn, joint = corpus()[key]
    try:
        return "right" if ENGINES[engine](mn, joint, key) else "wrong"
    except OutOfRangeError:
        return "refused"
    except ValueError:
        return "wrong"


@pytest.mark.parametrize("engine", ENGINES)
def test_no_network_outside_the_named_list_is_wrong(engine):
    verdicts = {key: verdict(engine, key) for key in corpus()}
    for seed in SEEDS:
        counts = Counter(v for (s, _), v in verdicts.items() if s == seed)
        print(
            f"{engine} seed {seed}: right {counts['right']}, "
            f"refused {counts['refused']}, wrong {counts['wrong']}"
        )
    wrong = {key for key, v in verdicts.items() if v == "wrong"}
    assert wrong <= KNOWN_WRONG[engine].keys()


@pytest.mark.parametrize(
    "engine, key",
    [
        pytest.param(
            engine,
            key,
            marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason),
            id=f"{engine}-{key[0]}:{key[1]}",
        )
        for engine, named in KNOWN_WRONG.items()
        for key, reason in named.items()
    ],
)
def test_a_named_network_is_right(engine, key):
    assert verdict(engine, key) != "wrong"
