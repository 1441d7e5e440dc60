"""Byte-identity digests of the conversions and the queries over a fixed
seeded corpus.

    python tests/identity_digest.py [--limit N] [--against PATH]

prints one line per case and output family: the case, the family and the
first 16 hex digits of the SHA-256 of that output.  The conversions'
families come first:

* ``tr``: ``dumps_network(mn_to_bn(mn))``;
* ``ve``: ``variable_elimination`` of the chordal network (of
  ``triangulate_mn(mn)`` for a Markov case), as the dump of its result plus
  every step's vertex, ``lam`` bytes, host and ``log2_scale``, and the
  trace's ``partition_mass()``;
* ``pearl``: the dump of ``pearl_update`` with a linspace weight on the
  first vertex;
* ``trmor``: ``dumps_network(triangulate_bn(bn))``.

Then the sum-product queries' families, as the bytes of each result's
values:

* ``z``: ``marginal_distribution(net, [])``, the total mass;
* ``m1``: ``marginal_distribution`` onto the first vertex;
* ``m2``: ``marginal_distribution`` onto the last and the middle vertex;
* ``dist``: ``network_distribution``, where the joint has at most 2**14
  entries;
* ``part``: ``mn_partition(mn).hex()``, for a Markov case.

A family that raises is digested as its error's type and text, and a
RuntimeWarning is such an error.  The corpus comes from ``tests/helpers.py``:
500 each of ``random_mn``, ``random_bn`` and ``random_cn``, each from its
own ``default_rng(20261020)``; 300 ``wide_random_mn`` each for seeds 17
and 5; three 600-variable ``chain_mn`` with entries in [1, 3], [0.01, 0.1]
and [0.5, 2] (seeds 600-602); and ``hub_first_star`` with 500 and 2,000
leaves.  The queries also run on ternary 5-by-5 ``random_order_grid``
networks (seeds 1-3) and 40-variable ``mixed_chain_mn`` networks (seeds
0-19).  ``--limit N`` keeps the first N cases of each generator.  A run
takes a few seconds.

``--against PATH`` computes the same lines with the package in
``PATH/src`` (another checkout) in a subprocess, prints the lines that
differ as ``case family here there``, and exits 1 if any differ.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent


def corpus(limit: int | None = None):
    """``(case, kind, network)`` for every case, ``kind`` one of ``mn``,
    ``bn`` and ``cn``, the first ``limit`` of each generator only."""
    import numpy as np
    from helpers import (
        chain_mn,
        hub_first_star,
        random_bn,
        random_cn,
        random_mn,
        wide_random_mn,
    )

    def take(count):
        return range(count if limit is None else min(count, limit))

    for name, make in [("mn", random_mn), ("bn", random_bn), ("cn", random_cn)]:
        rng = np.random.default_rng(20261020)
        for i in take(500):
            yield f"{name}:{i}", name, make(rng)
    for seed in (17, 5):
        rng = np.random.default_rng(seed)
        for i in take(300):
            yield f"{seed}:{i}", "mn", wide_random_mn(rng)
    for seed, low, high in [(600, 1.0, 3.0), (601, 0.01, 0.1), (602, 0.5, 2.0)][:limit]:
        mn = chain_mn(np.random.default_rng(seed), 600, low, high)
        yield f"chain[{low},{high}]", "mn", mn
    for leaves in (500, 2000)[:limit]:
        yield f"star{leaves}", "mn", hub_first_star(leaves)


def query_corpus(limit: int | None = None):
    """The cases of :func:`corpus`, then those only the queries take."""
    import numpy as np
    from helpers import mixed_chain_mn, random_order_grid

    yield from corpus(limit)
    for seed in (1, 2, 3)[:limit]:
        yield f"grid{seed}", "mn", random_order_grid(np.random.default_rng(seed), 5, 3)
    for seed in range(20)[:limit]:
        yield f"mixed{seed}", "mn", mixed_chain_mn(np.random.default_rng(seed), 40)


def outputs(kind: str, net):
    """``(family, thunk)`` for each family of a case of ``kind``; each thunk
    returns the bytes to digest."""
    import numpy as np
    from chordalnet import (
        PearlVertexUpdate,
        dumps_network,
        mn_to_bn,
        pearl_update,
        triangulate_bn,
        triangulate_mn,
        variable_elimination,
    )

    def ve():
        bn, trace = variable_elimination(net if kind == "cn" else triangulate_mn(net))
        parts = [dumps_network(bn).encode()]
        for s in trace.steps:
            parts += [s.vertex.encode(), s.lam.values.tobytes()]
            parts += [repr((s.absorbed_into, s.log2_scale)).encode()]
        return b"\0".join(parts + [repr(trace.partition_mass()).encode()])

    def pearl():
        v = net.graph.vertices[0]
        weight = np.linspace(0.5, 1.5, net.vt.card(v))
        updated, _ = pearl_update(net, {v: PearlVertexUpdate(weight=weight)})
        return dumps_network(updated).encode()

    if kind == "mn":
        yield "tr", lambda: dumps_network(mn_to_bn(net)).encode()
    if kind != "bn":
        yield "ve", ve
    yield "pearl", pearl
    if kind == "bn":
        yield "trmor", lambda: dumps_network(triangulate_bn(net)).encode()


def queries(kind: str, net):
    """``(family, thunk)`` for each sum-product query of a case of ``kind``,
    as :func:`outputs`."""
    import math

    from chordalnet import marginal_distribution, mn_partition, network_distribution

    vertices = net.graph.vertices
    first, middle, last = vertices[0], vertices[len(vertices) // 2], vertices[-1]
    yield "z", lambda: marginal_distribution(net, []).values.tobytes()
    yield "m1", lambda: marginal_distribution(net, [first]).values.tobytes()
    yield "m2", lambda: marginal_distribution(net, [last, middle]).values.tobytes()
    if math.prod(net.vt.shape(vertices)) <= 1 << 14:
        yield "dist", lambda: network_distribution(net).values.tobytes()
    if kind == "mn":
        yield "part", lambda: mn_partition(net).hex().encode()


def digest_lines(limit: int | None = None) -> list[str]:
    """One ``case family digest`` line per case and conversion family."""
    return _lines(corpus(limit), outputs)


def query_lines(limit: int | None = None) -> list[str]:
    """One ``case family digest`` line per case and query family."""
    return _lines(query_corpus(limit), queries)


def _lines(cases, families) -> list[str]:
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for case, kind, net in cases:
            for family, output in families(kind, net):
                try:
                    data = output()
                except (ValueError, RuntimeWarning) as exc:  # an output too
                    data = f"{type(exc).__name__}: {exc}".encode()
                lines.append(f"{case} {family} {hashlib.sha256(data).hexdigest()[:16]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--limit", type=int, help="keep the first N cases of each generator"
    )
    parser.add_argument(
        "--against", metavar="PATH", help="another checkout whose src to compare with"
    )
    parser.add_argument(
        "--src",
        default=str(HERE.parent / "src"),
        help="the package source to import (default: this checkout's)",
    )
    args = parser.parse_args(argv)
    sys.path[:0] = [args.src, str(HERE)]
    here = digest_lines(args.limit) + query_lines(args.limit)
    if args.against is None:
        print("\n".join(here))
        return 0
    command = [sys.executable, __file__, "--src", str(Path(args.against) / "src")]
    if args.limit is not None:
        command += ["--limit", str(args.limit)]
    there = subprocess.run(command, check=True, capture_output=True, text=True)
    differ = 0
    for ours, theirs in zip(here, there.stdout.splitlines(), strict=True):
        if ours != theirs:
            differ += 1
            print(ours, theirs.rsplit(" ", 1)[1])
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
