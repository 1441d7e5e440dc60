"""Deterministic command line front end.

Exit codes: 0 success, 1 usage, 2 parse/validation failure (a document
that is not UTF-8 or is nested too deeply to decode among them), 3 semantic
failure (degenerate distribution, a graph precondition such as
chordality, a document or computed table above
``factors.MAX_TABLE_ENTRIES``, ``check`` included, or a table, marginal,
partition or kernel built by ``triangulate``, ``ve`` or ``tr`` outside the
range of a double).  ``tr``, ``triangulate`` and ``trmor`` refuse a
triangulated family table above the cap before it is allocated, naming
its vertex, and write no output.  Only ``joint`` builds the full table.
Reports go to stdout, diagnostics to stderr.  Identical input bytes always
produce identical output bytes; paths may be ``-`` for stdin/stdout so
commands compose in pipes.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from . import transforms
from .factors import OutOfRangeError, TableTooLargeError, enumerate_assignments
from .graphs import d_separated, junction_tree, running_intersection_holds, u_separated
from .networks import (
    BayesianNetwork,
    ChordalNetwork,
    DegenerateDistributionError,
    MarkovNetwork,
    Network,
    NetworkValidationError,
    marginal_distribution,
)
from .serial import KIND_NAMES, DocumentError, dumps_network, load_network

USAGE_EXIT = 1
VALIDATION_EXIT = 2
SEMANTIC_EXIT = 3


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit code 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _load(path: str) -> Network:
    if path == "-":
        # The bytes, read as UTF-8 like a path, whatever stdin's encoding.
        return load_network(getattr(sys.stdin, "buffer", sys.stdin))
    try:
        return load_network(path)
    except OSError as exc:
        raise CliError(VALIDATION_EXIT, f"cannot read {path}: {exc}") from exc


def _emit(net: Network, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(dumps_network(net))
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(dumps_network(net))
    except OSError as exc:
        raise CliError(VALIDATION_EXIT, f"cannot write {out}: {exc}") from exc


def _expect(net: Network, kinds: tuple[type, ...], command: str) -> None:
    if not isinstance(net, kinds):
        wanted = " or ".join(KIND_NAMES[kind] for kind in kinds)
        got = KIND_NAMES[type(net)]
        raise CliError(
            VALIDATION_EXIT, f"{command} needs a {wanted} document, got kind {got!r}"
        )


def _split_vars(raw: str, net: Network, option: str) -> list[str]:
    names = [x for x in raw.split(",") if x]
    if not names:
        raise CliError(VALIDATION_EXIT, f"{option} needs at least one variable")
    unknown = [x for x in names if x not in net.vt.names]
    if unknown:
        raise CliError(VALIDATION_EXIT, f"{option}: unknown variables {unknown}")
    return names


def _print_table(net: Network, vars: tuple[str, ...], values) -> None:
    print(" ".join(vars))
    for i, assignment in enumerate(enumerate_assignments(net.vt, vars)):
        print(" ".join(assignment) + f" {values[i]:.6f}")


def _transform(kind: type, convert):
    """The handler of a transform command: ``convert`` of a ``kind`` input."""

    def handler(args) -> int:
        net = _load(args.input)
        _expect(net, (kind,), args.command)
        _emit(convert(net), args.output)
        return 0

    return handler


def _cmd_marginal(args) -> int:
    """``joint``, ``marginal`` and ``partition``: a marginal of the full table."""
    net = _load(args.input)
    names = [] if args.command == "partition" else list(net.graph.vertices)
    if args.command == "marginal":
        names = _split_vars(args.vars, net, "--vars")
    table = marginal_distribution(net, names)
    if args.command == "partition":
        print(f"{float(table.values[0]):.17g}")
    else:
        _print_table(net, table.vars, table.values)
    return 0


def _cmd_jtree(args) -> int:
    net = _load(args.input)
    _expect(net, (BayesianNetwork, ChordalNetwork), "jtree")
    try:
        tree = junction_tree(net.graph)
    except ValueError as exc:
        raise CliError(SEMANTIC_EXIT, str(exc)) from exc
    for i, cluster in enumerate(tree.clusters):
        print(f"cluster {i}: " + " ".join(cluster))
    for i, j in sorted(tree.tree_edges):
        print(f"edge {i}-{j} sepset: " + " ".join(tree.sepsets[(i, j)]))
    print(
        "running intersection: "
        + ("ok" if running_intersection_holds(tree) else "violated")
    )
    return 0


def _cmd_separation(args) -> int:
    net = _load(args.input)
    x = _split_vars(args.x, net, "--x")
    y = _split_vars(args.y, net, "--y")
    z = _split_vars(args.given, net, "--given") if args.given else []
    directed = args.command == "dsep"
    kinds = (BayesianNetwork, ChordalNetwork) if directed else (MarkovNetwork,)
    _expect(net, kinds, args.command)
    try:
        verdict = (d_separated if directed else u_separated)(net.graph, x, y, z)
    except ValueError as exc:
        raise CliError(VALIDATION_EXIT, str(exc)) from exc
    print("true" if verdict else "false")
    return 0


def _cmd_check(args) -> int:
    try:
        _load(args.input)  # loading already runs full network validation
    except DocumentError as exc:
        for line in exc.violations:
            print(line)
        return VALIDATION_EXIT
    return 0


_OUTPUT = [(("-o", "--output"), {"default": None, "help": "output path, or - for stdout"})]
_SEPARATION = [
    (("--x",), {"required": True, "help": "comma-separated vertex names"}),
    (("--y",), {"required": True, "help": "comma-separated vertex names"}),
    (("--given",),
     {"default": "", "help": "comma-separated conditioning vertices; none if omitted"}),
]
# Every command: its help, its options after the input, its handler.  A
# transform's conversion is looked up in ``transforms`` at call time, so
# that a wrapper put there after import (a tracer's span, a test's spy) is
# called.
_COMMANDS = {
    "moralise": (
        "bayesian -> markov on the moral graph", _OUTPUT,
        _transform(BayesianNetwork, lambda bn: transforms.moralise_bn(bn)),
    ),
    "triangulate": (
        "markov -> chordal on the triangulated graph", _OUTPUT,
        _transform(MarkovNetwork, lambda mn: transforms.triangulate_mn(mn)),
    ),
    "ve": (
        "chordal -> bayesian by variable elimination", _OUTPUT,
        _transform(ChordalNetwork, lambda cn: transforms.variable_elimination(cn)[0]),
    ),
    "tr": (
        "markov -> bayesian (triangulate then eliminate)", _OUTPUT,
        _transform(MarkovNetwork, lambda mn: transforms.mn_to_bn(mn)),
    ),
    "trmor": (
        "bayesian -> bayesian over the triangulated moral graph", _OUTPUT,
        _transform(BayesianNetwork, lambda bn: transforms.triangulate_bn(bn)),
    ),
    "joint": ("print the full joint / unnormalized table", [], _cmd_marginal),
    "marginal": (
        "print a marginal, summing the other variables out by elimination",
        [(("--vars",), {"required": True, "help": "comma-separated variable names"})],
        _cmd_marginal,
    ),
    "partition": ("print the total mass Z", [], _cmd_marginal),
    "jtree": ("print the junction tree of a chordal-graph document", [], _cmd_jtree),
    "dsep": ("directed separation query", _SEPARATION, _cmd_separation),
    "usep": ("undirected separation query", _SEPARATION, _cmd_separation),
    "check": ("validate a document; exit 0 iff it passes", [], _cmd_check),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process, on first use."""
    parser = _Parser(
        prog="chordalnet",
        description="Transform and query discrete graphical-model documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (blurb, options, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("input", help="input document path, or - for stdin")
        for flags, settings in options:
            p.add_argument(*flags, **settings)
        p.set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except CliError as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except (DocumentError, NetworkValidationError) as exc:
        for line in exc.violations:
            print(line, file=sys.stderr)
        return VALIDATION_EXIT
    except (DegenerateDistributionError, OutOfRangeError, TableTooLargeError) as exc:
        print(str(exc), file=sys.stderr)
        return SEMANTIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
