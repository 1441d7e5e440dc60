"""Deterministic command line front end.

Exit codes: 0 success, 1 usage, 2 parse/validation failure, 3 semantic
failure (degenerate distribution, a graph precondition such as
chordality, a table above ``networks.MAX_TABLE_ENTRIES``, or a table,
marginal or partition outside the range of a double).  Reports go
to stdout, diagnostics to stderr.  Identical input bytes always produce
identical output bytes; paths may be ``-`` for stdin/stdout so commands
compose in pipes.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .factors import enumerate_assignments
from .graphs import d_separated, junction_tree, running_intersection_holds, u_separated
from .networks import (
    BayesianNetwork,
    ChordalNetwork,
    DegenerateDistributionError,
    MarkovNetwork,
    Network,
    NetworkValidationError,
    OutOfRangeError,
    TableTooLargeError,
    bn_joint,
    cn_product,
    marginal_distribution,
    mn_unnormalized,
)
from .serial import DocumentError, dumps_network, load_network
from .transforms import (
    mn_to_bn,
    moralise_bn,
    triangulate_bn,
    triangulate_mn,
    variable_elimination,
)

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
        return load_network(sys.stdin)
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


def _expect(net: Network, kinds: tuple[type, ...], command: str, wanted: str) -> None:
    if not isinstance(net, kinds):
        raise CliError(
            VALIDATION_EXIT,
            f"{command} needs a {wanted} document, got kind "
            f"{_kind_name(net)!r}",
        )


def _kind_name(net: Network) -> str:
    if isinstance(net, BayesianNetwork):
        return "bayesian"
    if isinstance(net, MarkovNetwork):
        return "markov"
    return "chordal"


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


def _cmd_transform(args) -> int:
    net = _load(args.input)
    try:
        if args.command == "moralise":
            _expect(net, (BayesianNetwork,), "moralise", "bayesian")
            result: Network = moralise_bn(net)
        elif args.command == "triangulate":
            _expect(net, (MarkovNetwork,), "triangulate", "markov")
            result = triangulate_mn(net)
        elif args.command == "ve":
            _expect(net, (ChordalNetwork,), "ve", "chordal")
            result, _ = variable_elimination(net)
        elif args.command == "tr":
            _expect(net, (MarkovNetwork,), "tr", "markov")
            result = mn_to_bn(net)
        else:
            _expect(net, (BayesianNetwork,), "trmor", "bayesian")
            result = triangulate_bn(net)
    except DegenerateDistributionError as exc:
        raise CliError(SEMANTIC_EXIT, str(exc)) from exc
    _emit(result, args.output)
    return 0


def _cmd_joint(args) -> int:
    net = _load(args.input)
    if isinstance(net, BayesianNetwork):
        table = bn_joint(net)
    elif isinstance(net, MarkovNetwork):
        table = mn_unnormalized(net)
    else:
        table = cn_product(net)
    _print_table(net, table.vars, table.values)
    return 0


def _cmd_marginal(args) -> int:
    net = _load(args.input)
    names = _split_vars(args.vars, net, "--vars")
    table = marginal_distribution(net, names)
    _print_table(net, table.vars, table.values)
    return 0


def _cmd_partition(args) -> int:
    net = _load(args.input)
    z = marginal_distribution(net, [])
    print(f"{float(z.values[0]):.17g}")
    return 0


def _cmd_jtree(args) -> int:
    net = _load(args.input)
    _expect(net, (BayesianNetwork, ChordalNetwork), "jtree", "bayesian or chordal")
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
    try:
        if args.command == "dsep":
            _expect(net, (BayesianNetwork, ChordalNetwork), "dsep", "bayesian or chordal")
            verdict = d_separated(net.graph, x, y, z)
        else:
            _expect(net, (MarkovNetwork,), "usep", "markov")
            verdict = u_separated(net.graph, x, y, z)
    except ValueError as exc:
        raise CliError(VALIDATION_EXIT, str(exc)) from exc
    print("true" if verdict else "false")
    return 0


def _cmd_check(args) -> int:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(VALIDATION_EXIT, f"cannot read {args.input}: {exc}") from exc
    from .serial import loads_network

    try:
        loads_network(text)  # loading already runs full network validation
    except DocumentError as exc:
        for line in exc.violations:
            print(line)
        return VALIDATION_EXIT
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chordalnet",
        description="Transform and query discrete graphical-model documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, blurb in (
        ("moralise", "bayesian -> markov on the moral graph"),
        ("triangulate", "markov -> chordal on the triangulated graph"),
        ("ve", "chordal -> bayesian by variable elimination"),
        ("tr", "markov -> bayesian (triangulate then eliminate)"),
        ("trmor", "bayesian -> bayesian over the triangulated moral graph"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("input", help="input document path, or - for stdin")
        p.add_argument("-o", "--output", default=None, help="output path, or - for stdout")
        p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("joint", help="print the full joint / unnormalized table")
    p.add_argument("input")
    p.set_defaults(func=_cmd_joint)

    p = sub.add_parser(
        "marginal",
        help="print a marginal, summing the other variables out by elimination",
    )
    p.add_argument("input")
    p.add_argument("--vars", required=True, help="comma-separated variable names")
    p.set_defaults(func=_cmd_marginal)

    p = sub.add_parser("partition", help="print the total mass Z")
    p.add_argument("input")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("jtree", help="print the junction tree of a chordal-graph document")
    p.add_argument("input")
    p.set_defaults(func=_cmd_jtree)

    for name, blurb in (
        ("dsep", "directed separation query"),
        ("usep", "undirected separation query"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("input")
        p.add_argument("--x", required=True)
        p.add_argument("--y", required=True)
        p.add_argument("--given", default="")
        p.set_defaults(func=_cmd_separation)

    p = sub.add_parser("check", help="validate a document; exit 0 iff it passes")
    p.add_argument("input")
    p.set_defaults(func=_cmd_check)
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
    except DocumentError as exc:
        for line in exc.violations:
            print(line, file=sys.stderr)
        return VALIDATION_EXIT
    except NetworkValidationError as exc:
        for line in exc.violations:
            print(line, file=sys.stderr)
        return VALIDATION_EXIT
    except (DegenerateDistributionError, OutOfRangeError, TableTooLargeError) as exc:
        print(str(exc), file=sys.stderr)
        return SEMANTIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
