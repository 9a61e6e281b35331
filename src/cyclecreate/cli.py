"""Command line interface.

Every run prints its primary result on stdout and exactly one JSON manifest
line on stderr: command, parameters, the sha256 of the bytes each input was
read as and each output written with (each file is opened once, so a pipe,
/dev/stdin or /dev/stdout works), and wall time.  Exit codes: 0 success or
property verified, 1 property violated (with the first witness on stdout), 2
usage, input format or input size errors.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import sys
import time
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from fractions import Fraction

# The library functions the handlers call, imported on first use so that each
# command loads only the modules it runs: the formats names from formats (the
# package does not re-export them), any other public name through the package.
# Handlers call them as _cli.name, so a replaced cli.name is the one run.
_FORMATS = frozenset(
    "format_graph format_matchings format_paths parse_graph parse_matchings parse_matrix "
    "parse_paths".split()
)
_cli = sys.modules[__name__]
_package = sys.modules[__package__]


def __getattr__(name: str):
    if name in _FORMATS:
        value = getattr(importlib.import_module(".formats", __package__), name)
    elif name in _package.__all__:
        value = getattr(_package, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


CLAIM7_MAX_M = 6
MAX_INPUT_BYTES = 64 << 20  # construct writes at most about 29 MB under its caps


def _read(path: str, inputs: dict[str, str]) -> str:
    with open(path, "rb") as file:
        data = file.read(MAX_INPUT_BYTES + 1)
    if len(data) > MAX_INPUT_BYTES:
        raise ValueError(f"the input is limited to {MAX_INPUT_BYTES} bytes, got more in {path}")
    text = data.decode()  # a file that is refused or does not decode is not recorded
    inputs[path] = _sha256(data)
    return text


def _write(path: str, text: str, outputs: dict[str, str]) -> None:
    data = text.encode()
    with open(path, "wb") as file:
        file.write(data)
    outputs[path] = _sha256(data)


def _sha256(data: bytes) -> str:
    import hashlib
    return hashlib.sha256(data).hexdigest()


def _require_k(k: int) -> None:
    if k < 2:
        raise ValueError(f"--k must be at least 2, got {k}")


# ============================================================
# handlers
# ============================================================


def _cmd_construct_lower_bound(args, inputs, outputs) -> int:
    family = _cli.lower_bound_family(args.n, args.k)
    _write(args.out, _cli.format_paths(family), outputs)
    print(f"wrote {len(family)} paths on {args.n} vertices")
    return 0


def _cmd_construct_plane(args, inputs, outputs) -> int:
    if args.q is not None:
        q = args.q
    else:
        q, vertex_count = _cli.choose_plane_order(args.target_n)
        print(f"chose order {q} with {vertex_count} vertices")
    plane = _cli.projective_plane_incidence(q)
    _write(args.out, _cli.format_graph(plane.graph), outputs)
    print(f"wrote incidence graph of order {q} on {plane.graph.n} vertices")
    return 0


def _cmd_verify_creating(args, inputs, outputs) -> int:
    _require_k(args.k)
    text = _read(args.infile, inputs)
    family = _cli.parse_paths(text) if args.kind == "paths" else _cli.parse_matchings(text)
    report = _cli.verify_pairwise_creating(family, 2 * args.k)
    if report.passed:
        print(f"ok {report.family_size} members, {report.pair_count} pairs create length {2 * args.k}")
        return 0
    i, j = report.first_violation
    print(f"violation: members {i + 1} and {j + 1} do not create a cycle of length {2 * args.k}")
    return 1


def _cmd_verify_c2kfree(args, inputs, outputs) -> int:
    g = _cli.parse_graph(_read(args.infile, inputs))
    report = _cli.validate_c2kfree_bipartite_regular(g, args.k)
    if report.passed:
        print(f"ok bipartite {report.degree}-regular girth {report.girth}")
        return 0
    if not report.is_bipartite:
        print("violation: graph is not bipartite")
    elif not report.is_regular:
        print("violation: graph is not regular")
    else:
        print(f"violation: girth {report.girth} is not greater than {2 * args.k}")
    return 1


def _cmd_reduce_paths(args, inputs, outputs) -> int:
    _require_k(args.k)
    family = _cli.parse_paths(_read(args.infile, inputs))
    subfamily, _ = _cli.pigeonhole_largest_class(family, args.k)
    stripped = _cli.strip_to_matchings(subfamily, args.k)
    _write(args.out, _cli.format_matchings(stripped.matchings), outputs)
    print(
        f"kept {len(stripped.matchings)} of {len(family)} members "
        f"on {stripped.matchings[0].n} vertices"
    )
    return 0


def _cmd_reduce_shrink(args, inputs, outputs) -> int:
    family = _cli.parse_matchings(_read(args.infile, inputs))
    reduced = _cli.ground_set_reduce(family)
    _write(args.out, _cli.format_matchings(reduced.matchings), outputs)
    print(
        f"kept {len(reduced.matchings)} of {len(family)} members, "
        f"deleted pair {reduced.removed[0]}-{reduced.removed[1]}"
    )
    return 0


def _cmd_search(args, inputs, outputs) -> int:
    if args.target == "RP":
        if args.k is not None:
            raise ValueError("search RP takes no --k")
        value, _ = _cli.exact_rp(args.n)
    elif args.k is None:
        raise ValueError(f"search {args.target} needs --k, the exact cycle length")
    elif args.target == "H":
        value, _ = _cli.exact_h(args.n, args.k)
    else:
        value, _ = _cli.exact_m(args.n, args.k)
    print(value)
    return 0


def _cmd_count_matchings(args, inputs, outputs) -> int:
    g = _cli.parse_graph(_read(args.infile, inputs))
    print(_cli.count_perfect_matchings(g))
    return 0


def _cmd_count_permanent(args, inputs, outputs) -> int:
    matrix = _cli.parse_matrix(_read(args.infile, inputs))
    print(_cli.permanent_ryser(matrix))
    return 0


def _cmd_check_lemma6(args, inputs, outputs) -> int:
    g = _cli.parse_graph(_read(args.infile, inputs))
    report = _cli.check_regular_matching_bound(g)
    bound = _rational(report.bound, False)
    if report.passed:
        print(f"ok {report.count} matchings >= bound {bound}")
        return 0
    print(f"violation: {report.count} matchings < bound {bound}")
    return 1


def _cmd_check_claim4(args, inputs, outputs) -> int:
    _require_k(args.k)
    family = _cli.parse_paths(_read(args.infile, inputs))
    groups: dict = {}
    for index, path in enumerate(family):
        groups.setdefault(_cli.associated_triple(path, args.k), []).append(index)
    checked = 0
    for indices in groups.values():
        for i, j in itertools.combinations(indices, 2):
            if not _cli.verify_fixed_edges_unused(family[i], family[j], args.k):
                print(
                    f"violation: members {i + 1} and {j + 1} use a shared block edge "
                    f"in a cycle of length {2 * args.k}"
                )
                return 1
            checked += 1
    print(f"ok {checked} sharing pairs checked")
    return 0


def _cmd_check_claim7(args, inputs, outputs) -> int:
    if args.m > CLAIM7_MAX_M:
        raise ValueError(f"--m must be at most {CLAIM7_MAX_M}, got {args.m}")
    perms = _cli.enumerate_permutations(args.m)
    reversing = _cli.build_compatibility_graph(perms, "reversing").adjacency
    matchings = [_cli.perm_to_matching(p) for p in perms]
    creating = _cli.build_compatibility_graph(matchings, 4).adjacency
    # both relations are symmetric and never hold on the diagonal, so the first
    # ordered pair (i, j) where they differ is the lowest bit of row i's difference
    for i, (rev, cre) in enumerate(zip(reversing, creating)):
        differ = rev ^ cre
        if differ:
            j = (differ & -differ).bit_length() - 1
            print(f"violation: permutations {perms[i].images} and {perms[j].images}")
            return 1
    print(f"ok {len(perms) ** 2} ordered pairs checked")
    return 0


def _cmd_bounds(args, inputs, outputs) -> int:
    k_max = args.kmax if args.kmax is not None else args.k
    if k_max < args.k:
        raise ValueError(f"--kmax must be at least --k, got {k_max} < {args.k}")
    for row in _cli.exponent_table(args.k, k_max):
        print(
            f"k={row.k} cycle={row.cycle_length}"
            f" lower={_rational(row.lower, args.decimal)}"
            f" matching_upper={_rational(row.matching_upper, args.decimal)}"
            f" path_upper={_rational(row.path_upper, args.decimal)}"
        )
    return 0


def _rational(value: Fraction, decimal: bool) -> str:
    if decimal:
        return f"{float(value):.6f}"
    return f"{value.numerator}/{value.denominator}"


# ============================================================
# parser and entry point
# ============================================================


_COMMANDS = ("construct", "verify", "reduce", "search", "count", "check", "bounds")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole parser, or only the subtree of `command` if it names one.
    The usage line names every command either way, so help and usage errors
    read the same."""
    parser = argparse.ArgumentParser(
        prog="cyclecreate",
        description="Exact toolkit for families of paths and matchings whose "
        "pairwise unions create fixed-length cycles.",
    )
    alone = command in _COMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="{%s}" % ",".join(_COMMANDS) if alone else None
    )

    def add(name: str, summary: str) -> argparse.ArgumentParser | None:
        return sub.add_parser(name, help=summary) if not alone or name == command else None

    if construct := add("construct", "write deterministic families and graphs"):
        construct_sub = construct.add_subparsers(dest="subcommand", required=True)
        lower = construct_sub.add_parser(
            "lower-bound", help="slot-permuted path family of size ((n-1)/k)!"
        )
        lower.add_argument("--n", type=int, required=True, help="vertex count, congruent to 1 mod k")
        lower.add_argument("--k", type=int, required=True, help="half the created cycle length")
        lower.add_argument("--out", required=True, help="output paths file")
        lower.set_defaults(handler=_cmd_construct_lower_bound)
        plane = construct_sub.add_parser(
            "plane", help="projective plane incidence graph of prime order"
        )
        group = plane.add_mutually_exclusive_group(required=True)
        group.add_argument("--q", type=int, help="plane order (prime)")
        group.add_argument(
            "--target-n", type=int, dest="target_n", help="pick the largest order fitting this many vertices"
        )
        plane.add_argument("--out", required=True, help="output graph file")
        plane.set_defaults(handler=_cmd_construct_plane)

    if verify := add("verify", "check families and graphs"):
        verify_sub = verify.add_subparsers(dest="subcommand", required=True)
        creating = verify_sub.add_parser("creating", help="all pairs create a cycle of length 2k")
        creating.add_argument("--k", type=int, required=True, help="half the created cycle length")
        creating.add_argument("--kind", choices=("paths", "matchings"), required=True)
        creating.add_argument("--in", dest="infile", required=True, help="input family file")
        creating.set_defaults(handler=_cmd_verify_creating)
        c2kfree = verify_sub.add_parser(
            "c2kfree", help="bipartite, regular, and free of cycles up to length 2k"
        )
        c2kfree.add_argument("--k", type=int, required=True, help="half the forbidden cycle length")
        c2kfree.add_argument("--in", dest="infile", required=True, help="input graph file")
        c2kfree.set_defaults(handler=_cmd_verify_c2kfree)

    if reduce_cmd := add("reduce", "shrink families while keeping the pairwise property"):
        reduce_sub = reduce_cmd.add_subparsers(dest="subcommand", required=True)
        paths_to = reduce_sub.add_parser(
            "paths-to-matchings", help="strip a path family sharing blocks down to matchings"
        )
        paths_to.add_argument("--k", type=int, required=True, help="half the created cycle length")
        paths_to.add_argument("--in", dest="infile", required=True, help="input paths file")
        paths_to.add_argument("--out", required=True, help="output matchings file")
        paths_to.set_defaults(handler=_cmd_reduce_paths)
        shrink = reduce_sub.add_parser("shrink", help="delete vertex 1 and its most common partner")
        shrink.add_argument("--in", dest="infile", required=True, help="input matchings file")
        shrink.add_argument("--out", required=True, help="output matchings file")
        shrink.set_defaults(handler=_cmd_reduce_shrink)

    if search := add("search", "exact extremal family sizes by clique search"):
        search.add_argument("target", choices=("H", "M", "RP"), help="paths, matchings, or permutations")
        search.add_argument("--n", type=int, required=True, help="ground set size")
        search.add_argument("--k", type=int, help="exact cycle length for H and M")
        search.set_defaults(handler=_cmd_search)

    if count := add("count", "exact counts"):
        count_sub = count.add_subparsers(dest="subcommand", required=True)
        matchings_cmd = count_sub.add_parser("matchings", help="perfect matchings of a bipartite graph")
        matchings_cmd.add_argument("--in", dest="infile", required=True, help="input graph file")
        matchings_cmd.set_defaults(handler=_cmd_count_matchings)
        permanent_cmd = count_sub.add_parser("permanent", help="permanent of an integer matrix")
        permanent_cmd.add_argument("--in", dest="infile", required=True, help="input matrix file")
        permanent_cmd.set_defaults(handler=_cmd_count_permanent)

    if check := add("check", "verify the structural facts behind the pipeline"):
        check_sub = check.add_subparsers(dest="subcommand", required=True)
        lemma6 = check_sub.add_parser(
            "lemma6", help="matching count of a regular bipartite graph meets r^m * m!/m^m"
        )
        lemma6.add_argument("--in", dest="infile", required=True, help="input graph file")
        lemma6.set_defaults(handler=_cmd_check_lemma6)
        claim4 = check_sub.add_parser(
            "claim4", help="cycles of length 2k between triple-sharing paths avoid the shared blocks"
        )
        claim4.add_argument("--k", type=int, required=True, help="half the created cycle length")
        claim4.add_argument("--in", dest="infile", required=True, help="input paths file")
        claim4.set_defaults(handler=_cmd_check_claim4)
        claim7 = check_sub.add_parser(
            "claim7", help="reversing permutations match 4-cycle creating matchings"
        )
        claim7.add_argument("--m", type=int, required=True, help="permutation size (at most 6)")
        claim7.set_defaults(handler=_cmd_check_claim7)

    if bounds_cmd := add("bounds", "exact rational growth exponents"):
        bounds_cmd.add_argument("--k", type=int, required=True, help="half the cycle length")
        bounds_cmd.add_argument("--kmax", type=int, help="print rows for k..kmax")
        bounds_cmd.add_argument("--decimal", action="store_true", help="print decimal approximations")
        bounds_cmd.set_defaults(handler=_cmd_bounds)

    return parser


_SKIP_PARAMS = frozenset({"handler", "command", "subcommand"})


def main(argv: list[str] | None = None) -> int:
    start = time.monotonic()
    inputs: dict[str, str] = {}
    outputs: dict[str, str] = {}
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv else None)
    try:
        # argparse would read the value of an unknown leading option as the command
        if argv and argv[0].startswith("-") and argv[0] != "-h" and not "--help".startswith(argv[0]):
            parser.error(f"unrecognized arguments: {argv[0]}")
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed a usage error or the help text
        args, command, code = argparse.Namespace(), None, exc.code
    else:
        command = f"{args.command} {args.subcommand}" if "subcommand" in args else args.command
        try:
            code = args.handler(args, inputs, outputs)
        except (ValueError, TypeError, OSError, RecursionError) as exc:  # FormatError is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    manifest = {
        "command": command,
        "parameters": {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in _SKIP_PARAMS and value is not None
        },
        "inputs": inputs,
        "outputs": outputs,
        "exit_code": code,
        "wall_time_s": round(time.monotonic() - start, 6),
        "version": __version__,
    }
    print(json.dumps(manifest, sort_keys=True), file=sys.stderr)
    return code
