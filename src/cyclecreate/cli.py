"""Command line interface.

Every run prints its primary result on stdout and exactly one JSON manifest
line on stderr: command, parameters, the sha256 of the bytes each input was
read as and each output written with (each file is opened once, so a pipe,
/dev/stdin or /dev/stdout works), and wall time.  Exit codes: 0 success or
property verified, 1 property violated (with the first witness on stdout), 2
usage, input format or input size errors.

One table, _TABLE, says what each command takes.  A well-formed argv is read
straight from it (_plain), and only help, usage errors and the forms that
only argparse reads (`--k=2`, an abbreviated flag) load argparse, whose
parser _build_parser makes from the same table.  The manifest is encoded
with the string escaper that json itself uses and digested with CPython's
builtin sha256, so a well-formed command loads neither json nor OpenSSL.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
from _json import encode_basestring_ascii as _escape
from types import SimpleNamespace

from . import __version__

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
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
MAX_BOUNDS_ROWS = 10_000
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
    """The hex sha256 of data, from CPython's builtin module (`_sha2` from 3.12,
    `_sha256` before), which loads no OpenSSL; from hashlib where it is not built."""
    try:
        module = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256")
    except ImportError:
        import hashlib as module
    return module.sha256(data).hexdigest()


def _encode(value) -> str:
    """json.dumps(value, sort_keys=True) for the manifest's values: dicts keyed
    by strings, strings, ints, floats, booleans and None."""
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ", ".join(f"{_escape(key)}: {_encode(item)}" for key, item in items) + "}"
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    return repr(value)


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
    if k_max - args.k >= MAX_BOUNDS_ROWS:
        raise ValueError(f"the table is limited to {MAX_BOUNDS_ROWS} rows, got {k_max - args.k + 1}")
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
# command table, parsers and entry point
# ============================================================


def _required(flag: str, help: str | None, **kwargs) -> tuple[str, dict]:
    """The table's entry for a required option."""
    return flag, {**kwargs, "required": True, "help": help}


_K = "half the created cycle length"

# command -> (help summary, {subcommand: leaf}); a command without subcommands
# has the single key None.  A leaf is (help summary, handler, arguments), and
# an argument is a flag, or a positional's name, with the keywords that
# argparse's add_argument takes for it; a list of arguments in its place is a
# required group, of which exactly one is given.  Positionals come first.
_TABLE = {
    "construct": ("write deterministic families and graphs", {
        "lower-bound": ("slot-permuted path family of size ((n-1)/k)!", _cmd_construct_lower_bound, (
            _required("--n", "vertex count, congruent to 1 mod k", type=int),
            _required("--k", _K, type=int),
            _required("--out", "output paths file"),
        )),
        "plane": ("projective plane incidence graph of prime order", _cmd_construct_plane, (
            [
                ("--q", {"type": int, "help": "plane order (prime)"}),
                ("--target-n", {
                    "type": int, "dest": "target_n",
                    "help": "pick the largest order fitting this many vertices",
                }),
            ],
            _required("--out", "output graph file"),
        )),
    }),
    "verify": ("check families and graphs", {
        "creating": ("all pairs create a cycle of length 2k", _cmd_verify_creating, (
            _required("--k", _K, type=int),
            _required("--kind", None, choices=("paths", "matchings")),
            _required("--in", "input family file", dest="infile"),
        )),
        "c2kfree": ("bipartite, regular, and free of cycles up to length 2k", _cmd_verify_c2kfree, (
            _required("--k", "half the forbidden cycle length", type=int),
            _required("--in", "input graph file", dest="infile"),
        )),
    }),
    "reduce": ("shrink families while keeping the pairwise property", {
        "paths-to-matchings": ("strip a path family sharing blocks down to matchings", _cmd_reduce_paths, (
            _required("--k", _K, type=int),
            _required("--in", "input paths file", dest="infile"),
            _required("--out", "output matchings file"),
        )),
        "shrink": ("delete vertex 1 and its most common partner", _cmd_reduce_shrink, (
            _required("--in", "input matchings file", dest="infile"),
            _required("--out", "output matchings file"),
        )),
    }),
    "search": ("exact extremal family sizes by clique search", {
        None: (None, _cmd_search, (
            ("target", {"choices": ("H", "M", "RP"), "help": "paths, matchings, or permutations"}),
            _required("--n", "ground set size", type=int),
            ("--k", {"type": int, "help": "exact cycle length for H and M"}),
        )),
    }),
    "count": ("exact counts", {
        "matchings": ("perfect matchings of a bipartite graph", _cmd_count_matchings, (
            _required("--in", "input graph file", dest="infile"),
        )),
        "permanent": ("permanent of an integer matrix", _cmd_count_permanent, (
            _required("--in", "input matrix file", dest="infile"),
        )),
    }),
    "check": ("verify the structural facts behind the pipeline", {
        "lemma6": ("matching count of a regular bipartite graph meets r^m * m!/m^m", _cmd_check_lemma6, (
            _required("--in", "input graph file", dest="infile"),
        )),
        "claim4": (
            "cycles of length 2k between triple-sharing paths avoid the shared blocks", _cmd_check_claim4, (
                _required("--k", _K, type=int),
                _required("--in", "input paths file", dest="infile"),
            ),
        ),
        "claim7": ("reversing permutations match 4-cycle creating matchings", _cmd_check_claim7, (
            _required("--m", "permutation size (at most 6)", type=int),
        )),
    }),
    "bounds": ("exact rational growth exponents", {
        None: (None, _cmd_bounds, (
            _required("--k", "half the cycle length", type=int),
            ("--kmax", {"type": int, "help": "print rows for k..kmax"}),
            ("--decimal", {"action": "store_true", "help": "print decimal approximations"}),
        )),
    }),
}
_COMMANDS = tuple(_TABLE)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole parser, or only the subtree of `command` if it names one.
    The usage line names every command either way, so help and usage errors
    read the same."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cyclecreate",
        description="Exact toolkit for families of paths and matchings whose "
        "pairwise unions create fixed-length cycles.",
    )
    alone = command in _TABLE
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="{%s}" % ",".join(_COMMANDS) if alone else None
    )
    for name, (summary, leaves) in _TABLE.items():
        if alone and name != command:
            continue
        node = sub.add_parser(name, help=summary)
        if None not in leaves:
            node_sub = node.add_subparsers(dest="subcommand", required=True)
        for leaf, (leaf_summary, handler, arguments) in leaves.items():
            target = node if leaf is None else node_sub.add_parser(leaf, help=leaf_summary)
            for argument in arguments:
                if isinstance(argument, list):
                    group = target.add_mutually_exclusive_group(required=True)
                    for flag, keywords in argument:
                        group.add_argument(flag, **keywords)
                else:
                    target.add_argument(argument[0], **argument[1])
            target.set_defaults(handler=handler)
    return parser


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that argparse makes of argv, if argv has the plain form:
    the command, its subcommand if it has any, its positional, then options,
    each given once by its exact flag, as a switch or with the next token as
    its value.  No value begins with "-", an int is ASCII digits, a value with
    choices is one of them, every required option is given, and exactly one
    of a required group.  None for any other argv, which argparse reads."""
    if not argv or argv[0] not in _TABLE:
        return None
    leaves = _TABLE[argv[0]][1]
    values, rest = {"command": argv[0]}, argv[1:]
    if None not in leaves:
        if not rest or rest[0] not in leaves:
            return None
        values["subcommand"], rest = rest[0], rest[1:]
    _, handler, arguments = leaves[values.get("subcommand")]
    groups = [argument for argument in arguments if isinstance(argument, list)]
    table = dict(member for argument in arguments for member in (
        argument if isinstance(argument, list) else [argument]
    ))
    positionals = [flag for flag in table if not flag.startswith("-")]
    given = dict(zip(positionals, rest))
    tokens = iter(rest[len(positionals):])
    for token in tokens:
        if token not in table or token in given:
            return None
        given[token] = None if table[token].get("action") == "store_true" else next(tokens, None)
    for flag, options in table.items():
        switch = options.get("action") == "store_true"
        if flag not in given:
            if options.get("required") or flag in positionals:
                return None
            value = False if switch else None
        elif switch:
            value = True
        else:
            value = given[flag]
            if value is None or value.startswith("-"):
                return None
            if "choices" in options and value not in options["choices"]:
                return None
            if options.get("type") is int:
                if not (value.isascii() and value.isdigit()):
                    return None
                try:
                    value = int(value)
                except ValueError:  # more digits than int() converts
                    return None
        values[options.get("dest", flag.lstrip("-").replace("-", "_"))] = value
    if any(sum(flag in given for flag, _ in group) != 1 for group in groups):
        return None
    return SimpleNamespace(**values, handler=handler)


_SKIP_PARAMS = frozenset({"handler", "command", "subcommand"})


def main(argv: list[str] | None = None) -> int:
    start = time.monotonic()
    inputs: dict[str, str] = {}
    outputs: dict[str, str] = {}
    argv = sys.argv[1:] if argv is None else argv
    args = _plain(argv)
    try:
        if args is None:
            parser = _build_parser(argv[0] if argv else None)
            # argparse would read the value of an unknown leading option as the command
            if argv and argv[0].startswith("-") and argv[0] != "-h" and not "--help".startswith(argv[0]):
                parser.error(f"unrecognized arguments: {argv[0]}")
            args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed a usage error or the help text
        params, command, code = {}, None, exc.code
    else:
        params = vars(args)
        command = f"{args.command} {args.subcommand}" if "subcommand" in params else args.command
        try:
            code = args.handler(args, inputs, outputs)
        except (ValueError, TypeError, OSError, RecursionError) as exc:  # FormatError is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    manifest = {
        "command": command,
        "parameters": {
            key: value for key, value in params.items() if key not in _SKIP_PARAMS and value is not None
        },
        "inputs": inputs,
        "outputs": outputs,
        "exit_code": code,
        "wall_time_s": round(time.monotonic() - start, 6),
        "version": __version__,
    }
    print(_encode(manifest), file=sys.stderr)
    return code
