"""Library job for the CLI-less search: exact independence number.

    python libjob.py OBJECTS_FILE RELATION

OBJECTS_FILE is a matchings file in the package's format, or a permutation
list (`perms m count` then one image tuple per line).  RELATION is a cycle
length for matchings or `reversing` for permutations.  Prints
`alpha <size> witness <indices...>` with 0-based indices into the file order.
"""

from __future__ import annotations

import sys

from cyclecreate import Permutation, build_compatibility_graph, max_independent_set
from cyclecreate.formats import parse_matchings


def parse_permutations(text: str) -> list[Permutation]:
    lines = text.splitlines()
    _, m, count = lines[0].split()
    perms = [Permutation(int(v) for v in line.split()) for line in lines[1:]]
    if len(perms) != int(count) or any(p.m != int(m) for p in perms):
        raise ValueError("permutation list does not match its header")
    return perms


def parse_relation(raw: str) -> int | str:
    return raw if raw == "reversing" else int(raw)


def result_line(size: int, witness) -> str:
    return f"alpha {size} witness {' '.join(map(str, witness))}\n"


def main(argv: list[str]) -> int:
    path, relation = argv
    with open(path) as handle:
        text = handle.read()
    objects = parse_permutations(text) if text.startswith("perms") else parse_matchings(text)
    size, witness = max_independent_set(build_compatibility_graph(objects, parse_relation(relation)))
    sys.stdout.write(result_line(size, witness))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
