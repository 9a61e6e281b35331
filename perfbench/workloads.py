"""Seeded inputs and expected outputs for the three benchmark workloads.

Each workload function takes a seeded `random.Random` and a work directory,
writes the input files there and returns the workload as a list of jobs, run
in list order (a pipeline's jobs are adjacent).  A job is a plain dict, so
the traced replay can read it back from JSON:

  name      unique label
  argv      arguments after the Python executable
  code      expected exit code
  stdout    expected stdout, exactly (None when `alpha` says how to check it)
  alpha     for independent-set jobs: the expected value and how to re-check
            the witness
  command   the CLI manifest's command path, None for library jobs
  inputs    files the manifest must list with their sha256
  outputs   file -> sha256 the written file must have

The program only ever sees the files and arguments.  Seeds move labels,
member order, spoiler and rewiring positions and matrix shuffles; the share
of jobs expected to fail is fixed per workload, so run time does not depend
on the seed.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from math import factorial
from pathlib import Path

import oracles

LIBJOB = str(Path(__file__).resolve().parent / "libjob.py")
CLI = ["-m", "cyclecreate"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Expected stdout lines, in the CLI's words.

def verify_ok(size: int, pairs: int, length: int) -> str:
    return f"ok {size} members, {pairs} pairs create length {length}\n"


def verify_violation(i: int, j: int, length: int) -> str:
    return f"violation: members {i + 1} and {j + 1} do not create a cycle of length {length}\n"


def host_ok(degree: int, girth: int) -> str:
    return f"ok bipartite {degree}-regular girth {girth}\n"


def host_girth_violation(girth: int, k: int) -> str:
    return f"violation: girth {girth} is not greater than {2 * k}\n"


def lemma6_ok(count: int, num: int, den: int) -> str:
    return f"ok {count} matchings >= bound {num}/{den}\n"


def construct_paths_line(size: int, n: int) -> str:
    return f"wrote {size} paths on {n} vertices\n"


def construct_plane_line(q: int, n: int) -> str:
    return f"wrote incidence graph of order {q} on {n} vertices\n"


def shrink_line(kept: int, total: int, partner: int) -> str:
    return f"kept {kept} of {total} members, deleted pair 1-{partner}\n"


def _write(wd: Path, name: str, text: str) -> str:
    (wd / name).write_text(text)
    return name


def _job(name, argv, stdout, *, code=0, command=None, inputs=(), outputs=None, alpha=None):
    return {
        "name": name,
        "argv": argv,
        "code": code,
        "stdout": stdout,
        "alpha": alpha,
        "command": command,
        "inputs": list(inputs),
        "outputs": outputs or {},
    }


def _relabel(rng, n: int) -> list[int]:
    """A seeded permutation of 1..n as a lookup list (index 0 unused)."""
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return [0] + images


# ------------------------------------------------------------------
# families-verify
# ------------------------------------------------------------------


def _verify_paths_job(rng, wd: Path, n: int, k: int, name: str, spoil: bool) -> dict:
    """A relabelled, shuffled lower-bound family; spoiled ones have one member
    replaced by a rotation of the first member.

    The rotation's union with the first member is a single n-cycle, so that
    pair has no cycle of length 2k < n, while every earlier pair in the scan
    is two distinct family members and creates one.  The first violation is
    therefore (first member, spoiled member), known without running anything.
    """
    sigma = _relabel(rng, n)
    family = [oracles.canonical(sigma[v] for v in order) for order in oracles.lower_bound_orders(n, k)]
    rng.shuffle(family)
    size, length = len(family), 2 * k
    if spoil:
        at = rng.randrange(1, size)
        cut = rng.randrange(1, n)
        first = family[0]
        family[at] = oracles.canonical(first[cut:] + first[:cut])
        stdout, code = verify_violation(0, at, length), 1
    else:
        stdout, code = verify_ok(size, size * (size - 1) // 2, length), 0
    infile = _write(wd, f"{name}.paths", oracles.paths_text(n, family))
    return _job(
        name,
        CLI + ["verify", "creating", "--kind", "paths", "--k", str(k), "--in", infile],
        stdout,
        code=code,
        command="verify creating",
        inputs=[infile],
    )


def _shrink_pipeline(rng, wd: Path, n: int, length: int, name: str) -> list[dict]:
    """`reduce shrink` then `verify creating` on a seeded greedy family.

    The family takes matchings of K_n in seeded order while each creates a
    cycle of `length` vertices with all members so far.  The kept members
    share vertex 1's pair, which no cycle of their union touches, so the
    shrunk family is still pairwise creating.
    """
    family: list[dict[int, int]] = []
    pairs_of: list[tuple] = []
    candidates = oracles.all_matchings(n)
    rng.shuffle(candidates)
    for pairs in candidates:
        partner = oracles.partner_map(pairs)
        if all(oracles.matchings_create(partner, other, length) for other in family):
            family.append(partner)
            pairs_of.append(pairs)
    counts = Counter(p[1] for p in family)
    top = max(counts.values())
    chosen = min(p for p, c in counts.items() if c == top)
    relabel = {old: new for new, old in enumerate((v for v in range(1, n + 1) if v not in (1, chosen)), 1)}
    kept = [
        tuple(sorted((relabel[u], relabel[v]) for u, v in pairs if u != 1))
        for pairs, partner in zip(pairs_of, family)
        if partner[1] == chosen
    ]
    infile = _write(wd, f"{name}.matchings", oracles.matchings_text(n, pairs_of))
    shrunk = f"{name}.shrunk.matchings"
    size = len(kept)
    return [
        _job(
            f"{name}-shrink",
            CLI + ["reduce", "shrink", "--in", infile, "--out", shrunk],
            shrink_line(size, len(family), chosen),
            command="reduce shrink",
            inputs=[infile],
            outputs={shrunk: sha256(oracles.matchings_text(n - 2, kept))},
        ),
        _job(
            f"{name}-verify",
            CLI + ["verify", "creating", "--kind", "matchings", "--k", str(length // 2), "--in", shrunk],
            verify_ok(size, size * (size - 1) // 2, length),
            command="verify creating",
            inputs=[shrunk],
        ),
    ]


def families_verify(rng, wd: Path) -> list[dict]:
    jobs = []
    for n, k in ((11, 2), (16, 3), (21, 4)):
        for copy in ("a", "b"):
            jobs.append(_verify_paths_job(rng, wd, n, k, f"paths-{n}-{k}{copy}", spoil=False))
        jobs.append(_verify_paths_job(rng, wd, n, k, f"paths-{n}-{k}-spoiled", spoil=True))
    jobs.append(_verify_paths_job(rng, wd, 13, 2, "paths-13-2", spoil=False))
    jobs.append(_verify_paths_job(rng, wd, 13, 2, "paths-13-2-spoiled", spoil=True))
    orders = oracles.lower_bound_orders(15, 2)
    jobs.append(
        _job(
            "construct-15-2",
            CLI + ["construct", "lower-bound", "--n", "15", "--k", "2", "--out", "lb-15-2.paths"],
            construct_paths_line(len(orders), 15),
            command="construct lower-bound",
            outputs={"lb-15-2.paths": sha256(oracles.paths_text(15, orders))},
        )
    )
    for length in (4, 6):
        jobs += _shrink_pipeline(rng, wd, 10, length, f"greedy-10-{length}")
    return jobs


# ------------------------------------------------------------------
# exact-search
# ------------------------------------------------------------------


def _search_job(target: str, n: int, k: int | None) -> dict:
    if target == "H" and k == 3:
        value = oracles.triangle_path_maximum(n)
    else:
        value = oracles.PINNED_OMEGA[(target, n, k)]
    argv = CLI + ["search", target, "--n", str(n)] + ([] if k is None else ["--k", str(k)])
    return _job(
        f"search-{target}{n}" + ("" if k is None else f"-{k}"),
        argv,
        f"{value}\n",
        command="search",
    )


def _independent_set_job(rng, wd: Path, kind: str, size: int, relation) -> dict:
    """Library job: max_independent_set over the objects in seeded order."""
    if kind == "M":
        objects = oracles.all_matchings(size)
        rng.shuffle(objects)
        text = oracles.matchings_text(size, objects)
        key = ("M", size, relation)
    else:
        objects = list(itertools.permutations(range(1, size + 1)))
        rng.shuffle(objects)
        text = "\n".join([f"perms {size} {len(objects)}"] + [" ".join(map(str, p)) for p in objects]) + "\n"
        key = ("RP", size, None)
    name = f"alpha-{kind}{size}" + ("" if kind == "RP" else f"-{relation}")
    infile = _write(wd, f"{name}.objects", text)
    return _job(
        name,
        [LIBJOB, infile, str(relation)],
        None,
        alpha={"value": oracles.PINNED_ALPHA[key], "kind": kind, "relation": relation, "objects": objects},
    )


def exact_search(rng, wd: Path) -> list[dict]:
    jobs = [_search_job("M", 8, k) for k in (4, 6, 8)]
    jobs += [_search_job("H", 5, k) for k in (3, 4, 5)]
    jobs.append(_search_job("H", 6, 3))
    jobs.append(_search_job("RP", 5, None))
    jobs.append(_independent_set_job(rng, wd, "M", 8, 4))
    jobs.append(_independent_set_job(rng, wd, "RP", 5, "reversing"))
    return jobs


# ------------------------------------------------------------------
# host-certify
# ------------------------------------------------------------------


def _relabel_edges(rng, n: int, edges) -> list[tuple[int, int]]:
    sigma = _relabel(rng, n)
    return [(sigma[u], sigma[v]) for u, v in edges]


def _rewire(rng, n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Swap two point-line incidences so that two points share two lines.

    Points a and c share exactly one line x.  Take a line y through c but
    not a, a point b != c on y, and a line z through a but through neither b
    nor c (so z != x).  The swap (a, z), (b, y) -> (a, y), (b, z) keeps every
    degree and the bipartition and closes the 4-cycle a-x-c-y, so the girth
    becomes exactly 4.
    """
    c_count = n // 2
    lines_of = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        lines_of[u].add(v)
        lines_of[v].add(u)
    while True:
        a, c = rng.sample(range(1, c_count + 1), 2)
        y = rng.choice(sorted(lines_of[c] - lines_of[a]))
        b = rng.choice(sorted(lines_of[y] - {c}))
        z_options = sorted(lines_of[a] - lines_of[b] - lines_of[c])
        if z_options:
            break
    z = rng.choice(z_options)
    edge_set = {(min(e), max(e)) for e in edges}
    edge_set -= {(a, z), (b, y)}
    edge_set |= {(a, y), (b, z)}
    return sorted(edge_set)


def _host_job(rng, wd: Path, name: str, q: int, k: int, rewire: bool) -> dict:
    n, edges = oracles.plane_edges(q)
    if rewire:
        edges = _rewire(rng, n, edges)
    infile = _write(wd, f"{name}.graph", oracles.graph_text(n, _relabel_edges(rng, n, edges)))
    girth = 4 if rewire else 6
    passed = girth > 2 * k
    return _job(
        name,
        CLI + ["verify", "c2kfree", "--k", str(k), "--in", infile],
        host_ok(q + 1, girth) if passed else host_girth_violation(girth, k),
        code=0 if passed else 1,
        command="verify c2kfree",
        inputs=[infile],
    )


def _permanent_job(rng, wd: Path, m: int, dense: bool) -> dict:
    """A row- and column-shuffled matrix with a closed-form permanent.

    Dense: J (m!), J - I (derangements) or J - I - P (menage numbers).
    Sparse: I + P, two ones per row, permanent 2.
    """
    if dense:
        kind = rng.choice(("ones", "derangement", "menage"))
        zero = {"ones": (), "derangement": (0,), "menage": (0, 1)}[kind]
        value = {
            "ones": factorial(m),
            "derangement": oracles.derangements(m),
            "menage": oracles.menage(m),
        }[kind]
        rows = [[0 if (j - i) % m in zero else 1 for j in range(m)] for i in range(m)]
    else:
        kind, value = "sparse", 2
        rows = [[1 if (j - i) % m in (0, 1) else 0 for j in range(m)] for i in range(m)]
    row_order, col_order = list(range(m)), list(range(m))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    shuffled = [[rows[i][j] for j in col_order] for i in row_order]
    name = f"permanent-{m}-{kind}"
    infile = _write(wd, f"{name}.matrix", oracles.matrix_text(shuffled))
    return _job(
        name,
        CLI + ["count", "permanent", "--in", infile],
        f"{value}\n",
        command="count permanent",
        inputs=[infile],
    )


def host_certify(rng, wd: Path) -> list[dict]:
    jobs = []
    for q in (11, 13, 17):
        n, edges = oracles.plane_edges(q)
        out = f"plane-{q}.graph"
        jobs.append(
            _job(
                f"construct-plane-{q}",
                CLI + ["construct", "plane", "--q", str(q), "--out", out],
                construct_plane_line(q, n),
                command="construct plane",
                outputs={out: sha256(oracles.graph_text(n, edges))},
            )
        )
        jobs.append(_host_job(rng, wd, f"host-{q}", q, 2, rewire=False))
    jobs.append(_host_job(rng, wd, "host-11-k3", 11, 3, rewire=False))
    jobs.append(_host_job(rng, wd, "host-13-rewired", 13, 2, rewire=True))
    for m in (16, 17, 18):
        for dense in (True, False):
            jobs.append(_permanent_job(rng, wd, m, dense))
    n, edges = oracles.plane_edges(3)
    edges = _relabel_edges(rng, n, edges)
    count = oracles.count_perfect_matchings(n, edges)
    bound = oracles.lemma6_bound(4, n // 2)
    graph = _write(wd, "plane-3.graph", oracles.graph_text(n, edges))
    jobs.append(
        _job("count-matchings-3", CLI + ["count", "matchings", "--in", graph], f"{count}\n",
             command="count matchings", inputs=[graph])
    )
    jobs.append(
        _job("lemma6-3", CLI + ["check", "lemma6", "--in", graph],
             lemma6_ok(count, bound.numerator, bound.denominator),
             command="check lemma6", inputs=[graph])
    )
    return jobs


WORKLOADS = {
    "families-verify": families_verify,
    "exact-search": exact_search,
    "host-certify": host_certify,
}

# The no-work CLI call timed as set-up: interpreter start, import, argparse.
SETUP_JOB = _job(
    "setup-bounds",
    CLI + ["bounds", "--k", "2"],
    "k=2 cycle=4 lower=1/2 matching_upper=1/4 path_upper=3/4\n",
    command="bounds",
)
