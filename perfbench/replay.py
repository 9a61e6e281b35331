"""Traced replay of one round of a workload in a single interpreter.

    python replay.py JOBS_JSON OUT_JSON

Every job's own argv is run in this interpreter: `cyclecreate.cli.main` for
CLI jobs, `libjob.main` for library jobs, with stdout and stderr captured.
Each job runs twice, once plain (spans off) and once traced, the order
alternating from job to job, and both passes are timed, so the caller can
compare them for the tracing overhead.

Each public function named in TRACED is replaced, in the namespace of every
module that calls it (cli, search, constructions, counting, libjob), by a
wrapper that opens a span around the call while tracing is on.  The spans
are therefore the program's own calls.  A span's layer is the module that
defines the function, and its parent is the span open when it was called;
each job has a root span.  Work counters are worked out from the wrapped
call's arguments and result, after the span has closed.  Spans stay in
memory and are written to OUT_JSON at the end, with each pass's wall time
and every job's exit code, stdout and stderr, so the caller can check both
passes' answers and manifests.
"""

from __future__ import annotations

import functools
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from cyclecreate import cli, constructions, counting, search

import libjob
import workloads


def _lines(text: str) -> dict:
    return {"formats.lines": text.count("\n")}


def _parsed(args, result) -> dict:
    return _lines(args[0])


def _formatted(args, text) -> dict:
    return _lines(text)


def _pairs_scanned(args, report) -> dict:
    """Pairs the scan visited: all of them, or up to the first violation."""
    if report.passed:
        return {"graphs.pairs": report.pair_count}
    i, j = report.first_violation
    return {"graphs.pairs": i * report.family_size - i * (i + 1) // 2 + (j - i)}


def _enumerated(args, objects) -> dict:
    return {"search.objects": len(objects)}


def _built(args, cg) -> dict:
    return {"search.pairs": cg.size * (cg.size - 1) // 2, "search.related": cg.edge_count}


def _ryser(args, value) -> dict:
    m = args[0].m
    return {"counting.ryser_subsets": 2**m - 1, "counting.subset_rows": (2**m - 1) * m}


def _reduced(args, reduced) -> dict:
    return {"reduction.kept": len(reduced.matchings), "reduction.members": len(args[0])}


# function name -> (metric its self time adds to, counter function)
TRACED = {
    "verify_pairwise_creating": ("graphs.verify_s", _pairs_scanned),
    "girth": ("graphs.girth_s", None),
    "validate_c2kfree_bipartite_regular": ("constructions.validate_s", None),
    "lower_bound_family": ("constructions.lower_bound_s", None),
    "projective_plane_incidence": ("constructions.plane_s", None),
    "exact_h": (None, None),
    "exact_m": (None, None),
    "exact_rp": (None, None),
    "enumerate_ham_paths": ("search.enumerate_s", _enumerated),
    "enumerate_perfect_matchings": ("search.enumerate_s", _enumerated),
    "enumerate_permutations": ("search.enumerate_s", _enumerated),
    "build_compatibility_graph": ("search.build_s", _built),
    "max_clique": ("search.clique_s", None),
    "max_independent_set": ("search.indep_s", None),
    "permanent_ryser": ("counting.permanent_s", _ryser),
    "count_perfect_matchings": ("counting.matchings_s", None),
    "check_regular_matching_bound": ("counting.matchings_s", None),
    "ground_set_reduce": ("reduction.s", _reduced),
    "parse_paths": ("formats.parse_s", _parsed),
    "parse_matchings": ("formats.parse_s", _parsed),
    "parse_graph": ("formats.parse_s", _parsed),
    "parse_matrix": ("formats.parse_s", _parsed),
    "format_paths": ("formats.format_s", _formatted),
    "format_matchings": ("formats.format_s", _formatted),
    "format_graph": ("formats.format_s", _formatted),
}


class Tracer:
    """Spans in memory, nested by the call stack."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def open(self, layer: str, name: str, metric: str | None) -> None:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "job": self._stack[0]["name"] if self._stack else name,
            "layer": layer,
            "name": name,
            "metric": metric,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span)

    def close(self) -> dict:
        span = self._stack.pop()
        span["end"] = time.perf_counter()
        return span

    def wrap(self, fn, metric: str | None, count):
        layer = fn.__module__.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.open(layer, fn.__name__, metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close()
            if count:
                span["counts"] = count(args, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    for module in (cli, search, constructions, counting, libjob):
        for name, (metric, count) in TRACED.items():
            fn = getattr(module, name, None)
            if fn is not None:
                setattr(module, name, tracer.wrap(fn, metric, count))


def run_job(job: dict) -> dict:
    argv = job["argv"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv[2:]) if argv[:2] == workloads.CLI else libjob.main(argv[1:])
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(argv: list[str]) -> int:
    jobs_path, out_path = argv
    jobs = json.loads(Path(jobs_path).read_text())
    tracer = Tracer()
    install(tracer)
    passes = {label: {"wall_s": 0.0, "results": {}} for label in ("plain", "traced")}
    for index, job in enumerate(jobs):
        for label in ("plain", "traced") if index % 2 == 0 else ("traced", "plain"):
            tracer.active = label == "traced"
            start = time.perf_counter()
            if tracer.active:
                tracer.open("job", job["name"], None)
            passes[label]["results"][job["name"]] = run_job(job)
            if tracer.active:
                tracer.close()
            passes[label]["wall_s"] += time.perf_counter() - start
    Path(out_path).write_text(json.dumps({**passes, "spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
