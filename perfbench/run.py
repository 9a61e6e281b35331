"""Benchmark runner for cyclecreate: closed-loop batch jobs from one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
The seed makes the workload's input files (see workloads.py); the program only
sees those files and the job arguments.  One client runs one job at a time,
and each job is a fresh interpreter (`python -m cyclecreate ...`, or
`libjob.py` where the CLI has no entry point), so import is paid on every job.
Every job is checked: exit code, exact stdout (or a re-verified witness) and
the stderr manifest with its sha256 digests.

--trace 0 measures the end-to-end metrics.  The job list is run in whole
rounds until S seconds of job time have passed and at least MIN_SAMPLES jobs
have run, so every run measures the same job mix.

--trace 1 alternates an untraced round with a replay of the same round in
one interpreter (replay.py), which runs each job's argv through the CLI's own
`main` once plain and once with spans around the program's public calls,
until S seconds have passed.  It reports the per-layer metrics: self time per
round by layer, work counters, the job time spans do not cover, and the
tracing overhead.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Spans, job records and the environment go to .perfbench_out/ in the checkout.
A run stopped by SIGTERM kills and reaps its current job and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from math import ceil
from pathlib import Path
from typing import NamedTuple

import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
REPLAY = str(Path(__file__).resolve().parent / "replay.py")

# The tail is a fixed percentile, so two commits compare the same percentile
# whatever their throughput; a run keeps going until at least ten job times
# lie beyond it.
TAIL_PERCENTILE = 75
MIN_SAMPLES = ceil(10 / (1 - TAIL_PERCENTILE / 100))
SETUP_CALLS_PER_ROUND = 3
IMPORT_CALLS = 7
JOB_TIMEOUT_S = 120
RUN_DEADLINE_S = 170

def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def job_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "CYCLECREATE_MAX_ENUM")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ------------------------------------------------------------------
# running and checking one job
# ------------------------------------------------------------------


class Exit(NamedTuple):
    wall_s: float  # from spawn to exit
    code: int
    stdout: str
    stderr: str
    rss_mb: float  # peak RSS, from the child's own resource usage
    timed_out: bool


def spawn(argv: list[str], cwd: Path, env: dict, timeout: float) -> Exit:
    """Run a fresh interpreter to completion, killing it after `timeout` s."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], max(timeout, 0.0))[0]
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM or Ctrl-C): stop the child and reap it.
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(
        wall,
        proc.returncode,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
        usage.ru_maxrss / 1024,
        timed_out,
    )


def check_alpha(spec: dict, stdout: str) -> str | None:
    """An independence number and a witness re-verified against the relation."""
    parts = stdout.split()
    if len(parts) < 3 or parts[0] != "alpha" or parts[2] != "witness":
        return f"unparsable result {stdout[:80]!r}"
    size, witness = int(parts[1]), [int(v) for v in parts[3:]]
    if size != spec["value"]:
        return f"alpha {size}, expected {spec['value']}"
    objects = spec["objects"]
    if len(set(witness)) != size or not all(0 <= i < len(objects) for i in witness):
        return "witness is not a set of object indices of the stated size"
    maps = {i: oracles.partner_map(objects[i]) for i in witness} if spec["kind"] == "M" else {}

    def related(a: int, b: int) -> bool:
        if maps:
            return oracles.matchings_create(maps[a], maps[b], spec["relation"])
        return oracles.reversing(objects[a], objects[b])

    for x in range(size):
        for y in range(x + 1, size):
            if related(witness[x], witness[y]):
                return f"witness objects {witness[x]} and {witness[y]} are related"
    return None


def check_answer(job: dict, code: int, stdout: str) -> str | None:
    """The exit code, and the exact stdout or a re-verified witness."""
    if code != job["code"]:
        return f"exit code {code}, expected {job['code']}"
    if job["alpha"] is not None:
        return check_alpha(job["alpha"], stdout)
    if stdout != job["stdout"]:
        return f"stdout {stdout[:120]!r}, expected {job['stdout'][:120]!r}"
    return None


def check_manifest(job: dict, code: int, stderr: str, wd: Path) -> str | None:
    """The one-line JSON manifest: command, exit code, digests of every file
    read and written.  Wall time and parameters.threads are not pinned."""
    try:
        manifest = json.loads(stderr.splitlines()[-1])
    except (IndexError, ValueError):
        return "stderr manifest does not parse"
    if not isinstance(manifest, dict):
        return "stderr manifest is not an object"
    if manifest.get("command") != job["command"] or manifest.get("exit_code") != code:
        return "manifest command or exit code is wrong"
    if not isinstance(manifest.get("parameters"), dict) or not isinstance(manifest.get("version"), str):
        return "manifest lacks parameters or version"
    if manifest.get("inputs") != {p: file_sha256(wd / p) for p in job["inputs"]}:
        return "manifest input digests do not match the files"
    written = {p: file_sha256(wd / p) for p in job["outputs"] if (wd / p).exists()}
    if manifest.get("outputs") != written:
        return "manifest output digests do not match the files"
    for path, digest in job["outputs"].items():
        if written.get(path) != digest:
            return f"{path} differs from the reference construction"
    return None


class Client:
    """The single closed-loop client: runs jobs one at a time and keeps count."""

    def __init__(self, wd: Path, deadline: float):
        self.wd = wd
        self.env = job_env()
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[dict] = []
        self.out_of_time = False

    def fail(self, name: str, reason: str) -> None:
        self.failures.append({"job": name, "reason": reason})

    def run(self, job: dict) -> dict:
        self.attempted += 1
        for path in job["outputs"]:
            (self.wd / path).unlink(missing_ok=True)
        timeout = min(JOB_TIMEOUT_S, self.deadline - time.monotonic())
        done = spawn(job["argv"], self.wd, self.env, timeout)
        if done.timed_out:
            self.out_of_time = True
            reason = f"timed out after {timeout:.0f} s"
        else:
            reason = self.check(job, done.code, done.stdout, done.stderr)
        if reason:
            self.fail(job["name"], reason)
        return {"job": job["name"], "wall_s": done.wall_s, "rss_mb": done.rss_mb, "error": reason}

    def check(self, job: dict, code: int, stdout: str, stderr: str) -> str | None:
        reason = check_answer(job, code, stdout)
        if reason is None and job["command"] is not None:
            reason = check_manifest(job, code, stderr, self.wd)
        return reason

    def run_round(self, jobs: list[dict]) -> tuple[list[dict], float]:
        start = time.perf_counter()
        records = []
        for job in jobs:
            if self.out_of_time:
                break
            records.append(self.run(job))
        return records, time.perf_counter() - start


# ------------------------------------------------------------------
# metrics
# ------------------------------------------------------------------


def end_to_end(client: Client, jobs: list[dict], seconds: float) -> tuple[dict, dict]:
    client.run(workloads.SETUP_JOB)  # compiles the package's bytecode once
    setup, records, busy, rounds = [], [], 0.0, 0
    while not client.out_of_time:
        # Set-up calls are spread over the run, so they see the same machine
        # conditions as the jobs.
        setup += [client.run(workloads.SETUP_JOB)["wall_s"] for _ in range(SETUP_CALLS_PER_ROUND)]
        round_records, wall = client.run_round(jobs)
        records += round_records
        busy += wall
        rounds += 1
        if busy >= seconds and len(records) >= MIN_SAMPLES:
            break
    walls = sorted(r["wall_s"] for r in records)
    n = len(walls)
    tail_index = max(ceil(TAIL_PERCENTILE / 100 * n) - 1, 0)
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "job_s.p50": statistics.median(walls) if walls else 0.0,
        "job_s.tail": walls[tail_index] if walls else 0.0,
        "jobs_per_s": n / busy if busy else 0.0,
        "peak_rss_mb": max((r["rss_mb"] for r in records), default=0.0),
    }
    detail = {
        "rounds": rounds,
        "jobs": records,
        "setup_s": setup,
        "tail": f"p{TAIL_PERCENTILE} of {n} jobs, {n - tail_index - 1} beyond it",
    }
    if n > 10:
        detail["highest_percentile_with_10_beyond"] = {
            "percentile": round(100 * (n - 10) / n, 2),
            "value_s": walls[n - 11],
        }
    return metrics, detail


def ratio(totals: dict, num: str, den: str, scale: float = 1.0) -> float:
    return totals.get(num, 0) / totals[den] * scale if totals.get(den) else 0.0


def summarize_spans(spans: list[dict]) -> dict:
    """Per-layer totals over one replayed round, with the derived ratios.

    A span adds its self time (its duration less that of its child spans) to
    its metric, so nested calls are not counted twice.
    """
    child_s: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] = child_s.get(span["parent"], 0.0) + span["end"] - span["start"]
    totals: dict[str, float] = {}
    for span in spans:
        if span["metric"]:
            self_s = span["end"] - span["start"] - child_s.get(span["id"], 0.0)
            totals[span["metric"]] = totals.get(span["metric"], 0.0) + self_s
        for key, value in span["counts"].items():
            totals[key] = totals.get(key, 0) + value
    totals["graphs.us_per_pair"] = ratio(totals, "graphs.verify_s", "graphs.pairs", 1e6)
    totals["search.us_per_pair"] = ratio(totals, "search.build_s", "search.pairs", 1e6)
    totals["search.density"] = ratio(totals, "search.related", "search.pairs")
    totals["counting.ns_per_subset_row"] = ratio(totals, "counting.permanent_s", "counting.subset_rows", 1e9)
    totals["reduction.kept_ratio"] = ratio(totals, "reduction.kept", "reduction.members")
    return totals


def job_counts(spans: list[dict]) -> dict:
    """Every job's own work counters, with its compatibility-graph density."""
    per_job: dict[str, dict] = {}
    for span in spans:
        counts = per_job.setdefault(span["job"], {})
        for key, value in span["counts"].items():
            counts[key] = counts.get(key, 0) + value
    for counts in per_job.values():
        if counts.get("search.pairs"):
            counts["search.density"] = ratio(counts, "search.related", "search.pairs")
    return {job: counts for job, counts in per_job.items() if counts}


def replay_round(client: Client, jobs: list[dict], round_records: list[dict]) -> dict:
    """Replay one round in one interpreter, check its answers, and compare
    its spans with the untraced round."""
    for job in jobs:
        for path in job["outputs"]:
            (client.wd / path).unlink(missing_ok=True)
    jobs_path, out_path = client.wd / "replay-jobs.json", client.wd / "replay-out.json"
    jobs_path.write_text(json.dumps(jobs))
    timeout = min(JOB_TIMEOUT_S, client.deadline - time.monotonic())
    client.attempted += 1
    done = spawn([REPLAY, str(jobs_path), str(out_path)], client.wd, client.env, timeout)
    if done.timed_out or done.code != 0:
        client.out_of_time |= done.timed_out
        client.fail("replay", f"replay exited {done.code}: {done.stderr.strip()[-300:]}")
        return {}
    replayed = json.loads(out_path.read_text())
    for label in ("plain", "traced"):
        for job in jobs:
            client.attempted += 1
            got = replayed[label]["results"][job["name"]]
            reason = client.check(job, got["code"], got["stdout"], got["stderr"])
            if reason:
                client.fail(f"replay {label} {job['name']}", reason)
    spans = replayed["spans"]
    roots = {span["id"] for span in spans if span["parent"] is None}
    covered: dict[str, float] = {}
    for span in spans:
        if span["parent"] in roots:
            covered[span["job"]] = covered.get(span["job"], 0.0) + span["end"] - span["start"]
    totals = summarize_spans(spans)
    totals["cli.residual_s"] = sum(r["wall_s"] - covered.get(r["job"], 0.0) for r in round_records)
    totals["trace.overhead_ratio"] = replayed["traced"]["wall_s"] / replayed["plain"]["wall_s"]
    totals["per_job"] = job_counts(spans)
    totals["spans"] = spans
    return totals


def per_layer(client: Client, jobs: list[dict], seconds: float, names: list[str]) -> tuple[dict, dict]:
    bare, imported = [], []
    for _ in range(IMPORT_CALLS):
        for argv, walls in ((["-c", "pass"], bare), (["-c", "import cyclecreate"], imported)):
            client.attempted += 1
            done = spawn(argv, client.wd, client.env, JOB_TIMEOUT_S)
            if done.code:
                client.fail(argv[-1], done.stderr.strip()[-300:])
            walls.append(done.wall_s)
    rounds, start = [], time.perf_counter()
    while not client.out_of_time:
        round_records, _ = client.run_round(jobs)
        if client.out_of_time:
            break
        traced = replay_round(client, jobs, round_records)
        if traced:
            rounds.append({"jobs": round_records, **traced})
        if time.perf_counter() - start >= seconds or not traced:
            break
    metrics = {"cli.import_s": statistics.median(imported) - statistics.median(bare)}
    for name in names:
        if name != "cli.import_s":
            metrics[name] = statistics.median(r.get(name, 0) for r in rounds) if rounds else 0.0
    return metrics, {"rounds": rounds, "bare_start_s": bare, "import_start_s": imported}


# ------------------------------------------------------------------
# entry point
# ------------------------------------------------------------------


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cyclecreate" / "__init__.py").is_file():
        print(f"error: no cyclecreate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    deadline = time.monotonic() + RUN_DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    wd = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    try:
        jobs = workloads.WORKLOADS[args.workload](random.Random(f"{args.workload}/{args.seed}"), wd)
        client = Client(wd, deadline)
        if args.trace:
            values, detail = per_layer(client, jobs, args.seconds, list(units))
        else:
            values, detail = end_to_end(client, jobs, args.seconds)
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")

    expected_fail = sum(job["code"] != 0 for job in jobs)
    environment = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment,
        "jobs_per_round": len(jobs),
        "expected_to_fail_per_round": expected_fail,
        "failures": client.failures,
        "metrics": metrics,
        **detail,
    }
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs per round, {expected_fail} "
          f"({100 * expected_fail / len(jobs):.1f}%) expected to exit 1 (spoiled family or failing host)")
    print(f"python {environment['python']}, nproc {environment['nproc']}; record in {record_path.relative_to(ROOT)}")
    if not args.trace:
        print(f"{detail['rounds']} rounds; job_s.tail is {detail['tail']}")
    for failure in client.failures[:10]:
        print(f"FAILED {failure['job']}: {failure['reason']}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not client.failures and not client.out_of_time,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
