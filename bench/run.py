"""ncmatch benchmark: seeded batch workloads, timed end to end and per layer.

    python3 bench/run.py --workload certify|recurse|oracle|sweep|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.

``--trace 0`` runs the seed's job list in several rounds, each in a child
forked from a worker that has imported the library but run nothing
(worker.py; the rounds are spread over several workers), and prints the
end-to-end metrics.  ``--seconds``
sets the amount of work, not a deadline: the run makes
``round(S / ROUND_SECONDS)`` rounds (at least 2), so two commits compared at
one seed do the same work.  ``--trace 1`` runs every workload's job list
once untraced and once traced and prints the per-layer metrics, each read
on the workload that loads its layer (``HOME``), so the set is the same
whatever ``--workload`` names.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC_PKG = ROOT / "src" / "ncmatch"
WORKER = HERE / "worker.py"
WORKLOADS = ("certify", "recurse", "oracle", "sweep")

# Nominal seconds per round on a shared 2-core x86-64 VM with Python 3.11,
# interpreter start included.  They only turn --seconds into a round count,
# which therefore depends on --seconds alone; no timing is compared with them.
ROUND_SECONDS = {"certify": 1.7, "recurse": 1.9, "oracle": 2.0, "sweep": 0.8}
# Worker interpreters per run: the rounds are spread over them and each
# gives one set-up time.
WORKERS = 11
CHILD_TIMEOUT = 150.0
# A run must end within 180 s.  A run still going after this many seconds
# fails (its worker is ended) rather than measuring fewer rounds than its
# --seconds asks for.
RUN_LIMIT = 150.0

# The workload each per-layer metric is read on: the one bench/README.md
# maps its layer to.  Every other workload bypasses some layers, and a layer
# a workload bypasses reads 0 there.  Band extraction runs on certify and
# sweep, not on recurse.
HOME = {"quadfield": "certify", "spectral": "certify", "corners": "recurse", "chains": "recurse",
        "zigzag": "recurse", "oracle": "oracle", "geometry": "oracle", "doubling": "sweep",
        "cli": "sweep", "corners.band_s": "sweep"}

END_TO_END_UNITS = {"wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
                    "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, crashed worker)."""


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def tail_percentile(values, beyond: int = 10) -> tuple[int, float, int]:
    """Highest integer percentile (nearest rank) with at least `beyond`
    values above it: (percentile, value, values above).  With `beyond` or
    fewer values no percentile qualifies and the maximum is returned as
    percentile 100."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p, xs[rank - 1], n - rank
    return 100, xs[-1], 0


def spawn_worker(workload: str, seed: int, *flags: str, timeout: float = CHILD_TIMEOUT) -> dict:
    """Run worker.py in a fresh interpreter; its JSON line.

    The worker times its own set-up from the moment stored in its
    environment just before it is started.  It runs in a session of its
    own, so a timeout ends it together with the round child it forked."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["BENCH_SPAWN_NS"] = str(time.monotonic_ns())
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(flags)} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(flags)} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def rounds_for(workload: str, seconds: float) -> int:
    return max(2, round(seconds / ROUND_SECONDS[workload]))


def mark_differing(rounds: list[dict]) -> None:
    """Fail every job whose output digest differs from the checked round 0."""
    reference = rounds[0]["records"]
    for res in rounds[1:]:
        for rec, ref in zip(res["records"], reference):
            if rec["ok"] and rec["digest"] != ref["digest"]:
                rec["ok"] = False
                rec["error"] = "output differs from the checked round"


def best_times(rounds: list[dict]) -> list[float]:
    """Each job's best time over the rounds, in job order."""
    return [min(rec["seconds"] for rec in recs) for recs in zip(*(res["records"] for res in rounds))]


def summarize(rounds: list[dict], setup: list[float]) -> tuple[dict, dict, int, int]:
    """End-to-end metrics of untraced rounds: (metrics, notes, attempted, failed).

    Every round runs the same jobs, and other tenants of a shared machine
    only ever add time, so a job's time is its best over the rounds.  The
    median and the tail percentile are taken over the distinct jobs, one
    time each."""
    per_job = best_times(rounds)
    failed = sum(not rec["ok"] for res in rounds for rec in res["records"])
    attempted = sum(len(res["records"]) for res in rounds)
    pct, tail, above = tail_percentile(per_job)
    metrics = {
        "wall_s": sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": tail,
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(res["rss_kib"] / 1024 for res in rounds),
    }
    best = f"best of {len(rounds)} rounds"
    notes = {
        "wall_s": f"sum over {len(per_job)} jobs of each job's {best}",
        "job_p50_s": f"median of {len(per_job)} jobs, each at its {best}",
        "job_tail_s": (f"p{pct} of {len(per_job)} jobs, each at its {best}, {above} jobs above it"
                       if above else f"maximum of {len(per_job)} jobs, each at its {best}: "
                       "too few jobs for ten above a percentile"),
        "setup_s": f"median of {len(setup)} worker starts: interpreter start, import and input generation",
        "peak_rss_mib": f"median over {len(rounds)} rounds of the worker's peak RSS",
        "fail_ratio": f"{failed} of {attempted} job runs raised or returned a wrong output",
    }
    return metrics, notes, attempted, failed


def print_jobs(records: list[dict], seconds: list[float]) -> None:
    """One line per job: index, digest, time and label, then the jobs sorted
    by time, so the jobs the median and the tail percentile fall on show."""
    for i, (rec, t) in enumerate(zip(records, seconds)):
        status = rec["digest"] if rec["ok"] else "FAILED " + rec["error"]
        print(f"job {i:03d} {status} {t:.6f} s | {rec['label']}")
    for rank, i in enumerate(sorted(range(len(records)), key=seconds.__getitem__), 1):
        print(f"# rank {rank:3d} {seconds[i]:.6f} s job {i:03d} | {records[i]['label']}")


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    """Untraced rounds: the end-to-end metrics, attempted, failed.

    The rounds are spread over WORKERS fresh interpreters, each of which
    also times its own set-up, so the set-up samples span the whole run.
    Every round runs the same job list in a child forked from its worker;
    the first round also checks each output, later rounds must reproduce
    its digests."""
    started = time.perf_counter()
    n_rounds = rounds_for(workload, seconds)
    setup, rounds = [], []
    for i in range(WORKERS):
        chunk = n_rounds // WORKERS + (i < n_rounds % WORKERS)
        left = RUN_LIMIT - (time.perf_counter() - started)
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT:.0f} s")
        flags = ["--rounds", str(chunk)] + (["--check"] if not rounds else [])
        res = spawn_worker(workload, seed, *flags, timeout=left)
        setup.append(res["setup_s"])
        rounds += res["rounds"]
    mark_differing(rounds)
    print_jobs(rounds[0]["records"], best_times(rounds))
    for i, res in enumerate(rounds[1:], 1):
        for j, rec in enumerate(res["records"]):
            if not rec["ok"]:
                print(f"job {j:03d} round {i} FAILED {rec['error']} | {rec['label']}")
    metrics, notes, attempted, failed = summarize(rounds, setup)
    walls = sorted(sum(rec["seconds"] for rec in res["records"]) for res in rounds)
    print(f"# {workload} seed {seed}: {len(rounds)} rounds of {len(rounds[0]['records'])} jobs; "
          f"round walls {' '.join(f'{w:.3f}' for w in walls)}")
    for name, value in metrics.items():
        print(f"{workload} {name} {value:.6g} {END_TO_END_UNITS[name]}  ({notes[name]})")
    print(f"{workload} fail_ratio {failed / attempted:.6g} ratio  ({notes['fail_ratio']})")
    return metrics, attempted, failed


def measure_traced(workload: str, seed: int) -> tuple[dict, float, float, int, int]:
    """One untraced and one traced round of one workload: (its per-layer
    metrics, untraced wall_s, traced wall_s, attempted, failed)."""
    plain = spawn_worker(workload, seed, "--check")["rounds"][0]
    traced = spawn_worker(workload, seed, "--trace")["rounds"][0]
    rounds = [plain, traced]
    mark_differing(rounds)
    plain_wall = sum(rec["seconds"] for rec in plain["records"])
    traced_wall = sum(rec["seconds"] for rec in traced["records"])
    print_jobs(traced["records"], [rec["seconds"] for rec in traced["records"]])
    metrics = dict(traced["layers"])
    metrics["trace_overhead_ratio"] = traced_wall / plain_wall
    failed = sum(not rec["ok"] for res in rounds for rec in res["records"])
    library = metrics["trace_attributed_ratio"] * traced_wall
    print(f"# {workload} seed {seed}: {traced['spans']} spans in {traced['trace_file']}")
    print(f"# traced wall_s {traced_wall:.4f} s, untraced {plain_wall:.4f} s; library layer self "
          f"times sum to {library:.4f} s, the rest ({traced_wall - library:.4f} s) is job glue")
    for name, value in metrics.items():
        print(f"{workload} {name} {value:.6g} {layer_unit(name)}")
    return metrics, plain_wall, traced_wall, 2 * len(plain["records"]), failed


def home(name: str) -> str:
    return HOME.get(name) or HOME[name.split(".", 1)[0]]


def measure_layers(seed: int, first: str) -> tuple[dict, int, int]:
    """Every workload traced, `first` first: the per-layer metrics, each read
    on its home workload, with the two trace ratios over all workloads."""
    per = {}
    plain_wall = traced_wall = library = 0.0
    attempted = failed = 0
    for w in (first,) + tuple(x for x in WORKLOADS if x != first):
        per[w], plain, traced, n, bad = measure_traced(w, seed)
        plain_wall += plain
        traced_wall += traced
        library += per[w]["trace_attributed_ratio"] * traced
        attempted += n
        failed += bad
    metrics = {name: per[home(name)][name] for name in per[first]
               if name not in ("trace_overhead_ratio", "trace_attributed_ratio")}
    metrics["trace_attributed_ratio"] = library / traced_wall
    metrics["trace_overhead_ratio"] = traced_wall / plain_wall
    for name, value in metrics.items():
        where = "all workloads" if name.startswith("trace_") else home(name)
        print(f"{name} {value:.6g} {layer_unit(name)}  (on {where})")
    return metrics, attempted, failed


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC_PKG.glob("*.py")))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="ncmatch benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC_PKG / "__init__.py").is_file():
        print(f"bench: no ncmatch sources at {SRC_PKG}", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    out = {}
    attempted = failed = 0
    try:
        if args.trace:
            metrics, attempted, failed = measure_layers(args.seed, chosen[0])
            out = {name: {"value": v, "unit": layer_unit(name)} for name, v in metrics.items()}
        else:
            for w in chosen:
                metrics, n, bad = measure(w, args.seed, args.seconds)
                attempted += n
                failed += bad
                for name, value in metrics.items():
                    key = name if len(chosen) == 1 else f"{w}.{name}"
                    out[key] = {"value": value, "unit": END_TO_END_UNITS[name]}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(f"# src/ncmatch line count {source_lines()} (information, not a gated metric)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
