"""Benchmark rounds of one workload, each in a fresh copy of the library.

    python3 bench/worker.py --workload W --seed N [--rounds R] [--check] [--trace]

Imports ``ncmatch`` from the checkout's ``src`` and builds the job list,
then runs each round in a child forked from that state, so every round
starts with the library imported and its caches cold, as one CLI invocation
does, without paying for a new interpreter each time.  Prints one JSON
line: ``setup_s``, and per round a record per job (label, seconds, ok,
error, digest) and the child's peak RSS.  ``setup_s`` runs from the moment
the parent, before starting this interpreter, stored in ``BENCH_SPAWN_NS``
(``time.monotonic_ns()``, one clock for every process on Linux) to the
moment the library is imported and the job list built.  ``--check`` checks
every output of the first round against its independent route; the parent
compares later rounds with it by digest.  ``--rounds 0`` stops after the set-up.
``--trace`` runs one round with the span wrappers installed, adds the
per-layer metrics and writes the spans to ``bench/out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import monotonic_ns, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def import_library() -> None:
    """Import ncmatch from this checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import ncmatch

    where = Path(ncmatch.__file__).resolve().parent
    if where != (SRC / "ncmatch").resolve():
        raise ImportError(f"ncmatch was imported from {where}, not from {SRC}")


def run_jobs(jobs, tracer=None, originals=None, check: bool = True) -> list[dict]:
    """Run jobs in order; time only each call, check and digest outside it.

    An exception in a call or a rejected output marks the job failed with
    the error's type; the job is kept, never dropped or re-drawn.  A job
    whose inputs came from a failed job fails in ``prep``.
    """
    import workloads

    if tracer is not None:
        from ncmatch.oracle import Matching

        raw_is_noncrossing = originals["oracle.is_noncrossing"]
        empty = Matching(frozenset())
    state: dict = {}
    records = []
    for i, job in enumerate(jobs):
        rec = {"label": job.label, "seconds": 0.0, "ok": False, "error": None, "digest": None}
        records.append(rec)
        try:
            args = job.prep(state)
        except Exception as exc:
            rec["error"] = f"prep {type(exc).__name__}: {exc}"[:200]
            continue
        try:
            if tracer is None:
                t0 = perf_counter()
                try:
                    out = job.call(*args)
                finally:
                    rec["seconds"] = perf_counter() - t0
            else:
                span = tracer.begin_job(i)
                try:
                    tracer.build_tables(job.sets(args), raw_is_noncrossing, empty)
                    out = job.call(*args)
                finally:
                    rec["seconds"] = tracer.end_job(span)
        except Exception as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"[:200]
            continue
        if job.key is not None:
            state[job.key] = out
        if check:
            try:
                job.check(out, state)
            except Exception as exc:
                rec["error"] = f"{type(exc).__name__}: {exc}"[:200]
                continue
        rec["digest"] = workloads.digest(out)
        rec["ok"] = True
    return records


def forked(fn) -> dict:
    """fn() in a forked child of this process; its JSON-ready result.

    The child inherits the imported library and the job list but nothing a
    job computed in an earlier round; a new interpreter per round would give
    the same cold state at the cost of a start-up.  This process has no
    threads, so forking it is safe.  The parent waits for the child to end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as fh:
                json.dump(fn(), fh)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"round child ended with status {status}")
    return json.loads(text)


def plain_round(jobs, check: bool) -> dict:
    records = run_jobs(jobs, check=check)
    return {"records": records, "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def traced_round(jobs, workload: str) -> dict:
    import tracing

    tracer = tracing.Tracer()
    originals = tracing.instrument(tracer)
    records = run_jobs(jobs, tracer, originals, check=False)
    wall = sum(rec["seconds"] for rec in records)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}.json"
    tracer.write(path)
    return {"records": records, "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "layers": tracing.layer_metrics(tracer, wall), "spans": len(tracer.start),
            "trace_file": str(path.relative_to(ROOT))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--check", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    import_library()
    import workloads

    jobs = workloads.build(args.workload, args.seed)
    setup_s = (monotonic_ns() - int(os.environ["BENCH_SPAWN_NS"])) / 1e9
    # Keep the collector off the inherited objects, so a round child does
    # not copy the parent's whole heap at its first collection.
    gc.collect()
    gc.freeze()
    if args.trace:
        rounds = [forked(lambda: traced_round(jobs, args.workload))]
    else:
        rounds = [forked(lambda i=i: plain_round(jobs, args.check and i == 0)) for i in range(args.rounds)]
    print(json.dumps({"setup_s": setup_s, "rounds": rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
