"""One measured process: run a workload's jobs as a closed loop.

Started by run.py with the BLAS/OpenMP thread variables pinned to 1.  One
client runs the job list again and again, one job after another, until the
next pass would end past the time budget (at least one pass).  Untimed work
(loading inputs, summarising and checking results) happens outside the
timed passes.  With --trace 1 an untraced reference pass comes first, then
the tracer is installed and the traced passes run.  The result goes to the
--out file as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs as jobmod  # noqa: E402
import speed  # noqa: E402
import tracer as tracemod  # noqa: E402


def run_job(job: jobmod.Job, tensors: dict):
    if job.kind == "ring":
        return jobmod.run_ring(job, tensors[job.tensor])
    return jobmod.run_cli(job)


def attempt(job: jobmod.Job, tensors: dict) -> tuple:
    """(result, None) or (None, error text): a failing job is a measured outcome."""
    try:
        return run_job(job, tensors), None
    except Exception as exc:  # noqa: BLE001
        return None, f"{type(exc).__name__}: {exc}"


def run_pass(joblist, tensors, tracer=None) -> dict:
    """One pass over the jobs, each under a speed meter."""
    clock = time.perf_counter
    results, times, ref_times = [], {}, {}
    start = clock()
    for job in joblist:
        if tracer is not None:
            tracer.job = job.name
        # A probe inside a traced job would add its time to some span.
        with speed.Meter(during=tracer is None) as meter:
            outcome = attempt(job, tensors)
        times[job.name], ref_times[job.name] = meter.elapsed, meter.reference
        results.append((job,) + outcome)
    end = clock()
    checked = {}
    for job, result, error in results:
        if error is None:
            try:
                summary = jobmod.summarize(job, result)
                checked[job.name] = {"digest": jobmod.digest(summary),
                                     "errors": jobmod.invariant_errors(job, summary)}
            except (KeyError, TypeError, ValueError) as exc:
                checked[job.name] = {"digest": None, "errors": [f"bad result: {exc}"]}
        else:
            checked[job.name] = {"digest": None, "errors": [error]}
    return {"start": start, "end": end, "wall_s": sum(times.values()), "job_s": times,
            "ref_wall_s": sum(ref_times.values()), "ref_job_s": ref_times, "jobs": checked}


def closed_loop(joblist, tensors, seconds: float, tracer=None) -> list[dict]:
    """Passes until the next one, at the median pass time, would overrun."""
    passes = []
    begin = time.perf_counter()
    while True:
        counts = dict(tracer.counts) if tracer else None
        rec = run_pass(joblist, tensors, tracer)
        if tracer is not None:
            rec["counts"] = {k: v - counts.get(k, 0) for k, v in tracer.counts.items()}
        passes.append(rec)
        if not passes[1:]:
            rec["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        typical = statistics.median(p["end"] - p["start"] for p in passes)
        if time.perf_counter() - begin + typical > seconds:
            return passes


def traced_metrics(tracer, rec: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    out = {}
    for key, (secs, calls) in tracer.self_times(rec["start"], rec["end"]).items():
        out[f"{key}_s"] = secs
        out[f"{key}_calls"] = calls
    counts = rec["counts"]
    for name in ("group.build_order", "group.section_elements", "bimap.system_cells",
                 "modlinalg.rref_cells", "algrep.try_split_calls", "algrep.splits",
                 "algrep.spin_calls", "algrep.certs_norton", "algrep.certs_allvec",
                 "refine.rounds"):
        out[name] = counts.get(name, 0)
    calls = out["algrep.try_split_calls"]
    out["algrep.split_ratio"] = out["algrep.splits"] / calls if calls else 0.0
    out["trace.wall_s"] = rec["wall_s"]
    out["trace.untraced_s"] = rec["wall_s"] - tracer.covered(rec["start"], rec["end"])
    return out


def write_spans(tracer, path: str) -> None:
    with open(path, "w") as fh:
        for i, (name, key, module, s, e, parent, job) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": name, "key": key, "start": s, "end": e,
                                 "parent": parent, "job": job}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", required=True, help="job list written by run.py")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the spans here as JSON lines (with --trace 1)")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import numpy as np

    with open(args.jobs) as fh:
        spec = json.load(fh)
    joblist = [jobmod.Job(**d) for d in spec["jobs"]]
    tensors = {j.tensor: np.load(os.path.join(spec["workdir"], j.tensor + ".npy"))
               for j in joblist if j.kind == "ring" and j.tensor}
    import filtra.cli  # noqa: F401 -- import cost is setup_s, not wall_s

    out: dict = {}
    if not args.trace:
        out["passes"] = closed_loop(joblist, tensors, args.seconds)
    else:
        t0 = time.perf_counter()
        reference = run_pass(joblist, tensors)
        tracer = tracemod.Tracer()
        out["wrapped"] = tracemod.install(tracer)
        left = args.seconds - (time.perf_counter() - t0)
        passes = closed_loop(joblist, tensors, left, tracer)
        for rec in passes:
            rec["layers"] = traced_metrics(tracer, rec)
        out["reference"] = reference
        out["passes"] = passes
        if args.spans:
            write_spans(tracer, args.spans)
    for rec in out["passes"] + [out.get("reference", {})]:
        rec.pop("start", None)
        rec.pop("end", None)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
