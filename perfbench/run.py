"""Benchmark of the filtra pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload refine-groups --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  The run writes its seeded inputs (group JSON files, tensors) under
`.perfbench/`, times a fresh interpreter's `import filtra.cli` (`setup_s`),
then starts one worker process that runs the workload's jobs as a closed
loop for `--seconds` (see worker.py).  Every job result is reduced to a
digest that is compared with `pinned.json` and across passes, and checked
against invariants that hold on every seed.

stdout: one JSON report line (machine facts, per-pass and per-job times,
digests, failures), then the result line `{"correct", "attempted",
"failed", "metrics"}` with the end-to-end metrics (`--trace 0`) or the
per-layer metrics of the traced pass (`--trace 1`), named and in the units
that BENCHMARK.json declares.  The exit code is 0 only when no job failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict

THREAD_VARS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(THREAD_VARS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 7
DEADLINE_S = 170

sys.path[:0] = [HERE, SRC]

import jobs as jobmod  # noqa: E402
import speed  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ, **THREAD_VARS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
        "threads": THREAD_VARS,
    }


def time_setup(deadline: float) -> tuple[list[float], list[float]]:
    """Seconds for fresh interpreters to import filtra.cli: measured, and
    scaled to reference speed."""
    samples, ref = [], []
    for _ in range(SETUP_SAMPLES):
        with speed.Meter(during=False) as meter:
            subprocess.run([sys.executable, "-c", "import filtra.cli"], env=child_env(),
                           check=True, timeout=max(1.0, deadline - time.monotonic()))
        samples.append(meter.elapsed)
        ref.append(meter.reference)
    return samples, ref


def check_passes(passes: list[dict], pinned: dict, seed: int, joblist) -> list[dict]:
    """Failures: raised, unexpected exit, invariant broken, digest changed."""
    expected = pinned["digests"]
    first: dict = {}
    failures = []
    for n, rec in enumerate(passes):
        for job in joblist:
            got = rec["jobs"][job.name]
            reasons = list(got["errors"])
            digest = got["digest"]
            if digest is not None:
                want = expected.get(job.name)
                if job.seeded and seed != pinned["seed"]:
                    want = None
                elif want is None:
                    reasons.append("no pinned digest")
                if want is not None and digest != want:
                    reasons.append(f"digest {digest} != pinned {want}")
                if first.setdefault(job.name, digest) != digest:
                    reasons.append(f"digest {digest} differs from first pass {first[job.name]}")
            if reasons:
                failures.append({"pass": n, "job": job.name, "reasons": reasons})
    return failures


def end_to_end(passes: list[dict], largest: str, setup: list[float]) -> dict:
    """Medians over passes, in reference seconds (see speed.py)."""
    walls = [p["ref_wall_s"] for p in passes]
    big = [p["ref_job_s"][largest] for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "largest_job_s": statistics.median(big),
        "small_jobs_s": statistics.median(w - b for w, b in zip(walls, big)),
        "peak_rss_mb": passes[0]["maxrss_kb"] / 1024.0,
        "setup_s": statistics.median(setup),
    }


def per_layer(passes: list[dict], reference: dict) -> dict:
    """Metrics of the traced pass with the median wall time.  The overhead
    compares reference-speed times, so that a speed change of the machine
    between the two passes does not count as tracing cost."""
    ordered = sorted(passes, key=lambda p: p["wall_s"])
    rec = ordered[(len(ordered) - 1) // 2]
    out = dict(rec["layers"])
    out["trace.overhead"] = rec["ref_wall_s"] / reference["ref_wall_s"]
    return out


def declared_metrics(trace: int) -> list[dict]:
    """The metrics BENCHMARK.json declares for this mode, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description="filtra benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=sorted(jobmod.WORKLOADS))
    ap.add_argument("--seed", type=int, default=jobmod.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pinned", default=os.path.join(HERE, "pinned.json"),
                    help="digests of the default seed (the self-test passes an altered copy)")
    ap.add_argument("--inject-failure", action="store_true",
                    help="append a job that raises (for the self-test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "filtra", "cli.py")):
        print(f"perfbench: no filtra sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(args.pinned) as fh:
        pinned = json.load(fh)
    declared = declared_metrics(args.trace)
    facts = machine_facts()

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        joblist, largest = jobmod.make_jobs(args.workload, workdir, args.seed)
        if args.inject_failure:
            # 4 is not prime: the CLI exits 1, so the job raises
            joblist.append(jobmod.Job("injected-failure", "cli", ["series", "--ut", "3", "4"]))
        spec_path = os.path.join(workdir, "jobs.json")
        with open(spec_path, "w") as fh:
            json.dump({"workdir": workdir, "jobs": [asdict(j) for j in joblist]}, fh)

        setup, ref_setup = ([], []) if args.trace else time_setup(deadline)
        out_path = os.path.join(workdir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--jobs", spec_path,
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_path]
        if args.trace:
            cmd += ["--spans", os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")]
        subprocess.run(cmd, env=child_env(), check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        with open(out_path) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result["passes"]
    checked = passes + ([result["reference"]] if args.trace else [])
    failures = check_passes(checked, pinned, args.seed, joblist)
    attempted = len(checked) * len(joblist)
    if args.trace:
        metrics = per_layer(passes, result["reference"])
    else:
        metrics = end_to_end(passes, largest, ref_setup)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": facts,
        "largest_job": largest,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_ref_wall_s": [p["ref_wall_s"] for p in passes],
        "job_s_median": {j.name: statistics.median(p["job_s"][j.name] for p in passes)
                         for j in joblist},
        "digests": {j.name: passes[0]["jobs"][j.name]["digest"] for j in joblist},
        "setup_samples_s": setup,
        "wrapped_callables": result.get("wrapped"),
        "failed_share": len(failures) / attempted,
        "failures": failures,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
