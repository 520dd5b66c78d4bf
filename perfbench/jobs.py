"""Workload definitions, seeded inputs and result summaries.

A job is one unit the closed loop runs: a `filtra` CLI call made in-process
through `filtra.cli.main`, or one ring pipeline on a stored tensor composed
the way `filtra.refine.ring_at` composes it.  Each job reduces its result to a
summary that leaves out everything that depends on how subgroups are
represented (generator matrices, element orders inside a coset), so a change
of representation keeps the digests while a change of answer does not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 0

# Irreducible moduli give field extensions, whose modules take the meataxe
# certificate path; x^k moduli give long radical chains (the split path).
F2_8 = (2, (1, 1, 0, 1, 1, 0, 0, 0, 1))   # x^8 + x^4 + x^3 + x + 1
F5_3 = (5, (1, 1, 0, 1))                  # x^3 + x + 1
F2_X6 = (2, (0, 0, 0, 0, 0, 0, 1))
F3_X4 = (3, (0, 0, 0, 0, 1))


@dataclass
class Job:
    name: str
    kind: str                 # "cli" or "ring"
    argv: list[str] = field(default_factory=list)
    tensor: str = ""          # file stem of the tensor, for ring jobs
    p: int = 0
    method: str = ""
    checks: dict = field(default_factory=dict)
    seeded: bool = False      # result depends on --seed


def _circ(rng, v: int, w: int):
    """A symmetric V x V -> W product built as in the acceptance tests."""
    circ = rng.integers(0, 2, (v, v, w))
    circ = np.triu(circ.transpose(2, 0, 1)).transpose(1, 2, 0)
    circ = circ | circ.transpose(1, 0, 2)
    if not circ.any():
        circ[0, 0, 0] = 1
    return circ


def _r_circ(rng, v: int, w: int):
    from filtra.ring import make_r_circ

    return make_r_circ(2, v, w, _circ(rng, v, w))


def _write_group(workdir: str, stem: str, ring) -> str:
    from filtra.group import group_to_spec, make_heisenberg

    path = os.path.join(workdir, stem + ".json")
    with open(path, "w") as fh:
        json.dump(group_to_spec(make_heisenberg(ring)), fh)
    return path


def _write_tensor(workdir: str, stem: str, tensor) -> None:
    np.save(os.path.join(workdir, stem + ".npy"), tensor)


def _radical_facts(ring) -> dict:
    return {"rcirc_chain": [s.dim for s in ring.radical_chain()]}


def refine_groups(workdir: str, seed: int) -> tuple[list[Job], str]:
    rng = np.random.default_rng(seed)
    jobs = [
        Job("ut5_3-gamma-adjoint", "cli",
            ["refine", "--ut", "5", "3", "--series", "gamma", "--method", "adjoint"]),
        Job("ut6_2-gamma-adjoint", "cli",
            ["refine", "--ut", "6", "2", "--series", "gamma", "--method", "adjoint"],
            checks={"ut2_degree": 6}),
        Job("ut4_5-fingerprint-centroid", "cli",
            ["fingerprint", "--ut", "4", "5", "--method", "centroid"]),
    ]
    for stem, (v, w), series, method in (
        ("hrc2", (1, 1), "kappa", "derivation"),
        ("hrc3a", (2, 1), "gamma", "adjoint"),
        ("hrc3b", (1, 2), "gamma", "adjoint"),
    ):
        ring = _r_circ(rng, v, w)
        path = _write_group(workdir, stem, ring)
        checks = _radical_facts(ring)
        if method == "adjoint":
            checks["min_length"] = 6
        jobs.append(Job(f"{stem}-{series}-{method}", "cli",
                        ["refine", "--group", path, "--series", series, "--method", method],
                        checks=checks, seeded=True))
    return jobs, "ut6_2-gamma-adjoint"


ALL = ("adjoint", "centroid", "derivation")


def ring_tensors(workdir: str, seed: int) -> tuple[list[Job], str]:
    from filtra.bimap import heisenberg_tensor, kronecker_pair_tensor
    from filtra.ring import make_poly_quotient

    rng = np.random.default_rng(seed)
    tensors = []
    for stem, (p, coeffs), field_deg in (
        ("h_f2_8", F2_8, 8),
        ("h_f2x6", F2_X6, None),
        ("h_f3x4", F3_X4, None),
        ("h_f5_3", F5_3, 3),
    ):
        ring = make_poly_quotient(p, list(coeffs))
        _write_tensor(workdir, stem, heisenberg_tensor(ring))
        tensors.append((stem, p, {"field_degree": field_deg} if field_deg else {}, False, ALL))
    # The derivation ring of R_circ changes size with circ (1.9-4.5 s over
    # seeds 0-7), which would make the work depend on the seed.
    rc = _r_circ(rng, 3, 2)
    _write_tensor(workdir, "h_rcirc5", heisenberg_tensor(rc))
    tensors.append(("h_rcirc5", 2, _radical_facts(rc), True, ("adjoint", "centroid")))
    _write_tensor(workdir, "kron3_5", kronecker_pair_tensor(3, 5))
    tensors.append(("kron3_5", 5, {}, False, ALL))
    jobs = []
    for stem, p, checks, seeded, methods in tensors:
        for method in methods:
            jobs.append(Job(f"{stem}-{method}", "ring", tensor=stem, p=p, method=method,
                            checks=checks, seeded=seeded))
    return jobs, "h_f2_8-adjoint"


def verify_checks(workdir: str, seed: int) -> tuple[list[Job], str]:
    rng = np.random.default_rng(seed)
    path = _write_group(workdir, "hrc2v", _r_circ(rng, 1, 1))
    jobs = [
        Job("ut6_2-eta-adjoint", "cli",
            ["verify", "--ut", "6", "2", "--series", "eta", "--method", "adjoint"]),
        Job("ut5_3-kappa-derivation", "cli",
            ["verify", "--ut", "5", "3", "--series", "kappa", "--method", "derivation"]),
        Job("ut4_5-eta-centroid", "cli",
            ["verify", "--ut", "4", "5", "--method", "centroid"]),
        Job("h_f2x3-eta-derivation", "cli",
            ["verify", "--heisenberg", "2,0,0,0,1", "--method", "derivation"]),
        Job("h_f3x2-eta-adjoint", "cli", ["verify", "--heisenberg", "3,0,0,1"]),
        Job("hrc2v-eta-adjoint", "cli", ["verify", "--group", path], seeded=True),
        Job("ut6_2-series-kappa", "cli", ["series", "--ut", "6", "2", "--series", "kappa"]),
    ]
    return jobs, "ut5_3-kappa-derivation"


WORKLOADS = {
    "refine-groups": refine_groups,
    "ring-tensors": ring_tensors,
    "verify-checks": verify_checks,
}


def make_jobs(workload: str, workdir: str, seed: int) -> tuple[list[Job], str]:
    """Write the seeded inputs of a workload; return its jobs and the largest."""
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[workload](workdir, seed)


# ---------------------------------------------------------------- running
# filtra names are looked up at call time, so that the tracer's rebinding of
# module attributes (tracer.install) is seen.


def run_cli(job: Job):
    """Run one CLI call in-process; return its parsed JSON output."""
    from filtra.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(job.argv))
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def run_ring(job: Job, tensor):
    """solve_ring -> algebra_closure -> jacobson_radical, as ring_at does it."""
    from filtra.algrep import (algebra_closure, embed_adjoint_pairs,
                               embed_centroid_triples, jacobson_radical)
    from filtra.bimap import solve_ring

    p, a = job.p, tensor.shape[0]
    ring = solve_ring(tensor, p, job.method)
    if job.method == "adjoint":
        alg = algebra_closure(embed_adjoint_pairs(ring.members, p), p, 2 * a, unital=True)
    elif job.method == "centroid":
        alg = algebra_closure(embed_centroid_triples(ring.members, p), p,
                              2 * a + tensor.shape[2], unital=True)
    else:
        alg = algebra_closure([m[0] for m in ring.members], p, a, unital=True)
    rad = jacobson_radical(alg)
    return {
        "ring_dim": ring.dim,
        "algebra_dim": alg.dim,
        "radical_dim": rad.dim,
        "radical_chain": rad.chain_dims(),
        "factor_dims": sorted(f.dim for f in rad.factors),
    }


# ---------------------------------------------------------------- checking


def _terms(filt: dict) -> list:
    return [[t["index"], t["order_exp"]] for t in filt["terms"]]


def summarize(job: Job, result) -> dict:
    """The representation-independent part of a job's result."""
    if job.kind == "ring":
        return result
    cmd = job.argv[0]
    if cmd == "verify":
        return {"ok": result["ok"], "violations": len(result["violations"])}
    if cmd == "fingerprint":
        return result["fingerprint"]
    out = {"terms": _terms(result["filter"]), "length": result["filter"]["length"]}
    if cmd == "refine":
        out["rounds"] = [{k: r[k] for k in ("index", "section_dim", "ring_dim",
                                            "radical_chain", "inserted_order_exps")}
                         for r in result["rounds"]]
        out["converged"] = result.get("converged")
    return out


def digest(summary: dict) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _factor_dims(summary: dict, top: int) -> list[int]:
    exps = sorted({e for _, e in summary["terms"]} | {top, 0}, reverse=True)
    return [exps[i] - exps[i + 1] for i in range(len(exps) - 1)]


def invariant_errors(job: Job, summary: dict) -> list[str]:
    """Checks from the acceptance criteria that hold on every seed."""
    c, bad = job.checks, []
    if job.kind == "ring" and job.method != "derivation" \
            and summary["algebra_dim"] != summary["ring_dim"]:
        bad.append(f"{job.method} span is not closed: algebra dimension "
                   f"{summary['algebra_dim']}, ring dimension {summary['ring_dim']}")
    if "field_degree" in c:
        k = c["field_degree"]
        want = {"adjoint": 4 * k, "centroid": k}.get(job.method)
        if want is not None and summary["ring_dim"] != want:
            bad.append(f"{job.method} dimension {summary['ring_dim']}, expected {want}")
        if job.method != "derivation" and summary["radical_dim"] != 0:
            bad.append(f"radical dimension {summary['radical_dim']}, expected 0")
    if "rcirc_chain" in c:
        dims = c["rcirc_chain"]
        if not (len(dims) == 2 and dims[0] > dims[1] > 0):
            bad.append(f"R_circ radical chain {dims} is not J > J^2 > 0")
    if "min_length" in c and summary["length"] < c["min_length"]:
        bad.append(f"refined length {summary['length']} < {c['min_length']}")
    if "ut2_degree" in c:
        d = c["ut2_degree"]
        dims = _factor_dims(summary, d * (d - 1) // 2)
        if max(dims) > 2 or summary["length"] <= d - 1:
            bad.append(f"UT({d},2) factors {dims}, length {summary['length']}")
    if job.kind == "cli" and job.argv[0] == "verify" and not summary["ok"]:
        bad.append(f"{summary['violations']} violations")
    return bad
