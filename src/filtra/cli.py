"""Command line interface.

Machine-readable JSON goes to stdout (byte-stable: sorted keys, no
trailing whitespace); a short human summary goes to stderr.  Exit codes:
0 success, 1 usage or input error or a failed verification, 2
computation failure (cap exceeded, closure violations), 3 fingerprints
differ (fingerprint command with two groups).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import DimensionMismatch, FiltraError
from .filters import (
    Filter,
    eta_filter,
    filter_to_json,
    gamma_filter,
    kappa_filter,
    verify_axioms,
)
from .group import (
    DEFAULT_CAP,
    UnipotentGroup,
    check_degree,
    group_from_spec,
    make_heisenberg,
    make_ut,
)
from .liering import GradedLieRing
from .refine import METHODS, fingerprint, refine_stable, ring_at
from .ring import make_poly_quotient

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_DIFFER = 3

SERIES = {"gamma": gamma_filter, "eta": eta_filter, "kappa": kappa_filter}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_at_least(least: int):
    """argparse type: an integer no smaller than ``least``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
        return value
    return parse


def _default_cap() -> int:
    raw = os.environ.get("FILTRA_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        return _int_at_least(1)(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"FILTRA_CAP: {exc}") from None


def _add_group_args(sp):
    sp.add_argument("--ut", nargs=2, type=int, action="append", metavar=("D", "P"),
                    help="upper unitriangular group UT(D, P)")
    sp.add_argument("--heisenberg", action="append", metavar="P,C0,...,CK",
                    help="Heisenberg group over Z_P[x]/(f); f by ascending "
                         "coefficients, leading coefficient 1 included")
    sp.add_argument("--group", action="append", metavar="FILE",
                    help="JSON file with p, degree and row-major generators")
    sp.add_argument("--cap", type=_int_at_least(1), default=None,
                    help="group order cap (default: FILTRA_CAP or %d)" % DEFAULT_CAP)
    sp.add_argument("--out", metavar="FILE", help="write JSON here instead of stdout")


def _build_groups(args, most: int = 1) -> list[tuple[UnipotentGroup, str]]:
    """The groups named on the command line, each with its stderr label:
    the group's name, or the file path of a nameless ``--group`` file.
    More than ``most`` of them is an input error, raised before any is built."""
    if len(args.ut or []) + len(args.heisenberg or []) + len(args.group or []) > most:
        raise ValueError(f"{args.command} takes one {'group' if most == 1 else 'or two groups'}")
    cap = args.cap if args.cap is not None else _default_cap()
    groups: list[tuple[UnipotentGroup, str]] = []
    for d, p in args.ut or []:
        g = make_ut(d, p, cap=cap)
        groups.append((g, g.name))
    for spec in args.heisenberg or []:
        parts = [int(x) for x in spec.split(",")]
        if len(parts) < 3:
            raise ValueError("--heisenberg needs P and at least two coefficients")
        # checked here too, because building a large ring is slow in itself
        check_degree(3 * (len(parts) - 2), "H(R) degree 3 * dim R")
        g = make_heisenberg(make_poly_quotient(parts[0], parts[1:]), cap=cap)
        groups.append((g, g.name))
    for path in args.group or []:
        with open(path) as fh:
            data = json.load(fh)
        try:
            g = group_from_spec(data, cap=cap)
        except (DimensionMismatch, ValueError) as exc:
            raise ValueError(f"bad group spec in {path}: {exc}") from exc
        groups.append((g, g.name or path))
    if not groups:
        raise ValueError("no group given; use --ut, --heisenberg or --group")
    return groups


def _emit(obj, args):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _chain_orders(f: Filter) -> str:
    return ">".join(str(g.order()) for g in f.chain())


def cmd_series(args) -> int:
    group, label = _build_groups(args)[0]
    f = SERIES[args.series](group)
    _emit({"group": group.name, "series": args.series, "filter": filter_to_json(f)}, args)
    print(f"{args.series} series of {label}: length {f.length()}, "
          f"orders {_chain_orders(f)}", file=sys.stderr)
    return EXIT_OK


def cmd_refine(args) -> int:
    group, label = _build_groups(args)[0]
    f = SERIES[args.series](group)
    if args.rounds is None:
        stable = refine_stable(f, args.method, check=args.check)
    else:
        stable = refine_stable(f, args.method, max_rounds=args.rounds, check=args.check)
    rounds, cur = stable.rounds, stable.filter
    out = {
        "group": group.name,
        "series": args.series,
        "method": args.method,
        "rounds": [
            {
                "index": list(r.index),
                "section_dim": r.section_dim,
                "ring_dim": r.ring_dim,
                "radical_chain": r.radical_chain_dims,
                "inserted_order_exps": r.inserted,
            }
            for r in rounds
        ],
        "filter": filter_to_json(cur),
    }
    if args.rounds is None:
        out["converged"] = stable.converged
    _emit(out, args)
    print(f"refined {args.series} of {label} with {args.method}: "
          f"{len(rounds)} proper rounds, length {cur.length()}, orders {_chain_orders(cur)}",
          file=sys.stderr)
    return EXIT_OK


def cmd_fingerprint(args) -> int:
    built = _build_groups(args, most=2)
    groups = [g for g, _ in built]
    labels = [label for _, label in built]
    fps = [fingerprint(g, args.method) for g in groups]
    if len(fps) == 1:
        _emit({"group": groups[0].name, "fingerprint": fps[0]}, args)
        print(f"fingerprint of {labels[0]}: length {fps[0]['length']}, "
              f"factors {fps[0]['factor_dims']}", file=sys.stderr)
        return EXIT_OK
    equal = fps[0] == fps[1]
    _emit({
        "first": {"group": groups[0].name, "fingerprint": fps[0]},
        "second": {"group": groups[1].name, "fingerprint": fps[1]},
        "equal": equal,
    }, args)
    verdict = "match" if equal else "differ"
    print(f"fingerprints of {labels[0]} and {labels[1]} {verdict}",
          file=sys.stderr)
    return EXIT_OK if equal else EXIT_DIFFER


def cmd_verify(args) -> int:
    group, label = _build_groups(args)[0]
    f = SERIES[args.series](group)
    report = verify_axioms(f)
    violations = [list(v) for v in report.violations]
    lie = GradedLieRing(f)
    rng = np.random.default_rng(args.seed)
    comps = lie.component_indices()
    pairs = [(s, t) for s in comps for t in comps]
    # antisymmetry and Jacobi form every product tensor in pair order, so
    # the first closure violation is raised here; the random checks follow
    # in one batch, and each pair's violations are listed in check order
    exact = [([list(v) for v in lie.check_antisymmetry(s, t)],
              [list(v) for u in comps for v in lie.check_jacobi(s, t, u)]) for s, t in pairs]
    checked = lie.check_brackets(pairs, 3, 2, rng)
    for (antisymmetry, jacobi), (bilinear, well_defined) in zip(exact, checked):
        violations += antisymmetry
        violations += [list(map(str, v)) for v in bilinear]
        violations += [list(v) for v in well_defined]
        violations += jacobi
    s = lie.leading_index()
    if s is not None:
        try:
            ring_at(lie, s, args.method, check=True, rng=rng)
        except FiltraError as exc:
            violations.append(["ring", str(exc)])
    ok = not violations
    _emit({"group": group.name, "series": args.series, "method": args.method,
           "ok": ok, "violations": violations}, args)
    print(f"verify {args.series} of {label}: "
          f"{'ok' if ok else f'{len(violations)} violations'}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_USAGE


def build_parser() -> _Parser:
    parser = _Parser(prog="filtra",
                     description="characteristic filters of finite unipotent "
                                 "matrix groups and their ring refinements")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("series", parents=[], help="compute a central series filter")
    _add_group_args(sp)
    sp.add_argument("--series", "--which", dest="series",
                    choices=sorted(SERIES), default="gamma")
    sp.set_defaults(fn=cmd_series)

    sp = sub.add_parser("refine", help="refine a filter with a ring radical")
    _add_group_args(sp)
    sp.add_argument("--series", "--which", dest="series",
                    choices=sorted(SERIES), default="gamma")
    sp.add_argument("--method", choices=METHODS, default="adjoint")
    sp.add_argument("--rounds", type=_int_at_least(0), default=None,
                    help="run at most this many rounds instead of iterating to stability")
    sp.add_argument("--check", action="store_true",
                    help="verify filter axioms after each round")
    sp.set_defaults(fn=cmd_refine)

    sp = sub.add_parser("fingerprint",
                        help="stable refinement summary; with two groups, compare")
    _add_group_args(sp)
    sp.add_argument("--method", choices=METHODS, default="adjoint")
    sp.set_defaults(fn=cmd_fingerprint)

    sp = sub.add_parser("verify", help="check filter axioms and ring identities")
    _add_group_args(sp)
    sp.add_argument("--series", "--which", dest="series",
                    choices=sorted(SERIES), default="eta")
    sp.add_argument("--method", choices=METHODS, default="adjoint")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"filtra: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FiltraError as exc:
        print(f"filtra: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
