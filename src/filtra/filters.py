"""Filters of a unipotent group indexed by N^d.

A filter assigns to every index a normal subgroup with
[phi_s, phi_t] <= phi_{s+t} <= phi_s  intersect  phi_t and phi_0 = G.
Everything here is a nu series: the values descend along the lex order,
so a sparse support map plus a set of indices known to be trivial
determines the whole map.  at() interpolates by taking the value at the
largest supported index lex-below s, after clipping to the trivial
region along divisibility; this reproduces the dense object the theory
assigns at unstored indices.

generate() turns an order-reversing map on a sparse generating support
into a filter by the bottom-up recursion

    pi_s = < pi_s (if s is in the domain),
             [pi_t, pi_x] for t + x = s, x in the domain >,

processed in increasing lex order.  This is the path-product filter:
commutators distribute over products of normal subgroups
([AB,C] = [A,C][B,C]), so folding paths through their last edge loses
nothing.  A literal path enumeration lives in the test oracles
(``tests/oracles.py``) for cross-checking.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field

from . import monoid
from .errors import (
    DimensionMismatch,
    NonNormalGenerator,
    NotOrderReversing,
)
from .group import (
    Subgroup,
    UnipotentGroup,
    commutator_subgroup,
    is_normal,
    join,
    lower_central_series,
    exponent_p_central_series,
    jennings_series,
)
from .monoid import Index


class Filter:
    """Sparse nu series: sorted support map plus recorded trivial indices."""

    def __init__(self, ambient: UnipotentGroup, dim: int,
                 support: dict[Index, Subgroup],
                 trivial_minimals: tuple[Index, ...] = ()):
        self.ambient = ambient
        self.dim = dim
        for s in support:
            monoid.check_index(s, dim)
            if monoid.is_zero(s):
                raise DimensionMismatch("index 0 is implicit and always maps to the ambient group")
        self.support = {s: support[s] for s in sorted(support)}
        self.keys = list(self.support)
        mins: list[Index] = []
        for t in sorted(trivial_minimals):
            monoid.check_index(t, dim)
            if not any(monoid.divides(m, t) for m in mins):
                mins.append(t)
        self.trivial_minimals = tuple(mins)

    def at(self, s: Index) -> Subgroup:
        monoid.check_index(s, self.dim)
        if monoid.is_zero(s):
            return self.ambient.full_subgroup()
        for m in self.trivial_minimals:
            if monoid.divides(m, s):
                return self.ambient.trivial_subgroup()
        lo = bisect_right(self.keys, s)
        if lo == 0:
            return self.ambient.full_subgroup()
        return self.support[self.keys[lo - 1]]

    def plus(self, s: Index) -> Subgroup:
        """phi_s^+ : the join of the values one generator step past s."""
        monoid.check_index(s, self.dim)
        out = self.ambient.trivial_subgroup()
        for i in range(self.dim):
            step = tuple(1 if j == i else 0 for j in range(self.dim))
            out = join(out, self.at(monoid.add(s, step)))
        return out

    def chain(self) -> list[Subgroup]:
        """Distinct subgroups in lex order, ambient first, trivial last."""
        out = [self.ambient.full_subgroup()]
        for s in self.keys:
            v = self.support[s]
            if not out[-1].contains(v):
                raise NotOrderReversing(f"value at {s} not contained in its predecessor")
            if v.order() < out[-1].order():  # v lies in out[-1], so it is new iff smaller
                out.append(v)
        if not out[-1].is_trivial():
            out.append(self.ambient.trivial_subgroup())
        return out

    def length(self) -> int:
        """Number of nonzero graded pieces: strict drops below the top term."""
        return len(self.chain()) - 1

    def __repr__(self):
        return f"Filter(dim={self.dim}, support={len(self.keys)}, length={self.length()})"


def series_filter(ambient: UnipotentGroup, terms: list[Subgroup]) -> Filter:
    """Filter over N from a descending central-type series (term i at index i+1)."""
    support = {(i + 1,): t for i, t in enumerate(terms) if not t.is_trivial()}
    bound = (len(support) + 1,)
    return Filter(ambient, 1, support, (bound,))


def gamma_filter(g: UnipotentGroup) -> Filter:
    return series_filter(g, lower_central_series(g))


def eta_filter(g: UnipotentGroup) -> Filter:
    return series_filter(g, exponent_p_central_series(g))


def kappa_filter(g: UnipotentGroup) -> Filter:
    return series_filter(g, jennings_series(g))


@dataclass
class AxiomReport:
    ok: bool
    violations: list[tuple] = field(default_factory=list)


def verify_axioms(f: Filter) -> AxiomReport:
    """Check normality, lex order reversal, both filter inclusions, and
    eventual triviality on the recorded support, and that no recorded
    trivial index lies lex-below a nontrivial value."""
    v: list[tuple] = []
    full = f.ambient.full_subgroup()
    prev = full
    for s in f.keys:
        sub = f.support[s]
        if not is_normal(sub):
            v.append(("not_normal", s))
        if not prev.contains(sub):
            v.append(("order_reversal", s))
        prev = sub
    for t in f.trivial_minimals:
        for k in f.keys[bisect_right(f.keys, t):]:
            if not f.at(k).is_trivial():
                v.append(("lex_hole", t, k))
    if not f.trivial_minimals and not full.is_trivial():
        last = f.support[f.keys[-1]] if f.keys else full
        if not last.is_trivial():
            v.append(("not_eventually_trivial",))
    indices = list(f.keys)
    for s in indices:
        for t in indices:
            st = monoid.add(s, t)
            comm = commutator_subgroup(f.at(s), f.at(t))
            target = f.at(st)
            if not target.contains(comm):
                v.append(("commutator_inclusion", s, t))
            if not (f.at(s).contains(target) and f.at(t).contains(target)):
                v.append(("intersection_inclusion", s, t))
    return AxiomReport(ok=not v, violations=v)


def generate(ambient: UnipotentGroup, dim: int, gens: dict[Index, Subgroup]) -> Filter:
    """Filter generated by an order-reversing map on a sparse support.

    Every value must be normal in the ambient group; the map must be
    order-reversing along divisibility on its own support (checked
    exactly there, the support being sparse).

    A refined row (h, 1), ..., (h, m) means its last value H_m to hold at
    every (h, j > m), and needs no entries past m for that.  Proved:
    lookup() and Filter.at() read (h, j > m) as pi_(h, m), which contains
    H_m; no (h, j > m) is pushed, as every domain index has a nonzero head;
    and at a target (h + w, k > m) with (w, 0) in the domain, the
    decomposition t = (h, k), x = (w, 0) adds [pi_(h, m), dom(w, 0)], which
    contains [pi_(w, 0), H_m] when pi_(w, 0) = dom(w, 0).  Not proved, but
    checked on random refinements against ``generate_with_tails`` in
    tests/loop_reference.py: that equality, and that a target with (w, 0)
    outside the domain gains nothing from the held row.
    """
    dom: dict[Index, Subgroup] = {}
    for s, sub in gens.items():
        monoid.check_index(s, dim)
        if monoid.is_zero(s):
            if sub.order() != ambient.order():
                raise NotOrderReversing("index 0 must carry the full group")
            continue
        dom[s] = sub
    for s, sub in dom.items():
        if not is_normal(sub):
            raise NonNormalGenerator(f"generator at {s} is not normal")
    items = sorted(dom)
    for i, t in enumerate(items):
        below = [s for s in items[:i] if monoid.divides(s, t)]  # ascending
        for j, s in enumerate(below):
            # containment is transitive, so only covering pairs need a test
            if any(monoid.divides(s, u) for u in below[j + 1:]):
                continue
            if not dom[s].contains(dom[t]):
                raise NotOrderReversing(f"generator at {t} not inside generator at {s}")

    if not items:
        # nothing generates: trivial at every nonzero index
        units = tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))
        return Filter(ambient, dim, {}, units)

    gen_indices = items
    computed: dict[Index, Subgroup] = {}
    by_head: dict[Index, list[int]] = {}
    trivial_mins: list[Index] = []

    def lookup(t: Index) -> Subgroup | None:
        """pi at t: exact, else row-clipped, else None (trivial or unreached)."""
        if any(monoid.divides(m, t) for m in trivial_mins):
            return None
        got = computed.get(t)
        if got is not None:
            return got
        row = by_head.get(t[:-1])
        if not row:
            return None
        pos = bisect_right(row, t[-1]) - 1
        if pos < 0:
            return None
        return computed[t[:-1] + (row[pos],)]

    heap = list(gen_indices)  # sorted, so already a heap; each index enters it once
    queued = set(heap)
    while heap:
        s = heapq.heappop(heap)
        if any(monoid.divides(m, s) for m in trivial_mins):
            if s in dom and not dom[s].is_trivial():
                raise NotOrderReversing(f"domain value at {s} conflicts with triviality below it")
            continue
        parts: list[Subgroup] = []
        if s in dom:
            parts.append(dom[s])
        for t, x in monoid.decompositions(s, gen_indices):
            if monoid.is_zero(t):
                continue
            pt = lookup(t)
            if pt is None:
                continue
            parts.append(commutator_subgroup(pt, dom[x]))
        value = ambient.trivial_subgroup()
        for part in parts:
            value = join(value, part)
        if value.is_trivial():
            trivial_mins.append(s)  # no recorded minimal divides s: checked on popping it
            continue
        computed[s] = value
        by_head.setdefault(s[:-1], []).append(s[-1])
        for x in gen_indices:
            nxt = monoid.add(s, x)
            if nxt not in queued:
                queued.add(nxt)
                heapq.heappush(heap, nxt)
    return Filter(ambient, dim, computed, tuple(trivial_mins))


def filter_to_json(f: Filter) -> dict:
    terms = []
    for s in f.keys:
        sub = f.support[s]
        terms.append({
            "index": list(s),
            "order_exp": sub.order_exp(),
            "generators": [[int(x) for x in g.reshape(-1)] for g in sub.generators],
        })
    return {"dim": f.dim, "terms": terms, "length": f.length()}
