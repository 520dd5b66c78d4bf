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

    def compact(self) -> "Filter":
        """Drop coordinates that are zero on all recorded indices."""
        used = [
            i for i in range(self.dim)
            if any(s[i] for s in self.keys) or any(t[i] for t in self.trivial_minimals)
        ]
        if len(used) == self.dim:
            return self
        if not used:
            used = [self.dim - 1]

        def proj(s: Index) -> Index:
            return tuple(s[i] for i in used)

        supp = {proj(s): v for s, v in self.support.items()}
        mins = tuple(proj(t) for t in self.trivial_minimals)
        return Filter(self.ambient, len(used), supp, mins)

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
    eventual triviality on the recorded support."""
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


def generate(ambient: UnipotentGroup, dim: int, gens: dict[Index, Subgroup],
             persistent: tuple[Index, ...] = ()) -> Filter:
    """Filter generated by an order-reversing map on a sparse support.

    Every value must be normal in the ambient group; the map must be
    order-reversing along divisibility on its own support (checked
    exactly there, the support being sparse).

    Heads listed in ``persistent`` name rows (indices agreeing in all but
    the last coordinate) whose final recorded value holds at every larger
    last coordinate as well.  Explicitly enumerating the tail would make
    the support infinite, so the tail enters through its one dominant
    decomposition: for a target s past the row end, the tail entries at
    (h, j) contribute [pi_{s-(h,j)}, tail] for every admissible j, and
    since pi rows descend, the j = s[-1] term (t-part (s[:-1]-h, 0))
    contains all the others.  Likewise lookups of t-parts past a computed
    row clip back to the last computed entry of that row.
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

    tails: dict[Index, tuple[int, Subgroup]] = {}
    for h in persistent:
        js = [s[-1] for s in items if s[:-1] == h]
        if not js:
            raise ValueError(f"persistent head {h} has no recorded entries")
        tails[h] = (max(js), dom[h + (max(js),)])

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
        for h, (maxj, tail) in tails.items():
            if s[-1] <= maxj:
                continue
            th = monoid.sub(s[:-1], h)
            if th is None:
                continue
            t = th + (0,)
            if monoid.is_zero(t):
                parts.append(tail)
                continue
            pt = lookup(t)
            if pt is not None:
                parts.append(commutator_subgroup(pt, tail))
        value = ambient.trivial_subgroup()
        for part in parts:
            value = join(value, part)
        if value.is_trivial():
            if not any(monoid.divides(m, s) for m in trivial_mins):
                trivial_mins.append(s)
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
