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

import numpy as np

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
        self._chain: list[Subgroup] | None = None

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
        """Distinct subgroups in lex order, ambient first, trivial last.
        Formed on the first call; later calls return a copy of that list."""
        if self._chain is None:
            out = [self.ambient.full_subgroup()]
            for s in self.keys:
                v = self.support[s]
                if not out[-1].contains(v):
                    raise NotOrderReversing(f"value at {s} not contained in its predecessor")
                if v.order() < out[-1].order():  # v lies in out[-1], so it is new iff smaller
                    out.append(v)
            if not out[-1].is_trivial():
                out.append(self.ambient.trivial_subgroup())
            self._chain = out
        return list(self._chain)

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
    # each distinct (phi_s, phi_t, phi_{s+t}) is checked once
    seen: dict[tuple[Subgroup, Subgroup, Subgroup], tuple[bool, bool]] = {}
    values = [f.at(s) for s in f.keys]
    for s, a in zip(f.keys, values):
        for t, b in zip(f.keys, values):
            target = f.at(monoid.add(s, t))
            held = seen.get((a, b, target))
            if held is None:
                held = seen[a, b, target] = (target.contains(commutator_subgroup(a, b)),
                                             a.contains(target) and b.contains(target))
            if not held[0]:
                v.append(("commutator_inclusion", s, t))
            if not held[1]:
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

    The domain indices are one int array G, sorted, so the decompositions
    s = t + x of a popped s are the rows of s - G that are >= 0, in the
    order of G, and its pushes are the rows of s + G.  Each piece of group
    work is done once per call, keyed by subgroup value: ``is_normal``
    once per distinct domain value, [pi_t, dom x] once per pair through
    the ambient group's commutator cache, and each step of the fold once
    per (value so far, part) pair.  Equal parts of s merge, as joining a
    part again returns the value unchanged.
    """
    dom: dict[Index, Subgroup] = {}
    for s, sub in gens.items():
        monoid.check_index(s, dim)
        if monoid.is_zero(s):
            if sub.order() != ambient.order():
                raise NotOrderReversing("index 0 must carry the full group")
            continue
        dom[s] = sub
    normal: set[Subgroup] = set()
    for s, sub in dom.items():
        if sub not in normal:
            if not is_normal(sub):
                raise NonNormalGenerator(f"generator at {s} is not normal")
            normal.add(sub)
    items = sorted(dom)
    if not items:
        # nothing generates: trivial at every nonzero index
        units = tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))
        return Filter(ambient, dim, {}, units)
    grid = np.array(items, dtype=np.int64)
    vals = [dom[s] for s in items]
    _check_order_reversing(items, grid, vals)

    computed: dict[Index, Subgroup] = {}
    by_head: dict[Index, list[int]] = {}
    trivial_mins: list[Index] = []
    mins = np.empty((0, dim), dtype=np.int64)  # trivial_mins as an array
    joins: dict[tuple[Subgroup, Subgroup], Subgroup] = {}
    trivial = ambient.trivial_subgroup()

    def lookup(t: Index) -> Subgroup | None:
        """pi at t: exact, else row-clipped, else None (trivial or
        unreached).  Every t looked up is s - x for the s being generated,
        so no trivial minimal divides t: t = s - x >= 0 divides s, a
        recorded minimal dividing t would divide s too, and s would have
        been skipped when it was popped."""
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

    heap = list(items)  # sorted, so already a heap; each index enters it once
    queued = set(heap)
    while heap:
        s = heapq.heappop(heap)
        if any(monoid.divides(m, s) for m in trivial_mins):
            if s in dom and not dom[s].is_trivial():
                raise NotOrderReversing(f"domain value at {s} conflicts with triviality below it")
            continue
        here = np.array(s, dtype=np.int64)
        diff = here - grid
        xs = np.flatnonzero((diff >= 0).all(axis=1))
        parts: dict[Subgroup, None] = {dom[s]: None} if s in dom else {}
        # each t = s - x divides s, so no recorded trivial minimal divides t
        # (see lookup) and none needs cutting
        for x, t in zip(xs.tolist(), map(tuple, diff[xs].tolist())):
            if not any(t):
                continue
            pt = lookup(t)
            if pt is not None:
                parts[commutator_subgroup(pt, vals[x])] = None
        value = trivial
        for part in parts:
            step = joins.get((value, part))
            if step is None:
                step = joins[value, part] = join(value, part)
            value = step
        if value.is_trivial():
            trivial_mins.append(s)  # no recorded minimal divides s: checked on popping it
            mins = np.array(trivial_mins, dtype=np.int64)
            continue
        computed[s] = value
        by_head.setdefault(s[:-1], []).append(s[-1])
        up = here + grid
        for nxt in map(tuple, up[~_below(up, mins)].tolist()):
            if nxt not in queued:
                queued.add(nxt)
                heapq.heappush(heap, nxt)
    return Filter(ambient, dim, computed, tuple(trivial_mins))


def _below(rows: np.ndarray, mins: np.ndarray) -> np.ndarray:
    """Which rows of an index array some row of ``mins`` divides."""
    return (rows[:, None] >= mins[None]).all(axis=2).any(axis=1)


def _check_order_reversing(items: list[Index], grid: np.ndarray, vals: list[Subgroup]) -> None:
    """Raise NotOrderReversing at the first covering pair s | t of the
    sorted domain indices (t ascending, then s ascending) whose value at s
    does not hold the value at t.  Containment is transitive, so only
    covering pairs need a test.  With D the strict divisibility matrix,
    the covering pairs are D and not (D D > 0); D D counts the indices
    strictly between, exactly in float32 below 2^24, and a float product
    runs in BLAS."""
    n = len(items)
    div = np.ones((n, n), dtype=bool)
    for col in grid.T:
        div &= col[:, None] <= col[None, :]
    np.fill_diagonal(div, False)
    d = div.astype(np.float32)
    cover = div & ~(d @ d > 0)
    for t, s in zip(*np.nonzero(cover.T)):
        if not vals[s].contains(vals[t]):
            raise NotOrderReversing(f"generator at {items[t]} not inside generator at {items[s]}")


def filter_to_json(f: Filter) -> dict:
    terms = []
    for s in f.keys:
        sub = f.support[s]
        terms.append({
            "index": list(s),
            "order_exp": sub.order_exp(),
            "generators": sub.canonical().reshape(sub.order_exp(), -1).tolist(),
        })
    return {"dim": f.dim, "terms": terms, "length": f.length()}
