"""Filter refinement through ring invariants of the graded Lie ring.

One round: take the leading nonzero component L_s of the graded Lie
ring, form the self-bracket bimap L_s x L_s -> L_{2s}, compute the
configured scalar ring (adjoint, centroid, or derivations), pass to a
unital matrix algebra acting on L_s, and intersect annihilators of
composition factors to get its Jacobson radical J.  The subspaces
L_s J^i are invariant under every filter-respecting automorphism, so
their preimages H_i refine the filter: they are appended as new
generators at indices (s, i) one coordinate deeper, every old supported
index is kept at (u, 0), and the filter is regenerated.  Iterating
until no round inserts anything gives the stable refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algrep import (
    RadicalData,
    algebra_closure,
    embed_adjoint_pairs,
    embed_centroid_triples,
    jacobson_radical,
    verify_radical,
)
from .bimap import ScalarRing, solve_ring
from .errors import ClosureViolation, FiltraError, NoNontrivialComponent
from .filters import Filter, generate, verify_axioms, eta_filter
from .group import Subgroup, UnipotentGroup
from .liering import GradedLieRing
from .modlinalg import Subspace
from .monoid import Index

METHODS = ("adjoint", "centroid", "derivation")


@dataclass
class RingData:
    """Scalar ring of the leading self-bracket, the Jacobson radical of its
    enveloping matrix algebra on L_s, and the radical action subspaces
    L_s J^i."""

    ring: ScalarRing
    radical: RadicalData
    acting_powers: list[Subspace]


def ring_at(lie: GradedLieRing, s: Index, method: str, check: bool = False,
            rng: np.random.Generator | None = None) -> RingData:
    p = lie.p
    tensor = lie.product_tensor(s, s)
    a = tensor.shape[0]
    ring = solve_ring(tensor, p, method)
    if method == "adjoint":
        emb = embed_adjoint_pairs(ring.members, p)
        alg = algebra_closure(emb, p, 2 * a, unital=True)
        if alg.dim != ring.dim:
            raise ClosureViolation("adjoint ring span is not multiplicatively closed")
    elif method == "centroid":
        emb = embed_centroid_triples(ring.members, p)
        alg = algebra_closure(emb, p, 2 * a + tensor.shape[2], unital=True)
        if alg.dim != ring.dim:
            raise ClosureViolation("centroid span is not multiplicatively closed")
    else:
        xs = [m[0] for m in ring.members]
        alg = algebra_closure(xs, p, a, unital=True)
    rad = jacobson_radical(alg, rng)
    if check:
        if not ring.has_identity() or not ring.satisfies_identity():
            raise FiltraError(f"{method} ring failed its defining identity")
        bad = verify_radical(alg, rad)
        if bad:
            raise FiltraError(f"radical verification failed: {bad}")
    # the x part (top-left a x a block) of every basis matrix of J^k
    powers = [Subspace(p, a, level.basis.reshape(-1, alg.n, alg.n)[:, :a, :a].reshape(-1, a))
              for level in rad.chain]
    return RingData(ring, rad, powers)


@dataclass
class RefineRound:
    filter: Filter
    proper: bool
    index: Index | None = None
    section_dim: int = 0
    ring_dim: int = 0
    radical_chain_dims: list[int] = field(default_factory=list)
    inserted: list[int] = field(default_factory=list)


def refine_once(f: Filter, method: str = "adjoint", check: bool = False,
                rng: np.random.Generator | None = None) -> RefineRound:
    lie = GradedLieRing(f)
    s = lie.leading_index()
    if s is None:
        raise NoNontrivialComponent("filter has no nonzero graded component")
    rd = ring_at(lie, s, method, check=check, rng=rng)
    sec = lie.section(s)
    # every preimage contains the section's denominator, which contains
    # phi_s^+ (the section was built from it), so a preimage equals phi_s^+
    # exactly when their orders agree
    plus_order = sec.den_given.order()
    a = sec.dim
    hs: list[Subgroup] = []
    spaces = rd.acting_powers + [Subspace(lie.p, a, [])]
    for space in spaces:
        h = sec.preimage(space)
        hs.append(h)
        if h.order() == plus_order:
            break
    if hs[0].order() == plus_order:
        return RefineRound(f, False, s, a, rd.ring.dim, rd.radical.chain_dims())
    dom: dict[Index, Subgroup] = {u + (0,): f.support[u] for u in f.keys}
    for i, h in enumerate(hs, start=1):
        dom[s + (i,)] = h
    newf = generate(f.ambient, f.dim + 1, dom)
    if check:
        report = verify_axioms(newf)
        if not report.ok:
            raise FiltraError(f"refined filter failed verification: {report.violations}")
    return RefineRound(newf, True, s, a, rd.ring.dim, rd.radical.chain_dims(),
                       [h.order_exp() for h in hs])


@dataclass
class StableResult:
    """The filter a refinement stopped at, its proper rounds, and ``last``,
    the non-proper round that proved it stable (None when the filter has no
    nonzero graded component or the round budget ran out first)."""

    filter: Filter
    rounds: list[RefineRound]
    converged: bool
    last: RefineRound | None = None


def refine_stable(f: Filter, method: str = "adjoint", max_rounds: int = 16,
                  check: bool = False, rng: np.random.Generator | None = None) -> StableResult:
    """Refine until a round inserts nothing.  A filter with no nonzero graded
    component (a trivial group) is stable after zero rounds."""
    cur = f
    rounds: list[RefineRound] = []
    for _ in range(max_rounds):
        try:
            r = refine_once(cur, method, check, rng)
        except NoNontrivialComponent:
            return StableResult(cur, rounds, True)
        if not r.proper:
            return StableResult(cur, rounds, True, r)
        rounds.append(r)
        cur = r.filter
    return StableResult(cur, rounds, False)


def fingerprint(group: UnipotentGroup, method: str = "adjoint", max_rounds: int = 16,
                check: bool = False) -> dict:
    """Isomorphism-invariant summary from the stable refinement of eta."""
    f = eta_filter(group)
    stable = refine_stable(f, method, max_rounds, check)
    if not stable.converged:
        raise FiltraError(f"refinement did not stabilize within {max_rounds} rounds")
    chain = stable.filter.chain()
    factor_dims = [chain[i].order_exp() - chain[i + 1].order_exp()
                   for i in range(len(chain) - 1)]
    last = stable.last
    return {
        "p": group.p,
        "order_exp": group.full_subgroup().order_exp(),
        "method": method,
        "length": stable.filter.length(),
        "factor_dims": factor_dims,
        "rounds": len(stable.rounds),
        "ring_dims": ({"ring": last.ring_dim, "radical_chain": last.radical_chain_dims}
                      if last else {"ring": 0, "radical_chain": []}),
    }
