"""Graded Lie ring of a filter.

The homogeneous component at s is the section phi_s / phi_s^+ taken mod
p: the denominator is enlarged by p-th powers so every component is a
Z_p-space.  The bracket of homogeneous elements is induced by the group
commutator of coset representatives; it lands in the component at s+t
by the filter axioms.  Components and product tensors are built lazily
and cached, since a refinement round only ever touches a few indices.

Brackets are formed in batches.  A product tensor stacks its
representatives, takes one stacked commutator and coordinatizes the stack
with one ``SectionBasis.coordinatize`` call.  The bilinearity and
well-definedness checks run together, for a list of (s, t) pairs, in
``check_brackets``.  Each check of each pair takes one random draw, a
``rng.integers`` call of shape (trials, 2a + b) or (a*b*trials, n_s + n_t),
made pair by pair in the order of a trial-by-trial loop.  A bounded draw
fills its array entry by entry from the same generator stream, so a seeded
generator yields the same numbers and ends in the same state as that loop.
The pairs are then checked in one batch per target component s + t: one
lift and one denominator ``Subgroup.elements`` call per section, one
stacked commutator and one coordinatization of the target.  Violations are
reported per failing trial, in loop order.  A random denominator element is
a random exponent vector over the denominator's sequence.
"""

from __future__ import annotations

import numpy as np

from . import monoid
from .errors import ClosureViolation
from .group import SectionBasis, commutator
from .filters import Filter
from .modlinalg import _dot
from .monoid import Index


class GradedLieRing:

    def __init__(self, f: Filter):
        self.filter = f
        self.p = f.ambient.p
        self._sections: dict[Index, SectionBasis] = {}
        self._tensors: dict[tuple[Index, Index], np.ndarray] = {}

    def section(self, s: Index) -> SectionBasis:
        if s not in self._sections:
            self._sections[s] = SectionBasis(self.filter.at(s), self.filter.plus(s))
        return self._sections[s]

    def dim(self, s: Index) -> int:
        return self.section(s).dim

    def component_indices(self) -> list[Index]:
        return [s for s in self.filter.keys if self.dim(s) > 0]

    def leading_index(self) -> Index | None:
        for s in self.filter.keys:
            if self.dim(s) > 0:
                return s
        return None

    def product_tensor(self, s: Index, t: Index) -> np.ndarray:
        """Structure tensor B with B[i, j] = coords of [rep_i(s), rep_j(t)]."""
        key = (s, t)
        if key in self._tensors:
            return self._tensors[key]
        sec_s, sec_t = self.section(s), self.section(t)
        target = self.section(monoid.add(s, t))
        comms = commutator(sec_s.reps[:, None], sec_t.reps[None], self.p)
        tensor, inside = target.coordinatize(comms)
        if not inside.all():
            raise ClosureViolation(
                f"commutator of components at {s}, {t} misses the component at "
                f"{monoid.add(s, t)}")
        self._tensors[key] = tensor
        return tensor

    def check_bilinear(self, s: Index, t: Index, trials: int, rng: np.random.Generator) -> list:
        """Bracket agrees with the tensor on random coordinate pairs: the
        tensor contraction of a sum equals the bracket of the product of
        lifted representatives.  One violation (s, t, x1, x2, y) per failing
        trial; the bilinear half of ``check_brackets`` for one pair."""
        return self.check_brackets([(s, t)], trials, 0, rng)[0][0]

    def check_antisymmetry(self, s: Index, t: Index) -> list:
        bst = self.product_tensor(s, t)
        bts = self.product_tensor(t, s)
        bad = []
        if not np.array_equal(bst, (-bts.transpose(1, 0, 2)) % self.p):
            bad.append(("antisymmetry", s, t))
        if s == t:
            a = bst.shape[0]
            for i in range(a):
                if bst[i, i].any():
                    bad.append(("alternating", s, i))
        return bad

    def check_jacobi(self, s: Index, t: Index, u: Index) -> list:
        """[[x,y],z] + [[y,z],x] + [[z,x],y] = 0 in the component at s+t+u."""
        target = self.section(monoid.add(monoid.add(s, t), u))
        if target.dim == 0:
            return []
        total = np.zeros((self.dim(s), self.dim(t), self.dim(u), target.dim), dtype=np.int64)
        for (a, b, c, perm) in (
            (s, t, u, (0, 1, 2, 3)),
            (t, u, s, (2, 0, 1, 3)),
            (u, s, t, (1, 2, 0, 3)),
        ):
            inner = self.product_tensor(a, b)
            outer = self.product_tensor(monoid.add(a, b), c)
            term = np.einsum("ijm,mkl->ijkl", inner, outer) % self.p
            total = (total + term.transpose(perm)) % self.p
        if total.any():
            return [("jacobi", s, t, u)]
        return []

    def check_well_defined(self, s: Index, t: Index, trials: int,
                           rng: np.random.Generator) -> list:
        """The bracket must not depend on the choice of coset representatives.

        For each pair of reps (i, j) and each trial, the reps are multiplied
        by random denominator elements and their commutator is compared with
        the tensor entry B[i, j].  One violation ("well_defined", s, t, i, j)
        per failing trial; the well-defined half of ``check_brackets`` for
        one pair.
        """
        return self.check_brackets([(s, t)], 0, trials, rng)[0][1]

    def check_brackets(self, pairs: list[tuple[Index, Index]], bilinear_trials: int,
                       well_defined_trials: int, rng: np.random.Generator) -> list[tuple[list, list]]:
        """``check_bilinear`` and ``check_well_defined`` for every (s, t) of
        ``pairs``: one (bilinear, well-defined) pair of violation lists per
        pair, equal to what the two methods return when called pair by pair
        in that order with the same generator.

        Pair by pair, the sections are built, each check takes its one draw
        ((x1, x2, y) per bilinear trial; two denominator exponent vectors
        per well-defined trial, trials in a row for each rep pair (i, j)),
        and the product tensor is formed, so the draws and the first error
        raised come in loop order.  The checks then run in one batch per
        target component s + t.
        """
        p = self.p
        drawn = []
        for s, t in pairs:
            sec_s, sec_t = self.section(s), self.section(t)
            self.section(monoid.add(s, t))
            a, b, n_s = sec_s.dim, sec_t.dim, sec_s.den.order_exp()
            xy = rng.integers(0, p, (bilinear_trials, 2 * a + b))
            de = rng.integers(0, p, (a * b * well_defined_trials, n_s + sec_t.den.order_exp()))
            if len(xy) or len(de):
                self.product_tensor(s, t)
            # x1, x2, y and the denominator exponents of s and of t
            drawn.append((xy[:, :a], xy[:, a:2 * a], xy[:, 2 * a:], de[:, :n_s], de[:, n_s:]))
        batches: dict[Index, list[int]] = {}
        for n, (s, t) in enumerate(pairs):
            if self.dim(s) and self.dim(t):  # else every bracket is 0 = the tensor's
                batches.setdefault(monoid.add(s, t), []).append(n)
        out = [([], []) for _ in pairs]
        for u, batch in batches.items():
            # the rows each section lifts or takes from its denominator, in
            # batch order; each section then makes one call for all of them
            lifts: dict[Index, list[np.ndarray]] = {}
            dens: dict[Index, list[np.ndarray]] = {}
            want = []
            for n in batch:
                (s, t), (x1, x2, y, ds, dt) = pairs[n], drawn[n]
                lifts.setdefault(s, []).append((x1 + x2) % p)
                lifts.setdefault(t, []).append(y)
                dens.setdefault(s, []).append(ds)
                dens.setdefault(t, []).append(dt)
                tensor = self.product_tensor(s, t)
                want += [(np.einsum("ni,nj,ijk->nk", x1, y, tensor)
                          + np.einsum("ni,nj,ijk->nk", x2, y, tensor)) % p,
                         np.repeat(tensor.reshape(self.dim(s) * self.dim(t), -1),
                                   well_defined_trials, axis=0)]
            lifted = {k: _split_call(self.section(k).lift, v) for k, v in lifts.items()}
            den_elts = {k: _split_call(self.section(k).den.elements, v) for k, v in dens.items()}
            g, h = [], []
            for n in batch:
                s, t = pairs[n]
                sec_s, sec_t = self.section(s), self.section(t)
                pair = np.repeat(np.arange(sec_s.dim * sec_t.dim), well_defined_trials)
                g += [next(lifted[s]), _dot(sec_s.reps[pair // sec_t.dim], next(den_elts[s]), p)]
                h += [next(lifted[t]), _dot(sec_t.reps[pair % sec_t.dim], next(den_elts[t]), p)]
            got, inside = self.section(u).coordinatize(
                commutator(np.concatenate(g), np.concatenate(h), p))
            bad = ~(inside & (got == np.concatenate(want)).all(axis=1))
            row = 0
            for n in batch:
                (s, t), (x1, x2, y, ds, _) = pairs[n], drawn[n]
                bilinear, well_defined = out[n]
                for k in np.flatnonzero(bad[row:row + len(x1)]):
                    bilinear.append((s, t, x1[k].tolist(), x2[k].tolist(), y[k].tolist()))
                row += len(x1)
                for k in np.flatnonzero(bad[row:row + len(ds)]):
                    i, j = divmod(int(k) // well_defined_trials, self.dim(t))
                    well_defined.append(("well_defined", s, t, i, j))
                row += len(ds)
        return out


def _split_call(fn, stacks: list[np.ndarray]):
    """fn applied once to the concatenated stacks, split back into one
    result per stack, yielded in order."""
    got = fn(np.concatenate(stacks))
    return iter(np.split(got, np.cumsum([len(x) for x in stacks])[:-1]))
