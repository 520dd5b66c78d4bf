"""Graded Lie ring of a filter.

The homogeneous component at s is the section phi_s / phi_s^+ taken mod
p: the denominator is enlarged by p-th powers so every component is a
Z_p-space.  The bracket of homogeneous elements is induced by the group
commutator of coset representatives; it lands in the component at s+t
by the filter axioms.  Components and product tensors are built lazily
and cached, since a refinement round only ever touches a few indices.

Brackets are formed in batches: a product tensor, and each bilinearity or
well-definedness check, stacks its representatives (or lifts, or
representatives times denominator elements), takes one stacked commutator
and coordinatizes the whole stack with one ``SectionBasis.coordinatize``
call.  The random draws of the checks are made one trial at a time first,
in the order and sizes of a trial-by-trial loop, so a seeded generator
leaves them in the same state as that loop would, and violations are
reported per failing trial in loop order.  A random denominator element is
a random exponent vector over the denominator's sequence, formed by
``Subgroup.elements``.
"""

from __future__ import annotations

import numpy as np

from . import monoid
from .errors import ClosureViolation
from .group import SectionBasis, commutator
from .filters import Filter
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
        lifted representatives."""
        sec_s, sec_t = self.section(s), self.section(t)
        target = self.section(monoid.add(s, t))
        p = self.p
        draws = [(rng.integers(0, p, sec_s.dim), rng.integers(0, p, sec_s.dim),
                  rng.integers(0, p, sec_t.dim)) for _ in range(trials)]
        if not draws:
            return []
        x1, x2, y = (np.stack(v) for v in zip(*draws))
        got, inside = target.coordinatize(commutator(sec_s.lift((x1 + x2) % p), sec_t.lift(y), p))
        tensor = self.product_tensor(s, t)
        want = (np.einsum("ni,nj,ijk->nk", x1, y, tensor)
                + np.einsum("ni,nj,ijk->nk", x2, y, tensor)) % p
        ok = inside & (got == want).all(axis=1)
        return [(s, t, x1[n].tolist(), x2[n].tolist(), y[n].tolist())
                for n in np.flatnonzero(~ok)]

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
        the tensor entry B[i, j].
        """
        sec_s, sec_t = self.section(s), self.section(t)
        target = self.section(monoid.add(s, t))
        a, b = sec_s.dim, sec_t.dim
        if a == 0 or b == 0:
            return []
        want = self.product_tensor(s, t)
        den_s, den_t = sec_s.den, sec_t.den
        n_s, n_t = den_s.order_exp(), den_t.order_exp()
        picks = [(rng.integers(0, self.p, n_s), rng.integers(0, self.p, n_t))
                 for _ in range(a * b * trials)]
        # draw n belongs to the pair (i, j) = divmod(n // trials, b)
        pair = np.arange(a * b * trials) // trials
        ds = np.array([e for e, _ in picks], dtype=np.int64).reshape(len(picks), n_s)
        dt = np.array([e for _, e in picks], dtype=np.int64).reshape(len(picks), n_t)
        g = (sec_s.reps[pair // b] @ den_s.elements(ds)) % self.p
        h = (sec_t.reps[pair % b] @ den_t.elements(dt)) % self.p
        got, inside = target.coordinatize(commutator(g, h, self.p))
        ok = inside & (got == want.reshape(a * b, -1)[pair]).all(axis=1)
        return [("well_defined", s, t, int(n // b), int(n % b)) for n in pair[~ok]]
