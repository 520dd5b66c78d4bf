"""Graded Lie ring of a filter.

The homogeneous component at s is the section phi_s / phi_s^+ taken mod
p: the denominator is enlarged by p-th powers so every component is a
Z_p-space.  The bracket of homogeneous elements is induced by the group
commutator of coset representatives; it lands in the component at s+t
by the filter axioms.  Components and product tensors are built lazily
and cached, since a refinement round only ever touches a few indices.
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
        a, b, c = sec_s.dim, sec_t.dim, target.dim
        tensor = np.zeros((a, b, c), dtype=np.int64)
        for i in range(a):
            for j in range(b):
                g = commutator(sec_s.reps[i], sec_t.reps[j], self.p)
                try:
                    tensor[i, j] = target.coordinatize(g)
                except ValueError:
                    raise ClosureViolation(
                        f"commutator of components at {s}, {t} misses the component at "
                        f"{monoid.add(s, t)}") from None
        self._tensors[key] = tensor
        return tensor

    def bracket_coords(self, s: Index, t: Index, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        tensor = self.product_tensor(s, t)
        return np.einsum("i,j,ijk->k", x, y, tensor) % self.p

    def check_bilinear(self, s: Index, t: Index, trials: int, rng: np.random.Generator) -> list:
        """Bracket agrees with the tensor on random coordinate pairs: the
        tensor contraction of a sum equals the bracket of the product of
        lifted representatives."""
        bad = []
        sec_s, sec_t = self.section(s), self.section(t)
        target = self.section(monoid.add(s, t))
        for _ in range(trials):
            x1 = rng.integers(0, self.p, sec_s.dim)
            x2 = rng.integers(0, self.p, sec_s.dim)
            y = rng.integers(0, self.p, sec_t.dim)
            g = sec_s.lift((x1 + x2) % self.p)
            h = sec_t.lift(y)
            try:
                got = target.coordinatize(commutator(g, h, self.p))
            except ValueError:
                got = None
            want = (self.bracket_coords(s, t, x1, y) + self.bracket_coords(s, t, x2, y)) % self.p
            if got is None or not np.array_equal(got, want):
                bad.append((s, t, x1.tolist(), x2.tolist(), y.tolist()))
        return bad

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
        """The bracket must not depend on the choice of coset representatives."""
        sec_s, sec_t = self.section(s), self.section(t)
        target = self.section(monoid.add(s, t))
        den_s = sec_s.den.rows
        den_t = sec_t.den.rows
        bad = []
        for i in range(sec_s.dim):
            for j in range(sec_t.dim):
                want = self.product_tensor(s, t)[i, j]
                for _ in range(trials):
                    ds = den_s[rng.integers(0, len(den_s))]
                    dt = den_t[rng.integers(0, len(den_t))]
                    g = (sec_s.reps[i] @ ds.astype(np.int64)) % self.p
                    h = (sec_t.reps[j] @ dt.astype(np.int64)) % self.p
                    try:
                        got = target.coordinatize(commutator(g, h, self.p))
                    except ValueError:
                        got = None
                    if got is None or not np.array_equal(got, want):
                        bad.append(("well_defined", s, t, i, j))
        return bad

