"""Finite commutative Z_p-algebras given by structure constants.

Elements are coordinate row vectors over Z_p.  The ring acts on itself by
multiplication, and by commutativity the slice table[i] is the matrix
`mult_matrix(e_i)` of that action.  So the slices generate the regular
representation as a matrix algebra, whose radical powers are those of the
ring: `radical_chain` takes them from `filtra.algrep.jacobson_radical`,
the one radical routine of the library, and reads each matrix M_x back as
the ring element x = 1 M_x.
"""

from __future__ import annotations

import numpy as np

from .algrep import algebra_closure, jacobson_radical
from .errors import ClosureViolation, DimensionMismatch
from .modlinalg import Subspace, _dot, as_array, check_prime


class FinCommRing:
    """Unital commutative ring on Z_p^dim with structure tensor c[i][j] -> vector."""

    def __init__(self, p: int, table: np.ndarray, unit, name: str = ""):
        check_prime(p)
        self.p = p
        t = as_array(table, p)
        if t.ndim != 3 or t.shape[0] != t.shape[1] or t.shape[1] != t.shape[2]:
            raise DimensionMismatch("structure table must be dim x dim x dim")
        self.dim = t.shape[0]
        self.table = t
        self.unit = as_array(unit, p).reshape(-1)
        if self.unit.shape[0] != self.dim:
            raise DimensionMismatch("unit vector has wrong length")
        self.name = name
        self._check()

    def _check(self) -> None:
        """Commutativity, associativity and the unit, on basis elements.

        A table in the power basis of some Z_p[x]/(f) (`_is_power_basis`)
        is associative as it stands, which takes O(d^3) to see.  Any other
        table is checked one basis element e_i at a time, in O(d^5):
        (e_i e_j) e_k against e_i (e_j e_k) for all j, k at once."""
        d, p, t = self.dim, self.p, self.table
        if not np.array_equal(t, t.transpose(1, 0, 2)):
            raise ClosureViolation("multiplication is not commutative")
        if not _is_power_basis(t, p):
            for i in range(d):
                left = np.einsum("jm,mkl->jkl", t[i], t) % p
                right = np.einsum("jkm,ml->jkl", t, t[i]) % p
                bad = np.argwhere((left != right).any(axis=2))
                if bad.size:
                    j, k = bad[0]
                    raise ClosureViolation(f"associativity fails at basis ({i},{j},{k})")
        if not np.array_equal(self.mult_matrix(self.unit), np.eye(d, dtype=np.int64)):
            raise ClosureViolation("designated unit does not act as identity")

    def mult_matrix(self, x) -> np.ndarray:
        """Matrix M with coords(y*x) = coords(y) @ M for row vectors y."""
        x = as_array(x, self.p).reshape(-1)
        return (np.einsum("j,ijk->ik", x, self.table)) % self.p

    def radical_chain(self) -> list[Subspace]:
        """[J, J^2, ...] down to (and excluding) zero."""
        alg = algebra_closure(self.table, self.p, self.dim, unital=True)
        return [Subspace(self.p, self.dim,
                         _dot(self.unit, level.basis.reshape(-1, self.dim, self.dim), self.p))
                for level in jacobson_radical(alg).chain]

    def __repr__(self):
        return f"FinCommRing({self.name or 'R'}, p={self.p}, dim={self.dim})"


def _is_power_basis(t: np.ndarray, p: int) -> bool:
    """Whether t is the table of Z_p[x]/(f) in the basis 1, x, ..., x^(d-1),
    for f = x^d - s_d: e_i e_j = s_(i+j) where s_0 = 1 and s_(k+1) is
    x s_k mod f, i.e. s_k shifted up one place plus its top entry times
    s_d.  The s_k are read off the first row and the last column."""
    d = t.shape[0]
    s = np.concatenate([t[0], t[1:, -1]])
    shifted = np.zeros_like(s[:-1])
    shifted[:, 1:] = s[:-1, :-1]
    s_d = t[min(1, d - 1), -1]   # the recurrence is empty when d = 1
    return (s[0, 0] == 1 and not s[0, 1:].any()
            and np.array_equal(s[1:], (shifted + np.outer(s[:-1, -1], s_d)) % p)
            and np.array_equal(t, s[np.add.outer(np.arange(d), np.arange(d))]))


def make_poly_quotient(p: int, coeffs) -> FinCommRing:
    """Z_p[x]/(f) with f = sum coeffs[i] x^i, monic (last coefficient 1)."""
    check_prime(p)
    c = [int(x) % p for x in coeffs]
    if len(c) < 2 or c[-1] != 1:
        raise ValueError("f must be monic of degree >= 1 (ascending coefficients, leading 1)")
    deg = len(c) - 1
    # x^deg = -(c0 + c1 x + ... + c_{deg-1} x^{deg-1})
    powers = [np.zeros(deg, dtype=np.int64) for _ in range(2 * deg - 1)]
    for k in range(deg):
        powers[k][k] = 1
    for k in range(deg, 2 * deg - 1):
        prev = powers[k - 1]
        shifted = np.zeros(deg, dtype=np.int64)
        shifted[1:] = prev[:-1]
        shifted = (shifted + prev[-1] * np.array([(-x) % p for x in c[:deg]])) % p
        powers[k] = shifted
    table = np.zeros((deg, deg, deg), dtype=np.int64)
    for i in range(deg):
        for j in range(deg):
            table[i, j] = powers[i + j]
    unit = np.zeros(deg, dtype=np.int64)
    unit[0] = 1
    fstr = "+".join(f"{ci}x^{i}" for i, ci in enumerate(c) if ci) or "0"
    return FinCommRing(p, table, unit, name=f"F{p}[x]/({fstr})")


def make_r_circ(p: int, v_dim: int, w_dim: int, circ) -> FinCommRing:
    """The ring Z_p + V + W with V*V -> W given by a symmetric tensor.

    (s,v,w)(s',v',w') = (ss', sv'+s'v, sw'+s'w+v*v'); the radical is V+W
    and squares to the span of the circ products.
    """
    check_prime(p)
    t = as_array(circ, p)
    if t.shape != (v_dim, v_dim, w_dim):
        raise DimensionMismatch("circ tensor must be v_dim x v_dim x w_dim")
    if not np.array_equal(t, t.transpose(1, 0, 2)):
        raise ValueError("circ must be symmetric")
    if not t.any():
        raise ValueError("circ must be nontrivial")
    dim = 1 + v_dim + w_dim
    table = np.zeros((dim, dim, dim), dtype=np.int64)
    table[0, 0, 0] = 1
    for i in range(v_dim):
        table[0, 1 + i, 1 + i] = 1
        table[1 + i, 0, 1 + i] = 1
    for j in range(w_dim):
        table[0, 1 + v_dim + j, 1 + v_dim + j] = 1
        table[1 + v_dim + j, 0, 1 + v_dim + j] = 1
    for i in range(v_dim):
        for j in range(v_dim):
            table[1 + i, 1 + j, 1 + v_dim:] = t[i, j]
    unit = np.zeros(dim, dtype=np.int64)
    unit[0] = 1
    return FinCommRing(p, table, unit, name=f"R(circ,{v_dim},{w_dim})")

