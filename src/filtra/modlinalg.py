"""Exact linear algebra over Z_p, for primes p up to MAX_PRIME = 65521.

Matrices are numpy int64 arrays with entries reduced into [0, p).  No
floats anywhere: pivoting uses modular inverses, so every result is
exact.  Row spaces are kept in reduced row echelon form, which makes
subspace equality a plain array comparison.  Below MAX_PRIME, the largest
prime under 2**16, an entry product is below 2**32, so any int64 sum of
fewer than 2**31 such products is exact; `check_prime` and `rref` refuse
larger moduli.

One elimination kernel, `rref`, carries everything else.  It reduces its
input once into the narrowest unsigned dtype that holds (p - 1) +
(p - 1)**2, the largest value a pivot step forms: uint8 for p <= 13,
uint16 for p <= 251 and uint32 up to MAX_PRIME.  Per pivot it skips the
all-zero columns in one step, takes the first row with a nonzero entry,
scales it unless the pivot is already 1, and clears the column on the
rows that hit it, restricted to the columns from the pivot on (the pivot
row is zero before it).  At p = 2 the pivot is 1 and clearing is a row XOR
(`m[hit, c:] ^= row`), as in dense elimination over GF(2) (Albrecht and
Pernet, arXiv:1006.1744).  At odd p a row with entry e at the pivot gains
(p - e) times the pivot row, one broadcast product that keeps every value
unsigned, and is reduced mod p.  The result is widened back to int64
once, at the end.

Products of int64 matrices are reduced by `_reduce`: at p = 2 by the mask
`& 1`, which two's complement makes exact on negative values too, at a
fraction of the cost of `% 2`.  `as_array`, `Subspace.residues`,
`Subspace.extend`, the algebra products and spins of `filtra.algrep`, and
every group product of `filtra.group` (`batch_mul`, `batch_inv`, sifting,
powers, coordinate changes, `Subgroup.elements`, `SectionBasis.lift`)
reduce through it.

Membership is a read-off.  An rref basis has a unit at its own pivot and
zeros at every other pivot, so the coefficient of basis row i in a
vector v of the span is v[pivots[i]], and the residue of any v is
v - v[pivots] @ basis (mod p): zero exactly when v is in the span.  This
is one product for a whole batch of vectors, and it equals the
row-by-row elimination it replaces.

Growing a space does not re-eliminate it.  `Subspace.extend` takes the
residues of the new rows, which vanish at the old pivots, and runs
`rref` on the nonzero ones alone: their pivots avoid the old ones.  One
product clears the old rows at the new pivots, and merging the two row
sets by pivot gives the rref basis of the sum, the same canonical basis
as eliminating everything at once.  A canonical basis such as a
`nullspace` result is adopted as it is (`Subspace.adopt`).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatch

# The largest prime below 2**16: the int64 and uint32 bounds of the module
# docstring hold for every p up to it.
MAX_PRIME = 65521


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _check_bound(p: int) -> None:
    if p > MAX_PRIME:
        raise ValueError(f"modulus {p} is above MAX_PRIME = {MAX_PRIME}")


def check_prime(p: int) -> None:
    _check_bound(p)
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def _reduce(a: np.ndarray, p: int) -> np.ndarray:
    """a % p for an int64 array; the mask `& 1` at p = 2."""
    return a & 1 if p == 2 else a % p


def as_array(entries, p: int) -> np.ndarray:
    return _reduce(np.asarray(entries, dtype=np.int64), p)


def inv_mod(x: int, p: int) -> int:
    return pow(int(x) % p, p - 2, p)


@functools.cache
def _work_dtype(p: int) -> type:
    """Narrowest unsigned dtype that holds (p - 1) + (p - 1)**2, the largest
    value one pivot step of `rref` forms before it reduces."""
    _check_bound(p)
    return np.min_scalar_type((p - 1) * p).type


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns of a over Z_p."""
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise DimensionMismatch("rref expects a 2-d array")
    t = _work_dtype(p)
    # Most inputs are reduced already, and an int64 mod costs about ten
    # times the range check.  Negative entries read as huge in the uint64
    # view, so one max checks both ends.
    if a.size and a.view(np.uint64).max() >= p:
        a = _reduce(a, p)
    m = a.astype(t)
    q = t(p)
    rows, cols = m.shape
    pivots: list[int] = []
    r = c = 0
    while r < rows and c < cols:
        below = m[r:, c].nonzero()[0]
        if below.size == 0:
            live = np.flatnonzero(m[r:, c:].any(axis=0))
            if live.size == 0:
                break
            c += int(live[0])
            below = m[r:, c].nonzero()[0]
        sel = r + int(below[0])
        if sel != r:
            m[[r, sel]] = m[[sel, r]]
        if m[r, c] != 1:
            m[r, c:] = m[r, c:] * t(inv_mod(m[r, c], p)) % q
        hit = m[:, c].nonzero()[0]
        hit = hit[hit != r]
        if hit.size:
            row = m[r, c:]
            if p == 2:
                m[hit, c:] ^= row
            else:
                sub = m[hit, c:]
                m[hit, c:] = (sub + (q - sub[:, :1]) * row) % q
        pivots.append(c)
        r += 1
        c += 1
    return m.astype(np.int64), pivots


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis (as rows, in rref) of {x : a @ x = 0} over Z_p."""
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise DimensionMismatch("nullspace expects a 2-d array")
    r, pivots = rref(a, p)
    is_free = np.ones(a.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, a.shape[1]), dtype=np.int64)
    basis[:, free] = np.eye(free.size, dtype=np.int64)
    basis[:, pivots] = (-r[: len(pivots), free].T) % p
    return rref(basis, p)[0]


class Subspace:
    """A subspace of Z_p^n stored as an rref row basis (canonical)."""

    def __init__(self, p: int, n: int, vectors=None):
        check_prime(p)
        self.p = p
        self.n = n
        if vectors is None or len(vectors) == 0:
            self.basis = np.zeros((0, n), dtype=np.int64)
            self.pivots: list[int] = []
        else:
            v = np.asarray(vectors, dtype=np.int64)
            if v.ndim != 2 or v.shape[1] != n:
                raise DimensionMismatch(f"vectors must be rows of length {n}")
            r, self.pivots = rref(v, p)
            self.basis = r[: len(self.pivots)].copy()
        self.basis.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def extend(self, rows) -> tuple["Subspace", np.ndarray]:
        """The span of the basis and `rows`, and its `fresh` basis rows: the
        rows at the pivots the old basis lacks.  Only the nonzero residues
        of `rows` are eliminated; the old rows are cleared at the new pivots
        with one product.  Returns self when nothing is new."""
        res = self.residues(np.reshape(rows, (-1, self.n)))
        res = res[res.any(axis=1)]
        if not res.shape[0]:
            return self, res
        fresh, pivots = rref(res, self.p)
        fresh = fresh[: len(pivots)]
        old = _reduce(self.basis - self.basis[:, pivots] @ fresh, self.p)
        merged = self.pivots + pivots
        order = np.argsort(merged)
        return (Subspace.adopt(self.p, self.n, np.vstack([old, fresh])[order],
                               [merged[i] for i in order]), fresh)

    @classmethod
    def adopt(cls, p: int, n: int, basis: np.ndarray, pivots=None) -> "Subspace":
        """The span of `basis`, whose rows are a canonical rref basis already,
        kept without a second elimination and made read-only, not copied.
        Unless given, each pivot is read off as its row's first nonzero column."""
        space = object.__new__(cls)
        if pivots is None:
            pivots = (basis != 0).argmax(axis=1).tolist() if basis.size else []
        space.p, space.n, space.pivots, space.basis = p, n, pivots, basis
        basis.setflags(write=False)
        return space

    def contains(self, vec) -> bool:
        return not self.residues(np.reshape(vec, -1)).any()

    def residues(self, rows) -> np.ndarray:
        """Residue of each row (or of one vector) after eliminating along the
        basis: rows - rows[pivots] @ basis.  Members have residue zero."""
        v = as_array(rows, self.p)
        if v.shape[-1] != self.n:
            raise DimensionMismatch(f"vector length {v.shape[-1]}, ambient {self.n}")
        return _reduce(v - v[..., self.pivots] @ self.basis, self.p)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.n == other.n
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self):
        return hash((self.p, self.n, self.basis.tobytes()))

    def __repr__(self):
        return f"Subspace(p={self.p}, n={self.n}, dim={self.dim})"


def inv_matrix(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix over Z_p via rref of [a | I]."""
    a = np.mod(np.asarray(a, dtype=np.int64), p)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise DimensionMismatch("inverse expects a square matrix")
    aug, pivots = rref(np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1), p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular mod p")
    return aug[:, n:]
