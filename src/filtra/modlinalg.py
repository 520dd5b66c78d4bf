"""Exact linear algebra over Z_p, for primes p up to MAX_PRIME = 65521.

Matrices are numpy int64 arrays with entries reduced into [0, p).  Every
result is exact: pivoting uses modular inverses, and the float64 products
below never leave the integers float64 holds.  Row spaces are kept in
reduced row echelon form, which makes subspace equality a plain array
comparison.  Below MAX_PRIME, the largest prime under 2**16, an entry
product is below 2**32, so any int64 sum of fewer than 2**31 such products
is exact; `check_prime` and `rref` refuse larger moduli.

Systems come at entry width.  `filtra.bimap` builds each coefficient
system in place in the narrowest unsigned dtype that holds p - 1
(`_entry_dtype`: uint8 up to p = 256, uint16 up to MAX_PRIME), and `rref`
and `nullspace` take an unsigned array as it is once one max shows every
entry below p; any other input is read as int64 and reduced.  The
derivation system of H(F_{2^k}) has 4k^3 rows over 9k^2 unknowns, 36k^5
entries, so on large tensors it sets peak memory: in a fresh interpreter
the F_256 solve raises peak RSS by 5.7 MB, against 17.8 MB when it was
built from concatenated int64 blocks, and the F_{2^12} solve by 27 MB,
against 136 MB.

One elimination kernel, `rref`, carries everything else.  It returns the
rank rows alone, len(pivots) of them, which every caller keeps as they
are.  At p = 2 it works on bit-packed rows (`_rref2`; Albrecht, Bard and
Hart, "Algorithm 898", ACM TOMS 37, 2010).  Each row is packed once into a
Python int, bit c for column c (`np.packbits` little-endian, from
contiguous uint8 rows, then `int.from_bytes`), and is reduced against the
rows kept so far, keyed by their pivot bits.  A kept
row's pivot is its lowest bit, so the XOR for the lowest pivot a row hits
clears that bit and touches only higher columns: a row costs one XOR per
pivot it hits, where a column-by-column kernel pays several numpy calls per
pivot whatever the density.  A row left nonzero is kept under its lowest
bit.  Back-substitution, highest pivot first, clears each kept row at the
higher pivots, and only the kept rows unpack.

At odd p, `rref` converts its input once into the narrowest unsigned dtype
that holds (p - 1) + (p - 1)**2, the largest value a pivot step forms:
uint8 for p <= 13, uint16 for p <= 251 and uint32 up to MAX_PRIME.  Per
pivot it skips the all-zero columns in one step, takes the first row with a
nonzero entry, scales it unless the pivot is already 1, and clears the
column on the rows that hit it, restricted to the columns from the pivot on
(the pivot row is zero before it).  A row with entry e at the pivot gains
(p - e) times the pivot row, one broadcast product that keeps every value
unsigned, and is reduced mod p.  The kernel (`_rref_rows`) returns the
pivot rows at its own width, the unpacked bits at p = 2: `rref` widens
them to int64, and `nullspace` widens only the free columns it reads.

Integer arrays are reduced by `_reduce`: at p = 2 by the mask `& 1`,
which two's complement makes exact on negative values too, at a fraction
of the cost of `% 2`.  `_dot` is the library's product of two matrices or
stacks mod p, for the group layer and the ring layer alike, and the one
place that chooses its kernel (Dumas, Giorgi and Pernet, "FFPACK", ACM
TOMS 35, 2008).  A product of at least _BLAS_MIN_WORK multiply-adds runs
in float64, where numpy hands it to BLAS (int64 `@` runs numpy's own
loops), and is reduced after; a smaller one runs in int64, where the casts
would cost more than BLAS saves.  The int64 path casts its operands, so
the uint8 power tables of `filtra.group` cannot overflow.  With entries in
[-(p - 1), p - 1] each term is at most (p - 1)**2, and float64 holds every
integer up to 2**53, so a sum of up to 2**53 // (p - 1)**2 terms is exact
in any order: 2**53 at p = 2, about 2**21 at MAX_PRIME.  A longer inner
dimension is split into chunks that long.

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

A null space takes one elimination.  `nullspace` runs `rref` on a with
its columns reversed, where every pivot row is zero before its pivot: each
free column is a combination of the pivot columns before it, which in a's
order are the pivot columns after it.  So the null vector of free column f
is 1 at f, 0 at the other free columns, and nonzero elsewhere only at
pivot columns right of f.  Each vector leads with a 1 at its own free
column and is zero at the others' leading columns, so together they are
the rref basis of the null space, which is unique.
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


# Multiply-adds below which `_dot` stays in int64 `@`: there the float64
# casts cost more than BLAS saves.  Timed product by product on one pass of
# each benchmark workload, any bound from 2,000 to 10,000 came within 3% of
# the best choice made call by call.
_BLAS_MIN_WORK = 4096


def _dot(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, as int64, for b of at least two dimensions and entries
    in [-(p - 1), p - 1].

    A product of fewer than _BLAS_MIN_WORK multiply-adds (counted without
    broadcasting, so a stack times a stack counts its larger side) runs in
    int64, exact below MAX_PRIME, with its operands cast to int64.  A
    larger one runs through float64 `@` (BLAS).  Each term of a dot product
    is at most (p - 1)**2 in size and float64 holds every integer up to
    2**53, so a sum of at most 2**53 // (p - 1)**2 terms is exact in any
    order: 2**53 at p = 2, about 2**21 at MAX_PRIME.  A longer inner
    dimension is split into chunks of that many terms, each reduced before
    they are added."""
    if a.size * b.shape[-1] < _BLAS_MIN_WORK > b.size * (a.shape[-2] if a.ndim > 1 else 1):
        return _reduce(np.matmul(a, b, dtype=np.int64), p)
    step = (1 << 53) // (p - 1) ** 2
    k = a.shape[-1]
    if k <= step:
        return _reduce((a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64), p)
    return _reduce(sum(_dot(a[..., i:i + step], b[..., i:i + step, :], p)
                       for i in range(0, k, step)), p)


def as_array(entries, p: int) -> np.ndarray:
    return _reduce(np.asarray(entries, dtype=np.int64), p)


def inv_mod(x: int, p: int) -> int:
    return pow(int(x) % p, p - 2, p)


@functools.cache
def _entry_dtype(p: int) -> type:
    """Narrowest unsigned dtype that holds p - 1: uint8 for p <= 256,
    uint16 up to MAX_PRIME.  Coefficient systems are built at this width
    and handed to `rref` and `nullspace` as they are."""
    _check_bound(p)
    return np.min_scalar_type(p - 1).type


@functools.cache
def _work_dtype(p: int) -> type:
    """Narrowest unsigned dtype that holds (p - 1) + (p - 1)**2, the largest
    value one pivot step of `rref` forms before it reduces."""
    _check_bound(p)
    return np.min_scalar_type((p - 1) * p).type


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """The rref basis of the row space of a over Z_p, and its pivots.

    The basis is a fresh len(pivots) x cols int64 array: the rank rows, with
    no zero rows after them.  An unsigned array is read at its own width,
    and reduced only when an entry is p or more; any other input is read as
    int64."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionMismatch("rref expects a 2-d array")
    basis, pivots = _rref_rows(a, p)
    return basis.astype(np.int64), pivots


def _rref_rows(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """`rref` of a 2-d array, with the rank rows at the kernel's own width:
    unsigned `_work_dtype(p)` at odd p, the unpacked uint8 bits at p = 2.
    Entries are in [0, p); a caller widens what it reads."""
    # Most inputs are reduced already, and a mod costs about ten times the
    # range check.  Negative int64 entries read as huge in the uint64 view,
    # so one max checks both ends.
    if a.dtype.kind == "u":
        if a.size and a.max() >= p:
            a = a % p
    else:
        a = np.asarray(a, dtype=np.int64)
        if a.size and a.view(np.uint64).max() >= p:
            a = _reduce(a, p)
    if p == 2:
        return _rref2(a)
    t = _work_dtype(p)
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
            sub = m[hit, c:]
            m[hit, c:] = (sub + (q - sub[:, :1]) * m[r, c:]) % q
        pivots.append(c)
        r += 1
        c += 1
    return m[:len(pivots)], pivots


def _rref2(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """`_rref_rows` over GF(2) of a 0/1 integer array, on rows packed into
    Python ints (bit c is column c).

    A row is reduced by the kept rows at the pivots it hits, lowest first;
    a kept row's pivot is its lowest bit, so each XOR clears one pivot bit
    and touches only higher columns.  A row left nonzero is kept under its
    lowest bit.  Back-substitution then clears every kept row at the higher
    pivots, highest pivot first, when the rows it XORs in are reduced
    already: one XOR per pivot bit the row holds.  Only kept rows unpack."""
    rows, cols = a.shape
    # packbits runs several times faster on contiguous rows than on the
    # column-reversed view `nullspace` passes; the copy is a byte an entry
    packed = np.packbits(np.ascontiguousarray(a, dtype=np.uint8), axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    kept: dict[int, int] = {}   # pivot bit (1 << c) -> row
    mask = 0                    # every pivot bit
    for i in range(rows):
        x = int.from_bytes(data[i * width:(i + 1) * width], "little")
        hits = x & mask
        while hits:
            x ^= kept[hits & -hits]
            hits = x & mask
        if x:
            low = x & -x
            kept[low] = x
            mask |= low
            if len(kept) == cols:
                break
    lows = sorted(kept)
    for low in reversed(lows):
        x = kept[low]
        hits = x & mask ^ low
        while hits:
            bit = hits & -hits
            x ^= kept[bit]
            hits ^= bit
        kept[low] = x
    bits = np.frombuffer(b"".join(kept[low].to_bytes(width, "little") for low in lows),
                         dtype=np.uint8).reshape(len(lows), width)
    return (np.unpackbits(bits, axis=1, count=cols, bitorder="little"),
            [low.bit_length() - 1 for low in lows])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis (as rows, in rref) of {x : a @ x = 0} over Z_p.

    One `rref`, of a with its columns reversed; the null vectors read off
    it, one per free column in increasing order, are the rref basis already
    (module docstring).  Takes what `rref` takes.  Only the free columns of
    the rank rows are read, so only they are widened to int64."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionMismatch("nullspace expects a 2-d array")
    n = a.shape[1]
    r, pivots = _rref_rows(a[:, ::-1], p)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)[::-1]
    basis = np.zeros((free.size, n), dtype=np.int64)
    basis[:, n - 1 - free] = np.eye(free.size, dtype=np.int64)
    basis[:, [n - 1 - c for c in pivots]] = _reduce(-r[:, free].astype(np.int64).T, p)
    return basis


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
            self.basis, self.pivots = rref(v, p)
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
        old = _reduce(self.basis - _dot(self.basis[:, pivots], fresh, self.p), self.p)
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
        return _reduce(v - _dot(v[..., self.pivots], self.basis, self.p), self.p)

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
