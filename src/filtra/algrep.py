"""Matrix algebras over Z_p: closure, module splitting, Jacobson radical.

Modules are row vectors with matrices acting on the right.  The radical
of an algebra A <= M_n is computed from the natural module Z_p^n: split
it into composition factors with a spin-and-split meataxe, certify each
factor irreducible, and intersect the annihilators of the factors.
Since the natural module is faithful, the common annihilator is a
nilpotent ideal containing every nilpotent ideal, which is exactly the
radical.  Everything is re-checkable: certificates replay, the ideal
property and nilpotency are verified directly, and the quotient by the
radical can be re-tested for semisimplicity through its regular
representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .errors import ClosureViolation, FiltraError
from .modlinalg import Subspace, check_prime, inv_matrix, nullspace, rref

ENUM_LIMIT = 4096
# int64 entries per block of matrix products (8 MB): the products of a
# d-dimensional algebra of n x n matrices number d^2 n^2 entries, which for
# the full adjoint ring of a zero bimap on Z_p^12 is already 48 million
PRODUCT_BLOCK = 1 << 20


class MatAlgebra:
    """Span-closed algebra of n x n matrices, basis kept in rref form."""

    def __init__(self, p: int, n: int, space: Subspace, check: bool = True):
        check_prime(p)
        self.p = p
        self.n = n
        if space.n != n * n:
            raise ValueError("subspace width must be n^2")
        self.space = space
        self.mats = [row.reshape(n, n) for row in space.basis]
        if check and not self._closed():
            raise ClosureViolation("matrix span is not multiplicatively closed")

    def _closed(self) -> bool:
        basis = self.space.basis
        return not any(self.space.residues(block).any()
                       for block in _products(basis, basis, self.n, self.p))

    @property
    def dim(self) -> int:
        return self.space.dim

    def is_unital(self) -> bool:
        return self.space.contains(np.eye(self.n, dtype=np.int64).reshape(-1))

    def coords_of(self, mat: np.ndarray) -> np.ndarray:
        """Coefficients over the rref basis; pivots make this a read-off.
        A stack of matrices gives one coefficient row per matrix."""
        mat = np.asarray(mat, dtype=np.int64)
        flat = mat.reshape(mat.shape[:-2] + (self.n * self.n,))
        if self.space.residues(flat).any():
            raise ValueError("matrix is not in the algebra")
        return np.mod(flat[..., self.space.pivots], self.p)

    def contains_mat(self, mat) -> bool:
        return self.space.contains(np.mod(np.asarray(mat, dtype=np.int64).reshape(-1), self.p))


def _products(xs: np.ndarray, ys: np.ndarray, n: int, p: int):
    """Yield every product x @ y of n x n matrices given as flat rows, as
    flat rows (x major), in blocks of whole x rows of at most PRODUCT_BLOCK
    entries where possible.  There is always at least one block (empty when
    xs is), so the blocks can be stacked."""
    ys = ys.reshape(1, -1, n, n)
    step = max(1, PRODUCT_BLOCK // max(1, ys.size))
    for i in range(0, max(1, xs.shape[0]), step):
        yield (xs[i:i + step].reshape(-1, 1, n, n) @ ys).reshape(-1, n * n) % p


def algebra_closure(mats, p: int, n: int, unital: bool = False) -> MatAlgebra:
    """Smallest span-closed algebra containing the given matrices."""
    vecs = [np.mod(np.asarray(m, dtype=np.int64), p).reshape(-1) for m in mats]
    if unital:
        vecs.append(np.eye(n, dtype=np.int64).reshape(-1))
    space = Subspace(p, n * n, vecs)
    while True:
        new = np.vstack([r[r.any(axis=1)] for r in
                         map(space.residues, _products(space.basis, space.basis, n, p))])
        if not new.shape[0]:
            return MatAlgebra(p, n, space, check=False)
        space = Subspace(p, n * n, np.vstack([space.basis, new]))


def spin(v: np.ndarray, mats: list[np.ndarray], p: int) -> np.ndarray:
    """Rref basis of the submodule generated by the row vector v.

    Each round reduces the whole frontier against the running basis at
    once, adds only the new directions, and applies the generators to
    those alone to form the next frontier."""
    front = np.mod(np.asarray(v, dtype=np.int64), p).reshape(1, -1)
    n = front.shape[1]
    gens = np.asarray(mats, dtype=np.int64).reshape(-1, n, n)
    space = Subspace(p, n)
    while True:
        fresh = Subspace(p, n, space.residues(front)).basis
        if not fresh.shape[0]:
            return space.basis
        space = Subspace(p, n, np.vstack([space.basis, fresh]))
        front = (fresh @ gens).reshape(-1, n) % p


def _null_vectors(a: np.ndarray, p: int) -> tuple[np.ndarray, bool]:
    """Row vectors v with v a = 0, and whether the list is exhaustive."""
    basis = nullspace(a.T, p)
    d = basis.shape[0]
    if d == 0:
        return np.zeros((0, a.shape[0]), dtype=np.int64), True
    if p ** d <= ENUM_LIMIT:
        combos = np.array(list(iproduct(range(p), repeat=d)), dtype=np.int64)[1:]
        return (combos @ basis) % p, True
    return basis, False


@dataclass
class FactorData:
    dim: int
    action: list[np.ndarray]
    certificate: tuple


def try_split(mats: list[np.ndarray], p: int, n: int,
              rng: np.random.Generator) -> tuple[str, object]:
    """Find a proper nonzero submodule of Z_p^n or certify irreducibility.

    The certificate is either ("norton", a): a in the algebra whose null
    vectors all spin to the full space while some transpose null vector
    spins the transpose module to the full space; or ("allvec",): every
    nonzero vector of the module spins full (checked exhaustively).
    """
    if n == 1:
        return "irr", ("allvec",)
    for i in range(n):
        e = np.zeros(n, dtype=np.int64)
        e[i] = 1
        sub = spin(e, mats, p)
        if 0 < sub.shape[0] < n:
            return "sub", sub
    tmats = [m.T.copy() for m in mats]
    candidates = list(mats)
    for _ in range(40):
        coeffs = rng.integers(0, p, len(mats))
        cand = np.zeros((n, n), dtype=np.int64)
        for c, m in zip(coeffs, mats):
            cand = (cand + int(c) * m) % p
        candidates.append(cand)
        if len(mats) >= 2:
            i, j = rng.integers(0, len(mats), 2)
            candidates.append((mats[int(i)] @ mats[int(j)]) % p)
    for a in candidates:
        vs, complete = _null_vectors(a, p)
        if vs.shape[0] == 0:
            continue
        for v in vs:
            sub = spin(v, mats, p)
            if sub.shape[0] < n:
                return "sub", sub
        if not complete:
            continue
        wt, _ = _null_vectors(a.T, p)
        dual = spin(wt[0], tmats, p)
        if dual.shape[0] < n:
            perp = nullspace(dual, p)
            if 0 < perp.shape[0] < n:
                return "sub", perp
            continue
        return "irr", ("norton", a.copy())
    if p ** n <= ENUM_LIMIT:
        combos = np.array(list(iproduct(range(p), repeat=n)), dtype=np.int64)[1:]
        for v in combos:
            sub = spin(v, mats, p)
            if sub.shape[0] < n:
                return "sub", sub
        return "irr", ("allvec",)
    raise FiltraError(
        f"cannot certify a dimension {n} module over Z_{p}: no usable singular "
        "element found and exhaustive search is out of reach")


def check_certificate(factor: FactorData, p: int) -> bool:
    """Replay an irreducibility certificate against the factor action."""
    n = factor.dim
    kind = factor.certificate[0]
    if kind == "allvec":
        if p ** n > ENUM_LIMIT:
            return False
        combos = np.array(list(iproduct(range(p), repeat=n)), dtype=np.int64)[1:]
        return all(spin(v, factor.action, p).shape[0] == n for v in combos)
    a = factor.certificate[1]
    vs, complete = _null_vectors(a, p)
    if vs.shape[0] == 0 or not complete:
        return False
    if any(spin(v, factor.action, p).shape[0] != n for v in vs):
        return False
    wt, _ = _null_vectors(a.T, p)
    tmats = [m.T.copy() for m in factor.action]
    return spin(wt[0], tmats, p).shape[0] == n


def _basis_complement(w: np.ndarray, n: int, p: int) -> np.ndarray:
    """Invertible matrix whose first rows are the rref rows of w."""
    wr, pivots = rref(w, p)
    wr = wr[: len(pivots)]
    extra = [np.eye(n, dtype=np.int64)[j] for j in range(n) if j not in pivots]
    return np.vstack([wr] + [e.reshape(1, -1) for e in extra])


def composition_factors(mats: list[np.ndarray], p: int, n: int,
                        rng: np.random.Generator) -> list[FactorData]:
    """Factors of the natural module, each carrying the images of the
    original algebra basis (same coefficients throughout)."""
    if n == 0:
        return []
    verdict, data = try_split(mats, p, n, rng)
    if verdict == "irr":
        return [FactorData(n, [m.copy() for m in mats], data)]
    w = np.asarray(data, dtype=np.int64)
    k = w.shape[0]
    t = _basis_complement(w, n, p)
    tinv = inv_matrix(t, p)
    conj = [(t @ m @ tinv) % p for m in mats]
    for c in conj:
        if c[:k, k:].any():
            raise ClosureViolation("submodule is not invariant after base change")
    sub = [c[:k, :k].copy() for c in conj]
    quo = [c[k:, k:].copy() for c in conj]
    return (composition_factors(sub, p, k, rng)
            + composition_factors(quo, p, n - k, rng))


@dataclass
class RadicalData:
    coeff_space: Subspace
    mats: list[np.ndarray]
    chain: list[Subspace]
    factors: list[FactorData]

    @property
    def dim(self) -> int:
        return self.coeff_space.dim

    def chain_dims(self) -> list[int]:
        return [s.dim for s in self.chain]

    @property
    def nilpotency_index(self) -> int:
        return len(self.chain) + 1


def jacobson_radical(alg: MatAlgebra, rng: np.random.Generator | None = None) -> RadicalData:
    rng = rng or np.random.default_rng(0)
    k = alg.dim
    if k == 0:
        return RadicalData(Subspace(alg.p, 0, []), [], [], [])
    factors = composition_factors(alg.mats, alg.p, alg.n, rng)
    rows = [np.stack([m.reshape(-1) for m in f.action], axis=0) for f in factors]
    stacked = np.concatenate(rows, axis=1)
    coeff = Subspace(alg.p, k, nullspace(stacked.T, alg.p))
    basis_flat = np.stack([m.reshape(-1) for m in alg.mats])
    mats = [((row @ basis_flat) % alg.p).reshape(alg.n, alg.n) for row in coeff.basis]
    chain = radical_chain(mats, alg.p, alg.n)
    return RadicalData(coeff, mats, chain, factors)


def radical_chain(jmats: list[np.ndarray], p: int, n: int) -> list[Subspace]:
    """[J, J^2, ...] down to but excluding zero."""
    if not jmats:
        return []
    j = Subspace(p, n * n, [m.reshape(-1) for m in jmats])
    chain = [j]
    cur = j
    while True:
        nxt = Subspace(p, n * n, np.vstack(list(_products(cur.basis, j.basis, n, p))))
        if nxt.dim == 0:
            return chain
        if nxt.dim >= cur.dim:
            raise FiltraError("radical chain failed to descend; annihilator is not nilpotent")
        chain.append(nxt)
        cur = nxt


def verify_radical(alg: MatAlgebra, rad: RadicalData) -> list[tuple]:
    """Ideal property, nilpotency, certified factors, semisimple quotient."""
    n, p = alg.n, alg.p
    jspace = rad.chain[0] if rad.chain else Subspace(p, n * n, [])
    xs = np.asarray(rad.mats, dtype=np.int64).reshape(-1, n * n)
    # a @ x and x @ a for every basis element a and radical element x
    sides = (_products(alg.space.basis, xs, n, p), _products(xs, alg.space.basis, n, p))
    outside = sum(int(jspace.residues(b).any(axis=1).sum()) for side in sides for b in side)
    bad: list[tuple] = [("not_ideal",)] * outside
    if rad.chain:
        last = _products(rad.chain[-1].basis, jspace.basis, n, p)
        bad += [("not_nilpotent",)] * sum(int(b.any(axis=1).sum()) for b in last)
    for f in rad.factors:
        if not check_certificate(f, alg.p):
            bad.append(("bad_certificate", f.dim))
    q = quotient_regular_rep(alg, rad)
    if q is not None:
        qrad = jacobson_radical(q)
        if qrad.dim != 0:
            bad.append(("quotient_not_semisimple", qrad.dim))
    return bad


def quotient_regular_rep(alg: MatAlgebra, rad: RadicalData) -> MatAlgebra | None:
    """A/J as a matrix algebra via its right regular representation.

    Requires a unital algebra (the representation is faithful there);
    returns None for dimension zero quotients of the zero algebra.
    """
    if not alg.is_unital():
        raise FiltraError("quotient representation needs a unital algebra")
    jc = rad.coeff_space
    pivots = set(jc.pivots)
    rep_idx = [i for i in range(alg.dim) if i not in pivots]
    m = len(rep_idx)
    if m == 0:
        return None
    n = alg.n
    reps = alg.space.basis[rep_idx]
    coeffs = np.vstack([alg.coords_of(b.reshape(-1, n, n))
                        for b in _products(reps, reps, n, alg.p)])
    # coeffs[j * m + i] are the coordinates of rep_j @ rep_i, which is row j
    # of the right action of rep_i
    actions = jc.residues(coeffs)[:, rep_idx].reshape(m, m, m).transpose(1, 0, 2)
    return MatAlgebra(alg.p, m, Subspace(alg.p, m * m, actions.reshape(m, m * m)), check=True)


def module_image(space_basis: np.ndarray, mats: list[np.ndarray], p: int, n: int) -> Subspace:
    """Span of u M over u in the row space and M in the list."""
    rows = []
    for m in mats:
        if space_basis.shape[0]:
            rows.extend((space_basis @ m) % p)
    return Subspace(p, n, rows)


def embed_adjoint_pairs(members, p: int) -> list[np.ndarray]:
    """(X, Y) -> diag(X, Y^t): turns the adjoint product (X X', Y' Y)
    into plain matrix multiplication."""
    out = []
    for x, y in members:
        a, b = x.shape[0], y.shape[0]
        m = np.zeros((a + b, a + b), dtype=np.int64)
        m[:a, :a] = x
        m[a:, a:] = y.T
        out.append(m % p)
    return out


def embed_centroid_triples(members, p: int) -> list[np.ndarray]:
    out = []
    for x, y, z in members:
        a, b, c = x.shape[0], y.shape[0], z.shape[0]
        m = np.zeros((a + b + c, a + b + c), dtype=np.int64)
        m[:a, :a] = x
        m[a:a + b, a:a + b] = y
        m[a + b:, a + b:] = z
        out.append(m % p)
    return out
