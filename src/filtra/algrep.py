"""Matrix algebras over Z_p: closure, module splitting, Jacobson radical.

An algebra is closed from a kept generator set S, not from its whole
basis.  The space starts at span(I) (unital) or 0; each input it does
not yet hold joins S and the space is closed again under right
multiplication by S, semi-naively: the old basis times the new
generator, then only the fresh directions times all of S.  A space that
contains S and is closed under right multiplication by S contains every
word in S, so it is the algebra S generates.  Spaces grow by
`Subspace.extend`, which eliminates only the new rows.  A span is closed
(`MatAlgebra(check=True)`) when the closure of its basis is no larger,
so no d^2 products are formed to check it.

Every action the meataxe sees spans a closed algebra A: `MatAlgebra.mats`,
its images on a submodule or quotient, or their transposes.  So v
generates the submodule span(v, vA), one product and one elimination
(`spin`), and the actions on a split read off at the pivots of its rref
basis (`_split_action`): no complement is built and nothing is inverted.
For a standard basis vector e_i, e_i A is row i of each basis matrix, so
its spin forms no product at all.

Matrix products go through `modlinalg._dot`, which picks int64 or float64
BLAS by size.  `_products` forms the algebra products in blocks of at most
PRODUCT_BLOCK entries, which bounds the float64 temporaries too.

Modules are row vectors with matrices acting on the right.  The radical
of an algebra A <= M_n is computed from the natural module Z_p^n: split
it into composition factors with a meataxe, certify each factor
irreducible, and intersect the annihilators of the factors.  Since the
natural module is faithful, the common annihilator is a nilpotent ideal
containing every nilpotent ideal, which is exactly the radical.

The meataxe (`try_split`) spins the standard basis vectors, then follows
Holt and Rees, "Testing modules for irreducibility" (J. Austral. Math.
Soc. A 57, 1994): it draws random elements b of the algebra and factors
their characteristic polynomials (`filtra.poly`).  When that polynomial
is irreducible of degree n, Z_p[b] is a field over which Z_p^n has
dimension one, so no proper nonzero subspace is invariant under b and the
module is irreducible (Parker's meat-axe, 1984): the draw certifies it
with no null space and no spin.  Otherwise, for an irreducible factor f
with nullity f(b) = deg f, one spin of a null vector of f(b) and one of
f(b)^T either split the module or prove it irreducible.  The
certificate records b by its coefficients over the action, so replay
rebuilds it inside the algebra; a certificate of degree n replays as one
characteristic polynomial.  Modules where no such element exists
(the exceptional cases of Ivanyos and Lux) are not treated: after
MAX_DRAWS draws `try_split` raises `MeataxeExhausted`.

Everything is re-checkable: certificates replay, the ideal property and
nilpotency are verified directly, and the quotient by the radical can be
re-tested for semisimplicity through its regular representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ClosureViolation, FiltraError, MeataxeExhausted
from .modlinalg import Subspace, _dot, as_array, check_prime, nullspace, rref
from .poly import at_matrix, charpoly, degree, factor, is_irreducible, norm

# Random algebra elements `try_split` draws before it gives up.  A draw b
# is good when its characteristic polynomial has an irreducible factor f
# with nullity f(b) = deg f; Holt and Rees show that good elements are
# not rare on an irreducible module.  Even if only one in ten were good,
# 100 draws would all miss with probability below 3e-5.  On one pass of the
# benchmark ring tensors 57 certificates took 60 draws, and 17 of those
# draws had an irreducible characteristic polynomial.
MAX_DRAWS = 100
# Entries per block of matrix products (8 MB in int64, as in float64): the
# products of a d-dimensional algebra of n x n matrices number d^2 n^2
# entries, which for the full adjoint ring of a zero bimap on Z_p^12 is
# already 48 million
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
        """The algebra the basis generates is no larger than its span."""
        return _close(Subspace(self.p, self.n * self.n), self.space.basis, self.n).dim == self.dim

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

def _products(xs: np.ndarray, ys: np.ndarray, n: int, p: int):
    """Yield every product x @ y of n x n matrices given as flat rows, as
    flat rows (x major), in blocks of whole x rows of at most PRODUCT_BLOCK
    entries where possible.  There is always at least one block (empty when
    xs is), so the blocks can be stacked."""
    ys = ys.reshape(1, -1, n, n)
    step = max(1, PRODUCT_BLOCK // max(1, ys.size))
    for i in range(0, max(1, xs.shape[0]), step):
        yield _dot(xs[i:i + step].reshape(-1, 1, n, n), ys, p).reshape(-1, n * n)


def algebra_closure(mats, p: int, n: int, unital: bool = False) -> MatAlgebra:
    """Smallest span-closed algebra containing the given matrices (and I
    when `unital`), closed from the generators it needs (`_close`)."""
    start = np.eye(n, dtype=np.int64).reshape(1, -1) if unital else None
    vecs = np.mod(np.asarray(mats, dtype=np.int64), p).reshape(-1, n * n)
    return MatAlgebra(p, n, _close(Subspace(p, n * n, start), vecs, n), check=False)


def _close(space: Subspace, vecs: np.ndarray, n: int) -> Subspace:
    """Close `space`, which is closed under right multiplication by the
    generators kept so far (none at the start), under the flat n x n
    matrices `vecs` as well.

    One `residues` call over the remaining inputs finds the first one the
    space does not hold; it joins the kept generators S.  Then the old
    basis is multiplied by it, and every direction the space gains, by all
    of S, until no product adds one."""
    p = space.p
    gens = vecs[:0]
    while True:
        outside = np.flatnonzero(space.residues(vecs).any(axis=1))
        if not outside.size:
            return space
        g, vecs = vecs[outside[0]:outside[0] + 1], vecs[outside[0] + 1:]
        gens = np.vstack([gens, g])
        blocks = _products(space.basis, g, n, p)
        space, new = space.extend(g)
        while new.shape[0]:
            fresh = []
            for block in chain(blocks, _products(new, gens, n, p)):
                space, rows = space.extend(block)
                fresh.append(rows)
            blocks, new = (), np.vstack(fresh)


def spin(v: np.ndarray, mats, p: int) -> np.ndarray:
    """Rref basis of the submodule that the row vector v generates.

    `mats`, reduced mod p, must span a closed algebra A; then vA is a
    submodule and the answer is span(v, v @ mats).  For a span that is not closed this lies
    inside the submodule that words in `mats` generate, and can be smaller."""
    v = np.mod(np.asarray(v, dtype=np.int64), p).reshape(1, -1)
    n = v.shape[1]
    images = _dot(v, np.asarray(mats, dtype=np.int64).reshape(-1, n, n), p).reshape(-1, n)
    return rref(np.vstack([v, images]), p)[0]


@dataclass
class FactorData:
    dim: int
    action: list[np.ndarray]
    certificate: tuple


def try_split(mats: list[np.ndarray], p: int, n: int,
              rng: np.random.Generator) -> tuple[str, object]:
    """Find a proper nonzero submodule of Z_p^n or certify irreducibility.

    `mats` must span a closed algebra, as for `spin`.  Returns ("sub", rows)
    with an rref basis of a submodule, or ("irr", certificate).  First each
    standard basis vector is spun.  Then come up to MAX_DRAWS draws of the
    Holt-Rees test: a random element b = sum c_i mats_i and the irreducible
    factors f of its characteristic polynomial by increasing degree.  A
    factor of degree n is the whole characteristic polynomial: Z_p[b] is
    then a field, no proper nonzero subspace is invariant under b, and the
    draw certifies the module at once (replay compares f with the
    characteristic polynomial of b).  For any other f, let N
    be the null space of a = f(b).  A vector of N that spins to a
    proper subspace splits the module.  When dim N = deg f, N is
    one-dimensional over the field Z_p[x]/(f), so every proper submodule
    either contains N or has an annihilator containing the null space of
    the transpose of a; one spin of each decides the question.  Certificates:

    ("allvec",)       n = 1, where every nonzero vector spans the module;
    ("norton", c, f)  c the coefficient row of b over `mats`, f the
                      coefficients of an irreducible factor (constant term
                      first) with nullity f(b) = deg f, such that the first
                      null row of f(b) spins the module and the first null
                      row of f(b)^T spins the transpose module to the full
                      space.

    Raises MeataxeExhausted after MAX_DRAWS draws without either, which
    only the exceptional modules of Ivanyos and Lux should reach.
    """
    if n == 1:
        return "irr", ("allvec",)
    gens = np.asarray(mats, dtype=np.int64).reshape(-1, n, n)
    eye = np.eye(n, dtype=np.int64)
    for i in range(n):
        # the spin of e_i: e_i @ M is row i of M
        sub, pivots = rref(np.vstack([eye[i:i + 1], gens[:, i]]), p)
        if len(pivots) < n:
            return "sub", sub
    flat = gens.reshape(gens.shape[0], n * n)
    for _ in range(MAX_DRAWS):
        c = rng.integers(0, p, gens.shape[0])
        b = _dot(c, flat, p).reshape(n, n)
        for f in factor(charpoly(b, p), p):
            if degree(f) == n:
                return "irr", ("norton", c, f)
            a = at_matrix(f, b, p)
            null = nullspace(a.T, p)
            # a random vector of N; when dim N = deg f every nonzero vector
            # of N spins alike, so replay may take the first row instead
            v = (null[0] + rng.integers(0, p, null.shape[0] - 1) @ null[1:]) % p
            sub = spin(v, gens, p)
            if sub.shape[0] < n:
                return "sub", sub
            if null.shape[0] == degree(f):
                dual = spin(nullspace(a, p)[0], gens.transpose(0, 2, 1), p)
                if dual.shape[0] < n:
                    return "sub", nullspace(dual, p)
                return "irr", ("norton", c, f)
    raise MeataxeExhausted(n, p, MAX_DRAWS)


def check_certificate(factor_data: FactorData, p: int) -> bool:
    """Replay an irreducibility certificate against the factor action.

    ("allvec",) holds for dimension 1 alone.  ("norton", c, f) is rebuilt
    from the action: b = sum c_i action_i, for an irreducible f.  When deg f
    is n, f made monic must be the characteristic polynomial of b: f(b) = 0
    holds exactly then, and then no proper subspace is invariant under b,
    so the null spaces and spins below would pass too.  Otherwise f(b) must
    have nullity deg f, and the two spins of `try_split`, here of the first
    null rows, must both give the full space.  No vector is enumerated.  A
    factor's action spans a closed algebra, as `spin` needs; on a forged
    one that does not, spins only come out too small, so the replay can
    fail but never pass wrongly."""
    n, cert = factor_data.dim, factor_data.certificate
    if cert[0] == "allvec":
        return n == 1
    if cert[0] != "norton" or len(cert) != 3:
        return False
    gens = as_array(factor_data.action, p).reshape(-1, n, n)
    c, f = as_array(cert[1], p), np.asarray(cert[2], dtype=np.int64)
    if c.shape != (gens.shape[0],) or f.ndim != 1 or not is_irreducible(f, p):
        return False
    b, f = _dot(c, gens.reshape(c.size, n * n), p).reshape(n, n), norm(f, p)
    if degree(f) == n:
        return np.array_equal(charpoly(b, p) * f[-1] % p, f)
    a = at_matrix(f, b, p)
    null = nullspace(a.T, p)
    return (null.shape[0] == degree(f)
            and spin(null[0], gens, p).shape[0] == n
            and spin(nullspace(a, p)[0], gens.transpose(0, 2, 1), p).shape[0] == n)


def _split_action(mats, w: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Actions of `mats` on span(w), in the rref basis w, and on the
    quotient, in the unit vectors off w's pivots.  u in span(w) has
    coordinates u[pivots]; the class of u has u[rest] - u[pivots] @ w[:, rest].
    Raises ClosureViolation unless each residue of w @ M vanishes."""
    gens = np.asarray(mats, dtype=np.int64).reshape(-1, w.shape[1], w.shape[1])
    pivots = (w != 0).argmax(axis=1)
    rest = np.ones(w.shape[1], dtype=bool)
    rest[pivots] = False
    wm = _dot(w, gens, p)
    sub = wm[..., pivots]
    if ((wm[..., rest] - _dot(sub, w[:, rest], p)) % p).any():
        raise ClosureViolation("subspace is not invariant under the action")
    below = gens[:, rest]
    return sub, (below[..., rest] - _dot(below[..., pivots], w[:, rest], p)) % p


def composition_factors(mats, p: int, n: int, rng: np.random.Generator) -> list[FactorData]:
    """Factors of the natural module, each carrying the images of the
    original algebra basis (same coefficients throughout)."""
    if n == 0:
        return []
    verdict, data = try_split(mats, p, n, rng)
    if verdict == "irr":
        return [FactorData(n, [m.copy() for m in mats], data)]
    return [f for action in _split_action(mats, data, p)
            for f in composition_factors(action, p, action.shape[-1], rng)]


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

def jacobson_radical(alg: MatAlgebra, rng: np.random.Generator | None = None) -> RadicalData:
    rng = rng or np.random.default_rng(0)
    k = alg.dim
    if k == 0:
        return RadicalData(Subspace(alg.p, 0, []), [], [], [])
    factors = composition_factors(alg.mats, alg.p, alg.n, rng)
    stacked = np.concatenate([np.reshape(f.action, (k, -1)) for f in factors], axis=1)
    coeff = Subspace.adopt(alg.p, k, nullspace(stacked.T, alg.p))
    mats = list(_dot(coeff.basis, alg.space.basis, alg.p).reshape(-1, alg.n, alg.n))
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


def _block_diagonal(blocks, p: int) -> np.ndarray:
    """The square blocks down the diagonal of one matrix, mod p."""
    n = sum(len(b) for b in blocks)
    out = np.zeros((n, n), dtype=np.int64)
    at = 0
    for b in blocks:
        out[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return out % p


def embed_adjoint_pairs(members, p: int) -> list[np.ndarray]:
    """(X, Y) -> diag(X, Y^t): turns the adjoint product (X X', Y' Y)
    into plain matrix multiplication."""
    return [_block_diagonal((x, y.T), p) for x, y in members]


def embed_centroid_triples(members, p: int) -> list[np.ndarray]:
    """(X, Y, Z) -> diag(X, Y, Z)."""
    return [_block_diagonal(triple, p) for triple in members]
