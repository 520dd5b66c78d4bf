"""Bilinear maps and their scalar rings.

A bimap U x V -> W is stored as a structure tensor B of shape
(a, b, c): B[i, j] is the coordinate vector of e_i * e_j.  Vectors are
rows throughout; a matrix X acts on U on the right, so (uX)_l is
sum_i u_i X[i, l].  The slice B_k is the a x b matrix B[:, :, k], so the
k-th coordinate of u * v is u B_k v^T.

Three rings of scalars are computed by linear algebra over Z_p:

  adjoint     pairs (X, Y) with  uX * v = u * vY
  centroid    triples (X, Y, Z) with  uX * v = u * vY = (u * v)Z
  derivations triples (X, Y, Z) with  uX * v + u * vY = (u * v)Z

The adjoint and centroid are multiplicatively closed and contain the
identity; derivations close under the commutator bracket.  Verification
helpers recheck the identity element and the defining identity from the
solved bases.  Closure of the adjoint and centroid is proved where they
enter a matrix algebra (`filtra.refine.ring_at`): the span of an injective,
multiplicative embedding of the basis is closed and unital exactly when
its unital closure has the same dimension.

Adjoint as a centralizer.  Slice by slice the adjoint condition reads

  X B_k = B_k Y^T   for k = 1..c.

When a = b and some C = sum lambda_k B_k is invertible, the same
combination of these equations gives X C = C Y^T, so Y^T = C^-1 X C.
Putting that back in, X B_k = B_k C^-1 X C, and multiplying by C^-1 on
the right,

  X M_k = M_k X   with M_k = B_k C^-1,

so X ranges over the common centralizer of the M_k.  Conversely every X in
that centralizer gives a solution (X, (C^-1 X C)^T).  That is a system in
a^2 unknowns instead of a^2 + b^2; the adjoint is the row space of the
pairs, and as a `Subspace` it is in rref, the same canonical basis the
full system has.  C is looked for among the slices in order, then among
COMBINATION_DRAWS combinations drawn from a fixed seed, so the route
depends on the tensor alone, never on a caller's random state.

Fallback.  When a != b, when a or c is 0, or when no invertible combination
turns up, the adjoint is the nullspace of the full (a*b*c) x (a^2 + b^2)
system in (X, Y).  Degenerate bimaps land here, and so does every
alternating B of odd size, all of whose combinations are singular.

Centroid inside the adjoint.  A centroid triple has (X, Y) in the adjoint
and  X B_k = sum_m Z[m, k] B_m.  Over an adjoint basis (X_n, Y_n) the
unknowns are the coefficients alpha and Z, dim Adj + c^2 of them:

  sum_n alpha_n X_n B_k - sum_m Z[m, k] B_m = 0   for k = 1..c,

and each solution gives the triple (sum alpha_n X_n, sum alpha_n Y_n, Z).
This runs for every tensor, on whichever adjoint route applied.
Derivations are solved on their full system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modlinalg import Subspace, _dot, _entry_dtype, _reduce, check_prime, inv_matrix, nullspace

# Combinations of slices tried, after the slices themselves, when looking for
# an invertible one.
COMBINATION_DRAWS = 8


def as_tensor(entries, p: int) -> np.ndarray:
    t = np.asarray(entries, dtype=np.int64)
    if t.ndim != 3:
        raise ValueError("bimap tensor must have three axes")
    check_prime(p)
    return t % p


def _unflatten(vec: np.ndarray, shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    out, pos = [], 0
    for r, s in shapes:
        out.append(vec[pos:pos + r * s].reshape(r, s))
        pos += r * s
    return out


@dataclass(frozen=True, eq=False)
class ScalarRing:
    """Solution space of one of the three scalar-ring identities."""

    kind: str
    p: int
    tensor: np.ndarray
    members: tuple[tuple[np.ndarray, ...], ...]
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    def contains(self, *mats) -> bool:
        flat = np.concatenate([np.asarray(m, dtype=np.int64).reshape(-1) for m in mats])
        return self.space.contains(flat)

    def has_identity(self) -> bool:
        """(I, I) resp. (I, I, I) solves the identity; for derivations the
        canonical member is (I, I, 2I)."""
        a, b, c = self.tensor.shape
        ia, ib, ic = (np.eye(n, dtype=np.int64) for n in (a, b, c))
        if self.kind == "adjoint":
            return self.contains(ia, ib)
        if self.kind == "centroid":
            return self.contains(ia, ib, ic)
        return self.contains(ia, ib, (2 * ic) % self.p)

    def satisfies_identity(self) -> bool:
        """Every member solves the ring's identity; all members are checked
        at once, one einsum per side over the stacked member matrices."""
        b, p = self.tensor, self.p
        a, bb, c = b.shape
        n = len(self.members)
        x = np.array([ms[0] for ms in self.members], dtype=np.int64).reshape(n, a, a)
        y = np.array([ms[1] for ms in self.members], dtype=np.int64).reshape(n, bb, bb)
        left = np.einsum("nil,ljk->nijk", x, b) % p
        mid = np.einsum("njl,ilk->nijk", y, b) % p
        if self.kind == "adjoint":
            return np.array_equal(left, mid)
        z = np.array([ms[2] for ms in self.members], dtype=np.int64).reshape(n, c, c)
        right = np.einsum("ijm,nmk->nijk", b, z) % p
        if self.kind == "centroid":
            return np.array_equal(left, mid) and np.array_equal(mid, right)
        return np.array_equal((left + mid) % p, right)


def _place(out: np.ndarray, col: int, t: np.ndarray, axis: int) -> int:
    """Write into out[:, col:], whose rows are indexed (i, j, k) like t, the
    block of the unknown matrix acting on row axis `axis`; return the end:
      axis 0, X in  uX * v:     ((i,j,k),(i',l)) = d_{ii'} t[l,j,k]
      axis 1, Y in  u * vY:     ((i,j,k),(j',l)) = d_{jj'} t[i,l,k]
      axis 2, Z in  (u * v)Z:   ((i,j,k),(m,k')) = d_{kk'} t[i,j,m]"""
    n = t.shape[axis]
    block = out[:, col:col + n * n].reshape(*t.shape, n, n)
    at = [slice(None)] * 5
    at[axis] = at[3 if axis < 2 else 4] = np.arange(n)
    block[tuple(at)] = t.transpose([i for i in range(3) if i != axis] + [axis])
    return col + n * n


def _system(b: np.ndarray, p: int, blocks, extra: int = 0) -> np.ndarray:
    """The (axis, sign) blocks of b side by side, then `extra` zero columns,
    in one array at entry width; -B mod p is formed once, on the tensor."""
    out = np.zeros((b.size, sum(b.shape[ax] ** 2 for ax, _ in blocks) + extra),
                   dtype=_entry_dtype(p))
    neg, col = _reduce(-b, p), 0
    for ax, sign in blocks:
        col = _place(out, col, b if sign > 0 else neg, ax)
    return out


def _invertible_slice(b: np.ndarray, p: int):
    """(C, C^-1) for an invertible C = sum lambda_k B_k, or None when the
    adjoint takes the full-system fallback (see the module docstring)."""
    a, bb, c = b.shape
    if a != bb or a * c == 0:
        return None
    draws = np.random.default_rng(0).integers(0, p, (COMBINATION_DRAWS, c))
    for lam in np.concatenate([np.eye(c, dtype=np.int64), draws]):
        cm = _dot(b.reshape(a * a, c), lam[:, None], p).reshape(a, a)
        try:
            return cm, inv_matrix(cm, p)
        except ValueError:
            continue
    return None


def _centralizer(ms: np.ndarray, p: int) -> np.ndarray:
    """Basis of {X : X M = M X for every M in ms}.

    Scalar M commute with everything and are dropped.  The first M left
    gives the a^2 x a^2 system (I (x) M^T - M (x) I) vec X = 0 (row-major
    vec): the X and -Z blocks of the a x 1 x a tensor M on the same
    columns, which meet on the diagonal.  Its solutions X_n are then cut
    down, for all other M at once, to the combinations lambda with
    sum lambda_n (X_n M - M X_n) = 0.
    """
    a = ms.shape[-1]
    eye = np.eye(a, dtype=np.int64)
    ms = [m for m in ms if (m - m[0, 0] * eye).any()]
    if not ms:
        return np.eye(a * a, dtype=np.int64)
    rows = _system(ms[0][:, None, :], p, [(0, 1)])
    _place(rows, 0, _reduce(-ms[0][:, None, :], p), 2)
    d = ms[0].diagonal()
    np.fill_diagonal(rows, (d - d[:, None]) % p)
    basis = nullspace(rows, p)
    if len(ms) > 1:
        xs, rest = basis.reshape(-1, 1, a, a), np.stack(ms[1:])
        images = (_dot(xs, rest, p) - _dot(rest, xs, p)).reshape(len(xs), -1)
        basis = _dot(nullspace(images.T, p), basis, p)
    return basis


def _adjoint_space(b: np.ndarray, p: int) -> Subspace:
    a, bb, _ = b.shape
    found = _invertible_slice(b, p)
    if found is None:
        rows = _system(b, p, [(0, 1), (1, -1)])
        return Subspace.adopt(p, a * a + bb * bb, nullspace(rows, p))
    cm, inv = found
    ms = _dot(b.transpose(2, 0, 1), inv, p)
    xs = _centralizer(ms, p).reshape(-1, a, a)
    ys = _dot(_dot(inv, xs, p), cm, p).transpose(0, 2, 1)
    return Subspace(p, 2 * a * a, np.concatenate([xs, ys], axis=1).reshape(len(xs), -1))


def adjoint_ring(tensor, p: int) -> ScalarRing:
    b = as_tensor(tensor, p)
    a, bb, _ = b.shape
    space = _adjoint_space(b, p)
    members = tuple(tuple(_unflatten(v, [(a, a), (bb, bb)])) for v in space.basis)
    return ScalarRing("adjoint", p, b, members, space)


def centroid_ring(tensor, p: int) -> ScalarRing:
    b = as_tensor(tensor, p)
    a, bb, c = b.shape
    adj = _adjoint_space(b, p).basis
    n = len(adj)
    # Unknowns (Z, alpha): with the sparse Z block first, elimination is
    # cheaper.  Column n of the -XB block is X_n (-B), one product.
    rows = _system(b, p, [(2, 1)], n)
    rows[:, c * c:] = _dot(adj[:, : a * a].reshape(n * a, a),
                           _reduce(-b, p).reshape(a, bb * c), p).reshape(n, b.size).T
    sol = nullspace(rows, p)
    vecs = np.concatenate([_dot(sol[:, c * c:], adj, p), sol[:, : c * c]], axis=1)
    space = Subspace(p, a * a + bb * bb + c * c, vecs)
    members = tuple(tuple(_unflatten(v, [(a, a), (bb, bb), (c, c)])) for v in space.basis)
    return ScalarRing("centroid", p, b, members, space)


def derivation_ring(tensor, p: int) -> ScalarRing:
    b = as_tensor(tensor, p)
    a, bb, c = b.shape
    rows = _system(b, p, [(0, 1), (1, 1), (2, -1)])
    space = Subspace.adopt(p, a * a + bb * bb + c * c, nullspace(rows, p))
    members = tuple(tuple(_unflatten(v, [(a, a), (bb, bb), (c, c)])) for v in space.basis)
    return ScalarRing("derivation", p, b, members, space)


def solve_ring(tensor, p: int, method: str) -> ScalarRing:
    try:
        fn = {"adjoint": adjoint_ring, "centroid": centroid_ring,
              "derivation": derivation_ring}[method]
    except KeyError:
        raise ValueError(f"unknown ring method {method!r}") from None
    return fn(tensor, p)


def kronecker_pair_tensor(m: int, p: int) -> np.ndarray:
    """Alternating bimap on Z_p^{2m+1} from the matrix pencil ([Z 0], [0 Z])
    with Z the m x m anti-diagonal: (u,v) * (x,y) = (uFy^t - vF^tx^t, uGy^t - vG^tx^t)."""
    z = np.eye(m, dtype=np.int64)[::-1]
    n = 2 * m + 1
    b = np.zeros((n, n, 2), dtype=np.int64)
    b[:m, m:n - 1, 0] = b[:m, m + 1:, 1] = z
    b[m:, :m] = (-b[:m, m:].transpose(1, 0, 2)) % p
    return b


def heisenberg_tensor(ring) -> np.ndarray:
    """Commutation bimap of the Heisenberg group over a commutative ring:
    (a, b) * (c, d) = ad - bc taken in the ring."""
    m = ring.dim
    b = np.zeros((2 * m, 2 * m, m), dtype=np.int64)
    b[:m, m:] = ring.table
    b[m:, :m] = (-ring.table.transpose(1, 0, 2)) % ring.p
    return b
