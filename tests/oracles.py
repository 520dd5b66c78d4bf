"""Slow, independent recomputations used by the test suite.

Everything here favors direct definitions over the algorithms in the
main modules: commutator subgroups by enumerating all element pairs
instead of normal closure of generator pairs, filter generation by
literal path products instead of the shared-prefix recursion, scalar
ring dimensions by Kronecker-product assembly instead of per-equation
loops, radicals by the trace form or by enumerating nilpotent elements
instead of meataxe splitting.  Shared low-level primitives (rref,
closure of an explicit element list) are reused; the point is that the
algorithm above them is different.  Inverses come from
`loop_reference.series_batch_inv`, not from the doubling kernel
`filtra.group.batch_inv`.
"""

from __future__ import annotations

from itertools import product as iproduct

import numpy as np

from conftest import elements, keys_of
from loop_reference import ring_mult, series_batch_inv
from filtra import monoid
from filtra.group import Subgroup, UnipotentGroup, reduced_generators
from filtra.modlinalg import Subspace, rref
from filtra.monoid import Index


def exhaustive_commutator_subgroup(a: Subgroup, b: Subgroup,
                                   pair_limit: int = 1 << 22) -> Subgroup:
    """[A, B] from the commutators of every element pair."""
    parent = a.parent
    p = parent.p
    if a.order() * b.order() > pair_limit:
        raise ValueError("pair enumeration over limit; use the normal closure form")
    amats = elements(a)
    ainv = series_batch_inv(amats, p)
    seen: set[bytes] = set()
    gens: list[np.ndarray] = []
    for y in elements(b):
        yinv = series_batch_inv(y[None], p)[0]
        left = np.matmul(ainv, yinv[None]) % p
        right = np.matmul(amats, y[None]) % p
        comms = np.matmul(left, right) % p
        for c in comms:
            key = c.astype(np.uint8).tobytes()
            if key not in seen:
                seen.add(key)
                gens.append(c)
    return reduced_generators(parent, gens)


def path_product_values(ambient: UnipotentGroup,
                        gens: dict[Index, Subgroup]) -> dict[Index, Subgroup]:
    """Filter values as joins of literal path products
    [[pi_x1, pi_x2], ...]; recursion stops when a branch dies."""
    from filtra.group import join

    values: dict[Index, Subgroup] = {}

    def record(idx: Index, sub: Subgroup):
        cur = values.get(idx)
        values[idx] = sub if cur is None else join(cur, sub)

    def visit(idx: Index, sub: Subgroup):
        record(idx, sub)
        for x, px in gens.items():
            nxt = exhaustive_commutator_subgroup(sub, px)
            if not nxt.is_trivial():
                visit(monoid.add(idx, x), nxt)

    for x, px in gens.items():
        if not px.is_trivial():
            visit(x, px)
    return values


def _kron_x_block(b: np.ndarray) -> np.ndarray:
    a, bb, c = b.shape
    return np.kron(np.eye(a, dtype=np.int64), b.reshape(a, bb * c).T)


def _kron_y_column_block(b: np.ndarray) -> np.ndarray:
    """Y acting on columns: coefficient of Y[l, j] in equation (i, j, k)."""
    a, bb, c = b.shape
    k = np.kron(np.eye(bb, dtype=np.int64), b.transpose(0, 2, 1).reshape(a * c, bb))
    k = k.reshape(bb, a, c, bb, bb)
    return k.transpose(1, 0, 2, 4, 3).reshape(a * bb * c, bb * bb)


def _kron_y_row_block(b: np.ndarray) -> np.ndarray:
    """Y acting on rows: coefficient of Y[j, l] in equation (i, j, k)."""
    a, bb, c = b.shape
    k = np.kron(np.eye(bb, dtype=np.int64), b.transpose(0, 2, 1).reshape(a * c, bb))
    k = k.reshape(bb, a, c, bb, bb)
    return k.transpose(1, 0, 2, 3, 4).reshape(a * bb * c, bb * bb)


def _kron_z_block(b: np.ndarray) -> np.ndarray:
    a, bb, c = b.shape
    k = np.kron(np.eye(c, dtype=np.int64), b.reshape(a * bb, c))
    k = k.reshape(c, a, bb, c, c)
    return k.transpose(1, 2, 0, 4, 3).reshape(a * bb * c, c * c)


def _rank(m: np.ndarray, p: int) -> int:
    if m.size == 0:
        return 0
    _, pivots = rref(m % p, p)
    return len(pivots)


def dense_adjoint_dim(tensor: np.ndarray, p: int) -> int:
    a, bb, c = tensor.shape
    m = np.concatenate([_kron_x_block(tensor), -_kron_y_column_block(tensor) % p], axis=1)
    return a * a + bb * bb - _rank(m, p)


def dense_centroid_dim(tensor: np.ndarray, p: int) -> int:
    a, bb, c = tensor.shape
    zx = np.zeros((a * bb * c, a * a), dtype=np.int64)
    zy = np.zeros((a * bb * c, bb * bb), dtype=np.int64)
    eq1 = np.concatenate([_kron_x_block(tensor), zy, -_kron_z_block(tensor) % p], axis=1)
    eq2 = np.concatenate([zx, _kron_y_row_block(tensor), -_kron_z_block(tensor) % p], axis=1)
    m = np.concatenate([eq1, eq2], axis=0)
    return a * a + bb * bb + c * c - _rank(m, p)


def dense_derivation_dim(tensor: np.ndarray, p: int) -> int:
    a, bb, c = tensor.shape
    m = np.concatenate([_kron_x_block(tensor), _kron_y_row_block(tensor),
                        -_kron_z_block(tensor) % p], axis=1)
    return a * a + bb * bb + c * c - _rank(m, p)


def traceform_radical_dim(mats: list[np.ndarray], p: int, n: int) -> int:
    """Radical of the trace form tr(xy) equals the Jacobson radical when
    p exceeds the acting dimension."""
    if p <= n:
        raise ValueError("trace form radical needs p > matrix size")
    k = len(mats)
    gram = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            gram[i, j] = int(np.trace((mats[i] @ mats[j]) % p)) % p
    return k - _rank(gram, p)


def nilpotent_element_radical(ring, limit: int = 1 << 14) -> Subspace:
    """Radical of a finite commutative ring as the span of its nilpotent
    elements, found by enumeration."""
    d = ring.dim
    if ring.p ** d > limit:
        raise ValueError("ring too large to enumerate")
    nil = []
    for coeffs in iproduct(range(ring.p), repeat=d):
        x = np.array(coeffs, dtype=np.int64)
        y = x.copy()
        for _ in range(d):
            y = ring_mult(ring, y, x)
        if not y.any():
            nil.append(x)
    return Subspace(ring.p, d, nil)


def conjugation_orbit_closure(parent: UnipotentGroup, seeds: list[np.ndarray]) -> Subgroup:
    """Normal closure by closing the full element list under conjugation
    by every group element (definition-level, no generator tricks)."""
    p = parent.p
    sub = reduced_generators(parent, seeds)
    while True:
        new = []
        seen = set(keys_of(sub))
        emats = elements(sub)
        for g in elements(parent.full_subgroup()):
            ginv = series_batch_inv(g[None], p)[0]
            conj = np.matmul(np.matmul(ginv[None], emats), g[None]) % p
            for c in conj:
                key = c.astype(np.uint8).tobytes()
                if key not in seen:
                    seen.add(key)
                    new.append(c)
        if not new:
            return sub
        sub = reduced_generators(parent, sub.generators + new)
