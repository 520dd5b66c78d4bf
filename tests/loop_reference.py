"""Row-at-a-time reference versions of the elimination and closure routines.

These are the loops that `filtra.modlinalg` and `filtra.algrep` used before
elimination was vectorised, the algebra closure that multiplied the whole
basis with itself every round before `algebra_closure` became semi-naive,
and the element-by-element breadth-first closure that `filtra.group` used
before subgroups were grown by coset extension.  They take one row or one
element per step, so they are slow but easy to check by eye; the tests
compare the library against them bit for bit.
"""

import numpy as np

from filtra.errors import CapExceeded
from filtra.group import ElementSet
from filtra.modlinalg import Subspace, inv_mod


def loop_rref(a, p: int) -> tuple[np.ndarray, list[int]]:
    m = np.mod(np.asarray(a, dtype=np.int64), p).copy()
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        sel = None
        for i in range(r, rows):
            if m[i, c] != 0:
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            m[[r, sel]] = m[[sel, r]]
        m[r] = (m[r] * inv_mod(m[r, c], p)) % p
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def loop_nullspace(a, p: int) -> np.ndarray:
    a = np.mod(np.asarray(a, dtype=np.int64), p)
    cols = a.shape[1]
    r, pivots = loop_rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-r[i, fc]) % p
    rb, _ = loop_rref(basis, p)
    return rb[: len(free)]


def loop_reduce(basis: np.ndarray, vec, p: int) -> np.ndarray | None:
    """Eliminate vec along an rref basis one row at a time; None if inside."""
    v = np.mod(np.asarray(vec, dtype=np.int64).reshape(-1), p)
    for row in basis:
        c = int(np.argmax(row != 0)) if row.any() else -1
        if c >= 0 and v[c]:
            v = (v - v[c] * row) % p
    return None if not v.any() else v


def _in_rowspace(basis: np.ndarray, row: np.ndarray, p: int) -> bool:
    if basis.shape[0] == 0:
        return not row.any()
    r = row.copy() % p
    for b in basis:
        lead = np.flatnonzero(b)
        if lead.size == 0:
            continue
        c = lead[0]
        if r[c]:
            r = (r - r[c] * b) % p
    return not r.any()


def loop_spin(v, mats, p: int) -> np.ndarray:
    n = len(v)
    basis = np.zeros((0, n), dtype=np.int64)
    frontier = [np.mod(np.asarray(v, dtype=np.int64), p)]
    while frontier:
        stacked = np.vstack([basis] + [f.reshape(1, -1) for f in frontier])
        newbasis, _ = loop_rref(stacked, p)
        newbasis = newbasis[~np.all(newbasis == 0, axis=1)]
        added = newbasis.shape[0] - basis.shape[0]
        if added == 0 and basis.shape[0] > 0:
            break
        fresh = [row for row in newbasis if not _in_rowspace(basis, row, p)]
        basis = newbasis
        frontier = [(f @ m) % p for f in fresh for m in mats]
        if not frontier:
            break
    return basis


def _bfs_closure(p: int, degree: int, gens: list[np.ndarray], cap: int,
                 seed: np.ndarray | None = None) -> ElementSet:
    eye = np.eye(degree, dtype=np.int64)
    if seed is None:
        seed = eye[None]
    known: dict[bytes, None] = {}
    rows: list[np.ndarray] = []

    def absorb(batch: np.ndarray) -> list[np.ndarray]:
        fresh = []
        flat = batch.reshape(len(batch), -1).astype(np.uint8)
        for i, row in enumerate(flat):
            k = row.tobytes()
            if k not in known:
                known[k] = None
                rows.append(flat[i])
                fresh.append(batch[i])
        return fresh

    frontier = absorb(np.mod(seed, p))
    gens64 = [g.astype(np.int64) for g in gens]
    while frontier:
        batch = np.stack(frontier)
        frontier = []
        for g in gens64:
            prod = (batch @ g) % p
            frontier.extend(absorb(prod))
        if len(known) > cap:
            raise CapExceeded(cap, len(known))
    mats = np.stack(rows).reshape(-1, degree, degree) if rows else np.zeros((0, degree, degree), np.uint8)
    return ElementSet(p, degree, mats)


def naive_algebra_closure(mats, p: int, n: int, unital: bool = False) -> Subspace:
    """Span closure that multiplies the whole basis with itself every round."""
    vecs = [np.mod(np.asarray(m, dtype=np.int64), p).reshape(-1) for m in mats]
    if unital:
        vecs.append(np.eye(n, dtype=np.int64).reshape(-1))
    space = Subspace(p, n * n, vecs)
    while True:
        prods = [(x.reshape(n, n) @ y.reshape(n, n)).reshape(-1) % p
                 for x in space.basis for y in space.basis]
        new = [r for r in prods if space.reduce(r) is not None]
        if not new:
            return space
        space = Subspace(p, n * n, np.vstack([space.basis] + new))
