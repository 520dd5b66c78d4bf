"""Row-at-a-time reference versions of the elimination and closure routines.

These are the loops that `filtra.modlinalg` and `filtra.algrep` used before
elimination was vectorised, the algebra closure that multiplied the whole
basis with itself every round before `algebra_closure` became semi-naive,
the semi-naive closure that multiplied new directions by the whole
starting basis and re-eliminated the grown basis every round
(`basis_algebra_closure`) before it kept only the generators it needs and
grew its basis with `Subspace.extend`, and the element-by-element breadth-first closure that `filtra.group` used
before subgroups were grown by coset extension.  They take one row or one
element per step, so they are slow but easy to check by eye; the tests
compare the library against them bit for bit.

`base_change_split` is how `filtra.algrep.composition_factors` found the
actions on a submodule span(w) and on its quotient before they were read
off at the pivots of w: it completes the rref rows of w to an invertible
t with unit vectors, inverts t (`inv_matrix`, one `rref` of [t | I]) and
takes the diagonal blocks of t M t^-1.

`dense_rref` is `filtra.modlinalg.rref` from before it eliminated over
GF(2) on bit-packed rows: one column per pivot in the narrowest unsigned
dtype, cleared at p = 2 by XOR with the pivot row (`m[hit, c:] ^= row`) and
at odd p by a broadcast multiply-add and a mod.  It and `loop_rref` return
the full rows x cols array, zero rows after the rank rows, as `rref` did
before it returned the rank rows alone.

`loop_associativity_failure` is the triple loop over basis elements that
`filtra.ring.FinCommRing` used to check associativity before it compared
all (j, k) for one i at once.

`frobenius_radical` and `frobenius_radical_chain` are the radical and its
powers as `filtra.ring.FinCommRing` computed them before `radical_chain`
read them off `filtra.algrep.jacobson_radical`.  In characteristic p the
Frobenius map x -> x^p is Z_p-linear on a commutative ring, the radical is
its nilradical, and an element is nilpotent exactly when Frob^j kills it
for p^j > dim.  `frobenius_matrix` holds the images of the basis as rows,
each formed by `ring_power`, one product at a time.

The full-system scalar-ring solvers at the end are the `adjoint_ring` and
`centroid_ring` that `filtra.bimap` used before the adjoint became a
centralizer and the centroid a system over the adjoint basis: one
(a*b*c) x (a^2 + b^2) system for the adjoint and one (2*a*b*c) x
(a^2 + b^2 + c^2) system for the centroid.  Their blocks `_rows_x`,
`_rows_y_right` and `_rows_z` are the int64 blocks that `filtra.bimap`
concatenated, and `kron_commuting_rows` the two-`np.kron` system of its
`_centralizer`, before each system was built in place at entry width.

`loop_product_tensor`, `loop_check_bilinear` and `loop_check_well_defined`
are the `filtra.liering.GradedLieRing` methods from before brackets were
batched: one commutator and one coordinate lookup per (i, j) pair or trial.
They take the ring as their first argument; `loop_product_tensor` computes
the tensor afresh and does not read or fill the ring's tensor cache.

`bracket_coords` is the `GradedLieRing` method that contracted two
coordinate vectors with a product tensor; only the tests used it.

`loop_cmd_verify` is `filtra.cli.cmd_verify` from before the random bracket
checks of all (s, t) pairs ran in one `GradedLieRing.check_brackets` call:
for each pair in turn it runs the antisymmetry, bilinear, well-defined and
Jacobi checks, the two random ones through `loop_check_bilinear` and
`loop_check_well_defined`.

`join_powers` and `_class_below_p` are how `filtra.group` formed C H^p for
the eta and Jennings series steps before eta grew [G, H] by H's generator
p-th powers and Jennings' series was read off the lower central series by
Lazard's formula: C grown by H's generator p-th powers when HC/C is
abelian, C when Hall's regular-p-group criterion decides, and otherwise
`power_subgroup`, which lists every element of H.  `recursive_jennings_series`
is the Jennings recursion kappa_i = [G, kappa_(i-1)] kappa_(ceil(i/p))^p
through them.

`ByteLeastSection` is the section basis `filtra.group.SectionBasis` built
before its reps became the numerator's own generators: each rep is the
least element of A, in row-major byte order, outside the group grown so
far, and each lift is the least element of its coset of B'.

`table_lift` is `filtra.group.SectionBasis.lift` from before lifts were
formed off the section's own sequence: a table r^0, ..., r^(p-1) per rep r,
and the product of the looked-up powers from left to right.

`one_shot_power_subgroup` is `filtra.group.power_subgroup` from before it
formed the elements in blocks: every element of the subgroup at once, then
the distinct powers.

`CosetSubgroup` and the functions after it are `filtra.group` from before
subgroups became polycyclic sequences: a subgroup is its element list,
grown by coset extension (Dimino's algorithm, `_extend`), and its key set.
`CosetSection` is the section basis of that time, which read coordinates
and lifts off the coset layout of the numerator grown from B'.

`loop_generate` is `filtra.filters.generate` from before it held the domain
indices as one int array and memoized its group work by identity: it finds
the decompositions of each popped index with `decompositions` (once
`filtra.monoid.decompositions`), one tuple subtraction per domain index,
tests trivial minimals and covering pairs one tuple at a time, and calls
`commutator_subgroup` and `join` for every part of every index.

`generate_with_tails` is `filtra.filters.generate` from before refinement
regenerated filters from the plain domain: rows named in ``persistent`` keep
their last value at every later last coordinate, through an extra part per
tail in the heap pass.  `compact` is the `Filter` method that refinement
called on the result to drop coordinates no recorded index uses.

`series_batch_inv` is `filtra.group.batch_inv` from before it doubled:
a^-1 = I - N + N^2 - ... with N = a - I, one product per term until a
power of N vanishes, so up to d - 1 products for degree d.
`coset_commutator`, `coset_is_normal` and `tests/oracles.py` invert
through it.

`int64_batch_mul` is the product that `filtra.group` used before every
product mod p went through `filtra.modlinalg._dot`: both operands cast to
int64 and one int64 `@`, never BLAS.  `coset_commutator` and
`coset_is_normal` multiply through it.

`ring_mult` is the `filtra.ring.FinCommRing` method that multiplied two
ring elements through the structure tensor, and `basis_vector` the method
that gave the unit vector e_i; only the tests used them once
`filtra.group.make_heisenberg` read the slices of the table.

`array_factor`, `array_is_irreducible` and the `array_*` helpers before them
are `filtra.poly` from before its arithmetic ran on Python int lists: every
polynomial is an int64 array, and each coefficient step of a division or
product is a numpy call.  `array_charpoly` is `filtra.poly.charpoly` from
before its leading-block recurrence ran on lists: O(n^2) numpy calls on
rows of an (n + 1) x (n + 1) array.

`two_pass_nullspace` is `filtra.modlinalg.nullspace` from before it
eliminated once: it reads the null vectors off the rref of a itself, where
each is 1 at its free column but nonzero at pivot columns left of it, so a
second `rref` puts them in canonical form.

`spin_check_certificate` is `filtra.algrep.check_certificate` from before a
certificate whose f has degree n replayed as one characteristic
polynomial: for every f it forms f(b), its two null spaces and two spins.
"""

import heapq
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from conftest import elements
from filtra import monoid
from filtra.cli import EXIT_OK, EXIT_USAGE, SERIES, _build_groups, _emit
from filtra.errors import (
    CapExceeded, ClosureViolation, DimensionMismatch, FiltraError, NonNormalGenerator, NotNormal,
    NotOrderReversing,
)
from filtra.algrep import spin
from filtra.bimap import ScalarRing, _unflatten, as_tensor
from filtra.filters import Filter, verify_axioms
from filtra.group import (
    Subgroup, UnipotentGroup, _conj, _held_words, _power_table, _powers, _stack, commutator,
    commutator_subgroup, is_normal, join, power_subgroup, reduced_generators,
)
from filtra.liering import GradedLieRing
from filtra.monoid import Index
from filtra.modlinalg import (
    Subspace, _dot, _reduce, _work_dtype, as_array, inv_matrix, inv_mod, nullspace, rref,
)
from filtra.poly import at_matrix, degree, is_irreducible, norm
from filtra.refine import ring_at


def int64_batch_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(..., d, d) @ (..., d, d) mod p, computed exactly in int64."""
    return _reduce(a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False), p)


def series_batch_inv(a: np.ndarray, p: int) -> np.ndarray:
    """Inverses of a batch of unipotent matrices via the nilpotent series."""
    d = a.shape[-1]
    eye = np.eye(d, dtype=np.int64)
    n = (a.astype(np.int64) - eye) % p
    acc = np.broadcast_to(eye, a.shape).copy()
    term = np.broadcast_to(eye, a.shape).copy()
    for k in range(1, d):
        term = (term @ n) % p
        if not term.any():
            break
        acc = (acc + (term if k % 2 == 0 else (p - 1) * term)) % p
    return acc


def dense_rref(a, p: int) -> tuple[np.ndarray, list[int]]:
    """`filtra.modlinalg.rref` at every p, p = 2 included, from before it
    eliminated over GF(2) on bit-packed rows."""
    a = np.asarray(a, dtype=np.int64)
    if a.size and a.view(np.uint64).max() >= p:
        a = _reduce(a, p)
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


def two_pass_nullspace(a: np.ndarray, p: int) -> np.ndarray:
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
    basis[:, pivots] = (-r[:, free].T) % p
    return rref(basis, p)[0]


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


def _basis_complement(w: np.ndarray, n: int, p: int) -> np.ndarray:
    """Invertible matrix whose first rows are the rref rows of w."""
    wr, pivots = rref(w, p)
    extra = [np.eye(n, dtype=np.int64)[j] for j in range(n) if j not in pivots]
    return np.vstack([wr] + [e.reshape(1, -1) for e in extra])


def base_change_split(mats, w: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Sub and quotient actions of `mats` for the invariant span of the
    independent rows w, as the diagonal blocks of t M t^-1."""
    n, k = w.shape[1], w.shape[0]
    t = _basis_complement(w, n, p)
    conj = (t @ np.reshape(mats, (-1, n, n)) % p) @ inv_matrix(t, p) % p
    if conj[:, :k, k:].any():
        raise ClosureViolation("submodule is not invariant after base change")
    return conj[:, :k, :k], conj[:, k:, k:]


def loop_associativity_failure(table: np.ndarray, p: int) -> tuple[int, int, int] | None:
    """First basis triple (i, j, k), in loop order, with
    (e_i e_j) e_k != e_i (e_j e_k), or None when the table is associative."""
    d = table.shape[0]
    for i in range(d):
        for j in range(d):
            ij = table[i, j]
            for k in range(d):
                left = (ij @ table[:, k, :]) % p
                right = (table[j, k] @ table[i, :, :]) % p
                if not np.array_equal(left, right):
                    return i, j, k
    return None


def basis_vector(ring, i: int) -> np.ndarray:
    """The basis element e_i of a `FinCommRing`, as coordinates."""
    e = np.zeros(ring.dim, dtype=np.int64)
    e[i] = 1
    return e


def ring_mult(ring, x, y) -> np.ndarray:
    """The product of two elements of a `FinCommRing`, as coordinates."""
    x = as_array(x, ring.p).reshape(-1)
    y = as_array(y, ring.p).reshape(-1)
    return (np.einsum("i,j,ijk->k", x, y, ring.table)) % ring.p


def ring_power(ring, x, n: int) -> np.ndarray:
    """x^n in a `FinCommRing`, by n products from the unit."""
    acc = ring.unit.copy()
    for _ in range(n):
        acc = ring_mult(ring, acc, x)
    return acc


def frobenius_matrix(ring) -> np.ndarray:
    """Rows e_i^p: the matrix of x -> x^p on row vectors."""
    return np.stack([ring_power(ring, basis_vector(ring, i), ring.p) for i in range(ring.dim)])


def frobenius_radical(ring) -> Subspace:
    """Nilradical = eventual kernel of Frobenius (all nilpotents)."""
    f = frobenius_matrix(ring)
    acc, pk = f, ring.p
    while pk < ring.dim + 1:
        acc = (acc @ f) % ring.p
        pk *= ring.p
    return Subspace.adopt(ring.p, ring.dim, nullspace(acc.T, ring.p))


def frobenius_radical_chain(ring) -> list[Subspace]:
    """[J, J^2, ...] down to (and excluding) zero, with J the Frobenius radical."""
    j = frobenius_radical(ring)
    chain = []
    cur = j
    while cur.dim > 0:
        chain.append(cur)
        prods = np.einsum("ai,bj,ijk->abk", cur.basis, j.basis, ring.table)
        cur = Subspace(ring.p, ring.dim, prods.reshape(-1, ring.dim) % ring.p)
    return chain


def _bfs_closure(p: int, degree: int, gens: list[np.ndarray], cap: int,
                 seed: np.ndarray | None = None) -> tuple[np.ndarray, frozenset]:
    """The rows, in the order found, and the key set of <seed, gens>."""
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
    return mats, frozenset(known)


def naive_algebra_closure(mats, p: int, n: int, unital: bool = False) -> Subspace:
    """Span closure that multiplies the whole basis with itself every round."""
    vecs = [np.mod(np.asarray(m, dtype=np.int64), p).reshape(-1) for m in mats]
    if unital:
        vecs.append(np.eye(n, dtype=np.int64).reshape(-1))
    space = Subspace(p, n * n, vecs)
    while True:
        prods = [(x.reshape(n, n) @ y.reshape(n, n)).reshape(-1) % p
                 for x in space.basis for y in space.basis]
        new = [r for r in prods if not space.contains(r)]
        if not new:
            return space
        space = Subspace(p, n * n, np.vstack([space.basis] + new))


def basis_algebra_closure(mats, p: int, n: int, unital: bool = False) -> Subspace:
    """Semi-naive span closure over the whole starting basis B: each round
    multiplies only the directions added by the round before (at first,
    all of B) on the right by B, and re-eliminates the stacked basis."""
    vecs = [np.mod(np.asarray(m, dtype=np.int64), p).reshape(-1) for m in mats]
    if unital:
        vecs.append(np.eye(n, dtype=np.int64).reshape(-1))
    space = Subspace(p, n * n, vecs)
    gens = new = space.basis
    while True:
        prods = (new.reshape(-1, 1, n, n) @ gens.reshape(1, -1, n, n)).reshape(-1, n * n) % p
        res = space.residues(prods)
        grown = Subspace(p, n * n, np.vstack([space.basis, res[res.any(axis=1)]]))
        if grown.dim == space.dim:
            return space
        # rows at the new pivots are independent modulo the old space
        new = grown.basis[~np.isin(grown.pivots, space.pivots)]
        space = grown


def _rows_x(b: np.ndarray) -> np.ndarray:
    """Coefficient block of X in  uX * v: entry ((i,j,k),(i',l)) = d_{ii'} B[l,j,k]."""
    a, bb, c = b.shape
    rows = np.zeros((a, bb, c, a, a), dtype=np.int64)
    for i in range(a):
        rows[i, :, :, i, :] = b.transpose(1, 2, 0)
    return rows.reshape(a * bb * c, a * a)


def _rows_y_right(b: np.ndarray) -> np.ndarray:
    """Coefficient block of Y in  u * vY with v a row: uses Y[j,l] B[i,l,k]."""
    a, bb, c = b.shape
    rows = np.zeros((a, bb, c, bb, bb), dtype=np.int64)
    for j in range(bb):
        rows[:, j, :, j, :] = b.transpose(0, 2, 1)
    return rows.reshape(a * bb * c, bb * bb)


def _rows_z(b: np.ndarray) -> np.ndarray:
    """Coefficient block of Z in  (u * v)Z: entry ((i,j,k),(m,k')) = d_{kk'} B[i,j,m]."""
    a, bb, c = b.shape
    rows = np.zeros((a, bb, c, c, c), dtype=np.int64)
    for k in range(c):
        rows[:, :, k, :, k] = b
    return rows.reshape(a * bb * c, c * c)


def kron_commuting_rows(m: np.ndarray) -> np.ndarray:
    """The system (I (x) M^T - M (x) I) vec X = 0 of X M = M X, row-major vec."""
    eye = np.eye(m.shape[0], dtype=np.int64)
    return np.kron(eye, m.T) - np.kron(m, eye)


def full_adjoint_ring(tensor, p: int) -> ScalarRing:
    b = as_tensor(tensor, p)
    a, bb, _ = b.shape
    rows = np.concatenate([_rows_x(b), -_rows_y_right(b) % p], axis=1)
    space = Subspace.adopt(p, a * a + bb * bb, nullspace(rows, p))
    members = tuple(tuple(_unflatten(v, [(a, a), (bb, bb)])) for v in space.basis)
    return ScalarRing("adjoint", p, b, members, space)


def full_centroid_ring(tensor, p: int) -> ScalarRing:
    b = as_tensor(tensor, p)
    a, bb, c = b.shape
    zx = np.zeros((a * bb * c, a * a), dtype=np.int64)
    zy = np.zeros((a * bb * c, bb * bb), dtype=np.int64)
    eq1 = np.concatenate([_rows_x(b), zy, -_rows_z(b) % p], axis=1)
    eq2 = np.concatenate([zx, _rows_y_right(b), -_rows_z(b) % p], axis=1)
    rows = np.concatenate([eq1, eq2], axis=0)
    space = Subspace.adopt(p, a * a + bb * bb + c * c, nullspace(rows, p))
    members = tuple(tuple(_unflatten(v, [(a, a), (bb, bb), (c, c)])) for v in space.basis)
    return ScalarRing("centroid", p, b, members, space)


def loop_product_tensor(ring, s, t) -> np.ndarray:
    sec_s, sec_t = ring.section(s), ring.section(t)
    target = ring.section(monoid.add(s, t))
    a, b, c = sec_s.dim, sec_t.dim, target.dim
    tensor = np.zeros((a, b, c), dtype=np.int64)
    for i in range(a):
        for j in range(b):
            g = commutator(sec_s.reps[i], sec_t.reps[j], ring.p)
            try:
                tensor[i, j] = target.coordinatize(g)
            except ValueError:
                raise ClosureViolation(
                    f"commutator of components at {s}, {t} misses the component at "
                    f"{monoid.add(s, t)}") from None
    return tensor


def loop_check_bilinear(ring, s, t, trials: int, rng: np.random.Generator) -> list:
    bad = []
    sec_s, sec_t = ring.section(s), ring.section(t)
    target = ring.section(monoid.add(s, t))
    for _ in range(trials):
        x1 = rng.integers(0, ring.p, sec_s.dim)
        x2 = rng.integers(0, ring.p, sec_s.dim)
        y = rng.integers(0, ring.p, sec_t.dim)
        g = sec_s.lift((x1 + x2) % ring.p)
        h = sec_t.lift(y)
        try:
            got = target.coordinatize(commutator(g, h, ring.p))
        except ValueError:
            got = None
        want = (bracket_coords(ring, s, t, x1, y) + bracket_coords(ring, s, t, x2, y)) % ring.p
        if got is None or not np.array_equal(got, want):
            bad.append((s, t, x1.tolist(), x2.tolist(), y.tolist()))
    return bad


def bracket_coords(ring, s, t, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    tensor = ring.product_tensor(s, t)
    return np.einsum("i,j,ijk->k", x, y, tensor) % ring.p


def loop_check_well_defined(ring, s, t, trials: int, rng: np.random.Generator) -> list:
    sec_s, sec_t = ring.section(s), ring.section(t)
    target = ring.section(monoid.add(s, t))
    den_s, den_t = sec_s.den, sec_t.den
    bad = []
    for i in range(sec_s.dim):
        for j in range(sec_t.dim):
            want = ring.product_tensor(s, t)[i, j]
            for _ in range(trials):
                ds = den_s.elements(rng.integers(0, ring.p, den_s.order_exp()))
                dt = den_t.elements(rng.integers(0, ring.p, den_t.order_exp()))
                g = (sec_s.reps[i] @ ds) % ring.p
                h = (sec_t.reps[j] @ dt) % ring.p
                try:
                    got = target.coordinatize(commutator(g, h, ring.p))
                except ValueError:
                    got = None
                if got is None or not np.array_equal(got, want):
                    bad.append(("well_defined", s, t, i, j))
    return bad


def loop_cmd_verify(args) -> int:
    group, label = _build_groups(args)[0]
    f = SERIES[args.series](group)
    report = verify_axioms(f)
    violations = [list(v) for v in report.violations]
    lie = GradedLieRing(f)
    rng = np.random.default_rng(args.seed)
    comps = lie.component_indices()
    for s in comps:
        for t in comps:
            violations += [list(v) for v in lie.check_antisymmetry(s, t)]
            violations += [list(map(str, v)) for v in loop_check_bilinear(lie, s, t, 3, rng)]
            violations += [list(v) for v in loop_check_well_defined(lie, s, t, 2, rng)]
            for u in comps:
                violations += [list(v) for v in lie.check_jacobi(s, t, u)]
    s = lie.leading_index()
    if s is not None:
        try:
            ring_at(lie, s, args.method, check=True, rng=rng)
        except FiltraError as exc:
            violations.append(["ring", str(exc)])
    ok = not violations
    _emit({"group": group.name, "series": args.series, "method": args.method,
           "ok": ok, "violations": violations}, args)
    print(f"verify {args.series} of {label}: "
          f"{'ok' if ok else f'{len(violations)} violations'}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_USAGE


def table_lift(sec, coords) -> np.ndarray:
    """r_1^c_1 ... r_j^c_j over the reps of a section, for coordinates c
    (taken mod p) or a (..., dim) stack of them."""
    p, d = sec.parent.p, sec.parent.degree
    c = np.mod(np.asarray(coords, dtype=np.int64), p)
    out = np.broadcast_to(np.eye(d, dtype=np.int64), c.shape[:-1] + (d, d)).copy()
    for k, r in enumerate(sec.reps):
        out = out @ _power_table(r, p)[c[..., k]] % p
    return out


def join_powers(c: Subgroup, h: Subgroup) -> Subgroup:
    """C H^p for a subgroup C normalized by H; the subgroup
    ``join(c, power_subgroup(h, p))``.

    With Q = HC/C, two steps decide it from H's generators:

    1. Every generator commutator of H lies in C, so Q is abelian and
       (xy)^p = x^p y^p in Q.  Q^p is generated by the images of the
       generator p-th powers, and C H^p is C grown by those outside C; C
       itself when there are none (Huppert, Endliche Gruppen I, III.10).
    2. Otherwise, when every generator p-th power lies in C, Q is generated
       by elements of order p.  When Q has class < p
       (``_class_below_p``), Q is regular (P. Hall 1934; Huppert, III.10),
       so its elements of order p form a subgroup: Q has exponent p and
       C H^p = C.  At p = 2, Q is not abelian here, so its class is >= 2.

    Only when neither decides are the p-th powers of all of H formed.
    """
    comms_held, outside = _held_words(c, h)
    if comms_held.all():
        return reduced_generators(h.parent, outside, base=c)
    if not len(outside) and _class_below_p(c, h):
        return c
    return join(c, power_subgroup(h, h.parent.p))


def _class_below_p(c: Subgroup, h: Subgroup) -> bool:
    """Whether Q = HC/C has class < p, for C normalized by H.

    Y_1 = Q, and Y_(k+1) is generated by the commutators of H's generators
    with Y_k's generators.  Commutation is bilinear from Q/gamma_2(Q) x
    gamma_k(Q)/gamma_(k+1)(Q) to the next quotient, so Y_k gamma_(k+1)(Q) =
    gamma_k(Q) by induction, and Y_k = 1 exactly when gamma_k(Q) = 1: no
    normal closure is needed.  Each Y_k is grown over C, up to Y_p; none
    goes into the commutator cache."""
    parent = c.parent
    p, degree = parent.p, parent.degree
    gens = tops = _stack(h.generators, degree)
    for _ in range(p - 1):
        seeds = commutator(gens[:, None], tops[None], p).reshape(-1, degree, degree)
        y = reduced_generators(parent, seeds, base=c)
        if y is c:
            return True
        tops = _stack(y.generators[len(c.generators):], degree)
    return False


def recursive_jennings_series(g: UnipotentGroup) -> list[Subgroup]:
    """kappa_1 = G, kappa_i = [G, kappa_(i-1)] kappa_(ceil(i/p))^p, each C H^p
    through ``join_powers``, until 1; nontrivial terms only.

    A term may equal the next (Jennings' series plateaus between p-power
    jumps), but the series reaches 1 within 4 log_p|G| + 4 steps; the bound
    guards against a recursion that does not terminate."""
    top = g.full_subgroup()
    terms = [top]
    for i in range(2, 4 * top.order_exp() + 5):
        source = -(-i // g.p)  # ceil(i / p)
        nxt = join_powers(commutator_subgroup(top, terms[-1]), terms[source - 1])
        if nxt.is_trivial():
            return terms
        terms.append(nxt)
    raise NotNormal("series failed to terminate")


class ByteLeastSection:
    """A/B' with byte-least reps and lifts, for one element at a time."""

    def __init__(self, num, den):
        self.p = num.parent.p
        self.den = join_powers(den, num)
        self.reps: list[np.ndarray] = []
        rows = elements(self.den).astype(np.uint8)
        known = set(_row_keys(rows))
        mats = elements(num)
        for key, m in sorted(zip(_row_keys(mats.astype(np.uint8)), mats),
                             key=lambda pair: pair[0]):
            if key not in known:
                rows = _extend(self.p, math.inf, rows, known, self.den.generators + self.reps, m)
                self.reps.append(m)
        self.dim = len(self.reps)
        keys = _row_keys(rows)
        size = self.den.order()
        self._block = {key: i // size for i, key in enumerate(keys)}
        self._lifts = [min(keys[i:i + size]) for i in range(0, len(keys), size)]

    def coordinatize(self, m) -> np.ndarray:
        block = self._block[np.mod(m, self.p).astype(np.uint8).tobytes()]
        return np.array([block // self.p ** i % self.p for i in range(self.dim)], dtype=np.int64)

    def lift(self, coords) -> np.ndarray:
        block = sum(int(c) * self.p ** i for i, c in enumerate(coords))
        d = self.den.parent.degree
        return np.frombuffer(self._lifts[block], dtype=np.uint8).reshape(d, d).astype(np.int64)


def one_shot_power_subgroup(a, k: int):
    """The subgroup generated by the k-th powers of all elements of a,
    formed in one stack off a's sequence."""
    parent = a.parent
    p, d = parent.p, parent.degree
    elems = np.eye(d, dtype=np.int64)[None]
    for inv in a._inv:
        elems = (inv[:, None] @ elems[None] % p).reshape(-1, d, d)
    powers = _powers(elems, k, p).reshape(len(elems), d * d)
    keys = powers.astype(np.uint8).view(np.dtype((np.void, d * d))).ravel()
    _, first = np.unique(keys, return_index=True)
    back = _conj(parent, powers[first].reshape(-1, d, d), back=True).reshape(-1, d * d)
    return reduced_generators(parent, back[np.lexsort(back.T[::-1])])


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """Byte keys of a uint8 (n, d, d) array, one per matrix, in row order."""
    flat = np.ascontiguousarray(rows).reshape(len(rows), math.prod(rows.shape[1:]))
    return flat.view(np.dtype((np.void, flat.shape[1]))).ravel().tolist()


def _extend(p: int, cap, rows: np.ndarray, known: set, gens: list[np.ndarray],
            new: np.ndarray) -> np.ndarray:
    """Rows of <H, new> for H = <gens> given as uint8 rows (Dimino's algorithm).

    The result is H followed by its right cosets H*x in the order they are
    found.  The union of the cosets found so far is the group once x*s lies
    in it for every rep x and every generator s of <H, new>; each x*s that
    does not starts a new coset, formed as one batch H @ (x*s), whose keys
    go into ``known`` at once.  The cap is checked before a coset is formed.
    """
    h64 = rows.astype(np.int64)
    steps = _stack(gens + [new], rows.shape[-1])
    chunks = [rows]
    reps = [np.eye(rows.shape[-1], dtype=np.int64)]
    for x in reps:  # reps grows while it is walked
        ys = (x @ steps) % p
        for key, y in zip(_row_keys(ys.astype(np.uint8)), ys):
            if key in known:
                continue
            if len(known) + len(rows) > cap:
                raise CapExceeded(cap, len(known) + len(rows))
            coset = ((h64 @ y) % p).astype(np.uint8)
            known.update(_row_keys(coset))
            chunks.append(coset)
            reps.append(y)
    return np.concatenate(chunks)


@dataclass
class CosetSubgroup:
    """A subgroup as its uint8 element rows, in coset-extension order, and
    the frozenset of their byte keys."""

    p: int
    generators: list
    rows: np.ndarray
    keys: frozenset

    def order(self) -> int:
        return len(self.rows)

    def contains(self, other: "CosetSubgroup") -> bool:
        return other.keys <= self.keys


def coset_trivial(p: int, degree: int) -> CosetSubgroup:
    one = np.eye(degree, dtype=np.uint8)[None]
    return CosetSubgroup(p, [], one, frozenset([one.tobytes()]))


def coset_reduced(p: int, degree: int, candidates, base: CosetSubgroup | None = None,
                  cap=math.inf) -> CosetSubgroup:
    """<base, candidates>, keeping each candidate outside the group grown so far."""
    base = base if base is not None else coset_trivial(p, degree)
    kept, rows, known = list(base.generators), base.rows, set(base.keys)
    for c in candidates:
        c = np.mod(np.asarray(c, dtype=np.int64), p)
        if c.astype(np.uint8).tobytes() in known:
            continue
        rows = _extend(p, cap, rows, known, kept, c)
        kept.append(c)
    return CosetSubgroup(p, kept, rows, frozenset(known))


def coset_join(a: CosetSubgroup, b: CosetSubgroup) -> CosetSubgroup:
    if a.contains(b):
        return a
    if b.contains(a):
        return b
    big, small = (a, b) if a.order() >= b.order() else (b, a)
    return coset_reduced(a.p, a.rows.shape[-1], small.generators, base=big)


def coset_commutator(a: CosetSubgroup, b: CosetSubgroup) -> CosetSubgroup:
    """Normal closure of the generator commutators under both generator lists."""
    p, degree = a.p, a.rows.shape[-1]
    sa, sb = _stack(a.generators, degree), _stack(b.generators, degree)
    out = coset_reduced(p, degree, commutator(sa[:, None], sb[None], p).reshape(-1, degree, degree))
    conj = np.concatenate([sa, sb])
    conj_inv = series_batch_inv(conj, p)
    while True:
        ys = int64_batch_mul(int64_batch_mul(conj_inv, _stack(out.generators, degree)[:, None], p),
                             conj, p)
        ys = ys.reshape(-1, degree, degree)
        new = [y for k, y in zip(_row_keys(ys.astype(np.uint8)), ys) if k not in out.keys]
        if not new:
            return out
        out = coset_reduced(p, degree, new, base=out)


def coset_power(a: CosetSubgroup, k: int) -> CosetSubgroup:
    acc = _powers(a.rows, k, a.p)
    flat = dict(zip(_row_keys(acc.astype(np.uint8)), acc))
    return coset_reduced(a.p, a.rows.shape[-1], [flat[key] for key in sorted(flat)])


def coset_join_powers(c: CosetSubgroup, h: CosetSubgroup) -> CosetSubgroup:
    p, degree = h.p, h.rows.shape[-1]
    gens = _stack(h.generators, degree)
    words = np.concatenate([commutator(gens[:, None], gens[None], p).reshape(-1, degree, degree),
                            _powers(gens, p, p)])
    if c.keys.issuperset(_row_keys(words.astype(np.uint8))):
        return c
    return coset_join(c, coset_power(h, p))


def coset_is_normal(sub: CosetSubgroup, outer_gens) -> bool:
    p, degree = sub.p, sub.rows.shape[-1]
    outer = _stack(outer_gens, degree)
    ys = int64_batch_mul(int64_batch_mul(series_batch_inv(outer, p)[:, None],
                                         _stack(sub.generators, degree), p), outer[:, None], p)
    return sub.keys.issuperset(_row_keys(ys.reshape(-1, degree, degree).astype(np.uint8)))


class CosetSection:
    """A/B' read off the coset layout of A grown from B' = B A^p by A's
    generators: the coordinates of an element are the base-p digits of its
    block, and the lift of c is the block's first row."""

    def __init__(self, num: CosetSubgroup, den: CosetSubgroup):
        self.p = num.p
        self.den = coset_join_powers(den, num)
        grown = coset_reduced(self.p, num.rows.shape[-1], num.generators, base=self.den)
        size = self.den.order()
        blocks = (np.arange(grown.order()) // size).tolist()
        self._coords = dict(zip(_row_keys(grown.rows), blocks))
        self._lifts = grown.rows[::size].copy()
        self.reps = grown.generators[len(self.den.generators):]
        self.dim = len(self.reps)
        self._place = self.p ** np.arange(self.dim, dtype=np.int64)

    def coordinatize(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(coords, inside) of a (k, d, d) stack, zero coordinates outside."""
        flat = np.mod(mats, self.p).astype(np.uint8)
        found = np.array([self._coords.get(key, -1) for key in _row_keys(flat)], dtype=np.int64)
        inside = found >= 0
        return np.where(inside, found, 0)[:, None] // self._place % self.p, inside

    def lift(self, coords) -> np.ndarray:
        c = np.mod(np.asarray(coords, dtype=np.int64), self.p)
        return self._lifts[c @ self._place].astype(np.int64)


def decompositions(s: Index, gens: list[Index]) -> list[tuple[Index, Index]]:
    """All (t, x) with t + x = s and x in gens, in the order of gens."""
    out = []
    for x in gens:
        t = monoid.sub(s, x)
        if t is not None:
            out.append((t, x))
    return out


def loop_generate(ambient: UnipotentGroup, dim: int, gens: dict[Index, Subgroup]) -> Filter:
    """Filter generated by an order-reversing map on a sparse support.

    Every value must be normal in the ambient group; the map must be
    order-reversing along divisibility on its own support (checked
    exactly there, the support being sparse).
    """
    dom: dict[Index, Subgroup] = {}
    for s, sub in gens.items():
        monoid.check_index(s, dim)
        if monoid.is_zero(s):
            if sub.order() != ambient.order():
                raise NotOrderReversing("index 0 must carry the full group")
            continue
        dom[s] = sub
    for s, sub in dom.items():
        if not is_normal(sub):
            raise NonNormalGenerator(f"generator at {s} is not normal")
    items = sorted(dom)
    for i, t in enumerate(items):
        below = [s for s in items[:i] if monoid.divides(s, t)]  # ascending
        for j, s in enumerate(below):
            # containment is transitive, so only covering pairs need a test
            if any(monoid.divides(s, u) for u in below[j + 1:]):
                continue
            if not dom[s].contains(dom[t]):
                raise NotOrderReversing(f"generator at {t} not inside generator at {s}")

    if not items:
        # nothing generates: trivial at every nonzero index
        units = tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))
        return Filter(ambient, dim, {}, units)

    gen_indices = items
    computed: dict[Index, Subgroup] = {}
    by_head: dict[Index, list[int]] = {}
    trivial_mins: list[Index] = []

    def lookup(t: Index) -> Subgroup | None:
        """pi at t: exact, else row-clipped, else None (trivial or unreached)."""
        if any(monoid.divides(m, t) for m in trivial_mins):
            return None
        got = computed.get(t)
        if got is not None:
            return got
        row = by_head.get(t[:-1])
        if not row:
            return None
        pos = bisect_right(row, t[-1]) - 1
        if pos < 0:
            return None
        return computed[t[:-1] + (row[pos],)]

    heap = list(gen_indices)  # sorted, so already a heap; each index enters it once
    queued = set(heap)
    while heap:
        s = heapq.heappop(heap)
        if any(monoid.divides(m, s) for m in trivial_mins):
            if s in dom and not dom[s].is_trivial():
                raise NotOrderReversing(f"domain value at {s} conflicts with triviality below it")
            continue
        parts: list[Subgroup] = []
        if s in dom:
            parts.append(dom[s])
        for t, x in decompositions(s, gen_indices):
            if monoid.is_zero(t):
                continue
            pt = lookup(t)
            if pt is None:
                continue
            parts.append(commutator_subgroup(pt, dom[x]))
        value = ambient.trivial_subgroup()
        for part in parts:
            value = join(value, part)
        if value.is_trivial():
            trivial_mins.append(s)  # no recorded minimal divides s: checked on popping it
            continue
        computed[s] = value
        by_head.setdefault(s[:-1], []).append(s[-1])
        for x in gen_indices:
            nxt = monoid.add(s, x)
            if nxt not in queued:
                queued.add(nxt)
                heapq.heappush(heap, nxt)
    return Filter(ambient, dim, computed, tuple(trivial_mins))


def generate_with_tails(ambient: UnipotentGroup, dim: int, gens: dict[Index, Subgroup],
                          persistent: tuple[Index, ...] = ()) -> Filter:
    """Filter generated by an order-reversing map on a sparse support.

    Every value must be normal in the ambient group; the map must be
    order-reversing along divisibility on its own support (checked
    exactly there, the support being sparse).

    Heads listed in ``persistent`` name rows (indices agreeing in all but
    the last coordinate) whose final recorded value holds at every larger
    last coordinate as well.  Explicitly enumerating the tail would make
    the support infinite, so the tail enters through its one dominant
    decomposition: for a target s past the row end, the tail entries at
    (h, j) contribute [pi_{s-(h,j)}, tail] for every admissible j, and
    since pi rows descend, the j = s[-1] term (t-part (s[:-1]-h, 0))
    contains all the others.  Likewise lookups of t-parts past a computed
    row clip back to the last computed entry of that row.
    """
    dom: dict[Index, Subgroup] = {}
    for s, sub in gens.items():
        monoid.check_index(s, dim)
        if monoid.is_zero(s):
            if sub.order() != ambient.order():
                raise NotOrderReversing("index 0 must carry the full group")
            continue
        dom[s] = sub
    for s, sub in dom.items():
        if not is_normal(sub):
            raise NonNormalGenerator(f"generator at {s} is not normal")
    items = sorted(dom)
    for i, t in enumerate(items):
        below = [s for s in items[:i] if monoid.divides(s, t)]  # ascending
        for j, s in enumerate(below):
            # containment is transitive, so only covering pairs need a test
            if any(monoid.divides(s, u) for u in below[j + 1:]):
                continue
            if not dom[s].contains(dom[t]):
                raise NotOrderReversing(f"generator at {t} not inside generator at {s}")

    if not items:
        # nothing generates: trivial at every nonzero index
        units = tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))
        return Filter(ambient, dim, {}, units)

    tails: dict[Index, tuple[int, Subgroup]] = {}
    for h in persistent:
        js = [s[-1] for s in items if s[:-1] == h]
        if not js:
            raise ValueError(f"persistent head {h} has no recorded entries")
        tails[h] = (max(js), dom[h + (max(js),)])

    gen_indices = items
    computed: dict[Index, Subgroup] = {}
    by_head: dict[Index, list[int]] = {}
    trivial_mins: list[Index] = []

    def lookup(t: Index) -> Subgroup | None:
        """pi at t: exact, else row-clipped, else None (trivial or unreached)."""
        if any(monoid.divides(m, t) for m in trivial_mins):
            return None
        got = computed.get(t)
        if got is not None:
            return got
        row = by_head.get(t[:-1])
        if not row:
            return None
        pos = bisect_right(row, t[-1]) - 1
        if pos < 0:
            return None
        return computed[t[:-1] + (row[pos],)]

    heap = list(gen_indices)  # sorted, so already a heap; each index enters it once
    queued = set(heap)
    while heap:
        s = heapq.heappop(heap)
        if any(monoid.divides(m, s) for m in trivial_mins):
            if s in dom and not dom[s].is_trivial():
                raise NotOrderReversing(f"domain value at {s} conflicts with triviality below it")
            continue
        parts: list[Subgroup] = []
        if s in dom:
            parts.append(dom[s])
        for t, x in decompositions(s, gen_indices):
            if monoid.is_zero(t):
                continue
            pt = lookup(t)
            if pt is None:
                continue
            parts.append(commutator_subgroup(pt, dom[x]))
        for h, (maxj, tail) in tails.items():
            if s[-1] <= maxj:
                continue
            th = monoid.sub(s[:-1], h)
            if th is None:
                continue
            t = th + (0,)
            if monoid.is_zero(t):
                parts.append(tail)
                continue
            pt = lookup(t)
            if pt is not None:
                parts.append(commutator_subgroup(pt, tail))
        value = ambient.trivial_subgroup()
        for part in parts:
            value = join(value, part)
        if value.is_trivial():
            if not any(monoid.divides(m, s) for m in trivial_mins):
                trivial_mins.append(s)
            continue
        computed[s] = value
        by_head.setdefault(s[:-1], []).append(s[-1])
        for x in gen_indices:
            nxt = monoid.add(s, x)
            if nxt not in queued:
                queued.add(nxt)
                heapq.heappush(heap, nxt)
    return Filter(ambient, dim, computed, tuple(trivial_mins))


def compact(f: Filter) -> Filter:
    """Drop coordinates that are zero on all recorded indices."""
    used = [
        i for i in range(f.dim)
        if any(s[i] for s in f.keys) or any(t[i] for t in f.trivial_minimals)
    ]
    if len(used) == f.dim:
        return f
    if not used:
        used = [f.dim - 1]

    def proj(s: Index) -> Index:
        return tuple(s[i] for i in used)

    supp = {proj(s): v for s, v in f.support.items()}
    mins = tuple(proj(t) for t in f.trivial_minimals)
    return Filter(f.ambient, len(used), supp, mins)


def array_norm(f, p: int) -> np.ndarray:
    f = np.mod(np.asarray(f, dtype=np.int64), p)
    nz = np.flatnonzero(f)
    return f[: nz[-1] + 1] if nz.size else f[:0]


def array_monic(f, p: int) -> np.ndarray:
    f = array_norm(f, p)
    return f * inv_mod(f[-1], p) % p if f.size else f


def array_add(f, g, p: int) -> np.ndarray:
    out = np.zeros(max(len(f), len(g)), dtype=np.int64)
    out[: len(f)] += f
    out[: len(g)] += g
    return array_norm(out, p)


def array_mul(f, g, p: int) -> np.ndarray:
    if not (len(f) and len(g)):
        return np.zeros(0, dtype=np.int64)
    return array_norm(np.convolve(f, g), p)


def array_divmod(f, g, p: int) -> tuple[np.ndarray, np.ndarray]:
    g = array_norm(g, p)
    if not g.size:
        raise ZeroDivisionError("polynomial division by zero")
    r = array_norm(f, p).copy()
    k = len(g) - 1
    if len(r) - 1 < k:
        return np.zeros(0, dtype=np.int64), r
    inv = inv_mod(g[-1], p)
    q = np.zeros(len(r) - k, dtype=np.int64)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + k] * inv % p
        if c:
            q[i] = c
            r[i:i + k + 1] = (r[i:i + k + 1] - c * g) % p
    return array_norm(q, p), array_norm(r[:k], p)


def array_gcd(f, g, p: int) -> np.ndarray:
    f, g = array_norm(f, p), array_norm(g, p)
    while g.size:
        f, g = g, array_divmod(f, g, p)[1]
    return array_monic(f, p)


def array_powmod(f, e: int, g, p: int) -> np.ndarray:
    base = array_divmod(f, g, p)[1]
    out = array_divmod([1], g, p)[1]
    while e:
        if e & 1:
            out = array_divmod(array_mul(out, base, p), g, p)[1]
        e >>= 1
        if e:
            base = array_divmod(array_mul(base, base, p), g, p)[1]
    return out


def array_charpoly(b: np.ndarray, p: int) -> np.ndarray:
    """Monic characteristic polynomial det(xI - b) of a square matrix."""
    h = np.mod(np.asarray(b, dtype=np.int64), p)
    n = h.shape[0]
    # Hessenberg form: clear column j below the subdiagonal with the row
    # operations T and the matching column operations T^-1
    for j in range(n - 2):
        below = np.flatnonzero(h[j + 1:, j])
        if not below.size:
            continue
        i = j + 1 + int(below[0])
        if i != j + 1:
            h[[i, j + 1]] = h[[j + 1, i]]
            h[:, [i, j + 1]] = h[:, [j + 1, i]]
        m = h[j + 2:, j] * inv_mod(h[j + 1, j], p) % p
        if m.any():
            h[j + 2:] = (h[j + 2:] - np.outer(m, h[j + 1])) % p
            h[:, j + 1] = (h[:, j + 1] + h[:, j + 2:] @ m) % p
    # polys[m] is the characteristic polynomial of the leading m x m block:
    # expanding along its last column gives
    # polys[m] = (x - h[m-1, m-1]) polys[m-1]
    #            - sum_i h[m-1-i, m-1] h[m-1, m-2] ... h[m-i, m-i-1] polys[m-1-i]
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    for m in range(1, n + 1):
        cur = np.roll(polys[m - 1], 1) - h[m - 1, m - 1] * polys[m - 1]
        t = 1
        for i in range(1, m):
            t = t * int(h[m - i, m - i - 1]) % p
            if not t:
                break
            cur = cur - (t * int(h[m - 1 - i, m - 1]) % p) * polys[m - 1 - i]
        polys[m] = cur % p
    return polys[n]


_X = np.array([0, 1], dtype=np.int64)


def array_distinct_degree(f, p: int) -> list[tuple[np.ndarray, int]]:
    out = []
    rest, xpow, d = f, _X, 0
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        xpow = array_powmod(xpow, p, rest, p)
        h = array_gcd(rest, array_add(xpow, -_X, p), p)
        if len(h) > 1:
            out.append((h, d))
            g = h
            while len(g) > 1:
                rest = array_divmod(rest, g, p)[0]
                g = array_gcd(rest, h, p)
            xpow = array_divmod(xpow, rest, p)[1]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def array_berlekamp(f, d: int, p: int) -> list[np.ndarray]:
    k = len(f) - 1
    r = k // d
    if r == 1:
        return [f]
    xp = array_powmod(_X, p, f, p)
    q = np.zeros((k, k), dtype=np.int64)
    row = np.ones(1, dtype=np.int64)
    for i in range(k):
        q[i, : len(row)] = row
        row = array_divmod(array_mul(row, xp, p), f, p)[1]
    factors = [f]
    for h in nullspace((q - np.eye(k, dtype=np.int64)).T, p):
        if len(factors) == r:
            break
        split = []
        for u in factors:
            if len(u) - 1 == d:
                split.append(u)
                continue
            parts = (array_gcd(u, array_add(h, [-s], p), p) for s in range(p))
            split += [g for g in parts if len(g) > 1]
        factors = split
    return factors


def array_factor(f, p: int) -> list[np.ndarray]:
    out = [u for h, d in array_distinct_degree(array_monic(f, p), p)
           for u in array_berlekamp(h, d, p)]
    return sorted(out, key=lambda u: (len(u), u.tolist()))


def array_is_irreducible(f, p: int) -> bool:
    f = array_monic(f, p)
    if len(f) < 2:
        return False
    xpow = _X
    for _ in range((len(f) - 1) // 2):
        xpow = array_powmod(xpow, p, f, p)
        if len(array_gcd(f, array_add(xpow, -_X, p), p)) > 1:
            return False
    return True


def spin_check_certificate(factor_data, p: int) -> bool:
    n, cert = factor_data.dim, factor_data.certificate
    if cert[0] == "allvec":
        return n == 1
    if cert[0] != "norton" or len(cert) != 3:
        return False
    gens = as_array(factor_data.action, p).reshape(-1, n, n)
    c, f = as_array(cert[1], p), np.asarray(cert[2], dtype=np.int64)
    if c.shape != (gens.shape[0],) or f.ndim != 1 or not is_irreducible(f, p):
        return False
    a = at_matrix(f, _dot(c, gens.reshape(c.size, n * n), p).reshape(n, n), p)
    null = nullspace(a.T, p)
    return (null.shape[0] == degree(norm(f, p))
            and spin(null[0], gens, p).shape[0] == n
            and spin(nullspace(a, p)[0], gens.transpose(0, 2, 1), p).shape[0] == n)
