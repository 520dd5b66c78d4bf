"""Finite unipotent matrix groups over Z_p and their standard series.

Elements are d x d unipotent matrices with entries in [0, p) (p must fit
in a byte).  Every product goes through ``modlinalg._dot``, the library's
one product mod p, which runs small products in int64 and large ones in
float64 BLAS, exact either way.  Inverses double (``batch_inv``), and one
read-only identity per degree (``_eye``) serves every product that starts
from I.
A subgroup is held as a polycyclic sequence, never as its list of elements.

The ambient group must be a p-group: the full flag of row vectors its
generators fix (``_fixes_full_flag``) has a basis T that makes every
element x upper unitriangular as T x T^-1.  Sequences live in these flag
coordinates; every matrix a caller sees is in input coordinates.  T = I
for ``make_ut`` and ``make_heisenberg``.

Order the positions above the diagonal by height j - i, then by row; an
element's depth is its first nonzero position.  Two elements that vanish
below height k add their height-k entries when multiplied, so the elements
of depth >= delta form a normal subgroup of UT(d, p), each of index p in
the one before.  A subgroup H thus has a sequence with one element h of
leading entry 1 at each depth where H meets that series in a new step;
every element of H is h_1^e_1 ... h_n^e_n (depths ascending) for unique
0 <= e_i < p, so |H| = p^n.  Each h keeps a table of h^-e and h^e for
0 <= e < p.  Sifting x (multiplying it by h^-e at each depth, e its entry
there) yields those exponents and a residue that is 1 exactly when x lies
in H, with one batched product per depth for a stack.  Membership, order,
joins, commutator and power subgroups, normality and section coordinates
all sift; the reverse, the element with given exponents
(``Subgroup.elements``), multiplies the h^e rows left to right and gives
section lifts with no inverse.  The ambient group owns the order cap, and
every later subgroup lies inside it.

The sequence and the kept generators depend on how H was reached.  Its
canonical sequence does not: the element of H at each of its depths whose
entries at the other depths are 0, the analogue of an rref basis (Holt,
Eick, O'Brien, Handbook of Computational Group Theory, 8.3).  H prints,
hashes and compares by it.

A commutator of two stacks of one shape is (b a)^-1 (a b), one inverse.
Commutator subgroups use the normal-closure identity [<S>,<T>] =
<[s,t] : s in S, t in T>^<S,T> (conjugation by the generators suffices),
with the generator inverses that each subgroup forms once and keeps.  A
product C H^p with HC/C abelian, as in every eta step (C = [G, H] holds
[H, H]) and the denominator of every section, is C grown by H's
generator p-th powers.  The Jennings series is read off the lower
central series by Lazard's formula, from generator powers alone.  So no
series, section or refinement forms a subgroup's elements; only
``power_subgroup``, which none of them calls, lists them, in blocks of
bounded size.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from itertools import product

import numpy as np

from .errors import CapExceeded, DimensionMismatch, NotAbelianSection, NotNormal
from .modlinalg import Subspace, _dot, _reduce, check_prime, inv_matrix, inv_mod, nullspace, rref

DEFAULT_CAP = 2**20
MAX_DEGREE = 256


def check_degree(degree: int, what: str = "degree") -> None:
    """Reject a matrix degree outside 1..MAX_DEGREE before any d x d array exists.

    The groups this library is built for have degree a few dozen at most
    (H(R) has degree 3 dim R); the bound turns a typo such as 100000 into an
    input error instead of a 10 to 80 GB identity matrix.
    """
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"{what} must be between 1 and {MAX_DEGREE}, not {degree}")


def _as_mat(m, p: int, degree: int) -> np.ndarray:
    a = np.mod(np.asarray(m, dtype=np.int64), p)
    if a.shape != (degree, degree):
        raise DimensionMismatch(f"matrix shape {a.shape}, expected {(degree, degree)}")
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only in place."""
    a.flags.writeable = False
    return a


@functools.cache
def _eye(d: int) -> np.ndarray:
    """The int64 identity of degree d: one read-only array per degree."""
    return _frozen(np.eye(d, dtype=np.int64))


def batch_inv(a: np.ndarray, p: int) -> np.ndarray:
    """Inverses of a stack of unipotent matrices, by doubling.

    M = I - a is nilpotent, M^d = 0, and the product telescopes:
    (I - M)(I + M)(I + M^2) ... (I + M^(2^(j-1))) = I - M^(2^j).  So a^-1
    is (I + M)(I + M^2)(I + M^4) ... up to the first M^(2^j) = 0, which
    comes by 2^j >= d: at most ceil(log2 d) - 1 squarings, each with one
    product into the result, in every characteristic."""
    d = a.shape[-1]
    eye = _eye(d)
    m = _reduce(eye - a, p)
    acc = _reduce(eye + m, p)
    span = 2
    while span < d:
        m = _dot(m, m, p)
        if not m.any():
            break
        acc = _reduce(acc + _dot(acc, m, p), p)
        span *= 2
    return acc


def commutator(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a^-1 b^-1 a b for two matrices, or for two stacks that broadcast.

    Two stacks of one shape take one inverse, as (b a)^-1 (a b).  Stacks
    that broadcast to a larger one, such as an outer product of k and m
    matrices, are inverted apart: k + m inverses cost less than k m."""
    ab = _dot(a, b, p)
    if a.shape == b.shape:
        return _dot(batch_inv(_dot(b, a, p), p), ab, p)
    return _dot(_dot(batch_inv(a, p), batch_inv(b, p), p), ab, p)


def _commutators(a: np.ndarray, a_inv: np.ndarray, b: np.ndarray, b_inv: np.ndarray,
                 p: int) -> np.ndarray:
    """[s, t] = s^-1 t^-1 s t for every s of stack a and t of stack b (s
    major), a (k, m, d, d) stack, from the inverse stacks a caller holds."""
    return _dot(_dot(a_inv[:, None], b_inv[None], p), _dot(a[:, None], b[None], p), p)


def _powers(a: np.ndarray, k: int, p: int) -> np.ndarray:
    """a^k mod p (k >= 1) for a matrix or a stack, by square-and-multiply
    over the bits of k below the leading one; int64 for int64 a."""
    acc = a
    for bit in bin(k)[3:]:
        acc = _dot(acc, acc, p)
        if bit == "1":
            acc = _dot(acc, a, p)
    return acc


def _power_table(a: np.ndarray, p: int) -> np.ndarray:
    """a^0, ..., a^(p-1) as one int64 (p, d, d) array, for a reduced a."""
    table = np.empty((p,) + a.shape, dtype=np.int64)
    table[0], table[1] = _eye(len(a)), a
    for e in range(2, p):
        table[e] = _dot(table[e - 1], a, p)
    return table


def _tables(h_inv: np.ndarray, h_p: np.ndarray, p: int) -> np.ndarray:
    """The uint8 (2p, d, d) table of a sequence element h, from h^-1 and
    h^p: h^-e in row e and h^e in row p + e (0 <= e < p).  The forward
    half is one batched product, h^e = h^-(p-e) h^p."""
    inv = _power_table(h_inv, p)
    table = np.empty((2 * p,) + h_inv.shape, dtype=np.uint8)
    table[:p], table[p] = inv, _eye(len(h_inv))
    table[p + 1:] = _dot(inv[:0:-1], h_p, p)
    return table


def _stack(gens, degree: int) -> np.ndarray:
    """A generator list as one int64 (k, d, d) stack; k may be 0."""
    return np.array(gens, dtype=np.int64).reshape(-1, degree, degree)


def _is_one(x: np.ndarray) -> np.ndarray:
    """Which matrices of a (k, d, d) stack are the identity."""
    return (x == _eye(x.shape[-1])).all(axis=(1, 2))


def _fixes_full_flag(gens: list[np.ndarray], p: int, degree: int) -> np.ndarray | None:
    """The basis T of the flag 0 < V_1 < ... < V_m = Z_p^d of row vectors,
    V_{k+1} = {v : v (g - I) in V_k for every g}, or None when it stalls
    below Z_p^d, which happens exactly when the generators do not generate a
    p-group.  V_k is the null space of its annihilator: A_0 = I, and A_{k+1}
    spans the rows of A_k (g - I)^T over all g.  T lists the rref rows of
    each V_k whose pivots V_{k-1} lacks, V_m's first and V_1's last, so
    t_i (g - I) lies in span(t_{i+1}, ..., t_d).  Nothing is enumerated.
    """
    eye = np.eye(degree, dtype=np.int64)
    steps = ((_stack(gens, degree) - eye) % p).transpose(0, 2, 1)
    ann, layers, seen = eye, [], set()
    while len(ann):
        r, pivots = rref(_dot(ann, steps, p).reshape(-1, degree), p)
        if len(pivots) == len(ann):
            return None
        ann = r
        space = nullspace(ann, p)
        lead = np.argmax(space != 0, axis=1).tolist()
        layers.append(space[[i for i, c in enumerate(lead) if c not in seen]])
        seen.update(lead)
    return np.concatenate(layers[::-1])


def _depth_positions(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the positions above the diagonal, in depth order."""
    rows, cols = np.triu_indices(d, 1)
    order = np.lexsort((rows, cols - rows))
    return rows[order], cols[order]


def _conj(parent: UnipotentGroup, x: np.ndarray, back: bool = False) -> np.ndarray:
    """A fresh int64 copy of a stack mod p, in flag coordinates T x T^-1, or
    with ``back`` from flag to input coordinates."""
    p = parent.p
    x = _reduce(x, p)
    if parent._flag is None:
        return x
    a, b = (parent._unflag, parent._flag) if back else (parent._flag, parent._unflag)
    return _dot(_dot(a, x, p), b, p)


class UnipotentGroup:
    """Ambient group: closure of unipotent generator matrices over Z_p."""

    def __init__(self, p: int, degree: int, generators, name: str = "", cap: int = DEFAULT_CAP):
        check_prime(p)
        if p > 251:
            raise ValueError("p must fit in one byte")
        check_degree(degree)
        self.p, self.degree, self.name, self.cap = p, degree, name, cap
        gens = [_as_mat(g, p, degree) for g in generators]
        flag = _fixes_full_flag(gens, p, degree)
        if flag is None:
            raise ValueError(f"generators do not generate a p-group (p = {p})")
        moved = not np.array_equal(flag, np.eye(degree, dtype=np.int64))
        self._flag, self._unflag = (flag, inv_matrix(flag, p)) if moved else (None, None)
        self._rows, self._cols = _depth_positions(degree)
        self._trivial = Subgroup(self, [], [], [], [])
        self.generators = gens
        full = reduced_generators(self, gens)
        self._full = Subgroup(self, gens, full._depths, full._seq, full._tab)
        self._comm_cache: dict = {}

    def order(self) -> int:
        return self._full.order()

    def full_subgroup(self) -> "Subgroup":
        return self._full

    def trivial_subgroup(self) -> "Subgroup":
        """The one trivial subgroup object of this group, shared like
        ``full_subgroup()``: no code changes a subgroup's lists in place."""
        return self._trivial

    def __repr__(self):
        label = self.name or "group"
        return f"UnipotentGroup({label}, p={self.p}, degree={self.degree}, order={self.order()})"


class Subgroup:
    """A subgroup of a UnipotentGroup, held as a polycyclic sequence:
    elements ``_seq`` in flag coordinates, their ascending ``_depths``, and
    their uint8 (2p, d, d) tables ``_tab``: h^0, h^-1, ..., h^-(p-1) in
    rows 0..p-1, for ``_sift``, and h^0, h^1, ..., h^(p-1) in rows
    p..2p-1, for ``elements``.

    The kept ``generators`` and ``_seq`` depend on how the subgroup was
    reached; its canonical sequence (``canonical``) does not.  Subgroups
    are equal, and hash alike, when their ambient groups share p, degree
    and flag basis and their canonical sequences are equal; the bytes of
    all four and their hash are formed once per subgroup.  So are the
    generators as one int64 stack (``_gen_stack``) and that stack's
    inverses (``_gen_inv``), both read-only, for commutator subgroups,
    normality and section checks.

    ``_normal`` is True once the subgroup is known to be normal in its
    ambient group: ``is_normal`` sets it on a passed check, and
    ``filters.generate`` on every value it builds.  It belongs to the
    object, not to its value, so an equal subgroup built afresh is checked
    again.
    """

    __slots__ = ("parent", "generators", "_depths", "_seq", "_tab", "_canon", "_canon_key",
                 "_hash", "_gens", "_gens_inv", "_normal")

    def __init__(self, parent: UnipotentGroup, generators, depths: list[int],
                 seq: list[np.ndarray], tab: list[np.ndarray]):
        self.parent = parent
        self.generators = list(generators)
        self._depths, self._seq, self._tab = depths, seq, tab
        self._canon = self._canon_key = self._hash = self._gens = self._gens_inv = None
        self._normal = False

    def order(self) -> int:
        return self.parent.p ** len(self._depths)

    def order_exp(self) -> int:
        return len(self._depths)

    def is_trivial(self) -> bool:
        return not self._depths

    def _gen_stack(self) -> np.ndarray:
        """The kept generators as one read-only int64 (k, d, d) stack."""
        if self._gens is None:
            self._gens = _frozen(_stack(self.generators, self.parent.degree))
        return self._gens

    def _gen_inv(self) -> np.ndarray:
        """The inverses of ``_gen_stack``, read-only, formed on first use."""
        if self._gens_inv is None:
            self._gens_inv = _frozen(batch_inv(self._gen_stack(), self.parent.p))
        return self._gens_inv

    def _sift(self, x: np.ndarray, own: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Exponents (k, len) and residues (k, d, d) of a flag-coordinate
        stack x, which is sifted in place: x = h_1^e_1 ... h_n^e_n r.
        With ``own``, x is a copy of the sequence and element k skips
        depth k, so that it keeps its leading entry."""
        parent = self.parent
        exps = np.zeros((len(x), len(self._depths)), dtype=np.int64)
        for k, (depth, tab) in enumerate(zip(self._depths, self._tab)):
            e = x[:, parent._rows[depth], parent._cols[depth]].copy()
            if own:
                e[k] = 0
            hit = e.nonzero()[0]
            if hit.size:
                x[hit] = _dot(tab[e[hit]], x[hit], parent.p)
            exps[:, k] = e
        return exps, x

    def _holds(self, mats) -> np.ndarray:
        """Which matrices of a stack (input coordinates) lie in the subgroup."""
        x = _conj(self.parent, _stack(mats, self.parent.degree))
        return _is_one(self._sift(x)[1])

    def contains(self, other: "Subgroup") -> bool:
        """Whether other <= self: sift other's generators, unless other is
        self, trivial, or of larger order."""
        if other is self or not other._depths:
            return True
        if len(other._depths) > len(self._depths):
            return False
        return bool(self._holds(other._gen_stack()).all())

    def elements(self, exps) -> np.ndarray:
        """The elements h_1^e_1 ... h_n^e_n, in input coordinates, of a
        (..., len) stack of exponent vectors over the sequence."""
        p, d = self.parent.p, self.parent.degree
        e = np.mod(np.asarray(exps, dtype=np.int64), p)
        acc = None
        for k, tab in enumerate(self._tab):
            if e[..., k].any():  # a zero exponent everywhere contributes I
                h = tab[p + e[..., k]]
                acc = h.astype(np.int64) if acc is None else _dot(acc, h, p)
        if acc is None:
            acc = np.broadcast_to(_eye(d), e.shape[:-1] + (d, d))
        return _conj(self.parent, acc, back=True)

    def _canonical(self) -> np.ndarray:
        """The canonical sequence, a (len, d, d) int64 stack in flag
        coordinates: at each depth of the sequence, the element of the
        subgroup with entry 1 there and 0 at the sequence's other depths.
        A left product by a power of h keeps the entries before h's depth,
        so sifting the sequence through itself, each element skipping its
        own depth, clears them in one pass.  Two such elements at one depth
        differ by an element whose leading entry, at a depth of the
        sequence, is the difference of theirs, 0; so the sequence depends
        on the subgroup alone."""
        if self._canon is None:
            d = self.parent.degree
            seq = np.array(self._seq, dtype=np.int64).reshape(-1, d, d)
            self._canon = self._sift(seq, own=True)[1]
        return self._canon

    def canonical(self) -> np.ndarray:
        """The canonical sequence in input coordinates, as a fresh stack."""
        return _conj(self.parent, self._canonical(), back=True)

    def _key(self) -> tuple:
        if self._canon_key is None:
            parent = self.parent
            flag = b"" if parent._flag is None else parent._flag.tobytes()
            self._canon_key = (parent.p, parent.degree, flag,
                               self._canonical().astype(np.uint8).tobytes())
        return self._canon_key

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and (self is other or self._key() == other._key())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self):
        return f"Subgroup(order={self.order()}, degree={self.parent.degree}, p={self.parent.p})"


def _grow(sub: Subgroup, x: np.ndarray, generators: list[np.ndarray]) -> Subgroup:
    """<sub, x> for a flag-coordinate stack x, with the given generators:
    a residue that does not sift to 1 goes in at its depth, scaled to
    leading entry 1, and its commutators with every element and its p-th
    power are sifted in turn.  Only the ambient build can reach the cap."""
    parent = sub.parent
    p = parent.p
    out = Subgroup(parent, generators, list(sub._depths), list(sub._seq), list(sub._tab))
    queue = x
    while len(queue):
        res = out._sift(queue)[1]
        res = res[~_is_one(res)]
        if not len(res):
            break
        r = res[0]
        depth = int(r[parent._rows, parent._cols].nonzero()[0][0])
        lead = int(r[parent._rows[depth], parent._cols[depth]])
        if lead != 1:
            r = _powers(r, inv_mod(lead, p), p)
        k = bisect_left(out._depths, depth)
        out._depths.insert(k, depth)
        out._seq.insert(k, r)
        r_inv, r_p = batch_inv(r, p), _powers(r, p, p)
        out._tab.insert(k, _tables(r_inv, r_p, p))
        if out.order() > parent.cap:
            raise CapExceeded(parent.cap, out.order())
        # [r, h] = r^-1 h^-1 r h, with each h^-1 read off its table
        h_inv = np.stack([tab[1] for tab in out._tab])
        comms = _dot(_dot(r_inv, h_inv, p), _dot(r, np.stack(out._seq), p), p)
        queue = np.concatenate([res[1:], comms, r_p[None]])
    return out


def reduced_generators(parent: UnipotentGroup, candidates: list[np.ndarray],
                       base: Subgroup | None = None) -> Subgroup:
    """The subgroup <base, candidates>, generated by base's generators and
    each candidate that enlarges it (greedy generator thinning).  The
    undecided candidates are sifted as one stack; the first one outside is
    kept, and the rest sift on from their residues."""
    out = base if base is not None else parent.trivial_subgroup()
    kept = list(out.generators)
    cands = _reduce(_stack(candidates, parent.degree), parent.p)
    left = _conj(parent, cands)
    i = 0
    while i < len(cands):
        res = out._sift(left[i:])[1]
        fresh = (~_is_one(res)).nonzero()[0]
        if not fresh.size:
            break
        i += int(fresh[0])
        kept.append(cands[i].copy())  # a view would keep all of cands alive
        out = _grow(out, left[i][None], kept)
        i += 1
    return out


def join(a: Subgroup, b: Subgroup) -> Subgroup:
    """Subgroup generated by a and b together: the larger grown by the
    smaller's generators, so the larger itself when it holds them."""
    big, small = (a, b) if a.order() >= b.order() else (b, a)
    return reduced_generators(a.parent, small.generators, base=big)


def commutator_subgroup(a: Subgroup, b: Subgroup) -> Subgroup:
    """[a, b]: closure of all commutators between the two subgroups.

    Computed as the normal closure of generator-pair commutators under
    conjugation by the generators of both arguments, whose inverses each
    argument holds.
    """
    parent = a.parent
    p, degree = parent.p, parent.degree
    cached = parent._comm_cache.get((a, b))
    if cached is not None:
        return cached
    seeds = _commutators(a._gen_stack(), a._gen_inv(), b._gen_stack(), b._gen_inv(), p)
    out = reduced_generators(parent, seeds.reshape(-1, degree, degree))
    conj = np.concatenate([a._gen_stack(), b._gen_stack()])
    conj_inv = np.concatenate([a._gen_inv(), b._gen_inv()])
    while True:
        ys = _dot(_dot(conj_inv, out._gen_stack()[:, None], p), conj, p)
        grown = reduced_generators(parent, ys.reshape(-1, degree, degree), base=out)
        if grown is out:
            break
        out = grown
    parent._comm_cache[(a, b)] = parent._comm_cache[(b, a)] = out
    return out


# the elements power_subgroup forms at once, counted in matrix entries
POWER_BLOCK = 1 << 20


def _element_blocks(a: Subgroup, size: int):
    """The elements of a (flag coordinates, int64) in stacks of at most
    max(1, size // d^2) elements.  The first m sequence tables are
    multiplied out once into an inner stack of p^m elements; each product
    of the remaining tables, one exponent tuple at a time, times that stack
    is one block."""
    p, d = a.parent.p, a.parent.degree
    m = 0
    while m < len(a._tab) and p ** (m + 1) * d * d <= size:
        m += 1
    inner = _eye(d)[None]
    for tab in a._tab[:m]:  # every h_m^-e_m ... h_1^-e_1, off the inverse rows
        inner = _dot(tab[:p, None], inner[None], p).reshape(-1, d, d)
    for exps in product(range(p), repeat=len(a._tab) - m):
        outer = _eye(d)
        for tab, e in zip(a._tab[m:], exps):
            outer = _dot(tab[e], outer, p)
        yield _dot(outer, inner, p)


def power_subgroup(a: Subgroup, k: int) -> Subgroup:
    """Subgroup generated by all k-th powers (k >= 1) of elements of a.

    The elements are formed off a's sequence in blocks of at most
    POWER_BLOCK entries; between blocks only the distinct powers are kept,
    as flag-coordinate byte keys.

    No series, section or refinement calls it.  It stays because the
    package exports it and ``perfbench/tracer.py`` names it."""
    if k < 1:
        raise ValueError(f"power exponent {k} is not positive")
    parent = a.parent
    p, d = parent.p, parent.degree
    keys = np.empty(0, dtype=np.dtype((np.void, d * d)))
    for elems in _element_blocks(a, POWER_BLOCK):
        powers = _powers(elems, k, p).astype(np.uint8).reshape(len(elems), d * d)
        keys = np.unique(np.concatenate([keys, powers.view(keys.dtype).ravel()]))
    powers = keys.view(np.uint8).reshape(-1, d, d).astype(np.int64)
    back = _conj(parent, powers, back=True).reshape(-1, d * d)
    # sorted by their bytes, so that the kept generators, and so the work
    # that later steps do with them, do not depend on the order of the elements
    return reduced_generators(parent, back[np.lexsort(back.T[::-1])])


def _held_words(c: Subgroup, h: Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """Which of H's generator commutators [h_i, h_j] (i major) lie in C, and
    the stack of H's generator p-th powers that do not; one sift for both."""
    p, degree = h.parent.p, h.parent.degree
    gens, inv = h._gen_stack(), h._gen_inv()
    k = len(gens)
    powers = _powers(gens, p, p)
    held = c._holds(np.concatenate([
        _commutators(gens, inv, gens, inv, p).reshape(-1, degree, degree), powers]))
    return held[:k * k], powers[~held[k * k:]]


def is_normal(sub: Subgroup, ambient: Subgroup | None = None) -> bool:
    """Normality check by conjugating generators by generators.

    Without ``ambient`` the check is normality in the ambient group, and
    it is made once per subgroup object: a pass is kept in ``sub._normal``,
    and a subgroup already marked returns at once.  A call with an
    explicit ``ambient`` always sifts, and neither reads nor writes the
    mark."""
    if ambient is None and sub._normal:
        return True
    parent = sub.parent
    p, degree = parent.p, parent.degree
    outer = ambient if ambient is not None else parent.full_subgroup()
    ys = _dot(_dot(outer._gen_inv()[:, None], sub._gen_stack(), p), outer._gen_stack()[:, None], p)
    ok = bool(sub._holds(ys.reshape(-1, degree, degree)).all())
    if ambient is None:
        sub._normal = ok
    return ok


def _series(g: UnipotentGroup, powers: bool = False) -> list[Subgroup]:
    """term_1 = G, term_i = [G, term_(i-1)], grown with ``powers`` by the
    p-th powers of term_(i-1)'s generators, until 1; nontrivial terms only.

    With H = term_(i-1) and C = [G, H] >= [H, H], HC/C is abelian, so
    (xy)^p = x^p y^p modulo C and C H^p is C grown by H's generator p-th
    powers (Huppert, Endliche Gruppen I, III.10).  Each term is smaller than
    the one before, so 1 comes within log_p|G| + 1 steps; the bound guards
    against a recursion that does not terminate."""
    top = g.full_subgroup()
    terms = [top]
    for _ in range(top.order_exp() + 1):
        nxt = commutator_subgroup(top, terms[-1])
        if powers:
            nxt = reduced_generators(g, _powers(terms[-1]._gen_stack(), g.p, g.p), base=nxt)
        if nxt.is_trivial():
            return terms
        terms.append(nxt)
    raise NotNormal("series failed to terminate")


def lower_central_series(g: UnipotentGroup) -> list[Subgroup]:
    """gamma_1 = G, gamma_{i+1} = [G, gamma_i]; nontrivial terms only."""
    return _series(g)


def exponent_p_central_series(g: UnipotentGroup) -> list[Subgroup]:
    """eta_1 = G, eta_{i+1} = [G, eta_i] * eta_i^p; nontrivial terms only."""
    return _series(g, powers=True)


def jennings_series(g: UnipotentGroup) -> list[Subgroup]:
    """kappa_1 = G, kappa_n = [G, kappa_(n-1)] kappa_(ceil(n/p))^p;
    nontrivial terms only, and a term may equal the next.

    Lazard's formula, kappa_n = prod over i p^j >= n of gamma_i^(p^j) (Ann.
    Sci. ENS 71, 1954; Dixon, du Sautoy, Mann, Segal, Analytic Pro-p Groups,
    ch. 11), gives the terms from the top index down as kappa_n = <gamma_n,
    kappa_(n+1), x^(p^j) : x a kept generator of gamma_i, i p^j = n, j >= 1>:

    1. By the formula, each of these lies in kappa_n.
    2. Conversely, L = sum kappa_n / kappa_(n+1) is a restricted Lie
       algebra whose p-map a -> a^[p], from x -> x^p, takes degree i to ip.
    3. Gamma_i's generators span its image in degree i.  By Jacobson's
       formula, a p^j-th power of a combination of them is the same
       combination of their p^j-th powers plus Lie terms, which lie in
       gamma_n's image by ad(a^[p]) = ad(a)^p and [gamma_i, gamma_k] <=
       gamma_(i+k) (a p-th power of such a term expands in turn).
    4. So gamma_n and the listed powers span kappa_n / kappa_(n+1), and
       downward induction on n finishes the proof.

    The top index is the larger of len(gamma) and the largest i p^j with a
    generator power x^(p^j) != 1; above it every one is 1, and so is kappa_n.
    """
    p = g.p
    gamma = lower_central_series(g)
    powers: dict[int, list[np.ndarray]] = {}
    for i, term in enumerate(gamma, start=1):
        x, n = term._gen_stack(), i
        while True:
            x = _powers(x, p, p)
            x = x[~_is_one(x)]
            if not len(x):
                break
            n *= p
            powers.setdefault(n, []).extend(x)
    trivial = g.trivial_subgroup()
    terms = [trivial]  # kappa_(n+1), from the top index down
    for n in range(max([len(gamma), *powers]), 1, -1):
        base = join(gamma[n - 1] if n <= len(gamma) else trivial, terms[-1])
        terms.append(reduced_generators(g, powers.get(n, []), base=base))
    return [g.full_subgroup()] + terms[:0:-1]


class SectionBasis:
    """Z_p coordinates on a section A/B' where B' = B * (p-th powers of A).

    Enlarging the denominator by p-th powers makes the section a Z_p
    vector space.  B must be normal in A with A/B abelian, as in every
    filter section; both are checked on generators.  As A/B is abelian,
    (xy)^p = x^p y^p modulo B, so B' is B grown by A's generator p-th powers
    outside B (Huppert, Endliche Gruppen I, III.10), which is B itself for
    every section of an eta or kappa filter.

    B''s sequence, with A's own elements at the depths B' lacks, is a
    sequence of A: an element of A with leading entry 1 at each of A's n
    depths, so its p^n products are distinct and are all of A.  The reps
    r_1..r_j (``reps``, an int64 stack in input coordinates) are A's
    elements at those depths, a pcgs of A modulo B' (Holt, Eick, O'Brien,
    Handbook, 8.3).  As B' is the kernel of the abelian A -> A/B', an
    element's coordinates are its exponents at the reps' depths.  The lift
    of c is r_1^c_1 ... r_j^c_j: the element of that sequence with exponents
    c at the reps' depths and 0 at B''s, formed by ``Subgroup.elements``.
    """

    def __init__(self, num: Subgroup, den: Subgroup):
        parent = num.parent
        if not num.contains(den):
            raise ValueError("denominator is not inside numerator")
        comms_held, outside = _held_words(den, num)
        if not comms_held.all():
            raise NotAbelianSection("section numerator/denominator is not abelian")
        if not is_normal(den, num):
            raise NotNormal("section denominator is not normal in the numerator")
        self.parent, self.num, self.den_given = parent, num, den
        self.den = reduced_generators(parent, outside, base=den)
        at = dict(zip(self.den._depths, zip(self.den._seq, self.den._tab)))
        pairs = [at.get(depth, pair) for depth, pair in zip(num._depths, zip(num._seq, num._tab))]
        self._pcgs = Subgroup(parent, num.generators, num._depths,
                              [s for s, _ in pairs], [t for _, t in pairs])
        self._new = [k for k, depth in enumerate(num._depths) if depth not in at]
        self.reps = _conj(parent, _stack([num._seq[k] for k in self._new], parent.degree),
                          back=True)
        self.dim = len(self.reps)

    def coordinatize(self, m):
        """Coordinates of a matrix, or of each matrix of a stack.

        Entries are reduced mod p first.  A (d, d) matrix gives its (dim,)
        coordinates and raises ValueError outside the numerator.  A
        (..., d, d) stack gives ``(coords, inside)``: the (..., dim)
        coordinates, zero for an outsider, and the mask of the matrices
        inside the numerator, so that each outsider can be reported.
        """
        d = self.parent.degree
        m = np.asarray(m, dtype=np.int64)
        if m.shape[-2:] != (d, d):
            raise DimensionMismatch(f"matrix shape {m.shape[-2:]}, expected {(d, d)}")
        exps, res = self._pcgs._sift(_conj(self.parent, m.reshape(-1, d, d)))
        inside = _is_one(res)
        coords = np.where(inside[:, None], exps[:, self._new], 0)
        if m.ndim == 2:
            if not inside[0]:
                raise ValueError("element is not in the section numerator")
            return coords[0]
        lead = m.shape[:-2]
        return coords.reshape(lead + (self.dim,)), inside.reshape(lead)

    def lift(self, coords) -> np.ndarray:
        """The element r_1^c_1 ... r_j^c_j of the coset of B' with
        coordinates c (taken mod p); a (..., dim) stack of coordinates gives
        a (..., d, d) stack of lifts."""
        c = np.asarray(coords, dtype=np.int64)
        if c.shape[-1:] != (self.dim,):
            raise DimensionMismatch(f"expected {self.dim} coordinates")
        exps = np.zeros(c.shape[:-1] + (len(self._pcgs._depths),), dtype=np.int64)
        exps[..., self._new] = c
        return self._pcgs.elements(exps)

    def preimage(self, space: Subspace) -> Subgroup:
        """Subgroup of elements whose coordinates land in the subspace."""
        return reduced_generators(self.parent, self.lift(space.basis), base=self.den)


def make_ut(d: int, p: int, cap: int = DEFAULT_CAP) -> UnipotentGroup:
    """Full upper unitriangular group UT(d, p) from transvection generators."""
    check_degree(d, "UT degree")
    gens = [np.eye(d, dtype=np.int64) for _ in range(d - 1)]
    for i, m in enumerate(gens):
        m[i, i + 1] = 1
    return UnipotentGroup(p, d, gens, name=f"UT({d},{p})", cap=cap)


def make_heisenberg(ring, cap: int = DEFAULT_CAP) -> UnipotentGroup:
    """H(R) as block 3m x 3m unipotent matrices via the regular representation.

    Elements are [[I, M_a, M_c], [0, I, M_b], [0, 0, I]] with a, b, c in R;
    the group law works out to (a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab').
    The generators take a = e_i, then b = e_i, for each basis element e_i;
    by commutativity M_{e_i} is the table slice ring.table[i].
    """
    p, m = ring.p, ring.dim
    d = 3 * m
    check_degree(d, "H(R) degree 3 * dim R")
    gens = []
    for i in range(m):
        for block in (0, 1):
            g = np.eye(d, dtype=np.int64)
            r0, c0 = (0, m) if block == 0 else (m, 2 * m)
            g[r0:r0 + m, c0:c0 + m] = ring.table[i]
            gens.append(g)
    name = f"H({ring.name})" if getattr(ring, "name", "") else "H(R)"
    return UnipotentGroup(p, d, gens, name=name, cap=cap)


def group_from_spec(spec: dict, cap: int = DEFAULT_CAP) -> UnipotentGroup:
    """Build a group from the JSON wire format (row-major generator entries).

    ``p`` and ``degree`` must be integers, ``generators`` a list of integer
    lists and the optional ``name`` a string; nothing is coerced.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"group spec must be a JSON object, not {type(spec).__name__}")
    missing = [key for key in ("p", "degree", "generators") if key not in spec]
    if missing:
        raise ValueError(f"group spec lacks {', '.join(map(repr, missing))}")
    for key in ("p", "degree"):
        if type(spec[key]) is not int:  # a bool, float or string is not coerced
            raise ValueError(f"group spec {key!r} must be an integer, not {spec[key]!r}")
    p, degree = spec["p"], spec["degree"]
    check_degree(degree, "group spec 'degree'")
    flats = spec["generators"]
    if not (isinstance(flats, list)
            and all(isinstance(f, list) and all(type(x) is int for x in f) for f in flats)):
        raise ValueError("group spec 'generators' must be a list of integer lists")
    name = spec.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"group spec 'name' must be a string, not {name!r}")
    gens = []
    for flat in flats:
        try:
            a = np.asarray(flat, dtype=np.int64)
        except OverflowError:
            raise ValueError("group spec 'generators' entries must fit in 64 bits") from None
        if a.size != degree * degree:
            raise DimensionMismatch(f"generator has {a.size} entries, expected {degree * degree}")
        gens.append(a.reshape(degree, degree))
    return UnipotentGroup(p, degree, gens, name=name, cap=cap)


def group_to_spec(g: UnipotentGroup) -> dict:
    return {
        "p": g.p,
        "degree": g.degree,
        "generators": [[int(x) for x in gen.reshape(-1)] for gen in g.generators],
        "name": g.name,
    }
