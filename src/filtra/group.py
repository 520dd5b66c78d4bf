"""Finite unipotent matrix groups over Z_p and their standard series.

Elements are d x d unipotent matrices with entries in [0, p), stored as
uint8 arrays (p must fit in a byte) and multiplied in int64 to avoid
overflow.  A subgroup holds its elements as uint8 rows, in the order coset
extension produced them, and as the frozenset of their row-major byte
keys; two subgroups are equal when their key sets are.  Nothing is sorted
except the power-subgroup candidates, whose order shows in the output.

Every subgroup is grown one generator at a time by coset extension
(Dimino's algorithm): given H enumerated and a new element g, <H, g> is H
followed by its right cosets H*x, each found by one key lookup per
(coset rep, generator) and formed as one batched product.  The ambient
group owns the element cap: its enumeration is checked against the cap
before each coset is formed, and since every later subgroup (join,
commutator, power, section, preimage) lies inside it, none of them takes a
cap of its own.  The ambient group must be a p-group; that is decided from
its generators before anything is enumerated, by the full flag of row
vectors they must fix.
Commutator subgroups use the normal-closure identity
[<S>,<T>] = <[s,t] : s in S, t in T>^<S,T> (conjugation by the generators
suffices); the exhaustive element-pair version lives in the test oracles
(``tests/oracles.py``) and is only feasible at toy sizes.

Products C H^p with C normalized by H (the eta and Jennings series steps,
and the denominator of a section) go through ``join_powers``.  On an
abelian quotient x -> x^p is a homomorphism, so when every generator
commutator and every generator p-th power of H lies in C, H^p <= C and the
product is C itself; that is one stacked product and one key-set test.
Only when the test fails are the p-th powers of all elements of H formed
(``power_subgroup``), e.g. for a Jennings step with odd p whose H is not
abelian modulo C, or for a section A/B whose A^p is not inside B.  The
result is the same subgroup object either way, since ``join`` returns C
when C contains H^p.

In the section layer (``SectionBasis``) the denominator B contains
[A,A] A^p, so B is normal in the numerator A with A/B elementary abelian.
Extending a group H between B and A by r in A therefore gives exactly the
cosets H, H*r, ..., H*r^(p-1), in that order, and every group between B
and A is a union of cosets B r_1^c_1 ... r_j^c_j (0 <= c_i < p) laid out
in that order.  A section grows A from B' by A's own generators, so no
element of A is searched for a rep, and its coordinates and lifts are read
off that layout.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded, DimensionMismatch, NotAbelianSection, NotNormal
from .modlinalg import Subspace, check_prime, rref

DEFAULT_CAP = 2**20
MAX_DEGREE = 256


def check_degree(degree: int, what: str = "degree") -> None:
    """Reject a matrix degree outside 1..MAX_DEGREE before any d x d array exists.

    The element cap bounds how many elements are enumerated, not how large
    each one is: an element of degree d is held as d^2 bytes in ``rows``,
    d^2 more in its key, and 8 d^2 in the int64 products of coset
    extension.  At d = 256 that is 640 KiB per element, so a group of a
    thousand elements already needs more than 600 MB, while the groups this
    library is built for have degree a few dozen at most (H(R) has degree
    3 dim R).  The bound keeps all of those and turns a typo such as 100000
    into an input error instead of a 10 to 80 GB identity matrix.  Degree 0
    and below name no group at all.
    """
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"{what} must be between 1 and {MAX_DEGREE}, not {degree}")


def _as_mat(m, p: int, degree: int) -> np.ndarray:
    a = np.mod(np.asarray(m, dtype=np.int64), p)
    if a.shape != (degree, degree):
        raise DimensionMismatch(f"matrix shape {a.shape}, expected {(degree, degree)}")
    return a


def batch_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(..., d, d) @ (..., d, d) mod p, computed exactly in int64."""
    return (a.astype(np.int64) @ b.astype(np.int64)) % p


def batch_inv(a: np.ndarray, p: int) -> np.ndarray:
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


def commutator(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a^-1 b^-1 a b for two matrices, or for two stacks that broadcast."""
    return batch_mul(batch_mul(batch_inv(a, p), batch_inv(b, p), p), batch_mul(a, b, p), p)


def _powers(a: np.ndarray, k: int, p: int) -> np.ndarray:
    """a^k mod p (k >= 1) for a matrix or a stack, by square-and-multiply
    over the bits of k below the leading one; int64."""
    mats = a.astype(np.int64)
    acc = mats
    for bit in bin(k)[3:]:
        acc = (acc @ acc) % p
        if bit == "1":
            acc = (acc @ mats) % p
    return acc


def _stack(gens, degree: int) -> np.ndarray:
    """A generator list as one int64 (k, d, d) stack; k may be 0."""
    return np.array(gens, dtype=np.int64).reshape(-1, degree, degree)


def _fixes_full_flag(gens: list[np.ndarray], p: int, degree: int) -> bool:
    """Whether the generators fix a full flag 0 = V_0 < V_1 < ... < V_d = Z_p^d
    of row vectors, where V_{k+1} = {v : v (g - I) in V_k for every g}.

    They do exactly when they generate a p-group: a p-subgroup of GL(d, p)
    is conjugate into the upper unitriangular group, and a group that fixes
    such a flag is too.  V_k is the null space of its annihilator A_k, the
    rows a with v a^T = 0 for every v in V_k: A_0 = I, and A_{k+1} spans the
    rows of A_k (g - I)^T over all g, one rref per step.  The flag is full
    once A_k is empty; it stalls below Z_p^d when the rank of A_k stops
    falling.  No element is enumerated.
    """
    eye = np.eye(degree, dtype=np.int64)
    steps = ((_stack(gens, degree) - eye) % p).transpose(0, 2, 1)
    ann = eye
    while len(ann):
        r, pivots = rref((ann @ steps).reshape(-1, degree), p)
        if len(pivots) == len(ann):
            return False
        ann = r[:len(pivots)]
    return True


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """Byte keys of a uint8 (n, d, d) array, one per matrix, in row order."""
    flat = np.ascontiguousarray(rows).reshape(len(rows), math.prod(rows.shape[1:]))
    return flat.view(np.dtype((np.void, flat.shape[1]))).ravel().tolist()


def _extend(parent: UnipotentGroup, rows: np.ndarray, known: set, gens: list[np.ndarray],
            new: np.ndarray) -> np.ndarray:
    """Rows of <H, new> for H = <gens> given as uint8 rows (Dimino's algorithm).

    The result is H followed by its right cosets H*x in the order they are
    found.  The union of the cosets found so far is the group once x*s lies
    in it for every rep x and every generator s of <H, new>; each x*s that
    does not starts a new coset, formed as one batch H @ (x*s), whose keys
    go into ``known`` at once.  The parent's cap is checked before a coset
    is formed.
    """
    p, cap = parent.p, parent.cap
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


class UnipotentGroup:
    """Ambient group: closure of unipotent generator matrices over Z_p."""

    def __init__(self, p: int, degree: int, generators, name: str = "", cap: int = DEFAULT_CAP):
        check_prime(p)
        if p > 251:
            raise ValueError("p must fit in one byte")
        check_degree(degree)
        self.p = p
        self.degree = degree
        self.name = name
        self.cap = cap
        gens = [_as_mat(g, p, degree) for g in generators]
        if not _fixes_full_flag(gens, p, degree):
            raise ValueError(f"generators do not generate a p-group (p = {p})")
        self.generators = gens
        full = reduced_generators(self, gens)
        self._full = Subgroup(self, gens, full.rows, full.keys)
        self._comm_cache: dict = {}

    def order(self) -> int:
        return self._full.order()

    def full_subgroup(self) -> "Subgroup":
        return self._full

    def trivial_subgroup(self) -> "Subgroup":
        one = np.eye(self.degree, dtype=np.uint8)[None]
        return Subgroup(self, [], one, frozenset([one.tobytes()]))

    def subgroup(self, gens) -> "Subgroup":
        gens = [_as_mat(g, self.p, self.degree) for g in gens]
        sub = reduced_generators(self, gens)
        return Subgroup(self, gens, sub.rows, sub.keys)

    def __repr__(self):
        label = self.name or "group"
        return f"UnipotentGroup({label}, p={self.p}, degree={self.degree}, order={self.order()})"


class Subgroup:
    """A subgroup of a UnipotentGroup, fully enumerated.

    ``rows`` is a read-only uint8 (order, d, d) array of the elements in the
    order coset extension produced them; ``keys`` is the frozenset of their
    byte keys.  Subgroups of one ambient group are equal exactly when their
    key sets are, and hash by them.
    """

    __slots__ = ("parent", "generators", "rows", "keys")

    def __init__(self, parent: UnipotentGroup, generators, rows: np.ndarray, keys: frozenset):
        self.parent = parent
        self.generators = [np.mod(np.asarray(g, dtype=np.int64), parent.p) for g in generators]
        rows.setflags(write=False)
        self.rows = rows
        self.keys = keys

    def order(self) -> int:
        return len(self.rows)

    def order_exp(self) -> int:
        n = len(self.rows)
        e = 0
        while n > 1:
            n //= self.parent.p
            e += 1
        return e

    def is_trivial(self) -> bool:
        return len(self.rows) == 1

    def contains(self, other: "Subgroup") -> bool:
        return other.keys <= self.keys

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent.p == other.parent.p
            and self.parent.degree == other.parent.degree
            and self.keys == other.keys
        )

    def __hash__(self):
        return hash(self.keys)

    def __repr__(self):
        return f"Subgroup(order={self.order()}, degree={self.parent.degree}, p={self.parent.p})"


def reduced_generators(parent: UnipotentGroup, candidates: list[np.ndarray],
                       base: Subgroup | None = None) -> Subgroup:
    """The subgroup <base, candidates>, generated by base's generators and
    each candidate that enlarges it (greedy generator thinning).

    The group grows from ``base`` (or the trivial group) by one coset
    extension per kept candidate, under the parent's element cap.  Kept
    lists stay O(log_p |result|), and so does the number of generators each
    extension steps through.
    """
    p = parent.p
    if base is None:
        base = parent.trivial_subgroup()
    kept = list(base.generators)
    rows = base.rows
    known = set(base.keys)
    for c in candidates:
        c = np.mod(np.asarray(c, dtype=np.int64), p)
        if c.astype(np.uint8).tobytes() in known:
            continue
        rows = _extend(parent, rows, known, kept, c)
        kept.append(c)
    return Subgroup(parent, kept, rows, frozenset(known))


def join(a: Subgroup, b: Subgroup) -> Subgroup:
    """Subgroup generated by a and b together."""
    if a.contains(b):
        return a
    if b.contains(a):
        return b
    big, small = (a, b) if a.order() >= b.order() else (b, a)
    return reduced_generators(a.parent, small.generators, base=big)


def commutator_subgroup(a: Subgroup, b: Subgroup) -> Subgroup:
    """[a, b]: closure of all commutators between the two subgroups.

    Computed as the normal closure of generator-pair commutators under
    conjugation by the generators of both arguments.
    """
    parent = a.parent
    p, degree = parent.p, parent.degree
    key = (a.keys, b.keys)
    cached = parent._comm_cache.get(key)
    if cached is not None:
        return cached
    sa, sb = _stack(a.generators, degree), _stack(b.generators, degree)
    seeds = commutator(sa[:, None], sb[None], p).reshape(-1, degree, degree)
    out = reduced_generators(parent, seeds)
    conj = np.concatenate([sa, sb])
    conj_inv = batch_inv(conj, p)
    while True:
        ys = batch_mul(batch_mul(conj_inv, _stack(out.generators, degree)[:, None], p), conj, p)
        ys = ys.reshape(-1, degree, degree)
        new = [y for k, y in zip(_row_keys(ys.astype(np.uint8)), ys) if k not in out.keys]
        if not new:
            break
        out = reduced_generators(parent, new, base=out)
    parent._comm_cache[key] = out
    parent._comm_cache[(b.keys, a.keys)] = out
    return out


def power_subgroup(a: Subgroup, k: int) -> Subgroup:
    """Subgroup generated by all k-th powers (k >= 1) of elements of a."""
    if k < 1:
        raise ValueError(f"power exponent {k} is not positive")
    acc = _powers(a.rows, k, a.parent.p)
    # sorted, so that the kept generators (printed for kappa terms) do not
    # depend on the row order of a
    flat = dict(zip(_row_keys(acc.astype(np.uint8)), acc))
    return reduced_generators(a.parent, [flat[key] for key in sorted(flat)])


def join_powers(c: Subgroup, h: Subgroup) -> Subgroup:
    """C H^p for a subgroup C normalized by H; equal to
    ``join(c, power_subgroup(h, p))``, generators included.

    When every generator commutator and every generator p-th power of H lies
    in C, HC/C is generated by commuting images of order p, so it is
    elementary abelian and H^p <= C: the answer is C itself, which is also
    what ``join`` returns when its first argument contains the second.  That
    takes one stacked product and one key-set test instead of enumerating the
    p-th power of every element of H.  Otherwise the powers are enumerated.
    """
    parent = h.parent
    p, degree = parent.p, parent.degree
    gens = _stack(h.generators, degree)
    words = np.concatenate([commutator(gens[:, None], gens[None], p).reshape(-1, degree, degree),
                            _powers(gens, p, p)])
    if c.keys.issuperset(_row_keys(words.astype(np.uint8))):
        return c
    return join(c, power_subgroup(h, p))


def is_normal(sub: Subgroup, ambient: Subgroup | None = None) -> bool:
    """Normality check by conjugating generators by generators."""
    parent = sub.parent
    p, degree = parent.p, parent.degree
    outer = _stack(ambient.generators if ambient is not None else parent.generators, degree)
    ys = batch_mul(batch_mul(batch_inv(outer, p)[:, None], _stack(sub.generators, degree), p),
                   outer[:, None], p)
    return sub.keys.issuperset(_row_keys(ys.reshape(-1, degree, degree).astype(np.uint8)))


def lower_central_series(g: UnipotentGroup) -> list[Subgroup]:
    """gamma_1 = G, gamma_{i+1} = [G, gamma_i]; nontrivial terms only."""
    top = g.full_subgroup()
    terms = [top]
    while not terms[-1].is_trivial():
        nxt = commutator_subgroup(top, terms[-1])
        if nxt.order() == terms[-1].order():
            raise NotNormal("series failed to descend; input is not nilpotent?")
        if nxt.is_trivial():
            break
        terms.append(nxt)
    return terms


def exponent_p_central_series(g: UnipotentGroup) -> list[Subgroup]:
    """eta_1 = G, eta_{i+1} = [G, eta_i] * eta_i^p; nontrivial terms only."""
    top = g.full_subgroup()
    terms = [top]
    while not terms[-1].is_trivial():
        nxt = join_powers(commutator_subgroup(top, terms[-1]), terms[-1])
        if nxt.order() == terms[-1].order():
            raise NotNormal("series failed to descend")
        if nxt.is_trivial():
            break
        terms.append(nxt)
    return terms


def jennings_series(g: UnipotentGroup) -> list[Subgroup]:
    """kappa_1 = G, kappa_i = [G, kappa_{i-1}] * kappa_{ceil(i/p)}^p."""
    top = g.full_subgroup()
    p = g.p
    terms = [top]
    # kappa may plateau (kappa_i = kappa_{i+1} between p-power jumps) but must
    # reach 1; the bound guards against a non-terminating recursion.
    bound = 4 * top.order_exp() + 4
    i = 1
    while not terms[-1].is_trivial():
        i += 1
        if i > bound:
            raise NotNormal("jennings series failed to terminate")
        half = terms[-(-i // p) - 1]
        nxt = join_powers(commutator_subgroup(top, terms[-1]), half)
        if nxt.is_trivial():
            break
        terms.append(nxt)
    return terms


class SectionBasis:
    """Z_p coordinates on a section A/B' where B' = B * (p-th powers of A).

    Enlarging the denominator by p-th powers makes the section an
    elementary abelian p-group, hence a Z_p vector space.  B must be normal
    in A with A/B abelian, as in every filter section; both are checked on
    generators.  B' is ``join_powers(B, A)``: since A/B is abelian, it is B
    itself as soon as the p-th powers of A's generators lie in B, which
    holds for every section of an eta or kappa filter.  Only otherwise, as
    for the cyclic group of a 3 x 3 Jordan block over F_2 over 1, is A^p
    enumerated and joined to B.  Then B' contains [A,A] A^p, so every group
    H between B' and A is normal in A, and extending H by a rep r gives the
    cosets H, H*r, ..., H*r^(p-1) in that order.

    The reps r_1..r_j are A's generators, in order, that enlarge B' and the
    reps before them, so A is grown from B' by ``reduced_generators``.  The
    coordinates of an element are the base-p digits of its coset's block in
    that layout, so coordinatizing is a dict lookup, and the lift of c is
    the first row of its block, r_1^c_1 ... r_j^c_j.  Both take one element
    or a whole stack at a time.  Any choice of reps gives the same
    preimages, which grow from B' the same way.
    """

    def __init__(self, num: Subgroup, den: Subgroup):
        parent = num.parent
        p = parent.p
        if not num.contains(den):
            raise ValueError("denominator is not inside numerator")
        gens = _stack(num.generators, parent.degree)
        comms = commutator(gens[:, None], gens[None], p).reshape(-1, parent.degree, parent.degree)
        if not den.keys.issuperset(_row_keys(comms.astype(np.uint8))):
            raise NotAbelianSection("section numerator/denominator is not abelian")
        if not is_normal(den, num):
            raise NotNormal("section denominator is not normal in the numerator")
        self.parent = parent
        self.num = num
        self.den_given = den
        self.den = join_powers(den, num)
        self.p = p

        # Grown from B', the numerator is a run of blocks of len(B') rows,
        # the cosets of B'.  Growing n blocks by r puts block b times r^k at
        # b + k*n, so with reps r_1..r_j block b is B' r_1^c_1...r_j^c_j for
        # c the base-p digits of b, and since B' starts with the identity,
        # that product is the block's first row.
        grown = reduced_generators(parent, num.generators, base=self.den)
        size = self.den.order()
        blocks = (np.arange(grown.order()) // size).tolist()
        self._coords: dict[bytes, int] = dict(zip(_row_keys(grown.rows), blocks))
        self._lifts = grown.rows[::size].copy()
        self.reps = grown.generators[len(self.den.generators):]
        self.dim = len(self.reps)
        self._place = p ** np.arange(self.dim, dtype=np.int64)

    def coordinatize(self, m):
        """Coordinates of a matrix, or of each matrix of a stack.

        Entries are reduced mod p first.  A (d, d) matrix gives its (dim,)
        coordinates and raises ValueError when it lies outside the
        numerator.  A (..., d, d) stack gives ``(coords, inside)``: the
        (..., dim) coordinates, zero for an outsider, and the boolean mask
        of the matrices inside the numerator, so that a caller can report
        each outsider on its own.
        """
        d = self.parent.degree
        m = np.mod(np.asarray(m, dtype=np.int64), self.p)
        if m.shape[-2:] != (d, d):
            raise DimensionMismatch(f"matrix shape {m.shape[-2:]}, expected {(d, d)}")
        flat = m.reshape(-1, d, d).astype(np.uint8)
        found = np.array([self._coords.get(key, -1) for key in _row_keys(flat)], dtype=np.int64)
        inside = found >= 0
        coords = np.where(inside, found, 0)[:, None] // self._place % self.p
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
        c = np.mod(np.asarray(coords, dtype=np.int64), self.p)
        if c.shape[-1:] != (self.dim,):
            raise DimensionMismatch(f"expected {self.dim} coordinates")
        return self._lifts[c @ self._place].astype(np.int64)

    def preimage(self, space: Subspace) -> Subgroup:
        """Subgroup of elements whose coordinates land in the subspace."""
        lifts = [self.lift(row) for row in space.basis]
        return reduced_generators(self.parent, lifts, base=self.den)


def make_ut(d: int, p: int, cap: int = DEFAULT_CAP) -> UnipotentGroup:
    """Full upper unitriangular group UT(d, p) from transvection generators."""
    check_degree(d, "UT degree")
    gens = []
    for i in range(d - 1):
        m = np.eye(d, dtype=np.int64)
        m[i, i + 1] = 1
        gens.append(m)
    return UnipotentGroup(p, d, gens, name=f"UT({d},{p})", cap=cap)


def make_heisenberg(ring, cap: int = DEFAULT_CAP) -> UnipotentGroup:
    """H(R) as block 3m x 3m unipotent matrices via the regular representation.

    Elements are [[I, M_a, M_c], [0, I, M_b], [0, 0, I]] with a, b, c in R;
    the group law works out to (a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab').
    """
    p, m = ring.p, ring.dim
    d = 3 * m
    check_degree(d, "H(R) degree 3 * dim R")
    gens = []
    for i in range(m):
        mul = ring.mult_matrix(ring.basis_vector(i))
        for block in (0, 1):
            g = np.eye(d, dtype=np.int64)
            r0, c0 = (0, m) if block == 0 else (m, 2 * m)
            g[r0:r0 + m, c0:c0 + m] = mul
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
