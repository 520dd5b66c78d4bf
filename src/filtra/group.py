"""Finite unipotent matrix groups over Z_p and their standard series.

Elements are d x d unipotent matrices with entries in [0, p), stored as
uint8 arrays (p must fit in a byte) and multiplied in int64 to avoid
overflow.  Element sets are kept sorted by row-major byte order, so a
set has one canonical layout; the lexicographically least matrix of a
coset is therefore just the first one found in sorted order.

Every subgroup is grown one generator at a time by coset extension
(Dimino's algorithm): given H enumerated and a new element g, <H, g> is H
followed by its right cosets H*x, each found by one key lookup per
(coset rep, generator) and formed as one batched product.  The element
count is checked against a configurable cap before each coset is formed.
Commutator subgroups use the normal-closure identity
[<S>,<T>] = <[s,t] : s in S, t in T>^<S,T> (conjugation by the generators
suffices); the exhaustive element-pair version lives in the oracles
module and is only feasible at toy sizes.

In the section layer (``SectionBasis``) the denominator B contains
[A,A] A^p, so B is normal in the numerator A with A/B elementary abelian.
Extending a group H between B and A by r in A therefore gives exactly the
cosets H, H*r, ..., H*r^(p-1), in that order, and every group between B
and A is a union of cosets B r_1^c_1 ... r_j^c_j (0 <= c_i < p) laid out
in that order.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import CapExceeded, DimensionMismatch, NotAbelianSection, NotNormal
from .modlinalg import Subspace, check_prime

DEFAULT_CAP = 2**20


def _as_mat(m, p: int, degree: int) -> np.ndarray:
    a = np.mod(np.asarray(m, dtype=np.int64), p)
    if a.shape != (degree, degree):
        raise DimensionMismatch(f"matrix shape {a.shape}, expected {(degree, degree)}")
    return a


def is_unipotent(m: np.ndarray, p: int) -> bool:
    d = m.shape[0]
    n = (m.astype(np.int64) - np.eye(d, dtype=np.int64)) % p
    acc = n.copy()
    for _ in range(d - 1):
        if not acc.any():
            return True
        acc = (acc @ n) % p
    return not acc.any()


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


def _stack(gens, degree: int) -> np.ndarray:
    """A generator list as one int64 (k, d, d) stack; k may be 0."""
    return np.array(gens, dtype=np.int64).reshape(-1, degree, degree)


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """Byte keys of a uint8 (n, d, d) array, one per matrix, in row order."""
    flat = np.ascontiguousarray(rows).reshape(len(rows), math.prod(rows.shape[1:]))
    return flat.view(np.dtype((np.void, flat.shape[1]))).ravel().tolist()


class ElementSet:
    """An immutable, canonically sorted set of group elements."""

    __slots__ = ("p", "degree", "array", "_keys", "_digest")

    def __init__(self, p: int, degree: int, mats: np.ndarray):
        self.p = p
        self.degree = degree
        mats = np.asarray(mats).reshape(-1, degree, degree).astype(np.uint8)
        keys = _row_keys(mats)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self.array = mats[order]
        self.array.setflags(write=False)
        self._keys = frozenset(keys)
        h = hashlib.blake2b(digest_size=16)
        h.update(f"{p}:{degree}:".encode())
        h.update(self.array.tobytes())
        self._digest = h.hexdigest()

    def __len__(self) -> int:
        return len(self.array)

    def __contains__(self, item) -> bool:
        if isinstance(item, bytes):
            return item in self._keys
        return np.asarray(item, dtype=np.uint8).tobytes() in self._keys

    @property
    def digest(self) -> str:
        return self._digest

    @property
    def keys(self) -> frozenset:
        return self._keys

    def mats64(self) -> np.ndarray:
        return self.array.astype(np.int64)

    def least(self) -> np.ndarray:
        return self.array[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, ElementSet) and self._digest == other._digest

    def __hash__(self):
        return hash(self._digest)


def _extend(p: int, rows: np.ndarray, known: set, gens: list[np.ndarray], new: np.ndarray,
            cap: int) -> np.ndarray:
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


class UnipotentGroup:
    """Ambient group: closure of unipotent generator matrices over Z_p."""

    def __init__(self, p: int, degree: int, generators, name: str = "", cap: int = DEFAULT_CAP):
        check_prime(p)
        if p > 251:
            raise ValueError("p must fit in one byte")
        self.p = p
        self.degree = degree
        self.name = name
        self.cap = cap
        gens = [_as_mat(g, p, degree) for g in generators]
        for g in gens:
            if not is_unipotent(g, p):
                raise ValueError("generator is not unipotent")
        self.generators = gens
        self.elements = reduced_generators(p, degree, gens, cap)[1]
        self._join_cache: dict = {}
        self._comm_cache: dict = {}
        self._power_cache: dict = {}
        self._full = None

    @property
    def identity(self) -> np.ndarray:
        return np.eye(self.degree, dtype=np.int64)

    def order(self) -> int:
        return len(self.elements)

    def full_subgroup(self) -> "Subgroup":
        if self._full is None:
            self._full = Subgroup(self, self.generators, self.elements)
        return self._full

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, [], ElementSet(self.p, self.degree, self.identity[None]))

    def subgroup(self, gens, cap: int | None = None) -> "Subgroup":
        gens = [_as_mat(g, self.p, self.degree) for g in gens]
        _, elems = reduced_generators(self.p, self.degree, gens, cap or self.cap)
        return Subgroup(self, gens, elems)

    def __repr__(self):
        label = self.name or "group"
        return f"UnipotentGroup({label}, p={self.p}, degree={self.degree}, order={self.order()})"


class Subgroup:
    """A subgroup of a UnipotentGroup, fully enumerated."""

    __slots__ = ("parent", "generators", "elements")

    def __init__(self, parent: UnipotentGroup, generators, elements: ElementSet):
        self.parent = parent
        self.generators = [np.mod(np.asarray(g, dtype=np.int64), parent.p) for g in generators]
        self.elements = elements

    def order(self) -> int:
        return len(self.elements)

    def order_exp(self) -> int:
        n = len(self.elements)
        e = 0
        while n > 1:
            n //= self.parent.p
            e += 1
        return e

    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    @property
    def digest(self) -> str:
        return self.elements.digest

    def contains_element(self, m) -> bool:
        return m in self.elements

    def contains(self, other: "Subgroup") -> bool:
        return other.elements.keys <= self.elements.keys

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent.p == other.parent.p
            and self.parent.degree == other.parent.degree
            and self.digest == other.digest
        )

    def __hash__(self):
        return hash(self.digest)

    def __repr__(self):
        return f"Subgroup(order={self.order()}, degree={self.parent.degree}, p={self.parent.p})"


def reduced_generators(p: int, degree: int, candidates: list[np.ndarray], cap: int,
                       base: Subgroup | None = None) -> tuple[list[np.ndarray], ElementSet]:
    """Greedy generator thinning: keep a candidate only if it enlarges the group.

    The group grows from ``base`` (or the trivial group) by one coset
    extension per kept candidate.  Kept lists stay O(log_p |result|), and
    so does the number of generators each extension steps through.
    """
    if base is None:
        kept: list[np.ndarray] = []
        rows = np.eye(degree, dtype=np.uint8)[None]
    else:
        kept = list(base.generators)
        rows = base.elements.array
    known = set(_row_keys(rows))
    for c in candidates:
        c = np.mod(np.asarray(c, dtype=np.int64), p)
        if c.astype(np.uint8).tobytes() in known:
            continue
        rows = _extend(p, rows, known, kept, c, cap)
        kept.append(c)
    return kept, ElementSet(p, degree, rows)


def join(a: Subgroup, b: Subgroup, cap: int | None = None) -> Subgroup:
    """Subgroup generated by a and b together."""
    parent = a.parent
    cap = cap or parent.cap
    if a.contains(b):
        return a
    if b.contains(a):
        return b
    key = ("join",) + tuple(sorted((a.digest, b.digest)))
    cached = parent._join_cache.get(key)
    if cached is not None:
        return cached
    big, small = (a, b) if len(a.elements) >= len(b.elements) else (b, a)
    kept, elems = reduced_generators(parent.p, parent.degree, small.generators, cap, base=big)
    out = Subgroup(parent, kept, elems)
    parent._join_cache[key] = out
    return out


def commutator_subgroup(a: Subgroup, b: Subgroup, cap: int | None = None) -> Subgroup:
    """[a, b]: closure of all commutators between the two subgroups.

    Computed as the normal closure of generator-pair commutators under
    conjugation by the generators of both arguments.
    """
    parent = a.parent
    p, degree = parent.p, parent.degree
    cap = cap or parent.cap
    key = (a.digest, b.digest)
    cached = parent._comm_cache.get(key)
    if cached is not None:
        return cached
    sa, sb = _stack(a.generators, degree), _stack(b.generators, degree)
    seeds = commutator(sa[:, None], sb[None], p).reshape(-1, degree, degree)
    kept, elems = reduced_generators(p, degree, seeds, cap)
    conj = np.concatenate([sa, sb])
    conj_inv = batch_inv(conj, p)
    while True:
        ys = batch_mul(batch_mul(conj_inv, _stack(kept, degree)[:, None], p), conj, p)
        ys = ys.reshape(-1, degree, degree)
        new = [y for k, y in zip(_row_keys(ys.astype(np.uint8)), ys) if k not in elems.keys]
        if not new:
            break
        kept, elems = reduced_generators(p, degree, new, cap,
                                         base=Subgroup(parent, kept, elems))
    out = Subgroup(parent, kept, elems)
    parent._comm_cache[key] = out
    parent._comm_cache[(b.digest, a.digest)] = out
    return out


def power_subgroup(a: Subgroup, k: int, cap: int | None = None) -> Subgroup:
    """Subgroup generated by all k-th powers (k >= 1) of elements of a."""
    if k < 1:
        raise ValueError(f"power exponent {k} is not positive")
    parent = a.parent
    p, degree = parent.p, parent.degree
    cap = cap or parent.cap
    key = (a.digest, k)
    cached = parent._power_cache.get(key)
    if cached is not None:
        return cached
    mats = a.elements.mats64()
    # square-and-multiply over the bits of k below the leading one
    acc = mats
    for bit in bin(k)[3:]:
        acc = (acc @ acc) % p
        if bit == "1":
            acc = (acc @ mats) % p
    flat = dict(zip(_row_keys(acc.astype(np.uint8)), acc))
    candidates = [flat[key_] for key_ in sorted(flat)]
    kept, elems = reduced_generators(p, degree, candidates, cap)
    out = Subgroup(parent, kept, elems)
    parent._power_cache[key] = out
    return out


def is_normal(sub: Subgroup, ambient: Subgroup | None = None) -> bool:
    """Normality check by conjugating generators by generators."""
    parent = sub.parent
    p, degree = parent.p, parent.degree
    outer = _stack(ambient.generators if ambient is not None else parent.generators, degree)
    ys = batch_mul(batch_mul(batch_inv(outer, p)[:, None], _stack(sub.generators, degree), p),
                   outer[:, None], p)
    return sub.elements.keys.issuperset(_row_keys(ys.reshape(-1, degree, degree).astype(np.uint8)))


def lower_central_series(g: UnipotentGroup, n: Subgroup | None = None,
                         cap: int | None = None) -> list[Subgroup]:
    """gamma_1 = N, gamma_{i+1} = [N, gamma_i]; nontrivial terms only."""
    n = n or g.full_subgroup()
    terms = [n]
    while not terms[-1].is_trivial():
        nxt = commutator_subgroup(n, terms[-1], cap)
        if nxt.order() == terms[-1].order():
            raise NotNormal("series failed to descend; input is not nilpotent?")
        if nxt.is_trivial():
            break
        terms.append(nxt)
    return terms


def exponent_p_central_series(g: UnipotentGroup, n: Subgroup | None = None,
                              cap: int | None = None) -> list[Subgroup]:
    """eta_1 = N, eta_{i+1} = [N, eta_i] * eta_i^p; nontrivial terms only."""
    n = n or g.full_subgroup()
    p = g.p
    terms = [n]
    while not terms[-1].is_trivial():
        nxt = join(commutator_subgroup(n, terms[-1], cap), power_subgroup(terms[-1], p, cap), cap)
        if nxt.order() == terms[-1].order():
            raise NotNormal("series failed to descend")
        if nxt.is_trivial():
            break
        terms.append(nxt)
    return terms


def jennings_series(g: UnipotentGroup, n: Subgroup | None = None,
                    cap: int | None = None) -> list[Subgroup]:
    """kappa_1 = N, kappa_i = [N, kappa_{i-1}] * kappa_{ceil(i/p)}^p."""
    n = n or g.full_subgroup()
    p = g.p
    terms = [n]
    # kappa may plateau (kappa_i = kappa_{i+1} between p-power jumps) but must
    # reach 1; the bound guards against a non-terminating recursion.
    bound = 4 * n.order_exp() + 4
    i = 1
    while not terms[-1].is_trivial():
        i += 1
        if i > bound:
            raise NotNormal("jennings series failed to terminate")
        half = terms[-(-i // p) - 1]
        nxt = join(commutator_subgroup(n, terms[-1], cap), power_subgroup(half, p, cap), cap)
        if nxt.is_trivial():
            break
        terms.append(nxt)
    return terms


class SectionBasis:
    """Z_p coordinates on a section A/B' where B' = B * (p-th powers of A).

    Enlarging the denominator by p-th powers makes the section an
    elementary abelian p-group, hence a Z_p vector space.  B must be normal
    in A with A/B abelian, as in every filter section; both are checked on
    generators.  Then B' contains [A,A] A^p, so every group H between B'
    and A is normal in A, and extending H by a rep r gives the cosets
    H, H*r, ..., H*r^(p-1) in that order.  The reps are the least elements
    of A, in sorted order, not yet covered.  The grown rows give the
    coordinates of every element of A, so coordinatizing is a dict lookup,
    and the least element of each coset of B', which is what lifting
    returns.  Preimages of subspaces grow from B' the same way.
    """

    def __init__(self, num: Subgroup, den: Subgroup, cap: int | None = None):
        parent = num.parent
        p = parent.p
        cap = cap or parent.cap
        if not num.contains(den):
            raise ValueError("denominator is not inside numerator")
        gens = _stack(num.generators, parent.degree)
        comms = commutator(gens[:, None], gens[None], p).reshape(-1, parent.degree, parent.degree)
        if not den.elements.keys.issuperset(_row_keys(comms.astype(np.uint8))):
            raise NotAbelianSection("section numerator/denominator is not abelian")
        if not is_normal(den, num):
            raise NotNormal("section denominator is not normal in the numerator")
        self.parent = parent
        self.num = num
        self.den_given = den
        self.den = join(den, power_subgroup(num, p, cap), cap)
        self.p = p

        # rows holds the group grown so far as blocks of len(den) rows, the
        # cosets of den.  Growing n blocks by r puts block b times r^k at
        # b + k*n, so with reps r_1..r_j block b is den*r_1^c_1...r_j^c_j for
        # c the base-p digits of b.  The numerator bounds every group grown.
        reps: list[np.ndarray] = []
        rows = self.den.elements.array
        known = set(self.den.elements.keys)
        total = len(num.elements)
        for i, key in enumerate(_row_keys(num.elements.array)):
            if len(known) == total:
                break
            if key not in known:
                m = num.elements.array[i].astype(np.int64)
                rows = _extend(p, rows, known, self.den.generators + reps, m, total)
                reps.append(m)
        keys = _row_keys(rows)
        size = len(self.den.elements)
        self._coords: dict[bytes, int] = dict(zip(keys, (np.arange(total) // size).tolist()))
        self._coset_min: list[bytes] = [min(keys[i:i + size]) for i in range(0, total, size)]
        self.reps = reps
        self.dim = len(reps)

    def coordinatize(self, m) -> np.ndarray:
        key = np.asarray(m, dtype=np.uint8).tobytes() if not isinstance(m, bytes) else m
        b = self._coords.get(key)
        if b is None:
            raise ValueError("element is not in the section numerator")
        return np.array([b // self.p ** i % self.p for i in range(self.dim)], dtype=np.int64)

    def lift(self, coords) -> np.ndarray:
        c = [int(x) % self.p for x in coords]
        if len(c) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates")
        key = self._coset_min[sum(x * self.p ** i for i, x in enumerate(c))]
        d = self.parent.degree
        return np.frombuffer(key, dtype=np.uint8).reshape(d, d).astype(np.int64)

    def preimage(self, space: Subspace) -> Subgroup:
        """Subgroup of elements whose coordinates land in the subspace."""
        gens = list(self.den.generators)
        rows = self.den.elements.array
        known = set(self.den.elements.keys)
        for row in space.basis:
            lift = self.lift(row)
            rows = _extend(self.p, rows, known, gens, lift, len(self.num.elements))
            gens.append(lift)
        return Subgroup(self.parent, gens, ElementSet(self.p, self.parent.degree, rows))


def make_ut(d: int, p: int, cap: int = DEFAULT_CAP, all_transvections: bool = False) -> UnipotentGroup:
    """Full upper unitriangular group UT(d, p) from transvection generators."""
    gens = []
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)] if all_transvections \
        else [(i, i + 1) for i in range(d - 1)]
    for i, j in pairs:
        m = np.eye(d, dtype=np.int64)
        m[i, j] = 1
        gens.append(m)
    return UnipotentGroup(p, d, gens, name=f"UT({d},{p})", cap=cap)


def make_heisenberg(ring, cap: int = DEFAULT_CAP) -> UnipotentGroup:
    """H(R) as block 3m x 3m unipotent matrices via the regular representation.

    Elements are [[I, M_a, M_c], [0, I, M_b], [0, 0, I]] with a, b, c in R;
    the group law works out to (a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab').
    """
    p, m = ring.p, ring.dim
    d = 3 * m
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
    """Build a group from the JSON wire format (row-major generator entries)."""
    p = int(spec["p"])
    degree = int(spec["degree"])
    gens = []
    for flat in spec["generators"]:
        a = np.asarray(flat, dtype=np.int64)
        if a.size != degree * degree:
            raise DimensionMismatch(f"generator has {a.size} entries, expected {degree * degree}")
        gens.append(a.reshape(degree, degree))
    return UnipotentGroup(p, degree, gens, name=str(spec.get("name", "")), cap=cap)


def group_to_spec(g: UnipotentGroup) -> dict:
    return {
        "p": g.p,
        "degree": g.degree,
        "generators": [[int(x) for x in gen.reshape(-1)] for gen in g.generators],
        "name": g.name,
    }
