"""Shared fixtures, element-set helpers and the tensor JSON format.

Group and ring constructions are cached at module level, since every file
wants the same handful of small groups.  The library never lists a
subgroup's elements; ``elements`` and ``keys_of`` are the test-only view
of a subgroup as its element set, formed from its sequence.
"""

import functools
import itertools

import numpy as np
import pytest

from filtra.group import make_heisenberg, make_ut, reduced_generators
from filtra.modlinalg import Subspace, inv_matrix
from filtra.ring import make_poly_quotient


@functools.lru_cache(maxsize=None)
def ut(d: int, p: int):
    return make_ut(d, p)


@functools.lru_cache(maxsize=None)
def poly_ring(p: int, coeffs: tuple):
    return make_poly_quotient(p, list(coeffs))


@functools.lru_cache(maxsize=None)
def hei(p: int, coeffs: tuple):
    return make_heisenberg(poly_ring(p, coeffs))


# common rings by name, all small enough to enumerate
RING_SPECS = {
    "F2": (2, (0, 1)),
    "F3": (3, (0, 1)),
    "F4": (2, (1, 1, 1)),
    "F5": (5, (0, 1)),
    "F2[x]/x2": (2, (0, 0, 1)),
    "F3[x]/x2": (3, (0, 0, 1)),
    "F2[x]/x3": (2, (0, 0, 0, 1)),
    "F3[x]/x3": (3, (0, 0, 0, 1)),
}


def named_ring(name: str):
    p, coeffs = RING_SPECS[name]
    return poly_ring(p, coeffs)


def named_hei(name: str):
    p, coeffs = RING_SPECS[name]
    return hei(p, coeffs)


def make_field(p: int):
    """The prime field Z_p as the ring Z_p[x]/(x)."""
    return make_poly_quotient(p, [0, 1])


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def subgroup(group, gens):
    """<gens> inside the group, generated by the gens that enlarge it."""
    return reduced_generators(group, gens)


def elements(sub) -> np.ndarray:
    """Every element of a subgroup, as an int64 (order, d, d) stack."""
    n = sub.order_exp()
    exps = np.array(list(itertools.product(range(sub.parent.p), repeat=n)), dtype=np.int64)
    return sub.elements(exps.reshape(sub.order(), n))


def keys_of(sub) -> frozenset:
    """The row-major uint8 byte keys of a subgroup's elements."""
    return frozenset(m.tobytes() for m in elements(sub).astype(np.uint8))


def pattern_keys(group, free) -> frozenset:
    """Element keys of the subset with zero entries outside ``free``.

    free: iterable of 0-indexed (row, col) positions above the diagonal
    that may hold anything; everything else off-diagonal must vanish.
    """
    d = group.degree
    mask = np.zeros((d, d), dtype=bool)
    for i, j in free:
        mask[i, j] = True
    mats = elements(group.full_subgroup())
    off = mats.copy()
    idx = np.arange(d)
    off[:, idx, idx] = 0
    ok = ~(off[:, ~mask].any(axis=1))
    return frozenset(m.astype(np.uint8).tobytes() for m in mats[ok])


def ring_jpow(ring, i: int) -> Subspace:
    """J(R)^i as a coefficient subspace; J^0 is all of R.  J comes from the
    Frobenius reference, not from the `algrep` radical that refinement uses."""
    from loop_reference import frobenius_radical_chain  # it imports this module

    if i == 0:
        return Subspace(ring.p, ring.dim, np.eye(ring.dim, dtype=np.int64))
    chain = frobenius_radical_chain(ring)
    if i <= len(chain):
        return chain[i - 1]
    return Subspace(ring.p, ring.dim, None)


def hei_block_keys(group, ring, ia, ib, ic) -> frozenset:
    """Keys of H(R) elements with a in J^ia, b in J^ib, c in J^ic.

    Block layout of make_heisenberg: a at [0:m, m:2m], b at [m:2m, 2m:3m],
    c at [0:m, 2m:3m], each the multiplication matrix of its ring element.
    Pass None to force a block to zero.
    """
    m = ring.dim
    spaces = [None if i is None else ring_jpow(ring, i) for i in (ia, ib, ic)]
    slices = [(slice(0, m), slice(m, 2 * m)),
              (slice(m, 2 * m), slice(2 * m, 3 * m)),
              (slice(0, m), slice(2 * m, 3 * m))]
    out = []
    for mat in elements(group.full_subgroup()):
        good = True
        for space, (rs, cs) in zip(spaces, slices):
            x = (ring.unit @ mat[rs, cs]) % ring.p
            if space is None:
                if x.any():
                    good = False
                    break
            elif not space.contains(x):
                good = False
                break
        if good:
            out.append(mat.astype(np.uint8).tobytes())
    return frozenset(out)


def flip_map(p: int, d: int):
    """g -> J g^{-T} J with J the antidiagonal: an automorphism of UT(d,p)."""
    j = np.eye(d, dtype=np.int64)[::-1]

    def apply(mat):
        return (j @ inv_matrix(np.asarray(mat, dtype=np.int64), p).T @ j) % p

    return apply


def mapped_keys(sub, auto) -> frozenset:
    return frozenset(auto(m).astype(np.uint8).tobytes() for m in elements(sub))


def exterior_square_tensor(r: int, p: int) -> np.ndarray:
    """Alternating bimap Z_p^r x Z_p^r -> wedge^2 with the lex pair basis."""
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    b = np.zeros((r, r, len(pairs)), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        b[i, j, k] = 1
        b[j, i, k] = (-1) % p
    return b


def tensor_to_json(tensor: np.ndarray) -> dict:
    """Sparse JSON form of a bimap tensor: dims and nonzero [i, j, k, value]."""
    a, b, c = tensor.shape
    entries = [[i, j, k, int(tensor[i, j, k])]
               for i in range(a) for j in range(b) for k in range(c)
               if tensor[i, j, k]]
    return {"dims": [a, b, c], "entries": entries}


def tensor_from_json(data: dict, p: int) -> np.ndarray:
    a, b, c = data["dims"]
    t = np.zeros((a, b, c), dtype=np.int64)
    for i, j, k, v in data["entries"]:
        t[i, j, k] = v
    return t % p


# refined kappa filters that break the lex descent (an open defect of
# generate): LEX_HOLE records the trivial index (2, 2) before the nontrivial
# key (3, 0); in CHAIN_BREAK the value at (3, 0) is not inside its
# predecessor; J5, at p = 2 and with flag basis I, records (3, 1) before (4, 0)
LEX_HOLE = {"p": 3, "degree": 5, "generators": [
    [1, 2, 2, 1, 0, 0, 2, 1, 2, 0, 0, 1, 2, 2, 0, 0, 2, 2, 2, 0, 0, 0, 0, 0, 1],
    [1, 1, 0, 1, 1, 0, 1, 2, 2, 1, 0, 1, 0, 0, 2, 0, 1, 1, 0, 0, 0, 2, 0, 2, 0],
    [0, 2, 0, 2, 1, 1, 0, 0, 2, 0, 0, 2, 1, 2, 2, 1, 1, 0, 2, 2, 1, 1, 1, 2, 2]]}
CHAIN_BREAK = {"p": 3, "degree": 5, "generators": [
    [1, 2, 0, 0, 0, 0, 1, 2, 0, 2, 0, 0, 1, 1, 1, 0, 0, 0, 1, 2, 0, 0, 0, 0, 1],
    [1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1],
    [1, 0, 2, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 2, 2, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1]]}


def jordan_blocks(p: int, k: int, size: int) -> dict:
    """The spec of the block-diagonal group of k copies of I + N over F_p,
    N the size x size superdiagonal of ones: an abelian group of k cyclic
    factors, each of order the least power of p that is >= size."""
    d = k * size
    gens = []
    for b in range(k):
        m = np.eye(d, dtype=np.int64)
        top = np.arange(b * size, (b + 1) * size - 1)
        m[top, top + 1] = 1
        gens.append(m.reshape(-1).tolist())
    return {"p": p, "degree": d, "name": f"J{size}^{k} over F{p}", "generators": gens}


# I + N (N the superdiagonal of ones), I + E_02 and I + E_14 over F_2: order 64
J5 = {"p": 2, "degree": 5, "name": "J5", "generators": [
    [1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1],
    [1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1]]}


# three unitriangular matrices of degree 7 over F_3 (order 3^15) whose Jennings
# recursion kappa_i = [G, kappa_(i-1)] kappa_(ceil(i/p))^p meets, at kappa_3,
# a C G^3 with G/C not abelian that Hall's criterion does not decide: that
# recursion listed the 3^15 elements of G
KAPPA_LISTS = {"p": 3, "degree": 7, "name": "kappa-lists", "generators": [
    [1, 0, 2, 1, 2, 0, 1,
     0, 1, 0, 1, 1, 0, 1,
     0, 0, 1, 1, 0, 2, 0,
     0, 0, 0, 1, 0, 2, 1,
     0, 0, 0, 0, 1, 1, 2,
     0, 0, 0, 0, 0, 1, 0,
     0, 0, 0, 0, 0, 0, 1],
    [1, 2, 2, 0, 0, 0, 2,
     0, 1, 0, 2, 2, 0, 2,
     0, 0, 1, 0, 0, 1, 1,
     0, 0, 0, 1, 0, 2, 2,
     0, 0, 0, 0, 1, 0, 0,
     0, 0, 0, 0, 0, 1, 0,
     0, 0, 0, 0, 0, 0, 1],
    [1, 0, 2, 0, 0, 2, 0,
     0, 1, 2, 2, 1, 2, 1,
     0, 0, 1, 2, 1, 2, 0,
     0, 0, 0, 1, 1, 2, 0,
     0, 0, 0, 0, 1, 1, 2,
     0, 0, 0, 0, 0, 1, 1,
     0, 0, 0, 0, 0, 0, 1]]}
