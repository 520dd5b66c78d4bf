"""Shared fixtures, element-set helpers and the tensor JSON format.

Group and ring constructions are cached at module level: element
enumeration is most of the cost of a group, and every file wants the
same handful of small groups.
"""

import functools

import numpy as np
import pytest

from filtra.group import make_heisenberg, make_ut
from filtra.modlinalg import Subspace, full_space, inv_matrix
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


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def keys_of(sub) -> frozenset:
    return sub.keys


def pattern_keys(group, free) -> frozenset:
    """Element keys of the subset with zero entries outside ``free``.

    free: iterable of 0-indexed (row, col) positions above the diagonal
    that may hold anything; everything else off-diagonal must vanish.
    """
    d = group.degree
    mask = np.zeros((d, d), dtype=bool)
    for i, j in free:
        mask[i, j] = True
    mats = group.full_subgroup().rows.astype(np.int64)
    off = mats.copy()
    idx = np.arange(d)
    off[:, idx, idx] = 0
    ok = ~(off[:, ~mask].any(axis=1))
    return frozenset(m.astype(np.uint8).tobytes() for m in mats[ok])


def ring_jpow(ring, i: int) -> Subspace:
    """J(R)^i as a coefficient subspace; J^0 is all of R."""
    if i == 0:
        return full_space(ring.p, ring.dim)
    chain = ring.radical_chain()
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
    for mat in group.full_subgroup().rows.astype(np.int64):
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
    return frozenset(auto(m).astype(np.uint8).tobytes()
                     for m in sub.rows.astype(np.int64))


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
