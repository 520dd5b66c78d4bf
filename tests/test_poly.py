import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from filtra.modlinalg import nullspace
from filtra.poly import at_matrix, charpoly, factor, is_irreducible, mul


@st.composite
def _matrices(draw):
    """A square matrix over Z_p; block-triangular ones repeat eigenvalues
    and factors, which exercises the square-free step."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(0, 9))
    b = draw(arrays(np.int64, (n, n), elements=st.integers(0, p - 1)))
    if draw(st.booleans()):
        k = draw(st.integers(0, n))
        b[k:, :k] = 0
        if draw(st.booleans()):
            b[k:, k:] = b[:n - k, :n - k]
    return b, p


@given(_matrices())
@settings(max_examples=200, deadline=None)
def test_charpoly_and_factor(case):
    b, p = case
    n = b.shape[0]
    c = charpoly(b, p)
    assert len(c) == n + 1 and c[-1] == 1
    assert n == 0 or c[n - 1] == -np.trace(b) % p
    # Cayley-Hamilton, and the roots in Z_p are the eigenvalues
    assert not at_matrix(c, b, p).any()
    for s in range(p):
        value = sum(int(ci) * s ** i for i, ci in enumerate(c)) % p
        singular = nullspace((s * np.eye(n, dtype=np.int64) - b) % p, p).shape[0] > 0
        assert (value == 0) == singular
    fs = factor(c, p)
    prod = np.ones(1, dtype=np.int64)
    for g, e in fs:
        assert g[-1] == 1 and is_irreducible(g, p) and e >= 1
        for _ in range(e):
            prod = mul(prod, g, p)
    assert np.array_equal(prod, c)
    assert len({tuple(g) for g, _ in fs}) == len(fs)
    assert [len(g) for g, _ in fs] == sorted(len(g) for g, _ in fs)


def _irreducible_count(p: int, d: int) -> int:
    """Gauss's formula: (1/d) sum over e | d of mu(e) p^(d/e)."""
    def mu(m):
        out, q = 1, 2
        while q * q <= m:
            if m % q == 0:
                m //= q
                if m % q == 0:
                    return 0
                out = -out
            q += 1
        return -out if m > 1 else out
    return sum(mu(e) * p ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


def test_irreducibility_agrees_with_factor_and_gauss():
    for p, top in ((2, 6), (3, 4), (5, 3)):
        for d in range(1, top + 1):
            count = 0
            for low in itertools.product(range(p), repeat=d):
                f = np.array(low + (1,), dtype=np.int64)
                irr = is_irreducible(f, p)
                fs = factor(f, p)
                assert irr == (len(fs) == 1 and fs[0][1] == 1), (p, f)
                count += irr
            assert count == _irreducible_count(p, d), (p, d)
    assert not is_irreducible([1], 2) and not is_irreducible([], 2)
