import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from loop_reference import (
    array_charpoly, array_divmod, array_factor, array_gcd, array_is_irreducible, array_powmod,
)
from filtra.modlinalg import nullspace
from filtra.poly import (
    _arr, _divmod, _gcd, _ints, _monic, _mul, _powmod, at_matrix, charpoly, factor,
    is_irreducible,
)


# The list arithmetic inside filtra.poly on array-likes, as the array
# reference in loop_reference takes and returns them.
def monic(f, p: int) -> np.ndarray:
    return _arr(_monic(_ints(f, p), p))


def mul(f, g, p: int) -> np.ndarray:
    return _arr(_mul(_ints(f, p), _ints(g, p), p))


def divmod_poly(f, g, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of f by a nonzero g."""
    q, r = _divmod(_ints(f, p), _ints(g, p), p)
    return _arr(q), _arr(r)


def gcd(f, g, p: int) -> np.ndarray:
    """Monic greatest common divisor (zero when both are zero)."""
    return _arr(_gcd(_ints(f, p), _ints(g, p), p))


def powmod(f, e: int, g, p: int) -> np.ndarray:
    """f^e mod g by square-and-multiply."""
    return _arr(_powmod(_ints(f, p), e, _ints(g, p), p))


@st.composite
def _matrices(draw):
    """A square matrix over Z_p; block-triangular ones repeat eigenvalues
    and factors, which `factor` must report once each."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(0, 9))
    b = draw(arrays(np.int64, (n, n), elements=st.integers(0, p - 1)))
    if draw(st.booleans()):
        k = draw(st.integers(0, n))
        b[k:, :k] = 0
        if draw(st.booleans()):
            b[k:, k:] = b[:n - k, :n - k]
    return b, p


def _companion(f) -> np.ndarray:
    """A matrix whose characteristic polynomial is the monic f."""
    k = len(f) - 1
    b = np.eye(k, k, 1, dtype=np.int64)
    b[-1] = -np.asarray(f[:-1])
    return b


def _divides(g, f, p: int) -> bool:
    return not divmod_poly(f, g, p)[1].size


def _derivative_zero_examples(test):
    """Characteristic polynomials with derivative 0: x^4 at p = 2 and
    (x^2 + x + 2)^3 at p = 3, whose factor is irreducible mod 3."""
    test = example((np.zeros((4, 4), dtype=np.int64), 2))(test)
    return example((np.kron(np.eye(3, dtype=np.int64), _companion([2, 1, 1])) % 3, 3))(test)


@given(_matrices())
@settings(max_examples=200, deadline=None)
@_derivative_zero_examples
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
    # the distinct irreducible factors: their product P divides c, and c
    # divides P^(deg c), so every irreducible factor of c is among them
    fs = factor(c, p)
    prod = np.ones(1, dtype=np.int64)
    for g in fs:
        assert g[-1] == 1 and is_irreducible(g, p)
        prod = mul(prod, g, p)
    assert _divides(prod, c, p)
    power = np.ones(1, dtype=np.int64)
    for _ in range(n):
        power = mul(power, prod, p)
    assert _divides(c, power, p)
    keys = [(len(g), tuple(g.tolist())) for g in fs]
    assert keys == sorted(set(keys))


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
                assert irr == (len(fs) == 1 and np.array_equal(fs[0], monic(f, p))), (p, f)
                count += irr
            assert count == _irreducible_count(p, d), (p, d)
    assert not is_irreducible([1], 2) and not is_irreducible([], 2)


# small primes, the ends of the uint16 working dtype of the `rref` under
# Berlekamp's nullspace, and the largest prime the library takes
POLY_PRIMES = [2, 3, 5, 7, 251, 257, 65521]


@st.composite
def _unreduced_pairs(draw, primes=POLY_PRIMES):
    """A prime and two polynomials of degree <= 12 with unreduced
    coefficients in [-p, 2p), so that leading terms may vanish mod p."""
    p = draw(st.sampled_from(primes))
    coeffs = st.lists(st.integers(-p, 2 * p - 1), max_size=13)
    return p, draw(coeffs), draw(coeffs)


def _same(got, want) -> bool:
    return got.dtype == want.dtype == np.int64 and np.array_equal(got, want)


@given(_unreduced_pairs(), st.integers(0, 70000))
@settings(max_examples=300, deadline=None)
def test_arithmetic_matches_array_reference(case, e):
    p, f, g = case
    assert is_irreducible(f, p) == array_is_irreducible(f, p)
    assert _same(gcd(f, g, p), array_gcd(f, g, p))
    if not any(c % p for c in g):
        with pytest.raises(ZeroDivisionError):
            divmod_poly(f, g, p)
        return
    assert all(map(_same, divmod_poly(f, g, p), array_divmod(f, g, p)))
    assert _same(powmod(f, e, g, p), array_powmod(f, e, g, p))


# Berlekamp tries every s in Z_p for each split, which the array reference
# pays about 30 us apiece: 7 s for x^2 - 1 at p = 65521.  That prime is
# pinned to a degree-12 polynomial with factors of degrees 1, 5 and 6
# instead of drawn; the splits are drawn at 251 and 257.
@given(_unreduced_pairs(POLY_PRIMES[:-1]))
@settings(max_examples=200, deadline=None)
@example((65521, [-51679, 41162, -40013, 82773, 120885, 127001, 56718, 105161, 7009,
                  -36874, 34999, 21700, 64769], []))
def test_factor_matches_array_reference(case):
    p, f, _ = case
    got, want = factor(f, p), array_factor(f, p)
    assert len(got) == len(want) and all(map(_same, got, want))


@st.composite
def _seeded_matrices(draw):
    """A square matrix over Z_p of size up to 20, p in POLY_PRIMES, filled
    by numpy from a drawn seed at a drawn density, and block triangular
    half the time.  Hypothesis's own arrays are mostly their fill value at
    this size, which leaves the Hessenberg subdiagonal zero and cuts the
    recurrence short."""
    p = draw(st.sampled_from(POLY_PRIMES))
    n = draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = rng.integers(0, p, (n, n)) * (rng.random((n, n)) < draw(st.sampled_from([0.3, 1.0])))
    if draw(st.booleans()):
        k = draw(st.integers(0, n))
        b[k:, :k] = 0
    return b, p


@given(st.one_of(_matrices(), _seeded_matrices()))
@settings(max_examples=200, deadline=None)
@_derivative_zero_examples
def test_charpoly_matches_array_reference(case):
    b, p = case
    assert _same(charpoly(b, p), array_charpoly(b, p))
