"""Polynomials over Z_p: characteristic polynomials and factorization.

The public functions take any array-like of integer coefficients, constant
term first, and return polynomials as 1-d int64 arrays of coefficients in
[0, p) whose last entry is nonzero; the zero polynomial is the empty array.
Everything here is exact and deterministic.

Inside, a polynomial is a Python list of ints in that same normal form.
The polynomials this module meets have degree at most the dimension of a
meataxe module, mostly under ten, and numpy pays a call's overhead for
every coefficient operation of such a small one; Python ints do each in a
few bytecodes.  So the arithmetic (`_add`, `_mul`, `_divmod`, `_gcd`,
`_powmod`), the distinct-degree split, Berlekamp and Ben-Or all run on
lists, and each public function converts once on the way in (`_ints`) and
once on the way out.  `at_matrix` evaluates at a matrix by Horner's rule,
each product through `modlinalg._dot`.

`charpoly` reduces a matrix to upper Hessenberg form by similarity, on
numpy, and reads the polynomial off its leading principal blocks with the
standard recurrence, on lists: O(n^2) steps on coefficient rows, each of
which would be a numpy call on arrays.  `factor` finds the distinct monic
irreducible factors of a polynomial, without their multiplicities, in two
steps: distinct-degree factorization (the product of the distinct
irreducible factors of degree d is gcd(f, x^(p^d) - x) once every power of
a smaller-degree factor is divided out) and Berlekamp's algorithm for the
factors of one degree, whose subalgebra {h : h^p = h mod g} is a
nullspace over Z_p.
`is_irreducible` is Ben-Or's test, which shares only the arithmetic with
`factor` and so can check it.
"""

from __future__ import annotations

import numpy as np

from .modlinalg import _dot, _reduce, inv_mod, nullspace


def _trim(f: list[int]) -> list[int]:
    """Drop the zero leading terms of f, in place."""
    while f and not f[-1]:
        f.pop()
    return f


def _ints(f, p: int) -> list[int]:
    """The normal-form coefficient list of an array-like."""
    return _trim([c % p for c in np.asarray(f, dtype=np.int64).tolist()])


def _arr(f: list[int]) -> np.ndarray:
    return np.array(f, dtype=np.int64)


def _monic(f: list[int], p: int) -> list[int]:
    if not f or f[-1] == 1:
        return f
    inv = inv_mod(f[-1], p)
    return [c * inv % p for c in f]


def _add(f: list[int], g: list[int], p: int) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    out = f.copy()
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return _trim(out)


def _mul(f: list[int], g: list[int], p: int) -> list[int]:
    if not (f and g):
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return _trim([c % p for c in out])


def _divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by a nonzero g, both in normal form."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    k = len(g) - 1
    if len(f) <= k:
        return [], f
    r = f.copy()
    inv = inv_mod(g[-1], p)
    q = [0] * (len(r) - k)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + k] * inv % p
        if c:
            q[i] = c
            for j in range(k):
                r[i + j] = (r[i + j] - c * g[j]) % p
    return _trim(q), _trim(r[:k])


def _gcd(f: list[int], g: list[int], p: int) -> list[int]:
    while g:
        f, g = g, _divmod(f, g, p)[1]
    return _monic(f, p)


def _powmod(f: list[int], e: int, g: list[int], p: int) -> list[int]:
    base = _divmod(f, g, p)[1]
    out = _divmod([1], g, p)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, base, p), g, p)[1]
        e >>= 1
        if e:
            base = _divmod(_mul(base, base, p), g, p)[1]
    return out


def norm(f, p: int) -> np.ndarray:
    """Coefficients reduced mod p with the zero leading terms dropped."""
    return _arr(_ints(f, p))


def degree(f) -> int:
    """Degree of a normalised polynomial; -1 for zero."""
    return len(f) - 1


def at_matrix(f, b: np.ndarray, p: int) -> np.ndarray:
    """f(b) for a square matrix b, by Horner's rule."""
    b = _reduce(np.asarray(b, dtype=np.int64), p)
    n = b.shape[0]
    eye = np.eye(n, dtype=np.int64)
    out = np.zeros((n, n), dtype=np.int64)
    for c in reversed(_ints(f, p)):
        out = _reduce(_dot(out, b, p) + c * eye, p)
    return out


def charpoly(b: np.ndarray, p: int) -> np.ndarray:
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
    # (lists of m + 1 ints, constant term first)
    h = h.tolist()
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[-1]
        d = h[m - 1][m - 1]
        cur = [-d * prev[0]] + [u - d * v for u, v in zip(prev, prev[1:])] + [1]
        t = 1
        for i in range(1, m):
            t = t * h[m - i][m - i - 1] % p
            if not t:
                break
            s = t * h[m - 1 - i][m - 1] % p
            if s:
                for k, v in enumerate(polys[m - 1 - i]):
                    cur[k] -= s * v
        polys.append([v % p for v in cur])
    return _arr(polys[n])


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Pairs (h, d), d increasing: h is the product of the distinct
    irreducible factors of degree d of a monic f, so h is square-free."""
    out = []
    rest, xpow, d = f, [0, 1], 0
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        xpow = _powmod(xpow, p, rest, p)   # x^(p^d) mod rest
        h = _gcd(rest, _add(xpow, [0, p - 1], p), p)
        if len(h) > 1:
            out.append((h, d))
            # divide out every power of the factors of h, so that rest keeps
            # no factor of degree <= d and its degree bounds what is left
            g = h
            while len(g) > 1:
                rest = _divmod(rest, g, p)[0]
                g = _gcd(rest, h, p)
            xpow = _divmod(xpow, rest, p)[1]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _berlekamp(f: list[int], d: int, p: int) -> list[list[int]]:
    """Irreducible factors of a square-free monic f whose irreducible
    factors all have degree d."""
    k = len(f) - 1
    r = k // d
    if r == 1:
        return [f]
    # row i of q holds x^(p i) mod f; h^p = h (mod f) reads v (q - I) = 0
    # for the coefficient row v of h, as a^p = a in Z_p
    xp = _powmod([0, 1], p, f, p)
    q = np.zeros((k, k), dtype=np.int64)
    row = [1]
    for i in range(k):
        q[i, : len(row)] = row
        row = _divmod(_mul(row, xp, p), f, p)[1]
    factors = [f]
    # the first row of the rref basis is the constant 1, which splits nothing
    for h in nullspace((q - np.eye(k, dtype=np.int64)).T, p)[1:]:
        if len(factors) == r:
            break
        h = _trim(h.tolist())
        split = []
        for u in factors:
            if len(u) - 1 == d:
                split.append(u)
                continue
            # u divides h^p - h = prod_s (h - s), whose factors are coprime
            parts = (_gcd(u, _add(h, [-s % p], p), p) for s in range(p))
            split += [g for g in parts if len(g) > 1]
        factors = split
    return factors


def factor(f, p: int) -> list[np.ndarray]:
    """Distinct monic irreducible factors of f, ordered by degree and then
    by coefficients."""
    out = [u for h, d in _distinct_degree(_monic(_ints(f, p), p), p)
           for u in _berlekamp(h, d, p)]
    return [_arr(u) for u in sorted(out, key=lambda u: (len(u), u))]


def is_irreducible(f, p: int) -> bool:
    """Ben-Or's test: f of degree k >= 1 is irreducible when it shares no
    factor with x^(p^i) - x for any i <= k/2."""
    f = _monic(_ints(f, p), p)
    if len(f) < 2:
        return False
    xpow = [0, 1]
    for _ in range((len(f) - 1) // 2):
        xpow = _powmod(xpow, p, f, p)
        if len(_gcd(f, _add(xpow, [0, p - 1], p), p)) > 1:
            return False
    return True
