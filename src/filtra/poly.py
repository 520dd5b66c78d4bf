"""Polynomials over Z_p: characteristic polynomials and factorization.

A polynomial is a 1-d int64 array of coefficients in [0, p), constant term
first, whose last entry is nonzero; the zero polynomial is the empty array.
Everything here is exact and deterministic.

`charpoly` reduces a matrix to upper Hessenberg form by similarity and
reads the polynomial off its leading principal blocks with the standard
recurrence.  `factor` finds the distinct monic irreducible factors of a
polynomial, without their multiplicities, in two steps: distinct-degree
factorization (the product of the distinct irreducible factors of degree d
is gcd(f, x^(p^d) - x) once every power of a smaller-degree factor is
divided out) and Berlekamp's algorithm for the factors of one degree,
whose subalgebra {h : h^p = h mod g} is a nullspace over Z_p.
`is_irreducible` is Ben-Or's test, which shares only the arithmetic with
`factor` and so can check it.
"""

from __future__ import annotations

import numpy as np

from .modlinalg import inv_mod, nullspace

X = np.array([0, 1], dtype=np.int64)


def norm(f, p: int) -> np.ndarray:
    """Coefficients reduced mod p with the zero leading terms dropped."""
    f = np.mod(np.asarray(f, dtype=np.int64), p)
    nz = np.flatnonzero(f)
    return f[: nz[-1] + 1] if nz.size else f[:0]


def degree(f: np.ndarray) -> int:
    """Degree of a normalised polynomial; -1 for zero."""
    return len(f) - 1


def monic(f, p: int) -> np.ndarray:
    f = norm(f, p)
    return f * inv_mod(f[-1], p) % p if f.size else f


def add(f, g, p: int) -> np.ndarray:
    out = np.zeros(max(len(f), len(g)), dtype=np.int64)
    out[: len(f)] += f
    out[: len(g)] += g
    return norm(out, p)


def mul(f, g, p: int) -> np.ndarray:
    if not (len(f) and len(g)):
        return np.zeros(0, dtype=np.int64)
    return norm(np.convolve(f, g), p)


def divmod_poly(f, g, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of f by a nonzero g."""
    g = norm(g, p)
    if not g.size:
        raise ZeroDivisionError("polynomial division by zero")
    r = norm(f, p).copy()
    k = degree(g)
    if degree(r) < k:
        return np.zeros(0, dtype=np.int64), r
    inv = inv_mod(g[-1], p)
    q = np.zeros(len(r) - k, dtype=np.int64)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + k] * inv % p
        if c:
            q[i] = c
            r[i:i + k + 1] = (r[i:i + k + 1] - c * g) % p
    return norm(q, p), norm(r[:k], p)


def gcd(f, g, p: int) -> np.ndarray:
    """Monic greatest common divisor (zero when both are zero)."""
    f, g = norm(f, p), norm(g, p)
    while g.size:
        f, g = g, divmod_poly(f, g, p)[1]
    return monic(f, p)


def powmod(f, e: int, g, p: int) -> np.ndarray:
    """f^e mod g by square-and-multiply."""
    base = divmod_poly(f, g, p)[1]
    out = divmod_poly([1], g, p)[1]
    while e:
        if e & 1:
            out = divmod_poly(mul(out, base, p), g, p)[1]
        e >>= 1
        if e:
            base = divmod_poly(mul(base, base, p), g, p)[1]
    return out


def at_matrix(f, b: np.ndarray, p: int) -> np.ndarray:
    """f(b) for a square matrix b, by Horner's rule."""
    n = b.shape[0]
    eye = np.eye(n, dtype=np.int64)
    out = np.zeros((n, n), dtype=np.int64)
    for c in norm(f, p)[::-1]:
        out = (out @ b + int(c) * eye) % p
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


def distinct_degree(f, p: int) -> list[tuple[np.ndarray, int]]:
    """Pairs (h, d), d increasing: h is the product of the distinct
    irreducible factors of degree d of a monic f, so h is square-free."""
    out = []
    rest, xpow, d = f, X, 0
    while degree(rest) >= 2 * (d + 1):
        d += 1
        xpow = powmod(xpow, p, rest, p)   # x^(p^d) mod rest
        h = gcd(rest, add(xpow, -X, p), p)
        if degree(h) > 0:
            out.append((h, d))
            # divide out every power of the factors of h, so that rest keeps
            # no factor of degree <= d and its degree bounds what is left
            g = h
            while degree(g) > 0:
                rest = divmod_poly(rest, g, p)[0]
                g = gcd(rest, h, p)
            xpow = divmod_poly(xpow, rest, p)[1]
    if degree(rest) > 0:
        out.append((rest, degree(rest)))
    return out


def berlekamp(f, d: int, p: int) -> list[np.ndarray]:
    """Irreducible factors of a square-free monic f whose irreducible
    factors all have degree d."""
    k = degree(f)
    r = k // d
    if r == 1:
        return [f]
    # row i of q holds x^(p i) mod f; h^p = h (mod f) reads v (q - I) = 0
    # for the coefficient row v of h, as a^p = a in Z_p
    xp = powmod(X, p, f, p)
    q = np.zeros((k, k), dtype=np.int64)
    row = np.ones(1, dtype=np.int64)
    for i in range(k):
        q[i, : len(row)] = row
        row = divmod_poly(mul(row, xp, p), f, p)[1]
    factors = [f]
    for h in nullspace((q - np.eye(k, dtype=np.int64)).T, p):
        if len(factors) == r:
            break
        split = []
        for u in factors:
            if degree(u) == d:
                split.append(u)
                continue
            # u divides h^p - h = prod_s (h - s), whose factors are coprime
            parts = (gcd(u, add(h, [-s], p), p) for s in range(p))
            split += [g for g in parts if degree(g) > 0]
        factors = split
    return factors


def factor(f, p: int) -> list[np.ndarray]:
    """Distinct monic irreducible factors of f, ordered by degree and then
    by coefficients."""
    out = [u for h, d in distinct_degree(monic(f, p), p) for u in berlekamp(h, d, p)]
    return sorted(out, key=lambda u: (len(u), u.tolist()))


def is_irreducible(f, p: int) -> bool:
    """Ben-Or's test: f of degree k >= 1 is irreducible when it shares no
    factor with x^(p^i) - x for any i <= k/2."""
    f = monic(f, p)
    if degree(f) < 1:
        return False
    xpow = X
    for _ in range(degree(f) // 2):
        xpow = powmod(xpow, p, f, p)
        if degree(gcd(f, add(xpow, -X, p), p)) > 0:
            return False
    return True
