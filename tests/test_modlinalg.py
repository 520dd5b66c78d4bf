import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from loop_reference import (_rows_x, _rows_y_right, _rows_z, dense_rref, loop_nullspace,
                            loop_reduce, loop_rref, two_pass_nullspace)
from filtra import modlinalg
from filtra.bimap import _system, heisenberg_tensor, solve_ring
from filtra.modlinalg import (
    MAX_PRIME,
    Subspace,
    _BLAS_MIN_WORK,
    _dot,
    _work_dtype,
    check_prime,
    inv_matrix,
    inv_mod,
    is_prime,
    nullspace,
    rref,
)
from filtra.ring import make_poly_quotient


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)


def test_inv_mod():
    for p in (2, 3, 5, 251):
        for x in range(1, min(p, 40)):
            assert (x * inv_mod(x, p)) % p == 1


def assert_rank_rows_of(r, piv, want_r, want_piv):
    """r and piv are the rref of a full-size reference: its first
    len(piv) rows, with only zero rows after them in the reference."""
    assert r.dtype == want_r.dtype and piv == want_piv
    assert np.array_equal(r, want_r[:len(piv)]) and not want_r[len(piv):].any()


def test_rref_examples():
    eye = np.eye(3, dtype=np.int64)
    r, piv = rref(eye, 5)
    assert np.array_equal(r, eye) and piv == [0, 1, 2]

    r, piv = rref(np.array([[2, 4], [1, 2]]), 5)
    assert_rank_rows_of(r, piv, np.array([[1, 2], [0, 0]]), [0])

    z = np.zeros((2, 3), dtype=np.int64)
    r, piv = rref(z, 3)
    assert_rank_rows_of(r, piv, z, [])
    assert r.shape == (0, 3)


def test_nullspace_examples():
    assert nullspace(np.eye(4, dtype=np.int64), 3).shape[0] == 0
    assert nullspace(np.zeros((4, 4), dtype=np.int64), 3).shape[0] == 4
    # a system with no rows leaves every unknown free
    assert np.array_equal(nullspace(np.zeros((0, 4), dtype=np.int64), 5), np.eye(4, dtype=np.int64))
    ns = nullspace(np.array([[1, 1]]), 2)
    assert ns.shape == (1, 2)
    assert np.array_equal(ns[0], np.array([1, 1]))


primes = st.sampled_from([2, 3, 5, 7])
entries = st.integers(-3, 9)
# the last prime of each working dtype of rref and the first of the next:
# uint8 up to 13, uint16 up to 251, uint32 up to MAX_PRIME
boundary_primes = st.sampled_from([2, 3, 5, 7, 11, 13, 17, 251, 257, 65521])


def _dense(rows, cols, elements=entries):
    return arrays(np.int64, (rows, cols), elements=elements)


@st.composite
def _low_rank(draw, rows, cols, elements=entries):
    """A product b @ c of rank at most k: dependent rows and zero columns."""
    k = draw(st.integers(0, min(rows, cols)))
    return draw(_dense(rows, k, elements)) @ draw(_dense(k, cols, elements))


sides = st.tuples(st.integers(0, 12), st.integers(0, 12))


def _systems(elements=entries):
    """Rectangular 0-12 x 0-12, full or low rank, and tall 48 x 8 systems
    shaped like the ring constraint systems (many more equations than
    unknowns)."""
    return st.one_of(
        sides.flatmap(lambda s: _dense(*s, elements)),
        sides.flatmap(lambda s: _low_rank(*s, elements)),
        _dense(48, 8, elements),
        _low_rank(48, 8, elements),
    )


sq = _systems()


@st.composite
def _boundary_systems(draw):
    """A prime at a dtype boundary and a system with entries in [-p, 2p):
    unreduced entries of both signs, and p - 1 (as -1 or 2p - 1), so that a
    pivot step forms (p - 1) + (p - 1)**2."""
    p = draw(boundary_primes)
    return draw(_systems(st.integers(-p, 2 * p - 1))), p


@st.composite
def _tall_gf2(draw):
    """Tall, redundant GF(2) systems shaped as `derivation_ring` and
    `_centralizer` build theirs, from the int64 reference blocks of
    `loop_reference`, entries left unreduced in {-1, 0, 1}: the
    derivation system of a random a x a x c tensor (a^2 c rows over
    2a^2 + c^2 unknowns, 96-108 x 66-81 here) and the commuting conditions
    of two random a x a matrices stacked (2a^2 rows over a^2)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # sparse inputs leave large solution spaces, as refinement's tensors do
    density = draw(st.sampled_from([0.05, 0.15, 0.5]))
    if draw(st.booleans()):
        a, c = draw(st.sampled_from([(4, 6), (5, 4), (6, 3)]))
        b = (rng.random((a, a, c)) < density).astype(np.int64)
        return np.concatenate([_rows_x(b), _rows_y_right(b), -_rows_z(b)], axis=1), 2
    a = draw(st.integers(9, 10))
    eye = np.eye(a, dtype=np.int64)
    ms = (rng.random((2, a, a)) < density).astype(np.int64)
    return np.vstack([np.kron(eye, m.T) - np.kron(m, eye) for m in ms]), 2


@given(st.one_of(_boundary_systems(), _tall_gf2()))
@settings(max_examples=300, deadline=None)
def test_rref_matches_row_loop(case):
    a, p = case
    r, piv = rref(a, p)
    assert_rank_rows_of(r, piv, *loop_rref(a, p))


@given(st.one_of(_boundary_systems(), _tall_gf2()))
@settings(max_examples=150, deadline=None)
def test_nullspace_matches_row_loop(case):
    a, p = case
    ns = nullspace(a, p)
    want = loop_nullspace(a, p)
    assert ns.shape == want.shape and np.array_equal(ns, want)


@st.composite
def _nullspace_inputs(draw):
    """A read-only system over Z_p, p in {2, 3, 5, 251, 65521}, with no
    rows, no columns, all zeros, full rank, many more rows than columns
    (dense or of low rank) or many more columns than rows."""
    p = draw(st.sampled_from([2, 3, 5, 251, 65521]))
    elements = st.integers(0, p - 1)
    kind = draw(st.sampled_from(["no_rows", "no_cols", "zero", "full", "tall", "wide"]))
    if kind == "no_rows":
        a = np.zeros((0, draw(st.integers(0, 12))), dtype=np.int64)
    elif kind == "no_cols":
        a = np.zeros((draw(st.integers(0, 12)), 0), dtype=np.int64)
    elif kind == "zero":
        a = np.zeros(draw(sides), dtype=np.int64)
    elif kind == "full":
        # unit lower times upper with a nonzero diagonal: invertible
        n = draw(st.integers(1, 10))
        low = np.tril(draw(_dense(n, n, elements)), -1) + np.eye(n, dtype=np.int64)
        up = np.triu(draw(_dense(n, n, elements)), 1) + np.diag(
            draw(arrays(np.int64, n, elements=st.integers(1, p - 1))))
        a = (low @ up) % p
    elif kind == "tall":
        rows, cols = draw(st.integers(30, 60)), draw(st.integers(1, 8))
        a = draw(st.one_of(_dense(rows, cols, elements), _low_rank(rows, cols, elements))) % p
    else:
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(20, 40))
        a = draw(st.one_of(_dense(rows, cols, elements), _low_rank(rows, cols, elements))) % p
    a.setflags(write=False)
    return a, p


@given(_nullspace_inputs())
@settings(max_examples=200, deadline=None)
def test_nullspace_matches_two_pass_and_row_loop(case):
    a, p = case
    before = a.copy()
    ns = nullspace(a, p)
    for want in (two_pass_nullspace(a, p), loop_nullspace(a, p)):
        assert ns.dtype == want.dtype and ns.shape == want.shape and np.array_equal(ns, want)
    assert np.array_equal(a, before)
    assert not (a @ ns.T % p).any()


@given(_nullspace_inputs())
@settings(max_examples=200, deadline=None)
def test_reduced_unsigned_inputs_match_int64(case):
    # a reduced system handed over as uint8 or uint16, also read-only and
    # column-reversed, eliminates as its int64 copy does and is left alone
    a, p = case
    r, piv = rref(a, p)
    ns = nullspace(a, p)
    for dtype in [np.uint8, np.uint16] if p <= 256 else [np.uint16]:
        for u in (a.astype(dtype), a[:, ::-1].astype(dtype)[:, ::-1]):
            u.setflags(write=False)
            before = u.copy()
            got_r, got_piv = rref(u, p)
            assert got_r.dtype == np.int64 and np.array_equal(got_r, r) and got_piv == piv
            got = nullspace(u, p)
            assert got.dtype == ns.dtype and got.shape == ns.shape and np.array_equal(got, ns)
            assert u.dtype == dtype and np.array_equal(u, before)


@given(_nullspace_inputs(), st.sampled_from([np.int64, np.uint8, np.uint16]))
@settings(max_examples=200, deadline=None)
def test_rref_returns_its_rank_rows_in_a_fresh_array(case, dtype):
    # len(pivots) x cols int64 rows that own their data, at p = 2 and at odd
    # p, for no rows, no columns and rank 0 too; a Subspace keeps them so
    a, p = case
    if p > np.iinfo(dtype).max:
        dtype = np.uint16
    r, piv = rref(a.astype(dtype), p)
    assert r.shape == (len(piv), a.shape[1]) and r.dtype == np.int64
    assert r.base is None and r.flags.owndata
    assert_rank_rows_of(r, piv, *loop_rref(a, p))
    basis = Subspace(p, a.shape[1], a).basis
    assert basis.base is None and np.array_equal(basis, r)


def test_nullspace_of_the_f256_derivation_system_keeps_only_rank_rows():
    # H(F_256) with F_256 = F_2[x]/(x^8 + x^4 + x^3 + x + 1): the 2048 x 576
    # derivation system has rank 536; its rref padded to 2048 int64 rows
    # took 9.0 MiB, and nullspace then peaked at 9.7 MiB
    t = heisenberg_tensor(make_poly_quotient(2, [1, 1, 0, 1, 1, 0, 0, 0, 1]))
    rows = _system(t, 2, [(0, 1), (1, 1), (2, -1)])
    assert rows.shape == (2048, 576)
    tracemalloc.start()
    try:
        ns = nullspace(rows, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ns.shape == (40, 576)
    assert peak < 6 * 2**20


@given(_boundary_systems())
@settings(max_examples=200, deadline=None)
def test_unsigned_entries_of_p_or_more_are_reduced(case):
    # entries in [0, 3p): each unsigned entry of p or more is reduced, not
    # trusted (at p = 2 an unreduced 2 would otherwise pack as a 1)
    a, p = case
    u = (a % p + p * (np.abs(a) % 3)).astype(np.uint16 if 3 * p <= 2**16 else np.uint32)
    u.setflags(write=False)
    before = u.copy()
    r, piv = rref(u, p)
    assert_rank_rows_of(r, piv, *loop_rref(a, p))
    assert np.array_equal(nullspace(u, p), loop_nullspace(a, p))
    assert np.array_equal(u, before)


def test_unreduced_uint8_at_2_is_reduced():
    u = np.array([[2, 1, 3], [1, 3, 2]], dtype=np.uint8)
    r, piv = rref(u, 2)
    assert np.array_equal(r, [[1, 0, 1], [0, 1, 1]]) and piv == [0, 1]
    assert np.array_equal(nullspace(u, 2), [[1, 1, 1]])


@given(sq, primes, st.data())
@settings(max_examples=150, deadline=None)
def test_subspace_reduce_matches_row_loop(a, p, data):
    s = Subspace(p, a.shape[1], a)
    assert s.pivots == [int(np.flatnonzero(row)[0]) for row in s.basis]
    for vec in [*a, data.draw(arrays(np.int64, a.shape[1], elements=entries))]:
        want = loop_reduce(s.basis, vec, p)
        assert s.contains(vec) == (want is None)
        if want is not None:
            assert np.array_equal(s.residues(vec), want)
    # every row of a lies in its own span
    assert not s.residues(a).any()


@given(_boundary_systems())
@settings(max_examples=150, deadline=None)
def test_adopt_matches_elimination(case):
    # a nullspace result and the basis of a span are rref already: adopted
    # as they are, they give the space that eliminating them again gives
    a, p = case
    for rows in (nullspace(a, p), Subspace(p, a.shape[1], a).basis.copy()):
        want = Subspace(p, a.shape[1], rows)
        got = Subspace.adopt(p, a.shape[1], rows)
        assert got == want and got.pivots == want.pivots
        assert got.basis.dtype == want.basis.dtype and not got.basis.flags.writeable


@st.composite
def _extensions(draw):
    """A basis matrix and rows to add: fresh rows, combinations of the
    basis rows, or their sum, so that the new rows are partly in the span."""
    cols = draw(st.integers(1, 12))
    shape = st.integers(0, 12)
    base = draw(shape.flatmap(lambda r: st.one_of(_dense(r, cols), _low_rank(r, cols))))
    k = draw(shape)
    fresh = draw(st.one_of(_dense(k, cols), _low_rank(k, cols)))
    inside = draw(_dense(k, base.shape[0])) @ base
    return base, draw(st.sampled_from([fresh, inside, fresh + inside]))


@given(_extensions(), st.sampled_from([2, 3, 5, 7, 13, 17, 251]))
@settings(max_examples=200, deadline=None)
def test_extend_matches_stacked_rref(case, p):
    base, rows = case
    space = Subspace(p, base.shape[1], base)
    grown, fresh = space.extend(rows)
    want = Subspace(p, base.shape[1], np.vstack([base, rows]))
    assert grown == want and grown.pivots == want.pivots
    assert grown.basis.dtype == want.basis.dtype and not grown.basis.flags.writeable
    # the fresh rows are the grown basis rows at the pivots the old one lacks
    new = [i for i, c in enumerate(want.pivots) if c not in space.pivots]
    assert fresh.shape == (len(new), base.shape[1]) and np.array_equal(fresh, want.basis[new])
    assert new or grown is space


@pytest.mark.parametrize("p, dtype", [(13, np.uint8), (17, np.uint16),
                                      (251, np.uint16), (257, np.uint32), (65521, np.uint32)])
def test_rref_works_in_the_narrowest_dtype(monkeypatch, p, dtype):
    """At odd p, rref picks the narrowest unsigned dtype that holds a pivot
    step, leaves its argument alone and returns int64."""
    picked = []

    def spy(q):
        picked.append(_work_dtype(q))
        return picked[-1]

    monkeypatch.setattr(modlinalg, "_work_dtype", spy)
    # the clearing step forms (p - 1) + (p - 1)**2 here, the largest value
    # any pivot step forms; one dtype narrower would wrap it
    a = np.array([[1, p - 1, 3], [1, p - 1, 2 * p], [-1, -p, p + 1]])
    a.setflags(write=False)
    kept = a.copy()
    r, piv = rref(a, p)
    assert picked == [dtype]
    assert (p - 1) * p <= np.iinfo(dtype).max
    if dtype is not np.uint8:
        narrower = {np.uint16: np.uint8, np.uint32: np.uint16}[dtype]
        assert (p - 1) * p > np.iinfo(narrower).max
    assert_rank_rows_of(r, piv, *loop_rref(a, p))
    assert np.array_equal(a, kept)


def test_rref_at_2_eliminates_packed_rows(monkeypatch):
    """At p = 2 rref picks no working dtype: it packs the rows into ints,
    leaves its argument alone and returns int64."""
    picked = []
    monkeypatch.setattr(modlinalg, "_work_dtype", picked.append)
    a = np.array([[1, 1, 3], [1, 1, 4], [-1, -2, 3]])
    a.setflags(write=False)
    kept = a.copy()
    r, piv = rref(a, 2)
    assert picked == []
    assert_rank_rows_of(r, piv, *loop_rref(a, 2))
    assert np.array_equal(a, kept)


@st.composite
def _packed_systems(draw):
    """GF(2) systems for the packed kernel, entries in {-3, ..., 5}: column
    counts at the byte and word edges of a packed row (and 577, past nine
    words), 0 to 120 rows, sparse to dense, with zero rows and duplicate
    rows mixed in; 0 x n and n x 0 shapes included."""
    cols = draw(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 577]))
    rows = draw(st.sampled_from([0, 1, 3, 20, 120 if cols < 100 else 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.01, 0.1, 0.5]))
    a = np.where(rng.random((rows, cols)) < density, rng.integers(-3, 6, (rows, cols)), 0)
    if rows and draw(st.booleans()):
        a[rng.integers(0, rows, rows // 3 + 1)] = 0
    if rows and draw(st.booleans()):
        a = a[rng.integers(0, rows, rows)]
    return a


@given(_packed_systems())
@settings(max_examples=200, deadline=None)
def test_rref_at_2_matches_dense_kernel_and_row_loop(a):
    a.setflags(write=False)
    kept = a.copy()
    r, piv = rref(a, 2)
    for want_r, want_piv in (loop_rref(a, 2), dense_rref(a, 2)):
        assert_rank_rows_of(r, piv, want_r, want_piv)
    assert np.array_equal(a, kept)


@pytest.mark.parametrize("p", [2, 3, 5, 251, 65521])
def test_dot_matches_int64_products(p):
    """_dot equals int64 `@` mod p on matrices, vectors times matrices,
    stacks and the broadcast stacks of the algebra products, each on both
    sides of _BLAS_MIN_WORK, entries drawn at +-(p - 1) and at random in
    between.  For p below 256 it also multiplies uint8 operands, as the group
    layer's power tables are, with itself and with int64: a uint8 `@`
    overflows unless the operands are cast."""
    rng = np.random.default_rng(p)

    def draw(*shape):
        edge = rng.choice([-(p - 1), p - 1], shape)
        return np.where(rng.random(shape) < 0.5, edge, rng.integers(-(p - 1), p, shape))

    def byte(*shape):
        return np.abs(draw(*shape)).astype(np.uint8)

    small = [(draw(5, 7), draw(7, 3)), (draw(0, 4), draw(4, 2)), (draw(3, 0), draw(0, 2)),
             (draw(7), draw(7, 4)), (draw(4, 3, 6), draw(4, 6, 5)),
             (draw(3, 1, 4, 4), draw(1, 5, 4, 4)), (draw(1, 300), draw(300, 1))]
    large = [(draw(40, 60), draw(60, 50)), (draw(300), draw(300, 40)),
             (draw(6, 20, 30), draw(6, 30, 20)), (draw(8, 1, 16, 16), draw(1, 12, 16, 16)),
             (draw(1, 5000), draw(5000, 1))]
    if p < 256:
        small += [(byte(5, 7), byte(7, 3)), (byte(4, 6, 6), draw(4, 6, 6)),
                  (byte(3, 1, 4, 4), byte(1, 5, 4, 4))]
        large += [(byte(40, 60), byte(60, 50)), (byte(6, 20, 30), draw(6, 30, 20)),
                  (byte(8, 1, 16, 16), byte(1, 12, 16, 16))]
    for cases, blas in ((small, False), (large, True)):
        for a, b in cases:
            work = max(a.size * b.shape[-1], b.size * (a.shape[-2] if a.ndim > 1 else 1))
            assert (work >= _BLAS_MIN_WORK) == blas
            got = _dot(a, b, p)
            want = a.astype(np.int64) @ b.astype(np.int64) % p
            assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("sign", [1, -1])
def test_dot_is_exact_past_the_float64_chunk_bound(sign):
    """At p = 65521 a dot product of more than 2**53 // (p - 1)**2 terms
    of size about (p - 1)**2 passes 2**53; its sum here is odd, so one
    float64 product cannot hold it, and _dot must split it."""
    p = MAX_PRIME
    k = (1 << 53) // (p - 1) ** 2 + 1025
    a = np.full((1, k), p - 1, dtype=np.int64)
    b = np.full((k, 1), sign * (p - 1), dtype=np.int64)
    a[0, 0], b[0, 0] = p - 2, sign * (p - 2)
    total = (k - 1) * (p - 1) ** 2 + (p - 2) ** 2
    assert total > 1 << 53 and total % 2 == 1
    assert int((a.astype(np.float64) @ b.astype(np.float64))[0, 0]) != sign * total
    assert _dot(a, b, p).tolist() == [[sign * total % p]] == ((a @ b) % p).tolist()


def test_max_prime_is_the_largest_prime_below_2_16():
    assert is_prime(MAX_PRIME) and MAX_PRIME < 2**16
    assert not any(is_prime(q) for q in range(MAX_PRIME + 1, 2**16))
    check_prime(MAX_PRIME)


@pytest.mark.parametrize("p", [65537, 2**31 - 1, 3037000507])
def test_primes_above_max_prime_are_refused(p):
    # int64 arithmetic went wrong silently at these primes: rref of
    # [[p-1, p-1], [p-1, 1]] at p = 3037000507 gave [290948287, 0] as a pivot row
    a = np.array([[p - 1, p - 1], [p - 1, 1]], dtype=np.int64)
    with pytest.raises(ValueError, match="MAX_PRIME"):
        rref(a, p)
    with pytest.raises(ValueError, match="MAX_PRIME"):
        Subspace(p, 2, a)
    with pytest.raises(ValueError, match="MAX_PRIME"):
        check_prime(p)
    with pytest.raises(ValueError, match="MAX_PRIME"):
        solve_ring(np.array([[[0], [1]], [[-1], [0]]]), p, "adjoint")


@given(sq, primes)
@settings(max_examples=50)
def test_rank_nullity(a, p):
    a = a % p
    _, piv = rref(a, p)
    ns = nullspace(a, p)
    assert len(piv) + ns.shape[0] == a.shape[1]
    # nullspace rows actually annihilate
    assert not ((a @ ns.T) % p).any()


@given(sq, primes)
@settings(max_examples=30)
def test_rref_idempotent(a, p):
    a = a % p
    r1, piv1 = rref(a, p)
    r2, piv2 = rref(r1, p)
    assert np.array_equal(r1, r2) and piv1 == piv2


def test_subspace_symmetric_mod2():
    s = Subspace(2, 2, [[1, 1]])
    assert s.dim == 1 and s.contains([1, 1]) and not s.contains([1, 0])


def test_subspace_le_and_reduce():
    v = Subspace(3, 3, [[1, 0, 0], [0, 1, 0]])
    w = Subspace(3, 3, [[1, 1, 0]])
    # w <= v: every basis row of w has residue zero modulo v
    assert not v.residues(w.basis).any() and w.residues(v.basis).any()
    assert v.contains([1, 2, 0])
    left = v.residues([1, 1, 1])
    assert not v.contains([1, 1, 1]) and left[2] % 3 != 0


def test_full_space():
    f = Subspace(3, 4, np.eye(4, dtype=np.int64))
    assert f.dim == 4 and f.contains([2, 1, 0, 2])


def test_inv_matrix():
    rng = np.random.default_rng(3)
    for p in (2, 3, 5):
        for _ in range(10):
            a = np.eye(4, dtype=np.int64)
            # random unipotent upper triangular is always invertible
            a[np.triu_indices(4, 1)] = rng.integers(0, p, 6)
            inv = inv_matrix(a, p)
            assert np.array_equal((a @ inv) % p, np.eye(4, dtype=np.int64))
    with pytest.raises(Exception):
        inv_matrix(np.zeros((2, 2), dtype=np.int64), 2)
