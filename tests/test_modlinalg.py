import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from loop_reference import loop_nullspace, loop_reduce, loop_rref
from filtra.modlinalg import (
    Subspace,
    full_space,
    inv_matrix,
    inv_mod,
    is_prime,
    nullspace,
    rref,
    solve_nullspace,
)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)


def test_inv_mod():
    for p in (2, 3, 5, 251):
        for x in range(1, min(p, 40)):
            assert (x * inv_mod(x, p)) % p == 1


def test_rref_examples():
    eye = np.eye(3, dtype=np.int64)
    r, piv = rref(eye, 5)
    assert np.array_equal(r, eye) and piv == [0, 1, 2]

    r, piv = rref(np.array([[2, 4], [1, 2]]), 5)
    assert np.array_equal(r, np.array([[1, 2], [0, 0]]))
    assert piv == [0]

    z = np.zeros((2, 3), dtype=np.int64)
    r, piv = rref(z, 3)
    assert np.array_equal(r, z) and piv == []


def test_nullspace_examples():
    assert nullspace(np.eye(4, dtype=np.int64), 3).shape[0] == 0
    assert nullspace(np.zeros((4, 4), dtype=np.int64), 3).shape[0] == 4
    ns = nullspace(np.array([[1, 1]]), 2)
    assert ns.shape == (1, 2)
    assert np.array_equal(ns[0], np.array([1, 1]))


primes = st.sampled_from([2, 3, 5, 7])
entries = st.integers(-3, 9)


def _dense(rows, cols):
    return arrays(np.int64, (rows, cols), elements=entries)


@st.composite
def _low_rank(draw, rows, cols):
    """A product b @ c of rank at most k: dependent rows and zero columns."""
    k = draw(st.integers(0, min(rows, cols)))
    return draw(_dense(rows, k)) @ draw(_dense(k, cols))


sides = st.tuples(st.integers(0, 12), st.integers(0, 12))
# rectangular 0-12 x 0-12, full or low rank, and tall 48 x 8 systems shaped
# like the ring constraint systems (many more equations than unknowns)
sq = st.one_of(
    sides.flatmap(lambda s: _dense(*s)),
    sides.flatmap(lambda s: _low_rank(*s)),
    _dense(48, 8),
    _low_rank(48, 8),
)


@given(sq, primes)
@settings(max_examples=200, deadline=None)
def test_rref_matches_row_loop(a, p):
    r, piv = rref(a, p)
    want_r, want_piv = loop_rref(a, p)
    assert r.dtype == want_r.dtype and np.array_equal(r, want_r)
    assert piv == want_piv


@given(sq, primes)
@settings(max_examples=100, deadline=None)
def test_nullspace_matches_row_loop(a, p):
    ns = nullspace(a, p)
    want = loop_nullspace(a, p)
    assert ns.shape == want.shape and np.array_equal(ns, want)


@given(sq, primes, st.data())
@settings(max_examples=150, deadline=None)
def test_subspace_reduce_matches_row_loop(a, p, data):
    s = Subspace(p, a.shape[1], a)
    assert s.pivots == [int(np.flatnonzero(row)[0]) for row in s.basis]
    for vec in [*a, data.draw(arrays(np.int64, a.shape[1], elements=entries))]:
        got, want = s.reduce(vec), loop_reduce(s.basis, vec, p)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)
    # every row of a lies in its own span
    assert not s.residues(a).any()


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


@given(_extensions(), st.sampled_from([2, 3, 5, 7, 251]))
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
    assert v.reduce([1, 2, 0]) is None
    left = v.reduce([1, 1, 1])
    assert left is not None and left[2] % 3 != 0


def test_full_space():
    f = full_space(3, 4)
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


def test_solve_nullspace_matches_nullspace():
    rng = np.random.default_rng(11)
    for p in (2, 5):
        rows = rng.integers(0, p, (6, 4))
        got = solve_nullspace(rows, p, 4)
        want = nullspace(rows, p)
        assert got.dim == want.shape[0]
        for r in want:
            assert got.contains(r)
