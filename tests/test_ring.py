import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_field, named_ring
from loop_reference import (basis_vector, frobenius_matrix, frobenius_radical,
                            frobenius_radical_chain, loop_associativity_failure, ring_mult,
                            ring_power)
from oracles import nilpotent_element_radical
from filtra.errors import ClosureViolation
from filtra.modlinalg import Subspace
from filtra.ring import FinCommRing, make_poly_quotient, make_r_circ


def radical(ring) -> Subspace:
    """J from the library chain, the zero space when the chain is empty."""
    chain = ring.radical_chain()
    return chain[0] if chain else Subspace(ring.p, ring.dim)


def test_poly_quotient_examples():
    r = make_poly_quotient(2, [0, 0, 1])  # x^2
    assert r.dim == 2 and r.p == 2
    assert radical(r) == frobenius_radical(r)
    assert radical(r).dim == 1
    assert radical(r).contains([0, 1])

    f4 = make_poly_quotient(2, [1, 1, 1])  # x^2+x+1 irreducible
    assert f4.radical_chain() == frobenius_radical_chain(f4) == []

    r27 = make_poly_quotient(3, [0, 0, 0, 1])  # x^3
    chain = r27.radical_chain()
    assert [s.dim for s in chain] == [2, 1]
    assert chain == frobenius_radical_chain(r27)


def test_poly_quotient_rejects_nonmonic():
    with pytest.raises(ValueError):
        make_poly_quotient(2, [1, 1, 2])
    with pytest.raises(ValueError):
        make_poly_quotient(2, [1])


def test_field_constructor():
    f = make_field(5)
    assert f.dim == 1
    assert f.radical_chain() == frobenius_radical_chain(f) == []
    assert np.array_equal(ring_mult(f, [2], [4]), np.array([3]))


def test_mult_against_polynomial_arithmetic():
    # multiply (1+x) by (1+x) in F_2[x]/(x^2+x+1): 1 + x^2 = x
    f4 = named_ring("F4")
    got = ring_mult(f4, [1, 1], [1, 1])
    assert np.array_equal(got, np.array([0, 1]))
    # and in F_2[x]/(x^2): 1 + x^2 = 1
    r = named_ring("F2[x]/x2")
    assert np.array_equal(ring_mult(r, [1, 1], [1, 1]), np.array([1, 0]))


def test_mult_matrix_convention():
    r = named_ring("F3[x]/x3")
    x = np.array([0, 1, 0])
    m = r.mult_matrix(x)
    y = np.array([1, 2, 1])
    assert np.array_equal((y @ m) % 3, ring_mult(r, y, x))
    assert np.array_equal((r.unit @ m) % 3, x)


def test_frobenius():
    f4 = named_ring("F4")
    frob = frobenius_matrix(f4)
    sq = (frob @ frob) % 2
    assert np.array_equal(sq, np.eye(2, dtype=np.int64))
    assert not np.array_equal(frob, np.eye(2, dtype=np.int64))


@pytest.mark.parametrize("name", ["F2", "F4", "F2[x]/x2", "F3[x]/x2", "F3[x]/x3"])
def test_radical_vs_nilpotent_enumeration(name):
    r = named_ring(name)
    want = nilpotent_element_radical(r)
    for got in (radical(r), frobenius_radical(r)):
        assert got.dim == want.dim
        assert got == want


def test_power():
    r = named_ring("F2[x]/x3")
    x = np.array([0, 1, 0])
    assert np.array_equal(ring_power(r, x, 2), np.array([0, 0, 1]))
    assert not ring_power(r, x, 3).any()
    assert np.array_equal(ring_power(r, x, 0), r.unit)


def test_r_circ_is_poly_quotient_for_scalar_circ():
    # V = W = F_p with circ = multiplication gives Z_p[x]/(x^3)
    for p in (2, 3):
        rc = make_r_circ(p, 1, 1, [[[1]]])
        pq = make_poly_quotient(p, [0, 0, 0, 1])
        assert np.array_equal(rc.table, pq.table)
        assert np.array_equal(rc.unit, pq.unit)


def test_r_circ_radical():
    rc = make_r_circ(2, 2, 1, [[[1], [0]], [[0], [1]]])
    assert rc.dim == 4
    assert frobenius_radical(rc).dim == 3  # V + W
    chain = rc.radical_chain()
    assert [s.dim for s in chain] == [3, 1]
    assert chain == frobenius_radical_chain(rc)


def test_radical_chain_matches_frobenius_reference():
    # radical_chain reads the algrep radical of the regular representation;
    # the Frobenius kernel gives the same J^i, Subspace by Subspace, on
    # random polynomial quotients (fields among them) and circle rings
    rng = np.random.default_rng(28)
    rings = [make_poly_quotient(2, [1, 1, 0, 1]), make_poly_quotient(3, [1, 0, 1]),
             make_poly_quotient(5, [2, 0, 1])]  # F_8, F_9, F_25
    for p in (2, 3, 5):
        for deg in range(1, 7):
            for _ in range(3):
                rings.append(make_poly_quotient(p, list(rng.integers(0, p, deg)) + [1]))
    for p in (2, 3):
        for v, w in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2)):
            circ = rng.integers(0, p, (v, v, w))
            circ = (circ + circ.transpose(1, 0, 2)) % p
            if not circ.any():
                circ[0, 0, 0] = 1
            rings.append(make_r_circ(p, v, w, circ))
    fields = 0
    for r in rings:
        chain = r.radical_chain()
        assert chain == frobenius_radical_chain(r), r
        fields += r.dim > 1 and not chain
    assert fields >= 3


def test_r_circ_rejects_degenerate():
    from filtra.errors import DimensionMismatch

    with pytest.raises(ValueError):
        make_r_circ(2, 1, 1, [[[0]]])
    with pytest.raises(DimensionMismatch):
        make_r_circ(2, 2, 1, [[[0], [1]], [[1], [1]]][:1])  # wrong shape
    with pytest.raises(ValueError):
        make_r_circ(2, 2, 1, [[[0], [1]], [[0], [1]]])  # not symmetric


def test_ring_checks_reject_bad_tables():
    # non-commutative table
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0, 0, 0] = 1
    t[0, 1, 1] = 1
    t[1, 0, 1] = 1
    t[1, 1, 0] = 1
    t[0, 1, 0] = 1  # breaks symmetry
    with pytest.raises(Exception):
        FinCommRing(2, t, [1, 0])
    # x is not the unit of F_2[x]/(x^2)
    with pytest.raises(ClosureViolation, match="designated unit"):
        FinCommRing(2, make_poly_quotient(2, [0, 0, 1]).table, [0, 1])


def test_ring_checks_reject_nonassociative_table():
    # basis 1, x, y with x*x = y, x*y = 0, y*y = x: commutative and unital,
    # but (x*x)*y = x while x*(x*y) = 0
    t = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        t[0, i, i] = t[i, 0, i] = 1
    t[1, 1, 2] = 1
    t[2, 2, 1] = 1
    with pytest.raises(ClosureViolation, match=r"associativity fails at basis \(1,1,2\)"):
        FinCommRing(2, t, [1, 0, 0])
    # the same table with y*y = 0 is F_2[x]/(x^3)
    t[2, 2, 1] = 0
    assert np.array_equal(FinCommRing(2, t, [1, 0, 0]).table,
                          make_poly_quotient(2, [0, 0, 0, 1]).table)


@given(p=st.sampled_from([2, 3]), coeffs=st.lists(st.integers(0, 2), min_size=2, max_size=4),
       flips=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3)),
                      max_size=2))
@settings(max_examples=60, deadline=None)
def test_associativity_check_matches_loop(p, coeffs, flips):
    # a polynomial quotient (associative) with a few symmetric entries of the
    # non-unit part changed: the check must reject exactly the tables the
    # old triple loop rejects, naming the same first triple
    base = make_poly_quotient(p, coeffs + [1])
    d, t = base.dim, base.table.copy()
    for i, j, k in flips:
        if max(i, j, k) < d:
            t[i, j, k] = t[j, i, k] = (t[i, j, k] + 1) % p
    want = loop_associativity_failure(t, p)
    if want is None:
        assert np.array_equal(FinCommRing(p, t, base.unit).table, t)
    else:
        with pytest.raises(ClosureViolation, match=r"associativity fails at basis \(%d,%d,%d\)" % want):
            FinCommRing(p, t, base.unit)


def test_power_basis_tables_are_checked_in_cubic_time():
    # F_2[x]/(x^85 + x + 1): the table is checked against x^(i+j) mod f, in
    # O(d^3) instead of the d^5 triple check
    start = time.perf_counter()
    r = make_poly_quotient(2, [1, 1] + [0] * 83 + [1])
    assert time.perf_counter() - start < 0.5
    x84, x = basis_vector(r, 84), basis_vector(r, 1)
    assert r.dim == 85 and np.array_equal(ring_mult(r, x84, x), (r.unit + x) % 2)
    # a supplied table that is commutative but not associative is still
    # refused: e_84 * e_84 = x^168 is changed, which breaks the recurrence
    t = r.table.copy()
    t[84, 84, 0] ^= 1
    with pytest.raises(ClosureViolation, match=r"associativity fails at basis \(1,83,84\)"):
        FinCommRing(2, t, r.unit)
    t = r.table.copy()
    t[3, 5, 0] ^= 1
    with pytest.raises(ClosureViolation, match="not commutative"):
        FinCommRing(2, t, r.unit)


@given(p=st.sampled_from([2, 3, 5]), coeffs=st.lists(st.integers(0, 4), min_size=1, max_size=6),
       cell=st.tuples(st.integers(0, 10), st.integers(0, 5)))
@settings(max_examples=80, deadline=None)
def test_power_basis_check_matches_loop(p, coeffs, cell):
    # the power-basis table of Z_p[x]/(f) with one x^k (k = i + j) moved
    # keeps its Hankel shape; it must be accepted exactly when the old
    # triple loop finds no failing triple
    base = make_poly_quotient(p, coeffs + [1])
    d, t = base.dim, base.table.copy()
    k, m = cell[0] % (2 * d - 1), cell[1] % d
    hankel = np.add.outer(np.arange(d), np.arange(d)) == k
    t[hankel, m] = (t[hankel, m] + 1) % p
    want = loop_associativity_failure(t, p)
    if want is None and np.array_equal(np.einsum("j,ijk->ik", base.unit, t) % p, np.eye(d)):
        assert np.array_equal(FinCommRing(p, t, base.unit).table, t)
    else:
        with pytest.raises(ClosureViolation):
            FinCommRing(p, t, base.unit)
