import functools
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (elements, hei, jordan_blocks, keys_of, named_hei, named_ring, pattern_keys,
                      subgroup, ut)
from loop_reference import (
    ByteLeastSection,
    CosetSection,
    CosetSubgroup,
    _bfs_closure,
    basis_vector,
    coset_commutator,
    coset_is_normal,
    coset_join,
    coset_join_powers,
    coset_reduced,
    coset_trivial,
    int64_batch_mul,
    one_shot_power_subgroup,
    ring_mult,
    series_batch_inv,
    table_lift,
)
from oracles import exhaustive_commutator_subgroup
from filtra import group as group_module
from filtra.errors import CapExceeded, NotAbelianSection, NotNormal
from filtra.filters import eta_filter, gamma_filter, kappa_filter
from filtra.group import (
    MAX_DEGREE,
    SectionBasis,
    UnipotentGroup,
    batch_inv,
    commutator,
    commutator_subgroup,
    exponent_p_central_series,
    group_from_spec,
    group_to_spec,
    is_normal,
    jennings_series,
    join,
    join_powers,
    lower_central_series,
    make_heisenberg,
    make_ut,
    power_subgroup,
    reduced_generators,
)
from filtra.modlinalg import _BLAS_MIN_WORK, Subspace, inv_matrix, rref
from filtra.refine import METHODS, refine_stable
from filtra.ring import make_r_circ


def transvection(d, i, j, val=1):
    m = np.eye(d, dtype=np.int64)
    m[i, j] = val
    return m


@st.composite
def unipotent_stacks(draw):
    """(p, a): a stack of unipotent matrices, upper unitriangular or
    conjugated by one random invertible T, shaped (k, d, d), (k, 1, d, d)
    or (1, k, d, d) with k possibly 0.  A density below 1 leaves entries
    0, so that powers of a - I vanish early as well as late."""
    p = draw(st.sampled_from([2, 3, 5, 251]))
    d = draw(st.integers(1, 30))
    k = draw(st.integers(0, 4))
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.integers(0, p, (k, d, d)) * (rng.random((k, d, d)) < density), 1)
    a = upper + np.eye(d, dtype=np.int64)
    if draw(st.booleans()):
        while True:
            t = rng.integers(0, p, (d, d))
            if len(rref(t, p)[1]) == d:
                break
        a = (inv_matrix(t, p) @ a % p) @ t % p
    shape = draw(st.sampled_from([(k, d, d), (k, 1, d, d), (1, k, d, d)]))
    return p, a.reshape(shape)


@settings(max_examples=200, deadline=None)
@given(unipotent_stacks())
@example((2, np.zeros((0, 5, 5), dtype=np.int64)))
@example((251, np.zeros((1, 0, 7, 7), dtype=np.int64)))
def test_batch_inv_matches_series_reference(case):
    """The doubling inverse equals the nilpotent-series one, shape for
    shape, and a a^-1 = I."""
    p, a = case
    got = batch_inv(a, p)
    assert got.shape == a.shape
    assert np.array_equal(got, series_batch_inv(a, p))
    one = np.broadcast_to(np.eye(a.shape[-1], dtype=np.int64), a.shape)
    assert np.array_equal(a @ got % p, one)


@st.composite
def class_two_groups(draw):
    """(p, d, gens): two or three generators I + N, each N holding random
    entries at height h = ceil(d / 3) or more above the diagonal.  A
    product of three such N vanishes, so the group has class at most 2 and
    order at most p^9 (three generators, their three commutators and three
    central p-th powers).  At degree 4-6 the products of a few matrices
    stay below _BLAS_MIN_WORK and run in int64; from degree 16 every d x d
    product reaches it and runs in float64.  Half the examples conjugate
    the generators by one random invertible matrix, so that the flag
    basis is not I."""
    p = draw(st.sampled_from([2, 3, 251]))
    d = draw(st.one_of(st.integers(4, 6), st.integers(12, 40)))
    k = draw(st.integers(2, 3))
    density = draw(st.sampled_from([0.2, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = np.triu(np.ones((d, d), dtype=bool), -(-d // 3))
    gens = list(np.eye(d, dtype=np.int64)
                + rng.integers(0, p, (k, d, d)) * (high & (rng.random((k, d, d)) < density)))
    if draw(st.booleans()):
        gens = disguise(p, d, gens, rng)
    return p, d, gens


def int64_power(x: np.ndarray, e: int, p: int) -> np.ndarray:
    """x^e mod p for one matrix, by square-and-multiply in int64_batch_mul."""
    acc = np.eye(len(x), dtype=np.int64)
    for bit in bin(e)[2:]:
        acc = int64_batch_mul(acc, acc, p)
        if bit == "1":
            acc = int64_batch_mul(acc, x, p)
    return acc


def int64_words(mats: np.ndarray, exps: np.ndarray, p: int) -> np.ndarray:
    """The products mats[0]^e_0 mats[1]^e_1 ..., one per row of exps."""
    out = []
    for row in exps.tolist():
        acc = np.eye(mats.shape[-1], dtype=np.int64)
        for m, e in zip(mats, row):
            acc = int64_batch_mul(acc, int64_power(m, e, p), p)
        out.append(acc)
    return np.stack(out)


@settings(max_examples=40, deadline=None)
@given(class_two_groups(), st.integers(0, 2**32 - 1))
@example((251, 40, [transvection(40, 0, 14), transvection(40, 14, 28, 250)]), 0)  # Heisenberg
def test_group_kernels_match_int64_reference(case, seed):
    """`batch_inv`, `commutator`, `Subgroup.elements`, the residues of
    `_sift` and the `SectionBasis` lift / coordinatize round trip, whose
    products all go through `modlinalg._dot`, against `series_batch_inv`
    and `int64_batch_mul`, on both sides of _dot's size rule."""
    p, d, gens = case
    rng = np.random.default_rng(seed)
    g = UnipotentGroup(p, d, gens, cap=p ** 9)
    full = g.full_subgroup()
    mats = np.array(gens, dtype=np.int64)
    # the five-element stacks below run in int64 at degree 4-6, in float64 from 12
    assert (d <= 6) == (5 * d ** 3 < _BLAS_MIN_WORK)

    def flag(x, back=False):  # _conj, in int64_batch_mul
        if g._flag is None:
            return x
        a, b = (g._unflag, g._flag) if back else (g._flag, g._unflag)
        return int64_batch_mul(int64_batch_mul(a, x, p), b, p)

    inv = series_batch_inv(mats, p)
    assert np.array_equal(batch_inv(mats, p), inv)
    want = int64_batch_mul(int64_batch_mul(inv[:, None], inv[None], p),
                           int64_batch_mul(mats[:, None], mats[None], p), p)
    assert np.array_equal(commutator(mats[:, None], mats[None], p), want)
    # h_1^e_1 ... h_n^e_n off the sequence, and sifting gives e back with residue 1
    exps = rng.integers(0, p, (5, full.order_exp()))
    elts = full.elements(exps)
    seq = np.array(full._seq, dtype=np.int64).reshape(-1, d, d)
    assert np.array_equal(elts, int64_words(flag(seq, back=True), exps, p))
    assert np.array_equal(batch_inv(elts, p), series_batch_inv(elts, p))
    # any unitriangular x (flag coordinates) is h_1^e_1 ... h_n^e_n r
    x = np.triu(rng.integers(0, p, (4, d, d)), 1) + np.eye(d, dtype=np.int64)
    x = np.concatenate([x, flag(elts)])
    got, res = full._sift(x.copy())
    assert np.array_equal(int64_batch_mul(int64_words(seq, got, p), res, p), x)
    assert (res[4:] == np.eye(d, dtype=np.int64)).all()
    assert np.array_equal(got[4:], exps)
    # lifts are r_1^c_1 ... r_j^c_j and coordinatize back to c; an element
    # over the lift of its coordinates lies in the denominator
    sec = SectionBasis(full, commutator_subgroup(full, full))
    coords = rng.integers(0, p, (5, sec.dim))
    lifts = sec.lift(coords)
    assert np.array_equal(lifts, int64_words(sec.reps, coords, p))
    back, inside = sec.coordinatize(lifts)
    assert inside.all() and np.array_equal(back, coords)
    mine, inside = sec.coordinatize(elts)
    assert inside.all()
    assert sec.den._holds(int64_batch_mul(elts, series_batch_inv(sec.lift(mine), p), p)).all()


def test_closure_examples():
    g = ut(3, 2)
    assert subgroup(g, []).order() == 1
    assert subgroup(g, [transvection(3, 0, 1)]).order() == 2
    assert ut(4, 2).order() == 64


@pytest.mark.parametrize("d,p", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (3, 5)])
def test_ut_orders(d, p):
    assert make_ut(d, p).order() == p ** (d * (d - 1) // 2)


def test_generators_not_unipotent_rejected():
    with pytest.raises(ValueError):
        UnipotentGroup(3, 2, [np.array([[2, 0], [0, 1]])])


def test_commutator_vs_exhaustive():
    g3 = ut(3, 2)
    full = g3.full_subgroup()
    got = commutator_subgroup(full, full)
    want = exhaustive_commutator_subgroup(full, full)
    assert got.order() == 2
    assert keys_of(got) == keys_of(want)
    # the derived subgroup here is the center: the (0,2) corner
    assert keys_of(got) == pattern_keys(g3, [(0, 2)])


def test_commutator_with_trivial():
    g = ut(3, 2)
    t = g.trivial_subgroup()
    assert commutator_subgroup(g.full_subgroup(), t).is_trivial()


def test_commutator_ut4():
    g = ut(4, 2)
    full = g.full_subgroup()
    got = commutator_subgroup(full, full)
    assert got.order() == 8
    assert keys_of(got) == pattern_keys(g, [(0, 2), (0, 3), (1, 3)])
    assert keys_of(got) == keys_of(exhaustive_commutator_subgroup(full, full))


@pytest.mark.parametrize("d,p", [(3, 2), (3, 3), (4, 2)])
def test_commutator_oracle_grid(d, p):
    g = ut(d, p)
    full = g.full_subgroup()
    sub = subgroup(g, [transvection(d, 0, 1)])
    for a, b in [(full, full), (full, sub), (sub, full), (sub, sub)]:
        assert commutator_subgroup(a, b) == exhaustive_commutator_subgroup(a, b)


def powers_oracle(sub, k):
    g = sub.parent
    mats = elements(sub)
    powed = []
    for m in mats:
        acc = np.eye(g.degree, dtype=np.int64)
        for _ in range(k):
            acc = (acc @ m) % g.p
        powed.append(acc)
    return subgroup(g, powed)


def test_power_subgroup_examples():
    g = ut(3, 2)
    full = g.full_subgroup()
    sq = power_subgroup(full, 2)
    assert sq.order() == 2
    assert sq == powers_oracle(full, 2)
    # elementary abelian to the p is trivial
    c3 = make_ut(2, 3)
    assert power_subgroup(c3.full_subgroup(), 3).is_trivial()
    assert power_subgroup(g.trivial_subgroup(), 2).is_trivial()


def test_power_subgroup_oracle_grid():
    for d, p in [(3, 3), (4, 2), (4, 3), (3, 5)]:
        full = ut(d, p).full_subgroup()
        assert power_subgroup(full, p) == powers_oracle(full, p)
    # exponents whose bits take every branch of square-and-multiply
    full = ut(4, 2).full_subgroup()
    for k in (1, 3, 4, 6):
        assert power_subgroup(full, k) == powers_oracle(full, k), k
    with pytest.raises(ValueError):
        power_subgroup(full, 0)


def test_lower_central_series():
    # series list nontrivial terms only
    got = [h.order() for h in lower_central_series(ut(4, 2))]
    assert got == [64, 8, 2]
    got = [h.order() for h in lower_central_series(ut(3, 3))]
    assert got == [27, 3]
    abelian = make_ut(2, 5)
    assert [h.order() for h in lower_central_series(abelian)] == [5]


def test_eta_series():
    got = [h.order() for h in exponent_p_central_series(ut(3, 2))]
    assert got == [8, 2]
    # eta_2 = [G,G] G^p against a from-scratch product of the two oracles
    g = ut(4, 2)
    full = g.full_subgroup()
    eta = exponent_p_central_series(g)
    comm = exhaustive_commutator_subgroup(full, full)
    pows = powers_oracle(full, 2)
    want = join(comm, pows)
    assert eta[1] == want
    c3 = make_ut(2, 3)
    assert len(exponent_p_central_series(c3)) == 1  # eta_2 already trivial


def test_jennings_series():
    got = [h.order() for h in jennings_series(ut(3, 2))]
    assert got == [8, 2]
    assert keys_of(jennings_series(ut(3, 2))[1]) == pattern_keys(ut(3, 2), [(0, 2)])
    # p >= class: kappa collapses to gamma
    assert jennings_series(ut(3, 3)) == lower_central_series(ut(3, 3))


def test_is_normal_and_join():
    g = ut(3, 2)
    assert is_normal(subgroup(g, [transvection(3, 0, 2)]))
    assert not is_normal(subgroup(g, [transvection(3, 0, 1)]))
    a = subgroup(g, [transvection(3, 0, 1)])
    b = subgroup(g, [transvection(3, 1, 2)])
    assert join(a, b).order() == 8


def test_section_basis_dims():
    g = ut(3, 2)
    full = g.full_subgroup()
    center = subgroup(g, [transvection(3, 0, 2)])
    assert SectionBasis(full, center).dim == 2
    assert SectionBasis(full, full).dim == 0
    g4 = ut(4, 2)
    gam = lower_central_series(g4)
    assert SectionBasis(gam[0], gam[1]).dim == 3
    assert SectionBasis(gam[1], gam[2]).dim == 2


def test_section_basis_eta_den_includes_powers():
    # the section is a Z_p space: denominator absorbs p-th powers
    g = ut(3, 3)
    full = g.full_subgroup()
    sec = SectionBasis(full, subgroup(g, [transvection(3, 0, 2)]))
    assert sec.dim == 2


def test_section_sifts_through_the_denominators_elements():
    # B = <e01 e12> meets depth (0, 1) in e01 e12, not in A's sequence
    # element e01 there; e01 = e12 mod B, so both have coordinate 1
    g = ut(3, 2)
    e01, e12 = transvection(3, 0, 1), transvection(3, 1, 2)
    sec = SectionBasis(g.full_subgroup(), subgroup(g, [e01 @ e12 % 2]))
    assert sec.dim == 1 and np.array_equal(sec.reps, e12[None])
    coords, inside = sec.coordinatize(np.stack([e01, e12, e01 @ e12 % 2]))
    assert inside.all() and coords.tolist() == [[1], [1], [0]]


def test_section_coordinatize_lift_roundtrip():
    g = ut(4, 2)
    gam = lower_central_series(g)
    sec = SectionBasis(gam[0], gam[1])
    rng = np.random.default_rng(5)
    mats = elements(g.full_subgroup())
    for m in mats[rng.integers(0, len(mats), 8)]:
        c = sec.coordinatize(m)
        lifted = sec.lift(c)
        assert np.array_equal(sec.coordinatize(lifted), c)
    zero = sec.lift(np.zeros(sec.dim, dtype=np.int64))
    assert zero.astype(np.uint8).tobytes() in keys_of(gam[1])


def test_section_coordinatize_rejects_outsiders():
    g = ut(4, 2)
    gam = lower_central_series(g)
    sec = SectionBasis(gam[1], gam[2])
    with pytest.raises(ValueError):
        sec.coordinatize(transvection(4, 0, 1))


def test_section_coordinatize_reduces_mod_p():
    g = ut(3, 3)
    gam = lower_central_series(g)
    sec = SectionBasis(gam[0], gam[1])
    for r in sec.reps:
        want = sec.coordinatize(r)
        assert np.array_equal(sec.coordinatize(r + 3 * np.eye(3, dtype=np.int64)), want)
        assert np.array_equal(sec.coordinatize(r - 3), want)
    # 256 = 1 mod 3: the entry must not alias to 0 through a byte cast
    assert np.array_equal(sec.coordinatize(transvection(3, 0, 1, 256)),
                          sec.coordinatize(transvection(3, 0, 1)))
    assert sec.coordinatize(transvection(3, 0, 1)).any()


def test_section_stacks_report_outsiders():
    g = ut(4, 2)
    gam = lower_central_series(g)
    sec = SectionBasis(gam[1], gam[2])
    mats = np.stack([sec.reps[1], transvection(4, 0, 1), sec.reps[0] + 2, transvection(4, 1, 2)])
    coords, inside = sec.coordinatize(mats)
    assert inside.tolist() == [True, False, True, False]
    assert coords.tolist() == [[0, 1], [0, 0], [1, 0], [0, 0]]
    grid, inside = sec.coordinatize(mats.reshape(2, 2, 4, 4))
    assert grid.shape == (2, 2, 2) and inside.shape == (2, 2)
    assert np.array_equal(grid.reshape(4, 2), coords)
    # a stack of coordinate rows lifts row by row, mod p
    rows = np.array([[0, 0], [1, 0], [3, 1], [1, 1]])
    assert np.array_equal(sec.lift(rows), np.stack([sec.lift(r) for r in rows]))
    assert np.array_equal(sec.lift(rows[2]), sec.lift([1, 1]))


def test_section_preimage():
    g = ut(4, 2)
    gam = lower_central_series(g)
    sec = SectionBasis(gam[0], gam[1])
    assert sec.preimage(Subspace(2, 3, np.eye(3, dtype=np.int64))) == gam[0]
    assert sec.preimage(Subspace(2, 3, None)) == gam[1]
    half = sec.preimage(Subspace(2, 3, [sec.coordinatize(transvection(4, 0, 1))]))
    assert half.order() == gam[1].order() * 2


SECTION_GROUPS = {
    "UT(4,2)": lambda: ut(4, 2),
    "UT(3,3)": lambda: ut(3, 3),
    "UT(3,5)": lambda: ut(3, 5),
    "H(F3[x]/x2)": lambda: named_hei("F3[x]/x2"),
}
FILTERS = {"gamma": gamma_filter, "eta": eta_filter, "kappa": kappa_filter}


def filter_sections(group_name, series):
    f = FILTERS[series](SECTION_GROUPS[group_name]())
    return [SectionBasis(f.at(s), f.plus(s)) for s in f.keys]


@pytest.mark.parametrize("series", sorted(FILTERS))
@pytest.mark.parametrize("group_name", sorted(SECTION_GROUPS))
def test_section_tables_match_closure_oracle(group_name, series):
    for sec in filter_sections(group_name, series):
        g, p = sec.parent, sec.parent.p
        num, den = sec.num, sec.den
        mats = elements(num)
        # the denominator is the closure of B and the p-th powers of A
        powers = [np.linalg.matrix_power(m, p) % p for m in mats]
        want_den = reduced_generators(g, sec.den_given.generators + powers)
        den_keys = keys_of(den)
        assert den_keys == keys_of(want_den)
        assert num.order() == p ** sec.dim * den.order()
        # every element of A coordinatizes, and m * lift(coords(m))^-1 lies in B'
        coords = np.array([sec.coordinatize(m) for m in mats])
        assert coords.shape == (num.order(), sec.dim)
        lifts = np.array([sec.lift(c) for c in coords])
        quot = int64_batch_mul(mats, batch_inv(lifts, p), p).astype(np.uint8)
        assert all(q.tobytes() in den_keys for q in quot)
        # the reps are A's sequence elements, in depth order, at the depths
        # that B' lacks, and each coordinatizes to a unit vector
        new = [k for k, depth in enumerate(num._depths) if depth not in den._depths]
        assert len(new) == sec.dim
        reps = num.elements(np.eye(num.order_exp(), dtype=np.int64)[new])
        assert np.array_equal(reps, sec.reps)
        assert np.array_equal(sec.coordinatize(reps)[0], np.eye(sec.dim, dtype=np.int64))
        # lift(c) is r_1^c_1 ... r_j^c_j
        for c in {tuple(c) for c in coords.tolist()}:
            want = np.eye(g.degree, dtype=np.int64)
            for r, k in zip(reps, c):
                want = want @ np.linalg.matrix_power(r, k) % p
            assert np.array_equal(sec.lift(c), want)
        # coordinates add under multiplication
        rng = np.random.default_rng(num.order())
        for i, j in rng.integers(0, num.order(), (8, 2)):
            prod = int64_batch_mul(mats[i], mats[j], p)
            assert np.array_equal(sec.coordinatize(prod), (coords[i] + coords[j]) % p)


@pytest.mark.parametrize("series", sorted(FILTERS))
@pytest.mark.parametrize("group_name", sorted(SECTION_GROUPS))
def test_section_basis_matches_byte_least_reference(group_name, series):
    for sec in filter_sections(group_name, series):
        old = ByteLeastSection(sec.num, sec.den_given)
        p, dim = sec.parent.p, sec.dim
        assert old.den == sec.den and old.dim == dim
        # row i of M is the new coordinates of old rep i; M is invertible and
        # maps the old coordinates of every element of A to its new ones
        change = np.array([sec.coordinatize(r) for r in old.reps]).reshape(dim, dim)
        assert len(rref(change, p)[1]) == dim
        mats = elements(sec.num)
        old_coords = np.array([old.coordinatize(m) for m in mats]).reshape(len(mats), dim)
        new_coords, inside = sec.coordinatize(mats)
        assert inside.all()
        assert np.array_equal(old_coords @ change % p, new_coords)
        # old and new lifts of matching coordinates lie in one coset of B'
        for c in {tuple(c) for c in old_coords.tolist()}:
            new_lift = sec.lift(np.array(c, dtype=np.int64) @ change)
            quot = int64_batch_mul(old.lift(c), batch_inv(new_lift, p), p).astype(np.uint8)
            assert quot.tobytes() in keys_of(sec.den)


def assert_section_matches_coset_layout(sec, mats):
    """The section agrees with the coset layout of A grown from B' up to a
    change of basis, on every matrix of ``mats`` and every coordinate
    vector: the same inside masks, new coordinates equal to the layout's
    times M, where row i of M is the new coordinates of layout rep i and M
    is invertible, and lifts of matching coordinates in one coset of B'."""
    p, d, dim = sec.parent.p, sec.parent.degree, sec.dim
    num, den = (coset_reduced(p, d, sub.generators) for sub in (sec.num, sec.den_given))
    old = CosetSection(CosetSubgroup(p, sec.num.generators, num.rows, num.keys),
                       CosetSubgroup(p, sec.den_given.generators, den.rows, den.keys))
    assert old.den.keys == keys_of(sec.den)
    assert len(old.reps) == dim
    change, rep_inside = sec.coordinatize(np.array(old.reps, dtype=np.int64).reshape(dim, d, d))
    assert rep_inside.all() and len(rref(change, p)[1]) == dim
    got, inside = sec.coordinatize(mats)
    want, want_inside = old.coordinatize(mats)
    assert np.array_equal(inside, want_inside)
    assert got.dtype == want.dtype and np.array_equal(got, want @ change % p)
    coords = np.array(list(product(range(p), repeat=dim)), dtype=np.int64).reshape(p ** dim, dim)
    got, want = sec.lift(coords @ change % p), old.lift(coords)
    assert got.dtype == want.dtype
    quot = int64_batch_mul(want, batch_inv(got, p), p).astype(np.uint8)
    assert all(q.tobytes() in old.den.keys for q in quot)


@pytest.mark.parametrize("series", sorted(FILTERS))
@pytest.mark.parametrize("group_name", sorted(SECTION_GROUPS))
def test_section_matches_coset_layout_reference(group_name, series):
    for sec in filter_sections(group_name, series):
        # every element of the ambient group, inside A or not
        mats = elements(sec.parent.full_subgroup())
        assert sec.coordinatize(mats)[1].sum() == sec.num.order()
        assert_section_matches_coset_layout(sec, mats)


@pytest.mark.parametrize("series", sorted(FILTERS))
@pytest.mark.parametrize("group_name", sorted(SECTION_GROUPS))
def test_section_preimage_matches_closure_oracle(group_name, series):
    rng = np.random.default_rng(1)
    for sec in filter_sections(group_name, series):
        assert_preimages_match_closure(sec, rng)


def assert_preimages_match_closure(sec, rng):
    """The preimages of the zero space, the whole space and a random
    subspace equal the closure of B' and the lifts of a basis, and the
    elements of A whose coordinates lie in the subspace."""
    g, p, dim = sec.parent, sec.parent.p, sec.dim
    spaces = [Subspace(p, dim, None), Subspace(p, dim, np.eye(dim, dtype=np.int64)),
              Subspace(p, dim, rng.integers(0, p, (max(dim // 2, 1), dim)))]
    for space in spaces:
        got = sec.preimage(space)
        gens = sec.den.generators + [sec.lift(v) for v in space.basis]
        _, want = _bfs_closure(p, g.degree, gens, g.cap)
        assert keys_of(got) == want
        assert got.order() == sec.den.order() * p ** space.dim
        inside = {m.astype(np.uint8).tobytes() for m in elements(sec.num)
                  if space.contains(sec.coordinatize(m))}
        assert keys_of(got) == inside


def test_section_rejects_non_normal_denominator():
    # <e02, e13> holds the generator commutators of UT(4,5) but is not normal:
    # conjugating e13 by e01 gives e03 e13
    g = ut(4, 5)
    den = subgroup(g, [transvection(4, 0, 2), transvection(4, 1, 3)])
    with pytest.raises(NotNormal):
        SectionBasis(g.full_subgroup(), den)


def test_section_rejects_non_abelian_quotient():
    # UT(3,2) from (e02, e01, e12): the central first generator commutes with
    # the others, so only the later pair [e01, e12] = e02 shows G/1 is not abelian
    gens = [transvection(3, 0, 2), transvection(3, 0, 1), transvection(3, 1, 2)]
    g = UnipotentGroup(2, 3, gens)
    with pytest.raises(NotAbelianSection):
        SectionBasis(g.full_subgroup(), g.trivial_subgroup())
    assert SectionBasis(g.full_subgroup(), subgroup(g, gens[:1])).dim == 2


def test_make_heisenberg_orders():
    assert named_hei("F2").order() == 8
    assert named_hei("F2[x]/x2").order() == 64
    assert named_hei("F3[x]/x2").order() == 729
    assert named_hei("F4").order() == 64


def test_heisenberg_f2_matches_ut32():
    # H(F_2) is UT(3,2): same order and same gamma orders
    h = named_hei("F2")
    assert h.order() == ut(3, 2).order()
    assert [s.order() for s in lower_central_series(h)] == \
        [s.order() for s in lower_central_series(ut(3, 2))]


def test_heisenberg_group_law():
    # block layout carries (a,b,c) with product adding c + a*b'
    r = named_ring("F2[x]/x2")
    h = named_hei("F2[x]/x2")
    m = r.dim
    g1, g2 = h.generators[0], h.generators[1]
    prod = (g1 @ g2) % 2
    a = (r.unit @ prod[0:m, m:2 * m]) % 2
    b = (r.unit @ prod[m:2 * m, 2 * m:3 * m]) % 2
    c = (r.unit @ prod[0:m, 2 * m:3 * m]) % 2
    assert np.array_equal(a, basis_vector(r, 0))
    assert np.array_equal(b, basis_vector(r, 0))
    assert np.array_equal(c, ring_mult(r, a, b))


@pytest.mark.parametrize("ring", [named_ring(n) for n in ("F4", "F3[x]/x3")]
                         + [make_r_circ(3, 2, 1, [[[1], [2]], [[2], [0]]])])
def test_heisenberg_generators_are_the_basis_multiplications(ring):
    # each table slice read for a generator is the matrix of e_i, as
    # mult_matrix gives it, in the a block and then in the b block
    m = ring.dim
    gens = make_heisenberg(ring).generators
    assert len(gens) == 2 * m
    for i in range(m):
        mul = ring.mult_matrix(basis_vector(ring, i))
        for g, (r0, c0) in zip(gens[2 * i:2 * i + 2], [(0, m), (m, 2 * m)]):
            want = np.eye(3 * m, dtype=np.int64)
            want[r0:r0 + m, c0:c0 + m] = mul
            assert np.array_equal(g, want)


def test_group_spec_roundtrip():
    g = ut(4, 3)
    spec = group_to_spec(g)
    back = group_from_spec(spec)
    assert back.order() == g.order()
    assert back.full_subgroup() == g.full_subgroup()
    assert back.name == g.name


def test_group_from_spec_rejects_bad_shape():
    with pytest.raises(Exception):
        group_from_spec({"p": 2, "degree": 3, "generators": [[1, 0, 1]]})


@pytest.mark.parametrize("spec", [
    [1, 2],
    "UT(3,2)",
    {"degree": 2, "generators": []},
    {"p": 2, "generators": []},
    {"p": 2, "degree": 2},
    # nothing is coerced: p and degree are integers, generators a list of
    # integer lists, name a string
    {"p": 2, "degree": 3, "generators": 5},
    {"p": 2, "degree": 3, "generators": [5]},
    {"p": 2.7, "degree": 2, "generators": []},
    {"p": True, "degree": 2, "generators": []},
    {"p": 2, "degree": "2", "generators": []},
    {"p": 2, "degree": 0, "generators": []},
    {"p": 2, "degree": 2, "generators": [[1, 1.5, 0, 1]]},
    {"p": 2, "degree": 2, "generators": [[1, True, 0, 1]]},
    {"p": 2, "degree": 2, "generators": [[1, 1, 0, 1]], "name": None},
    {"p": 2, "degree": 2, "generators": [[1, 2**70, 0, 1]]},
])
def test_group_from_spec_rejects_malformed_spec(spec):
    with pytest.raises(ValueError, match="group spec"):
        group_from_spec(spec)


@pytest.mark.parametrize("build", [
    lambda d: make_ut(d, 2),
    lambda d: UnipotentGroup(2, d, []),
    lambda d: group_from_spec({"p": 2, "degree": d, "generators": []}),
])
@pytest.mark.parametrize("degree", [-1, 0, MAX_DEGREE + 1, 100000])
def test_degree_out_of_range_rejected(build, degree):
    with pytest.raises(ValueError, match=f"between 1 and {MAX_DEGREE}, not {degree}"):
        build(degree)


def test_heisenberg_degree_checked():
    # the check comes before the ring is used, so a stand-in with p and dim will do
    with pytest.raises(ValueError, match="not 258"):
        make_heisenberg(SimpleNamespace(p=2, dim=86))


def test_non_p_group_rejected():
    # two unipotent transvections over F_2 generate SL(2,2), of order 6
    gens = [transvection(2, 0, 1), transvection(2, 1, 0)]
    with pytest.raises(ValueError, match="p-group"):
        UnipotentGroup(2, 2, gens)
    with pytest.raises(ValueError, match="p-group"):
        group_from_spec({"p": 2, "degree": 2, "generators": [[1, 1, 0, 1], [1, 0, 1, 1]]})
    # over F_251 they generate SL(2,251), of order 15,813,000: refused from
    # the generators, so a cap of 10 is never reached
    with pytest.raises(ValueError, match="p-group"):
        UnipotentGroup(251, 2, gens, cap=10)
    # a generator that is not unipotent fixes no full flag either
    with pytest.raises(ValueError, match="p-group"):
        UnipotentGroup(3, 2, [2 * np.eye(2, dtype=np.int64)])
    # a conjugate of UT(3,5) is a 5-group, though not upper triangular
    lower = [transvection(3, 1, 0), transvection(3, 2, 1)]
    assert UnipotentGroup(5, 3, lower).order() == 125


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        make_ut(4, 3, cap=10)


def test_cap_boundary():
    # |UT(4,2)| = 64: a cap equal to the order builds, one less refuses
    assert make_ut(4, 2, cap=64).order() == 64
    with pytest.raises(CapExceeded):
        make_ut(4, 2, cap=63)


BFS_CAP = 3000


@st.composite
def unipotent_generators(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(2, 5))
    above = d * (d - 1) // 2
    gens = []
    for _ in range(draw(st.integers(0, 4))):
        m = np.eye(d, dtype=np.int64)
        m[np.triu_indices(d, 1)] = draw(st.lists(st.integers(0, p - 1),
                                                 min_size=above, max_size=above))
        gens.append(m)
    return p, d, gens


@st.composite
def transvection_words(draw):
    """2-4 random words in the transvection generators of UT(5,3) or UT(6,2),
    kept when the group they generate is not abelian, so that refining its
    filters regenerates them; half of them disguised."""
    d, p = draw(st.sampled_from([(5, 3), (6, 2)]))
    letters = st.tuples(st.integers(0, d - 2), st.integers(1, p - 1))
    gens = []
    for word in draw(st.lists(st.lists(letters, min_size=1, max_size=6), min_size=2, max_size=4)):
        m = np.eye(d, dtype=np.int64)
        for i, e in word:
            m = m @ transvection(d, i, i + 1, e) % p
        gens.append(m)
    # the commutator subgroup is nontrivial exactly when two generators do not commute
    mats = np.array(gens)
    assume(((mats[:, None] @ mats[None] - mats[None] @ mats[:, None]) % p).any())
    if draw(st.booleans()):
        gens = disguise(p, d, gens, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return p, d, gens


def greedy_reference(p, d, kept, candidates):
    """Keep each candidate outside the element-BFS closure of those kept before it."""
    kept = list(kept)
    for c in candidates:
        if c.astype(np.uint8).tobytes() not in _bfs_closure(p, d, kept, BFS_CAP)[1]:
            kept.append(c)
    return kept


@settings(max_examples=100, deadline=None)
@given(unipotent_generators(), st.integers(0, 4))
def test_sifting_matches_element_bfs(case, split):
    p, d, gens = case
    try:
        _, want = _bfs_closure(p, d, gens, BFS_CAP)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            UnipotentGroup(p, d, gens, cap=BFS_CAP)
        return
    g = UnipotentGroup(p, d, gens, cap=BFS_CAP)
    assert keys_of(g.full_subgroup()) == want
    assert g.order() == len(want)
    # thinning from the trivial group, and from the group of the first `split` generators
    for base in (None, reduced_generators(g, gens[:split])):
        head = [] if base is None else gens[:split]
        got = reduced_generators(g, gens[len(head):], base=base)
        want_kept = greedy_reference(p, d, head, gens[len(head):])
        tail = got.generators[0 if base is None else len(base.generators):]
        assert len(tail) == len(want_kept) - len(head)
        assert all(np.array_equal(a, b) for a, b in zip(tail, want_kept[len(head):]))
        assert keys_of(got) == want
        assert got.order() == len(want)


def _join_powers_calls(run) -> tuple[list, int]:
    """(C, H, result, number of power_subgroup calls) for every join_powers
    call that run() makes, and the number of power_subgroup calls it makes
    in all."""
    calls, powers = [], []

    def spy_power(a, k):
        powers.append(k)
        return power_subgroup(a, k)

    def spy(c, h):
        before = len(powers)
        out = join_powers(c, h)
        calls.append((c, h, out, len(powers) - before))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(group_module, "power_subgroup", spy_power)
        mp.setattr(group_module, "join_powers", spy)
        run()
    return calls, len(powers)


def assert_joins_powers(c, h, got):
    want = join(c, power_subgroup(h, c.parent.p))
    assert keys_of(got) == keys_of(want)
    assert got == want


def _transvection_case(d, p):
    """UT(d, p) as a (p, d, generators) case of ``unipotent_generators``."""
    return p, d, [transvection(d, i, i + 1) for i in range(d - 1)]


def _spec_case(spec):
    """A group spec as a (p, d, generators) case of ``unipotent_generators``."""
    d = spec["degree"]
    return spec["p"], d, [np.array(g, dtype=np.int64).reshape(d, d) for g in spec["generators"]]


@settings(max_examples=100, deadline=None)
@given(unipotent_generators())
# odd p: Hall's criterion decides UT(3,3), UT(3,5) and H(F_3[x]/x^2) over 1
# (class 2 < p); UT(4,3) over 1 has class 3 = p and falls back; a 4x4
# Jordan block over F_3 has a cube outside 1; the Jordan-block groups are
# abelian, with generator p-th powers outside 1
@example(_transvection_case(3, 3))
@example(_transvection_case(4, 3))
@example(_transvection_case(3, 5))
@example((3, 6, named_hei("F3[x]/x2").generators))
@example((3, 4, [np.eye(4, dtype=np.int64) + np.eye(4, k=1, dtype=np.int64)]))
@example(_spec_case(jordan_blocks(2, 3, 5)))
@example(_spec_case(jordan_blocks(3, 3, 4)))
def test_join_powers_matches_power_subgroup(case):
    # join_powers(C, H) decides C H^p from H's generators when it can; it
    # must give exactly the subgroup join(C, power_subgroup(H, p)), element
    # for element
    p, d, gens = case
    try:
        g = UnipotentGroup(p, d, gens, cap=BFS_CAP)
    except CapExceeded:
        return

    def run():
        # the three callers: the eta and kappa series, and every filter section
        for build in (gamma_filter, eta_filter, kappa_filter):
            f = build(g)
            for s in f.keys:
                SectionBasis(f.at(s), f.plus(s))

    calls, _ = _join_powers_calls(run)
    assert calls or g.order() == 1
    # and subgroups C that the whole group normalizes, where G/C need not be abelian
    full = g.full_subgroup()
    for c in lower_central_series(g) + [g.trivial_subgroup()]:
        calls.append((c, full, join_powers(c, full), None))
    for c, h, got, _ in calls:
        assert_joins_powers(c, h, got)


def test_join_powers_falls_back():
    # <J> for a 3x3 Jordan block over F_2 is cyclic of order 4: its G/1
    # section is abelian, but G^2 = <J^2> is not inside 1.  The section
    # grows B' from J^2 without join_powers or listing G
    jordan = np.eye(3, dtype=np.int64) + np.eye(3, k=1, dtype=np.int64)
    g = UnipotentGroup(2, 3, [jordan])
    secs = []
    calls, listed = _join_powers_calls(
        lambda: secs.append(SectionBasis(g.full_subgroup(), g.trivial_subgroup())))
    assert calls == [] and listed == 0
    [sec] = secs
    assert sec.den == power_subgroup(g.full_subgroup(), 2) and sec.den.order() == 2
    # UT(5,3), kappa_3 = [G, kappa_2] G^3: the generators cube to 1 but do not
    # commute modulo C = [G, kappa_2]; G/C has class 2 < 3, so it is regular
    # of exponent 3 and Hall's criterion gives C without listing G
    c, h, got, powered = _join_powers_calls(lambda: jennings_series(ut(5, 3)))[0][1]
    assert h == ut(5, 3).full_subgroup() and powered == 0 and got is c
    assert_joins_powers(c, h, got)
    # UT(3,2) over 1: the generators square to 1 but do not commute, and
    # G^2 is the centre, so the commutator test is what keeps 1 out
    g = ut(3, 2)
    [(c, h, got, powered)], _ = _join_powers_calls(
        lambda: group_module.join_powers(g.trivial_subgroup(), g.full_subgroup()))
    assert powered == 1 and keys_of(got) == pattern_keys(g, [(0, 2)])
    assert_joins_powers(c, h, got)


def test_join_powers_hall_criterion_at_odd_p():
    # UT(d, p) over 1 has class d - 1 and transvection generators of order p
    # (the fallback lists H, the criterion does not):
    # UT(4,5) has class 3 < 5, so it has exponent 5, found in three steps;
    # UT(4,3) has class 3 = 3 and G^3 = <e_14> is not 1
    for d, p, powered, order in [(4, 5, 0, 1), (4, 3, 1, 3), (3, 7, 0, 1)]:
        g = ut(d, p)
        [(c, h, got, n)], _ = _join_powers_calls(
            lambda: group_module.join_powers(g.trivial_subgroup(), g.full_subgroup()))
        assert (n, got.order()) == (powered, order), (d, p)
        assert_joins_powers(c, h, got)
    # the criterion leaves the commutator cache alone: its subgroups are
    # never handed to a later commutator_subgroup call
    g = make_ut(5, 3)
    top = g.full_subgroup()
    c = commutator_subgroup(top, commutator_subgroup(top, top))
    before = dict(g._comm_cache)
    assert join_powers(c, top) is c
    assert g._comm_cache == before


@pytest.mark.parametrize("spec", [jordan_blocks(2, 3, 5), jordan_blocks(3, 3, 4)],
                         ids=lambda spec: spec["name"])
def test_abelian_quotients_list_nothing(spec):
    # in an abelian group every C H^p has HC/C abelian, and the generator
    # p-th powers of G lie outside 1: the three series, every section and
    # every refinement grow C by H's generator p-th powers and list nothing
    g = group_from_spec(spec)

    def run():
        for build in FILTERS.values():
            f = build(g)
            for s in f.keys:
                SectionBasis(f.at(s), f.plus(s))
            for method in METHODS:
                refine_stable(f, method)

    calls, listed = _join_powers_calls(run)
    assert calls and listed == 0
    for c, h, got, _ in calls:
        assert_joins_powers(c, h, got)


@pytest.mark.parametrize("size", [1, 16, 200, 5000])
def test_power_blocks_match_one_shot(monkeypatch, size):
    # blocks of one element, of under a table, of a few tables and of whole
    # subgroups give the subgroup and generators of forming every element
    # at once; each block holds at most max(1, size // d^2) elements
    lower = UnipotentGroup(5, 3, [transvection(3, 1, 0), transvection(3, 2, 1)])
    g43 = ut(4, 3)
    subs = [g43.full_subgroup(), lower_central_series(g43)[1], ut(4, 2).full_subgroup(),
            named_hei("F3[x]/x2").full_subgroup(), lower.full_subgroup(), g43.trivial_subgroup()]
    monkeypatch.setattr(group_module, "POWER_BLOCK", size)
    for a in subs:
        d = a.parent.degree
        blocks = list(group_module._element_blocks(a, size))
        assert max(len(b) for b in blocks) <= max(1, size // (d * d))
        assert sum(len(b) for b in blocks) == a.order()
        for k in (a.parent.p, 2, 4):
            got, want = power_subgroup(a, k), one_shot_power_subgroup(a, k)
            assert got == want
            assert len(got.generators) == len(want.generators)
            assert all(np.array_equal(x, y) for x, y in zip(got.generators, want.generators))


def test_flag_coordinates():
    # the flag basis is the identity for UT and H(R): their generators are
    # already upper unitriangular along the standard flag
    for g in (ut(4, 2), ut(3, 5), named_hei("F4"), named_hei("F3[x]/x2")):
        assert g._flag is None
    # a lower unitriangular UT(3,5): the flag runs the other way, and every
    # sequence element is upper unitriangular in flag coordinates
    g = UnipotentGroup(5, 3, [transvection(3, 1, 0), transvection(3, 2, 1)])
    assert np.array_equal(g._flag, np.eye(3, dtype=np.int64)[::-1])
    for x in g.full_subgroup()._seq:
        assert np.array_equal(np.tril(x), np.eye(3, dtype=np.int64))


def disguise(p, d, gens, rng):
    """The d x d matrices gens, each conjugated by one random invertible matrix."""
    while True:
        m = rng.integers(0, p, (d, d))
        if len(rref(m, p)[1]) == d:
            break
    minv = inv_matrix(m, p)
    return [(minv @ x % p) @ m % p for x in gens]


@st.composite
def disguised_generators(draw):
    """Unipotent generators, each conjugated by one random invertible matrix."""
    p, d, gens = draw(unipotent_generators())
    return p, d, disguise(p, d, gens, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def assert_same_subgroup(got, want: CosetSubgroup):
    """Equal element sets and equal generator lists."""
    assert keys_of(got) == want.keys
    assert len(got.generators) == len(want.generators)
    assert all(np.array_equal(a, b) for a, b in zip(got.generators, want.generators))


@settings(max_examples=60, deadline=None)
@given(disguised_generators(), st.integers(0, 4))
def test_sequences_match_coset_extension_reference(case, split):
    # every subgroup operation against the element-list versions grown by
    # coset extension, on groups that are not upper triangular
    p, d, gens = case
    try:
        ref = coset_reduced(p, d, gens, cap=BFS_CAP)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            UnipotentGroup(p, d, gens, cap=BFS_CAP)
        return
    g = UnipotentGroup(p, d, gens, cap=BFS_CAP)
    assert g.order() == ref.order()
    assert keys_of(g.full_subgroup()) == ref.keys
    # forming elements from exponents and sifting them are inverse
    full = g.full_subgroup()
    exps = np.random.default_rng(split).integers(0, p, (8, full.order_exp()))
    got, residues = full._sift(group_module._conj(g, full.elements(exps)))
    assert np.array_equal(got, exps) and (residues == np.eye(d, dtype=np.int64)).all()
    head, head_ref = reduced_generators(g, gens[:split]), coset_reduced(p, d, gens[:split])
    assert_same_subgroup(head, head_ref)
    assert_same_subgroup(reduced_generators(g, gens[split:], base=head),
                         coset_reduced(p, d, gens[split:], base=head_ref))
    subs = [(g.full_subgroup(), CosetSubgroup(p, g.generators, ref.rows, ref.keys)),
            (g.trivial_subgroup(), coset_trivial(p, d)), (head, head_ref)]
    if gens:
        subs.append((reduced_generators(g, gens[-1:]), coset_reduced(p, d, gens[-1:])))
    for (a, ref_a), (b, ref_b) in product(subs, repeat=2):
        assert_same_subgroup(join(a, b), coset_join(ref_a, ref_b))
        assert is_normal(a, b) == coset_is_normal(ref_a, b.generators)
        g._comm_cache.clear()  # an equal pair cached earlier keeps its own generators
        comm, ref_comm = commutator_subgroup(a, b), coset_commutator(ref_a, ref_b)
        assert_same_subgroup(comm, ref_comm)
        # [A, B] is normalized by A
        assert keys_of(join_powers(comm, a)) == coset_join_powers(ref_comm, ref_a).keys
    assert is_normal(head) == coset_is_normal(head_ref, g.generators)


@settings(max_examples=40, deadline=None)
@given(disguised_generators())
def test_sections_match_coset_layout_reference_on_disguised_groups(case):
    # random generators give reps other than the layout's, so a change of
    # basis M other than I, and sequence elements scaled to leading entry 1
    p, d, gens = case
    try:
        g = UnipotentGroup(p, d, gens, cap=BFS_CAP)
    except CapExceeded:
        return
    mats = elements(g.full_subgroup())
    for build in FILTERS.values():
        f = build(g)
        for s in f.keys:
            assert_section_matches_coset_layout(SectionBasis(f.at(s), f.plus(s)), mats)


@settings(max_examples=30, deadline=None)
@given(disguised_generators(), st.integers(0, 2**32 - 1))
def test_section_preimage_matches_closure_oracle_on_disguised_groups(case, seed):
    # the reps, and so the lifts, are sequence elements in flag coordinates
    # taken back to input coordinates
    p, d, gens = case
    try:
        g = UnipotentGroup(p, d, gens, cap=BFS_CAP)
    except CapExceeded:
        return
    rng = np.random.default_rng(seed)
    for build in FILTERS.values():
        f = build(g)
        for s in f.keys:
            assert_preimages_match_closure(SectionBasis(f.at(s), f.plus(s)), rng)


@functools.cache
def lift_sections() -> list:
    """Every section of the gamma, eta and kappa filters of UT(5,3), UT(6,2)
    and a disguised UT(5,3), whose flag basis is not I, and one section of
    dimension 0."""
    t = UnipotentGroup(3, 5, disguise(3, 5, make_ut(5, 3).generators, np.random.default_rng(7)))
    assert t._flag is not None
    secs = [SectionBasis(f.at(s), f.plus(s))
            for g in (make_ut(5, 3), make_ut(6, 2), t)
            for f in (build(g) for build in FILTERS.values()) for s in f.keys]
    return secs + [SectionBasis(t.full_subgroup(), t.full_subgroup())]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_section_lift_matches_power_tables(seed):
    # a lift is the section's sequence element with exponents c at the reps:
    # bit for bit the product of the reps' powers in depth order, and it
    # coordinatizes back to c
    rng = np.random.default_rng(seed)
    for sec in lift_sections():
        p, d, dim = sec.parent.p, sec.parent.degree, sec.dim
        for shape in ((dim,), (int(rng.integers(0, 5)), dim)):
            c = rng.integers(-p, 2 * p, shape)
            got, want = sec.lift(c), table_lift(sec, c)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            back, inside = sec.coordinatize(got.reshape(-1, d, d))
            assert inside.all() and np.array_equal(back, c.reshape(back.shape) % p)
