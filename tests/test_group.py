import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hei, keys_of, named_hei, named_ring, pattern_keys, ut
from loop_reference import _bfs_closure
from filtra.errors import CapExceeded, NotNormal
from filtra.filters import eta_filter, gamma_filter, kappa_filter
from filtra.group import (
    SectionBasis,
    Subgroup,
    UnipotentGroup,
    batch_inv,
    batch_mul,
    commutator_subgroup,
    exponent_p_central_series,
    group_from_spec,
    group_to_spec,
    is_normal,
    jennings_series,
    join,
    lower_central_series,
    make_heisenberg,
    make_ut,
    power_subgroup,
    reduced_generators,
)
from filtra.modlinalg import Subspace, full_space
from filtra.oracles import exhaustive_commutator_subgroup


def transvection(d, i, j, val=1):
    m = np.eye(d, dtype=np.int64)
    m[i, j] = val
    return m


def test_closure_examples():
    g = ut(3, 2)
    assert g.subgroup([]).order() == 1
    assert g.subgroup([transvection(3, 0, 1)]).order() == 2
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
    sub = g.subgroup([transvection(d, 0, 1)])
    for a, b in [(full, full), (full, sub), (sub, full), (sub, sub)]:
        assert commutator_subgroup(a, b).digest == exhaustive_commutator_subgroup(a, b).digest


def powers_oracle(sub, k):
    g = sub.parent
    mats = sub.elements.mats64()
    powed = []
    for m in mats:
        acc = np.eye(g.degree, dtype=np.int64)
        for _ in range(k):
            acc = (acc @ m) % g.p
        powed.append(acc)
    return g.subgroup(powed)


def test_power_subgroup_examples():
    g = ut(3, 2)
    full = g.full_subgroup()
    sq = power_subgroup(full, 2)
    assert sq.order() == 2
    assert sq.digest == powers_oracle(full, 2).digest
    # elementary abelian to the p is trivial
    c3 = make_ut(2, 3)
    assert power_subgroup(c3.full_subgroup(), 3).is_trivial()
    assert power_subgroup(g.trivial_subgroup(), 2).is_trivial()


def test_power_subgroup_oracle_grid():
    for d, p in [(3, 3), (4, 2), (4, 3), (3, 5)]:
        full = ut(d, p).full_subgroup()
        assert power_subgroup(full, p).digest == powers_oracle(full, p).digest
    # exponents whose bits take every branch of square-and-multiply
    full = ut(4, 2).full_subgroup()
    for k in (1, 3, 4, 6):
        assert power_subgroup(full, k).digest == powers_oracle(full, k).digest, k
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
    assert eta[1].digest == want.digest
    c3 = make_ut(2, 3)
    assert len(exponent_p_central_series(c3)) == 1  # eta_2 already trivial


def test_jennings_series():
    got = [h.order() for h in jennings_series(ut(3, 2))]
    assert got == [8, 2]
    assert keys_of(jennings_series(ut(3, 2))[1]) == pattern_keys(ut(3, 2), [(0, 2)])
    # p >= class: kappa collapses to gamma
    assert [h.digest for h in jennings_series(ut(3, 3))] == \
        [h.digest for h in lower_central_series(ut(3, 3))]
    triv = ut(3, 2).trivial_subgroup()
    assert all(h.is_trivial() for h in jennings_series(ut(3, 2), triv))


def test_is_normal_and_join():
    g = ut(3, 2)
    assert is_normal(g.subgroup([transvection(3, 0, 2)]))
    assert not is_normal(g.subgroup([transvection(3, 0, 1)]))
    a = g.subgroup([transvection(3, 0, 1)])
    b = g.subgroup([transvection(3, 1, 2)])
    assert join(a, b).order() == 8


def test_section_basis_dims():
    g = ut(3, 2)
    full = g.full_subgroup()
    center = g.subgroup([transvection(3, 0, 2)])
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
    sec = SectionBasis(full, g.subgroup([transvection(3, 0, 2)]))
    assert sec.dim == 2


def test_section_coordinatize_lift_roundtrip():
    g = ut(4, 2)
    gam = lower_central_series(g)
    sec = SectionBasis(gam[0], gam[1])
    rng = np.random.default_rng(5)
    mats = g.elements.mats64()
    for m in mats[rng.integers(0, len(mats), 8)]:
        c = sec.coordinatize(m)
        lifted = sec.lift(c)
        assert np.array_equal(sec.coordinatize(lifted), c)
    zero = sec.lift(np.zeros(sec.dim, dtype=np.int64))
    assert gam[1].contains_element(zero)


def test_section_coordinatize_rejects_outsiders():
    g = ut(4, 2)
    gam = lower_central_series(g)
    sec = SectionBasis(gam[1], gam[2])
    with pytest.raises(ValueError):
        sec.coordinatize(transvection(4, 0, 1))


def test_section_preimage():
    g = ut(4, 2)
    gam = lower_central_series(g)
    sec = SectionBasis(gam[0], gam[1])
    assert sec.preimage(full_space(2, 3)).digest == gam[0].digest
    assert sec.preimage(Subspace(2, 3, None)).digest == gam[1].digest
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
        g, p = sec.parent, sec.p
        num = sec.num.elements
        den = sec.den.elements
        # the denominator is the closure of B and the p-th powers of A
        powers = [np.linalg.matrix_power(m, p) % p for m in num.mats64()]
        _, want_den = reduced_generators(p, g.degree, sec.den_given.generators + powers, g.cap)
        assert den.keys == want_den.keys
        assert len(num) == p ** sec.dim * len(den)
        # every element of A coordinatizes, and m * lift(coords(m))^-1 lies in B'
        mats = num.mats64()
        coords = np.array([sec.coordinatize(m) for m in mats])
        assert coords.shape == (len(num), sec.dim)
        lifts = np.array([sec.lift(c) for c in coords])
        quot = batch_mul(mats, batch_inv(lifts, p), p).astype(np.uint8)
        assert all(q.tobytes() in den for q in quot)
        # lift(c) is the least element of its coset B' lift(c)
        for c in {tuple(c) for c in coords.tolist()}:
            lift = sec.lift(c)
            coset = batch_mul(den.mats64(), lift, p).astype(np.uint8)
            assert min(m.tobytes() for m in coset) == lift.astype(np.uint8).tobytes()
        # the reps are a basis, and coordinates add under multiplication
        for i, r in enumerate(sec.reps):
            assert np.array_equal(sec.coordinatize(r), np.eye(sec.dim, dtype=np.int64)[i])
        rng = np.random.default_rng(len(num))
        for i, j in rng.integers(0, len(num), (8, 2)):
            prod = batch_mul(mats[i], mats[j], p)
            assert np.array_equal(sec.coordinatize(prod), (coords[i] + coords[j]) % p)


@pytest.mark.parametrize("series", sorted(FILTERS))
@pytest.mark.parametrize("group_name", sorted(SECTION_GROUPS))
def test_section_preimage_matches_closure_oracle(group_name, series):
    rng = np.random.default_rng(1)
    for sec in filter_sections(group_name, series):
        g, p, dim = sec.parent, sec.p, sec.dim
        spaces = [Subspace(p, dim, None), full_space(p, dim),
                  Subspace(p, dim, rng.integers(0, p, (max(dim // 2, 1), dim)))]
        for space in spaces:
            got = sec.preimage(space)
            gens = sec.den.generators + [sec.lift(v) for v in space.basis]
            want = _bfs_closure(p, g.degree, gens, g.cap)
            assert keys_of(got) == want.keys
            assert got.order() == len(sec.den.elements) * p ** space.dim
            inside = {m.tobytes() for m in sec.num.elements.array
                      if space.contains(sec.coordinatize(m))}
            assert keys_of(got) == inside


def test_section_rejects_non_normal_denominator():
    # <e02, e13> holds the generator commutators of UT(4,5) but is not normal:
    # conjugating e13 by e01 gives e03 e13
    g = ut(4, 5)
    den = g.subgroup([transvection(4, 0, 2), transvection(4, 1, 3)])
    with pytest.raises(NotNormal):
        SectionBasis(g.full_subgroup(), den)


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
    assert np.array_equal(a, r.basis_vector(0))
    assert np.array_equal(b, r.basis_vector(0))
    assert np.array_equal(c, r.mult(a, b))


def test_group_spec_roundtrip():
    g = ut(4, 3)
    spec = group_to_spec(g)
    back = group_from_spec(spec)
    assert back.order() == g.order()
    assert back.elements.digest == g.elements.digest
    assert back.name == g.name


def test_group_from_spec_rejects_bad_shape():
    with pytest.raises(Exception):
        group_from_spec({"p": 2, "degree": 3, "generators": [[1, 0, 1]]})


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


def greedy_reference(p, d, kept, candidates):
    """Keep each candidate outside the element-BFS closure of those kept before it."""
    kept = list(kept)
    for c in candidates:
        if c.astype(np.uint8).tobytes() not in _bfs_closure(p, d, kept, BFS_CAP):
            kept.append(c)
    return kept


@settings(max_examples=100, deadline=None)
@given(unipotent_generators(), st.integers(0, 4))
def test_coset_extension_matches_element_bfs(case, split):
    p, d, gens = case
    try:
        want = _bfs_closure(p, d, gens, BFS_CAP)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            UnipotentGroup(p, d, gens, cap=BFS_CAP)
        return
    g = UnipotentGroup(p, d, gens, cap=BFS_CAP)
    assert g.elements.keys == want.keys
    assert g.elements.digest == want.digest
    # thinning from the trivial group, and from the closure of the first `split` generators
    for base in (None, Subgroup(g, gens[:split], _bfs_closure(p, d, gens[:split], BFS_CAP))):
        head = [] if base is None else gens[:split]
        kept, elems = reduced_generators(p, d, gens[len(head):], BFS_CAP, base=base)
        want_kept = greedy_reference(p, d, head, gens[len(head):])
        assert len(kept) == len(want_kept)
        assert all(np.array_equal(a, b) for a, b in zip(kept, want_kept))
        assert elems.digest == want.digest
