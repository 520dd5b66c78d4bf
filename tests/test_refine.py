import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    CHAIN_BREAK,
    LEX_HOLE,
    elements,
    flip_map,
    hei,
    hei_block_keys,
    keys_of,
    mapped_keys,
    pattern_keys,
    poly_ring,
    ut,
)
from loop_reference import compact, generate_with_tails
from test_group import transvection_words
from filtra.errors import NoNontrivialComponent
from filtra.filters import (
    Filter, eta_filter, filter_to_json, gamma_filter, generate, kappa_filter, verify_axioms,
)
from filtra.group import (
    Subgroup,
    UnipotentGroup,
    commutator_subgroup,
    group_from_spec,
    group_to_spec,
    make_heisenberg,
    make_ut,
)
from filtra.liering import GradedLieRing
from filtra.modlinalg import Subspace, inv_matrix
from filtra.refine import (
    METHODS,
    fingerprint,
    refine_once,
    refine_stable,
    ring_at,
)

UT4_LEVELS = [
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)],
    [(0, 2), (0, 3), (1, 3)],
    [(0, 3)],
]


@pytest.mark.parametrize("p", [2, 3])
def test_ut4_adjoint_refinement_inserts_pattern_subgroup(p):
    g = ut(4, p)
    st = refine_stable(gamma_filter(g), "adjoint")
    assert st.converged and len(st.rounds) == 1
    chain = st.filter.chain()
    assert [s.order_exp() for s in chain] == [6, 5, 3, 1, 0]
    for sub, free in zip(chain[:4], UT4_LEVELS):
        assert keys_of(sub) == pattern_keys(g, free)


@pytest.mark.parametrize("p", [2, 3])
def test_heisenberg_dual_number_refinement(p):
    r = poly_ring(p, (0, 0, 1))
    g = hei(p, (0, 0, 1))
    st = refine_stable(gamma_filter(g), "adjoint")
    assert st.converged
    assert st.filter.length() == 4
    chain = st.filter.chain()
    blocks = [(0, 0, 0), (1, 1, 0), (None, None, 0), (None, None, 1)]
    for sub, (ia, ib, ic) in zip(chain[:4], blocks):
        assert keys_of(sub) == hei_block_keys(g, r, ia, ib, ic)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_heisenberg_over_field_is_stable(p):
    f = gamma_filter(hei(p, (0, 1)))
    rr = refine_once(f, "adjoint")
    assert not rr.proper
    assert rr.filter is f
    assert rr.ring_dim == 4
    assert rr.radical_chain_dims == []


@pytest.mark.parametrize(
    "make,method",
    [
        (lambda: gamma_filter(ut(4, 2)), "adjoint"),
        (lambda: gamma_filter(ut(4, 2)), "derivation"),
        (lambda: gamma_filter(hei(2, (0, 0, 1))), "adjoint"),
        (lambda: gamma_filter(hei(2, (0, 0, 1))), "centroid"),
    ],
    ids=["ut4-adj", "ut4-der", "hei-adj", "hei-cent"],
)
def test_refined_filter_satisfies_axioms_and_extends_chain(make, method):
    f = make()
    rr = refine_once(f, method, check=True)
    assert rr.proper
    assert verify_axioms(rr.filter).ok
    old = set(f.chain())
    new = set(rr.filter.chain())
    assert old <= new


def test_round_lengths_are_monotone():
    st = refine_stable(gamma_filter(hei(2, (0, 0, 0, 1))), "adjoint")
    assert st.converged
    lengths = [r.filter.length() for r in st.rounds]
    assert lengths == sorted(lengths)
    assert st.filter.length() == 6  # 2c + 2 at c = 2


@pytest.mark.parametrize("p", [2, 3])
def test_eta_refines_on_ut4(p):
    # eta of UT(4, p) has graded dims 3, 2 and a nonsemisimple adjoint
    rr = refine_once(eta_filter(ut(4, p)), "adjoint")
    assert rr.proper
    assert rr.section_dim == 3
    assert rr.ring_dim == 4
    assert rr.radical_chain_dims == [2]
    assert rr.inserted == [5, 3]


def test_refined_terms_are_fixed_by_automorphisms(rng):
    from filtra.modlinalg import inv_matrix

    for p in (2, 3):
        g = ut(4, p)
        st = refine_stable(gamma_filter(g), "adjoint")
        chain = st.filter.chain()
        flip = flip_map(p, 4)
        elems = elements(g.full_subgroup())
        picks = elems[rng.integers(0, len(elems), 4)].astype(np.int64)
        for sub in chain:
            assert mapped_keys(sub, flip) == keys_of(sub)
            mats = elements(sub)
            for c in picks:
                ci = inv_matrix(c, p)
                moved = np.matmul(np.matmul(ci[None], mats), c[None]) % p
                got = frozenset(m.astype(np.uint8).tobytes() for m in moved)
                assert got == keys_of(sub)


def hyperplane_witness(f: Filter) -> tuple[Subgroup, bool] | None:
    """Preimage of L_s J^i for the half radical power (J^i != 0, J^2i = 0),
    checked against the third term of the flattened chain.  Returns None
    when the adjoint radical is trivial."""
    lie = GradedLieRing(f)
    s = lie.leading_index()
    if s is None:
        return None
    rd = ring_at(lie, s, "adjoint")
    r = len(rd.radical.chain) + 1
    if r < 2:
        return None
    i = -(-r // 2)
    space = rd.acting_powers[i - 1] if i - 1 < len(rd.acting_powers) \
        else Subspace(lie.p, lie.dim(s), [])
    h = lie.section(s).preimage(space)
    chain = f.chain()
    target = chain[2] if len(chain) > 2 else f.ambient.trivial_subgroup()
    ok = target.contains(commutator_subgroup(h, h))
    return h, ok


def test_hyperplane_witness():
    h, ok = hyperplane_witness(gamma_filter(ut(4, 2)))
    assert h.order_exp() == 5 and ok
    assert hyperplane_witness(gamma_filter(hei(2, (0, 1)))) is None
    h2, ok2 = hyperplane_witness(gamma_filter(hei(2, (0, 0, 1))))
    assert h2.order_exp() == 4 and ok2


def test_ring_at_rejects_unknown_method():
    lie = GradedLieRing(gamma_filter(ut(3, 2)))
    with pytest.raises(ValueError):
        ring_at(lie, (1,), "nope")


def test_refine_requires_nontrivial_component():
    g = make_ut(1, 2)
    with pytest.raises(NoNontrivialComponent):
        refine_once(eta_filter(g), "adjoint")
    # the trivial group is already stable: zero rounds, length 0
    st = refine_stable(eta_filter(g), "adjoint")
    assert st.converged and st.rounds == [] and st.filter.length() == 0
    fp = fingerprint(g)
    assert fp["length"] == 0 and fp["rounds"] == 0


@pytest.mark.parametrize("group", [
    lambda: make_ut(4, 2, cap=64),
    lambda: make_heisenberg(poly_ring(3, (0, 0, 1)), cap=729),
], ids=["UT(4,2)", "H(F3[x]/x2)"])
def test_cap_bounds_only_the_ambient_build(group):
    # a cap of exactly |G| builds G; nothing computed inside G may then exceed it
    g = group()
    assert g.order() == g.cap
    for series in (gamma_filter, eta_filter, kappa_filter):
        f = series(g)
        assert verify_axioms(f).ok
        st = refine_stable(f, "adjoint")
        assert st.converged
        assert verify_axioms(st.filter).ok


def reversed_ut(d: int, p: int) -> UnipotentGroup:
    spec = group_to_spec(make_ut(d, p))
    spec["generators"] = spec["generators"][::-1]
    spec["name"] = "same group, reversed generators"
    return group_from_spec(spec)


def test_fingerprint_ignores_generator_presentation():
    assert fingerprint(make_ut(4, 2)) == fingerprint(reversed_ut(4, 2))
    # the stable filter prints each value by its canonical sequence, so it
    # does not depend on the order the generators came in
    for (d, p), series in itertools.product([(5, 2), (4, 3), (6, 2)],
                                            [gamma_filter, eta_filter, kappa_filter]):
        plain, turned = (filter_to_json(refine_stable(series(g)).filter)
                         for g in (make_ut(d, p), reversed_ut(d, p)))
        assert plain == turned, (d, p, series.__name__)


# UT(3..4, p) and H(F_p[x]/(f)) with deg f = 2, over p in {2, 3}: every
# factorization pattern of f (irreducible, square, two distinct roots)
INVARIANCE_GROUPS = {
    **{f"UT({d},{p})": functools.partial(ut, d, p) for d in (3, 4) for p in (2, 3)},
    **{f"H(F{p}[x]/{f})": functools.partial(hei, p, f)
       for p, fs in ((2, [(1, 1, 1), (0, 0, 1), (0, 1, 1)]), (3, [(1, 0, 1), (0, 0, 1), (0, 1, 1)]))
       for f in fs},
}


@functools.lru_cache(maxsize=None)
def plain_fingerprint(name: str, method: str) -> dict:
    return fingerprint(INVARIANCE_GROUPS[name](), method)


def disguise(g: UnipotentGroup, rng: np.random.Generator) -> UnipotentGroup:
    """The same group up to isomorphism, presented differently: generators
    conjugated by a random invertible upper-triangular matrix, permuted, and
    one of them multiplied by another."""
    p, d = g.p, g.degree
    c = (np.triu(rng.integers(0, p, (d, d)), 1) + np.diag(rng.integers(1, p, d))) % p
    ci = inv_matrix(c, p)
    gens = [(ci @ x @ c) % p for x in g.generators]
    gens = [gens[i] for i in rng.permutation(len(gens))]
    i, j = rng.choice(len(gens), 2, replace=False)
    gens[i] = (gens[i] @ gens[j]) % p
    return UnipotentGroup(p, d, gens, name="disguised")


@pytest.mark.parametrize("method", ["adjoint", "centroid"])
@given(name=st.sampled_from(sorted(INVARIANCE_GROUPS)), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_fingerprint_is_invariant_under_disguise(method, name, seed):
    g = disguise(INVARIANCE_GROUPS[name](), np.random.default_rng(seed))
    assert g.order() == INVARIANCE_GROUPS[name]().order()
    assert fingerprint(g, method) == plain_fingerprint(name, method)


def test_fingerprint_separates_same_order_groups():
    gens = []
    for i, j in [(0, 1), (1, 2), (3, 4), (5, 6), (7, 8)]:
        m = np.eye(9, dtype=np.int64)
        m[i, j] = 1
        gens.append(m)
    prod = UnipotentGroup(2, 9, gens, name="UT(3,2) x C2^3")
    assert prod.full_subgroup().order_exp() == 6
    fa = fingerprint(make_ut(4, 2))
    fb = fingerprint(prod)
    assert fa["order_exp"] == fb["order_exp"] == 6
    assert fa != fb
    assert fa["length"] == 4 and fb["length"] == 3


@pytest.mark.parametrize("method", ["adjoint", "centroid"])
def test_fingerprint_separates_heisenberg_rings(method):
    fa = fingerprint(hei(2, (1, 1, 1)), method)
    fb = fingerprint(hei(2, (0, 0, 1)), method)
    assert fa["order_exp"] == fb["order_exp"] == 6
    assert fa != fb
    assert fa["length"] == 2 and fb["length"] == 4


def case_of(g: UnipotentGroup) -> tuple:
    return g.p, g.degree, list(g.generators)


@settings(max_examples=200, deadline=None)
@given(transvection_words(),
       st.sampled_from([gamma_filter, eta_filter, kappa_filter]), st.sampled_from(METHODS))
@example(case_of(make_ut(5, 3)), kappa_filter, "adjoint")
@example(case_of(make_ut(6, 2)), gamma_filter, "centroid")
@example(case_of(group_from_spec(LEX_HOLE)), kappa_filter, "adjoint")
@example(case_of(group_from_spec(CHAIN_BREAK)), kappa_filter, "derivation")
def test_plain_domain_regenerates_like_held_rows(case, series, method):
    # every round's domain, regenerated as is and with the new row held at
    # its last value past its end, gives the same filter
    p, d, gens = case
    g = UnipotentGroup(p, d, gens, cap=p ** (d * (d - 1) // 2))
    domains = []

    def record(ambient, dim, dom):
        domains.append((dim, dom))
        return generate(ambient, dim, dom)

    with mock.patch("filtra.refine.generate", record):
        refine_stable(series(g), method)
    for dim, dom in domains:
        (head,) = {t[:-1] for t in dom if t[-1]}
        plain = generate(g, dim, dom)
        held = generate_with_tails(g, dim, dom, persistent=(head,))
        assert compact(plain) is plain  # every coordinate is in use
        assert plain.keys == held.keys
        assert plain.trivial_minimals == held.trivial_minimals
        assert all(plain.support[k] == held.support[k] for k in plain.keys)
