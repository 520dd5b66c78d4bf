from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHAIN_BREAK, LEX_HOLE, hei, subgroup, ut
from loop_reference import compact, generate_with_tails, loop_generate
from oracles import path_product_values
from test_group import transvection_words
from filtra import monoid
from filtra.errors import DimensionMismatch, FiltraError, NonNormalGenerator, NotOrderReversing
from filtra.filters import (
    Filter,
    eta_filter,
    filter_to_json,
    gamma_filter,
    generate,
    kappa_filter,
    series_filter,
    verify_axioms,
)
from filtra.group import UnipotentGroup, group_from_spec, lower_central_series, make_ut
from filtra.liering import GradedLieRing
from filtra.refine import METHODS, refine_stable


def center_of(g):
    return lower_central_series(g)[-1]


def test_at_and_plus():
    g = ut(3, 2)
    f = gamma_filter(g)
    assert f.keys == [(1,), (2,)]
    assert f.trivial_minimals == ((3,),)
    assert f.at((0,)).order() == 8
    assert f.at((1,)).order() == 8
    assert f.at((2,)).order() == 2
    assert f.at((3,)).order() == 1
    assert f.at((9,)).order() == 1
    assert f.plus((1,)).order() == 2
    assert f.plus((2,)).order() == 1
    assert GradedLieRing(f).component_indices() == [(1,), (2,)]


def test_trivial_minimal_clipping_in_higher_dim():
    g = ut(3, 2)
    f = Filter(g, 2, {(1, 0): center_of(g)}, ((2, 0),))
    assert f.at((2, 5)).order() == 1
    assert f.at((1, 7)).order() == 2  # (2,0) does not divide (1,7)


def test_index_zero_rejected_in_support():
    g = ut(3, 2)
    with pytest.raises(DimensionMismatch):
        Filter(g, 1, {(0,): g.full_subgroup()})


def test_chain_and_length():
    g = ut(4, 2)
    f = gamma_filter(g)
    assert [s.order() for s in f.chain()] == [64, 8, 2, 1]
    assert f.length() == 3
    assert len(set(f.chain())) == 4


def test_chain_rejects_incomparable_values():
    g = ut(3, 2)
    e12 = np.eye(3, dtype=np.int64)
    e12[0, 1] = 1
    e23 = np.eye(3, dtype=np.int64)
    e23[1, 2] = 1
    e13 = np.eye(3, dtype=np.int64)
    e13[0, 2] = 1
    a = subgroup(g, [e12, e13])
    b = subgroup(g, [e23, e13])
    assert a.order() == b.order() == 4
    f = Filter(g, 1, {(1,): a, (2,): b})
    with pytest.raises(NotOrderReversing):
        f.chain()
    rep = verify_axioms(f)
    assert not rep.ok
    # phi_{s+t} is b for every pair, and b is not inside a, so every pair but
    # ((2,), (2,)) fails the intersection axiom
    assert rep.violations == [
        ("order_reversal", (2,)), ("not_eventually_trivial",),
        ("intersection_inclusion", (1,), (1,)), ("intersection_inclusion", (1,), (2,)),
        ("intersection_inclusion", (2,), (1,))]


@pytest.mark.parametrize("make", [gamma_filter, eta_filter, kappa_filter])
@pytest.mark.parametrize("g", [ut(3, 2), ut(3, 3), ut(4, 2)])
def test_series_filters_satisfy_axioms(make, g):
    rep = verify_axioms(make(g))
    assert rep.ok and rep.violations == []


def test_heisenberg_series_satisfy_axioms():
    g = hei(2, (0, 0, 1))
    for make in (gamma_filter, eta_filter, kappa_filter):
        assert verify_axioms(make(g)).ok


def test_verify_flags_non_normal_value():
    g = ut(3, 2)
    e12 = np.eye(3, dtype=np.int64)
    e12[0, 1] = 1
    f = Filter(g, 1, {(1,): g.full_subgroup(), (2,): subgroup(g, [e12])})
    rep = verify_axioms(f)
    assert not rep.ok
    assert ("not_normal", (2,)) in rep.violations


def test_verify_flags_never_trivial():
    g = ut(3, 2)
    f = Filter(g, 1, {(1,): center_of(g)})
    rep = verify_axioms(f)
    assert ("not_eventually_trivial",) in rep.violations


def test_verify_flags_trivial_index_before_nontrivial_key():
    # (1, 1) is recorded trivial, and (2, 0) lies after it in lex order
    # without being divisible by it
    g = ut(3, 2)
    f = Filter(g, 2, {(1, 0): g.full_subgroup(), (2, 0): center_of(g)}, ((1, 1),))
    assert verify_axioms(f).violations == [("lex_hole", (1, 1), (2, 0))]


def test_generate_reproduces_series_domain():
    g = ut(4, 2)
    terms = lower_central_series(g)
    dom = {(i + 1,): t for i, t in enumerate(terms)}
    f = generate(g, 1, dom)
    assert f.keys == [(1,), (2,), (3,)]
    for s, sub in dom.items():
        assert f.at(s) == sub
    assert f.trivial_minimals == ((4,),)


def test_generate_single_generator_gives_gamma():
    for g in (ut(3, 3), ut(4, 2)):
        f = generate(g, 1, {(1,): g.full_subgroup()})
        assert f.chain() == gamma_filter(g).chain()
        for i, t in enumerate(lower_central_series(g)):
            assert f.at((i + 1,)) == t


def test_generate_zero_index_must_be_full():
    g = ut(3, 2)
    f = generate(g, 1, {(0,): g.full_subgroup(), (1,): g.full_subgroup()})
    assert f.at((1,)).order() == 8
    with pytest.raises(NotOrderReversing):
        generate(g, 1, {(0,): center_of(g)})


def test_generate_rejects_bad_domains():
    g = ut(3, 2)
    e12 = np.eye(3, dtype=np.int64)
    e12[0, 1] = 1
    with pytest.raises(NonNormalGenerator):
        generate(g, 1, {(1,): subgroup(g, [e12])})
    with pytest.raises(NotOrderReversing):
        generate(g, 1, {(1,): center_of(g), (2,): g.full_subgroup()})


def test_generate_rejects_a_reversal_inside_a_chain():
    # (1,0) | (1,1) | (2,1) | (2,2): the one failing pair, ((1,1), (2,1)),
    # covers; the pairs that skip over it hold
    g = ut(4, 2)
    g1, g2, g3 = lower_central_series(g)
    dom = {(1, 0): g1, (1, 1): g3, (2, 1): g2, (2, 2): g3}
    with pytest.raises(NotOrderReversing, match=r"at \(2, 1\) not inside generator at \(1, 1\)"):
        generate(g, 2, dom)
    # (1,1) covers both (0,1) and (1,0); only the second pair fails
    dom = {(0, 1): g1, (1, 0): g3, (1, 1): g2}
    with pytest.raises(NotOrderReversing, match=r"at \(1, 1\) not inside generator at \(1, 0\)"):
        generate(g, 2, dom)
    # (1,) | (2,) | (3,): (1,) and (2,) both fail to hold (3,), and the
    # covering pair is the one reported
    with pytest.raises(NotOrderReversing, match=r"at \(3,\) not inside generator at \(2,\)"):
        generate(g, 1, {(1,): g3, (2,): g3, (3,): g2})


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
                       st.integers(0, 2), max_size=6))
def test_generate_order_check_matches_all_pairs(levels):
    # generate tests containment on covering divisibility pairs only; it
    # must reject exactly the domains where some dividing pair fails
    g = ut(4, 2)
    terms = lower_central_series(g)
    dom = {s: terms[k] for s, k in levels.items()}
    bad = any(s != t and monoid.divides(s, t) and not dom[s].contains(dom[t])
              for s in dom for t in dom)
    try:
        generate(g, 2, dom)
    except NotOrderReversing as e:
        # a domain value below a trivial sum is rejected too, after the check
        assert bad == ("not inside generator" in str(e))
    else:
        assert not bad


def test_generate_empty_domain_is_trivial_below_zero():
    g = ut(3, 2)
    f = generate(g, 2, {})
    assert f.at((0, 0)).order() == 8
    for s in [(1, 0), (0, 1), (2, 3)]:
        assert f.at(s).order() == 1


def refinement_domains(g, series, method):
    """(dim, domain) of every filter that refine_stable regenerates."""
    domains = []

    def record(ambient, dim, dom):
        domains.append((dim, dom))
        return generate(ambient, dim, dom)

    with mock.patch("filtra.refine.generate", record):
        refine_stable(series(g), method)
    return domains


def generated(make, g, dim, dom):
    """A generated filter as its keys, values and trivial minimals, or the
    type and message of the error it raised."""
    try:
        f = make(g, dim, dom)
    except FiltraError as exc:
        return type(exc), str(exc)
    return f.keys, [f.support[k] for k in f.keys], f.trivial_minimals


@pytest.mark.parametrize("group,series,method", [
    ("UT(6,2)", gamma_filter, "adjoint"),
    ("UT(7,2)", gamma_filter, "adjoint"),
    ("UT(5,3)", gamma_filter, "adjoint"),
    ("UT(5,3)", kappa_filter, "adjoint"),
    ("LEX_HOLE", kappa_filter, "adjoint"),
    ("CHAIN_BREAK", kappa_filter, "derivation"),
])
def test_generate_matches_loop_reference_on_refinements(group, series, method):
    # the Hypothesis groups rarely refine, so the domains come from named
    # groups whose refinements regenerate several times
    g = {"UT(6,2)": lambda: make_ut(6, 2), "UT(7,2)": lambda: make_ut(7, 2, cap=2**21),
         "UT(5,3)": lambda: make_ut(5, 3),
         "LEX_HOLE": lambda: group_from_spec(LEX_HOLE),
         "CHAIN_BREAK": lambda: group_from_spec(CHAIN_BREAK)}[group]()
    domains = refinement_domains(g, series, method)
    assert domains
    for dim, dom in domains:
        want = generated(loop_generate, g, dim, dom)
        assert generated(generate, g, dim, dom) == want
        assert isinstance(want[0], list)


@settings(max_examples=40, deadline=None)
@given(transvection_words(), st.sampled_from([gamma_filter, eta_filter, kappa_filter]),
       st.sampled_from(METHODS))
def test_generate_matches_loop_reference_on_random_refinements(case, series, method):
    p, d, gens = case
    g = UnipotentGroup(p, d, gens)
    for dim, dom in refinement_domains(g, series, method):
        assert generated(generate, g, dim, dom) == generated(loop_generate, g, dim, dom)


def test_generate_matches_loop_reference_on_bad_domains():
    g = make_ut(4, 2)
    g1, g2, g3 = lower_central_series(g)
    full = g.full_subgroup()
    e12 = np.eye(4, dtype=np.int64)
    e12[0, 1] = 1
    e23 = np.eye(4, dtype=np.int64)
    e23[1, 2] = 1
    # test_generate_rejects_a_reversal_inside_a_chain has the chain cases
    raising = [
        # two values that are not normal: the first in the domain's own order
        (1, {(1,): full, (3,): subgroup(g, [e23]), (2,): subgroup(g, [e12])},
         NonNormalGenerator, "generator at (3,) is not normal"),
        # (1,1) covers both (0,1) and (1,0), and both fail: the lesser s
        (2, {(0, 1): g3, (1, 0): g3, (1, 1): g1, (2, 1): g1},
         NotOrderReversing, "generator at (1, 1) not inside generator at (0, 1)"),
        # failing covering pairs ((1,0), (1,1)) and ((0,2), (2,2)): the lesser t
        (2, {(0, 2): g3, (1, 0): g3, (1, 1): g1, (2, 2): g2},
         NotOrderReversing, "generator at (1, 1) not inside generator at (1, 0)"),
        # [g3, g3] = 1 at (2,), below the domain value at (3,)
        (1, {(1,): g3, (3,): g3},
         NotOrderReversing, "domain value at (3,) conflicts with triviality below it"),
    ]
    for dim, dom, kind, message in raising:
        assert generated(generate, g, dim, dom) == (kind, message)
        assert generated(loop_generate, g, dim, dom) == (kind, message)
    for dom in ({}, {(0, 0): full}):
        assert generated(generate, g, 2, dom) == generated(loop_generate, g, 2, dom)


def test_generate_matches_path_product_oracle():
    g = ut(4, 2)
    terms = lower_central_series(g)
    dom = {(1, 0): g.full_subgroup(), (0, 1): terms[1]}
    f = generate(g, 2, dom)
    oracle = path_product_values(g, dom)
    want = {s: sub for s, sub in oracle.items() if not sub.is_trivial()}
    got = dict(f.support)
    assert got == want


def test_generate_persistent_row_matches_materialized_tail():
    # a row held at its last value: the reference's tail, the plain domain
    # and the materialized row agree
    g = ut(4, 2)
    terms = lower_central_series(g)
    dom = {(1, 0): g.full_subgroup(), (1, 1): terms[1], (1, 2): terms[2]}
    fp = generate_with_tails(g, 2, dom, persistent=((1,),))
    plain = generate(g, 2, dom)
    dense = dict(dom)
    for j in range(3, 7):
        dense[(1, j)] = terms[2]
    fd = generate(g, 2, dense)
    for i in range(4):
        for j in range(7):
            assert fp.at((i, j)) == fd.at((i, j)) == plain.at((i, j)), (i, j)


def test_generate_persistent_requires_recorded_row():
    g = ut(3, 2)
    with pytest.raises(ValueError):
        generate_with_tails(g, 2, {(0, 1): g.full_subgroup()}, persistent=((1,),))


def test_generated_values_contain_gamma():
    # any domain sending e_1 to G descends no faster than gamma
    g = ut(4, 3)
    eta2 = eta_filter(g).at((2,))
    f = generate(g, 1, {(1,): g.full_subgroup(), (2,): eta2})
    for i, t in enumerate(lower_central_series(g)):
        assert f.at((i + 1,)).contains(t)


@settings(max_examples=25, deadline=None)
@given(a=st.integers(1, 3), b=st.integers(0, 3))
def test_generated_filters_satisfy_axioms(a, b):
    g = ut(3, 2)
    dom = {(a, b): g.full_subgroup()}
    f = generate(g, 2, dom)
    rep = verify_axioms(f)
    assert rep.ok, rep.violations


def test_compact():
    g = ut(3, 2)
    z = center_of(g)
    f = Filter(g, 3, {(0, 1, 0): z}, ((0, 2, 0),))
    c = compact(f)
    assert c.dim == 1
    assert c.keys == [(1,)]
    assert c.trivial_minimals == ((2,),)
    assert c.at((1,)) == z
    assert compact(c) is c

    untouched = gamma_filter(g)
    assert compact(untouched) is untouched

    empty = Filter(g, 2, {}, ())
    assert compact(empty).dim == 1


def test_series_filter_skips_trivial_terms():
    g = ut(3, 2)
    terms = lower_central_series(g) + [g.trivial_subgroup()]
    f = series_filter(g, terms)
    assert f.keys == [(1,), (2,)]
    assert f.trivial_minimals == ((3,),)


def test_filter_to_json_shape():
    g = ut(3, 2)
    doc = filter_to_json(gamma_filter(g))
    assert doc["dim"] == 1
    assert doc["length"] == 2
    assert [t["index"] for t in doc["terms"]] == [[1], [2]]
    assert [t["order_exp"] for t in doc["terms"]] == [3, 1]
    for t in doc["terms"]:
        for gen in t["generators"]:
            assert len(gen) == 9 and all(isinstance(x, int) for x in gen)
