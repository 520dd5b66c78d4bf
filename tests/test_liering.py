from itertools import product

import numpy as np
import pytest

from conftest import hei, named_hei, ut
from loop_reference import (
    bracket_coords, loop_check_bilinear, loop_check_well_defined, loop_product_tensor,
)
from filtra.errors import ClosureViolation, FiltraError, NotAbelianSection
from filtra.filters import Filter, eta_filter, gamma_filter, kappa_filter
from filtra.liering import GradedLieRing


def test_ut4_graded_dims():
    ring = GradedLieRing(gamma_filter(ut(4, 2)))
    assert {s: ring.dim(s) for s in ring.filter.keys} == {(1,): 3, (2,): 2, (3,): 1}
    assert ring.component_indices() == [(1,), (2,), (3,)]
    assert ring.leading_index() == (1,)


def test_ut3_bracket_tensor_is_symplectic():
    # two generators, one central target: the only nondegenerate
    # alternating option over F_2
    ring = GradedLieRing(gamma_filter(ut(3, 2)))
    t = ring.product_tensor((1,), (1,))
    assert t.shape == (2, 2, 1)
    assert np.array_equal(t, np.array([[[0], [1]], [[1], [0]]]))


def test_ut3_mod3_bracket_antisymmetric():
    ring = GradedLieRing(gamma_filter(ut(3, 3)))
    t = ring.product_tensor((1,), (1,))
    assert t.shape == (2, 2, 1)
    assert t[0, 0, 0] == t[1, 1, 0] == 0
    assert t[0, 1, 0] in (1, 2)
    assert t[1, 0, 0] == (-t[0, 1, 0]) % 3


def test_heisenberg_bracket_tensor():
    ring = GradedLieRing(gamma_filter(hei(2, (0, 1))))
    t = ring.product_tensor((1,), (1,))
    assert np.array_equal(t, np.array([[[0], [1]], [[1], [0]]]))


def test_bimap_at_shape():
    ring = GradedLieRing(gamma_filter(ut(4, 2)))
    assert ring.product_tensor((1,), (1,)).shape == (3, 3, 2)


def test_bracket_coords_linear_in_tensor():
    ring = GradedLieRing(gamma_filter(ut(4, 2)))
    x = np.array([1, 0, 1])
    y = np.array([0, 1, 0])
    t = ring.product_tensor((1,), (1,))
    want = np.einsum("i,j,ijk->k", x, y, t) % 2
    assert np.array_equal(bracket_coords(ring, (1,), (1,), x, y), want)


@pytest.mark.parametrize(
    "ring",
    [
        GradedLieRing(gamma_filter(ut(5, 2))),
        GradedLieRing(eta_filter(hei(3, (0, 0, 1)))),
    ],
    ids=["gamma-ut5", "eta-hei-F3x2"],
)
def test_lie_axiom_suite(ring, rng):
    idx = ring.component_indices()
    for s, t in product(idx, repeat=2):
        assert ring.check_antisymmetry(s, t) == []
        assert ring.check_bilinear(s, t, 4, rng) == []
        assert ring.check_well_defined(s, t, 2, rng) == []
    for s, t, u in product(idx, repeat=3):
        assert ring.check_jacobi(s, t, u) == []


def test_eta_heisenberg_dims():
    ring = GradedLieRing(eta_filter(hei(3, (0, 0, 1))))
    assert {s: ring.dim(s) for s in ring.filter.keys} == {(1,): 4, (2,): 2}


def test_corrupted_tensor_is_caught():
    ring = GradedLieRing(gamma_filter(ut(3, 2)))
    good = ring.product_tensor((1,), (1,))
    bad = good.copy()
    bad[0, 0, 0] = 1  # breaks alternating on the diagonal
    ring._tensors[((1,), (1,))] = bad
    report = ring.check_antisymmetry((1,), (1,))
    assert any(v[0] == "alternating" for v in report)


def test_non_abelian_section_reported():
    # phi_2 pretends to be trivial although [G, G] is not
    g = ut(3, 2)
    f = Filter(g, 1, {(1,): g.full_subgroup()}, ((2,),))
    ring = GradedLieRing(f)
    with pytest.raises(NotAbelianSection):
        ring.product_tensor((1,), (1,))


def escaping_filter() -> Filter:
    # sections stay abelian but [phi_{10}, phi_{01}] escapes phi_{11}
    g = ut(4, 2)
    gamma2 = gamma_filter(g).at((2,))
    return Filter(
        g, 2,
        {(1, 0): g.full_subgroup(), (0, 1): gamma2, (2, 0): gamma2},
        ((1, 1), (0, 2), (3, 0)),
    )


def test_closure_violation_reported():
    ring = GradedLieRing(escaping_filter())
    with pytest.raises(ClosureViolation):
        ring.product_tensor((1, 0), (0, 1))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except FiltraError as exc:
        return type(exc), str(exc)


def assert_batched_matches_loops(f: Filter, tamper=None):
    """Product tensors and the bilinear / well-defined checks agree with the
    one-pair-at-a-time loops: bit-identical tensors, the same violations in
    the same order, and the same random stream consumed.  One
    ``check_brackets`` call over every (s, t) of the filter, on a fresh
    ring, matches the two loops run pair by pair, and raises the same
    error when a tensor fails."""
    ring = GradedLieRing(f)
    keys = f.keys
    for s, t in product(keys, repeat=2):
        got, want = _outcome(ring.product_tensor, s, t), _outcome(loop_product_tensor, ring, s, t)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        else:
            assert not isinstance(got, np.ndarray) and got == want
    if tamper is not None:
        tamper(ring)
    fast, slow = np.random.default_rng(7), np.random.default_rng(7)
    for s, t in product(keys, repeat=2):
        for method, loop, trials in ((GradedLieRing.check_bilinear, loop_check_bilinear, 3),
                                     (GradedLieRing.check_well_defined,
                                      loop_check_well_defined, 2)):
            got = _outcome(method, ring, s, t, trials, fast)
            want = _outcome(loop, ring, s, t, trials, slow)
            assert got == want, (method.__name__, s, t)
            if isinstance(want, list):
                assert fast.bit_generator.state == slow.bit_generator.state
            else:
                # a check that raises through product_tensor may stop at
                # another draw; the stream is not used after that
                slow.bit_generator.state = fast.bit_generator.state

    def fresh() -> GradedLieRing:
        ring = GradedLieRing(f)
        if tamper is not None:
            tamper(ring)
        return ring

    pairs = list(product(keys, repeat=2))
    fast, slow = np.random.default_rng(7), np.random.default_rng(7)
    got = _outcome(fresh().check_brackets, pairs, 3, 2, fast)
    ring = fresh()
    want = _outcome(lambda: [(loop_check_bilinear(ring, s, t, 3, slow),
                              loop_check_well_defined(ring, s, t, 2, slow))
                             for s, t in pairs])
    assert got == want
    if isinstance(want, list):
        assert fast.bit_generator.state == slow.bit_generator.state


LOOP_GROUPS = {f"UT({d},{p})": (lambda d=d, p=p: ut(d, p))
               for d in (3, 4, 5) for p in (2, 3, 5) if (d, p) != (5, 5)}
LOOP_GROUPS.update({f"H({name})": (lambda name=name: named_hei(name))
                    for name in ("F2", "F3", "F4", "F2[x]/x2", "F3[x]/x2")})


@pytest.mark.parametrize("series", [gamma_filter, eta_filter, kappa_filter],
                         ids=["gamma", "eta", "kappa"])
@pytest.mark.parametrize("group_name", sorted(LOOP_GROUPS))
def test_batched_brackets_match_loops(group_name, series):
    assert_batched_matches_loops(series(LOOP_GROUPS[group_name]()))


def test_batched_checks_match_loops_on_broken_filters():
    # [phi_{10}, phi_{01}] escapes phi_{11}: product_tensor raises
    assert_batched_matches_loops(escaping_filter())

    # a tampered tensor: the bilinear and well-defined checks both object
    def tamper(ring):
        bad = ring.product_tensor((1,), (1,)).copy()
        bad[0, 1] = (bad[0, 1] + 1) % 2
        ring._tensors[((1,), (1,))] = bad

    assert_batched_matches_loops(gamma_filter(ut(4, 2)), tamper)
    ring = GradedLieRing(gamma_filter(ut(4, 2)))
    tamper(ring)
    rng = np.random.default_rng(7)
    assert ring.check_well_defined((1,), (1,), 2, rng) != []
    assert ring.check_bilinear((1,), (1,), 8, rng) != []

    # phi_2 = gamma_2 of UT(4,2) over phi_3 = 1: the bracket of phi_1 / phi_2
    # changes when a rep is moved by gamma_2, since [gamma_2, G] = gamma_3 != 1
    g = ut(4, 2)
    f = Filter(g, 1, {(1,): g.full_subgroup(), (2,): gamma_filter(g).at((2,))}, ((3,),))
    assert_batched_matches_loops(f)
    ring = GradedLieRing(f)
    assert ring.check_well_defined((1,), (1,), 2, np.random.default_rng(7)) != []
