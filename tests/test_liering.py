from itertools import product

import numpy as np
import pytest

from conftest import hei, ut
from filtra.errors import ClosureViolation, NotAbelianSection
from filtra.filters import Filter, eta_filter, gamma_filter
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
    assert np.array_equal(ring.bracket_coords((1,), (1,), x, y), want)


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


def test_closure_violation_reported():
    # sections stay abelian but [phi_{10}, phi_{01}] escapes phi_{11}
    g = ut(4, 2)
    gamma2 = gamma_filter(g).at((2,))
    f = Filter(
        g, 2,
        {(1, 0): g.full_subgroup(), (0, 1): gamma2, (2, 0): gamma2},
        ((1, 1), (0, 2), (3, 0)),
    )
    ring = GradedLieRing(f)
    with pytest.raises(ClosureViolation):
        ring.product_tensor((1, 0), (0, 1))
