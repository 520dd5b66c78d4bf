from dataclasses import dataclass
from itertools import product as iproduct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loop_reference import decompositions
from filtra import monoid

indices = st.tuples(*[st.integers(0, 6)] * 3)


# The decomposition property (star) of the paper, checked by brute force on
# the monoids it is stated for.  The library indexes filters by N^d alone,
# so these checks are theory, not pipeline.


@dataclass(frozen=True)
class CyclicMonoid:
    """The monoid <c | c^k = c^(k+m)>: elements c^0..c^(k+m-1).

    k is the index where the cycle starts; k=None means no cycle (a copy
    of N, truncated by whatever bound the caller enumerates to).
    """

    k: int | None
    m: int

    def elements(self, bound: int | None = None) -> list[int]:
        if self.k is None:
            if bound is None:
                raise ValueError("unbounded monoid needs an enumeration bound")
            return list(range(bound + 1))
        return list(range(self.k + self.m))

    def op(self, i: int, j: int) -> int:
        n = i + j
        if self.k is None or n < self.k + self.m:
            return n
        return self.k + ((n - self.k) % self.m)

    def precedes(self, i: int, j: int, bound: int | None = None) -> bool:
        """Exponent order c^i <= c^j.

        This is the order the decomposition property is stated over.  It
        refines reachability: i + t can wrap to a smaller label inside
        the cycle, and under bare reachability the property fails (in
        C_{3,2}, c^4 is reachable from c^3 = c^1 c^2 but not from any
        pair below c^1, c^2).
        """
        return i <= j


def check_star_table(elements: list, op, precedes) -> list[tuple]:
    """Brute-force check of the decomposition property (star).

    For every u1, u2 with u = u1+u2 in the element table and every
    s preceding u, there must be s1 preceding u1 and s2 preceding u2
    with s1+s2 = s.  Returns the list of violating (s, u1, u2).
    """
    eset = set(elements)
    bad = []
    for u1, u2 in iproduct(elements, repeat=2):
        u = op(u1, u2)
        if u not in eset:
            continue
        below1 = [t for t in elements if precedes(t, u1)]
        below2 = [t for t in elements if precedes(t, u2)]
        sums = {op(s1, s2) for s1, s2 in iproduct(below1, below2)}
        for s in elements:
            if precedes(s, u) and s not in sums:
                bad.append((s, u1, u2))
    return bad


def check_star_cyclic(mon: CyclicMonoid, bound: int | None = None) -> list[tuple]:
    els = mon.elements(bound)
    if mon.k is None:
        # keep sums inside the enumerated range
        els_ok = set(els)
        return check_star_table(
            els, mon.op, lambda i, j: any(i + t == j for t in els if i + t in els_ok)
        )
    return check_star_table(els, mon.op, mon.precedes)


def check_star_lex(dim: int, bound: int) -> list[tuple]:
    """Check (star) for N^dim under the lex order, coordinates up to bound.

    Sums leaving the box are skipped; the spec notes dim = 2 suffices to
    certify the property for all dimensions.
    """
    box = [tuple(c) for c in iproduct(range(bound + 1), repeat=dim)]
    boxset = set(box)

    def op(a, b):
        return tuple(x + y for x, y in zip(a, b))

    bad = []
    for u1, u2 in iproduct(box, repeat=2):
        u = op(u1, u2)
        if u not in boxset:
            continue
        below1 = [t for t in box if t <= u1]
        below2 = [t for t in box if t <= u2]
        sums = {op(s1, s2) for s1, s2 in iproduct(below1, below2)}
        for s in box:
            if s <= u and s not in sums:
                bad.append((s, u1, u2))
    return bad



def test_add_examples():
    assert monoid.add((1, 0), (0, 1)) == (1, 1)
    assert monoid.add((2, 3), (0, 0)) == (2, 3)
    assert monoid.add((1, 2), (1, 2)) == (2, 4)


def test_sub():
    assert monoid.sub((2, 3), (1, 1)) == (1, 2)
    assert monoid.sub((1, 0), (0, 1)) is None
    assert monoid.sub((1, 1), (1, 1)) == (0, 0)


def test_divides_examples():
    assert monoid.divides((1, 0), (1, 1))
    assert monoid.divides((0, 0), (5, 9))
    assert not monoid.divides((2, 0), (1, 5))


def test_zero_helpers():
    assert monoid.is_zero((0, 0))
    assert not monoid.is_zero((0, 1))


def test_check_index_rejects():
    with pytest.raises(Exception):
        monoid.check_index((1, 2), 3)
    with pytest.raises(Exception):
        monoid.check_index((1, -1), 2)


def test_decompositions_examples():
    assert decompositions((2, 0), [(1, 0)]) == [((1, 0), (1, 0))]
    got = decompositions((1, 1), [(1, 0), (0, 1)])
    assert sorted(got) == [((0, 1), (1, 0)), ((1, 0), (0, 1))]
    assert decompositions((0, 0), [(1, 0), (0, 1)]) == []


def test_decompositions_cover_all_last_steps():
    gens = [(1, 0), (0, 1), (1, 1)]
    got = decompositions((2, 1), gens)
    # every pair sums to the target and ends in a generator
    for t, x in got:
        assert monoid.add(t, x) == (2, 1)
        assert x in gens
    assert {x for _, x in got} == set(gens)


@given(indices, indices)
def test_add_commutes(s, t):
    assert monoid.add(s, t) == monoid.add(t, s)


@given(indices, indices, indices)
def test_add_associates(s, t, u):
    assert monoid.add(monoid.add(s, t), u) == monoid.add(s, monoid.add(t, u))


@given(indices, indices)
def test_divides_iff_sub(s, t):
    assert monoid.divides(s, t) == (monoid.sub(t, s) is not None)


@given(indices, indices, indices)
def test_lex_translation_invariant(s, t, u):
    # adding u on both sides cannot flip a comparison in the tuple (lex) order
    su, tu = monoid.add(s, u), monoid.add(t, u)
    assert (s < t, s == t) == (su < tu, su == tu)


def test_cyclic_monoid_table():
    mon = CyclicMonoid(3, 2)
    els = mon.elements()
    assert els[0] == 0
    assert mon.op(2, 2) in els
    assert check_star_cyclic(mon) == []


def test_star_property_lex_boxes():
    assert check_star_lex(2, 5) == []
    assert check_star_lex(3, 3) == []
