"""Commutative monoid indices for filters.

Indices are plain int tuples from N^d ordered lexicographically with
coordinate 0 most significant, so Python tuple comparison is the filter
order.  The divisibility pre-order (s precedes u iff u - s is
componentwise nonnegative) is what the filter axioms quantify over;
divisibility implies lex order but not conversely.
"""

from __future__ import annotations

from .errors import DimensionMismatch

Index = tuple[int, ...]


def check_index(s: Index, dim: int) -> None:
    if len(s) != dim:
        raise DimensionMismatch(f"index {s} has dimension {len(s)}, expected {dim}")
    if any(c < 0 for c in s):
        raise DimensionMismatch(f"index {s} has a negative coordinate")


def add(s: Index, t: Index) -> Index:
    if len(s) != len(t):
        raise DimensionMismatch(f"cannot add {s} and {t}")
    return tuple(a + b for a, b in zip(s, t))


def sub(s: Index, t: Index) -> Index | None:
    """s - t componentwise, or None if any coordinate would go negative."""
    if len(s) != len(t):
        raise DimensionMismatch(f"cannot subtract {t} from {s}")
    d = tuple(a - b for a, b in zip(s, t))
    return d if all(c >= 0 for c in d) else None


def divides(s: Index, t: Index) -> bool:
    """True iff s precedes t in the divisibility pre-order (some x has s+x = t)."""
    return sub(t, s) is not None


def is_zero(s: Index) -> bool:
    return all(c == 0 for c in s)

