"""Shared exception types."""


class FiltraError(Exception):
    pass


class DimensionMismatch(FiltraError):
    """Index tuples or matrices of incompatible sizes were combined."""


class CapExceeded(FiltraError):
    """The ambient group's order exceeds the cap; ``reached`` is a lower bound."""

    def __init__(self, cap: int, reached: int):
        super().__init__(f"group order {reached} or more exceeds cap {cap}")
        self.cap = cap
        self.reached = reached


class NotNormal(FiltraError):
    """A subgroup expected to be normal in its parent is not."""


class NotAbelianSection(FiltraError):
    """A section A/B used as a graded component is not abelian."""


class NonNormalGenerator(FiltraError):
    """A generation domain assigned a non-normal subgroup to an index."""


class NotOrderReversing(FiltraError):
    """A generation domain violates order reversal on its support."""


class ClosureViolation(FiltraError):
    """An algebra or ring failed a closure/identity check."""


class NoNontrivialComponent(FiltraError):
    """Refinement was asked for a filter with no nonzero graded component."""


class MeataxeExhausted(FiltraError):
    """The meataxe drew its cap of random algebra elements without finding
    a submodule or an irreducibility certificate."""

    def __init__(self, n: int, p: int, draws: int):
        super().__init__(f"cannot split or certify a dimension {n} module over Z_{p}: "
                         f"no submodule and no good element in {draws} random draws")
        self.n = n
        self.p = p
        self.draws = draws
