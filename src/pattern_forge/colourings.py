"""The explicit colourings used in the negative partition results.

Each colouring is a pure function into ColourToken:

* ``delta_colouring``       branch-distance matrix of a finite set of
                            binary branches (the Boolean-group colouring),
* ``sum_squares_colouring`` exact sum of squared coordinates over
                            torsion-free factors,
* ``product_sigma_colouring`` per-prime-class nonzero-entry sequences,
* ``subgroup_colouring``    parity of the 2-adic order of the leading
                            coordinate away from the 2-part,
* ``valuation_colouring``   parity of the a-adic valuation of the first
                            nonzero integer coordinate.

String ids ("delta", "sum_squares", "product_sigma", "subgroup_parity",
"valuation:a=<prime>") address the colourings from certificates and the
command line.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from .groups import (Element, IntegerBox, PreconditionError, RationalBox,
                     StructureError, is_prime, project_p, sigma, supp)
from .tokens import TOP, ColourToken, Record

if TYPE_CHECKING:
    from fractions import Fraction

_set = object.__setattr__

__all__ = [
    "BranchSet", "delta", "delta_colouring",
    "sum_squares_colouring", "product_sigma_colouring",
    "subgroup_colouring", "check_valuation_base", "check_valuation_factors",
    "valuation_bit", "valuation_colouring", "resolve_colouring",
]


# ---------------------------------------------------------------------------
# finite sets of binary branches


class BranchSet(Record):
    """A finite set of equal-length branches, each a string of '0' and
    '1'; the elements of the Boolean group of branch sets under symmetric
    difference.  Stored sorted, which for equal-length 0/1 strings is
    the lexicographic order of their bits."""

    __slots__ = ("branches",)

    def __init__(self, branches: tuple):
        branches = tuple(sorted(set(branches)))
        lengths = {len(b) for b in branches}
        if len(lengths) > 1:
            raise ValueError("branches in one set must share a length")
        _set(self, "branches", branches)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.branches == other.branches

    def __hash__(self):
        return hash((self.branches,))

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "BranchSet":
        """The set of branches read from outside input: each must be a
        str of ASCII '0' and '1'."""
        strings = tuple(strings)
        for s in strings:
            if not isinstance(s, str) or not set(s) <= {"0", "1"}:
                raise ValueError(f"a branch must be a string of 0s and 1s, "
                                 f"got {s!r}")
        return cls(strings)

    def symmetric_difference(self, other: "BranchSet") -> "BranchSet":
        return BranchSet(tuple(
            set(self.branches) ^ set(other.branches)))

    def jsonable(self):
        return list(self.branches)


def delta(f: str, g: str):
    """Index of the first disagreement of two equal-length branches, or
    the TOP sentinel when they are equal."""
    if len(f) != len(g):
        raise StructureError("branches have different lengths")
    for i, (a, b) in enumerate(zip(f, g)):
        if a != b:
            return i
    return TOP


def delta_colouring(x: BranchSet) -> ColourToken:
    """The symmetric matrix of pairwise first-disagreement indices of the
    branches of x (sorted lexicographically), TOP on the diagonal."""
    bs = x.branches
    return ColourToken.matrix(
        [[delta(f, g) for g in bs] for f in bs])


# ---------------------------------------------------------------------------
# colourings of group elements


def sum_squares_colouring(x: Element) -> ColourToken:
    """Exact sum of squared coordinates; only defined over torsion-free
    factors, where equal colour means equal Euclidean norm."""
    for f in x.parent.factors:
        if not isinstance(f, (IntegerBox, RationalBox)):
            raise PreconditionError(
                "sum of squares needs torsion-free factors only")
    total = sum(a * a for a in x.coords)
    return ColourToken.int_(total)


def product_sigma_colouring(x: Element) -> ColourToken:
    """Tuple, over the projection classes present in the group (0 first,
    then primes ascending), of the nonzero-entry sequence of the
    projection onto that class."""
    return ColourToken.tuple_(
        sigma(project_p(x, p)) for p in x.parent.prime_classes())


def ord2(q: Fraction) -> int:
    """Exponent i with q = 2^i * a/b, a and b odd.  q must be nonzero."""
    if q == 0:
        raise ValueError("ord2(0) is undefined")
    num, den = q.numerator, q.denominator
    i = 0
    while num % 2 == 0:
        num //= 2
        i += 1
    while den % 2 == 0:
        den //= 2
        i -= 1
    return i


def subgroup_colouring(x: Element) -> ColourToken:
    """Bit colouring that no nontrivial subgroup avoids (in groups with no
    order-2 elements): locate the least projection class other than 2
    where x is nonzero, read the leading coordinate there as a rational
    in (0, 1) (or as itself on torsion-free factors), and take the parity
    of its 2-adic order.  Zero gets bit 0 by convention.
    """
    if x.is_zero():
        return ColourToken.bit(0)
    classes = [p for p in x.parent.prime_classes() if p != 2]
    for p in classes:
        proj = project_p(x, p)
        if not proj.is_zero():
            lead = min(supp(proj))
            q = x.parent.factors[lead].as_rational(x.coords[lead])
            return ColourToken.bit(ord2(q) & 1)
    raise PreconditionError(
        "element is supported entirely on the 2-part")


def check_valuation_base(a: int) -> None:
    if not is_prime(a):
        raise ValueError(f"valuation base must be prime, got {a}")


def check_valuation_factors(spec) -> None:
    for f in spec.factors:
        if not isinstance(f, IntegerBox):
            raise PreconditionError("valuation colouring needs integer factors")


def valuation_bit(coords: tuple, a: int) -> ColourToken:
    """The kernel of valuation_colouring, for callers that have run both
    checks above once: a prime, integer coordinates."""
    for lead in coords:
        if lead:
            break
    else:
        raise PreconditionError("valuation colouring is undefined at 0")
    val = 0
    while lead % a == 0:
        lead //= a
        val += 1
    return ColourToken.bit(val & 1)


def valuation_colouring(x: Element, a: int) -> ColourToken:
    """Parity of the a-adic valuation of the first nonzero coordinate of
    an integer vector.  Multiplying by a flips the bit, which is what
    makes every nontrivial span bichromatic."""
    check_valuation_base(a)
    check_valuation_factors(x.parent)
    return valuation_bit(x.coords, a)


# ---------------------------------------------------------------------------
# registry


def resolve_colouring(colouring_id: str) -> Callable[[Element], ColourToken]:
    """Look up an element colouring by string id.  ("delta" lives on
    branch sets, not group elements, and is resolved by the caller.)"""
    if colouring_id == "sum_squares":
        return sum_squares_colouring
    if colouring_id == "product_sigma":
        return product_sigma_colouring
    if colouring_id == "subgroup_parity":
        return subgroup_colouring
    if colouring_id.startswith("valuation:a="):
        a = int(colouring_id.removeprefix("valuation:a="))
        check_valuation_base(a)

        def colour(x: Element) -> ColourToken:
            check_valuation_factors(x.parent)
            return valuation_bit(x.coords, a)
        return colour
    raise ValueError(f"unknown colouring id {colouring_id!r}")
