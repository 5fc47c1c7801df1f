"""Exact arithmetic for finite-rank abelian groups given as direct sums.

A group is described by an ordered list of factors:

* ``Cyclic(m)``      residues modulo m,
* ``IntegerBox(B)``  the integers, with enumeration clipped to [-B, B],
* ``PrimePower(p,k)`` the subgroup {a/p^k mod 1} of the circle group,
  stored as integer numerators a in [0, p^k),
* ``RationalBox(D,B)`` exact rationals a/D with |a| <= B*D; enumeration
  is clipped to the box but arithmetic is closed and exact.

The two torsion factors share their modular arithmetic through one base,
and the two torsion-free factors their exact arithmetic through another.
``fractions`` is imported only by the code that builds a Fraction, so
the integer and residue paths never load it.

Elements are immutable coordinate vectors over such a spec.  On top of
the plain arithmetic this module provides support/nonzero-entry maps,
per-prime projections, finite-sum enumeration and cyclic subgroups.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import TYPE_CHECKING, Iterator, Sequence

from .tokens import ColourToken, Record, SizeLimitError, subset_sums

if TYPE_CHECKING:
    from fractions import Fraction

_set = object.__setattr__


class StructureError(ValueError):
    """Raised on malformed specs, foreign elements or invalid coordinates."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for these inputs."""


_TRIAL_LIMIT = 1 << 20


def smallest_prime_factor(n: int) -> int:
    """Exact for n < 2^40, where a composite has a factor up to 2^20.
    A larger n with no factor up to 2^20 raises SizeLimitError rather
    than trial-divide for hours."""
    if n < 2:
        raise ValueError(f"no prime factor of {n}")
    for d in range(2, min(math.isqrt(n), _TRIAL_LIMIT) + 1):
        if n % d == 0:
            return d
    if n >= _TRIAL_LIMIT ** 2:
        raise SizeLimitError(
            f"{n} has no prime factor up to 2^20, and numbers from 2^40 "
            f"on are not factored further")
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and smallest_prime_factor(n) == n


def _check_param(name: str, v, least: int) -> None:
    """Refuse a factor parameter that is not an int (a bool included) or
    lies below `least`, before any arithmetic reads it."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise StructureError(f"{name} must be an int, got {v!r}")
    if v < least:
        raise StructureError(f"{name} must be >= {least}, got {v}")


# ---------------------------------------------------------------------------
# factors


class _Modular(Record):
    """The torsion factors: residues modulo ``modulus``, which each
    subclass's ``__init__`` stores.  It is storage, not a field: equality,
    hash and repr read the subclass's own fields."""

    __slots__ = ("modulus",)

    def normalize(self, v):
        if not isinstance(v, int) or isinstance(v, bool):
            raise StructureError(f"residue coordinate must be int, got {v!r}")
        return v % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def scale(self, k, a):
        return (k * a) % self.modulus

    def value_order(self, a):
        return self.modulus // math.gcd(a, self.modulus)

    def values(self):
        return range(self.modulus)

    def size(self):
        return self.modulus

    def as_rational(self, a) -> Fraction:
        """The circle-group reading of a: the representative of
        a/modulus in [0, 1)."""
        from fractions import Fraction
        return Fraction(a, self.modulus)


class _TorsionFree(Record):
    """The torsion-free factors: exact arithmetic, closed beyond the
    enumeration box."""

    __slots__ = ()

    # bookkeeping home of every torsion-free factor's projection
    prime_class = 0

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def scale(self, k, a):
        return k * a

    def value_order(self, a):
        return 1 if a == 0 else math.inf

    def as_rational(self, a) -> Fraction:
        from fractions import Fraction
        return Fraction(a)


class Cyclic(_Modular):
    __slots__ = ("m",)

    def __init__(self, m: int):
        _check_param("cyclic modulus", m, 2)
        _set(self, "m", m)
        _set(self, "modulus", m)

    @property
    def prime_class(self):
        # bookkeeping home for the per-prime projection
        return smallest_prime_factor(self.m)

    def jsonable(self):
        return {"kind": "cyclic", "m": self.m}


class IntegerBox(_TorsionFree):
    __slots__ = ("bound",)

    def __init__(self, bound: int):
        _check_param("box bound", bound, 1)
        _set(self, "bound", bound)

    def normalize(self, v):
        if not isinstance(v, int) or isinstance(v, bool):
            raise StructureError(f"integer coordinate must be int, got {v!r}")
        return v

    def values(self):
        return range(-self.bound, self.bound + 1)

    def size(self):
        return 2 * self.bound + 1

    def jsonable(self):
        return {"kind": "int_box", "bound": self.bound}


class PrimePower(_Modular):
    __slots__ = ("p", "k")

    def __init__(self, p: int, k: int):
        _check_param("prime", p, 2)
        if not is_prime(p):
            raise StructureError(f"{p} is not prime")
        _check_param("exponent", k, 1)
        _set(self, "p", p)
        _set(self, "k", k)
        _set(self, "modulus", p ** k)

    @property
    def prime_class(self):
        return self.p

    def jsonable(self):
        return {"kind": "prime_power", "p": self.p, "k": self.k}


class RationalBox(_TorsionFree):
    __slots__ = ("den", "bound")

    def __init__(self, den: int, bound: int):
        _check_param("denominator", den, 1)
        _check_param("box bound", bound, 1)
        _set(self, "den", den)
        _set(self, "bound", bound)

    def normalize(self, v):
        from fractions import Fraction
        if isinstance(v, bool):
            raise StructureError("rational coordinate must be a number")
        if isinstance(v, int):
            v = Fraction(v)
        if not isinstance(v, Fraction):
            raise StructureError(f"rational coordinate must be exact, got {v!r}")
        if (v * self.den).denominator != 1:
            raise StructureError(
                f"{v} is not a multiple of 1/{self.den}")
        return v

    def values(self):
        from fractions import Fraction
        d = self.den
        return (Fraction(a, d) for a in range(-self.bound * d, self.bound * d + 1))

    def size(self):
        return 2 * self.bound * self.den + 1

    def jsonable(self):
        return {"kind": "rat_box", "den": self.den, "bound": self.bound}


FACTOR_KINDS = {
    "cyclic": lambda d: Cyclic(d["m"]),
    "int_box": lambda d: IntegerBox(d["bound"]),
    "prime_power": lambda d: PrimePower(d["p"], d["k"]),
    "rat_box": lambda d: RationalBox(d["den"], d["bound"]),
}


# ---------------------------------------------------------------------------
# group spec and elements


class GroupSpec(Record):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        if not factors:
            raise StructureError("a group spec needs at least one factor")
        _set(self, "factors", tuple(factors))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.factors == other.factors

    def __hash__(self):
        return hash((self.factors,))

    def add_coords(self, a: tuple, b: tuple) -> tuple:
        """The coordinates of the sum of the elements with coordinates a
        and b, each factor adding its own."""
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    # construction helpers

    @classmethod
    def cyclic_power(cls, m: int, l: int) -> "GroupSpec":
        return cls(tuple(Cyclic(m) for _ in range(l)))

    @classmethod
    def integer_box(cls, bound: int, dim: int) -> "GroupSpec":
        return cls(tuple(IntegerBox(bound) for _ in range(dim)))

    def element(self, coords) -> "Element":
        coords = tuple(coords)
        if len(coords) != len(self.factors):
            raise StructureError(
                f"expected {len(self.factors)} coordinates, got {len(coords)}")
        return Element(self, tuple(f.normalize(v)
                                   for f, v in zip(self.factors, coords)))

    def zero(self) -> "Element":
        return self.element([0] * len(self.factors))

    def basis(self) -> list["Element"]:
        """Standard basis vectors e_i (coordinate 1 at position i)."""
        n = len(self.factors)
        out = []
        for i in range(n):
            coords = [0] * n
            coords[i] = 1
            out.append(self.element(coords))
        return out

    def size(self) -> int:
        """Number of enumerated elements (exact group order when finite)."""
        return math.prod(f.size() for f in self.factors)

    def enumerate(self) -> Iterator["Element"]:
        """All elements (box-clipped for infinite factors) in lexicographic
        order of canonical coordinate tuples.  'First found' semantics
        elsewhere always refer to this order."""
        for coords in itertools.product(*(f.values() for f in self.factors)):
            yield Element(self, coords)

    def prime_classes(self) -> list[int]:
        """The distinct projection classes present, ascending (0 first)."""
        return sorted({f.prime_class for f in self.factors})

    def jsonable(self):
        return {"factors": [f.jsonable() for f in self.factors]}

    @classmethod
    def from_jsonable(cls, data) -> "GroupSpec":
        try:
            factors = tuple(FACTOR_KINDS[d["kind"]](d) for d in data["factors"])
        except (KeyError, TypeError) as exc:
            raise StructureError(f"bad group JSON: {exc}") from exc
        return cls(factors)


class Element(Record):
    __slots__ = ("parent", "coords")

    def __init__(self, parent: GroupSpec, coords: tuple):
        _set(self, "parent", parent)
        _set(self, "coords", coords)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords and (
            self.parent is other.parent or self.parent == other.parent)

    def __hash__(self):
        # equality still compares parent; hashing it too would re-hash
        # every factor of the spec on each dict or set lookup
        return hash(self.coords)

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        parent = self.parent
        if other.parent is not parent and other.parent != parent:
            raise StructureError("elements belong to different groups")
        return Element(parent, parent.add_coords(self.coords, other.coords))

    def __neg__(self):
        fs = self.parent.factors
        return Element(self.parent,
                       tuple(f.neg(a) for f, a in zip(fs, self.coords)))

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        fs = self.parent.factors
        return Element(self.parent,
                       tuple(f.scale(k, a) for f, a in zip(fs, self.coords)))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def jsonable(self):
        out = []
        for f, a in zip(self.parent.factors, self.coords):
            if isinstance(f, RationalBox):
                out.append([a.numerator, a.denominator])
            else:
                out.append(a)
        return out


def element_from_jsonable(spec: GroupSpec, data) -> Element:
    if not isinstance(data, list):
        raise StructureError(
            f"an element must be a JSON list of coordinates, got {data!r}")
    if len(data) != len(spec.factors):
        raise StructureError(
            f"expected {len(spec.factors)} coordinates, got {len(data)}")
    coords = []
    for f, v in zip(spec.factors, data):
        if isinstance(f, RationalBox) and isinstance(v, list):
            if not (len(v) == 2 and all(isinstance(a, int) for a in v)
                    and v[1]):
                raise StructureError(
                    f"a rational coordinate list must be [numerator, "
                    f"nonzero denominator], got {v!r}")
            from fractions import Fraction
            v = Fraction(v[0], v[1])
        coords.append(v)
    return spec.element(coords)


# ---------------------------------------------------------------------------
# support, sigma, projections, order


def supp(x: Element) -> frozenset:
    """Indices of the nonzero canonical coordinates."""
    return frozenset(i for i, a in enumerate(x.coords) if a != 0)


def sigma(x: Element) -> ColourToken:
    """The sequence of nonzero coordinates in increasing index order."""
    return ColourToken.seq(a for a in x.coords if a != 0)


def project_p(x: Element, p: int) -> Element:
    """Zero out every coordinate whose factor does not sit in class p
    (p = 0 collects the torsion-free factors)."""
    fs = x.parent.factors
    coords = tuple(a if f.prime_class == p else f.normalize(0)
                   for f, a in zip(fs, x.coords))
    return Element(x.parent, coords)


def order(x: Element):
    """Least k >= 1 with k*x = 0, or math.inf for torsion-free support."""
    result = 1
    for f, a in zip(x.parent.factors, x.coords):
        o = f.value_order(a)
        if o is math.inf:
            return math.inf
        result = result * o // math.gcd(result, o)
    return result


# ---------------------------------------------------------------------------
# finite sums


DEFAULT_FS_LIMIT = 20


def fs_set_formal(xs: Sequence[Element]) -> list:
    """`subset_sums` of at most DEFAULT_FS_LIMIT distinct generators of
    one group."""
    xs = list(xs)
    if len(xs) > DEFAULT_FS_LIMIT:
        raise SizeLimitError(
            f"{len(xs)} generators exceed fs limit {DEFAULT_FS_LIMIT}")
    if len(set(xs)) != len(xs):
        raise StructureError("fs_set_formal generators must be distinct")
    for x in xs[1:]:
        if x.parent != xs[0].parent:
            raise StructureError("fs_set_formal generators must share a group")
    return subset_sums(xs, operator.add)


# ---------------------------------------------------------------------------
# cyclic subgroups


def multiples(x: Element) -> list:
    """The cyclic subgroup of x as 0, x, ..., (order(x) - 1)*x."""
    n = order(x)
    if n is math.inf:
        raise PreconditionError(
            f"{x.jsonable()} has infinite order, so the subgroup it "
            f"generates cannot be listed")
    out = [x.parent.zero()]
    for _ in range(n - 1):
        out.append(out[-1] + x)
    return out
