"""Package-wide base pieces: Record, SizeLimitError, subset_sums, ColourToken.

Every colouring in this package maps into ColourToken, so that colours
coming from very different constructions (integers, residue sequences,
branch-distance matrices, tuples of those) can be compared, hashed and
serialized uniformly.  Two tokens are equal exactly when they have the
same kind and byte-identical canonical JSON serializations, kinds of
nested tokens included.

Equality and hashing read the kind and the payload, not the bytes, so a
token that is only compared never runs ``json.dumps``; its canonical
bytes, ``canonical_json(token.jsonable())``, are built only where it is
printed or embedded.  That is the same relation: the payload of every
kind is a normal form, and the serialization is a bijection on normal
forms of one kind.

* Scalars pass through ``canonical_scalar``: an integral Fraction
  becomes an ``int`` and a bool is refused, so each integer has one
  payload, ``n``, printed ``n``, and each proper fraction one payload,
  printed ``[num,den]`` in lowest terms.  No int prints as a list.
* ``bit`` takes only an ``int`` 0 or 1, never ``True`` or ``1.0``.
* ``TOP`` is a singleton that equals only itself, printed ``"TOP"``,
  which no scalar prints as.
* ``seq`` and ``matrix`` payloads are tuples of those entries, printed
  as lists of the same length and order.
* A ``tuple`` keys on its members' own (kind, payload) keys, so the
  kinds of nested tokens count as well.

So equal (kind, payload) keys give equal bytes, and equal bytes within
one kind come from equal payloads.
"""

from __future__ import annotations

import json
from typing import Any, Iterable


class _Top:
    """Sentinel for the distinguished diagonal entry of a distance matrix."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "TOP"


#: Diagonal sentinel, serialized as the JSON string "TOP".
TOP = _Top()


class SizeLimitError(ValueError):
    """Raised when an enumeration request exceeds its configured limit."""


def subset_sums(xs: Iterable, add) -> list:
    """All 2^k - 1 nonempty-subset sums of the k terms under `add`, in
    increasing bitmask order: the sum over bitmask b is entry b - 1.
    Each sum adds its terms in index order."""
    out: list = []
    for x in xs:
        # the masks with top bit x: x alone, then x after each earlier sum
        out += [x] + [add(s, x) for s in out]
    return out


class Record:
    """Base of the package's immutable value classes.

    A subclass lists its fields, in order, as ``__slots__`` and sets them
    in ``__init__`` with ``object.__setattr__``.  Equality holds only
    between instances of one class with equal fields, and the hash is
    that of the tuple of fields.  A subclass on a hot path writes its
    own ``__eq__`` and ``__hash__`` to the same rules.  (``dataclasses``
    is not used: it generates and ``exec``s these methods on every
    start-up.)
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


def canonical_scalar(value):
    """Normalize a numeric entry: exact integers stay ints, proper
    fractions become Fraction.  Floats are rejected (arithmetic here is
    exact by design)."""
    if isinstance(value, bool):
        raise TypeError("booleans are not token scalars")
    if isinstance(value, int):
        return value
    # imported here so that commands that build no Fraction skip loading it
    from fractions import Fraction
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return value
    raise TypeError(f"not an exact scalar: {value!r}")


def scalar_to_jsonable(value):
    """int -> int, Fraction -> [numerator, denominator]."""
    if isinstance(value, int):
        return value
    return [value.numerator, value.denominator]


class ColourToken:
    """Tagged colour value: one of int, bit, seq, matrix, tuple.

    Equality and hashing go through the kind and the payload (see the
    module docstring for why that matches the canonical serialization,
    which is what the CLI prints and what certificates embed).  The
    serialization alone drops the kind: int_(1) and bit(1) both print
    as 1.  The two bit tokens are built once and shared.
    """

    __slots__ = ("kind", "payload", "_key")

    def __init__(self, kind: str, payload):
        self.kind = kind
        self.payload = payload
        if kind == "tuple":
            self._key = (kind, tuple(t._key for t in payload))
        else:
            self._key = (kind, payload)

    # -- constructors ---------------------------------------------------

    @classmethod
    def int_(cls, value) -> "ColourToken":
        return cls("int", canonical_scalar(value))

    @classmethod
    def bit(cls, value: int) -> "ColourToken":
        # True, 1.0 and Fraction(1) all equal 1 but print otherwise
        if type(value) is not int:
            raise TypeError(f"bit must be an int, got {value!r}")
        if value not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {value!r}")
        return _BITS[value]

    @classmethod
    def seq(cls, values: Iterable) -> "ColourToken":
        return cls("seq", tuple(canonical_scalar(v) for v in values))

    @classmethod
    def matrix(cls, rows: Iterable[Iterable]) -> "ColourToken":
        norm = []
        for row in rows:
            norm.append(tuple(
                e if e is TOP else canonical_scalar(e) for e in row))
        norm_t = tuple(norm)
        size = len(norm_t)
        for row in norm_t:
            if len(row) != size:
                raise ValueError("matrix token must be square")
        return cls("matrix", norm_t)

    @classmethod
    def tuple_(cls, tokens: Iterable["ColourToken"]) -> "ColourToken":
        toks = tuple(tokens)
        for t in toks:
            if not isinstance(t, ColourToken):
                raise TypeError("tuple token holds ColourTokens only")
        return cls("tuple", toks)

    # -- canonical form -------------------------------------------------

    def jsonable(self) -> Any:
        if self.kind in ("int", "bit"):
            return scalar_to_jsonable(self.payload)
        if self.kind == "seq":
            return [scalar_to_jsonable(v) for v in self.payload]
        if self.kind == "matrix":
            return [["TOP" if e is TOP else scalar_to_jsonable(e) for e in row]
                    for row in self.payload]
        if self.kind == "tuple":
            return [t.jsonable() for t in self.payload]
        raise AssertionError(f"unknown token kind {self.kind}")

    def __eq__(self, other):
        if not isinstance(other, ColourToken):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"ColourToken({self.kind}:{canonical_json(self.jsonable())})"


_BITS = (ColourToken("bit", 0), ColourToken("bit", 1))


def canonical_json(obj) -> str:
    """Compact JSON with stable key order (insertion order), the hashing
    form used for every serialized structure in this package."""
    return json.dumps(obj, separators=(",", ":"))
