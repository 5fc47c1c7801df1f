"""The immutable value classes: frozen fields, equality only within one
class, and the hash of the tuple of fields (of coords for Element)."""

import pytest

from pattern_forge.colourings import BranchSet
from pattern_forge.groups import (Cyclic, Element, GroupSpec, IntegerBox,
                                  PrimePower, RationalBox)
from pattern_forge.patterns import (AdequacyReport, Pattern, SearchConfig,
                                    SearchOutcome, canonical_2_adequate)
from pattern_forge.verify import Certificate


def _element():
    return GroupSpec((Cyclic(5), Cyclic(5))).element([1, 3])


# (class, factory of fresh instances with equal fields, field names in order)
RECORDS = [
    (Cyclic, lambda: Cyclic(5), ("m",)),
    (IntegerBox, lambda: IntegerBox(2), ("bound",)),
    (PrimePower, lambda: PrimePower(3, 2), ("p", "k")),
    (RationalBox, lambda: RationalBox(2, 3), ("den", "bound")),
    (GroupSpec, lambda: GroupSpec((Cyclic(5), IntegerBox(2))), ("factors",)),
    (Element, _element, ("parent", "coords")),
    (BranchSet, lambda: BranchSet.from_strings(["10", "01"]), ("branches",)),
    (Pattern, lambda: canonical_2_adequate(3), ("n", "m", "l", "rows")),
    (AdequacyReport, lambda: AdequacyReport(True, signature=(1, 2)),
     ("adequate", "signature")),
    (SearchConfig, lambda: SearchConfig(n=2, m=3, l_max=4, node_cap=9),
     ("n", "m", "l_max", "l_min", "entry_bound", "node_cap")),
    (SearchOutcome,
     lambda: SearchOutcome("found", 7, {"n": 2}, canonical_2_adequate(3)),
     ("status", "nodes", "region", "pattern")),
    (Certificate, lambda: Certificate("thm3.2", {"kind": "group"},
                                      "verified", 10),
     ("claim", "domain", "status", "enumerated", "witness")),
]


def test_every_record_class_is_listed():
    assert len({cls for cls, _, _ in RECORDS}) == 12


@pytest.mark.parametrize("cls,make,names", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_contract(cls, make, names):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    values = tuple(getattr(a, name) for name in names)

    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert tuple(getattr(a, name) for name in names) == values

    assert a == b and not a != b
    expected = values[1] if cls is Element else values
    try:
        want = hash(expected)
    except TypeError:  # a dict field: unhashable, as a tuple of it is
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == want

    # an instance of another class with the same fields is unequal
    twin_cls = type(cls.__name__ + "Twin", (cls,), {"__slots__": ()})
    twin = object.__new__(twin_cls)
    for name, value in zip(names, values):
        object.__setattr__(twin, name, value)
    assert a != twin and twin != a and not a == twin
    assert repr(a).startswith(f"{cls.__name__}({names[0]}=")


def test_sibling_classes_with_equal_fields_are_unequal():
    assert Cyclic(2) != IntegerBox(2)
    assert PrimePower(3, 2) != RationalBox(3, 2)
    assert repr(PrimePower(3, 2)) == "PrimePower(p=3, k=2)"
