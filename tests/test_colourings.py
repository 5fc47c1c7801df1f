import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pattern_forge.colourings import (BranchSet, delta, delta_colouring, ord2,
                                      product_sigma_colouring,
                                      resolve_colouring, subgroup_colouring,
                                      sum_squares_colouring,
                                      valuation_colouring)
from pattern_forge.groups import (Cyclic, GroupSpec, IntegerBox,
                                  PreconditionError, PrimePower, RationalBox,
                                  StructureError, supp)
from pattern_forge.tokens import TOP, ColourToken, canonical_json


# -- branch distance -----------------------------------------------------------

def test_delta_examples():
    assert delta("000", "010") == 1
    assert delta("010", "010") is TOP
    assert delta("011", "100") == 0


def test_delta_length_mismatch():
    with pytest.raises(StructureError):
        delta("00", "000")


def test_delta_colouring_examples():
    t = delta_colouring(BranchSet.from_strings(["000", "010"]))
    assert canonical_json(t.jsonable()) == '[["TOP",1],[1,"TOP"]]'
    t = delta_colouring(BranchSet.from_strings(["000"]))
    assert canonical_json(t.jsonable()) == '[["TOP"]]'
    t = delta_colouring(BranchSet.from_strings(["000", "001", "011"]))
    assert canonical_json(t.jsonable()) == (
        '[["TOP",2,1],[2,"TOP",1],[1,1,"TOP"]]')
    assert canonical_json(delta_colouring(BranchSet(())).jsonable()) == "[]"


def test_delta_colouring_is_set_semantic():
    a = BranchSet.from_strings(["011", "000", "110"])
    b = BranchSet.from_strings(["110", "011", "000"])
    assert delta_colouring(a) == delta_colouring(b)
    # stored sorted: string order is the lex order of the bits
    assert a.branches == b.branches == ("000", "011", "110")
    assert BranchSet.from_strings(["110", "001", "010"]).branches == (
        "001", "010", "110")


def test_delta_matrix_invariants():
    kappa = 3
    for strings in (["000", "101"], ["001", "010", "111"],
                    ["000", "001", "010", "100"]):
        m = delta_colouring(BranchSet.from_strings(strings)).payload
        for i, row in enumerate(m):
            assert row[i] is TOP
            for j, entry in enumerate(row):
                assert entry == m[j][i]
                if i != j:
                    assert 0 <= entry < kappa


def test_branchset_symmetric_difference():
    a = BranchSet.from_strings(["00", "01"])
    b = BranchSet.from_strings(["01", "11"])
    assert a.symmetric_difference(b) == BranchSet.from_strings(["00", "11"])


def test_pairwise_descent_exhaustive_small_scale():
    # no pair x != y with c(x) = c(y) = c(x ^ y), checked completely
    for kappa in (2, 3):
        branches = ["".join(bits)
                    for bits in itertools.product("01", repeat=kappa)]
        sets = []
        for size in range(1, 4):
            sets.extend(BranchSet(c)
                        for c in itertools.combinations(branches, size))
        for x, y in itertools.combinations(sets, 2):
            cx, cy = delta_colouring(x), delta_colouring(y)
            if cx != cy:
                continue
            z = x.symmetric_difference(y)
            assert delta_colouring(z) != cx, (x, y)


# -- sum of squares -------------------------------------------------------------

def test_sum_squares_examples():
    box = GroupSpec.integer_box(3, 3)
    assert sum_squares_colouring(box.element([1, -1, 0])) == ColourToken.int_(2)
    assert sum_squares_colouring(box.zero()) == ColourToken.int_(0)
    two = GroupSpec.integer_box(5, 2)
    assert sum_squares_colouring(two.element([3, 4])) == ColourToken.int_(25)


def test_sum_squares_exact_rationals():
    spec = GroupSpec((RationalBox(2, 1), RationalBox(2, 1)))
    t = sum_squares_colouring(spec.element([Fraction(1, 2), Fraction(1, 2)]))
    assert t == ColourToken.int_(Fraction(1, 2))


def test_sum_squares_token_bytes():
    t = sum_squares_colouring(GroupSpec.integer_box(5, 2).element([3, 4]))
    assert (t.kind, canonical_json(t.jsonable()), type(t.payload)) == (
        "int", "25", int)
    mixed = GroupSpec((RationalBox(2, 3), IntegerBox(3)))
    t = sum_squares_colouring(mixed.element([Fraction(3, 2), 1]))
    assert (t.kind, canonical_json(t.jsonable())) == ("int", "[13,4]")
    # an integral rational total prints as a plain integer
    t = sum_squares_colouring(mixed.element([Fraction(1), 2]))
    assert (t.kind, canonical_json(t.jsonable()), type(t.payload)) == (
        "int", "5", int)


def test_sum_squares_rejects_torsion():
    with pytest.raises(PreconditionError):
        sum_squares_colouring(GroupSpec.cyclic_power(3, 2).element([1, 0]))


# -- product sigma ---------------------------------------------------------------

P33_5 = GroupSpec((PrimePower(3, 1), PrimePower(3, 1), PrimePower(5, 1)))


def test_product_sigma_examples():
    t = product_sigma_colouring(P33_5.element([1, 0, 2]))
    assert canonical_json(t.jsonable()) == "[[1],[2]]"
    z = product_sigma_colouring(P33_5.zero())
    assert canonical_json(z.jsonable()) == "[[],[]]"
    mixed = GroupSpec((RationalBox(1, 2), PrimePower(3, 1)))
    t = product_sigma_colouring(mixed.element([2, 0]))
    assert canonical_json(t.jsonable()) == "[[2],[]]"


def test_product_sigma_determines_element_given_support():
    # no two distinct elements share support and colour, exhaustively
    for spec in (GroupSpec((PrimePower(2, 1), PrimePower(3, 1))),
                 GroupSpec.cyclic_power(3, 2),
                 GroupSpec((PrimePower(3, 2), PrimePower(3, 1)))):
        seen = {}
        for x in spec.enumerate():
            key = (supp(x), product_sigma_colouring(x))
            assert key not in seen, (seen[key], x)
            seen[key] = x


# -- subgroup parity --------------------------------------------------------------

def test_ord2():
    assert ord2(Fraction(1, 9)) == 0
    assert ord2(Fraction(2, 9)) == 1
    assert ord2(Fraction(3, 4)) == -2
    assert ord2(Fraction(8)) == 3
    with pytest.raises(ValueError):
        ord2(Fraction(0))


def test_subgroup_parity_examples():
    nine = GroupSpec((PrimePower(3, 2),))
    assert subgroup_colouring(nine.element([1])) == ColourToken.bit(0)
    assert subgroup_colouring(nine.element([2])) == ColourToken.bit(1)
    rat = GroupSpec((RationalBox(4, 2),))
    assert subgroup_colouring(rat.element([Fraction(3, 4)])) == ColourToken.bit(0)
    # a cyclic factor reads a as a/m, like a prime-power factor
    fifteen = GroupSpec((Cyclic(15),))
    assert subgroup_colouring(fifteen.element([6])) == ColourToken.bit(1)
    assert subgroup_colouring(fifteen.element([3])) == ColourToken.bit(0)
    box = GroupSpec.integer_box(4, 1)
    assert subgroup_colouring(box.element([2])) == ColourToken.bit(1)
    assert subgroup_colouring(box.element([4])) == ColourToken.bit(0)


def test_subgroup_parity_zero_and_two_support():
    nine = GroupSpec((PrimePower(3, 2),))
    assert subgroup_colouring(nine.zero()) == ColourToken.bit(0)
    two_only = GroupSpec((PrimePower(2, 2),))
    with pytest.raises(PreconditionError):
        subgroup_colouring(two_only.element([1]))


def test_subgroup_parity_prefers_the_torsion_free_part():
    spec = GroupSpec((PrimePower(3, 1), RationalBox(1, 4)))
    # class 0 (the rational coordinate) is inspected before class 3
    x = spec.element([1, 2])
    assert subgroup_colouring(x) == ColourToken.bit(1)  # ord2(2) = 1


def test_subgroup_parity_doubling_flips_on_rationals():
    spec = GroupSpec((RationalBox(8, 4),))
    for num in range(1, 20):
        x = spec.element([Fraction(num, 8)])
        c1 = subgroup_colouring(x)
        c2 = subgroup_colouring(x + x)
        assert c2 != c1, num


# -- valuation parity ---------------------------------------------------------------

BOX3 = GroupSpec.integer_box(10, 3)


def test_valuation_examples():
    assert valuation_colouring(BOX3.element([4, 3, 0]), 2) == ColourToken.bit(0)
    assert valuation_colouring(BOX3.element([6, 1, 1]), 2) == ColourToken.bit(1)
    box2 = GroupSpec.integer_box(10, 2)
    assert valuation_colouring(box2.element([0, 9]), 3) == ColourToken.bit(0)


def test_valuation_preconditions():
    with pytest.raises(PreconditionError):
        valuation_colouring(BOX3.zero(), 2)
    with pytest.raises(ValueError):
        valuation_colouring(BOX3.element([1, 0, 0]), 4)
    with pytest.raises(PreconditionError):
        valuation_colouring(GroupSpec.cyclic_power(3, 1).element([1]), 2)


@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60),
       st.sampled_from([2, 3, 5]))
@settings(max_examples=200)
def test_valuation_flips_under_multiplication(a, b, c, base):
    spec = GroupSpec.integer_box(60, 3)
    x = spec.element([a, b, c])
    if x.is_zero():
        return
    flipped = valuation_colouring(base * x, base)
    plain = valuation_colouring(x, base)
    assert {flipped, plain} == {ColourToken.bit(0), ColourToken.bit(1)}


# -- registry -----------------------------------------------------------------------

def test_resolve_colouring_ids():
    box = GroupSpec.integer_box(2, 2)
    assert resolve_colouring("sum_squares")(box.element([1, 1])) == \
        ColourToken.int_(2)
    assert resolve_colouring("valuation:a=3")(box.element([9, 1])) == \
        ColourToken.bit(0)
    assert resolve_colouring("product_sigma")
    assert resolve_colouring("subgroup_parity")
    with pytest.raises(ValueError):
        resolve_colouring("nope")


def test_valuation_base_is_checked_once_when_resolved(monkeypatch):
    from pattern_forge import colourings
    calls = []

    def counted(n):
        calls.append(n)
        return n in (2, 3, 5)

    monkeypatch.setattr(colourings, "is_prime", counted)
    with pytest.raises(ValueError):
        resolve_colouring("valuation:a=4")
    colour = resolve_colouring("valuation:a=2")
    box = GroupSpec.integer_box(4, 2)
    assert [colour(box.element([v, 1])) for v in (1, 2, 4, 0)] == [
        ColourToken.bit(0), ColourToken.bit(1), ColourToken.bit(0),
        ColourToken.bit(0)]
    assert calls == [4, 2]
    # the factors and the point are still checked on each call
    with pytest.raises(PreconditionError):
        colour(GroupSpec.cyclic_power(3, 1).element([1]))
    with pytest.raises(PreconditionError):
        colour(box.zero())
