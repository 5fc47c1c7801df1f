import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pattern_forge.groups import (Cyclic, GroupSpec, IntegerBox,
                                  PreconditionError, PrimePower, RationalBox,
                                  SizeLimitError, StructureError,
                                  element_from_jsonable, fs_set_formal,
                                  multiples, order, project_p, sigma,
                                  smallest_prime_factor, subset_sums, supp)
from pattern_forge.tokens import ColourToken, canonical_json
from pattern_forge.verify import BranchSetDomain, _cyclic_subgroups

from naive import naive_is_independent, naive_span, naive_subset_sums

Z3_2 = GroupSpec.cyclic_power(3, 2)
Z3_4 = GroupSpec.cyclic_power(3, 4)
Z2_2 = GroupSpec.cyclic_power(2, 2)
Z2_3 = GroupSpec.cyclic_power(2, 3)


# -- factor and spec validation ---------------------------------------------

def test_factor_validation():
    with pytest.raises(StructureError):
        Cyclic(1)
    with pytest.raises(StructureError):
        IntegerBox(0)
    with pytest.raises(StructureError):
        PrimePower(4, 1)
    with pytest.raises(StructureError):
        PrimePower(3, 0)
    with pytest.raises(StructureError):
        RationalBox(0, 1)
    with pytest.raises(StructureError):
        GroupSpec(())


def test_coordinates_reduce_to_canonical_form():
    x = Z3_2.element([4, -1])
    assert x.coords == (1, 2)
    pp = GroupSpec((PrimePower(3, 2),))
    assert pp.element([11]).coords == (2,)


def test_rational_box_rejects_off_grid_values():
    spec = GroupSpec((RationalBox(6, 2),))
    assert spec.element([Fraction(1, 2)]).coords == (Fraction(1, 2),)
    with pytest.raises(StructureError):
        spec.element([Fraction(1, 7)])


# -- add / neg / zero --------------------------------------------------------

def test_modular_addition():
    assert (Z3_2.element([1, 2]) + Z3_2.element([2, 2])).coords == (0, 1)


def test_box_addition_is_exact_beyond_the_bound():
    spec = GroupSpec.integer_box(2, 2)
    s = spec.element([2, 0]) + spec.element([2, 0])
    assert s.coords == (4, 0)


def test_inverse_law():
    x = Z3_2.element([1, 2])
    assert (x + (-x)) == Z3_2.zero()


def test_mismatched_specs_raise():
    with pytest.raises(StructureError):
        Z3_2.element([1, 1]) + Z2_2.element([1, 1])


def test_equal_coords_in_different_specs_stay_unequal():
    # the hash reads coords only; equality must still tell the specs apart
    x, y = Z3_2.element([1, 1]), Z2_2.element([1, 1])
    assert hash(x) == hash(y)
    assert x != y
    assert len({x, y}) == 2
    assert x == Z3_2.element([4, 1]) and hash(x) == hash(Z3_2.element([4, 1]))


def test_group_laws_exhaustive_on_small_spec():
    elems = list(Z3_2.enumerate())
    for x, y in itertools.product(elems, repeat=2):
        assert x + y == y + x
    for x, y, z in itertools.product(elems[:4], elems[:4], elems[:4]):
        assert (x + y) + z == x + (y + z)
    for x in elems:
        assert x + (-x) == Z3_2.zero()


# -- supp and sigma -----------------------------------------------------------

def test_supp_examples():
    assert supp(Z3_4.element([0, 2, 0, 1])) == {1, 3}
    assert supp(Z3_4.zero()) == frozenset()
    assert supp(Z2_2.element([1, 1])) == {0, 1}


def test_sigma_examples():
    assert sigma(Z3_4.element([0, 2, 0, 1])) == ColourToken.seq([2, 1])
    assert sigma(Z3_4.zero()) == ColourToken.seq([])
    spec = GroupSpec.integer_box(3, 3)
    assert sigma(spec.element([1, 0, -1])) == ColourToken.seq([1, -1])


@given(st.lists(st.integers(0, 2), min_size=1, max_size=6))
def test_sigma_laws(coords):
    spec = GroupSpec.cyclic_power(3, len(coords))
    x = spec.element(coords)
    assert (sigma(x) == ColourToken.seq([])) == x.is_zero()
    assert len(sigma(x).payload) == len(supp(x))


# -- projections --------------------------------------------------------------

def test_projection_examples():
    spec = GroupSpec((PrimePower(3, 2), PrimePower(5, 1)))
    x = spec.element([4, 3])
    assert project_p(x, 3).coords == (4, 0)
    assert project_p(x, 5).coords == (0, 3)
    assert project_p(x, 7) == spec.zero()


def test_projection_partition_of_unity():
    spec = GroupSpec((PrimePower(2, 1), IntegerBox(2), PrimePower(3, 1),
                      RationalBox(2, 1)))
    x = spec.element([1, 2, 2, Fraction(1, 2)])
    total = spec.zero()
    for p in spec.prime_classes():
        total = total + project_p(x, p)
    assert total == x
    for p, q in itertools.combinations(spec.prime_classes(), 2):
        assert project_p(project_p(x, p), q) == spec.zero()


def test_smallest_prime_factor_is_exact_below_2_to_the_40():
    # trial division stops at 2^20: 2^40 - 87, the largest prime below
    # 2^40, is still answered, and a prime past 2^40 is refused
    assert smallest_prime_factor(2 ** 40 - 87) == 2 ** 40 - 87
    assert smallest_prime_factor(2 ** 40 + 1) == 257
    with pytest.raises(SizeLimitError, match="2\\^40"):
        smallest_prime_factor(10 ** 18 + 3)


def test_cyclic_factors_project_by_smallest_prime_divisor():
    spec = GroupSpec((Cyclic(6), Cyclic(15)))
    x = spec.element([1, 1])
    assert project_p(x, 2).coords == (1, 0)
    assert project_p(x, 3).coords == (0, 1)


# -- finite sums --------------------------------------------------------------

def test_fs_set_pair():
    x, y = Z3_2.element([1, 0]), Z3_2.element([0, 1])
    # the subset sums as a set
    assert set(fs_set_formal([x, y])) == {x, y, x + y}
    assert set(fs_set_formal([x])) == {x}


def test_fs_set_merges_collisions():
    xs = [Z2_2.element(c) for c in ((1, 0), (0, 1), (1, 1))]
    values = set(fs_set_formal(xs))
    assert len(values) == 4
    assert values == {Z2_2.element(c)
                      for c in ((1, 0), (0, 1), (1, 1), (0, 0))}


def test_fs_set_matches_naive_oracle_on_small_sets():
    elems = [x for x in Z3_2.enumerate() if not x.is_zero()]
    for size in (2, 3, 4):
        for xs in itertools.combinations(elems, size):
            assert set(fs_set_formal(xs)) == set(naive_subset_sums(xs))


def test_fs_set_limits_and_distinctness():
    x = Z3_2.element([1, 0])
    with pytest.raises(StructureError):
        fs_set_formal([x, x])
    many = [GroupSpec.integer_box(1, 1).element([i]) for i in range(25)]
    with pytest.raises(SizeLimitError):
        fs_set_formal(many)


def test_fs_set_formal_errors_name_it():
    x = Z3_2.element([1, 0])
    with pytest.raises(StructureError,
                       match="^fs_set_formal generators must be distinct$"):
        fs_set_formal([x, x])
    with pytest.raises(StructureError,
                       match="^fs_set_formal generators must share a group$"):
        fs_set_formal([x, Z3_4.element([1, 0, 0, 0])])


def test_fs_set_formal_tracks_index_sets():
    # by position: the sum over the index set of bitmask b is entry b - 1
    x, y, z = (Z3_4.basis()[i] for i in range(3))
    assert fs_set_formal([x, y, z]) == [
        x, y, x + y, z, x + z, y + z, x + y + z]


_MIXED = GroupSpec((Cyclic(3), IntegerBox(2), PrimePower(2, 2)))

# (terms, add): residues mod m for m in 2..7, coordinate tuples of a
# mixed group, and branch sets under symmetric difference
_SUM_CASES = st.one_of(
    st.integers(2, 7).flatmap(lambda m: st.tuples(
        st.lists(st.integers(0, m - 1), max_size=6),
        st.just(lambda a, b: (a + b) % m))),
    st.tuples(st.lists(st.tuples(st.integers(0, 2), st.integers(-2, 2),
                                 st.integers(0, 3)), max_size=6),
              st.just(_MIXED.add_coords)),
    st.tuples(st.lists(st.sampled_from(BranchSetDomain(2, 2).points()),
                       max_size=6),
              st.just(BranchSetDomain.add)))


@given(_SUM_CASES)
def test_subset_sums_lists_the_sum_over_mask_b_at_b_minus_1(case):
    # the one bitmask-order list of the package, pinned against sums
    # that share no code with it
    xs, add = case
    sums = subset_sums(xs, add)
    assert len(sums) == (1 << len(xs)) - 1
    for b in range(1, 1 << len(xs)):
        chosen = [x for i, x in enumerate(xs) if b >> i & 1]
        assert sums[b - 1] == naive_subset_sums(chosen, add)[-1]


def test_fs_set_matches_naive_oracle_on_mixed_factors():
    spec = GroupSpec((PrimePower(2, 1), Cyclic(3)))
    elems = [x for x in spec.enumerate() if not x.is_zero()]
    for xs in itertools.combinations(elems, 3):
        assert set(fs_set_formal(xs)) == set(naive_subset_sums(xs))


# -- cyclic subgroups, closure and independence ------------------------------

def test_closure_trivial_and_cyclic():
    assert multiples(Z3_2.zero()) == [Z3_2.zero()]
    got = set(multiples(Z3_2.element([1, 0])))
    assert got == {Z3_2.element([a, 0]) for a in range(3)}


def test_closure_refuses_a_generator_of_infinite_order():
    spec = GroupSpec((Cyclic(3), IntegerBox(5)))
    for coords in ([0, 1], [1, -2]):
        x = spec.element(coords)
        with pytest.raises(PreconditionError, match="infinite order"):
            multiples(x)
    # a torsion-free factor at 0 leaves the order finite
    assert multiples(spec.element([1, 0])) == [
        spec.element([a, 0]) for a in range(3)]


Z5_3 = GroupSpec.cyclic_power(5, 3)
# three independent elements of (Z/5)^3, none of them a basis vector
INDEPENDENT_Z5_3 = [Z5_3.element(c) for c in ([1, 2, 0], [0, 1, 3], [2, 0, 1])]


CLOSURE_SPECS = [Z2_2, GroupSpec((Cyclic(4), Cyclic(2))), Z3_2,
                 GroupSpec((PrimePower(2, 2), Cyclic(3)))]
CLOSURE_IDS = ["z2^2", "z4xz2", "z3^2", "pp4xz3"]


@pytest.mark.parametrize("spec", CLOSURE_SPECS, ids=CLOSURE_IDS)
def test_independence_agrees_with_the_closure_definition(spec):
    # the support argument of check_fs_matrix_identities: each e_i is
    # nonzero where every other e_j is 0, so the standard basis is
    # independent; here the closure definition confirms it
    basis = spec.basis()
    assert naive_is_independent(basis)
    assert naive_is_independent(basis[::-1])


@pytest.mark.parametrize("spec", CLOSURE_SPECS, ids=CLOSURE_IDS)
def test_closure_agrees_with_the_span_definition(spec):
    # the thm5.5 scan lists, from multiples, exactly the nontrivial spans
    # of one element, each with the lex-first element that spans it
    elems = [x for x in spec.enumerate() if not x.is_zero()]
    spans = {}
    for x in elems:
        spans.setdefault(frozenset(naive_span([x], spec)), x)
    assert list(_cyclic_subgroups(spec).items()) == list(spans.items())


def test_difference_injectivity_of_independent_sequences():
    # distinct index pairs give distinct differences g_b - g_a
    g = INDEPENDENT_Z5_3
    assert naive_is_independent(g)
    seen = {}
    for a, b in itertools.combinations(range(len(g)), 2):
        diff = g[b] - g[a]
        assert diff not in seen, (seen[diff], (a, b))
        seen[diff] = (a, b)


# -- order ---------------------------------------------------------------------

def test_order_examples():
    spec = GroupSpec((PrimePower(3, 2), PrimePower(5, 1)))
    assert order(spec.element([3, 0])) == 3
    assert order(spec.zero()) == 1
    boxed = GroupSpec((IntegerBox(2), IntegerBox(2)))
    assert order(boxed.element([1, 0])) is math.inf


def test_order_lcm_across_factors():
    spec = GroupSpec((PrimePower(2, 1), PrimePower(3, 1)))
    assert order(spec.element([1, 1])) == 6


@pytest.mark.parametrize("factor,modulus,coords", [
    (Cyclic(6), 6, (4, 3)),
    (PrimePower(2, 3), 8, (6, 1)),
    (IntegerBox(2), 0, (2, -1)),
    (RationalBox(3, 1), 0, (Fraction(2, 3), Fraction(-1, 3))),
], ids=["cyclic", "prime_power", "int_box", "rat_box"])
def test_negation_scaling_and_order_per_factor_kind(factor, modulus, coords):
    # modulus 0 marks a torsion-free factor
    x = GroupSpec((factor, factor)).element(coords)
    if modulus:
        assert (-x).coords == tuple(-a % modulus for a in coords)
        assert (5 * x).coords == tuple(5 * a % modulus for a in coords)
        assert order(x) == math.lcm(
            *(modulus // math.gcd(a, modulus) for a in coords))
    else:
        assert (-x).coords == tuple(-a for a in coords)
        assert (5 * x).coords == tuple(5 * a for a in coords)
        assert order(x) is math.inf


# -- enumeration and JSON ------------------------------------------------------

def test_enumeration_is_lexicographic():
    coords = [x.coords for x in Z2_2.enumerate()]
    assert coords == [(0, 0), (0, 1), (1, 0), (1, 1)]
    box = GroupSpec.integer_box(1, 1)
    assert [x.coords for x in box.enumerate()] == [(-1,), (0,), (1,)]


@pytest.mark.parametrize("factors", [
    (Cyclic(6),), (PrimePower(2, 3),), (IntegerBox(2),), (RationalBox(3, 2),),
    (Cyclic(4), PrimePower(3, 2), IntegerBox(1), RationalBox(2, 1)),
], ids=["cyclic", "prime_power", "int_box", "rat_box", "mixed"])
def test_size_counts_the_enumerated_elements(factors):
    spec = GroupSpec(factors)
    assert spec.size() == len(list(spec.enumerate()))


def test_group_json_round_trip():
    spec = GroupSpec((Cyclic(3), PrimePower(3, 2), IntegerBox(2),
                      RationalBox(6, 2)))
    blob = canonical_json(spec.jsonable())
    assert blob == ('{"factors":[{"kind":"cyclic","m":3},'
                    '{"kind":"prime_power","p":3,"k":2},'
                    '{"kind":"int_box","bound":2},'
                    '{"kind":"rat_box","den":6,"bound":2}]}')
    import json
    assert GroupSpec.from_jsonable(json.loads(blob)) == spec


def test_element_json_round_trip():
    spec = GroupSpec((Cyclic(3), RationalBox(6, 2)))
    x = spec.element([2, Fraction(5, 6)])
    data = x.jsonable()
    assert data == [2, [5, 6]]
    assert element_from_jsonable(spec, data) == x
