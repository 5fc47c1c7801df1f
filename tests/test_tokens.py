from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pattern_forge.tokens import TOP, ColourToken, canonical_scalar


def test_equality_is_kind_and_byte_equality():
    assert ColourToken.int_(3) == ColourToken.int_(3)
    assert ColourToken.int_(3) != ColourToken.int_(4)
    assert hash(ColourToken.seq([1, 2])) == hash(ColourToken.seq((1, 2)))
    # identical serializations of different kinds stay apart
    assert ColourToken.int_(0).to_json() == ColourToken.bit(0).to_json()
    assert ColourToken.int_(0) != ColourToken.bit(0)
    assert ColourToken.int_(1) != ColourToken.bit(1)


def test_equality_sees_kinds_inside_tuples():
    matrix = ColourToken.matrix([[1]])
    nested = ColourToken.tuple_([ColourToken.seq([1])])
    assert matrix.to_json() == nested.to_json() == "[[1]]"
    assert matrix != nested
    # a tuple's serialization drops the kinds of its members
    ints = ColourToken.tuple_([ColourToken.int_(1)])
    bits = ColourToken.tuple_([ColourToken.bit(1)])
    assert ints.to_json() == bits.to_json()
    assert ints != bits
    assert ints == ColourToken.tuple_([ColourToken.int_(1)])
    assert hash(ints) == hash(ColourToken.tuple_([ColourToken.int_(1)]))
    assert len({ColourToken.int_(1), ColourToken.bit(1), ints, bits,
                matrix, nested}) == 6


def test_fraction_scalars_normalize():
    assert canonical_scalar(Fraction(4, 2)) == 2
    assert isinstance(canonical_scalar(Fraction(4, 2)), int)
    assert ColourToken.int_(Fraction(1, 2)).to_json() == "[1,2]"
    assert ColourToken.int_(Fraction(50, 2)).to_json() == "25"


def test_matrix_serializes_top_sentinel():
    t = ColourToken.matrix([[TOP, 1], [1, TOP]])
    assert t.to_json() == '[["TOP",1],[1,"TOP"]]'


def test_matrix_must_be_square():
    with pytest.raises(ValueError):
        ColourToken.matrix([[TOP, 1]])


def test_bit_range():
    with pytest.raises(ValueError):
        ColourToken.bit(2)


@pytest.mark.parametrize("value", [True, Fraction(1), 1.0])
def test_bit_refuses_values_that_are_not_ints(value):
    # each equals 1, but would print as true, [1,1] or crash
    with pytest.raises(TypeError):
        ColourToken.bit(value)


def test_tuple_nesting():
    inner = ColourToken.seq([1, 2])
    t = ColourToken.tuple_([inner, ColourToken.seq([])])
    assert t.to_json() == "[[1,2],[]]"


def test_floats_rejected():
    with pytest.raises(TypeError):
        ColourToken.int_(1.5)
    with pytest.raises(TypeError):
        ColourToken.seq([True])


scalars = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


@given(st.lists(scalars, max_size=6), st.lists(scalars, max_size=6))
def test_seq_equality_matches_value_equality(a, b):
    ta, tb = ColourToken.seq(a), ColourToken.seq(b)
    values_equal = [canonical_scalar(v) for v in a] == \
        [canonical_scalar(v) for v in b]
    assert (ta == tb) == values_equal
    assert (ta.to_json() == tb.to_json()) == (ta == tb)
