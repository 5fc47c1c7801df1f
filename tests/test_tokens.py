from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pattern_forge.tokens import (TOP, ColourToken, canonical_json,
                                  canonical_scalar)


def test_equality_is_kind_and_byte_equality():
    assert ColourToken.int_(3) == ColourToken.int_(3)
    assert ColourToken.int_(3) != ColourToken.int_(4)
    assert hash(ColourToken.seq([1, 2])) == hash(ColourToken.seq((1, 2)))
    # identical serializations of different kinds stay apart
    assert canonical_json(ColourToken.int_(0).jsonable()) == canonical_json(
        ColourToken.bit(0).jsonable())
    assert ColourToken.int_(0) != ColourToken.bit(0)
    assert ColourToken.int_(1) != ColourToken.bit(1)


def test_equality_sees_kinds_inside_tuples():
    matrix = ColourToken.matrix([[1]])
    nested = ColourToken.tuple_([ColourToken.seq([1])])
    assert canonical_json(matrix.jsonable()) == "[[1]]"
    assert canonical_json(nested.jsonable()) == "[[1]]"
    assert matrix != nested
    # a tuple's serialization drops the kinds of its members
    ints = ColourToken.tuple_([ColourToken.int_(1)])
    bits = ColourToken.tuple_([ColourToken.bit(1)])
    assert canonical_json(ints.jsonable()) == canonical_json(bits.jsonable())
    assert ints != bits
    assert ints == ColourToken.tuple_([ColourToken.int_(1)])
    assert hash(ints) == hash(ColourToken.tuple_([ColourToken.int_(1)]))
    assert len({ColourToken.int_(1), ColourToken.bit(1), ints, bits,
                matrix, nested}) == 6


def test_fraction_scalars_normalize():
    assert canonical_scalar(Fraction(4, 2)) == 2
    assert isinstance(canonical_scalar(Fraction(4, 2)), int)
    assert canonical_json(ColourToken.int_(Fraction(1, 2)).jsonable()) == "[1,2]"
    assert canonical_json(ColourToken.int_(Fraction(50, 2)).jsonable()) == "25"
    two = ColourToken.int_(Fraction(4, 2))
    assert two == ColourToken.int_(2) and hash(two) == hash(ColourToken.int_(2))
    assert canonical_json(two.jsonable()) == "2"


def test_matrix_serializes_top_sentinel():
    t = ColourToken.matrix([[TOP, 1], [1, TOP]])
    assert canonical_json(t.jsonable()) == '[["TOP",1],[1,"TOP"]]'


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
    assert canonical_json(t.jsonable()) == "[[1,2],[]]"


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
    same_bytes = canonical_json(ta.jsonable()) == canonical_json(tb.jsonable())
    assert same_bytes == (ta == tb)


# -- payload keys ------------------------------------------------------------

# small ranges, so that equal tokens are drawn often; st.fractions also
# draws integral values, which canonical_scalar turns into ints
_entries = st.one_of(
    st.integers(-2, 2),
    st.fractions(min_value=-2, max_value=2, max_denominator=3))


def _square(k):
    row = st.lists(st.one_of(_entries, st.just(TOP)), min_size=k, max_size=k)
    return st.lists(row, min_size=k, max_size=k)


_leaves = st.one_of(
    _entries.map(ColourToken.int_),
    st.sampled_from([0, 1]).map(ColourToken.bit),
    st.lists(_entries, max_size=2).map(ColourToken.seq),
    st.integers(0, 2).flatmap(_square).map(ColourToken.matrix))

tokens = st.recursive(
    _leaves, lambda inner: st.lists(inner, max_size=3).map(ColourToken.tuple_),
    max_leaves=5)


def _typed(t):
    """The canonical bytes with the kinds of the token and its members."""
    members = t.payload if t.kind == "tuple" else ()
    return (t.kind, canonical_json(t.jsonable()),
            tuple(_typed(u) for u in members))


@given(tokens, tokens)
@settings(max_examples=200)
def test_payload_keys_agree_with_typed_canonical_bytes(a, b):
    assert (a == b) == (_typed(a) == _typed(b))
    if a == b:
        assert hash(a) == hash(b)
    assert repr(a) == f"ColourToken({a.kind}:{canonical_json(a.jsonable())})"


def test_bits_are_shared():
    assert ColourToken.bit(0) is ColourToken.bit(0)
    assert ColourToken.bit(1) is ColourToken.bit(1)
    assert ColourToken.bit(0) != ColourToken.bit(1)
    assert canonical_json(ColourToken.bit(1).jsonable()) == "1"
