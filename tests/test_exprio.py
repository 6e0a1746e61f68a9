"""Expression grammar and JSON document round-trips.

The grammar's one trap is exponent notation: '2e2' is the blade e2 scaled
by 2, never 200.  Formatting must invert parsing exactly, so the round-trip
properties here use '==' (exact coefficients), not a tolerance.
"""

import json
import math
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatype.blades import Signature
from quatype.exprio import (
    ExprSyntaxError,
    format_blade,
    format_expression,
    format_float,
    mv_from_document,
    mv_to_document,
    parse_expression,
)
from quatype.multivector import Field, FieldMismatch, Multivector

S22 = Signature(2, 2)


# ----------------------------------------------------------------------
# parsing

def test_no_exponent_notation():
    u = parse_expression("2e2", S22)
    assert u.terms == {0b10: 2 + 0j}
    u = parse_expression("1.5e12", S22)
    assert u.terms == {0b11: 1.5 + 0j}


def test_term_forms():
    assert parse_expression("3", S22).terms == {0: 3 + 0j}
    assert parse_expression("e1", S22).terms == {0b1: 1 + 0j}
    assert parse_expression("2.5e13", S22).terms == {0b101: 2.5 + 0j}
    assert parse_expression("2i", S22).terms == {0: 2j}
    assert parse_expression("(1+2i)e1", S22).terms == {0b1: 1 + 2j}
    assert parse_expression("(0-1i)e1", S22).terms == {0b1: -1j}


def test_braced_blades():
    sig = Signature(6, 6)
    assert parse_expression("e{10}", sig).terms == {1 << 9: 1 + 0j}
    assert parse_expression("2e{1,12}", sig).terms == {(1 << 11) | 1: 2 + 0j}


def test_leading_sign_and_spacing():
    assert parse_expression("-2e2", S22).terms == {0b10: -2 + 0j}
    assert parse_expression("+e1", S22).terms == {0b1: 1 + 0j}
    assert parse_expression("1 + 2e1 - e12", S22).terms == \
        {0: 1 + 0j, 0b1: 2 + 0j, 0b11: -1 + 0j}
    assert parse_expression("  -  3e1  ", S22).terms == {0b1: -3 + 0j}


def test_repeated_blades_accumulate():
    assert parse_expression("e1+e1", S22).terms == {0b1: 2 + 0j}
    assert parse_expression("e1-e1", S22).is_zero(0.0)


def test_field_inference():
    assert parse_expression("1+e1", S22).field is Field.REAL
    assert parse_expression("1i", S22).field is Field.COMPLEX
    assert parse_expression("(1+2i)e2", S22).field is Field.COMPLEX
    # forced field wins
    u = parse_expression("2e1", S22, Field.COMPLEX)
    assert u.field is Field.COMPLEX
    with pytest.raises(FieldMismatch):
        parse_expression("2i", S22, Field.REAL)


@pytest.mark.parametrize("text,position", [
    ("", 0),
    ("e21", 2),             # not strictly increasing
    ("2e9", 2),             # index outside 1..4
    ("e0", 1),
    ("2..5", 2),
    ("2 + ", 4),
    ("e{}", 2),
    ("e{2,1}", 4),
    ("(1+2j)e1", 4),
    ("2e2e3", 3),           # missing '+'/'-' between terms
    ("*e1", 0),
    ("(1*2i)", 2),          # no sign inside a complex coefficient
    ("(1+2i", 5),           # unclosed complex coefficient
    ("(x+1i)", 1),          # real part not a number
    ("e{1;2}", 3),
    ("2e", 2),              # 'e' with no indices
])
def test_error_positions(text, position):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression(text, S22)
    assert err.value.position == position
    assert f"position {position}" in str(err.value)


def test_number_too_large_for_a_double():
    # float() would round these to inf and the constructor would see a NaN
    nines = "9" * 400
    for text, position in ((nines, 0), (f"(1+{nines}i)e1", 3)):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression(text, S22)
        assert err.value.position == position
        assert str(err.value) == f"number too large for a double (at position {position})"


def test_coefficient_sum_too_large_for_a_double():
    # each term is a finite double; the error points at the term whose sum
    # with the earlier ones on its blade overflows
    nines = "9" * 308
    for text, position in ((f"{nines} + {nines}", 311),
                           (f"e1 - {nines}e1 - {nines}e1", 318)):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression(text, Signature(2, 0))
        assert err.value.position == position
        assert str(err.value) == (
            f"coefficient sum too large for a double (at position {position})")


# ----------------------------------------------------------------------
# formatting

def test_format_float_forms():
    assert format_float(2.0) == "2"
    assert format_float(2.5) == "2.5"
    assert format_float(1e-7) == "0.0000001"
    assert format_float(1e16) == "10000000000000000"
    assert float(format_float(0.1)) == 0.1
    assert format_float(-1e-7) == "-0.0000001"
    assert format_float(-1.25e-5) == "-0.0000125"
    assert format_float(1.2345e17) == "123450000000000000"
    assert format_float(5e-324) == "0." + "0" * 323 + "5"


@settings(max_examples=3000)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_is_decimal_fixed_point_of_repr(x):
    # the positional text is Decimal's fixed-point form of repr's digits
    if x == int(x) and abs(x) < 2 ** 53:
        want = str(int(x))
    else:
        want = format(Decimal(repr(x)), "f")
    assert format_float(x) == want


def test_format_blade_forms():
    assert format_blade(0) == ""
    assert format_blade(0b101) == "e13"
    assert format_blade(1 << 9) == "e{10}"
    assert format_blade((1 << 9) | 1) == "e{1,10}"


def test_format_expression_examples():
    assert format_expression(Multivector.zero(S22, Field.REAL)) == "0"
    u = Multivector(S22, Field.REAL, {0b10: -2.0})
    assert format_expression(u) == "-2e2"
    u = Multivector(S22, Field.COMPLEX, {0b1: -1j})
    assert format_expression(u) == "(0-1i)e1"
    u = Multivector(S22, Field.REAL, {0: 1.0, 0b11: -1.0, 0b1: 2.0})
    assert format_expression(u) == "1 + 2e1 - e12"
    u = Multivector(S22, Field.COMPLEX, {0b10: complex(-1.5, 2.0)})
    assert format_expression(u) == "-(1.5-2i)e2"


def test_format_orders_by_grade_then_mask():
    u = Multivector(S22, Field.REAL, {0b1111: 1.0, 0b100: 1.0, 0b11: 1.0})
    assert format_expression(u) == "e3 + e12 + e1234"


# ----------------------------------------------------------------------
# round-trips

def coeff_strategy(field: Field):
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    if field is Field.REAL:
        return finite
    return st.tuples(finite, finite).map(lambda t: complex(*t))


@st.composite
def multivectors(draw, sig=S22):
    field = draw(st.sampled_from([Field.REAL, Field.COMPLEX]))
    masks = draw(st.lists(st.integers(0, (1 << sig.n) - 1),
                          max_size=6, unique=True))
    terms = {m: draw(coeff_strategy(field)) for m in masks}
    return Multivector(sig, field, terms)


@given(multivectors())
@settings(max_examples=200)
def test_expression_round_trip(u):
    assert parse_expression(format_expression(u), u.sig, u.field) == u


@given(multivectors(sig=Signature(6, 5)))
@settings(max_examples=100)
def test_expression_round_trip_wide_signature(u):
    assert parse_expression(format_expression(u), u.sig, u.field) == u


@given(multivectors())
@settings(max_examples=100)
def test_document_round_trip_through_json(u):
    text = json.dumps(mv_to_document(u))
    assert mv_from_document(json.loads(text)) == u


def test_document_shape():
    u = Multivector(S22, Field.COMPLEX, {0b101: 1 + 2j, 0: 3.0})
    doc = mv_to_document(u)
    assert doc == {
        "p": 2, "q": 2, "field": "C",
        "terms": [
            {"blade": [], "re": 3.0, "im": 0.0},
            {"blade": [1, 3], "re": 1.0, "im": 2.0},
        ],
    }


def test_document_duplicate_blades_accumulate():
    doc = {"p": 2, "q": 2, "field": "R", "terms": [
        {"blade": [1], "re": 1.0, "im": 0.0},
        {"blade": [1], "re": 2.0, "im": 0.0},
    ]}
    assert mv_from_document(doc).terms == {0b1: 3 + 0j}


def test_document_overflowing_sum_names_term_and_blade():
    doc = {"p": 2, "q": 2, "field": "R", "terms": [
        {"blade": [1], "re": 1.7e308, "im": 0.0},
        {"blade": [1], "re": 1.7e308, "im": 0.0},
    ]}
    with pytest.raises(ValueError) as err:
        mv_from_document(doc)
    assert str(err.value) == "term 1 on blade [1]: coefficient sum (inf+0j) is not finite"


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("field"),
    lambda d: d.__setitem__("field", "Q"),
    lambda d: d.__setitem__("p", 2.0),
    lambda d: d.__setitem__("q", True),
    lambda d: d.__setitem__("terms", {}),
    lambda d: d["terms"].append("e1"),
    lambda d: d["terms"][0].pop("im"),
    lambda d: d["terms"][0].__setitem__("blade", [0]),
    lambda d: d["terms"][0].__setitem__("blade", [2, 1]),
    lambda d: d["terms"][0].__setitem__("blade", [True]),
    lambda d: d["terms"][0].__setitem__("re", "1"),
    lambda d: d["terms"][0].__setitem__("re", math.nan),
    lambda d: d["terms"][0].__setitem__("re", 10 ** 400),
    lambda d: d["terms"].extend([{"blade": [1], "re": 1.7e308, "im": 0.0}] * 2),
])
def test_document_validation(mutate):
    doc = {"p": 2, "q": 2, "field": "R", "terms": [
        {"blade": [1], "re": 1.0, "im": 0.0},
    ]}
    mutate(doc)
    with pytest.raises((ValueError, TypeError)):
        mv_from_document(doc)


def test_document_signature_assertion():
    doc = mv_to_document(Multivector.scalar(S22, 2))
    assert mv_from_document(doc, S22) == Multivector.scalar(S22, 2)
    with pytest.raises(ValueError):
        mv_from_document(doc, Signature(3, 1))
