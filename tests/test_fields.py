"""Exact field arithmetic: known values, canonical forms, and the field and
derivation axioms on hypothesis-generated elements."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from unramified.fields import (
    QQ,
    FieldDescriptor,
    add_multiple,
    formal_derivative,
    format_scalar,
    prime_field,
    rational_functions,
)
from unramified.parsing import parse_scalar

F5 = prime_field(5)
F2X = rational_functions(2)
F3X = rational_functions(3)
F5X = rational_functions(5)

FIELDS = [QQ, F5, F2X]


def elements(field: FieldDescriptor):
    if field.kind == "QQ":
        return st.builds(lambda n, d: oracles.scalar(field, n, d),
                         st.integers(-40, 40), st.integers(1, 20))
    if field.kind == "Fp":
        return st.builds(field.from_int, st.integers(-30, 30))
    coeff = st.lists(st.integers(0, field.p - 1), min_size=1, max_size=4)
    nonzero = coeff.filter(any)
    return st.builds(lambda n, d: field.from_ratio(tuple(n), tuple(d)), coeff, nonzero)


@st.composite
def field_with_elements(draw, count: int):
    field = draw(st.sampled_from(FIELDS))
    return field, [draw(elements(field)) for _ in range(count)]


def test_known_values():
    assert oracles.scalar(QQ, 1, 3) + oracles.scalar(QQ, 1, 6) == oracles.scalar(QQ, 1, 2)
    assert F5.from_int(2).inverse() == F5.from_int(3)
    x = F2X.generator()
    assert (x + 1) / x * (x / (x + 1)) == F2X.one()


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.zero().inverse()


def test_descriptor_mismatch():
    with pytest.raises(ValueError):
        QQ.one() + F5.one()


def test_descriptor_validation():
    with pytest.raises(ValueError):
        prime_field(6)
    with pytest.raises(ValueError):
        rational_functions(9)
    with pytest.raises(ValueError):
        FieldDescriptor("QQ", 3)


@settings(max_examples=150)
@given(field_with_elements(3))
def test_field_axioms(data):
    field, (a, b, c) = data
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + field.zero() == a
    assert a * field.one() == a
    assert a - a == field.zero()
    if not a.is_zero():
        assert a * a.inverse() == field.one()


@settings(max_examples=150)
@given(field_with_elements(2))
def test_canonical_uniqueness(data):
    # two arithmetic routes to the same value give identical payloads
    field, (a, b) = data
    left = (a + b) * (a - b)
    right = a * a - b * b
    assert left == right
    assert left.payload == right.payload


def test_formal_derivative_known():
    x3 = F3X.generator()
    assert formal_derivative(x3 ** 2) == F3X.from_int(2) * x3
    x2 = F2X.generator()
    assert formal_derivative(x2 * x2).is_zero()
    # d(1/x) = -1/x^2 = 2/x^2 over F_3, checked against the hand expansion of
    # the product rule applied to (1/x) * x = 1
    assert formal_derivative(F3X.one() / x3) == F3X.from_int(2) / (x3 * x3)


def test_formal_derivative_wrong_kind():
    with pytest.raises(ValueError):
        formal_derivative(QQ.one())


@settings(max_examples=100)
@given(st.data())
def test_derivation_axioms(data):
    field = data.draw(st.sampled_from([F2X, F3X]))
    f = data.draw(elements(field))
    g = data.draw(elements(field))
    assert formal_derivative(f + g) == formal_derivative(f) + formal_derivative(g)
    assert formal_derivative(f * g) == formal_derivative(f) * g + f * formal_derivative(g)


@pytest.mark.parametrize("text,field,expected", [
    ("3/4", QQ, oracles.scalar(QQ, 3, 4)),
    ("7", F5, F5.from_int(2)),
    ("-1", F5, F5.from_int(4)),
])
def test_parse_scalar_known(text, field, expected):
    assert parse_scalar(text, field) == expected


def test_parse_scalar_function_field():
    x = F2X.generator()
    assert parse_scalar("(x^2+1)/x", F2X) == (x * x + 1) / x


@settings(max_examples=120)
@given(field_with_elements(1))
def test_scalar_round_trip(data):
    field, (a,) = data
    assert parse_scalar(format_scalar(a), field) == a


# (field, modulus, nonzero elements): the raw form is the Fraction over QQ,
# the int residue over F_5 and the element itself over F_5(x)
RAW_CASES = [
    (QQ, 0, [oracles.scalar(QQ, 3, 4), oracles.scalar(QQ, -2), QQ.one()]),
    (F5, 5, [F5.from_int(2), F5.from_int(4), F5.one()]),
    (F5X, 0, [F5X.from_ratio((1, 1), (0, 1)), F5X.generator() ** 2, F5X.one()]),
]


@pytest.mark.parametrize("field, modulus, values", RAW_CASES,
                         ids=[str(field) for field, _, _ in RAW_CASES])
def test_raw_helpers(field, modulus, values):
    """The raw form round-trips, `raw_inverse` inverts it once reduced by
    the modulus, and `add_multiple` adds a multiple of a sparse dict into
    another in place: it reduces mod p, drops the keys that cancel and
    returns its target."""
    assert field.modulus == modulus
    raw = field.raw
    for a in values:
        assert field.from_raw(raw(a)) == a
        product = field.raw_inverse(raw(a)) * raw(a)
        if modulus:
            product %= modulus
        assert field.from_raw(product) == field.one()
    x, y, _ = values
    target = {"kept": raw(x), "cancelled": raw(-3 * y)}
    out = add_multiple(target, raw(field.from_int(3)), {"cancelled": raw(y), "new": raw(x)},
                       modulus)
    assert out is target
    assert out == {"kept": raw(x), "new": raw(3 * x)}
    if modulus:
        assert all(0 <= v < modulus for v in out.values())
