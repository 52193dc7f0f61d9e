"""Expression and file parsing, with round trips over every field kind."""

import random

import pytest

import oracles
from unramified.algebras import MODE_LOCAL, Presentation
from unramified.errors import ParseError
from unramified.fields import QQ, prime_field, rational_functions
from unramified.parsing import (
    build_algebra,
    format_presentation,
    parse_field_spec,
    parse_map_file,
    parse_polynomial,
    parse_presentation,
    parse_scalar,
)
from unramified.polynomials import PolyRing, format_polynomial

R = PolyRing(QQ, ("X", "Y"))


def test_basic_expressions():
    X, Y = R.variable("X"), R.variable("Y")
    assert parse_polynomial("X^2*Y^2 + X^5 + Y^5", R) == X ** 2 * Y ** 2 + X ** 5 + Y ** 5
    assert parse_polynomial("(X + Y)*(X - Y)", R) == X ** 2 - Y ** 2
    assert parse_polynomial("-X^2", R) == -(X ** 2)
    assert parse_polynomial("3/4*X", R) == X.scale(oracles.scalar(QQ, 3, 4))
    assert parse_polynomial("X/2", R) == X.scale(oracles.scalar(QQ, 1, 2))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("X + @", R)
    assert err.value.column == 5
    with pytest.raises(ParseError):
        parse_polynomial("X Y", R)  # juxtaposition is not multiplication
    with pytest.raises(ParseError):
        parse_polynomial("X / Y", R)  # only scalar denominators
    with pytest.raises(ParseError):
        parse_polynomial("W + 1", R)
    with pytest.raises(ParseError):
        parse_polynomial("X ^ Y", R)


def test_division_by_zero():
    with pytest.raises(ParseError, match="division by zero"):
        parse_polynomial("X / 0", R)


def _random_poly(rng, ring, max_exp=4, max_terms=5):
    terms = []
    for _ in range(rng.randrange(0, max_terms + 1)):
        mono = tuple(rng.randrange(1, max_exp + 1) if rng.random() < 0.6 else 0
                     for _ in range(ring.nvars))
        if ring.field.kind == "FpX":
            x = ring.field.generator()
            c = (x ** rng.randrange(0, 3) + ring.field.from_int(rng.randrange(0, ring.field.p)))
            if rng.random() < 0.4:
                c = c / (x + 1)
        else:
            c = ring.field.from_int(rng.randrange(-6, 6))
        if not c.is_zero():
            terms.append((mono, c))
    return oracles.polynomial(ring, terms)


@pytest.mark.parametrize("ring", [
    R,
    PolyRing(prime_field(5), ("X", "Y", "Z")),
    PolyRing(rational_functions(3), ("U", "Z")),
    PolyRing(QQ, ("A", "B"), (2, 3)),
])
def test_format_parse_round_trip(ring):
    rng = random.Random(29)
    for _ in range(40):
        p = _random_poly(rng, ring)
        assert parse_polynomial(format_polynomial(p), ring) == p


def test_tensor_names_survive_round_trip():
    ring = PolyRing(QQ, ("X#1", "Y#1", "X#2"))
    p = ring.variable("X#1") * ring.variable("X#2") + ring.variable("Y#1")
    assert parse_polynomial(format_polynomial(p), ring) == p
    pres = Presentation(ring, (p,))
    assert parse_presentation(format_presentation(pres)) == pres


def test_field_specs():
    assert parse_field_spec("QQ") == QQ
    assert parse_field_spec("Fp:5") == prime_field(5)
    assert parse_field_spec("Fp 5") == prime_field(5)
    assert parse_field_spec("FpX:2") == rational_functions(2)
    with pytest.raises(ParseError):
        parse_field_spec("Fp:6")
    with pytest.raises(ParseError):
        parse_field_spec("GF(9)")


def test_presentation_round_trip_and_comments():
    text = """
# a local model
field QQ
ring X:1 Y:1   # name:weight pairs
rel X*(2*Y^2 + 5*X^3)
rel Y*(2*X^2 + 5*Y^3)
mode local
"""
    pres = parse_presentation(text)
    assert pres.mode == MODE_LOCAL
    assert pres.ring.names == ("X", "Y")
    dump = format_presentation(pres)
    assert parse_presentation(dump) == pres


def test_presentation_errors():
    with pytest.raises(ParseError):
        parse_presentation("ring X:1")
    with pytest.raises(ParseError):
        parse_presentation("field QQ\nring X:0")
    with pytest.raises(ParseError):
        parse_presentation("field QQ\nring X:1\nmode exotic")
    with pytest.raises(ParseError):
        parse_presentation("field QQ\nrel X")
    with pytest.raises(ParseError):
        parse_presentation("field QQ\nfield QQ")


def test_scalar_grammar_shared_with_cli():
    assert parse_scalar("3/4", QQ) == oracles.scalar(QQ, 3, 4)
    L = rational_functions(2)
    x = L.generator()
    assert parse_scalar("x^2 + 1", L) == x * x + 1
    with pytest.raises(ParseError):
        parse_scalar("y + 1", L)


def test_build_algebra_modes():
    local = parse_presentation(
        "field QQ\nring X:1 Y:1\nrel X^2\nrel Y^3\nmode local")
    assert build_algebra(local).dimension == 6
    plain = parse_presentation("field QQ\nring Z:1\nrel Z^2\nmode plain")
    assert build_algebra(plain).dimension == 2


def test_map_file():
    spec = parse_map_file("""
[source]
field Fp 2
ring Y:1
rel Y^2
[target]
field Fp 2
ring Y:1
rel Y^4
[map]
Y = Y^2
""")
    assert spec.images == {"Y": spec.target.ring.variable("Y") ** 2}
    with pytest.raises(ParseError):
        parse_map_file("[source]\nfield QQ\n[map]\nY = Y")
    with pytest.raises(ParseError):
        parse_map_file("junk before sections")


def test_map_file_errors_cite_file_lines():
    text = ("[source]\n"           # line 1
            "field QQ\n"
            "ring Y:1\n"
            "rel Y^2\n"
            "\n"                   # line 5
            "[target]\n"
            "field QQ\n"
            "ring Y:1\n"
            "rel Y^3 +\n"          # line 9
            "[map]\n"
            "Y = Y\n")
    with pytest.raises(ParseError, match=r"^line 9, column 10: ") as info:
        parse_map_file(text)
    assert (info.value.line, info.value.column) == (9, 10)
    # the column counts from the start of the file line, indentation included
    with pytest.raises(ParseError, match=r"^line 9, column 8: ") as info:
        parse_map_file(text.replace("rel Y^3 +", "  rel  $Y"))
    with pytest.raises(ParseError, match=r"^line 3, ") as info:
        parse_map_file(text.replace("ring Y:1\nrel Y^2", "ring Y:0\nrel Y^2"))
    # an image is parsed in the target's ring, at its place in the file
    fixed = text.replace("rel Y^3 +", "rel Y^3")
    with pytest.raises(ParseError, match=r"^line 11, column 9: unknown variable 'Q'"):
        parse_map_file(fixed.replace("Y = Y\n", "Y = Y + Q\n"))
    with pytest.raises(ParseError, match=r"^line 11, column 12: "):
        parse_map_file(fixed.replace("Y = Y\n", "  Y =  Y + @  # note\n"))
    # an image names a source variable, at its place in its line, and every
    # source variable has one, else the [map] header is cited
    with pytest.raises(ParseError, match=r"^line 11, column 3: 'W' is not a source variable"):
        parse_map_file(fixed.replace("Y = Y\n", "  W = Y\n"))
    with pytest.raises(ParseError, match=r"^line 10, column 1: source variable 'X' has no image"):
        parse_map_file(fixed.replace("ring Y:1\nrel Y^2", "ring X:1 Y:1\nrel Y^2"))
