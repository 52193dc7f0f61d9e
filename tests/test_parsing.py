"""Expression and file parsing, with round trips over every field kind."""

import importlib.util
import pathlib
import random
import sys
from collections import Counter

import pytest

import oracles
from unramified.algebras import MODE_LOCAL, Presentation
from unramified.errors import ParseError
from unramified.fields import (
    FIELD_VARIABLE,
    QQ,
    FieldElement,
    prime_field,
    rational_functions,
)
from unramified.parsing import (
    build_algebra,
    format_presentation,
    parse_field_spec,
    parse_map_file,
    parse_polynomial,
    parse_presentation,
    parse_scalar,
)
from unramified.polynomials import PolyRing, Polynomial, format_polynomial

R = PolyRing(QQ, ("X", "Y"))


def test_basic_expressions():
    X, Y = R.variable("X"), R.variable("Y")
    assert parse_polynomial("X^2*Y^2 + X^5 + Y^5", R) == X ** 2 * Y ** 2 + X ** 5 + Y ** 5
    assert parse_polynomial("(X + Y)*(X - Y)", R) == X ** 2 - Y ** 2
    assert parse_polynomial("-X^2", R) == -(X ** 2)
    assert parse_polynomial("3/4*X", R) == X.scale(oracles.scalar(QQ, 3, 4))
    assert parse_polynomial("X/2", R) == X.scale(oracles.scalar(QQ, 1, 2))


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


def test_field_prime_must_be_ascii_digits():
    with pytest.raises(ParseError) as info:
        parse_presentation("# a superscript two\nfield Fp \u00b2\n")
    assert (info.value.message, info.value.line) == ("Fp needs a prime parameter, e.g. Fp:5", 2)


def test_ring_weight_must_be_ascii_digits():
    with pytest.raises(ParseError) as info:
        parse_presentation("field QQ\nring X:\u00b2\n")
    assert (info.value.message, info.value.line) == ("bad weight in 'X:\u00b2'", 2)


def test_exponent_must_be_ascii_digits():
    """An Arabic-Indic three is not read as 3: it is a character the
    grammar does not know, at its line and column."""
    with pytest.raises(ParseError) as info:
        parse_presentation("field QQ\nring X:1\nrel X^\u0663\n")
    assert (info.value.message, info.value.line,
            info.value.column) == ("unexpected character '\u0663'", 3, 7)


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


# (expression, message, column of the error within the expression)
EXPRESSION_ERRORS = [
    ("X + @", "unexpected character '@'", 5),
    ("X Y", "unexpected 'Y'", 3),
    ("X +", "unexpected 'end of input'", 4),
    ("2*(X + Y", "expected ')'", 9),
    ("(X Y)", "expected ')'", 4),
    ("X ^ Y", "exponent must be a non-negative integer", 5),
    ("X^-1", "exponent must be a non-negative integer", 3),
    ("X / Y", "can only divide by scalars", 3),
    ("X / (Y + 1)", "can only divide by scalars", 3),
    ("X / 0", "division by zero", 3),
    ("X / (Y - Y)", "division by zero", 3),
    ("W + 1", "unknown variable 'W'", 1),
    ("X + 2*W^2", "unknown variable 'W'", 7),
    # a power takes one exponent, after a unary sign too
    ("X^2^3", "unexpected '^'", 4),
    ("-X^2^3", "unexpected '^'", 5),
    ("+X^2^3", "unexpected '^'", 5),
    ("Y*-X^2 ^ 3", "unexpected '^'", 8),
]


@pytest.mark.parametrize("expr, message, column", EXPRESSION_ERRORS)
def test_expression_errors_pin_message_line_and_column(expr, message, column):
    """Each expression error names the same fault at the same place whether
    the expression stands alone, is an indented `rel` line of a
    presentation file, or is the image of a map file."""
    with pytest.raises(ParseError) as info:
        parse_polynomial(expr, R)
    assert (info.value.message, info.value.line, info.value.column) == (message, 1, column)

    prefix = "  rel  "
    with pytest.raises(ParseError) as info:
        parse_presentation(f"field QQ\nring X:1 Y:1\n\n{prefix}{expr}\n")
    assert (info.value.message, info.value.line,
            info.value.column) == (message, 4, column + len(prefix))

    prefix = "Y = "
    text = ("[source]\nfield QQ\nring Y:1\n"
            "[target]\nfield QQ\nring X:1 Y:1\n"
            f"[map]\n{prefix}{expr}\n")
    with pytest.raises(ParseError) as info:
        parse_map_file(text)
    assert (info.value.message, info.value.line,
            info.value.column) == (message, 8, column + len(prefix))


def _random_factor(rng, ring, depth):
    """A factor of the expression grammar: a unary sign and a factor, or an
    atom with an optional power."""
    roll = rng.random()
    names = ring.names + ((FIELD_VARIABLE,) if ring.field.kind == "FpX" else ())
    if roll < 0.3:
        atom = str(rng.randrange(0, 13))
    elif roll < 0.75 or depth >= 2:
        atom = rng.choice(names)
    elif roll < 0.87:
        atom = "(" + _random_expression(rng, ring, depth + 1) + ")"
    else:
        return rng.choice("-+") + _random_factor(rng, ring, depth + 1)
    if rng.random() < 0.4:
        atom += rng.choice(("^", " ^ ")) + str(rng.randrange(0, 5))
    return atom


def _random_unit(rng, ring):
    """A positive integer that is nonzero in the field."""
    n, p = rng.randrange(1, 9), ring.field.characteristic
    return str(n + 1 if p and n % p == 0 else n)


def _random_divisor(rng, ring):
    """A scalar factor to divide by; zero in the field now and then."""
    roll = rng.random()
    if roll < 0.05:
        return rng.choice(("0", "(X - X)" if "X" in ring.names else "0^2"))
    if roll < 0.6:
        return _random_unit(rng, ring)
    if roll < 0.8:
        return f"{_random_unit(rng, ring)}^{rng.randrange(0, 3)}"
    if ring.field.kind == "FpX":
        return rng.choice(("x", "(x + 1)", f"(x^2 - x)/{_random_unit(rng, ring)}"))
    return f"({_random_unit(rng, ring)} + 0*{rng.choice(ring.names)})"


def _random_term(rng, ring, depth):
    text = _random_factor(rng, ring, depth)
    for _ in range(rng.randrange(0, 4)):
        if rng.random() < 0.2:
            text += rng.choice(("/", " / ")) + _random_divisor(rng, ring)
        else:
            text += rng.choice(("*", " * ")) + _random_factor(rng, ring, depth)
    return text


def _random_expression(rng, ring, depth=0):
    """A random expression string: sums of products with parentheses, unary
    signs, scalar powers, scalar division and zero coefficients, plus now
    and then a term and the term that cancels it (mod p over F_p)."""
    text = rng.choice(("", "", "-", "+")) + _random_term(rng, ring, depth)
    for _ in range(rng.randrange(0, 4)):
        text += rng.choice((" + ", " - ", "+", "-")) + _random_term(rng, ring, depth)
    if rng.random() < 0.25:
        mono = "*".join(rng.sample(ring.names, rng.randrange(1, ring.nvars + 1)))
        c = rng.randrange(1, 9)
        p = ring.field.characteristic
        text += f" + {c}*{mono} " + (f"+ {p * c - c}*{mono}" if p else f"- {c}*{mono}")
    return text


def _outcome(parse, text, ring):
    try:
        value = parse(text, ring)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.column)
    return ("value", value, list(value.terms.items()))


@pytest.mark.parametrize("ring, seed", [
    (R, 1),
    (PolyRing(prime_field(2), ("X", "Y")), 2),
    (PolyRing(prime_field(5), ("X", "Y", "Z")), 3),
    (PolyRing(prime_field(7), ("X", "Y")), 4),
    (PolyRing(rational_functions(3), ("U", "Z")), 5),
    (PolyRing(QQ, ("A", "B"), (2, 3)), 6),
])
def test_parse_agrees_with_the_factor_by_factor_reference(ring, seed):
    """The parser and the reference evaluator give an equal polynomial with
    the same term order, or the same error.  Term order matters: it is the
    input order of Buchberger's algorithm and of the report bytes."""
    rng = random.Random(seed)
    values = 0
    for _ in range(300):
        text = _random_expression(rng, ring)
        outcome = _outcome(parse_polynomial, text, ring)
        assert outcome == _outcome(oracles.reference_parse_polynomial, text, ring), text
        values += outcome[0] == "value"
    assert values >= 250


WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _corpus_texts(seed: int, monkeypatch) -> list:
    """The `.alg` texts of the benchmark's `corpus` workload."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return [case.text for case in module.corpus_cases(seed)]


def test_a_product_of_names_and_numbers_is_built_as_one_term(monkeypatch):
    """A term without parentheses is built as one scalar and one exponent
    tuple: no polynomial product or power, and a field power only where
    the text raises a scalar."""
    texts = [text for text in _corpus_texts(3, monkeypatch) if "(" not in text]
    assert len(texts) >= 390
    calls = Counter()
    for cls, name in ((Polynomial, "__mul__"), (Polynomial, "__pow__"),
                      (FieldElement, "__pow__")):
        def spy(*args, _original=getattr(cls, name), _name=f"{cls.__name__}.{name}"):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(cls, name, spy)
    for text in texts:
        parse_presentation(text)
    assert calls == Counter()
    parse_presentation("field Fp 5\nring X:1 Y:1\nrel 2^3*X^2*Y - 3^2*Y^4 + X^3/2\n")
    parse_presentation("field FpX 3\nring X:1\nrel x^2*X^2 - X^3\n")
    assert calls == Counter({"FieldElement.__pow__": 3})
    parse_presentation("field QQ\nring X:1 Y:1\nrel (X + Y)^2*X\n")
    assert calls["Polynomial.__pow__"] == 1 and calls["Polynomial.__mul__"] > 0
