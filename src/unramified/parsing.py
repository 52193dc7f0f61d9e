"""Text formats: polynomial expressions, scalar literals, presentation files
and map files.

The expression grammar accepts names, `^`, `*`, `/`, `+`, `-` and
parentheses.  Scalars follow the field: integers or integer fractions over
the rationals and prime fields, ratios of univariate polynomials in the
field variable over F_p(x); the field variable is just a name that is not a
ring variable.  Division is only defined by scalar (constant) denominators.
`format_polynomial` output always reparses to an equal polynomial.  Numbers
are ASCII digits.

A product of numbers, names and `^` powers is built as one term, a scalar
and an exponent tuple, and becomes a Polynomial only when it is added to
the sum or multiplied by a parenthesised factor; the term dict, insertion
order included, is the one that evaluating every factor as a Polynomial
gives.

Presentation files are line oriented::

    field QQ | Fp 5 | FpX 2
    ring X:1 Y:1          # name:weight pairs
    rel X^2*Y^2 + X^5 + Y^5
    mode local | graded | plain

A `#` starts a comment only at the beginning of a line or after whitespace,
so tensor-product variable names such as ``X#1`` survive a round trip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .algebras import (
    MODE_GRADED,
    MODE_LOCAL,
    MODE_PLAIN,
    Presentation,
    QuotientAlgebra,
    artinian_local_model,
    make_quotient,
)
from .errors import ParseError
from .fields import (
    FIELD_VARIABLE,
    PRIME_FIELD,
    RATIONAL_FUNCTIONS,
    RATIONALS,
    FieldDescriptor,
    FieldElement,
)
from .polynomials import (
    PolyRing,
    Polynomial,
    format_polynomial,
    mono_mul,
)

# Digits are ASCII: `\d` would also match other scripts' decimal digits.
# Any other character that is not white space is `bad`, so the matches of
# `finditer` tile the text up to trailing white space.
_TOKEN_RE = re.compile(r"\s*(?:(?P<num>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_#]*)"
                       r"|(?P<op>[-+*/^()])|(?P<bad>\S))")


class Token(NamedTuple):
    kind: str      # "num" | "name" | "op" | "end"
    text: str
    line: int
    column: int


def _tokenize(text: str, line: int = 1, column: int = 1) -> list:
    """Tokens of one line of text whose first character sits at `column`."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {match[kind]!r}",
                             line, match.start(kind) + column)
        tokens.append(Token(kind, match[kind], line, match.start(kind) + column))
    tokens.append(Token("end", "", line, len(text) + column))
    return tokens


class _ExpressionParser:
    """Recursive descent over the token list, producing a Polynomial.

    A factor without parentheses is a pending term, a pair (scalar,
    exponent tuple): products multiply the scalars and add the exponents,
    a `^` power raises both, and a scalar divisor scales the scalar.  The
    object `self.one` marks a scalar that no number has touched, so `X^2*Y`
    does no field arithmetic.  A divisor is checked as a Polynomial.
    """

    def __init__(self, tokens: list, ring: PolyRing):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.one = ring.field.one()

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str):
        tok = self.advance()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.line, tok.column)

    def polynomial(self, value) -> Polynomial:
        """A factor or term as a Polynomial."""
        if isinstance(value, Polynomial):
            return value
        c, m = value
        return Polynomial(self.ring, {} if c.is_zero() else {m: c})

    def negate(self, value):
        if isinstance(value, Polynomial):
            return -value
        c, m = value
        return -c, m

    def parse(self) -> Polynomial:
        value = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return value

    def expression(self) -> Polynomial:
        value = self.polynomial(self.term())
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.polynomial(self.term())
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.factor()
                if tok.text == "/":
                    value = self.divide(value, self.polynomial(rhs), tok)
                elif isinstance(value, Polynomial) or isinstance(rhs, Polynomial):
                    value = self.polynomial(value) * self.polynomial(rhs)
                else:
                    (c, m), (rc, rm) = value, rhs
                    value = (rc if c is self.one else c if rc is self.one else c * rc,
                             mono_mul(m, rm))
            else:
                return value

    def divide(self, value, divisor: Polynomial, tok: Token):
        if not divisor.is_constant():
            raise ParseError("can only divide by scalars", tok.line, tok.column)
        c = divisor.constant_coefficient()
        if c.is_zero():
            raise ParseError("division by zero", tok.line, tok.column)
        inverse = c.inverse()
        if isinstance(value, Polynomial):
            return value.scale(inverse)
        vc, m = value
        return (inverse if vc is self.one else vc * inverse), m

    def factor(self):
        """A unary sign and the factor it applies to, or an atom with at
        most one `^` power: `-X^2` is -(X^2), and neither `X^2^3` nor
        `-X^2^3` takes the second power."""
        tok = self.advance()
        if tok.kind == "op" and tok.text in "+-":
            value = self.factor()
            return self.negate(value) if tok.text == "-" else value
        value = self.atom(tok)
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp = self.advance()
            if exp.kind != "num":
                raise ParseError("exponent must be a non-negative integer",
                                 exp.line, exp.column)
            k = int(exp.text)
            if isinstance(value, Polynomial):
                return value ** k
            c, m = value
            value = (c if c is self.one else c ** k), tuple(e * k for e in m)
        return value

    def atom(self, tok: Token):
        ring = self.ring
        if tok.kind == "num":
            return ring.field.from_int(int(tok.text)), ring.monomial_one
        if tok.kind == "name":
            if tok.text in ring.names:
                i = ring.names.index(tok.text)
                one = ring.monomial_one
                return self.one, one[:i] + (1,) + one[i + 1:]
            field = ring.field
            if field.kind == RATIONAL_FUNCTIONS and tok.text == FIELD_VARIABLE:
                return field.generator(), ring.monomial_one
            raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.column)
        if tok.kind == "op" and tok.text == "(":
            value = self.expression()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                         tok.line, tok.column)


def parse_polynomial(text: str, ring: PolyRing, line: int = 1,
                     column: int = 1) -> Polynomial:
    """Parse an expression in the ring's variables (plus the field variable
    over F_p(x)).  Errors carry line and column; `column` is the column of
    the text's first character in its line."""
    return _ExpressionParser(_tokenize(text, line, column), ring).parse()


def parse_scalar(text: str, field: FieldDescriptor) -> FieldElement:
    """Parse a scalar literal by evaluating the expression in a variable-free
    ring over the field."""
    ring = PolyRing(field, ())
    value = parse_polynomial(text, ring)
    return value.constant_coefficient()


def parse_field_spec(text: str) -> FieldDescriptor:
    """Field syntax: the kind, then the prime for Fp and FpX: QQ, Fp:5 (or
    "Fp 5"), FpX:2 (or "FpX 2")."""
    parts = text.replace(":", " ").split()
    if not parts:
        raise ParseError("empty field specification")
    kind, params = parts[0], parts[1:]
    if kind not in (RATIONALS, PRIME_FIELD, RATIONAL_FUNCTIONS):
        raise ParseError(f"unknown field {kind!r} (expected {RATIONALS}, "
                         f"{PRIME_FIELD}:p or {RATIONAL_FUNCTIONS}:p)")
    if kind == RATIONALS:
        if params:
            raise ParseError(f"{kind} takes no parameter")
    elif len(params) != 1 or not (params[0].isascii() and params[0].isdigit()):
        raise ParseError(f"{kind} needs a prime parameter, e.g. {kind}:5")
    try:
        return FieldDescriptor(kind, int(params[0]) if params else 0)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


_COMMENT_RE = re.compile(r"(?:^|(?<=\s))#.*$")


def _strip_comment(line: str) -> str:
    return _COMMENT_RE.sub("", line)


def parse_presentation(text: str) -> Presentation:
    """Parse a presentation file into a Presentation (mode included)."""
    field: FieldDescriptor | None = None
    ring: PolyRing | None = None
    names: list = []
    weights: list = []
    relations: list = []
    mode = MODE_PLAIN
    saw_mode = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "field":
            if field is not None:
                raise ParseError("duplicate field line", lineno)
            try:
                field = parse_field_spec(rest)
            except ParseError as exc:
                raise ParseError(exc.message, lineno) from None
        elif keyword == "ring":
            if field is None:
                raise ParseError("field must come before ring", lineno)
            if ring is not None:
                raise ParseError("duplicate ring line", lineno)
            for col, chunk in enumerate(rest.split()):
                name, sep, weight = chunk.partition(":")
                if not sep:
                    names.append(name)
                    weights.append(1)
                    continue
                if not (weight.isascii() and weight.isdigit()) or int(weight) < 1:
                    raise ParseError(f"bad weight in {chunk!r}", lineno)
                names.append(name)
                weights.append(int(weight))
            try:
                ring = PolyRing(field, tuple(names), tuple(weights))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
        elif keyword == "rel":
            if ring is None:
                raise ParseError("ring must come before rel", lineno)
            # the file column of the expression's first character
            column = len(raw) - len(raw.lstrip()) + len(line) - len(rest) + 1
            relations.append(parse_polynomial(rest, ring, lineno, column))
        elif keyword == "mode":
            if saw_mode:
                raise ParseError("duplicate mode line", lineno)
            if rest not in (MODE_PLAIN, MODE_GRADED, MODE_LOCAL):
                raise ParseError(f"unknown mode {rest!r}", lineno)
            mode = rest
            saw_mode = True
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)
    if field is None:
        raise ParseError("missing field line")
    if ring is None:
        ring = PolyRing(field, ())
    try:
        return Presentation(ring, tuple(relations), mode)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_presentation(presentation: Presentation) -> str:
    """Canonical dump; parse_presentation round-trips it."""
    lines = ["field " + str(presentation.ring.field).replace(":", " ")]
    if presentation.ring.nvars:
        lines.append("ring " + " ".join(
            f"{n}:{w}" for n, w in zip(presentation.ring.names,
                                       presentation.ring.weights)))
    for rel in presentation.relations:
        lines.append("rel " + format_polynomial(rel))
    lines.append(f"mode {presentation.mode}")
    return "\n".join(lines) + "\n"


def build_algebra(presentation: Presentation) -> QuotientAlgebra:
    """Materialize a parsed presentation: local mode builds the local model
    P/(I + m^N) of the power-series quotient, the others are plain
    quotients."""
    if presentation.mode == MODE_LOCAL:
        return artinian_local_model(presentation.ring, presentation.relations)
    return make_quotient(presentation)


@dataclass
class MapFile:
    source: Presentation
    target: Presentation
    images: dict  # source variable name -> polynomial of the target ring


def parse_map_file(text: str) -> MapFile:
    """A map file has three sections:

        [source]
        <presentation lines>
        [target]
        <presentation lines>
        [map]
        X = X^2
        ...

    Each presentation section is parsed with the other lines blanked, and
    each image in the target's ring at its place in its line, so every
    error cites a line and column of the whole file.  Each source variable
    has exactly one image: a name that is not one is an error at its line,
    and a variable without an image one at the [map] header.
    """
    lines = text.splitlines()
    sections: dict = {}
    headers: dict = {}          # section name -> line of its header
    current: str | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in ("source", "target", "map"):
                raise ParseError(f"unknown section {current!r}", lineno)
            if current in sections:
                raise ParseError(f"duplicate section {current!r}", lineno)
            sections[current] = []
            headers[current] = lineno
            continue
        if current is None:
            raise ParseError("content before the first section", lineno)
        sections[current].append((lineno, raw))
    for needed in ("source", "target", "map"):
        if needed not in sections:
            raise ParseError(f"missing [{needed}] section")

    def in_place(name: str) -> str:
        kept = [""] * len(lines)
        for lineno, raw in sections[name]:
            kept[lineno - 1] = raw
        return "\n".join(kept)

    source = parse_presentation(in_place("source"))
    target = parse_presentation(in_place("target"))
    images: dict = {}
    for lineno, raw in sections["map"]:
        head, sep, expr = _strip_comment(raw).partition("=")
        if not sep:
            raise ParseError("map lines look like NAME = expression", lineno)
        name = head.strip()
        if name in images:
            raise ParseError(f"duplicate image for {name!r}", lineno)
        if name not in source.ring.names:
            raise ParseError(f"{name!r} is not a source variable", lineno,
                             len(head) - len(head.lstrip()) + 1)
        # the expression starts in the file column after the "="
        images[name] = parse_polynomial(expr, target.ring, lineno, len(head) + 2)
    for name in source.ring.names:
        if name not in images:
            raise ParseError(f"source variable {name!r} has no image", headers["map"])
    return MapFile(source, target, images)
