"""Differential tests of the Buchberger engine against sympy's Groebner
bases on hypothesis-generated ideals over QQ and F_p, and of the seeded
paths (quotient_by, tensor_quotient) against computing from scratch.
sympy is an oracle only; the package does not depend on it."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from unramified.algebras import (  # noqa: E402
    Presentation,
    make_quotient,
    quotient_by,
    tensor_many,
    tensor_quotient,
)
from unramified.fields import QQ, prime_field  # noqa: E402
from unramified.groebner import (  # noqa: E402
    buchberger,
    module_member,
    satisfies_buchberger_criterion,
)
from unramified.polynomials import GREVLEX, LEX, ModuleVector, PolyRing, Polynomial  # noqa: E402

NAMES = ("X", "Y", "Z")
PRIMES = (2, 3, 5, 7)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

# a polynomial is a list of (coefficient, exponents); exponents stay small so
# both engines finish quickly
_exponents = st.tuples(*[st.integers(0, 3)] * 3)
_poly = st.lists(st.tuples(st.integers(-4, 4).filter(bool), _exponents),
                 min_size=1, max_size=3)
# binomial ideals keep their bases binomial, so coefficients stay small while
# many S-pairs form and the pair criteria fire often
_binomial = st.tuples(_exponents, st.integers(-2, 2).filter(bool), _exponents).map(
    lambda t: [(1, t[0]), (t[1], t[2])])


@st.composite
def ideals(draw):
    """(characteristic, number of variables, generator term lists)."""
    p = draw(st.sampled_from((0,) + PRIMES))
    nvars = draw(st.integers(2, 3))
    if draw(st.booleans()):
        gens = draw(st.lists(_binomial, min_size=2, max_size=5))
    else:
        gens = draw(st.lists(_poly, min_size=1, max_size=3))
    return p, nvars, gens


def _field(p):
    return QQ if p == 0 else prime_field(p)


def _poly_of(ring, spec):
    return Polynomial.build(ring, [
        (tuple((i, e) for i, e in enumerate(exps[:ring.nvars]) if e), ring.field.from_int(c))
        for c, exps in spec])


def _polys(p, nvars, gens, order=GREVLEX):
    ring = PolyRing(_field(p), NAMES[:nvars], order=order)
    return ring, [_poly_of(ring, g) for g in gens]


def _dense(poly):
    """{exponent tuple: Fraction or int mod p} of one of our polynomials."""
    out = {}
    for mono, c in poly.terms.items():
        exps = [0] * poly.ring.nvars
        for i, e in mono:
            exps[i] = e
        out[tuple(exps)] = Fraction(c.payload) if poly.ring.field.characteristic == 0 else c.payload
    return out


def _sympy_basis(p, nvars, polys):
    """sympy's reduced grevlex basis, each element monic, as dense dicts."""
    symbols = sympy.symbols(NAMES[:nvars])
    exprs = []
    for poly in polys:
        expr = 0
        for exps, c in _dense(poly).items():
            term = sympy.Rational(c.numerator, c.denominator) if p == 0 else sympy.Integer(c)
            for s, e in zip(symbols, exps):
                term *= s ** e
            expr += term
        exprs.append(expr)
    options = {"order": "grevlex"}
    if p == 0:
        options["domain"] = sympy.QQ
    else:
        options["modulus"] = p
    basis = sympy.groebner(exprs, *symbols, **options)
    out = []
    for g in basis.polys:
        terms = {}
        for monom, c in g.terms():
            if p == 0:
                c = sympy.Rational(c)
                terms[tuple(monom)] = Fraction(int(c.p), int(c.q))
            else:
                terms[tuple(monom)] = int(c) % p
        # monic for grevlex: total degree first, then the smaller exponent of
        # the last variable wins
        lead = terms[max(terms, key=lambda m: (sum(m), [-e for e in reversed(m)]))]
        inverse = 1 / lead if p == 0 else pow(lead, -1, p)
        out.append({m: c * inverse if p == 0 else c * inverse % p for m, c in terms.items()})
    return out


def _canonical(dicts):
    return sorted(sorted(d.items()) for d in dicts)


@SETTINGS
@given(ideals())
def test_reduced_basis_matches_sympy(case):
    p, nvars, gens = case
    ring, polys = _polys(p, nvars, gens)
    ours = buchberger(polys).generators
    nonzero = [f for f in polys if not f.is_zero()]
    if not nonzero:  # every term cancelled mod p
        assert ours == ()
        return
    assert _canonical(_dense(g) for g in ours) == _canonical(_sympy_basis(p, nvars, nonzero))


@SETTINGS
@given(ideals(), st.integers(1, 2))
def test_seeded_quotient_matches_from_scratch(case, split):
    p, nvars, gens = case
    ring, polys = _polys(p, nvars, gens)
    split = min(split, len(polys))
    whole = make_quotient(Presentation(ring, tuple(polys)))
    first = make_quotient(Presentation(ring, tuple(polys[:split])))
    extended = quotient_by(first, polys[split:])
    assert extended.groebner.generators == whole.groebner.generators


@SETTINGS
@given(ideals(), ideals())
def test_tensor_basis_matches_from_scratch(left, right):
    """The union of the factors' bases equals a full run on the union of the
    relations."""
    p = left[0]  # both factors over one field
    algebras = []
    for _, nvars, gens in (left, right):
        ring, polys = _polys(p, nvars, gens)
        algebras.append(make_quotient(Presentation(ring, tuple(polys))))
    product, _ = tensor_quotient(algebras)
    presentation, _ = tensor_many(algebras)
    assert product.groebner.generators == make_quotient(presentation).groebner.generators


def test_tensor_with_factor_in_another_order():
    """A lex factor's relations are recomputed in the product's grevlex order."""
    grevlex = PolyRing(QQ, ("X", "Y"))
    lex = PolyRing(QQ, ("X", "Y"), order=LEX)
    X, Y = grevlex.variable("X"), grevlex.variable("Y")
    U, V = lex.variable("X"), lex.variable("Y")
    algebras = [make_quotient(Presentation(grevlex, (X ** 2 - Y, Y ** 3))),
                make_quotient(Presentation(lex, (U ** 2 - V, V ** 2 - U)))]
    product, _ = tensor_quotient(algebras)
    presentation, _ = tensor_many(algebras)
    assert product.groebner.generators == make_quotient(presentation).groebner.generators
    assert product.dimension == algebras[0].dimension * algebras[1].dimension == 24


def test_tensor_with_unit_factor_is_unit():
    ring = PolyRing(QQ, ("X",))
    X = ring.variable("X")
    nilpotent = make_quotient(Presentation(ring, (X ** 3,)))
    zero_ring = make_quotient(Presentation(ring, (X, X - 1)))
    product, _ = tensor_quotient([nilpotent, zero_ring])
    assert [str(g) for g in product.groebner.generators] == ["1"]
    assert product.dimension == 0


@st.composite
def modules(draw):
    """(characteristic, number of variables, vectors as lists of term lists)."""
    p = draw(st.sampled_from((0,) + PRIMES))
    nvars = draw(st.integers(2, 3))
    vectors = draw(st.lists(st.lists(_poly, min_size=2, max_size=2), min_size=1, max_size=3))
    return p, nvars, vectors


@SETTINGS
@given(modules(), st.integers(1, 2))
def test_module_basis_is_groebner_and_contains_inputs(case, split):
    p, nvars, vectors = case
    ring = PolyRing(_field(p), NAMES[:nvars])
    inputs = [ModuleVector.from_components(ring, [_poly_of(ring, c) for c in comps])
              for comps in vectors]
    gb = buchberger(inputs)
    assert satisfies_buchberger_criterion(gb)
    for v in inputs:
        assert module_member(v, gb)
    split = min(split, len(inputs))
    seeded = buchberger(inputs[split:] or [ModuleVector(ring, 2, {})],
                        start=buchberger(inputs[:split]))
    assert seeded.generators == gb.generators
