"""Monomials are dense exponent tuples, one non-negative int per ring
variable, after every operation that builds new ones: arithmetic, powers,
derivatives, casts into tensor rings, substitution, normal forms and
staircases of ideals and modules."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from unramified.algebras import Presentation, make_quotient, tensor_many
from unramified.differentials import KaehlerModule
from unramified.fields import QQ, prime_field
from unramified.groebner import buchberger, normal_form, staircase, staircase_of_degree
from unramified.polynomials import (
    PolyRing,
    cast,
    partial_derivative,
    substitute,
)

NAMES = ("X", "Y", "Z", "W")
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def cases(draw):
    """(ring, f, g, images, exponents of the pure powers bounding an ideal)."""
    nvars = draw(st.integers(0, 4))
    weights = tuple(draw(st.integers(1, 3)) for _ in range(nvars))
    field = draw(st.sampled_from((QQ, prime_field(3))))
    ring = PolyRing(field, NAMES[:nvars], weights)

    def poly(max_exp, max_terms):
        terms = draw(st.lists(
            st.tuples(st.integers(-3, 3).filter(bool),
                      st.tuples(*[st.integers(0, max_exp)] * nvars)),
            min_size=1, max_size=max_terms))
        return oracles.polynomial(ring, [(m, field.from_int(c)) for c, m in terms])

    f, g = poly(2, 3), poly(2, 3)
    images = {name: poly(1, 2) for name in ring.names}
    powers = tuple(draw(st.integers(1, 3)) for _ in range(nvars))
    return ring, f, g, images, powers


def assert_dense(ring, monomials):
    for m in monomials:
        assert type(m) is tuple and len(m) == ring.nvars, m
        assert all(type(e) is int and e >= 0 for e in m), m


def assert_dense_entries(ring, entries):
    for comp, m in entries:
        assert type(comp) is int
        assert_dense(ring, [m])


@SETTINGS
@given(cases())
def test_every_monomial_is_a_dense_exponent_tuple(case):
    ring, f, g, images, powers = case
    products = [f * g, f ** 3, g ** 0, substitute(f, images, ring)]
    products += [partial_derivative(f, name) for name in ring.names]
    for p in products:
        assert_dense(ring, p.terms)

    pure = tuple(ring.monomial({name: a}) for name, a in zip(ring.names, powers))
    algebra = make_quotient(Presentation(ring, pure + (g,)))
    presentation, renamings = tensor_many([algebra, algebra])
    moved = cast(f, presentation.ring, renamings[1])
    assert_dense(presentation.ring, moved.terms)

    assert_dense(ring, normal_form(f * f, algebra.groebner).terms)
    chart = staircase(algebra.groebner)
    assert chart.finite
    assert_dense(ring, chart.monomials)
    for degree in range(5):
        assert_dense(ring, staircase_of_degree(algebra.groebner, degree))

    if ring.nvars:
        module = KaehlerModule(algebra)
        assert_dense_entries(ring, module.d_image(f).terms)
        chart = staircase(module.groebner)
        assert chart.finite
        assert_dense_entries(ring, chart.monomials)
        for degree in range(5):
            assert_dense_entries(ring, staircase_of_degree(module.groebner, degree))


def test_the_monomial_one_has_one_zero_per_variable():
    assert PolyRing(QQ, ()).monomial_one == ()
    ring = PolyRing(QQ, ("X", "Y"), (2, 3))
    assert ring.monomial_one == (0, 0)
    assert ring.one().terms == {(0, 0): QQ.one()}
    assert buchberger([ring.one()]).generators[0].terms == {(0, 0): QQ.one()}
