"""The sparse-term core that Polynomial and ModuleVector share: sums,
negation, scaling, products, the leading term and the sorted terms, against
a reference that adds every coefficient first and drops the zeros only at
the end.  Small exponents over F_2 and F_3 make terms cancel
often; no stored coefficient may ever be zero."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from unramified.fields import QQ, prime_field
from unramified.polynomials import ModuleVector, PolyRing

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def reference(items) -> dict:
    """The canonical term dict of a sum of (key, coefficient) pairs."""
    total: dict = {}
    for key, c in items:
        total[key] = total[key] + c if key in total else c
    return {key: c for key, c in total.items() if not c.is_zero()}


@st.composite
def cases(draw):
    """(ring, [(monomial, coefficient)] per component for three vectors,
    a scalar); coefficients may be zero, components may be empty."""
    field = draw(st.sampled_from((QQ, prime_field(2), prime_field(3))))
    ring = PolyRing(field, ("X", "Y")[:draw(st.integers(1, 2))])
    rank = draw(st.integers(1, 3))
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * ring.nvars),
                     st.integers(-2, 2).map(field.from_int))
    vectors = [[draw(st.lists(term, max_size=5)) for _ in range(rank)] for _ in range(3)]
    return ring, vectors, field.from_int(draw(st.integers(-3, 3)))


def assert_canonical(element):
    assert all(not c.is_zero() for c in element.terms.values()), element.terms


@SETTINGS
@given(cases())
def test_vector_arithmetic_is_polynomial_arithmetic_per_component(case):
    ring, vectors, scalar = case
    polys = [[oracles.polynomial(ring, items) for items in comps] for comps in vectors]
    u, v, w = (oracles.vector(ring, ps) for ps in polys)
    rank = u.rank
    results = {
        "sum": (u + v, [a + b for a, b in zip(polys[0], polys[1])]),
        "difference": (u - v, [a - b for a, b in zip(polys[0], polys[1])]),
        "negation": (-w, [-a for a in polys[2]]),
        "scale": (u.scale(scalar), [a.scale(scalar) for a in polys[0]]),
    }
    for name, (vector, components) in results.items():
        assert_canonical(vector)
        assert [vector.component(i) for i in range(rank)] == components, name
        for p in components:
            assert_canonical(p)
    assert (u + v).terms == reference(list(u.terms.items()) + list(v.terms.items()))
    assert (u - v).terms == reference(list(u.terms.items())
                                      + [(k, -c) for k, c in v.terms.items()])
    assert (u - u).is_zero() and not (u - u) and (u + (-u)) == ModuleVector(ring, rank, {})
    for factor in polys[2]:
        product = u.poly_mul(factor)
        assert_canonical(product)
        assert [product.component(i) for i in range(rank)] == [a * factor for a in polys[0]]
        for a in polys[0]:
            assert (a * factor).terms == reference(
                (tuple(x + y for x, y in zip(m1, m2)), c1 * c2)
                for m1, c1 in a.terms.items() for m2, c2 in factor.terms.items())


@SETTINGS
@given(cases())
def test_leading_and_sorted_terms(case):
    ring, vectors, _ = case
    polys = [oracles.polynomial(ring, items) for items in vectors[0]]
    vector = oracles.vector(ring, polys)
    for p in polys:
        keys = [ring.monomial_key(m) for m, _ in p.sorted_terms()]
        assert keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys)
        assert dict(p.sorted_terms()) == p.terms
        if p:
            assert p.leading() == p.sorted_terms()[0]
        else:
            with pytest.raises(ValueError):
                p.leading()
    # position over term: earlier components first, each in the ring order
    assert vector.sorted_terms() == [((comp, m), c) for comp, p in enumerate(polys)
                                     for m, c in p.sorted_terms()]
    if vector:
        assert vector.leading() == vector.sorted_terms()[0]
    else:
        with pytest.raises(ValueError):
            vector.leading()


def test_both_classes_refuse_attribute_assignment():
    ring = PolyRing(QQ, ("X",))
    p = ring.variable("X")
    v = oracles.vector(ring, [p])
    for element, names in ((p, ("ring", "terms", "other")),
                           (v, ("ring", "rank", "terms", "other"))):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(element, name, None)
    assert p.terms == {(1,): QQ.one()} and v.rank == 1
