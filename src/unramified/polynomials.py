"""Sparse multivariate polynomials with weighted gradings, and vectors in
finite free modules over the polynomial ring.

Monomials are dense exponent tuples, one non-negative int per ring variable;
`ring.monomial_one`, all zeros, is the monomial 1.  Polynomials map
monomials to nonzero field elements; module vectors map (component, monomial)
pairs to nonzero field elements.  Both are one sparse-term structure: they
share the base `_Terms` and its one zero-dropping sum, `_accumulate`, and
differ only in their term keys and order.  Everything is immutable and
canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from operator import add, le, mul, sub

from .fields import (
    FIELD_VARIABLE,
    RATIONAL_FUNCTIONS,
    FieldDescriptor,
    FieldElement,
    format_scalar,
)

Monomial = tuple


# ---------------------------------------------------------------------------
# Monomial helpers
# ---------------------------------------------------------------------------

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b, or None when b does not divide a."""
    if all(map(le, b, a)):
        return tuple(map(sub, a, b))
    return None


def mono_divides(b: Monomial, a: Monomial) -> bool:
    return all(map(le, b, a))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


# ---------------------------------------------------------------------------
# Rings and the monomial order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyRing:
    """A polynomial ring over an exact field, with one positive weight per
    variable.

    The one monomial order is weighted graded reverse lexicographic, which
    is degree compatible: leading terms respect the grading, so staircase
    counts of graded pieces are exact.  `monomial_one`, the all-zero
    exponent tuple, is derived from the variables and is not a field.
    """

    field: FieldDescriptor
    names: tuple
    weights: tuple = ()

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        weights = tuple(self.weights) if self.weights else tuple(1 for _ in names)
        object.__setattr__(self, "weights", weights)
        if len(weights) != len(names):
            raise ValueError("one weight per variable required")
        if any((not isinstance(w, int)) or w <= 0 for w in weights):
            raise ValueError("weights must be positive integers")
        if self.field.kind == RATIONAL_FUNCTIONS and FIELD_VARIABLE in names:
            raise ValueError(
                f"variable {FIELD_VARIABLE!r} collides with the coefficient field generator")
        object.__setattr__(self, "monomial_one", (0,) * len(names))

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    def weighted_degree(self, m: Monomial) -> int:
        return sum(map(mul, self.weights, m))

    def monomial_key(self, m: Monomial) -> tuple:
        """A flat integer tuple; comparing keys compares monomials."""
        return (sum(map(mul, self.weights, m)),) + tuple(-e for e in reversed(m))

    def module_key(self, comp: int, m: Monomial) -> tuple:
        """Position-over-term: earlier components dominate, then the ring order."""
        return (-comp,) + self.monomial_key(m)

    # -- element builders -----------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.from_int(1)

    def from_scalar(self, c: FieldElement) -> "Polynomial":
        if c.field != self.field:
            raise ValueError("scalar from a different field")
        return Polynomial(self, {} if c.is_zero() else {self.monomial_one: c})

    def from_int(self, n: int) -> "Polynomial":
        return self.from_scalar(self.field.from_int(n))

    def variable(self, name: str) -> "Polynomial":
        return self.monomial({name: 1})

    def monomial(self, exponents: dict, coefficient=None) -> "Polynomial":
        dense = [0] * len(self.names)
        for k, e in exponents.items():
            if e < 0:
                raise ValueError("exponents must be non-negative")
            i = self.index(k) if isinstance(k, str) else k
            if not 0 <= i < len(dense):
                raise ValueError(f"unknown variable index {k!r}")
            dense[i] = e
        m = tuple(dense)
        c = self.field.one() if coefficient is None else coefficient
        if isinstance(c, int):
            c = self.field.from_int(c)
        return Polynomial(self, {m: c} if not c.is_zero() else {})

    def __str__(self):
        vars_ = " ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"{self.field}[{vars_}]"


# ---------------------------------------------------------------------------
# The sparse-term core shared by polynomials and module vectors
# ---------------------------------------------------------------------------

def _accumulate(out: dict, items) -> dict:
    """Add (key, coefficient) pairs into the term dict `out` and return it.
    A key whose coefficient sums to zero is dropped, so a term dict never
    stores a zero coefficient and equal elements have equal dicts."""
    for key, c in items:
        cur = out.get(key)
        if cur is not None:
            c = cur + c
        if c.is_zero():
            out.pop(key, None)
        else:
            out[key] = c
    return out


class _Terms:
    """An immutable dict {key: nonzero coefficient} over a PolyRing, with the
    arithmetic that polynomials and module vectors share.  A subclass
    supplies `_space()`, the arguments its constructor takes before the
    term dict, and `_order()`, the sort key of its term keys."""

    __slots__ = ("ring", "terms")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, terms: dict):
        return type(self)(*self._space(), terms)

    def _coerce(self, other):
        return other if isinstance(other, type(self)) else NotImplemented

    def _check(self, other):
        if self._space() != other._space():
            raise ValueError(f"{type(self).__name__} operands from different spaces")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return self._like(_accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def scale(self, c):
        if isinstance(c, int):
            c = self.ring.field.from_int(c)
        if c.is_zero():
            return self._like({})
        return self._like({k: v * c for k, v in self.terms.items()})

    def leading(self) -> tuple:
        """(key, coefficient) of the largest term in the order."""
        if not self.terms:
            raise ValueError(f"the zero {type(self).__name__} has no leading term")
        k = max(self.terms, key=self._order())
        return k, self.terms[k]

    def sorted_terms(self) -> list:
        key = self._order()
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def __eq__(self, other):
        if isinstance(other, int):  # an int compares as a constant polynomial
            other = self._coerce(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._space() == other._space() and self.terms == other.terms

    def __hash__(self):
        return hash(self._space() + (frozenset(self.terms.items()),))

    def __repr__(self):
        return f"<{self}>"


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class Polynomial(_Terms):
    """Terms are stored as a dict {monomial: nonzero coefficient}, ordered by
    the ring's monomial order."""

    __slots__ = ()

    def __init__(self, ring: PolyRing, terms: dict):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)

    def _space(self) -> tuple:
        return (self.ring,)

    def _order(self):
        return self.ring.monomial_key

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        if isinstance(other, FieldElement):
            return self.ring.from_scalar(other)
        return NotImplemented

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.ring.monomial_one in self.terms)

    def constant_coefficient(self) -> FieldElement:
        return self.terms.get(self.ring.monomial_one, self.ring.field.zero())

    def __iter__(self):
        return iter(self.sorted_terms())

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return Polynomial(self.ring, _accumulate({}, (
            (mono_mul(m1, m2), c1 * c2)
            for m1, c1 in self.terms.items() for m2, c2 in other.terms.items())))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take non-negative integer exponents")
        if exponent == 0:
            return self.ring.one()
        if len(self.terms) == 1:
            ((m, c),) = self.terms.items()
            pm = tuple(e * exponent for e in m)
            return Polynomial(self.ring, {pm: c ** exponent})
        result = self.ring.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __str__(self):
        return format_polynomial(self)


# ---------------------------------------------------------------------------
# Polynomial operations
# ---------------------------------------------------------------------------

def partial_derivative(p: Polynomial, name: str) -> Polynomial:
    """Formal partial derivative with respect to a ring variable."""
    i = p.ring.index(name)
    out = {}
    for m, c in p.terms.items():
        e = m[i]
        if e == 0:
            continue
        nc = c * e
        if nc.is_zero():
            continue
        out[m[:i] + (e - 1,) + m[i + 1:]] = nc
    return Polynomial(p.ring, out)


def weighted_degree(p: Polynomial):
    """The common weighted degree of a homogeneous polynomial, or None when
    the terms have mixed degrees.  The zero polynomial has degree 0."""
    degs = {p.ring.weighted_degree(m) for m in p.terms}
    if not degs:
        return 0
    if len(degs) == 1:
        return degs.pop()
    return None


def is_homogeneous(p: Polynomial) -> bool:
    return weighted_degree(p) is not None


def euler_apply(p: Polynomial) -> Polynomial:
    """The Euler operator: sum over variables of weight(X_i) * X_i * dp/dX_i.

    On a homogeneous input this returns deg(p) * p; in general it returns the
    sum of deg * component over the homogeneous components.
    """
    ring = p.ring
    total = ring.zero()
    for i, name in enumerate(ring.names):
        d = partial_derivative(p, name)
        if d.is_zero():
            continue
        total = total + ring.variable(name).scale(ring.weights[i]) * d
    return total


def cast(p: Polynomial, target: PolyRing, rename: dict | None = None) -> Polynomial:
    """Re-express p in another ring over the same field, matching variables by
    (optionally renamed) name.  Two variables may not land on one."""
    if p.ring.field != target.field:
        raise ValueError("field mismatch")
    rename = rename or {}
    index_map = [target.index(rename.get(n, n)) for n in p.ring.names]
    if len(set(index_map)) != len(index_map):
        raise ValueError("variable renaming collides")
    out = {}
    for m, c in p.terms.items():
        nm = list(target.monomial_one)
        for j, e in zip(index_map, m):
            nm[j] = e
        out[tuple(nm)] = c
    return Polynomial(target, out)


def substitute(p: Polynomial, images: dict, target: PolyRing) -> Polynomial:
    """Evaluate p at X_i = images[name], a polynomial of the target ring.
    Every variable occurring in p must be mapped."""
    if p.ring.field != target.field:
        raise ValueError("field mismatch")
    imgs = {}
    for name, q in images.items():
        i = p.ring.index(name)
        if q.ring != target:
            raise ValueError("image polynomial from the wrong ring")
        imgs[i] = q
    total = target.zero()
    for m, c in p.terms.items():
        term = target.from_scalar(c)
        for i, e in enumerate(m):
            if not e:
                continue
            if i not in imgs:
                raise ValueError(f"no image for variable {p.ring.names[i]!r}")
            term = term * (imgs[i] ** e)
        total = total + term
    return total


def _rising_monomials(weights: tuple, leads):
    """The monomials of weighted degree 0, 1, 2, ... that no monomial of
    `leads` divides, one degree at a time, each in ascending ring order,
    with their origins: (j, k) for a monomial x_j m' where m' is the k-th
    monomial of degree d - w_j, None for the monomial 1.

    A standard monomial of positive degree is x_j m', with j its last
    variable of nonzero exponent and m' standard with no later variable.
    The ring order compares the exponents from the last variable down, so
    degree d lists, for j from last to first, the x_j m' with m' in the
    suffix of degree d - w_j that has no variable past j, in that suffix's
    order; a lead that divides x_j m' but not m' has exponent m'_j + 1 at
    j and none past it.  Only the last max(w_j) degrees are kept."""
    n = len(weights)
    if (0,) * n in leads:
        while True:  # the lead 1 divides every monomial
            yield [], []
    by_last: dict = {}  # (j, exponent at j) -> the exponents before j
    for lm in leads:
        j = max(i for i, e in enumerate(lm) if e)
        by_last.setdefault((j, lm[j]), []).append(lm[:j])
    # each degree keeps its monomials and, per j, where its suffix without
    # a variable past j starts
    one = (0,) * n
    kept = {0: ([one], [0] * n)}
    yield [one], [None]
    width = max(weights, default=1)
    for d in count(1):
        out: list = []
        origins: list = []
        starts = [0] * n
        for j in reversed(range(n)):
            starts[j] = len(out)
            below = kept.get(d - weights[j])
            if below is None:
                continue
            monos, below_starts = below
            for k in range(below_starts[j], len(monos)):
                m = monos[k]
                e = m[j] + 1
                divisors = by_last.get((j, e))
                if divisors and any(all(map(le, lm, m)) for lm in divisors):
                    continue
                out.append(m[:j] + (e,) + m[j + 1:])
                origins.append((j, k))
        kept[d] = (out, starts)
        kept.pop(d - width, None)
        yield out, origins


def monomials_of_weighted_degree(ring: PolyRing, degree: int) -> list:
    """All monomials of exact weighted degree, ascending in the ring order:
    slice `degree` of the lead-free walk."""
    if degree < 0:
        return []
    return next(islice(_rising_monomials(ring.weights, ()), degree, None))[0]


# ---------------------------------------------------------------------------
# Module vectors
# ---------------------------------------------------------------------------

class ModuleVector(_Terms):
    """An element of a free module R^rank over the polynomial ring; terms map
    (component, monomial) to nonzero coefficients, ordered position over
    term by the ring's `module_key`."""

    __slots__ = ("rank",)

    def __init__(self, ring: PolyRing, rank: int, terms: dict):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", terms)

    def _space(self) -> tuple:
        return (self.ring, self.rank)

    def _order(self):
        key = self.ring.module_key
        return lambda t: key(*t)

    @staticmethod
    def unit(ring: PolyRing, rank: int, comp: int) -> "ModuleVector":
        if not 0 <= comp < rank:
            raise ValueError(f"component {comp} out of range for rank {rank}")
        return ModuleVector(ring, rank, {(comp, ring.monomial_one): ring.field.one()})

    def component(self, comp: int) -> Polynomial:
        return Polynomial(
            self.ring, {m: c for (cm, m), c in self.terms.items() if cm == comp})

    def poly_mul(self, p: Polynomial) -> "ModuleVector":
        if p.ring != self.ring:
            raise ValueError("polynomial ring mismatch")
        return ModuleVector(self.ring, self.rank, _accumulate({}, (
            ((comp, mono_mul(m1, m2)), c1 * c2)
            for (comp, m1), c1 in self.terms.items() for m2, c2 in p.terms.items())))

    def __str__(self):
        return format_vector(self)


# ---------------------------------------------------------------------------
# Formatting (parse_polynomial round-trips these forms)
# ---------------------------------------------------------------------------

def format_monomial(ring: PolyRing, m: Monomial) -> str:
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(ring.names, m) if e]
    return "*".join(parts) or "1"


def _coefficient_text(c: FieldElement) -> tuple:
    """(sign, magnitude text, needs_parens) for use inside a term."""
    text = format_scalar(c)
    if c.field.kind == RATIONAL_FUNCTIONS:
        num, den = c.payload
        simple = den == (1,) and sum(1 for x in num if x) == 1
        return "+", text, not simple
    if text.startswith("-"):
        return "-", text[1:], False
    return "+", text, False


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for m, c in p.sorted_terms():
        sign, text, parens = _coefficient_text(c)
        mono = format_monomial(p.ring, m)
        if not any(m):
            body = text
        elif text == "1":
            body = mono
        else:
            body = f"({text})*{mono}" if parens else f"{text}*{mono}"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def format_vector(v: ModuleVector) -> str:
    comps = [format_polynomial(v.component(i)) for i in range(v.rank)]
    return "(" + ", ".join(comps) + ")"
