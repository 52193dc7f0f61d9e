"""Exact scalar arithmetic for the three coefficient fields: the rationals,
prime fields F_p, and rational function fields F_p(x).

Every element is immutable and kept in a unique canonical form (reduced
fraction with positive denominator, residue in [0, p), or a GCD-reduced
ratio of univariate polynomials with monic denominator), so equality is
plain payload comparison.  All integer arithmetic is arbitrary precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

RATIONALS = "QQ"
PRIME_FIELD = "Fp"
RATIONAL_FUNCTIONS = "FpX"

# the name of the generator x of every rational function field F_p(x)
FIELD_VARIABLE = "x"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# Univariate polynomials over F_p, used as payload halves of F_p(x) elements.
# A polynomial is a tuple of coefficients in [0, p), lowest degree first,
# with no trailing zeros; () is the zero polynomial.
# ---------------------------------------------------------------------------

def _utrim(coeffs: list) -> tuple:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _uadd(a: tuple, b: tuple, p: int) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _utrim(out)


def _uneg(a: tuple, p: int) -> tuple:
    return tuple((p - c) % p for c in a)


def _usub(a: tuple, b: tuple, p: int) -> tuple:
    return _uadd(a, _uneg(b, p), p)


def _umul(a: tuple, b: tuple, p: int) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _utrim(out)


def _udivmod(a: tuple, b: tuple, p: int) -> tuple:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - len(b)
        factor = rem[-1] * inv_lead % p
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
        rem.pop()
    return _utrim(quo), _utrim(rem)


def _umonic(a: tuple, p: int) -> tuple:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], p - 2, p)
    return tuple(c * inv % p for c in a)


def _ugcd(a: tuple, b: tuple, p: int) -> tuple:
    while b:
        a, b = b, _udivmod(a, b, p)[1]
    return _umonic(a, p)


def _uderiv(a: tuple, p: int) -> tuple:
    return _utrim([(i * c) % p for i, c in enumerate(a)][1:])


def _ufmt(a: tuple, var: str) -> str:
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            power = var if i == 1 else f"{var}^{i}"
            parts.append(power if c == 1 else f"{c}*{power}")
    return " + ".join(parts)


def _fpx_canonical(num: tuple, den: tuple, p: int) -> tuple:
    if not den:
        raise ZeroDivisionError("zero denominator in rational function")
    if not num:
        return ((), (1,))
    g = _ugcd(num, den, p)
    if len(g) > 1 or g[0] != 1:
        num = _udivmod(num, g, p)[0]
        den = _udivmod(den, g, p)[0]
    if den[-1] != 1:
        inv = pow(den[-1], p - 2, p)
        num = tuple(c * inv % p for c in num)
        den = tuple(c * inv % p for c in den)
    return (num, den)


# ---------------------------------------------------------------------------
# Field descriptors and elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldDescriptor:
    """Identifies one of the supported coefficient fields.

    `kind` is one of RATIONALS, PRIME_FIELD, RATIONAL_FUNCTIONS; `p` is the
    characteristic (0 for the rationals).  The generator of a rational
    function field is always named FIELD_VARIABLE.
    """

    kind: str
    p: int = 0

    def __post_init__(self):
        if self.kind == RATIONALS:
            if self.p != 0:
                raise ValueError("the rationals have characteristic zero")
        elif self.kind in (PRIME_FIELD, RATIONAL_FUNCTIONS):
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @property
    def characteristic(self) -> int:
        return self.p

    def zero(self) -> "FieldElement":
        return self.from_int(0)

    def one(self) -> "FieldElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "FieldElement":
        if self.kind == RATIONALS:
            return FieldElement(self, Fraction(n))
        if self.kind == PRIME_FIELD:
            return FieldElement(self, n % self.p)
        r = n % self.p
        return FieldElement(self, ((r,) if r else (), (1,)))

    def raw(self, a: "FieldElement"):
        """The raw form of an element, on which exact loops compute: the
        payload over QQ and F_p, and the element itself over F_p(x), whose
        payload has no arithmetic of its own.

        Raw values of one field are combined with +, - and *, each result
        taken `% modulus` when the modulus is nonzero, and inverted by
        `raw_inverse`; a raw value is zero exactly when it is falsy."""
        return a if self.kind == RATIONAL_FUNCTIONS else a.payload

    def from_raw(self, value) -> "FieldElement":
        """The element of a raw form (see `raw`)."""
        return value if self.kind == RATIONAL_FUNCTIONS else FieldElement(self, value)

    @property
    def modulus(self) -> int:
        """p over F_p, whose raw values are int residues, and 0 otherwise
        (see `raw`)."""
        return self.p if self.kind == PRIME_FIELD else 0

    def raw_inverse(self, value):
        """The inverse of a nonzero raw value, as a raw value."""
        return pow(value, -1, self.p) if self.kind == PRIME_FIELD else 1 / value

    def generator(self) -> "FieldElement":
        """The element x of a rational function field."""
        if self.kind != RATIONAL_FUNCTIONS:
            raise ValueError("only rational function fields have a generator")
        return FieldElement(self, ((0, 1), (1,)))

    def from_ratio(self, num: tuple, den: tuple = (1,)) -> "FieldElement":
        """Build an F_p(x) element from coefficient tuples (lowest degree first)."""
        if self.kind != RATIONAL_FUNCTIONS:
            raise ValueError("coefficient tuples only make sense over F_p(x)")
        num = _utrim([c % self.p for c in num])
        den = _utrim([c % self.p for c in den])
        return FieldElement(self, _fpx_canonical(num, den, self.p))

    def __str__(self) -> str:
        """The kind, then the prime after a colon, as `parse_field_spec`
        reads it."""
        return f"{self.kind}:{self.p}" if self.p else self.kind


def rationals() -> FieldDescriptor:
    return FieldDescriptor(RATIONALS)


def prime_field(p: int) -> FieldDescriptor:
    return FieldDescriptor(PRIME_FIELD, p)


def rational_functions(p: int) -> FieldDescriptor:
    return FieldDescriptor(RATIONAL_FUNCTIONS, p)


QQ = rationals()


def add_multiple(target: dict, c, source: dict, p: int) -> dict:
    """target += c * source on sparse dicts of raw coefficients, mod p when p
    is nonzero, dropping every entry that becomes zero; returns target."""
    for k, v in source.items():
        v = c * v
        cur = target.get(k)
        if cur is not None:
            v += cur
        if p:
            v %= p
        if v:
            target[k] = v
        else:
            del target[k]
    return target


class FieldElement:
    """An immutable scalar in one of the three field kinds.

    The payload is a `Fraction` (rationals), an int in [0, p) (prime field)
    or a canonical pair of coefficient tuples (rational functions).
    """

    __slots__ = ("field", "payload")

    def __init__(self, field: FieldDescriptor, payload):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    # -- coercion helpers ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError(
                    f"field mismatch: {self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        if self.field.kind == RATIONAL_FUNCTIONS:
            return not self.payload[0]
        return self.payload == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        kind = self.field.kind
        if kind == RATIONALS:
            return FieldElement(self.field, self.payload + o.payload)
        if kind == PRIME_FIELD:
            return FieldElement(self.field, (self.payload + o.payload) % self.field.p)
        p = self.field.p
        n1, d1 = self.payload
        n2, d2 = o.payload
        num = _uadd(_umul(n1, d2, p), _umul(n2, d1, p), p)
        return FieldElement(self.field, _fpx_canonical(num, _umul(d1, d2, p), p))

    __radd__ = __add__

    def __neg__(self):
        kind = self.field.kind
        if kind == RATIONALS:
            return FieldElement(self.field, -self.payload)
        if kind == PRIME_FIELD:
            return FieldElement(self.field, (-self.payload) % self.field.p)
        num, den = self.payload
        return FieldElement(self.field, (_uneg(num, self.field.p), den))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        kind = self.field.kind
        if kind == RATIONALS:
            return FieldElement(self.field, self.payload * o.payload)
        if kind == PRIME_FIELD:
            return FieldElement(self.field, self.payload * o.payload % self.field.p)
        p = self.field.p
        n1, d1 = self.payload
        n2, d2 = o.payload
        return FieldElement(
            self.field, _fpx_canonical(_umul(n1, n2, p), _umul(d1, d2, p), p))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        kind = self.field.kind
        if kind == RATIONALS:
            return FieldElement(self.field, 1 / self.payload)
        if kind == PRIME_FIELD:
            return FieldElement(self.field, pow(self.payload, self.field.p - 2, self.field.p))
        num, den = self.payload
        return FieldElement(self.field, _fpx_canonical(den, num, self.field.p))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.payload == other.payload

    def __hash__(self):
        return hash((self.field, self.payload))

    def __repr__(self):
        return f"<{format_scalar(self)} in {self.field}>"

    def __str__(self):
        return format_scalar(self)


def formal_derivative(a: FieldElement) -> FieldElement:
    """d/dx on F_p(x), by the quotient rule.  Exact in all characteristics."""
    if a.field.kind != RATIONAL_FUNCTIONS:
        raise ValueError("formal_derivative is only defined on rational function fields")
    p = a.field.p
    num, den = a.payload
    dnum = _uderiv(num, p)
    dden = _uderiv(den, p)
    top = _usub(_umul(dnum, den, p), _umul(num, dden, p), p)
    return FieldElement(a.field, _fpx_canonical(top, _umul(den, den, p), p))


def format_scalar(a: FieldElement) -> str:
    """Canonical text form; `parse_scalar` round-trips it."""
    kind = a.field.kind
    if kind == RATIONALS:
        f = a.payload
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if kind == PRIME_FIELD:
        return str(a.payload)
    num, den = a.payload
    num_str = _ufmt(num, FIELD_VARIABLE)
    if den == (1,):
        return num_str
    if _ucount_terms(num) > 1:
        num_str = f"({num_str})"
    den_str = _ufmt(den, FIELD_VARIABLE)
    if not _uis_atomic(den):
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"


def _ucount_terms(a: tuple) -> int:
    return sum(1 for c in a if c)


def _uis_atomic(a: tuple) -> bool:
    # a bare integer, or x^k with coefficient 1
    if _ucount_terms(a) != 1:
        return a == ()
    if len(a) == 1:
        return True
    return a[-1] == 1
