"""Independent brute-force oracles used by the tests, and the builders of
test input.

The oracles are deliberately self-contained: dense monomial tuples,
Fraction coefficients, and a local Gaussian elimination.  They use nothing
of the package under test, so an agreement between engine and oracle is a
real cross-check and not a tautology; `linear_matrix`, `matmul`,
`reference_normal_form`, `satisfies_buchberger_criterion` and
`reference_slice` take the package's maps, field elements and Groebner
bases and use only their public methods, and `ascending_local_model` is
the explicit local-model search on the package's Buchberger runs.
`reference_parse_polynomial` is the expression grammar evaluated factor
by factor with the package's public polynomial arithmetic.  The builders
at the end (`scalar`, `polynomial`, `vector`, `identity_map`) make package
elements from plain data through its public constructors.
"""

import re
from fractions import Fraction
from itertools import product

from unramified.algebras import make_map
from unramified.errors import ParseError
from unramified.fields import FIELD_VARIABLE, RATIONAL_FUNCTIONS
from unramified.groebner import buchberger, dimension
from unramified.polynomials import ModuleVector, Polynomial


def monomials_up_to(nvars: int, max_degree: int) -> list:
    """Dense exponent tuples with total degree <= max_degree."""
    out = []
    for exps in product(range(max_degree + 1), repeat=nvars):
        if sum(exps) <= max_degree:
            out.append(exps)
    out.sort()
    return out


def poly_mul_mono(poly: dict, mono: tuple) -> dict:
    return {tuple(e + m for e, m in zip(exps, mono)): c for exps, c in poly.items()}


def fraction_rank(rows: list, p: int = 0) -> int:
    """Rank by plain Gaussian elimination over Fraction, or over F_p on
    integer entries when p is a prime."""
    work = [[int(v) % p for v in r] if p else list(r) for r in rows if any(r)]
    ncols = len(work[0]) if work else 0
    rank = 0
    col = 0
    while col < ncols and rank < len(work):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], p - 2, p) if p else Fraction(1, 1) / work[rank][col]
        work[rank] = [v * inv % p if p else v * inv for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [(a - factor * b) % p if p else a - factor * b
                           for a, b in zip(work[i], work[rank])]
        rank += 1
        col += 1
    return rank


def truncated_quotient_dimension(generators: list, nvars: int, truncation: int,
                                 p: int = 0) -> int:
    """dim of k[X_1..X_n]/(I + m^truncation) by linear algebra, with k = QQ,
    or F_p on integer coefficients when p is a prime: count the monomials
    of degree < truncation and subtract the rank of the truncated multiples
    of the generators."""
    monos = [m for m in monomials_up_to(nvars, truncation - 1)]
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in generators:
        for mu in monos:
            shifted = poly_mul_mono(g, mu)
            row = [Fraction(0)] * len(monos)
            nonzero = False
            for exps, c in shifted.items():
                if sum(exps) < truncation:
                    row[index[exps]] = c
                    nonzero = True
            if nonzero:
                rows.append(row)
    return len(monos) - fraction_rank(rows, p)


def stabilized_local_dimension(generators: list, nvars: int, cap: int = 40,
                               p: int = 0) -> tuple:
    """Dimension of the power-series quotient via truncation: increase the
    truncation exponent until the dimension repeats; returns (dim, exponent).
    The field is QQ, or F_p when p is a prime."""
    previous = None
    for n in range(1, cap + 1):
        dim = truncated_quotient_dimension(generators, nvars, n, p)
        if previous is not None and dim == previous:
            return dim, n - 1
        previous = dim
    raise AssertionError("no stabilization below the cap; not an m-primary input")


def maximal_ideal_power(ring, n: int) -> list:
    """The monomials of unweighted total degree n, which span m^n."""
    return [ring.monomial(dict(enumerate(m)))
            for m in monomials_up_to(ring.nvars, n) if sum(m) == n]


def ascending_local_model(ring, generators, cap: int = 64):
    """(dim, N) of the power-series quotient k[[X]]/I by the explicit
    ascending search: the reduced basis of I + m^N is built from scratch for
    N = 1, 2, ..., and N is the first one whose quotient has the dimension
    of the next (Nakayama's lemma); None when none does by m^cap."""
    previous = None
    for n in range(1, cap + 2):
        dim = dimension(buchberger(list(generators) + maximal_ideal_power(ring, n)))
        if previous == dim:
            return dim, n - 1
        previous = dim
    return None


def membership_oracle(f: dict, generators: list, nvars: int, bound: int) -> bool:
    """Degree-bounded membership: is there a representation
    f = sum h_i g_i with every h_i of total degree <= bound?  Decided by
    exact solvability of the corresponding linear system."""
    hmonos = monomials_up_to(nvars, bound)
    max_deg = max((sum(e) for g in generators for e in g), default=0)
    eq_monos = monomials_up_to(nvars, bound + max_deg)
    eq_index = {m: i for i, m in enumerate(eq_monos)}
    columns = []
    for g in generators:
        for mu in hmonos:
            shifted = poly_mul_mono(g, mu)
            col = [Fraction(0)] * len(eq_monos)
            for exps, c in shifted.items():
                col[eq_index[exps]] = c
            columns.append(col)
    rhs = [Fraction(0)] * len(eq_monos)
    for exps, c in f.items():
        if exps not in eq_index:
            return False  # f has degree beyond anything representable
        rhs[eq_index[exps]] = c
    rows = [[columns[j][i] for j in range(len(columns))] for i in range(len(eq_monos))]
    rank_a = fraction_rank(rows)
    rank_ab = fraction_rank([row + [rhs[i]] for i, row in enumerate(rows)])
    return rank_a == rank_ab


def matmul(a: list, b: list, zero) -> list:
    """Plain matrix product of lists of rows of field elements; `zero` is
    the zero of their field."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("inner dimensions disagree")
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [zero] * ncols
        for k, v in enumerate(row):
            if not v:
                continue
            acc = [x + v * y for x, y in zip(acc, b[k])]
        out.append(acc)
    return out


def linear_matrix(phi) -> list:
    """Matrix of an algebra map in the staircase bases, rows indexed by the
    target basis and columns by the source basis: the dense reference for
    `is_injective`.  Both sides must be finite."""
    source_basis = phi.source.basis_monomials()
    target_index = {m: i for i, m in enumerate(phi.target.basis_monomials())}
    zero = phi.source.field.zero()
    rows = [[zero] * len(source_basis) for _ in target_index]
    for j, m in enumerate(source_basis):
        image = phi.apply(phi.source.ring.monomial(dict(enumerate(m))))
        for tm, c in image.terms.items():
            rows[target_index[tm]][j] = c
    return rows


def _term_dict(obj) -> dict:
    """The terms of a polynomial as a module vector of rank 1, or of a
    module vector as they are: {(component, monomial): coefficient}."""
    if isinstance(obj, Polynomial):
        return {(0, m): c for m, c in obj.terms.items()}
    return dict(obj.terms)


def reference_normal_form(f, gb) -> tuple:
    """(normal form, reduction steps) of f modulo a Groebner basis, by the
    plain division loop on field elements: the largest remaining term in
    the ring's module order is cancelled with the first basis element, in
    basis order, of its component whose lead divides it, or else moved to
    the remainder.  Reads only `gb.generators` and public element methods."""
    ring = gb.ring
    order = lambda t: ring.module_key(*t)
    reducers: dict = {}
    for g in gb.generators:
        terms = _term_dict(g)
        comp, lead = max(terms, key=order)
        reducers.setdefault(comp, []).append((lead, terms[(comp, lead)], terms))
    work = _term_dict(f)
    out: dict = {}
    steps = 0
    while work:
        comp, mono = max(work, key=order)
        coeff = work.pop((comp, mono))
        for lead, lead_coeff, terms in reducers.get(comp, ()):
            if all(a <= b for a, b in zip(lead, mono)):
                break
        else:
            out[(comp, mono)] = coeff
            continue
        steps += 1
        shift = tuple(b - a for a, b in zip(lead, mono))
        factor = coeff / lead_coeff
        for (tc, tm), tv in terms.items():
            key = (tc, tuple(a + b for a, b in zip(tm, shift)))
            if key == (comp, mono):
                continue
            value = work.pop(key, ring.field.zero()) - factor * tv
            if not value.is_zero():
                work[key] = value
    if isinstance(f, Polynomial):
        return Polynomial(ring, {m: c for (_, m), c in out.items()}), steps
    return ModuleVector(ring, f.rank, out), steps


def satisfies_buchberger_criterion(gb) -> bool:
    """Buchberger's criterion, checked directly: the S-vector of every two
    basis elements whose leads lie in one component reduces to zero by
    `reference_normal_form`.  Reads only `gb.generators`."""
    ring = gb.ring
    zero = ring.field.zero()
    rows = []
    for g in gb.generators:
        terms = _term_dict(g)
        lead = max(terms, key=lambda t: ring.module_key(*t))
        rows.append((lead, terms))
    for i, ((comp, lead_a), a) in enumerate(rows):
        for (other, lead_b), b in rows[i + 1:]:
            if other != comp:
                continue
            lcm = tuple(map(max, lead_a, lead_b))
            s: dict = {}
            for lead, terms, sign in ((lead_a, a, 1), (lead_b, b, -1)):
                shift = tuple(x - y for x, y in zip(lcm, lead))
                factor = ring.field.from_int(sign) / terms[(comp, lead)]
                for (tc, tm), tv in terms.items():
                    key = (tc, tuple(x + y for x, y in zip(tm, shift)))
                    value = s.pop(key, zero) + factor * tv
                    if not value.is_zero():
                        s[key] = value
            spair = (Polynomial(ring, {m: c for (_, m), c in s.items()})
                     if gb.rank is None else ModuleVector(ring, gb.rank, s))
            if not reference_normal_form(spair, gb)[0].is_zero():
                return False
    return True


def reference_slice(gb, degree: int) -> list:
    """Staircase entries of exact weighted degree by listing every monomial
    of the degree and keeping those that no lead monomial of their
    component divides, in ascending module order; plain monomials for an
    ideal, (component, monomial) pairs for a module, whose component adds
    the weight of the variable of the same index."""
    ring = gb.ring
    weights = ring.weights
    leads: dict = {}
    for g in gb.generators:
        comp, lead = max(_term_dict(g), key=lambda t: ring.module_key(*t))
        leads.setdefault(comp, []).append(lead)
    out = []
    for comp in range(1 if gb.rank is None else gb.rank):
        d = degree - (0 if gb.rank is None else weights[comp])
        if d < 0:
            continue
        for m in product(*(range(d // w + 1) for w in weights)):
            if (sum(w * e for w, e in zip(weights, m)) == d
                    and not any(all(a <= b for a, b in zip(lm, m))
                                for lm in leads.get(comp, ()))):
                out.append((comp, m))
    out.sort(key=lambda t: ring.module_key(*t))
    return [m for _, m in out] if gb.rank is None else out


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_#]*)|(?P<op>[-+*/^()]))")


def _reference_tokens(text: str) -> list:
    """(kind, text, column) of each token of one line, then ("end", "", column)."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            break
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind) + 1))
        pos = match.end()
    rest = text[pos:]
    if rest.strip():
        offset = len(rest) - len(rest.lstrip())
        raise ParseError(f"unexpected character {rest.lstrip()[0]!r}", 1, pos + offset + 1)
    tokens.append(("end", "", len(text) + 1))
    return tokens


def reference_parse_polynomial(text: str, ring) -> Polynomial:
    """The expression grammar of `parse_polynomial` by recursive descent,
    with every number, name and parenthesis made a Polynomial and combined
    by the package's public `+`, `-`, `*`, `**` and `scale`: the same value,
    the same term order and the same errors, at line 1."""
    tokens = _reference_tokens(text)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def is_op(tok, ops: str) -> bool:
        return tok[0] == "op" and tok[1] in ops

    def expression():
        value = term()
        while is_op(peek(), "+-"):
            sign = advance()[1]
            rhs = term()
            value = value + rhs if sign == "+" else value - rhs
        return value

    def term():
        value = factor()
        while is_op(peek(), "*/"):
            op = advance()
            rhs = factor()
            if op[1] == "*":
                value = value * rhs
                continue
            if not rhs.is_constant():
                raise ParseError("can only divide by scalars", 1, op[2])
            c = rhs.constant_coefficient()
            if c.is_zero():
                raise ParseError("division by zero", 1, op[2])
            value = value.scale(c.inverse())
        return value

    def factor():
        if is_op(peek(), "+-"):
            sign = advance()[1]
            return -factor() if sign == "-" else factor()
        value = atom()
        if is_op(peek(), "^"):
            advance()
            exp = advance()
            if exp[0] != "num":
                raise ParseError("exponent must be a non-negative integer", 1, exp[2])
            value = value ** int(exp[1])
        return value

    def atom():
        kind, word, column = advance()
        if kind == "num":
            return ring.from_int(int(word))
        if kind == "name":
            if word in ring.names:
                return ring.variable(word)
            if ring.field.kind == RATIONAL_FUNCTIONS and word == FIELD_VARIABLE:
                return ring.from_scalar(ring.field.generator())
            raise ParseError(f"unknown variable {word!r}", 1, column)
        if kind == "op" and word == "(":
            value = expression()
            tok = advance()
            if not is_op(tok, ")"):
                raise ParseError("expected ')'", 1, tok[2])
            return value
        raise ParseError(f"unexpected {word or 'end of input'!r}", 1, column)

    value = expression()
    kind, word, column = peek()
    if kind != "end":
        raise ParseError(f"unexpected {word!r}", 1, column)
    return value


def scalar(field, numerator: int, denominator: int = 1):
    """numerator / denominator as an element of `field`."""
    return field.from_int(numerator) / field.from_int(denominator)


def polynomial(ring, items) -> Polynomial:
    """The sum of (exponent tuple, coefficient) pairs, in canonical form:
    coefficients of a repeated monomial are added, and zeros dropped."""
    terms: dict = {}
    for m, c in items:
        terms[m] = terms[m] + c if m in terms else c
    return Polynomial(ring, {m: c for m, c in terms.items() if not c.is_zero()})


def vector(ring, polys: list) -> ModuleVector:
    """The module vector whose i-th component is polys[i]."""
    return ModuleVector(ring, len(polys), {(i, m): c for i, p in enumerate(polys)
                                           for m, c in p.terms.items()})


def identity_map(algebra):
    """The identity of an algebra, verified by `make_map` like any map."""
    return make_map(algebra, algebra, {n: algebra.ring.variable(n)
                                       for n in algebra.ring.names})
