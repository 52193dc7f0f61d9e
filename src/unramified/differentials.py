"""Kahler differentials of a presented algebra R = P/I via the Jacobian
(conormal) presentation: the free module on dX_1..dX_s over P, modulo the
rows (dG/dX_1, ..., dG/dX_s) for each relation G together with G e_i for
every relation and component.

A vector is zero in the differential module exactly when it lies in that
relation submodule, so every zero test is a module membership test against
one Groebner basis.  The universal derivation sends a representative F to
sum_i (dF/dX_i) dX_i.

A membership that is known in advance needs no basis: a `DZeroCertificate`
writes dF as an explicit combination of relation vectors, and
`certifies_d_zero` checks that identity by polynomial arithmetic alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add

from . import groebner, linalg
from .algebras import MODE_GRADED, AlgebraMap, QuotientAlgebra
from .errors import ComputationError
from .fields import add_multiple
from .groebner import buchberger, normal_form, raw_normal_form, staircase_of_degree
from .polynomials import (
    ModuleVector,
    Polynomial,
    PolyRing,
    cast,
    partial_derivative,
)


def raw_differential(f: Polynomial) -> ModuleVector:
    """sum_i (df/dX_i) dX_i in the free module on the dX_i of f's ring, not
    reduced."""
    ring = f.ring
    terms = {}
    for i, name in enumerate(ring.names):
        for m, c in partial_derivative(f, name).terms.items():
            terms[(i, m)] = c
    return ModuleVector(ring, ring.nvars, terms)


def _along(g: Polynomial, i: int) -> ModuleVector:
    """g dX_i in the free module on the dX_i of g's ring."""
    return ModuleVector(g.ring, g.ring.nvars, {(i, m): c for m, c in g.terms.items()})


class KaehlerModule:
    """Presentation of the differential module of an algebra relative to the
    coefficient field.

    Ring weights are strictly positive, so the degree-zero subring of a
    graded algebra is the coefficient field itself and this one module also
    serves graded computations.
    """

    def __init__(self, algebra: QuotientAlgebra):
        self.algebra = algebra
        ring = algebra.ring
        self.rank = ring.nvars
        relations = algebra.presentation.relations
        vectors = [v for v in map(raw_differential, relations) if v]
        for g in relations:
            if not g.is_zero():
                vectors.extend(_along(g, i) for i in range(self.rank))
        self.relation_vectors = tuple(vectors)
        self.groebner = buchberger(vectors or [ModuleVector(ring, self.rank, {})])

    def reduce(self, v: ModuleVector) -> ModuleVector:
        """Canonical representative of a vector's class in the module."""
        return normal_form(v, self.groebner)

    def d_image(self, f: Polynomial) -> ModuleVector:
        """The universal derivation applied to (the class of) f, reduced.
        Well defined: representatives differing by a relation give vectors
        in the same class.  An f from another ring is refused by the
        normal form."""
        return self.reduce(raw_differential(f))

    def is_d_zero(self, f: Polynomial) -> bool:
        return self.d_image(f).is_zero()

    def is_zero(self) -> bool:
        """Whether the whole differential module vanishes: every generator
        dX_i must lie in the relation submodule."""
        ring = self.algebra.ring
        return all(self.reduce(ModuleVector.unit(ring, self.rank, i)).is_zero()
                   for i in range(self.rank))

    def dimension(self):
        """Vector-space dimension of the module over the coefficient field,
        None when infinite."""
        return groebner.dimension(self.groebner)

    def __repr__(self):
        return f"<differential module on {self.rank} generators>"


@lru_cache(maxsize=None)
def kaehler(algebra: QuotientAlgebra) -> KaehlerModule:
    """The differential module of an algebra (cached per algebra)."""
    return KaehlerModule(algebra)


@dataclass(frozen=True)
class DZeroCertificate:
    """A witness that d(element) = 0: the terms (c, G, name) write the raw
    differential of the element as sum c * v, where v is the raw
    differential dG when name is None and G dX_name otherwise, with each G
    a presentation relation.  Every such v lies in the relation submodule,
    so the identity proves the membership without a Groebner basis."""

    element: Polynomial
    terms: tuple

    def renamed(self, ring: PolyRing, rename: dict) -> DZeroCertificate:
        """The same identity in a ring that the variables are renamed into;
        `rename` maps old names to new ones, as for `cast`."""
        return DZeroCertificate(
            cast(self.element, ring, rename),
            tuple((cast(c, ring, rename), cast(g, ring, rename),
                   None if name is None else rename.get(name, name))
                  for c, g, name in self.terms))


def certifies_d_zero(algebra: QuotientAlgebra, certificate: DZeroCertificate,
                     f: Polynomial) -> bool:
    """Whether the certificate proves that the class of f has zero
    differential in the algebra: the certified element is f or reduces to
    the class of f, every G is one of the algebra's presentation relations,
    and the terms sum exactly to the raw differential of the element.  d is
    well defined on classes, so the element may be any representative; only
    an element that differs from f as a polynomial is reduced."""
    ring = algebra.ring
    if certificate.element.ring != ring:
        return False
    if certificate.element != f and algebra.reduce(certificate.element) != algebra.reduce(f):
        return False
    relations = set(algebra.presentation.relations)
    total = ModuleVector(ring, ring.nvars, {})
    for c, g, name in certificate.terms:
        if g not in relations or c.ring != ring:
            return False
        v = raw_differential(g) if name is None else _along(g, ring.index(name))
        total = total + v.poly_mul(c)
    return total == raw_differential(certificate.element)


def _derivations(algebra: QuotientAlgebra) -> list:
    """A basis of the functionals lambda on k^s that kill the linear part,
    the coefficients of X_1, ..., X_s, of every presentation relation, or
    none when some relation has a constant term.  Each nonzero lambda gives
    a nonzero derivation R -> k, D(f) = lambda(linear part of f): with no
    constant terms, evaluation at the origin makes k an R-module, the
    linear part of a*b is a(0) lin(b) + b(0) lin(a), and
    D(a*G) = a(0) lambda(lin G) = 0.  Since Der_k(R, k) = Hom_R(Omega_R, k)
    (Matsumura, Commutative Ring Theory, Section 25), D(f) != 0 proves
    df != 0, and any lambda proves Omega != 0.  Each lambda is a dict
    {variable index: nonzero element}, the `sparse_kernel` of the columns
    of the linear parts, one column per variable."""
    relations = algebra.presentation.relations
    if any(not g.constant_coefficient().is_zero() for g in relations):
        return []
    ring = algebra.ring
    raw = ring.field.raw
    columns = [{} for _ in range(ring.nvars)]
    for i, g in enumerate(relations):
        for m, c in g.terms.items():
            if sum(m) == 1:
                columns[m.index(1)][i] = raw(c)
    return linalg.sparse_kernel(columns, ring.field)


def _outside_m_squared(algebra: QuotientAlgebra, r: Polynomial) -> bool:
    """Whether some derivation R -> k of `_derivations` is nonzero on r,
    which proves dr != 0 without a Groebner basis.  For r in the maximal
    ideal of a local algebra with residue field the coefficient field, this
    holds exactly when r lies outside m^2."""
    lin = [(m.index(1), c) for m, c in r.terms.items() if sum(m) == 1]
    zero = algebra.field.zero()
    return any(not sum((lam[i] * c for i, c in lin if i in lam), zero).is_zero()
               for lam in _derivations(algebra))


def is_omega_zero(algebra: QuotientAlgebra) -> bool:
    """Whether the algebra is formally unramified over the coefficient field:
    its module of differentials is zero.  A derivation R -> k
    (`_derivations`) answers False without the module; otherwise, with a
    constant term, linear parts of full rank or no variables, the
    differential module decides, so True always comes from the module."""
    if _derivations(algebra):
        return False
    return kaehler(algebra).is_zero()


def is_zero_induced_map(phi: AlgebraMap, certificates: dict | None = None) -> bool:
    """Whether the induced map on differential modules is zero.  The source
    module is generated by the dX_i, so it suffices that every d(phi(X_i))
    vanishes in the target.

    `certificates` maps source variable names to DZeroCertificates in the
    target.  A generator whose certificate proves d(phi(X_i)) = 0 there
    needs no Groebner basis of the differential module, and none of the
    target either when the certified element is phi(X_i) as a polynomial;
    every other generator is tested in the target's module.  d is well
    defined on classes, so the images are not reduced."""
    certificates = certificates or {}
    target = phi.target
    for name in phi.source.ring.names:
        image = phi.images[name]
        certificate = certificates.get(name)
        if certificate is not None and certifies_d_zero(target, certificate, image):
            continue
        if not kaehler(target).is_d_zero(image):
            return False
    return True


def _reduced_image(module: KaehlerModule, mono: tuple, degree: int, images: dict,
                   standard: dict) -> dict:
    """d(mono) reduced, as a dict of raw coefficients (see
    `groebner.raw_normal_form`), for a standard monomial of the given
    degree.  Let x_j be mono's last variable with a nonzero exponent and
    m' = mono / x_j.  When `images` records the degree of m',
    d(x_j m') = x_j dm' + m' dX_j and the relation submodule is a submodule
    over P, so the image is NF(x_j NF(dm') + m' dX_j); a divisor of a
    standard monomial is standard, so NF(dm') is recorded.  Otherwise
    d(mono) is reduced from scratch.  Either way the normal form is told
    the module's `standard` entries of the degree, so the terms already
    standard, most of x_j NF(dm'), skip its reduction loop."""
    ring = module.algebra.ring
    field = ring.field
    j = max(i for i, e in enumerate(mono) if e)
    below = images.get(degree - ring.weights[j])
    if below is None:
        d = raw_differential(Polynomial(ring, {mono: field.one()}))
        return raw_normal_form({key: field.raw(c) for key, c in d.terms.items()},
                               module.groebner, standard=standard)
    shift = tuple(int(i == j) for i in range(ring.nvars))
    prev = mono[:j] + (mono[j] - 1,) + mono[j + 1:]
    terms = {(c, tuple(map(add, m, shift))): v for (c, m), v in below[prev].items()}
    # add m' dX_j, which a term x_j c (m' / x_j) dX_j of x_j NF(dm') may meet
    one = field.raw(field.one())
    add_multiple(terms, one, {(j, prev): one}, field.modulus)
    return raw_normal_form(terms, module.groebner, standard=standard)


def _kernel_in_degree(algebra: QuotientAlgebra, degree: int, images: dict) -> list:
    """Kernel basis of d on the degree slice, recording the reduced image of
    every standard monomial of the degree in images[degree].  `images` maps
    lower degrees to such records, which `_reduced_image` reads.  Each image
    is a sparse column of the slice matrix, over the staircase of the
    module in the degree, whose index also tells each normal form the terms
    that are already standard; only the kernel vectors are made polynomials.
    Normal forms are unique, so the basis does not depend on what is
    recorded."""
    module = kaehler(algebra)
    domain = staircase_of_degree(algebra.groebner, degree)
    images[degree] = recorded = {}
    if not domain:
        return []
    codomain = staircase_of_degree(module.groebner, degree)
    index = {entry: i for i, entry in enumerate(codomain)}
    columns = []
    for mono in domain:
        recorded[mono] = image = _reduced_image(module, mono, degree, images, index)
        try:
            columns.append({index[key]: c for key, c in image.items()})
        except KeyError:
            raise ComputationError(
                "reduced differential left the degree slice; relations are not homogeneous"
            ) from None
    ring = algebra.ring
    return [Polynomial(ring, {domain[i]: c for i, c in vec.items()})
            for vec in linalg.sparse_kernel(columns, algebra.field)]


def derivation_kernel_in_degree(algebra: QuotientAlgebra, degree: int) -> list:
    """Basis of the homogeneous elements of the given positive degree killed
    by the universal derivation, by exact linear algebra on the degree slice.

    The algebra must be in graded mode; the module Groebner basis is
    homogeneous, so normal forms of homogeneous vectors stay in the degree
    slice and the slice matrix is exact.  Every image is reduced from
    scratch, on raw coefficients, and becomes one sparse column of that
    matrix; `linalg.sparse_kernel` gives the kernel vectors of the reduced
    row echelon form, and only they are made polynomials.  For one degree
    that is cheaper than walking up from degree 1 by the Leibniz rule, as
    `veronese_containment_check` does through the same kernel.
    """
    if algebra.presentation.mode != MODE_GRADED:
        raise ValueError("kernel computation requires a graded presentation")
    if degree < 1:
        raise ValueError("degree must be positive")
    return _kernel_in_degree(algebra, degree, {})


def _walked_kernels(algebra: QuotientAlgebra, max_degree: int):
    """The kernel bases of degrees 1..max_degree in turn, every image
    reduced by the Leibniz rule from the images of the degrees below."""
    ring = algebra.ring
    # degree d reads the images of degrees d - w_j, so only the last
    # max(w_j) degrees are kept; the walk starts from d(1) = 0
    images = {0: {ring.monomial_one: {}}}
    width = max(ring.weights, default=1)
    for d in range(1, max_degree + 1):
        yield _kernel_in_degree(algebra, d, images)
        images.pop(d - width, None)


@dataclass(frozen=True)
class VeroneseReport:
    """Per-degree kernel dimensions of the universal derivation, with the
    containment verdict: in characteristic p the kernel may only live in
    degrees divisible by p."""

    characteristic: int
    max_degree: int
    kernel_dimensions: dict
    passed: bool


def veronese_containment_check(algebra: QuotientAlgebra, max_degree: int) -> VeroneseReport:
    """Check that every degree not divisible by the characteristic has zero
    derivation kernel, for degrees 1..max_degree; max_degree must be at
    least 1, so that some degree is checked."""
    p = algebra.field.characteristic
    if p == 0:
        raise ValueError("the containment statement concerns positive characteristic")
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    if algebra.presentation.mode != MODE_GRADED:
        raise ValueError("kernel computation requires a graded presentation")
    dims = {}
    ok = True
    for d, basis in enumerate(_walked_kernels(algebra, max_degree), 1):
        dims[d] = len(basis)
        if d % p != 0 and dims[d] != 0:
            ok = False
    return VeroneseReport(p, max_degree, dims, ok)
