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

from . import groebner, linalg
from .algebras import MODE_GRADED, AlgebraMap, QuotientAlgebra
from .errors import ComputationError
from .fields import add_multiple
from .groebner import (
    buchberger,
    normal_form,
    raw_normal_form,
    rising_slices,
    staircase_of_degree,
)
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


def _column(image: dict, index: dict) -> dict:
    """A reduced image as a sparse column {codomain index: raw coefficient}
    of the slice matrix, `index` numbering the module's staircase entries of
    the degree."""
    try:
        return {index[key]: c for key, c in image.items()}
    except KeyError:
        raise ComputationError(
            "reduced differential left the degree slice; relations are not homogeneous"
        ) from None


def _slice_kernel(algebra: QuotientAlgebra, domain: list, columns: list) -> list:
    """Kernel basis of d on a degree slice from the columns of its monomials;
    only the kernel vectors are made polynomials."""
    ring = algebra.ring
    return [Polynomial(ring, {domain[i]: c for i, c in vec.items()})
            for vec in linalg.sparse_kernel(columns, algebra.field)]


def derivation_kernel_in_degree(algebra: QuotientAlgebra, degree: int) -> list:
    """Basis of the homogeneous elements of the given positive degree killed
    by the universal derivation, by exact linear algebra on the degree slice.

    The algebra must be in graded mode; the module Groebner basis is
    homogeneous, so normal forms of homogeneous vectors stay in the degree
    slice and the slice matrix is exact.  Every image is reduced from
    scratch, on raw coefficients (see `groebner.raw_normal_form`), told the
    module's staircase entries of the degree, which skip the reduction loop,
    and becomes one sparse column of that matrix; `linalg.sparse_kernel`
    gives the kernel vectors of the reduced row echelon form.  For one
    degree that is cheaper than walking up from degree 1 by the Leibniz
    rule, as `veronese_containment_check` does.
    """
    if algebra.presentation.mode != MODE_GRADED:
        raise ValueError("kernel computation requires a graded presentation")
    if degree < 1:
        raise ValueError("degree must be positive")
    domain = staircase_of_degree(algebra.groebner, degree)
    if not domain:
        return []
    module = kaehler(algebra)
    index = {entry: i for i, entry in enumerate(staircase_of_degree(module.groebner, degree))}
    field = algebra.field
    columns = []
    for mono in domain:
        d = raw_differential(Polynomial(algebra.ring, {mono: field.one()}))
        image = raw_normal_form({key: field.raw(c) for key, c in d.terms.items()},
                                module.groebner, standard=index)
        columns.append(_column(image, index))
    return _slice_kernel(algebra, domain, columns)


class _Shifted(dict):
    """{key: x_j key} for the (component, monomial) keys of the module, each
    made on its first read."""

    __slots__ = ("j",)

    def __init__(self, j: int):
        super().__init__()
        self.j = j

    def __missing__(self, key):
        comp, m = key
        j = self.j
        self[key] = shifted = (comp, m[:j] + (m[j] + 1,) + m[j + 1:])
        return shifted


def _walked_kernels(algebra: QuotientAlgebra, max_degree: int):
    """The kernel bases of degrees 1..max_degree in turn, every image
    reduced by the Leibniz rule from the images of the degrees below.

    `groebner.rising_slices` lists each degree's standard monomials, each
    x_j m' for its last variable x_j and the k-th monomial m' of degree
    d - w_j, with its origin (j, k), and the module's staircase entries of
    the degree.  Then d(x_j m') = x_j dm' +
    m' dX_j, and the relation submodule is a submodule over P, so the image
    is NF(x_j NF(dm') + m' dX_j), where NF(dm') was recorded at degree
    d - w_j (a divisor of a standard monomial is standard).  The normal form
    is told the module's entries of the degree, so the terms already
    standard, most of x_j NF(dm'), skip its reduction loop.  Normal forms
    are unique, so the kernels equal those of `derivation_kernel_in_degree`.
    Each degree shifts the recorded keys through one memo per variable and
    keeps the images only as long as a later degree reads them."""
    ring = algebra.ring
    field = ring.field
    p = field.modulus
    one = field.raw(field.one())
    module = kaehler(algebra)
    domains = rising_slices(algebra.groebner)
    codomains = rising_slices(module.groebner)
    next(codomains)  # degree 0, where the module has no entry
    # degree d reads the monomials and images of degrees d - w_j, so only
    # the last max(w_j) degrees are kept; the walk starts from d(1) = 0
    monos, _ = next(domains)
    kept = {0: (monos, [{} for _ in monos])}
    width = max(ring.weights, default=1)
    for d in range(1, max_degree + 1):
        domain, origins = next(domains)
        codomain, _ = next(codomains)
        images: list = []
        kept[d] = (domain, images)
        columns = []
        if domain:
            index = {entry: i for i, entry in enumerate(codomain)}
            shifts = [_Shifted(j) for j in range(ring.nvars)]
            for j, k in origins:
                below, below_images = kept[d - ring.weights[j]]
                shift = shifts[j]
                terms = {shift[key]: v for key, v in below_images[k].items()}
                # add m' dX_j, which a term x_j c (m' / x_j) dX_j of x_j NF(dm') may meet
                add_multiple(terms, one, {(j, below[k]): one}, p)
                image = raw_normal_form(terms, module.groebner, standard=index)
                images.append(image)
                columns.append(_column(image, index))
        yield _slice_kernel(algebra, domain, columns)
        kept.pop(d - width, None)


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
