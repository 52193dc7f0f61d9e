"""Finitely presented algebras R = P/I: element arithmetic through normal
forms, tensor products, quotients, algebra maps with validity certificates,
nilpotency tests, and the power-of-the-maximal-ideal stabilization model that
realizes power-series quotients as finite-dimensional polynomial quotients.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import groebner, linalg
from .errors import NotMPrimaryError
from .fields import FieldElement
from .groebner import DEFAULT_BUDGET, GroebnerBasis, Staircase, buchberger, normal_form
from .polynomials import (
    MONOMIAL_ONE,
    PolyRing,
    Polynomial,
    cast,
    is_homogeneous,
    mono_mul,
    monomials_of_weighted_degree,
    substitute,
)

MODE_PLAIN = "plain"
MODE_GRADED = "graded"
MODE_LOCAL = "local"

DEFAULT_POWER_CAP = 64


@dataclass(frozen=True)
class Presentation:
    """A polynomial ring together with a list of relations.  In graded mode
    every relation must be homogeneous for the ring weights."""

    ring: PolyRing
    relations: tuple
    mode: str = MODE_PLAIN

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple(self.relations))
        if self.mode not in (MODE_PLAIN, MODE_GRADED, MODE_LOCAL):
            raise ValueError(f"unknown mode {self.mode!r}")
        for rel in self.relations:
            if rel.ring != self.ring:
                raise ValueError("relation from a different ring")
            if self.mode == MODE_GRADED and not is_homogeneous(rel):
                raise ValueError(
                    f"relation {rel} is not homogeneous for the ring weights")


class QuotientAlgebra:
    """P/I with a precomputed Groebner basis; equality of elements is
    equality of normal forms.  The staircase is enumerated on first use
    unless it is passed in.  Instances are immutable after construction
    (apart from that one-time enumeration) and safe to share."""

    def __init__(self, presentation: Presentation, basis: GroebnerBasis,
                 chart: Staircase | None = None,
                 stabilization_exponent: int | None = None):
        self.presentation = presentation
        self.groebner = basis
        self._chart = chart
        self.stabilization_exponent = stabilization_exponent

    @property
    def staircase(self) -> Staircase:
        if self._chart is None:
            self._chart = groebner.staircase(self.groebner)
        return self._chart

    @property
    def ring(self) -> PolyRing:
        return self.presentation.ring

    @property
    def field(self):
        return self.presentation.ring.field

    @property
    def dimension(self):
        """Vector-space dimension over the coefficient field, None if infinite."""
        return self.staircase.dimension

    @property
    def is_finite(self) -> bool:
        return self.staircase.finite

    def basis_monomials(self) -> tuple:
        if not self.is_finite:
            raise ValueError("infinite-dimensional algebra has no monomial basis")
        return self.staircase.monomials

    def reduce(self, f: Polynomial) -> Polynomial:
        """The canonical representative of f's class."""
        if f.ring != self.ring:
            raise ValueError("element from a different ring")
        return normal_form(f, self.groebner)

    def is_zero_element(self, f: Polynomial) -> bool:
        return self.reduce(f).is_zero()

    def multiply(self, f: Polynomial, g: Polynomial) -> Polynomial:
        return self.reduce(f * g)

    def add(self, f: Polynomial, g: Polynomial) -> Polynomial:
        return self.reduce(f + g)

    def coordinates(self, f: Polynomial) -> list:
        """Coefficients of f on the staircase monomial basis."""
        nf = self.reduce(f)
        index = {m: i for i, m in enumerate(self.basis_monomials())}
        coords = [self.field.zero()] * len(index)
        for m, c in nf.terms.items():
            coords[index[m]] = c
        return coords

    def __repr__(self):
        dim = self.dimension
        size = "inf" if dim is None else str(dim)
        return f"<quotient of {self.ring} by {len(self.presentation.relations)} relations, dim {size}>"


def make_quotient(presentation: Presentation, *, budget: int = DEFAULT_BUDGET) -> QuotientAlgebra:
    """Quotient by the relations as a plain polynomial ideal."""
    if presentation.relations:
        basis = buchberger(presentation.relations, budget=budget)
    else:
        basis = buchberger([presentation.ring.zero()], budget=budget)
    return QuotientAlgebra(presentation, basis)


def _power_generators(ring: PolyRing, n: int) -> list:
    """Monomial generators of the n-th power of the irrelevant ideal
    (X_1, ..., X_s); unweighted total degree is used, matching the maximal
    ideal of the local model."""
    unweighted = PolyRing(ring.field, ring.names, tuple(1 for _ in ring.names), ring.order)
    return [Polynomial(ring, {m: ring.field.one()})
            for m in monomials_of_weighted_degree(unweighted, n)]


def artinian_local_model(ring: PolyRing, generators, *,
                         power_cap: int = DEFAULT_POWER_CAP,
                         budget: int = DEFAULT_BUDGET) -> QuotientAlgebra:
    """Realize the power-series quotient k[[X_1..X_s]]/I as a polynomial
    quotient: compute P/(I + m^N) for N = 1, 2, ... and stop at the first N
    where the dimension equals that of N+1.

    At that point m^N is contained in I + m^(N+1), so Nakayama's lemma in
    the complete local ring gives m^N inside I k[[X]], and P/(I + m^N) is the
    power-series quotient.  Raises NotMPrimaryError when no stabilization
    happens below `power_cap`.
    """
    gens = list(generators)
    for g in gens:
        if g.ring != ring:
            raise ValueError("generator from a different ring")
        if not g.constant_coefficient().is_zero():
            raise ValueError("generators must lie in the maximal ideal")
    prev_dim = None
    prev = None
    for n in range(1, power_cap + 2):
        relations = tuple(gens) + tuple(_power_generators(ring, n))
        basis = buchberger(relations, budget=budget)
        chart = groebner.staircase(basis)
        dim = chart.dimension
        if dim is None:
            raise NotMPrimaryError("truncated quotient is infinite dimensional")
        if prev_dim is not None and dim == prev_dim:
            presentation, prev_basis, prev_chart = prev
            return QuotientAlgebra(presentation, prev_basis, prev_chart,
                                   stabilization_exponent=n - 1)
        prev_dim = dim
        prev = (Presentation(ring, relations, MODE_LOCAL), basis, chart)
    raise NotMPrimaryError(
        f"no stabilization below m^{power_cap}: the ideal is not primary to the maximal ideal")


def quotient_by(algebra: QuotientAlgebra, elements, *,
                budget: int = DEFAULT_BUDGET) -> QuotientAlgebra:
    """Quotient an algebra by further elements of its ambient ring.  The
    algebra's reduced basis is extended by the new elements, not rebuilt."""
    extra = [e for e in elements if not e.is_zero()]
    for e in extra:
        if e.ring != algebra.ring:
            raise ValueError("element from a different ring")
    relations = algebra.presentation.relations + tuple(extra)
    mode = algebra.presentation.mode
    if mode == MODE_GRADED and not all(is_homogeneous(e) for e in extra):
        mode = MODE_PLAIN
    if mode == MODE_LOCAL:
        mode = MODE_PLAIN
    basis = buchberger(extra or [algebra.ring.zero()], start=algebra.groebner,
                       budget=budget)
    return QuotientAlgebra(Presentation(algebra.ring, relations, mode), basis)


def tensor_many(algebras: list, *, budget: int = DEFAULT_BUDGET) -> tuple:
    """Presentation of the tensor product over the common coefficient field.

    Factor i (1-based) keeps its weights and gets every variable renamed with
    the suffix `#i`.  Returns (presentation, renamings) where renamings[i] is
    the old-name -> new-name map of factor i.
    """
    if not algebras:
        raise ValueError("tensor product needs at least one factor")
    field = algebras[0].field
    names: list = []
    weights: list = []
    renamings: list = []
    for i, a in enumerate(algebras, start=1):
        if a.field != field:
            raise ValueError("tensor factors over different fields")
        rename = {n: f"{n}#{i}" for n in a.ring.names}
        renamings.append(rename)
        names.extend(rename[n] for n in a.ring.names)
        weights.extend(a.ring.weights)
    ring = PolyRing(field, tuple(names), tuple(weights), algebras[0].ring.order)
    relations = []
    for a, rename in zip(algebras, renamings):
        for rel in a.presentation.relations:
            relations.append(cast(rel, ring, rename))
    return Presentation(ring, tuple(relations)), renamings


def tensor_quotient(algebras: list, *, budget: int = DEFAULT_BUDGET) -> tuple:
    """The tensor product as an algebra: (quotient, renamings), with the
    presentation and renamings of tensor_many.

    The factors live in disjoint sets of variables, so every pair of rows
    from different factors has coprime leading terms and the union of the
    factors' renamed reduced bases is the reduced basis of the product; it
    is taken as it is.  A factor whose ring order differs from the product's
    is the exception: its relations go in as ordinary generators (not its
    basis, which in lex order can be far larger).  A factor whose basis is
    {1} makes the product's basis {1}.
    """
    presentation, renamings = tensor_many(algebras, budget=budget)
    ring = presentation.ring
    known: list = []
    extra: list = []
    for a, rename in zip(algebras, renamings):
        if a.ring.order == ring.order:
            known.extend(cast(g, ring, rename) for g in a.groebner)
        else:
            extra.extend(cast(g, ring, rename) for g in a.presentation.relations)
    basis = buchberger(extra or [ring.zero()], start=known, budget=budget)
    return QuotientAlgebra(presentation, basis), renamings


def tensor_product(a: QuotientAlgebra, b: QuotientAlgebra, *,
                   budget: int = DEFAULT_BUDGET) -> Presentation:
    """Presentation of a (x) b over the coefficient field: disjoint renamed
    variables, union of renamed relations."""
    return tensor_many([a, b], budget=budget)[0]


class AlgebraMap:
    """A coefficient-field algebra map between presented algebras, given by
    one target element per source variable.  Construction verifies that every
    source relation maps to zero; the normal forms are kept as a certificate.
    """

    def __init__(self, source: QuotientAlgebra, target: QuotientAlgebra,
                 images: dict, certificate: tuple):
        self.source = source
        self.target = target
        self.images = images
        self.certificate = certificate

    def apply(self, f: Polynomial) -> Polynomial:
        """Image of (the class of) f, reduced in the target."""
        if f.ring != self.source.ring:
            raise ValueError("element from a different ring")
        value = substitute(f, self.images, self.target.ring)
        return self.target.reduce(value)

    def __repr__(self):
        return f"<algebra map on {len(self.images)} generators>"


def make_map(source: QuotientAlgebra, target: QuotientAlgebra, images) -> AlgebraMap:
    """Build the map X_i -> images[i] and verify it is well defined.  Raises
    ValueError naming the first relation with a nonzero image otherwise."""
    if source.field != target.field:
        raise ValueError("source and target have different coefficient fields")
    if isinstance(images, dict):
        image_map = dict(images)
    else:
        images = list(images)
        if len(images) != source.ring.nvars:
            raise ValueError("one image per source variable required")
        image_map = dict(zip(source.ring.names, images))
    if set(image_map) != set(source.ring.names):
        raise ValueError("images must cover exactly the source variables")
    image_map = {n: target.reduce(q) for n, q in image_map.items()}
    certificate = []
    for rel in source.presentation.relations:
        nf = target.reduce(substitute(rel, image_map, target.ring))
        if not nf.is_zero():
            raise ValueError(
                f"not a ring map: relation {rel} maps to nonzero normal form {nf}")
        certificate.append(nf)
    return AlgebraMap(source, target, image_map, tuple(certificate))


def compose(outer: AlgebraMap, inner: AlgebraMap) -> AlgebraMap:
    """The composite outer . inner."""
    if inner.target is not outer.source:
        raise ValueError("maps do not compose")
    images = {n: outer.apply(q) for n, q in inner.images.items()}
    return make_map(inner.source, outer.target, images)


def identity_map(algebra: QuotientAlgebra) -> AlgebraMap:
    images = {n: algebra.ring.variable(n) for n in algebra.ring.names}
    return make_map(algebra, algebra, images)


def linear_matrix(phi: AlgebraMap) -> list:
    """Matrix of the map in the staircase bases: rows indexed by the target
    basis, columns by the source basis.  Both sides must be finite."""
    if not phi.source.is_finite or not phi.target.is_finite:
        raise ValueError("linear matrix requires finite-dimensional source and target")
    source_basis = phi.source.basis_monomials()
    target_index = {m: i for i, m in enumerate(phi.target.basis_monomials())}
    field = phi.source.field
    rows = [[field.zero() for _ in source_basis] for _ in target_index]
    for j, m in enumerate(source_basis):
        image = phi.apply(Polynomial(phi.source.ring, {m: field.one()}))
        for tm, c in image.terms.items():
            rows[target_index[tm]][j] = c
    return rows


def is_injective(phi: AlgebraMap) -> bool:
    """Injectivity by exact rank: rank of the matrix equals dim(source)."""
    matrix = linear_matrix(phi)
    ncols = len(phi.source.basis_monomials())
    return linalg.rank(matrix, ncols, phi.source.field) == ncols


def nilpotency_index(algebra: QuotientAlgebra, f: Polynomial):
    """Least t with f^t = 0 in the algebra, or None when f is not nilpotent.
    Powers are tried up to dim + 1, which is enough by the minimal-polynomial
    degree bound."""
    if not algebra.is_finite:
        raise ValueError("nilpotency search requires a finite-dimensional algebra")
    g = algebra.reduce(f)
    power = algebra.ring.one()
    for t in range(1, algebra.dimension + 2):
        power = algebra.reduce(power * g)
        if power.is_zero():
            return t
    return None


def is_local_with_nilpotent_generators(algebra: QuotientAlgebra) -> bool:
    """True when every generator image is nilpotent; then the generators span
    the unique maximal ideal and the residue field is the coefficient field."""
    if not algebra.is_finite:
        raise ValueError("test requires a finite-dimensional algebra")
    for name in algebra.ring.names:
        if nilpotency_index(algebra, algebra.ring.variable(name)) is None:
            return False
    return True


def has_nonzero_nilpotent(algebra: QuotientAlgebra) -> bool:
    """For a local algebra with nilpotent generators: non-reduced exactly
    when the dimension exceeds 1 (the maximal ideal is then nonzero and
    nilpotent)."""
    if not is_local_with_nilpotent_generators(algebra):
        raise ValueError("only defined for local algebras with nilpotent generators")
    return algebra.dimension > 1
