"""Finitely presented algebras R = P/I: element arithmetic through normal
forms, tensor products, quotients, algebra maps verified when built,
nilpotency tests, and the local model that realizes a power-series quotient
as a finite-dimensional polynomial quotient P/(I + m^N), read from one local
standard basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice

from . import groebner, linalg
from .errors import NotMPrimaryError
from .groebner import GroebnerBasis, Staircase, buchberger, normal_form
from .polynomials import (
    PolyRing,
    Polynomial,
    _rising_monomials,
    cast,
    is_homogeneous,
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
    """P/I; equality of elements is equality of normal forms against the
    reduced Groebner basis of I.  The basis is built on first use by
    `build`, a function of no arguments, so that a construction whose claims
    need no normal form in the algebra never builds it.  The dimension is counted
    from the leading monomials on first use and cached, as is the locality
    test; a construction that has proved either fact assigns it instead.
    A killing step's R' keeps the structure the step proved
    (`killing_origin`), from which a later step reads Jordan types on R'
    without building its basis.
    The staircase, a monomial basis, is enumerated only when a basis is
    asked for, and cached too.  Instances are immutable after construction
    (apart from those one-time caches) and safe to share."""

    def __init__(self, presentation: Presentation, build):
        self.presentation = presentation
        self._build = build
        # the N of the local model P/(I + m^N); set by artinian_local_model
        self.stabilization_exponent = None
        # (renaming of P's variables, pairs (n_b, P/s^b P)) when this is the
        # R' = P (x)_A B_t, the sum of the (P/s^b P)^(n_b), of a killing step
        # that proved it; set by killing_step
        self.killing_origin = None

    @cached_property
    def groebner(self) -> GroebnerBasis:
        """The reduced Groebner basis of the relations, built here on first
        use and spending from the step budget in force then."""
        basis = self._build()
        del self._build
        return basis

    @cached_property
    def staircase(self) -> Staircase:
        return groebner.staircase(self.groebner)

    @property
    def ring(self) -> PolyRing:
        return self.presentation.ring

    @property
    def field(self):
        return self.presentation.ring.field

    @cached_property
    def dimension(self):
        """Vector-space dimension over the coefficient field, None if infinite."""
        return groebner.dimension(self.groebner)

    @property
    def is_finite(self) -> bool:
        return self.dimension is not None

    @cached_property
    def local_with_nilpotent_generators(self) -> bool:
        """Whether the algebra is not zero and every generator image is
        nilpotent; then the generators span the unique maximal ideal and the
        residue field is the coefficient field.  The zero algebra has no
        maximal ideal, so it is not local.  Tested once and cached; a
        construction that has proved the fact sets it instead."""
        if not self.is_finite:
            raise ValueError("test requires a finite-dimensional algebra")
        return self.dimension > 0 and all(
            nilpotency_index(self, self.ring.variable(name)) is not None
            for name in self.ring.names)

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

    def __repr__(self):
        # reading an unknown dimension would build the basis, so it shows as ?
        dim = vars(self).get("dimension", "?")
        size = "inf" if dim is None else str(dim)
        return f"<quotient of {self.ring} by {len(self.presentation.relations)} relations, dim {size}>"


def make_quotient(presentation: Presentation) -> QuotientAlgebra:
    """Quotient by the relations as a plain polynomial ideal."""
    return QuotientAlgebra(presentation, partial(
        buchberger, presentation.relations or [presentation.ring.zero()]))


def _power_generators(ring: PolyRing, n: int) -> list:
    """Monomial generators of the n-th power of the irrelevant ideal
    (X_1, ..., X_s), ascending in the unweighted ring order: slice n of the
    lead-free walk with unit weights, since unweighted total degree is used,
    matching the maximal ideal of the local model."""
    monos = next(islice(_rising_monomials((1,) * ring.nvars, ()), n, None))[0]
    return [Polynomial(ring, {m: ring.field.one()}) for m in monos]


def artinian_local_model(ring: PolyRing, generators) -> QuotientAlgebra:
    """Realize the power-series quotient k[[X_1..X_s]]/I as the polynomial
    quotient P/(I + m^N), for the least N with m^N inside I k[[X]].

    Both numbers are read from one standard basis of I + m^L, with
    L = DEFAULT_POWER_CAP + 1, in the local degree order
    (`groebner.local_leading_monomials`): its standard monomials of total
    degree j count the tangent cone's Hilbert function HF(j).  N is the
    first degree without one, and by Nakayama's lemma dim P/(I + m^N) is
    the sum of HF(j) over j < N, so one walk over the degrees
    (`polynomials._rising_monomials`) gives both.
    The reduced basis of I + m^N is built only when something reads it;
    the dimension, N and locality are assigned to the model as proven.
    The model is local with nilpotent generators, and says so without a
    test: each X_i^N is a relation, and 1 is standard because the
    generators lie in m.  Its presentation is plain: local mode only tells
    the parser to build this model.  Raises NotMPrimaryError when every
    degree up to the truncation limit DEFAULT_POWER_CAP has a standard
    monomial: I is not m-primary, or N exceeds the limit.
    """
    gens = list(generators)
    for g in gens:
        if g.ring != ring:
            raise ValueError("generator from a different ring")
        if not g.constant_coefficient().is_zero():
            raise ValueError("generators must lie in the maximal ideal")
    leads = groebner.local_leading_monomials(gens, DEFAULT_POWER_CAP + 1)
    hilbert = []                 # HF(0), HF(1), ... while nonzero
    for monos, _ in islice(_rising_monomials((1,) * ring.nvars, leads), DEFAULT_POWER_CAP + 1):
        if not monos:
            break
        hilbert.append(len(monos))
    else:
        raise NotMPrimaryError(
            f"P/(I + m^N) did not stabilize by the truncation limit m^{DEFAULT_POWER_CAP}")
    exponent = len(hilbert)
    relations = tuple(gens) + tuple(_power_generators(ring, exponent))
    model = QuotientAlgebra(Presentation(ring, relations),
                            partial(buchberger, relations or [ring.zero()]))
    model.dimension = sum(hilbert)
    model.stabilization_exponent = exponent
    model.local_with_nilpotent_generators = True
    return model


def quotient_by(algebra: QuotientAlgebra, elements) -> QuotientAlgebra:
    """Quotient an algebra by further elements of its ambient ring.  The
    algebra's reduced basis is extended by the new elements, not rebuilt,
    and only when the quotient's basis is first used.  A caller that has
    proved the quotient's dimension assigns it to the result."""
    extra = [e for e in elements if not e.is_zero()]
    for e in extra:
        if e.ring != algebra.ring:
            raise ValueError("element from a different ring")
    relations = algebra.presentation.relations + tuple(extra)
    mode = algebra.presentation.mode
    if mode == MODE_GRADED and not all(is_homogeneous(e) for e in extra):
        mode = MODE_PLAIN
    return QuotientAlgebra(
        Presentation(algebra.ring, relations, mode),
        lambda: buchberger(extra or [algebra.ring.zero()], start=algebra.groebner))


def tensor_many(algebras: list) -> tuple:
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
    ring = PolyRing(field, tuple(names), tuple(weights))
    relations = []
    for a, rename in zip(algebras, renamings):
        for rel in a.presentation.relations:
            relations.append(cast(rel, ring, rename))
    return Presentation(ring, tuple(relations)), renamings


def tensor_quotient(algebras: list) -> tuple:
    """The tensor product as an algebra: (quotient, renamings), with the
    presentation and renamings of tensor_many.

    The factors live in disjoint sets of variables, so every pair of rows
    from different factors has coprime leading terms and the union of the
    factors' renamed reduced bases is the reduced basis of the product; it
    is taken as it is, on first use of the product's basis, and no factor's
    basis is read before.  A factor whose basis is {1} makes the product's
    basis {1}.
    """
    presentation, renamings = tensor_many(algebras)
    ring = presentation.ring
    factors = list(zip(algebras, renamings))
    return QuotientAlgebra(presentation, lambda: buchberger([ring.zero()], start=[
        cast(g, ring, rename) for a, rename in factors for g in a.groebner])), renamings


class AlgebraMap:
    """A coefficient-field algebra map between presented algebras, given by
    one target element per source variable.  The constructor checks only
    that both sides share the coefficient field; `make_map` also verifies
    that every source relation maps to zero.
    """

    def __init__(self, source: QuotientAlgebra, target: QuotientAlgebra,
                 images: dict):
        if source.field != target.field:
            raise ValueError("source and target have different coefficient fields")
        self.source = source
        self.target = target
        self.images = images

    def apply(self, f: Polynomial) -> Polynomial:
        """Image of (the class of) f, reduced in the target."""
        if f.ring != self.source.ring:
            raise ValueError("element from a different ring")
        value = substitute(f, self.images, self.target.ring)
        return self.target.reduce(value)

    def __repr__(self):
        return f"<algebra map on {len(self.images)} generators>"


def make_map(source: QuotientAlgebra, target: QuotientAlgebra, images: dict) -> AlgebraMap:
    """Build the map X -> images[X] and verify it is well defined.  Raises
    ValueError naming the first relation with a nonzero image otherwise."""
    if set(images) != set(source.ring.names):
        raise ValueError("images must cover exactly the source variables")
    phi = AlgebraMap(source, target, {n: target.reduce(q) for n, q in images.items()})
    for rel in source.presentation.relations:
        nf = phi.apply(rel)
        if not nf.is_zero():
            raise ValueError(
                f"not a ring map: relation {rel} maps to nonzero normal form {nf}")
    return phi


def renaming_map(source: QuotientAlgebra, target: QuotientAlgebra,
                 rename: dict) -> AlgebraMap:
    """The map X -> rename[X] onto variables of the target, verified without
    a normal form: every relation of the source, renamed, must be one of the
    target's presentation relations, as for a tensor factor or a quotient of
    one.  Raises ValueError naming the first relation that is not."""
    if set(rename) != set(source.ring.names):
        raise ValueError("the renaming must cover exactly the source variables")
    relations = set(target.presentation.relations)
    for rel in source.presentation.relations:
        if cast(rel, target.ring, rename) not in relations:
            raise ValueError(
                f"relation {rel} is not a relation of the target once renamed")
    return AlgebraMap(source, target, {n: target.ring.variable(new)
                                       for n, new in rename.items()})


def compose(outer: AlgebraMap, inner: AlgebraMap) -> AlgebraMap:
    """The composite outer . inner; both were verified when built, so it is
    well defined and is not checked again."""
    if inner.target is not outer.source:
        raise ValueError("maps do not compose")
    return AlgebraMap(inner.source, outer.target,
                      {n: outer.apply(q) for n, q in inner.images.items()})


def is_injective(phi: AlgebraMap) -> bool:
    """Injectivity by exact rank: the images of the source basis are
    linearly independent.  They are ranked as rows in monomial coordinates,
    one column per monomial that occurs in some reduced image; normal forms
    are unique, so this is the rank of the map's matrix in the staircase
    bases without listing the target's basis, whose size the source need
    not bound.  The tests check it against that dense matrix."""
    if not phi.source.is_finite or not phi.target.is_finite:
        raise ValueError("injectivity test requires finite-dimensional source and target")
    field = phi.source.field
    images = [phi.apply(Polynomial(phi.source.ring, {m: field.one()})).terms
              for m in phi.source.basis_monomials()]
    columns: dict = {}
    for image in images:
        for m in image:
            columns.setdefault(m, len(columns))
    zero = field.zero()
    rows = []
    for image in images:
        row = [zero] * len(columns)
        for m, c in image.items():
            row[columns[m]] = c
        rows.append(row)
    return linalg.rank(rows, len(columns), field) == len(rows)


def _nonzero_powers(algebra: QuotientAlgebra, f: Polynomial):
    """The nonzero reduced powers f, f^2, ... in order, or None when f is not
    nilpotent: f^(dim + 1) != 0 (the minimal-polynomial degree bound)."""
    if not algebra.is_finite:
        raise ValueError("nilpotency requires a finite-dimensional algebra")
    g = algebra.reduce(f)
    powers = []
    power = g
    while not power.is_zero():
        if len(powers) >= algebra.dimension:
            return None
        powers.append(power)
        power = algebra.reduce(power * g)
    return powers


def nilpotency_index(algebra: QuotientAlgebra, f: Polynomial):
    """Least t with f^t = 0 in the algebra, or None when f is not nilpotent."""
    powers = _nonzero_powers(algebra, f)
    return None if powers is None else len(powers) + 1


def jordan_type(algebra: QuotientAlgebra, f: Polynomial) -> dict:
    """The Jordan type of multiplication by a nilpotent f on a finite
    dimensional algebra: block size -> number of blocks.  With
    d_j = dim A/f^jA, the rank of f^j is dim A - d_j, so d_j - d_(j-1) blocks
    have size at least j; the d_j are the dimensions of the quotients by the
    nonzero powers of f.  Raises ValueError when f is not nilpotent."""
    powers = _nonzero_powers(algebra, f)
    if powers is None:
        raise ValueError("element is not nilpotent")
    quotients = ([0] + [quotient_by(algebra, [p]).dimension for p in powers]
                 + [algebra.dimension])
    at_least = [b - a for a, b in zip(quotients, quotients[1:])] + [0]
    return {size: at_least[size - 1] - at_least[size]
            for size in range(1, len(at_least))
            if at_least[size - 1] != at_least[size]}


def has_nonzero_nilpotent(algebra: QuotientAlgebra) -> bool:
    """For a local algebra with nilpotent generators: non-reduced exactly
    when the dimension exceeds 1 (the maximal ideal is then nonzero and
    nilpotent)."""
    if not algebra.local_with_nilpotent_generators:
        raise ValueError("only defined for local algebras with nilpotent generators")
    return algebra.dimension > 1
