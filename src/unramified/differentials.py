"""Kahler differentials of a presented algebra R = P/I via the Jacobian
(conormal) presentation: the free module on dX_1..dX_s over P, modulo the
rows (dG/dX_1, ..., dG/dX_s) for each relation G together with G e_i for
every relation and component.

A vector is zero in the differential module exactly when it lies in that
relation submodule, so every zero test is a module membership test against
one Groebner basis.  The universal derivation sends a representative F to
sum_i (dF/dX_i) dX_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import groebner, linalg
from .algebras import MODE_GRADED, AlgebraMap, QuotientAlgebra
from .errors import ComputationError
from .groebner import buchberger, normal_form, staircase_of_degree
from .polynomials import (
    ModuleVector,
    Polynomial,
    partial_derivative,
)


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
        vectors = [v for v in map(self.raw_differential, relations) if v]
        for g in relations:
            for i in range(self.rank):
                if not g.is_zero():
                    vectors.append(ModuleVector(ring, self.rank,
                                                {(i, m): c for m, c in g.terms.items()}))
        self.relation_vectors = tuple(vectors)
        self.groebner = buchberger(vectors or [ModuleVector(ring, self.rank, {})])

    def raw_differential(self, f: Polynomial) -> ModuleVector:
        """sum_i (df/dX_i) dX_i in the free module, not reduced."""
        ring = self.algebra.ring
        if f.ring != ring:
            raise ValueError("element from a different ring")
        terms = {}
        for i, name in enumerate(ring.names):
            d = partial_derivative(f, name)
            for m, c in d.terms.items():
                terms[(i, m)] = c
        return ModuleVector(ring, self.rank, terms)

    def reduce(self, v: ModuleVector) -> ModuleVector:
        """Canonical representative of a vector's class in the module."""
        return normal_form(v, self.groebner)

    def contains(self, v: ModuleVector) -> bool:
        """Membership in the relation submodule, i.e. v = 0 in the module."""
        return self.reduce(v).is_zero()

    def d_image(self, f: Polynomial) -> ModuleVector:
        """The universal derivation applied to (the class of) f, reduced.
        Well defined: representatives differing by a relation give vectors
        in the same class."""
        return self.reduce(self.raw_differential(f))

    def is_d_zero(self, f: Polynomial) -> bool:
        return self.d_image(f).is_zero()

    def is_zero(self) -> bool:
        """Whether the whole differential module vanishes: every generator
        dX_i must lie in the relation submodule."""
        ring = self.algebra.ring
        for i in range(self.rank):
            if not self.contains(ModuleVector.unit(ring, self.rank, i)):
                return False
        return True

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


def is_omega_zero(algebra: QuotientAlgebra) -> bool:
    """Whether the algebra is formally unramified over the coefficient field:
    its module of differentials is zero."""
    return kaehler(algebra).is_zero()


def induced_map_on_omega(phi: AlgebraMap) -> list:
    """Images of the source generators dX_i in the target differential
    module: dX_i maps to d(phi(X_i)), reduced in the target."""
    if phi.source.field != phi.target.field:
        raise ValueError("base mismatch")
    target = kaehler(phi.target)
    return [target.d_image(phi.apply(phi.source.ring.variable(name)))
            for name in phi.source.ring.names]


def is_zero_induced_map(phi: AlgebraMap) -> bool:
    """Whether the induced map on differential modules is zero.  The source
    module is generated by the dX_i, so it suffices that every d(phi(X_i))
    vanishes in the target."""
    return all(v.is_zero() for v in induced_map_on_omega(phi))


def derivation_kernel_in_degree(algebra: QuotientAlgebra, degree: int) -> list:
    """Basis of the homogeneous elements of the given positive degree killed
    by the universal derivation, by exact linear algebra on the degree slice.

    The algebra must be in graded mode; the module Groebner basis is
    homogeneous, so normal forms of homogeneous vectors stay in the degree
    slice and the slice matrix is exact.
    """
    if algebra.presentation.mode != MODE_GRADED:
        raise ValueError("kernel computation requires a graded presentation")
    if degree < 1:
        raise ValueError("degree must be positive")
    module = kaehler(algebra)
    domain = staircase_of_degree(algebra.groebner, degree)
    if not domain:
        return []
    codomain = staircase_of_degree(module.groebner, degree)
    index = {entry: i for i, entry in enumerate(codomain)}
    field = algebra.field
    zero = field.zero()
    rows = [[zero] * len(domain) for _ in codomain]
    ring = algebra.ring
    for j, mono in enumerate(domain):
        image = module.d_image(Polynomial(ring, {mono: field.one()}))
        for key, c in image.terms.items():
            if key not in index:
                raise ComputationError(
                    "reduced differential left the degree slice; relations are not homogeneous")
            rows[index[key]][j] = c
    kernel = linalg.kernel_basis(rows, len(domain), field)
    basis = []
    for vec in kernel:
        terms = {m: c for m, c in zip(domain, vec) if not c.is_zero()}
        basis.append(Polynomial(ring, terms))
    return basis


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
    dims = {}
    ok = True
    for d in range(1, max_degree + 1):
        dims[d] = len(derivation_kernel_in_degree(algebra, d))
        if d % p != 0 and dims[d] != 0:
            ok = False
    return VeroneseReport(p, max_degree, dims, ok)
