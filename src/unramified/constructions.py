"""Executable versions of the classical constructions this library exists to
verify: the characteristic-zero Artinian algebra B with a square-zero element
whose differential vanishes, tensor powers and the differential-killing
extension step, towers of non-reduced algebras in characteristic p, the
twisted module structure over a non-perfect base, the local reducedness
harness, and the Euler identity checker.

Each construction returns a structured VerificationReport whose claims are
reproducible bit for bit: all arithmetic is exact and every random sample is
drawn from a caller-seeded generator.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field as dataclass_field

from . import linalg
from .algebras import (
    MODE_GRADED,
    MODE_PLAIN,
    AlgebraMap,
    Presentation,
    QuotientAlgebra,
    artinian_local_model,
    compose,
    has_nonzero_nilpotent,
    is_injective,
    is_local_with_nilpotent_generators,
    make_map,
    make_quotient,
    nilpotency_index,
    quotient_by,
    tensor_quotient,
)
from .differentials import (
    BASE_FIELD,
    induced_map_on_omega,
    is_omega_zero,
    is_zero_induced_map,
    kaehler,
)
from .errors import CapExceededError
from .fields import (
    PRIME_FIELD,
    RATIONAL_FUNCTIONS,
    RATIONALS,
    QQ,
    FieldDescriptor,
    FieldElement,
    formal_derivative,
    prime_field,
    rational_functions,
)
from .groebner import DEFAULT_BUDGET
from .polynomials import (
    GREVLEX,
    PolyRing,
    Polynomial,
    cast,
    euler_apply,
    format_polynomial,
    monomials_of_weighted_degree,
    weighted_degree,
)

DIMENSION_CAP = 20000

STATUS_OK = "ok"
STATUS_CAP = "cap"


@dataclass
class Claim:
    """One verified statement: a short label, the mathematical statement it
    checks, the boolean outcome, and witness data for the report."""

    label: str
    anchor: str
    passed: bool
    witness: object = None


@dataclass
class VerificationReport:
    construction: str
    params: dict
    claims: list = dataclass_field(default_factory=list)
    status: str = STATUS_OK
    elapsed_ms: float | None = None

    def add(self, label: str, anchor: str, passed: bool, witness=None) -> bool:
        self.claims.append(Claim(label, anchor, bool(passed), witness))
        return bool(passed)

    def fold(self, prefix: str, claims: list):
        """Append the claims of a sub-report as `prefix: label`, so labels
        stay unique and a failed sub-claim fails this report."""
        for c in claims:
            self.claims.append(Claim(f"{prefix}: {c.label}", c.anchor, c.passed, c.witness))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_json_dict(self, include_timing: bool = False) -> dict:
        return {
            "construction": self.construction,
            "params": self.params,
            "claims": [
                {"label": c.label, "anchor": c.anchor, "pass": c.passed,
                 "witness": c.witness}
                for c in self.claims
            ],
            "pass": self.passed,
            "status": self.status,
            # timing is reported only on request so that repeated runs are
            # byte-identical
            "elapsed_ms": self.elapsed_ms if include_timing else None,
        }

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_json_dict(include_timing),
                          indent=2, sort_keys=True)


def _finish(report: VerificationReport, started: float) -> VerificationReport:
    report.elapsed_ms = (time.perf_counter() - started) * 1000.0
    return report


# ---------------------------------------------------------------------------
# The Artinian algebra B and its verified properties
# ---------------------------------------------------------------------------

def _b_ingredients(n: int, field: FieldDescriptor):
    ring = PolyRing(field, ("X", "Y"))
    X, Y = ring.variable("X"), ring.variable("Y")
    F = X ** 2 * Y ** 2 + X ** n + Y ** n
    F1 = 2 * Y ** 2 + n * X ** (n - 2)
    F2 = 2 * X ** 2 + n * Y ** (n - 2)
    return ring, X, Y, F, F1, F2


def gabber_B(n: int, field: FieldDescriptor = QQ, *,
             allow_positive_characteristic: bool = False,
             budget: int = DEFAULT_BUDGET):
    """The local algebra B = k[[X,Y]]/(X F1, Y F2) with F = X^2 Y^2 + X^n + Y^n,
    realized through power-of-the-maximal-ideal stabilization, together with
    the image f of F.

    Requires n >= 5.  The construction is stated over characteristic zero; a
    positive characteristic p is accepted only behind the explicit flag and
    only when p does not divide 2 n (n - 4), since 2, n and 1 - 4/n must be
    units.
    """
    if n < 5:
        raise ValueError("the construction requires n >= 5")
    p = field.characteristic
    if p != 0:
        if (2 * n * (n - 4)) % p == 0:
            raise ValueError(
                f"characteristic {p} divides 2n(n-4); the construction degenerates")
        if not allow_positive_characteristic:
            raise ValueError(
                "characteristic zero expected; pass allow_positive_characteristic=True to explore")
    ring, X, Y, F, F1, F2 = _b_ingredients(n, field)
    B = artinian_local_model(ring, [X * F1, Y * F2], budget=budget)
    return B, B.reduce(F)


def verify_preparatory(n: int, field: FieldDescriptor = QQ, *,
                       allow_positive_characteristic: bool = False,
                       budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Verify every claim made about B: finite dimension, f nonzero with zero
    square, df = 0, the vanishing x y^3, the membership Y^2 in (F1, F2), and
    the exact cofactor identity behind it."""
    started = time.perf_counter()
    report = VerificationReport("preparatory", {"n": n, "field": str(field)})
    B, f = gabber_B(n, field, allow_positive_characteristic=allow_positive_characteristic,
                    budget=budget)
    ring, X, Y, F, F1, F2 = _b_ingredients(n, field)

    report.add("dimension finite",
               "B = k[[X,Y]]/(X*F1, Y*F2) is Artinian: dim_k(B) is finite",
               B.is_finite,
               {"dimension": B.dimension,
                "stabilized_power": B.stabilization_exponent})
    report.add("f nonzero",
               "the image f of F in B is not zero",
               not f.is_zero(),
               {"f": format_polynomial(f)})
    report.add("f squared zero",
               "the square of f is zero in B",
               B.is_zero_element(F * F),
               {"f_squared": format_polynomial(B.reduce(F * F))})
    report.add("df zero",
               "the universal derivation kills f: df = dF/dX dx + dF/dY dy = 0",
               kaehler(B).is_d_zero(F))
    report.add("x y^3 zero",
               "X*Y^3 lies in (X*F1, Y*F2), so x*y^3 = 0 in B",
               B.is_zero_element(X * Y ** 3))

    # Exact identity F1 - (n/2) X^(n-4) F2 = Y^2 (2 - (n^2/2) X^(n-4) Y^(n-4)),
    # whose right factor is a unit in the power series ring because its
    # constant term is 2.
    half_n = field.from_int(n) / field.from_int(2)
    cofactor = ring.from_int(2) - (X ** (n - 4) * Y ** (n - 4)).scale(
        field.from_int(n * n) / field.from_int(2))
    lhs = F1 - (X ** (n - 4) * F2).scale(half_n)
    identity_holds = lhs == Y ** 2 * cofactor
    unit_cofactor = not cofactor.constant_coefficient().is_zero()
    report.add("cofactor identity",
               "F1 - (n/2) X^(n-4) F2 = Y^2 * (2 - (n^2/2) X^(n-4) Y^(n-4)) "
               "with the right factor a unit",
               identity_holds and unit_cofactor,
               {"cofactor": format_polynomial(cofactor)})

    local_f1f2 = artinian_local_model(ring, [F1, F2], budget=budget)
    report.add("Y^2 in (F1, F2)",
               "Y^2 lies in the ideal (F1, F2) of the power series ring",
               local_f1f2.is_zero_element(Y ** 2),
               {"dimension_of_model": local_f1f2.dimension})
    return _finish(report, started)


# ---------------------------------------------------------------------------
# Tensor powers and the killing step
# ---------------------------------------------------------------------------

@dataclass
class TensorPowerResult:
    algebra: QuotientAlgebra
    factor_elements: list        # g_i = f placed in factor i
    summed: object               # g = sum of the g_i
    report: VerificationReport


def B_tensor_power(B: QuotientAlgebra, n: int, t: int, *,
                   cap: int = DIMENSION_CAP,
                   budget: int = DEFAULT_BUDGET) -> TensorPowerResult:
    """The tensor product of t-1 copies of B = gabber_B(n, field)[0] over its
    coefficient field, with g_i the copy of f in factor i and g their sum.
    Verifies g^t = 0 while g^(t-1) = (t-1)! f (x) ... (x) f is nonzero."""
    started = time.perf_counter()
    if t < 2:
        raise ValueError("tensor power needs t >= 2 (at least one factor)")
    field = B.field
    copies = t - 1
    projected = B.dimension ** copies
    if projected > cap:
        raise CapExceededError(
            f"tensor power dimension {projected} exceeds the cap {cap}")
    Bt, renames = tensor_quotient([B] * copies, budget=budget)
    _, _, _, F, _, _ = _b_ingredients(n, field)
    gs = [cast(F, Bt.ring, renames[i]) for i in range(copies)]
    g = Bt.ring.zero()
    for gi in gs:
        g = g + gi
    report = VerificationReport("tensor_power", {"n": n, "t": t, "field": str(field)})
    report.add("dimension multiplies",
               "dim of the tensor product is the product of the factor dimensions",
               Bt.dimension == projected,
               {"dimension": Bt.dimension})
    report.add("g^t zero",
               "g = g_1 + ... + g_(t-1) has g^t = 0",
               Bt.is_zero_element(g ** t))
    product = Bt.ring.one()
    for gi in gs:
        product = product * gi
    factorial = 1
    for k in range(2, t):
        factorial *= k
    expected = product.scale(factorial)
    gt1 = Bt.reduce(g ** (t - 1))
    report.add("g^(t-1) nonzero",
               "g^(t-1) equals (t-1)! f (x) ... (x) f and is not zero",
               (not gt1.is_zero()) and gt1 == Bt.reduce(expected),
               {"g_power": format_polynomial(gt1)})
    return TensorPowerResult(Bt, gs, Bt.reduce(g), _finish(report, started))


@dataclass
class KillingStepResult:
    algebra: QuotientAlgebra     # R'
    embedding: AlgebraMap        # iota : R -> R'
    report: VerificationReport


def killing_step(R: QuotientAlgebra, r: Polynomial, *, n: int = 5,
                 cap: int = DIMENSION_CAP,
                 budget: int = DEFAULT_BUDGET) -> KillingStepResult:
    """One differential-killing extension: with t the nilpotency index of r,
    form R' = R (x) B_t / (r (x) 1 - 1 (x) g) and the canonical embedding.

    Verifies that R' is finite dimensional, that the embedding is injective
    (by exact rank on the staircase bases, which the construction guarantees),
    and that the image of r has zero differential in R'.
    """
    started = time.perf_counter()
    r_reduced = R.reduce(r)
    if r_reduced.is_zero():
        raise ValueError("r must be nonzero in R")
    t = nilpotency_index(R, r_reduced)
    if t is None:
        raise ValueError("r must be nilpotent")
    # cap the projected product dimension before any tensor is built
    B, _ = gabber_B(n, R.field, budget=budget)
    projected = R.dimension * B.dimension ** (t - 1)
    if projected > cap:
        raise CapExceededError(
            f"killing step dimension {projected} exceeds the cap {cap}")
    tensor = B_tensor_power(B, n, t, cap=cap, budget=budget)
    Bt = tensor.algebra
    # R (x) B_t keeps the union of the two bases; only the relation
    # r (x) 1 - 1 (x) g costs a Buchberger run, and its staircase is never
    # enumerated
    big, renames = tensor_quotient([R, Bt], budget=budget)
    r_emb = cast(r_reduced, big.ring, renames[0])
    g_emb = cast(tensor.summed, big.ring, renames[1])
    Rp = quotient_by(big, [r_emb - g_emb], budget=budget)
    iota = make_map(R, Rp, {name: Rp.ring.variable(renames[0][name])
                            for name in R.ring.names})
    report = VerificationReport(
        "killing_step",
        {"n": n, "t": t, "r": format_polynomial(r_reduced), "field": str(R.field)})
    report.add("R' finite dimensional",
               "R' = R (x) B_t / (r (x) 1 - 1 (x) g) is a finite dimensional local algebra",
               Rp.is_finite and is_local_with_nilpotent_generators(Rp),
               {"dimension": Rp.dimension})
    report.add("embedding injective",
               "the canonical map R -> R' is injective (rank equals dim R)",
               is_injective(iota),
               {"dim_R": R.dimension})
    report.add("dr dies",
               "the image of r in R' has zero differential: d(iota(r)) = 0",
               kaehler(Rp).is_d_zero(iota.apply(r_reduced)))
    return KillingStepResult(Rp, iota, _finish(report, started))


@dataclass
class KillAllResult:
    algebra: QuotientAlgebra     # the final extension
    embedding: AlgebraMap | None  # composite R -> final
    report: VerificationReport
    killed: list                 # the maximal-ideal basis elements processed


def kill_all_differentials(R: QuotientAlgebra, *, n: int = 5,
                           cap: int = DIMENSION_CAP,
                           budget: int = DEFAULT_BUDGET) -> KillAllResult:
    """Iterate killing_step over a basis of the maximal ideal so that the
    composite map kills the whole differential module.

    The basis is the set of positive-degree staircase monomials in monomial
    order.  When the dimension cap is hit, the chain built so far is returned
    with status "cap" rather than silently truncating the claims.
    """
    started = time.perf_counter()
    if not is_local_with_nilpotent_generators(R):
        raise ValueError("input must be a finite-dimensional local algebra "
                         "with nilpotent generators")
    field_one = R.field.one()
    maximal_basis = [Polynomial(R.ring, {m: field_one})
                     for m in R.basis_monomials() if m != ()]
    report = VerificationReport(
        "kill_all_differentials",
        {"dim_R": R.dimension, "basis_size": len(maximal_basis),
         "field": str(R.field), "cap": cap})
    current = R
    embedding: AlgebraMap | None = None
    killed: list = []
    for e in maximal_basis:
        r = e if embedding is None else embedding.apply(e)
        if current.is_zero_element(r):
            killed.append(format_polynomial(e))
            continue
        try:
            step = killing_step(current, r, n=n, cap=cap, budget=budget)
        except CapExceededError as exc:
            report.status = STATUS_CAP
            report.add("cap honored",
                       "the chain stops and reports when the dimension cap would "
                       "be exceeded instead of truncating claims silently",
                       True, {"stopped_at": format_polynomial(e), "reason": str(exc)})
            return KillAllResult(current, embedding, _finish(report, started), killed)
        report.fold(f"kill {format_polynomial(e)}", step.report.claims)
        killed.append(format_polynomial(e))
        embedding = step.embedding if embedding is None else compose(step.embedding, embedding)
        current = step.algebra
    if embedding is None:
        report.add("nothing to kill",
                   "the maximal ideal is zero, so the differential module already dies",
                   True)
    else:
        report.add("composite kills differentials",
                   "the composite embedding induces the zero map on the differential module",
                   is_zero_induced_map(embedding),
                   {"final_dimension": current.dimension})
    return KillAllResult(current, embedding, _finish(report, started), killed)


@dataclass
class SequenceResult:
    algebras: list
    embeddings: list
    report: VerificationReport


def gabber_sequence(steps: int, *, start: QuotientAlgebra | None = None,
                    n: int = 5, cap: int = DIMENSION_CAP,
                    budget: int = DEFAULT_BUDGET) -> SequenceResult:
    """Build the chain R_0 into R_1 into ... by repeatedly killing all
    differentials, verifying at each stage: the base properly contains the
    coefficient field, every stage is finite dimensional local with residue
    field k, and each inclusion induces the zero map on differentials."""
    started = time.perf_counter()
    if steps < 1:
        raise ValueError("at least one step is required")
    R0 = start if start is not None else gabber_B(n)[0]
    report = VerificationReport(
        "sequence", {"steps": steps, "start_dimension": R0.dimension,
                     "field": str(R0.field), "cap": cap})
    report.add("proper inclusion",
               "k -> R_0 is proper: dim R_0 > 1",
               R0.dimension > 1, {"dimension": R0.dimension})
    algebras = [R0]
    embeddings: list = []
    for i in range(steps):
        current = algebras[-1]
        report.add(f"stage {i} local",
                   "each stage is a finite dimensional local algebra with residue field k",
                   current.is_finite and is_local_with_nilpotent_generators(current),
                   {"dimension": current.dimension})
        result = kill_all_differentials(current, n=n, cap=cap, budget=budget)
        report.fold(f"stage {i}", result.report.claims)
        if result.report.status == STATUS_CAP:
            report.status = STATUS_CAP
            break
        algebras.append(result.algebra)
        embeddings.append(result.embedding)
        report.add(f"stage {i} kills differentials",
                   "the inclusion into the next stage induces the zero map on differentials",
                   result.embedding is None or is_zero_induced_map(result.embedding),
                   {"next_dimension": result.algebra.dimension})
    return SequenceResult(algebras, embeddings, _finish(report, started))


# ---------------------------------------------------------------------------
# Characteristic p towers
# ---------------------------------------------------------------------------

@dataclass
class TowerResult:
    algebras: list
    maps: list
    report: VerificationReport


def charp_tower(p: int, n_max: int, *, budget: int = DEFAULT_BUDGET) -> TowerResult:
    """Finite stages of the p-th root tower: A_n = F_p[Y]/(Y^(p^n)) models the
    ring generated by the p^n-th root of a killed element, with transitions
    Y -> Y'^p.  Each stage is non-reduced with nonzero differential module,
    and every transition induces the zero map on differentials because
    d(y'^p) = p y'^(p-1) dy' = 0."""
    started = time.perf_counter()
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    field = prime_field(p)
    report = VerificationReport("charp_tower", {"p": p, "n_max": n_max})
    algebras = []
    for n in range(1, n_max + 2):
        ring = PolyRing(field, ("Y",))
        algebras.append(make_quotient(
            Presentation(ring, (ring.variable("Y") ** (p ** n),)), budget=budget))
    maps = []
    for n in range(1, n_max + 1):
        A = algebras[n - 1]
        report.add(f"A_{n} non-reduced",
                   "the root generator is a nonzero nilpotent, so the stage is not reduced",
                   has_nonzero_nilpotent(A), {"dimension": A.dimension})
        report.add(f"A_{n} differentials nonzero",
                   "the differential module of each finite stage is nonzero",
                   not is_omega_zero(A))
        target = algebras[n]
        step = make_map(A, target, {"Y": target.ring.variable("Y") ** p})
        maps.append(step)
        report.add(f"A_{n} transition kills differentials",
                   "d of a p-th power vanishes: the transition induces the zero map",
                   is_zero_induced_map(step))
    for i in range(len(maps) - 1):
        double = compose(maps[i + 1], maps[i])
        report.add(f"A_{i + 1} double transition zero",
                   "zero maps compose to zero across two stages",
                   is_zero_induced_map(double))
    return TowerResult(algebras[:n_max], maps, _finish(report, started))


def twisted_example(p: int, n: int, *, trials: int = 50, seed: int = 0,
                    budget: int = DEFAULT_BUDGET) -> TowerResult:
    """The non-perfect-base example: over L = F_p(x) the algebra
    A_n = L[U, Z]/(U^(p^n) - x - Z, Z^2) carries the twisted L-structure
    f(x) -> f(x) + f'(x) z.  Verifies the non-reducedness, dz = 0, the ring
    homomorphism law of the twist on seeded random rational functions, and
    that the transition U -> U'^p kills the differentials."""
    started = time.perf_counter()
    if n < 1:
        raise ValueError("n must be at least 1")
    L = rational_functions(p)
    report = VerificationReport(
        "twisted", {"p": p, "n": n, "trials": trials, "seed": seed})

    def stage(level: int) -> QuotientAlgebra:
        ring = PolyRing(L, ("U", "Z"))
        U, Z = ring.variable("U"), ring.variable("Z")
        x = ring.from_scalar(L.generator())
        return make_quotient(
            Presentation(ring, (U ** (p ** level) - x - Z, Z ** 2)), budget=budget)

    A = stage(n)
    Z = A.ring.variable("Z")
    report.add("z nonzero nilpotent",
               "z is not zero but z^2 = 0: the algebra is non-reduced",
               (not A.is_zero_element(Z)) and A.is_zero_element(Z ** 2),
               {"dimension": A.dimension})
    module = kaehler(A)
    report.add("dz zero",
               "dz = d(u^(p^n)) - dx = 0 via the defining relation",
               module.is_d_zero(Z))
    report.add("dU survives",
               "the differential module of each finite stage is nonzero (dU generates)",
               not module.is_zero())

    rng = random.Random(seed)

    def random_rational() -> FieldElement:
        def poly() -> tuple:
            return tuple(rng.randrange(p) for _ in range(rng.randrange(1, 4)))
        num = poly()
        den = poly()
        while not any(den):
            den = poly()
        return L.from_ratio(num, den)

    def twist(fx: FieldElement) -> Polynomial:
        return A.ring.from_scalar(fx) + Z.scale(formal_derivative(fx))

    failures = 0
    for _ in range(trials):
        a, b = random_rational(), random_rational()
        lhs = A.reduce(twist(a * b))
        rhs = A.reduce(twist(a) * twist(b))
        if lhs != rhs:
            failures += 1
    report.add("twist is multiplicative",
               "f -> f + f' z respects products because z^2 = 0",
               failures == 0, {"pairs": trials, "failures": failures})

    target = stage(n + 1)
    step = make_map(A, target, {"U": target.ring.variable("U") ** p,
                                "Z": target.ring.variable("Z")})
    images = induced_map_on_omega(step)
    du_image = images[A.ring.index("U")]
    report.add("transition kills dU",
               "U -> U'^p sends dU to p U'^(p-1) dU' = 0",
               du_image.is_zero())
    report.add("transition kills differentials",
               "the full induced map on differentials is zero",
               all(v.is_zero() for v in images))
    return TowerResult([A, target], [step], _finish(report, started))


# ---------------------------------------------------------------------------
# The local reducedness harness
# ---------------------------------------------------------------------------

def check_theorem_local_case(entries, *, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Instance-wise check over Artinian local algebras: a zero differential
    module forces the algebra to be the ground field (dimension 1), and over
    a perfect base every non-reduced member has nonzero differentials."""
    started = time.perf_counter()
    entries = list(entries)
    report = VerificationReport("local_case", {"entries": len(entries)})
    for name, algebra in entries:
        if not algebra.is_finite or not is_local_with_nilpotent_generators(algebra):
            raise ValueError(f"corpus entry {name!r} is not Artinian local "
                             "with nilpotent generators")
        omega_zero = is_omega_zero(algebra)
        if omega_zero:
            report.add(f"{name}: unramified is a field",
                       "zero differential module forces dimension 1",
                       algebra.dimension == 1,
                       {"dimension": algebra.dimension})
        perfect_base = algebra.field.kind in (RATIONALS, PRIME_FIELD)
        if perfect_base and algebra.dimension > 1:
            report.add(f"{name}: non-reduced ramifies",
                       "over a perfect base a non-reduced algebra has nonzero differentials",
                       not omega_zero,
                       {"dimension": algebra.dimension})
        if not omega_zero and algebra.dimension == 1:
            # cannot happen; recorded for completeness when it would
            report.add(f"{name}: inconsistent", "dimension 1 with nonzero differentials",
                       False)
    return _finish(report, started)


def standard_local_corpus(count: int = 20, seed: int = 0, *,
                          budget: int = DEFAULT_BUDGET) -> list:
    """Seeded random Artinian local presentations over the rationals plus the
    named algebras every report exercises."""
    rng = random.Random(seed)
    corpus: list = []

    ring0 = PolyRing(QQ, ())
    corpus.append(("ground field", make_quotient(Presentation(ring0, ()), budget=budget)))
    ringz = PolyRing(QQ, ("Z",))
    Zv = ringz.variable("Z")
    corpus.append(("dual numbers", make_quotient(Presentation(ringz, (Zv ** 2,)), budget=budget)))
    corpus.append(("collapsed line", make_quotient(Presentation(ringz, (Zv,)), budget=budget)))
    corpus.append(("B(5)", gabber_B(5, QQ, budget=budget)[0]))
    for p, nn in ((2, 1), (2, 2), (3, 1)):
        field = prime_field(p)
        ring = PolyRing(field, ("Y",))
        corpus.append((f"root stage p={p} n={nn}",
                       make_quotient(Presentation(ring, (ring.variable("Y") ** (p ** nn),)),
                                     budget=budget)))

    names = ("X", "Y", "Z")
    for k in range(count):
        nvars = rng.randrange(1, 4)
        ring = PolyRing(QQ, names[:nvars])
        relations = [ring.variable(names[i]) ** rng.randrange(2, 5)
                     for i in range(nvars)]
        for _ in range(rng.randrange(0, 3)):
            # an extra relation inside the maximal ideal
            terms = ring.zero()
            for _ in range(rng.randrange(1, 4)):
                mono = {names[i]: rng.randrange(0, 3) for i in range(nvars)}
                mono = {v: e for v, e in mono.items() if e}
                if not mono:
                    mono = {names[rng.randrange(nvars)]: 1}
                terms = terms + ring.monomial(mono, rng.choice((-2, -1, 1, 2, 3)))
            if not terms.is_zero():
                relations.append(terms)
        corpus.append((f"random #{k}",
                       make_quotient(Presentation(ring, tuple(relations)), budget=budget)))
    return corpus


# ---------------------------------------------------------------------------
# The Euler identity on random homogeneous polynomials
# ---------------------------------------------------------------------------

def _random_homogeneous(rng: random.Random, field: FieldDescriptor,
                        max_vars: int = 4, max_weight: int = 4,
                        max_degree: int = 12):
    nvars = rng.randrange(1, max_vars + 1)
    names = tuple(f"X{i}" for i in range(1, nvars + 1))
    weights = tuple(rng.randrange(1, max_weight + 1) for _ in range(nvars))
    ring = PolyRing(field, names, weights)
    for _ in range(50):
        degree = rng.randrange(1, max_degree + 1)
        monos = monomials_of_weighted_degree(ring, degree)
        if monos:
            break
    else:
        return ring, ring.zero(), 0
    chosen = rng.sample(monos, k=min(len(monos), rng.randrange(1, 5)))
    terms = {}
    for m in chosen:
        c = field.from_int(rng.randrange(1, 7))
        if not c.is_zero():
            terms[m] = c
    return ring, Polynomial(ring, terms), degree


def euler_identity_check(field: FieldDescriptor = QQ, *, trials: int = 100,
                         seed: int = 0) -> VerificationReport:
    """Seeded random homogeneous polynomials with random positive weights:
    applying the weighted Euler operator must multiply by the degree, exactly."""
    started = time.perf_counter()
    rng = random.Random(seed)
    failures = 0
    checked = 0
    for _ in range(trials):
        ring, g, degree = _random_homogeneous(rng, field)
        if g.is_zero():
            continue
        checked += 1
        if euler_apply(g) != g.scale(degree):
            failures += 1
    report = VerificationReport(
        "euler", {"field": str(field), "trials": trials, "seed": seed})
    report.add("euler identity",
               "for homogeneous G the weighted Euler operator returns deg(G) * G",
               failures == 0, {"checked": checked, "failures": failures})
    return _finish(report, started)
