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
from dataclasses import dataclass, field as dataclass_field

from .algebras import (
    AlgebraMap,
    Presentation,
    QuotientAlgebra,
    artinian_local_model,
    compose,
    has_nonzero_nilpotent,
    jordan_type,
    make_map,
    make_quotient,
    quotient_by,
    renaming_map,
    tensor_quotient,
)
from .differentials import (
    DZeroCertificate,
    _outside_m_squared,
    certifies_d_zero,
    is_omega_zero,
    is_zero_induced_map,
    kaehler,
)
from .errors import CapExceededError
from .fields import (
    PRIME_FIELD,
    RATIONALS,
    QQ,
    FieldDescriptor,
    FieldElement,
    formal_derivative,
    prime_field,
    rational_functions,
)
from .polynomials import (
    PolyRing,
    Polynomial,
    cast,
    euler_apply,
    format_polynomial,
    monomials_of_weighted_degree,
    partial_derivative,
)

DIMENSION_CAP = 20000

# the exponent n of Gabber's B(n) that the killing chain tensors with
KILLING_N = 5

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

    def to_json_dict(self, elapsed_ms: float | None = None) -> dict:
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
            # a report holds no time of its own: the caller that measured one
            # passes it, so repeated runs without it are byte-identical
            "elapsed_ms": elapsed_ms,
        }

    def to_json(self, elapsed_ms: float | None = None) -> str:
        return canonical_json(self.to_json_dict(elapsed_ms))


def canonical_json(payload) -> str:
    """The one JSON form of every report and payload: sorted keys, indent 2,
    so repeated runs are byte-identical."""
    return json.dumps(payload, indent=2, sort_keys=True)


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
             allow_positive_characteristic: bool = False):
    """The local algebra B = k[[X,Y]]/(X F1, Y F2) with F = X^2 Y^2 + X^n + Y^n,
    realized as the local model P/(I + m^N), together with the image f of F.

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
    B = artinian_local_model(ring, [X * F1, Y * F2])
    return B, B.reduce(F)


def verify_preparatory(n: int, field: FieldDescriptor = QQ, *,
                       allow_positive_characteristic: bool = False) -> VerificationReport:
    """Verify every claim made about B: finite dimension, f nonzero with zero
    square, df = 0, the vanishing x y^3, the membership Y^2 in (F1, F2), and
    the exact cofactor identity behind it."""
    report = VerificationReport("preparatory", {"n": n, "field": str(field)})
    B, f = gabber_B(n, field, allow_positive_characteristic=allow_positive_characteristic)
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

    local_f1f2 = artinian_local_model(ring, [F1, F2])
    report.add("Y^2 in (F1, F2)",
               "Y^2 lies in the ideal (F1, F2) of the power series ring",
               local_f1f2.is_zero_element(Y ** 2),
               {"dimension_of_model": local_f1f2.dimension})
    return report


# ---------------------------------------------------------------------------
# Tensor powers and the killing step
# ---------------------------------------------------------------------------

@dataclass
class TensorPowerResult:
    algebra: QuotientAlgebra
    factor_elements: list        # g_i = f placed in factor i
    report: VerificationReport


def B_tensor_power(B: QuotientAlgebra, t: int) -> TensorPowerResult:
    """The tensor product of t-1 copies of B = gabber_B(KILLING_N, field)[0]
    over its coefficient field, with g_i the copy of f in factor i and g
    their sum.  Verifies g^t = 0 while g^(t-1) = (t-1)! f (x) ... (x) f is
    nonzero: then u -> g embeds A = k[u]/(u^t) in B_t.  No cap is checked
    here: killing_step's cap on dim R' >= dim B_t covers it."""
    if t < 2:
        raise ValueError("tensor power needs t >= 2 (at least one factor)")
    field = B.field
    copies = t - 1
    projected = B.dimension ** copies
    Bt, renames = tensor_quotient([B] * copies)
    _, _, _, F, _, _ = _b_ingredients(KILLING_N, field)
    gs = [cast(F, Bt.ring, renames[i]) for i in range(copies)]
    g = Bt.ring.zero()
    for gi in gs:
        g = g + gi
    report = VerificationReport("tensor_power",
                                {"n": KILLING_N, "t": t, "field": str(field)})
    report.add("dimension multiplies",
               "dim of the tensor product is the product of the factor dimensions",
               Bt.dimension == projected,
               {"dimension": Bt.dimension})
    # powers are taken in B_t, reducing after each multiplication; normal
    # forms are unique, so they equal the reductions of the expanded powers
    g = Bt.reduce(g)
    gt1 = g
    for _ in range(t - 2):
        gt1 = Bt.reduce(gt1 * g)
    report.add("g^t zero",
               "g = g_1 + ... + g_(t-1) has g^t = 0",
               Bt.is_zero_element(gt1 * g))
    product = Bt.ring.one()
    for gi in gs:
        product = product * gi
    factorial = 1
    for k in range(2, t):
        factorial *= k
    expected = product.scale(factorial)
    report.add("g^(t-1) nonzero",
               "g^(t-1) equals (t-1)! f (x) ... (x) f and is not zero",
               (not gt1.is_zero()) and gt1 == Bt.reduce(expected),
               {"g_power": format_polynomial(gt1)})
    return TensorPowerResult(Bt, gs, report)


@dataclass
class KillingStepResult:
    algebra: QuotientAlgebra     # R'
    embedding: AlgebraMap        # iota : R -> R'
    report: VerificationReport
    certificate: DZeroCertificate  # d(r) = 0, in the ring of R'
    rename: dict                 # variable names of R -> their names in R'


def _killing_certificate(r: Polynomial, relation: Polynomial,
                         parts: list) -> DZeroCertificate:
    """d(r) = d(r - g) + sum_i d(g_i) with r - g the relation added to form
    R' and g the sum of the parts g_i.  Each g_i is a renamed copy of F,
    whose partials X F1 and Y F2 are relations of B, so every component of
    d(g_i) is a renamed relation of R'; all cofactors are 1."""
    ring = r.ring
    one = ring.one()
    terms = [(one, relation, None)]
    for g in parts:
        for name in ring.names:
            partial = partial_derivative(g, name)
            if not partial.is_zero():
                terms.append((one, partial, name))
    return DZeroCertificate(r, tuple(terms))


def _tensor_sum_type(jordan: dict, copies: int) -> dict:
    """The Jordan type (block size -> number of blocks) of g_1 + ... + g_copies
    on a tensor product of `copies` spaces, g_i acting in factor i by a
    nilpotent of Jordan type `jordan`.  It is built factor by factor with the
    Clebsch-Gordan rule
        J_a (x) 1 + 1 (x) J_b = J_(a+b-1) + J_(a+b-3) + ... + J_(|a-b|+1),
    which holds in characteristic zero only: its one caller, killing_step,
    refuses a positive characteristic first."""
    total = {1: 1}  # the zero map on the ground field
    for _ in range(copies):
        combined: dict = {}
        for a, ma in total.items():
            for b, mb in jordan.items():
                for size in range(a + b - 1, abs(a - b), -2):
                    combined[size] = combined.get(size, 0) + ma * mb
        total = combined
    return total


def _stage_type(R: QuotientAlgebra, r: Polynomial) -> dict:
    """The Jordan type of r on R.  When R is a killing step's R', which
    carries its decomposition as a module over the step's source P, and r
    is the copy of a variable y of P, it is read on the summands: R' is the
    sum over b of Q_b^(n_b), so
        type(r on R') = sum over b of n_b * type(y on Q_b).
    This is the depth-one case.  Any other r, such as a copy variable of
    B_t, or an R that no step made, is walked explicitly (`jordan_type`)."""
    if R.killing_origin is not None:
        rename, summands = R.killing_origin
        for y, name in rename.items():
            if r == R.ring.variable(name):
                total: dict = {}
                for n, Q in summands:
                    for size, m in jordan_type(Q, Q.ring.variable(y)).items():
                        total[size] = total.get(size, 0) + n * m
                return total
    return jordan_type(R, r)


def _refuse_positive_characteristic(field: FieldDescriptor):
    """The killing step needs characteristic zero; the step and every chain
    of steps call this before any work."""
    if field.characteristic != 0:
        raise ValueError("the killing step needs characteristic zero: the "
                         "Clebsch-Gordan rule gives the Jordan type of g only there")


def killing_step(R: QuotientAlgebra, r: Polynomial, *,
                 cap: int = DIMENSION_CAP) -> KillingStepResult:
    """One differential-killing extension: with t the nilpotency index of r,
    its largest Jordan block on R, form R' = R (x) B_t / (r (x) 1 - 1 (x) g),
    with B_t the tensor power of B(KILLING_N), and the canonical embedding.

    R' = R (x)_A B_t over A = k[u]/(u^t), with u acting by r on R and by g on
    B_t, so every claim is decided from R and B, and R' never builds its
    Groebner basis here; it does on first use of a normal form.
    - The dimension is exact: Jordan blocks of sizes a and b give
      A/u^a (x)_A A/u^b = A/u^min(a,b), so dim R' is the sum of min(a, b)
      over pairs of blocks of r on R and of g on B_t.  The type of r is read
      off quotients of R, or off the summands R carries when R is itself a
      step's R' and r the copy of a parent variable (`_stage_type`); r is
      nonzero exactly when its largest block t is at least 2.  The type of
      g comes from the type of f on B by the Clebsch-Gordan rule
      (`_tensor_sum_type`).  The cap is checked against it before any
      tensor is built, and only here: R has a block of size t, a free
      summand A (A is self-injective), so dim R' >= dim B_t and no tensor
      the step builds can exceed the cap.
    - R' is finite dimensional by that count, which it is assigned as its
      dimension, provided the type of g fills B_t and has largest block t,
      which the claim checks.  It is local because every generator of R
      (tested once, on R) and of B_t (B is the local model P/(I + m^N)) is
      nilpotent, and R' is not zero because R embeds in it.  When this
      claim and the embedding's pass, R' carries that locality, and no
      later test walks its generators' powers.  It also carries
      `killing_origin` = (the renaming, the pairs (n_b, Q_b)): as an
      R-module R' is the sum of (R/r^b R)^(n_b), n_b the number of blocks
      of size b of g, and Q_b = R/r^b R is R itself for b = t and otherwise
      a quotient whose basis is built once, when a later step first reads
      a type on R' (`_stage_type`).
    - The embedding maps each variable to its renamed copy; every relation
      of R, renamed, is a presentation relation of R', so it is well
      defined.  It is injective when the B_t report passes: the embedding
      A -> B_t that g^(t-1) != 0 gives splits, and R = R (x)_A A ->
      R (x)_A B_t is split injective; r^t = 0 by the choice of t.
    - The image of r has zero differential by an explicit identity
      (`_killing_certificate`), not a Groebner basis of the differential
      module; the result carries that certificate.  The relation added is
      r - (g_1 + ... + g_(t-1)) with r as given and g unreduced, which the
      identity needs; any representatives of r and g give the same R'.
    No staircase larger than R's is enumerated.  A field of positive
    characteristic is refused before any work: the Clebsch-Gordan rule
    holds in characteristic zero only.
    """
    _refuse_positive_characteristic(R.field)
    r_type = _stage_type(R, r)
    t = max(r_type, default=1)
    if t < 2:
        raise ValueError("r must be nonzero in R")
    B, f = gabber_B(KILLING_N, R.field)
    g_type = _tensor_sum_type(jordan_type(B, f), t - 1)
    dimension = sum(m * n * min(a, b) for a, m in r_type.items()
                    for b, n in g_type.items())
    if dimension > cap:
        raise CapExceededError(
            f"killing step dimension {dimension} exceeds the cap {cap}")
    tensor = B_tensor_power(B, t)
    Bt = tensor.algebra
    big, renames = tensor_quotient([R, Bt])
    r_emb = cast(r, big.ring, renames[0])
    parts = [cast(gi, big.ring, renames[1]) for gi in tensor.factor_elements]
    relation = r_emb
    for part in parts:
        relation = relation - part
    Rp = quotient_by(big, [relation])
    Rp.dimension = dimension
    iota = renaming_map(R, Rp, renames[0])
    certificate = _killing_certificate(r_emb, relation, parts)
    report = VerificationReport(
        "killing_step",
        {"n": KILLING_N, "t": t, "r": format_polynomial(r),
         "field": str(R.field)})
    local = report.add(
        "R' finite dimensional",
        "R' = R (x) B_t / (r (x) 1 - 1 (x) g) is a finite dimensional local algebra",
        R.local_with_nilpotent_generators and max(g_type) == t
        and sum(b * n for b, n in g_type.items()) == Bt.dimension,
        {"dimension": Rp.dimension})
    embedded = report.add("embedding injective",
                          "the canonical map R -> R' is injective (rank equals dim R)",
                          tensor.report.passed,
                          {"dim_R": R.dimension})
    if local and embedded:
        Rp.local_with_nilpotent_generators = True
        Rp.killing_origin = (renames[0], tuple(
            (n, R if b == t else quotient_by(R, [r ** b])) for b, n in g_type.items()))
    report.add("dr dies",
               "the image of r in R' has zero differential: d(iota(r)) = 0",
               certifies_d_zero(Rp, certificate, r_emb))
    return KillingStepResult(Rp, iota, report, certificate, renames[0])


def verify_killing(*, cap: int = DIMENSION_CAP) -> VerificationReport:
    """The two standard killing-step instances: B(5) with r = f, and the dual
    numbers with r = z (including the full zero-induced-map check)."""
    report = VerificationReport("killing", {"field": "QQ"})
    B, f = gabber_B(5, QQ)
    report.fold("B(5), r=f", killing_step(B, f, cap=cap).report.claims)
    ring = PolyRing(QQ, ("Z",))
    Z = ring.variable("Z")
    dual = make_quotient(Presentation(ring, (Z ** 2,)))
    step = killing_step(dual, Z, cap=cap)
    report.fold("dual numbers, r=z", step.report.claims)
    report.add("dual numbers, r=z: zero induced map",
               "the embedding kills the whole differential module of the source",
               is_zero_induced_map(step.embedding, {"Z": step.certificate}),
               {"target_dimension": step.algebra.dimension})
    return report


@dataclass
class KillAllResult:
    algebra: QuotientAlgebra     # the final extension
    embedding: AlgebraMap | None  # composite R -> final
    report: VerificationReport
    killed: list                 # the ring generators processed, in order
    certificates: dict           # generator of R -> certificate in the final ring


def kill_all_differentials(R: QuotientAlgebra, *, cap: int = DIMENSION_CAP,
                           known=()) -> KillAllResult:
    """Iterate killing_step over the ring generators so that the composite
    map kills the whole differential module, which the dX_i generate.

    The generators are taken in ascending monomial order; one whose
    differential is already zero in the current stage (a zero image
    included) is skipped.  Where a fact settles it, that is decided without
    a differential module: a certificate in hand proves d = 0, and an image
    on which a derivation to k is nonzero, one outside m^2, has d != 0
    (`_outside_m_squared`).  `known` holds the certificates R comes with,
    such as those a previous stage of a chain ends with; each is checked
    once, against R's generators and in R, before any step, since
    renaming into a later stage keeps its identity and its relations.
    Only the remaining generators are tested in the stage's differential
    module.  When the dimension cap is hit, the chain built so far is
    returned with status "cap" rather than silently truncating the claims.

    Every embedding renames variables and keeps every relation, so the
    chain is one renaming of R's variables: a generator's image is its
    renamed variable, unreduced (d, derivations and certificates are
    defined on classes), and the composite embedding, built once by
    `renaming_map`, is that renaming.  The composite claim checks each
    step's certificate, renamed forward, in the final algebra; a generator
    with none, or whose certified element is not its image, is reduced or
    tested there in the differential module.  A field of positive
    characteristic is refused before any work, even when nothing is left
    to kill.
    """
    _refuse_positive_characteristic(R.field)
    if not R.local_with_nilpotent_generators:
        raise ValueError("input must be a finite-dimensional local algebra "
                         "with nilpotent generators")
    ring = R.ring
    order = sorted(ring.names, key=lambda n: ring.monomial_key(ring.variable(n).leading()[0]))
    report = VerificationReport(
        "kill_all_differentials",
        {"dim_R": R.dimension, "generators": len(order),
         "field": str(R.field), "cap": cap})
    current = R
    names = {n: n for n in ring.names}  # variable of R -> its name in current
    killed: list = []
    generators = {ring.variable(n): n for n in ring.names}
    # generator name -> certificate in current's ring
    certificates = {generators[c.element]: c for c in known
                    if c.element in generators and certifies_d_zero(R, c, c.element)}
    for name in order:
        r = current.ring.variable(names[name])
        if name in certificates or (not _outside_m_squared(current, r)
                                    and kaehler(current).is_d_zero(r)):
            killed.append(name)
            continue
        try:
            step = killing_step(current, r, cap=cap)
        except CapExceededError as exc:
            report.status = STATUS_CAP
            report.add("cap honored",
                       "the chain stops and reports when the dimension cap would "
                       "be exceeded instead of truncating claims silently",
                       True, {"stopped_at": name, "reason": str(exc)})
            break
        report.fold(f"kill {name}", step.report.claims)
        killed.append(name)
        certificates = {n: c.renamed(step.algebra.ring, step.rename)
                        for n, c in certificates.items()}
        certificates[name] = step.certificate
        names = {n: step.rename[m] for n, m in names.items()}
        current = step.algebra
    composite = None if current is R else renaming_map(R, current, names)
    if report.status == STATUS_CAP:
        return KillAllResult(current, composite, report, killed, certificates)
    if composite is None:
        report.add("nothing to kill",
                   "the maximal ideal is zero, so the differential module already dies",
                   True)
    else:
        report.add("composite kills differentials",
                   "the composite embedding induces the zero map on the differential module",
                   is_zero_induced_map(composite, certificates),
                   {"final_dimension": current.dimension})
    return KillAllResult(current, composite, report, killed, certificates)


@dataclass
class SequenceResult:
    algebras: list
    embeddings: list
    report: VerificationReport


def gabber_sequence(steps: int, *, start: QuotientAlgebra | None = None,
                    cap: int = DIMENSION_CAP) -> SequenceResult:
    """Build the chain R_0 into R_1 into ... by repeatedly killing all
    differentials, verifying at each stage: the base properly contains the
    coefficient field, every stage is finite dimensional local with residue
    field k, and each inclusion induces the zero map on differentials.  A
    start that is not finite dimensional, or over a field of positive
    characteristic, is refused before any claim."""
    if steps < 1:
        raise ValueError("at least one step is required")
    R0 = start if start is not None else gabber_B(KILLING_N)[0]
    _refuse_positive_characteristic(R0.field)
    if not R0.is_finite:
        raise ValueError("the start algebra must be finite dimensional")
    report = VerificationReport(
        "sequence", {"steps": steps, "start_dimension": R0.dimension,
                     "field": str(R0.field), "cap": cap})
    report.add("proper inclusion",
               "k -> R_0 is proper: dim R_0 > 1",
               R0.dimension > 1, {"dimension": R0.dimension})
    algebras = [R0]
    embeddings: list = []
    known: tuple = ()            # d = 0 certificates in the last stage's ring
    for i in range(steps):
        current = algebras[-1]
        report.add(f"stage {i} local",
                   "each stage is a finite dimensional local algebra with residue field k",
                   current.is_finite and current.local_with_nilpotent_generators,
                   {"dimension": current.dimension})
        result = kill_all_differentials(current, cap=cap, known=known)
        report.fold(f"stage {i}", result.report.claims)
        if result.report.status == STATUS_CAP:
            report.status = STATUS_CAP
            break
        algebras.append(result.algebra)
        embeddings.append(result.embedding)
        known = tuple(result.certificates.values())
        # the last claim of a finished kill-all, folded in above, checks the
        # composite embedding on differentials ("nothing to kill" without one)
        report.add(f"stage {i} kills differentials",
                   "the inclusion into the next stage induces the zero map on differentials",
                   result.report.claims[-1].passed,
                   {"next_dimension": result.algebra.dimension})
    return SequenceResult(algebras, embeddings, report)


# ---------------------------------------------------------------------------
# Characteristic p towers
# ---------------------------------------------------------------------------

@dataclass
class TowerResult:
    algebras: list
    report: VerificationReport


def charp_tower(p: int, n_max: int) -> TowerResult:
    """Finite stages of the p-th root tower: A_n = F_p[Y]/(Y^(p^n)) models the
    ring generated by the p^n-th root of a killed element, with transitions
    Y -> Y'^p.  Each stage is non-reduced with nonzero differential module,
    and every transition induces the zero map on differentials because
    d(y'^p) = p y'^(p-1) dy' = 0."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    field = prime_field(p)
    report = VerificationReport("charp_tower", {"p": p, "n_max": n_max})
    algebras = []
    for n in range(1, n_max + 2):
        ring = PolyRing(field, ("Y",))
        algebras.append(make_quotient(
            Presentation(ring, (ring.variable("Y") ** (p ** n),))))
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
    return TowerResult(algebras[:n_max], report)


def twisted_example(p: int, n: int, *, trials: int = 50, seed: int = 0) -> TowerResult:
    """The non-perfect-base example: over L = F_p(x) the algebra
    A_n = L[U, Z]/(U^(p^n) - x - Z, Z^2) carries the twisted L-structure
    f(x) -> f(x) + f'(x) z.  Verifies the non-reducedness, dz = 0, the ring
    homomorphism law of the twist on seeded random rational functions, and
    that the transition U -> U'^p kills the differentials."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    L = rational_functions(p)
    report = VerificationReport(
        "twisted", {"p": p, "n": n, "trials": trials, "seed": seed})

    def stage(level: int) -> QuotientAlgebra:
        ring = PolyRing(L, ("U", "Z"))
        U, Z = ring.variable("U"), ring.variable("Z")
        x = ring.from_scalar(L.generator())
        return make_quotient(
            Presentation(ring, (U ** (p ** level) - x - Z, Z ** 2)))

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
    report.add("transition kills dU",
               "U -> U'^p sends dU to p U'^(p-1) dU' = 0",
               kaehler(target).is_d_zero(step.images["U"]))
    report.add("transition kills differentials",
               "the full induced map on differentials is zero",
               is_zero_induced_map(step))
    return TowerResult([A, target], report)


# ---------------------------------------------------------------------------
# The local reducedness harness
# ---------------------------------------------------------------------------

def check_theorem_local_case(entries) -> VerificationReport:
    """Instance-wise check over Artinian local algebras: a zero differential
    module forces the algebra to be the ground field (dimension 1), and over
    a perfect base every non-reduced member has nonzero differentials."""
    entries = list(entries)
    report = VerificationReport("local_case", {"entries": len(entries)})
    for name, algebra in entries:
        if not algebra.is_finite or not algebra.local_with_nilpotent_generators:
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
    return report


def standard_local_corpus(count: int = 20, seed: int = 0) -> list:
    """Seeded random Artinian local presentations over the rationals plus the
    named algebras every report exercises."""
    rng = random.Random(seed)
    corpus: list = []

    ring0 = PolyRing(QQ, ())
    corpus.append(("ground field", make_quotient(Presentation(ring0, ()))))
    ringz = PolyRing(QQ, ("Z",))
    Zv = ringz.variable("Z")
    corpus.append(("dual numbers", make_quotient(Presentation(ringz, (Zv ** 2,)))))
    corpus.append(("collapsed line", make_quotient(Presentation(ringz, (Zv,)))))
    corpus.append(("B(5)", gabber_B(5, QQ)[0]))
    for p, nn in ((2, 1), (2, 2), (3, 1)):
        field = prime_field(p)
        ring = PolyRing(field, ("Y",))
        corpus.append((f"root stage p={p} n={nn}",
                       make_quotient(Presentation(ring, (ring.variable("Y") ** (p ** nn),)))))

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
                       make_quotient(Presentation(ring, tuple(relations)))))
    return corpus


# ---------------------------------------------------------------------------
# The Euler identity on random homogeneous polynomials
# ---------------------------------------------------------------------------

def _random_homogeneous(rng: random.Random, field: FieldDescriptor):
    """A ring of 1 to 4 variables of weights 1 to 4, and a random form in it
    of degree 1 to 12 with its degree; the zero form and degree 0 when 50
    draws of a degree find no monomial."""
    nvars = rng.randrange(1, 5)
    names = tuple(f"X{i}" for i in range(1, nvars + 1))
    weights = tuple(rng.randrange(1, 5) for _ in range(nvars))
    ring = PolyRing(field, names, weights)
    for _ in range(50):
        degree = rng.randrange(1, 13)
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
    if trials < 1:
        raise ValueError("trials must be at least 1")
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
    return report
