"""Buchberger's algorithm for ideals and for submodules of finite free
modules, with normal forms, staircases and dimension counts.  A normal form
is zero exactly when its input is a member.

Ideals and submodules share one engine: a polynomial is treated as a rank-1
vector living in component 0, and every monomial carries a component tag.
S-pairs are processed in the normal strategy (smallest lcm in the order
first, ties by pair index), and the returned basis is fully interreduced
with unit leading coefficients, so it is the unique reduced Groebner basis:
identical inputs always give identical output.

Pairs whose S-vectors are known to reduce to zero are never built: the
criteria B, M and F of Gebauer and Moeller ("On an installation of
Buchberger's algorithm", JSC 1988) and, for ideals, Buchberger's product
criterion.  The same loop can start from a basis already known, such as
that of an algebra being quotiented further or the union of the bases of
tensor factors; its rows are kept and paired only with new rows.  Neither
changes the output, because the reduced basis is unique; only the number of
S-pairs and reduction steps falls.

For power-series quotients, `local_leading_monomials` computes a standard
basis in a local degree order, modulo a power of the maximal ideal, and
returns only its leading monomials, which is all the dimension count needs.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import count, islice
from operator import add, mul

from .errors import BudgetExceededError
from .fields import add_multiple
from .polynomials import (
    ModuleVector,
    PolyRing,
    Polynomial,
    _rising_monomials,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

DEFAULT_BUDGET = 10 ** 6


class _Budget:
    __slots__ = ("limit", "remaining")

    def __init__(self, limit: int):
        self.limit = self.remaining = limit

    def spend(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceededError(f"reduction-step budget {self.limit} exceeded")


_STEP_BUDGET: ContextVar = ContextVar("step_budget", default=None)


def _current_budget() -> _Budget:
    """The budget of the enclosing `step_budget` block, else a fresh one."""
    return _STEP_BUDGET.get() or _Budget(DEFAULT_BUDGET)


@contextmanager
def step_budget(limit: int):
    """Make every reduction step in the block spend from one budget of
    `limit` steps, yielded with its `remaining` count.  A nested block has
    its own budget until it exits; outside any block each Groebner call
    gets a fresh DEFAULT_BUDGET."""
    budget = _Budget(limit)
    token = _STEP_BUDGET.set(budget)
    try:
        yield budget
    finally:
        _STEP_BUDGET.reset(token)


class _Row:
    """One monic basis element as a term dict of raw coefficients (see
    `_to_terms`).  `lt` is the leading (component, monomial) pair and
    `degree` the total degree of its monomial; the pair criteria work on
    them."""

    __slots__ = ("terms", "lt", "key", "degree")

    def __init__(self, ring: PolyRing, terms: dict):
        mk = ring.module_key
        lt = max(terms, key=lambda t: mk(*t))
        lc = terms[lt]
        if lc != 1:
            field = ring.field
            terms = add_multiple({}, field.raw_inverse(lc), terms, field.modulus)
        self.terms = terms
        self.lt = lt
        self.key = mk(*lt)
        self.degree = sum(lt[1])

    def copy(self) -> _Row:
        """A new row with the same terms, lead, key and degree; the terms
        dict is shared, as rows only ever replace theirs."""
        row = _Row.__new__(_Row)
        row.terms, row.lt, row.key, row.degree = self.terms, self.lt, self.key, self.degree
        return row


def _to_terms(obj) -> dict:
    """The terms of a polynomial or module vector as a new dict
    {(component, monomial): raw coefficient} (see `FieldDescriptor.raw`),
    with component 0 for a polynomial: the form the engine computes on."""
    raw = obj.ring.field.raw
    if isinstance(obj, Polynomial):
        return {(0, m): raw(c) for m, c in obj.terms.items()}
    return {key: raw(c) for key, c in obj.terms.items()}


def _from_terms(ring: PolyRing, rank, terms: dict):
    """The inverse of `_to_terms`: a polynomial when `rank` is None (an
    ideal), else a module vector of that rank."""
    from_raw = ring.field.from_raw
    if rank is None:
        return Polynomial(ring, {m: from_raw(c) for (_, m), c in terms.items()})
    return ModuleVector(ring, rank, {key: from_raw(c) for key, c in terms.items()})


def _reduce_terms(ring: PolyRing, work: dict, buckets: dict, budget: _Budget,
                  standard=()) -> dict:
    """Full normal form of a term dict of raw coefficients against rows
    bucketed by lead component, consuming `work`.

    Every operation on a coefficient is followed by `% p` over F_p (see
    `FieldDescriptor.raw`).  The heap holds the negated module key
    (component, -weighted degree, reversed exponents), so the largest term
    pops first, and the output lists the terms in that order.

    A key in `standard`, which the caller vouches is divisible by no lead
    term, never enters the heap: it stays in `work`, where later reductions
    may still change its coefficient, and what is left of `work` at the end
    joins the output after the popped terms.  A reduction only adds terms
    below the one it removes, so the same terms are reduced in the same
    order, with the same coefficients, as without `standard`.
    """
    if not work:
        return {}
    p = ring.field.modulus
    weights = ring.weights
    out: dict = {}
    keys = [key for key in work if key not in standard] if standard else work
    heap = [((c, -sum(map(mul, weights, m))) + m[::-1], c, m) for (c, m) in keys]
    heapify(heap)
    while heap:
        _, comp, mono = heappop(heap)
        coeff = work.get((comp, mono))
        if coeff is None:
            continue
        reducer = None
        quotient = None
        for row in buckets.get(comp, ()):
            q = mono_div(mono, row.lt[1])
            if q is not None:
                reducer = row
                quotient = q
                break
        if reducer is None:
            out[(comp, mono)] = coeff
            del work[(comp, mono)]
            continue
        budget.spend()
        neg = -coeff
        for (tc, tm), tv in reducer.terms.items():
            m = tuple(map(add, tm, quotient))
            key = (tc, m)
            v = neg * tv
            cur = work.get(key)
            if cur is None:
                work[key] = v % p if p else v
                if key not in standard:
                    heappush(heap, ((tc, -sum(map(mul, weights, m))) + m[::-1], tc, m))
            else:
                v += cur
                if p:
                    v %= p
                if v:
                    work[key] = v
                else:
                    del work[key]
    if work:
        out.update(work)
    return out


def _spair(field, a: _Row, b: _Row) -> dict:
    """The S-vector (lcm / lt a) a - (lcm / lt b) b of two monic rows."""
    lcm = mono_lcm(a.lt[1], b.lt[1])
    ua = mono_div(lcm, a.lt[1])
    ub = mono_div(lcm, b.lt[1])
    out = {(tc, mono_mul(tm, ua)): tv for (tc, tm), tv in a.terms.items()}
    return add_multiple(out, field.raw(-field.one()),
                        {(tc, mono_mul(tm, ub)): tv for (tc, tm), tv in b.terms.items()},
                        field.modulus)


@dataclass(frozen=True)
class Staircase:
    """The monomials outside the leading-term ideal (submodule), or the
    marker for an infinite complement.  For modules the entries are
    (component, monomial) pairs."""

    monomials: tuple | None

    @property
    def finite(self) -> bool:
        return self.monomials is not None

    @property
    def dimension(self):
        return len(self.monomials) if self.finite else None



class GroebnerBasis:
    """A reduced Groebner basis.  `rank` is None for an ideal, or the free
    module rank for a submodule basis.  The engine reads the rows; the
    polynomials or module vectors of `generators` are made on first use."""

    def __init__(self, ring: PolyRing, rank, rows: list):
        self.ring = ring
        self.rank = rank
        self._rows = rows
        self._buckets: dict = {}
        for row in rows:
            self._buckets.setdefault(row.lt[0], []).append(row)

    @cached_property
    def generators(self) -> tuple:
        return tuple(_from_terms(self.ring, self.rank, row.terms) for row in self._rows)

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        return iter(self.generators)


def _prepare_input(generators, start):
    """The ring, the rank, the generators and the seed rows of a run."""
    gens = list(generators)
    basis = start if isinstance(start, GroebnerBasis) else None
    seed = [] if basis is not None else list(start)
    if gens or seed:
        first = (gens or seed)[0]
        ring = first.ring
        rank = None if isinstance(first, Polynomial) else first.rank
    elif basis is not None:
        ring, rank = basis.ring, basis.rank
    else:
        raise ValueError("at least one generator (possibly zero) is required")
    for g in gens + seed:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
        if rank is None and not isinstance(g, Polynomial):
            raise ValueError("cannot mix polynomials and module vectors")
        if rank is not None and (not isinstance(g, ModuleVector) or g.rank != rank):
            raise ValueError("generators live in different modules")
    if basis is None:
        return ring, rank, gens, [_Row(ring, t) for t in map(_to_terms, seed) if t]
    if basis.ring != ring:
        raise ValueError("generators live in different rings")
    if basis.rank != rank:
        raise ValueError("generators live in different modules")
    # copies, because interreduction replaces the terms of the rows it keeps
    return ring, rank, gens, [row.copy() for row in basis._rows]


def buchberger(generators, *, start=()) -> GroebnerBasis:
    """Compute the reduced Groebner basis of the ideal (or submodule)
    generated by `generators` together with `start`.

    `start` is a GroebnerBasis of the same ring and rank, whose rows are
    copied, or elements already known to form a Groebner basis of what they
    generate, such as the union of bases in disjoint sets of variables.
    They become rows as they are, without reduction, and are paired only
    with the rows that the generators add; their pairs among themselves
    already reduce to zero.

    Pairs are managed by the criteria of Gebauer and Moeller (the UPDATE
    procedure of Becker and Weispfenning).  When a row h joins:

    - criterion B deletes a queued pair (i, j) whose lcm the lead term of h
      divides, unless lcm(i, h) or lcm(j, h) equals it;
    - criterion M drops a new pair (i, h) when some lcm(k, h) properly
      divides lcm(i, h);
    - criterion F keeps one new pair per lcm, and none when the lcm is also
      that of a pair whose S-vector is known to reduce to zero: two monomial
      rows, or (for ideals only) coprime lead terms, Buchberger's product
      criterion;
    - rows whose lead term h divides get no further pairs.

    A deleted pair is only marked, so its S-vector is never built.  Every
    dropped pair has an S-vector that reduces to zero once the pairs kept
    are processed, so the final interreduction yields the same unique
    reduced basis as processing every pair, only with less work.

    Termination is guaranteed by Dickson's lemma; reduction steps spend from
    the current `step_budget` and raise BudgetExceededError beyond it, so a
    runaway input produces an explicit error rather than a wrong answer.
    """
    ring, rank, gens, seed = _prepare_input(generators, start)
    budget = _current_budget()
    rows: list = []
    buckets: dict = {}
    active: list = []  # indices of rows that still get new pairs
    pairs: list = []  # heap of (lcm module key, i, j)
    live: dict = {}  # (i, j) -> (component, lcm exponents) of undeleted pairs

    def add(row: _Row) -> int:
        rows.append(row)
        buckets.setdefault(row.lt[0], []).append(row)
        return len(rows) - 1

    def update(h: int):
        row = rows[h]
        comp, lead = row.lt
        # criterion B on the queued pairs, scanned in place
        doomed = [pair for pair, (c, lcm) in live.items()
                  if c == comp and mono_divides(lead, lcm)
                  and mono_lcm(rows[pair[0]].lt[1], lead) != lcm
                  and mono_lcm(rows[pair[1]].lt[1], lead) != lcm]
        for pair in doomed:
            del live[pair]
        # criteria M and F on the new pairs, one candidate per lcm
        candidates: dict = {}  # lcm -> [i, S-vector known to reduce to zero]
        for i in active:
            other = rows[i]
            if other.lt[0] != comp:
                continue
            lcm = mono_lcm(other.lt[1], lead)
            known_zero = (len(other.terms) == len(row.terms) == 1
                          or (rank is None and sum(lcm) == other.degree + row.degree))
            entry = candidates.get(lcm)
            if entry is None:
                candidates[lcm] = [i, known_zero]
            elif known_zero:
                entry[1] = True
        minimal: list = []
        for lcm in sorted(candidates, key=sum):
            if any(mono_divides(m, lcm) for m in minimal):
                continue
            minimal.append(lcm)
            i, known_zero = candidates[lcm]
            if not known_zero:
                live[(i, h)] = (comp, lcm)
                heappush(pairs, (ring.module_key(comp, lcm), i, h))
        active[:] = [i for i in active
                     if rows[i].lt[0] != comp or not mono_divides(lead, rows[i].lt[1])]
        active.append(h)

    for row in seed:
        active.append(add(row))

    for g in gens:
        t = _reduce_terms(ring, _to_terms(g), buckets, budget)
        if t:
            update(add(_Row(ring, t)))

    while pairs:
        _, i, j = heappop(pairs)
        if live.pop((i, j), None) is None:
            continue  # deleted by criterion B
        s = _spair(ring.field, rows[i], rows[j])
        if not s:
            continue
        r = _reduce_terms(ring, s, buckets, budget)
        if r:
            update(add(_Row(ring, r)))

    # Interreduce: keep the rows with minimal leads, in order, then reduce each
    # tail in turn, in place, against all of them (a tail is below its lead).
    rows.sort(key=lambda r: r.key)
    kept: list = []
    kept_buckets: dict = {}
    for row in rows:
        same = kept_buckets.setdefault(row.lt[0], [])
        if not any(mono_divides(k.lt[1], row.lt[1]) for k in same):
            kept.append(row)
            same.append(row)
    for row in kept:
        tail = {t: c for t, c in row.terms.items() if t != row.lt}
        row.terms = {row.lt: row.terms[row.lt],
                     **_reduce_terms(ring, tail, kept_buckets, budget)}
    return GroebnerBasis(ring, rank, kept)


def normal_form(f, gb: GroebnerBasis):
    """Canonical representative of f modulo the ideal or submodule; zero
    exactly when f is a member.  Idempotent."""
    if isinstance(f, Polynomial):
        if gb.rank is not None:
            raise ValueError("polynomial against a module basis")
    elif gb.rank is None or f.rank != gb.rank:
        raise ValueError("module rank mismatch")
    if f.ring != gb.ring:
        raise ValueError("ring mismatch")
    budget = _current_budget()
    return _from_terms(gb.ring, gb.rank,
                       _reduce_terms(gb.ring, _to_terms(f), gb._buckets, budget))


def raw_normal_form(terms: dict, gb: GroebnerBasis, *, standard=()) -> dict:
    """`normal_form` on a term dict of raw coefficients, keyed as the terms
    of a module vector, (component, monomial), with component 0 for an
    ideal: the int residue in [0, p) over F_p, the Fraction over QQ and the
    element itself over F_p(x).  Returns the normal form as such a dict;
    the input is not modified, and it must hold no zero coefficient.
    Reduction steps spend from the current `step_budget`, as in
    `normal_form`.

    `standard` is a container of (component, monomial) keys, such as the
    index of a staircase slice, that the caller vouches are standard for
    `gb`: divisible by no lead term.  Those terms skip the reduction loop,
    which leaves the normal form and the steps spent as they are; a key
    that is not standard would be left unreduced.  Without `standard` the
    output lists its terms largest first; with it, the terms outside
    `standard` come first, in that order, and the standard ones follow."""
    return _reduce_terms(gb.ring, dict(terms), gb._buckets, _current_budget(), standard)


def _component_leads(gb: GroebnerBasis) -> list:
    """The lead monomials of each component, indexed by component; an ideal
    has the single component 0."""
    leads: list = [[] for _ in range(1 if gb.rank is None else gb.rank)]
    for comp, mono in (row.lt for row in gb._rows):
        leads[comp].append(mono)
    return leads


def staircase(gb: GroebnerBasis) -> Staircase:
    """Monomials outside the leading-term ideal (submodule).  Finite exactly
    when the quotient is a finite-dimensional vector space; its cardinality
    is that dimension.  Each component's entries are the slices of its walk
    (`polynomials._rising_monomials`) up to the degree below its pure
    powers, and the components are walked from the last to the first, so
    the entries come out in the module order with no sort."""
    ring = gb.ring
    walks = []
    for comp, leads in enumerate(_component_leads(gb)):
        # every standard monomial lies below each variable's least pure power
        top = 0
        for var, w in enumerate(ring.weights):
            pure = [m[var] for m in leads if sum(m) == m[var]]
            if not pure:
                return Staircase(None)
            top += (min(pure) - 1) * w
        # the lead 1 makes top negative, and its walk lists nothing
        walks.append((comp, islice(_rising_monomials(ring.weights, leads), max(top + 1, 0))))
    entries = [(comp, m) for comp, walk in reversed(walks) for monos, _ in walk for m in monos]
    if gb.rank is None:
        return Staircase(tuple(m for _, m in entries))
    return Staircase(tuple(entries))


def _minimal(monomials) -> frozenset:
    """The monomials that no other one of the collection divides."""
    kept: list = []
    for m in sorted(set(monomials), key=sum):
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    return frozenset(kept)


def _count_standard(nvars: int, lead_monomials: list):
    """Number of monomials in `nvars` variables divisible by no lead
    monomial, or None when infinite (some variable has no pure power among
    the leads), without listing them.

    The count recurses over the variables: the monomials with exponent e at
    the first variable are standard exactly when their tail avoids the
    leads with exponent at most e there, projected onto the remaining
    variables.  That projected set changes only at the exponents the leads
    use, so each run of exponents between two of them is counted once and
    multiplied by its length, and the counts are memoised on (variable
    index, minimal projected set).  This is the cheap variant of the
    Hilbert-function recursion of Bayer and Stillman ("Computation of
    Hilbert functions", JSC 1992).
    """
    if (0,) * nvars in lead_monomials:
        return 0
    for var in range(nvars):
        if not any(sum(m) == m[var] for m in lead_monomials):
            return None
    if nvars == 0:
        return 1
    memo: dict = {}

    def count(var: int, leads: frozenset) -> int:
        if var == nvars - 1:
            return min(leads)[0]  # the one minimal lead (p,): exponents below p
        key = (var, leads)
        if key in memo:
            return memo[key]
        by_level: dict = {}
        for m in leads:
            by_level.setdefault(m[0], []).append(m[1:])
        # 0 is a level (the later variables' pure powers sit there), and
        # from the level of this variable's pure power on nothing is
        # standard, so the unbounded run past the last level counts nothing
        levels = sorted(by_level)
        zero_tail = (0,) * (nvars - var - 1)
        total = 0
        below: frozenset = frozenset()
        for here, above in zip(levels, levels[1:]):
            below = _minimal(below | frozenset(by_level[here]))
            if zero_tail in below:
                break
            total += (above - here) * count(var + 1, below)
        memo[key] = total
        return total

    return count(0, _minimal(lead_monomials))


def dimension(gb: GroebnerBasis):
    """Vector-space dimension of the quotient, or None when infinite: the
    number of standard monomials, counted per component without listing
    them, so it is cheap where `staircase` would hold millions of entries."""
    total = 0
    for leads in _component_leads(gb):
        count = _count_standard(gb.ring.nvars, leads)
        if count is None:
            return None
        total += count
    return total


def _component_weights(gb: GroebnerBasis) -> list:
    """The weight that each component adds to the degree of its entries: 0
    for an ideal, and for a module the weight of the variable of the same
    index, so the rank may not exceed the number of variables."""
    ring = gb.ring
    if gb.rank is None:
        return [0]
    if gb.rank > ring.nvars:
        raise ValueError(f"a module of rank {gb.rank} over {ring.nvars} variables "
                         "has no variable to weight every component")
    return list(ring.weights[:gb.rank])


def staircase_of_degree(gb: GroebnerBasis, degree: int) -> list:
    """Staircase entries of exact weighted degree, even when the full
    staircase is infinite: slice `degree` of `rising_slices`, so it walks
    the degrees below it, and a negative degree has none.  For modules the
    degree of (comp, m) includes the weight of variable comp, so component
    i is weighted by variable i and the rank may not exceed the number of
    variables."""
    slices = rising_slices(gb)  # refuses a module of too high a rank at any degree
    if degree < 0:
        return []
    return next(islice(slices, degree, None))[0]


def rising_slices(gb: GroebnerBasis):
    """The staircase entries of weighted degree d = 0, 1, 2, ... in turn,
    without end, each slice in ascending module order and built from the
    slices of the degrees d - w_j below by `polynomials._rising_monomials`.
    Each is yielded as a pair (entries, origins).  For an ideal,
    origins[i] = (j, k) says that entries[i] is x_j times entry k of degree
    d - w_j (None for the monomial 1); for a module, origins is None.  A
    module's component i is weighted by variable i, so the rank may not
    exceed the number of variables, and lists its entries of degree d from
    the last component to the first."""
    walks = [_rising_monomials(gb.ring.weights, leads) for leads in _component_leads(gb)]
    if gb.rank is None:
        return walks[0]
    return _module_slices(_component_weights(gb), walks)


def _module_slices(shifts: list, walks: list):
    """The module slices of `rising_slices` from each component's walk;
    component i starts at degree shifts[i]."""
    for d in count():
        entries: list = []
        for comp in reversed(range(len(walks))):
            if d >= shifts[comp]:
                entries.extend([(comp, m) for m in next(walks[comp])[0]])
        yield entries, None


def _local_rank(m: tuple) -> tuple:
    """Sort key that lists monomials in the local degree order, the leading
    one first: the lowest total degree first, and monomials of equal degree
    like the ring's revlex, the one with smaller reversed exponents first."""
    return (sum(m), m[::-1])


def local_leading_monomials(generators, truncation: int) -> list:
    """Leading monomials of a standard basis of I + m^truncation, where I is
    the ideal that the polynomials `generators` span in the local ring at
    the origin, for the local degree order (`_local_rank`); the monomials of
    m^truncation themselves are left out.  When m^truncation lies in I,
    their standard monomials are a basis of k[[X]]/I, and those of total
    degree j count the tangent cone's Hilbert function at j.

    The basis is computed modulo m^bound: every term of total degree
    `bound` or more is dropped.  Below the bound the local order
    well-orders finitely many monomials, so cancelling leading terms
    terminates as in Buchberger's algorithm, and Mora's ecart device
    (Greuel and Pfister, "A Singular Introduction to Commutative Algebra",
    1.7), which makes the reduction terminate without a truncation, is not
    needed.  Each generator and each S-polynomial, taken in ascending degree
    of its lcm, is reduced until its leading monomial is no lead multiple,
    and a nonzero remainder joins the basis; pairs with coprime leading
    monomials are skipped by Buchberger's product criterion.

    The bound starts at the truncation degree and falls as leads are found:
    once each variable X_i has a pure power X_i^(a_i) among them, every
    monomial of degree 1 + sum (a_i - 1) is a lead multiple.  Dividing such
    a monomial by the basis leaves only terms of that degree or more, all
    lead multiples again, so in the power series ring that power of m lies
    in the ideal, and adding it changes no leading monomial.  Coefficients
    are raw, as in `_reduce_terms`, and every reduction step
    spends from the current `step_budget`.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    nvars = gens[0].ring.nvars
    field = gens[0].ring.field
    p = field.modulus
    one = field.raw(field.one())
    budget = _current_budget()
    bound = truncation
    basis: list = []  # (leading monomial, monic terms)
    pairs: list = []  # heap of (lcm degree, i, j)

    def reduce(summands) -> dict:
        """The remainder of the sum of the c * X^shift * terms of `summands`.
        The heap yields the terms in the local order, the lead first; a term
        that cancels stays in it and is skipped when it pops.  Each step's
        new terms lie below the lead it cancels, so a popped lead never
        comes back."""
        h: dict = {}
        heap: list = []

        def add_shifted(c, shift: tuple, terms: dict):
            for m, v in terms.items():
                key = tuple(map(add, m, shift))
                if sum(key) >= bound:
                    continue
                cur = h.get(key)
                if cur is None:
                    h[key] = c * v % p if p else c * v
                    heappush(heap, (_local_rank(key), key))
                    continue
                v = cur + c * v
                if p:
                    v %= p
                if v:
                    h[key] = v
                else:
                    del h[key]

        for summand in summands:
            add_shifted(*summand)
        while heap:
            lead = heappop(heap)[1]
            if lead not in h:
                continue
            reducer = next((r for r in basis if mono_divides(r[0], lead)), None)
            if reducer is None:
                return h
            budget.spend()
            add_shifted(-h[lead], mono_div(lead, reducer[0]), reducer[1])
        return h

    def join(h: dict):
        nonlocal bound
        new = min(h, key=_local_rank)
        for i, (lead, _) in enumerate(basis):
            lcm = mono_lcm(lead, new)
            if sum(lcm) < sum(lead) + sum(new):
                heappush(pairs, (sum(lcm), i, len(basis)))
        basis.append((new, add_multiple({}, field.raw_inverse(h[new]), h, p)))
        pure = [min((m[v] for m, _ in basis if sum(m) == m[v]), default=None)
                for v in range(nvars)]
        if None not in pure:
            bound = min(bound, 1 + sum(pure) - nvars)

    origin = (0,) * nvars
    for g in gens:
        h = reduce([(one, origin, {m: field.raw(c) for m, c in g.terms.items()})])
        if h:
            join(h)
    while pairs:
        _, i, j = heappop(pairs)
        (a, fa), (b, fb) = basis[i], basis[j]
        lcm = mono_lcm(a, b)
        h = reduce([(one, mono_div(lcm, a), fa), (-one, mono_div(lcm, b), fb)])
        if h:
            join(h)
    return [lead for lead, _ in basis]
