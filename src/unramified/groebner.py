"""Buchberger's algorithm for ideals and for submodules of finite free
modules, with normal forms, membership tests, staircases and dimension
counts.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import le

from .errors import BudgetExceededError
from .polynomials import (
    MONOMIAL_ONE,
    ModuleVector,
    Monomial,
    PolyRing,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_weighted_degree,
)

DEFAULT_BUDGET = 10 ** 6


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceededError("budget exceeded")


class _Row:
    """One monic basis element in internal term-dict form.  `exps` is the
    dense exponent vector of the leading monomial and `degree` its total
    degree; the pair criteria work on them."""

    __slots__ = ("terms", "lt", "key", "is_monomial", "exps", "degree")

    def __init__(self, ring: PolyRing, terms: dict):
        mk = ring.module_key
        lt = max(terms, key=lambda t: mk(*t))
        lc = terms[lt]
        if not lc.is_one():
            inv = lc.inverse()
            terms = {k: v * inv for k, v in terms.items()}
        self.terms = terms
        self.lt = lt
        self.key = mk(*lt)
        self.is_monomial = len(terms) == 1
        exps = [0] * ring.nvars
        for i, e in lt[1]:
            exps[i] = e
        self.exps = tuple(exps)
        self.degree = sum(exps)


def _divides(a: tuple, b: tuple) -> bool:
    """Whether the dense exponent vector a divides b."""
    return all(map(le, a, b))


def _to_terms(obj) -> dict:
    if isinstance(obj, Polynomial):
        return {(0, m): c for m, c in obj.terms.items()}
    return dict(obj.terms)


def _reduce_terms(ring: PolyRing, terms: dict, buckets: dict, budget: _Budget) -> dict:
    """Full normal form of a term dict against rows bucketed by lead component."""
    if not terms:
        return {}
    mk = ring.module_key
    work = dict(terms)
    out: dict = {}
    heap = [(tuple(-x for x in mk(c, m)), c, m) for (c, m) in work]
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
        for (tc, tm), tv in reducer.terms.items():
            key = (tc, mono_mul(tm, quotient))
            delta = coeff * tv
            cur = work.get(key)
            if cur is None:
                work[key] = -delta
                heappush(heap, (tuple(-x for x in mk(*key)),) + key)
            else:
                nv = cur - delta
                if nv.is_zero():
                    del work[key]
                else:
                    work[key] = nv
    return out


def _spair(a: _Row, b: _Row) -> dict:
    comp = a.lt[0]
    lcm = mono_lcm(a.lt[1], b.lt[1])
    ua = mono_div(lcm, a.lt[1])
    ub = mono_div(lcm, b.lt[1])
    out: dict = {}
    for (tc, tm), tv in a.terms.items():
        out[(tc, mono_mul(tm, ua))] = tv
    for (tc, tm), tv in b.terms.items():
        key = (tc, mono_mul(tm, ub))
        cur = out.get(key)
        nv = -tv if cur is None else cur - tv
        if nv.is_zero():
            out.pop(key, None)
        else:
            out[key] = nv
    return out


@dataclass(frozen=True)
class Staircase:
    """The monomials outside the leading-term ideal (submodule), or the
    marker for an infinite complement.  For modules the entries are
    (component, monomial) pairs."""

    monomials: tuple | None
    rank: int | None = None

    @property
    def finite(self) -> bool:
        return self.monomials is not None

    @property
    def dimension(self):
        return len(self.monomials) if self.finite else None

    def degree_counts(self, ring: PolyRing) -> dict:
        """Per-weighted-degree counts; for modules the component basis vector
        carries the weight of its variable."""
        if not self.finite:
            raise ValueError("infinite staircase has no degree table")
        counts: dict = {}
        for entry in self.monomials:
            if self.rank is None:
                d = ring.weighted_degree(entry)
            else:
                comp, m = entry
                d = ring.weighted_degree(m) + ring.weights[comp]
            counts[d] = counts.get(d, 0) + 1
        return dict(sorted(counts.items()))


class GroebnerBasis:
    """A reduced Groebner basis.  `rank` is None for an ideal, or the free
    module rank for a submodule basis."""

    def __init__(self, ring: PolyRing, rank, rows: list):
        self.ring = ring
        self.rank = rank
        self._rows = rows
        self._buckets: dict = {}
        for row in rows:
            self._buckets.setdefault(row.lt[0], []).append(row)
        if rank is None:
            self.generators = tuple(
                Polynomial(ring, {m: c for (_, m), c in row.terms.items()})
                for row in rows)
        else:
            self.generators = tuple(
                ModuleVector(ring, rank, dict(row.terms)) for row in rows)

    @property
    def reduced(self) -> bool:
        return True

    def leading_terms(self) -> list:
        if self.rank is None:
            return [row.lt[1] for row in self._rows]
        return [row.lt for row in self._rows]

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        return iter(self.generators)


def _prepare_input(generators, start):
    gens = list(generators)
    seed = list(start)
    if not gens and not seed:
        raise ValueError("at least one generator (possibly zero) is required")
    first = (gens or seed)[0]
    ring = first.ring
    rank = None if isinstance(first, Polynomial) else first.rank
    for g in gens + seed:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
        if rank is None and not isinstance(g, Polynomial):
            raise ValueError("cannot mix polynomials and module vectors")
        if rank is not None and (not isinstance(g, ModuleVector) or g.rank != rank):
            raise ValueError("generators live in different modules")
    return ring, rank, gens, seed


def buchberger(generators, *, start=(), budget: int = DEFAULT_BUDGET) -> GroebnerBasis:
    """Compute the reduced Groebner basis of the ideal (or submodule)
    generated by `generators` together with `start`.

    `start` holds elements already known to form a Groebner basis of what
    they generate, such as the generators of a GroebnerBasis of the same ring
    or the union of bases in disjoint sets of variables.  They become rows as
    they are, without reduction, and are paired only with the rows that the
    generators add; their pairs among themselves already reduce to zero.

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

    Termination is guaranteed by Dickson's lemma; `budget` caps the number
    of reduction steps and raises BudgetExceededError beyond it, so a
    runaway input produces an explicit error rather than a wrong answer.
    """
    ring, rank, gens, seed = _prepare_input(generators, start)
    budget_obj = _Budget(budget)
    rows: list = []
    buckets: dict = {}
    active: list = []  # indices of rows that still get new pairs
    pairs: list = []  # heap of (lcm module key, i, j)
    live: dict = {}  # (i, j) -> (component, lcm exponents) of undeleted pairs

    def add(terms: dict) -> int:
        row = _Row(ring, terms)
        rows.append(row)
        buckets.setdefault(row.lt[0], []).append(row)
        return len(rows) - 1

    def update(h: int):
        row = rows[h]
        comp, lead = row.lt[0], row.exps
        # criterion B on the queued pairs
        for pair, (c, lcm) in list(live.items()):
            if c == comp and _divides(lead, lcm):
                i, j = pair
                if (tuple(map(max, rows[i].exps, lead)) != lcm
                        and tuple(map(max, rows[j].exps, lead)) != lcm):
                    del live[pair]
        # criteria M and F on the new pairs, one candidate per lcm
        candidates: dict = {}  # lcm -> [i, S-vector known to reduce to zero]
        for i in active:
            other = rows[i]
            if other.lt[0] != comp:
                continue
            lcm = tuple(map(max, other.exps, lead))
            known_zero = ((other.is_monomial and row.is_monomial)
                          or (rank is None and sum(lcm) == other.degree + row.degree))
            entry = candidates.get(lcm)
            if entry is None:
                candidates[lcm] = [i, known_zero]
            elif known_zero:
                entry[1] = True
        minimal: list = []
        for lcm in sorted(candidates, key=sum):
            if any(_divides(m, lcm) for m in minimal):
                continue
            minimal.append(lcm)
            i, known_zero = candidates[lcm]
            if not known_zero:
                live[(i, h)] = (comp, lcm)
                mono = tuple((v, e) for v, e in enumerate(lcm) if e)
                heappush(pairs, (ring.module_key(comp, mono), i, h))
        active[:] = [i for i in active
                     if rows[i].lt[0] != comp or not _divides(lead, rows[i].exps)]
        active.append(h)

    for g in seed:
        t = _to_terms(g)
        if t:
            active.append(add(t))

    for g in gens:
        t = _reduce_terms(ring, _to_terms(g), buckets, budget_obj)
        if t:
            update(add(t))

    while pairs:
        _, i, j = heappop(pairs)
        if live.pop((i, j), None) is None:
            continue  # deleted by criterion B
        s = _spair(rows[i], rows[j])
        if not s:
            continue
        r = _reduce_terms(ring, s, buckets, budget_obj)
        if r:
            update(add(r))

    # Interreduce: keep rows with minimal leading terms, then tail-reduce each
    # against the others (sequentially, updating as we go) to reach the unique
    # reduced basis.
    rows.sort(key=lambda r: r.key)
    kept: list = []
    for row in rows:
        if any(k.lt[0] == row.lt[0] and mono_divides(k.lt[1], row.lt[1])
               for k in kept):
            continue
        kept.append(row)
    for idx in range(len(kept)):
        other_buckets: dict = {}
        for k, row in enumerate(kept):
            if k == idx:
                continue
            other_buckets.setdefault(row.lt[0], []).append(row)
        nf = _reduce_terms(ring, kept[idx].terms, other_buckets, budget_obj)
        kept[idx] = _Row(ring, nf)
    kept.sort(key=lambda r: r.key)
    return GroebnerBasis(ring, rank, kept)


def normal_form(f, gb: GroebnerBasis, *, budget: int = DEFAULT_BUDGET):
    """Canonical representative of f modulo the ideal or submodule; zero
    exactly when f is a member.  Idempotent."""
    if isinstance(f, Polynomial):
        if gb.rank is not None:
            raise ValueError("polynomial against a module basis")
        if f.ring != gb.ring:
            raise ValueError("ring mismatch")
        terms = _reduce_terms(gb.ring, _to_terms(f), gb._buckets, _Budget(budget))
        return Polynomial(gb.ring, {m: c for (_, m), c in terms.items()})
    if gb.rank is None or f.rank != gb.rank:
        raise ValueError("module rank mismatch")
    if f.ring != gb.ring:
        raise ValueError("ring mismatch")
    terms = _reduce_terms(gb.ring, _to_terms(f), gb._buckets, _Budget(budget))
    return ModuleVector(gb.ring, gb.rank, terms)


def ideal_member(f: Polynomial, generators, *, budget: int = DEFAULT_BUDGET) -> bool:
    """True exactly when f lies in the ideal spanned by `generators` (a list
    of polynomials, or an already computed GroebnerBasis)."""
    gb = generators if isinstance(generators, GroebnerBasis) else buchberger(
        generators, budget=budget)
    return normal_form(f, gb, budget=budget).is_zero()


def module_member(v: ModuleVector, generators, *, budget: int = DEFAULT_BUDGET) -> bool:
    """True exactly when v lies in the submodule spanned by `generators`."""
    if v.is_zero():
        return True
    gb = generators if isinstance(generators, GroebnerBasis) else buchberger(
        generators, budget=budget)
    return normal_form(v, gb, budget=budget).is_zero()


def _component_staircase(ring: PolyRing, lead_monomials: list):
    """Staircase monomials for one component, or None when infinite.

    Enumerated by depth-first search over exponent vectors with divisibility
    pruning: once a partial monomial is divisible by a leading term, every
    deeper or higher-exponent extension is too, so whole subtrees are cut.
    """
    if MONOMIAL_ONE in lead_monomials:
        return []
    n = ring.nvars
    bounds = []
    for var in range(n):
        pure = [m[0][1] for m in lead_monomials if len(m) == 1 and m[0][0] == var]
        if not pure:
            return None
        bounds.append(min(pure))
    by_last_var: dict = {}
    for lm in lead_monomials:
        by_last_var.setdefault(lm[-1][0], []).append(lm)
    out: list = []
    exps = [0] * n

    def walk(var: int):
        if var == n:
            out.append(tuple((i, e) for i, e in enumerate(exps) if e))
            return
        for e in range(bounds[var]):
            exps[var] = e
            blocked = False
            for lm in by_last_var.get(var, ()):
                if all(exps[i] >= ex for i, ex in lm):
                    blocked = True
                    break
            if blocked:
                break  # higher exponents at this variable stay divisible
            walk(var + 1)
        exps[var] = 0

    if n == 0:
        out.append(MONOMIAL_ONE)
    else:
        walk(0)
    return out


def staircase(gb: GroebnerBasis) -> Staircase:
    """Monomials outside the leading-term ideal (submodule).  Finite exactly
    when the quotient is a finite-dimensional vector space; its cardinality
    is that dimension."""
    ring = gb.ring
    if gb.rank is None:
        leads = [row.lt[1] for row in gb._rows]
        monos = _component_staircase(ring, leads)
        if monos is None:
            return Staircase(None, None)
        monos.sort(key=ring.monomial_key)
        return Staircase(tuple(monos), None)
    entries = []
    for comp in range(gb.rank):
        leads = [row.lt[1] for row in gb._rows if row.lt[0] == comp]
        if not leads:
            return Staircase(None, gb.rank)
        monos = _component_staircase(ring, leads)
        if monos is None:
            return Staircase(None, gb.rank)
        entries.extend((comp, m) for m in monos)
    entries.sort(key=lambda t: ring.module_key(*t))
    return Staircase(tuple(entries), gb.rank)


def dimension(gb: GroebnerBasis):
    """Vector-space dimension of the quotient, or None when infinite."""
    return staircase(gb).dimension


def staircase_of_degree(gb: GroebnerBasis, degree: int) -> list:
    """Staircase entries of exact weighted degree, even when the full
    staircase is infinite.  For modules the degree of (comp, m) includes the
    weight of the component's variable."""
    ring = gb.ring
    if gb.rank is None:
        leads = [row.lt[1] for row in gb._rows]
        return [m for m in monomials_of_weighted_degree(ring, degree)
                if not any(mono_divides(lm, m) for lm in leads)]
    out = []
    for comp in range(gb.rank):
        leads = [row.lt[1] for row in gb._rows if row.lt[0] == comp]
        for m in monomials_of_weighted_degree(ring, degree - ring.weights[comp]):
            if not any(mono_divides(lm, m) for lm in leads):
                out.append((comp, m))
    out.sort(key=lambda t: ring.module_key(*t))
    return out


def satisfies_buchberger_criterion(gb: GroebnerBasis, *, budget: int = DEFAULT_BUDGET) -> bool:
    """Directly check that every S-pair of basis elements reduces to zero."""
    rows = gb._rows
    budget_obj = _Budget(budget)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if rows[i].lt[0] != rows[j].lt[0]:
                continue
            s = _spair(rows[i], rows[j])
            if _reduce_terms(gb.ring, s, gb._buckets, budget_obj):
                return False
    return True
