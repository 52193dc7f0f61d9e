"""Exact dense linear algebra over the coefficient fields: row reduction,
rank, and kernel bases.  Rows are lists of FieldElement."""

from __future__ import annotations

from .fields import PRIME_FIELD, FieldDescriptor, FieldElement


def row_reduce(rows: list, ncols: int, field: FieldDescriptor) -> tuple:
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns); the
    input is not modified.  Pivots are chosen as the first nonzero entry in
    column order, so the result is deterministic.

    Over F_p the loop runs on the int payloads, with one `% p` per updated
    entry, and only the returned rows are wrapped back into elements; the
    other fields run it on their elements."""
    p = field.p if field.kind == PRIME_FIELD else 0
    work = [[v.payload for v in r] for r in rows] if p else [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        # rows from r on, the pivot row among them, are zero left of column
        # c, so only columns c and after change
        pivot = work[r]
        if p:
            inv = pow(pivot[c], -1, p)
            pivot[c:] = [v * inv % p for v in pivot[c:]]
        else:
            inv = pivot[c].inverse()
            pivot[c:] = [v * inv for v in pivot[c:]]
        tail = pivot[c:]
        for i, row in enumerate(work):
            factor = row[c]
            if i == r or not factor:
                continue
            if p:
                row[c:] = [(a - factor * b) % p for a, b in zip(row[c:], tail)]
            else:
                row[c:] = [a - factor * b for a, b in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    if p:
        zero = field.zero()
        return [[FieldElement(field, v) if v else zero for v in row]
                for row in work[:r]], pivots
    return work[:r], pivots


def rank(rows: list, ncols: int, field: FieldDescriptor) -> int:
    return len(row_reduce(rows, ncols, field)[1])


def kernel_basis(rows: list, ncols: int, field: FieldDescriptor) -> list:
    """A basis of the right kernel {x : A x = 0}, one vector per free column,
    ordered by free column index."""
    rref, pivots = row_reduce(rows, ncols, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [field.zero()] * ncols
        vec[f] = field.one()
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][f]
        basis.append(vec)
    return basis

