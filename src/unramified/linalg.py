"""Exact linear algebra over the coefficient fields: row reduction and rank
of dense rows, lists of FieldElement, and one kernel algorithm, on sparse
columns of raw coefficients (see `FieldDescriptor.raw`), which the kernel
basis of dense rows also runs."""

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


def _add_multiple(target: dict, c, source: dict, p: int) -> dict:
    """target += c * source on sparse dicts of raw coefficients, mod p when p
    is nonzero, dropping every entry that becomes zero; returns target."""
    for k, v in source.items():
        v = c * v
        cur = target.get(k)
        if cur is not None:
            v += cur
        if p:
            v %= p
        if v:
            target[k] = v
        else:
            del target[k]
    return target


def sparse_kernel(columns: list, field: FieldDescriptor) -> list:
    """A basis of the right kernel of the matrix whose columns are the dicts
    {row index: nonzero raw coefficient} of `columns`: one vector per column
    that depends on the columns before it, in column order, each a dict
    {column index: element} in index order.

    Each column in turn is reduced against the monic pivot columns, keyed
    by their largest row index, and its combination of the columns is
    tracked alongside.  A column f that reduces to zero is a combination
    sum a_c (column c) of the earlier pivot columns, and gives the kernel
    vector e_f - sum a_c e_c: the pivot columns are independent, so that is
    the vector of free column f that the reduced row echelon form gives,
    x_c = -rref[r][f].  Any other column becomes the pivot of its largest
    row index."""
    p = field.p if field.kind == PRIME_FIELD else 0
    one = field.raw(field.one())
    pivots: dict = {}  # largest row index -> (monic column, its combination)
    kernel = []
    for f, column in enumerate(columns):
        col = dict(column)
        combo = {f: one}
        while col:
            top = max(col)
            pivot = pivots.get(top)
            if pivot is None:
                inv = pow(col[top], -1, p) if p else one / col[top]
                pivots[top] = (_add_multiple({}, inv, col, p), _add_multiple({}, inv, combo, p))
                break
            c = -col[top]
            _add_multiple(col, c, pivot[0], p)
            _add_multiple(combo, c, pivot[1], p)
        else:
            kernel.append({i: field.from_raw(v) for i, v in sorted(combo.items())})
    return kernel


def kernel_basis(rows: list, ncols: int, field: FieldDescriptor) -> list:
    """A basis of the right kernel {x : A x = 0} of dense rows, one vector
    of elements per free column, ordered by free column index: the
    `sparse_kernel` of the rows' columns."""
    columns = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            if c:
                columns[j][i] = field.raw(c)
    zero = field.zero()
    basis = []
    for vec in sparse_kernel(columns, field):
        dense = [zero] * ncols
        for j, c in vec.items():
            dense[j] = c
        basis.append(dense)
    return basis
