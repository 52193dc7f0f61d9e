"""Exact linear algebra over the coefficient fields, computed on raw
coefficients (see `FieldDescriptor.raw`): the reduced row echelon form and
rank of dense rows of elements, and the kernel of sparse columns."""

from __future__ import annotations

from .fields import FieldDescriptor, add_multiple


def row_reduce(rows: list, ncols: int, field: FieldDescriptor) -> tuple:
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns); the
    input is not modified.  Pivots are chosen as the first nonzero entry in
    column order, so the result is deterministic.

    The loop runs on sparse rows {column: raw coefficient}, and only the
    returned rows are made dense rows of elements again."""
    p = field.modulus
    work = [{j: field.raw(v) for j, v in enumerate(row) if v} for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(work)) if c in work[i]), None)
        if found is None:
            continue
        pivot = add_multiple({}, field.raw_inverse(work[found][c]), work[found], p)
        work[found] = work[r]
        work[r] = pivot
        for row in work:
            if row is not pivot and c in row:
                add_multiple(row, -row[c], pivot, p)
        pivots.append(c)
        if len(pivots) == len(work):
            break
    zero = field.zero()
    return [[field.from_raw(row[j]) if j in row else zero for j in range(ncols)]
            for row in work[:len(pivots)]], pivots


def rank(rows: list, ncols: int, field: FieldDescriptor) -> int:
    return len(row_reduce(rows, ncols, field)[1])


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
    p = field.modulus
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
                inv = field.raw_inverse(col[top])
                pivots[top] = (add_multiple({}, inv, col, p), add_multiple({}, inv, combo, p))
                break
            c = -col[top]
            add_multiple(col, c, pivot[0], p)
            add_multiple(combo, c, pivot[1], p)
        else:
            kernel.append({i: field.from_raw(v) for i, v in sorted(combo.items())})
    return kernel
