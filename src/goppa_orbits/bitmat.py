"""GF(2) linear algebra on bit-packed rows.

A matrix is a list of ints; bit j of row i is the entry in row i,
column j.  Everything here is plain Gaussian elimination, used for
subfield kernels and binary-code kernels.
"""

from __future__ import annotations


def row_reduce(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns); zero rows are dropped.
    """
    rows = [r for r in rows if r]
    pivots: list[int] = []
    reduced: list[int] = []
    for col in range(ncols):
        mask = 1 << col
        pivot_row = None
        for i, r in enumerate(rows):
            if r & mask:
                pivot_row = rows.pop(i)
                break
        if pivot_row is None:
            continue
        rows = [r ^ pivot_row if r & mask else r for r in rows]
        reduced = [r ^ pivot_row if r & mask else r for r in reduced]
        reduced.append(pivot_row)
        pivots.append(col)
        if not rows:
            break
    return reduced, pivots


def rank(rows: list[int], ncols: int) -> int:
    return len(row_reduce(rows, ncols)[0])


def kernel_basis(rows: list[int], ncols: int) -> list[int]:
    """Basis of {v : for every row r, parity(v & r) = 0}.

    Rows are linear constraints on an ncols-bit vector v.
    """
    reduced, pivots = row_reduce(rows, ncols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = 1 << fc
        for r, pc in zip(reduced, pivots):
            if (r >> fc) & 1:
                v |= 1 << pc
        basis.append(v)
    return basis
