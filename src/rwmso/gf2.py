"""Small GF(2) linear algebra helpers using int bitsets.

Vectors are ints (bit i = coordinate i), matrices are sequences of row
ints.  All products are over GF(2).
"""

from __future__ import annotations

from typing import Iterable, Sequence


def dot(a: int, b: int) -> int:
    """Scalar product of two bit-vectors."""
    return (a & b).bit_count() & 1


def vec_times_matrix(v: int, rows: Sequence[int]) -> int:
    """Row vector times matrix: XOR of the rows selected by the bits of v."""
    out = 0
    i = 0
    while v:
        if v & 1:
            out ^= rows[i]
        v >>= 1
        i += 1
    return out


def identity(t: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(t))


def rank(rows: Iterable[int]) -> int:
    """Rank of the matrix with the given rows."""
    return len(row_echelon(rows))


def row_echelon(rows: Iterable[int]) -> tuple[int, ...]:
    """Reduced row-echelon basis of the rowspan, sorted by pivot.

    The output is canonical: two row sets span the same subspace iff
    their reduced bases are equal.
    """
    basis: list[int] = []  # kept fully reduced, decreasing top bit
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis = [min(b, b ^ row) for b in basis]
            basis.append(row)
            basis.sort(reverse=True)
    return tuple(basis)
