"""Binary relations on {0..m-1} stored as bitset rows.

Row ``a`` is an int whose bit ``b`` is set iff the pair (a, b) is in the
relation, i.e. rows are indexed by the first coordinate.  All operations
return new relations; instances are immutable.

Composition has one order: ``r.then(s)`` chains left to right, relating a
to c when (a,b) is in r and (b,c) is in s.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class BinRelation:
    size: int
    rows: tuple[int, ...]
    # set on first use of ``matrix``; a field rather than a cached property,
    # which would add an instance attribute and slow every ``rows`` read
    _matrix: np.ndarray | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        if len(self.rows) != self.size:
            raise InputError(f"relation has {len(self.rows)} rows, expected {self.size}")
        full = (1 << self.size) - 1
        for a, row in enumerate(self.rows):
            if row & ~full:
                raise InputError(f"relation row {a} references elements >= {self.size}")

    # -- construction ------------------------------------------------

    @staticmethod
    def empty(size: int) -> BinRelation:
        return BinRelation(size, (0,) * size)

    @staticmethod
    def diagonal(size: int) -> BinRelation:
        return BinRelation(size, tuple(1 << a for a in range(size)))

    @staticmethod
    def full(size: int) -> BinRelation:
        row = (1 << size) - 1
        return BinRelation(size, (row,) * size)

    @staticmethod
    def from_pairs(size: int, pairs) -> BinRelation:
        rows = [0] * size
        for a, b in pairs:
            a, b = operator.index(a), operator.index(b)  # numpy ints, not floats
            if not (0 <= a < size and 0 <= b < size):
                raise InputError(f"pair ({a}, {b}) out of range for size {size}")
            rows[a] |= 1 << b
        return BinRelation(size, tuple(rows))

    @staticmethod
    def from_matrix(matrix) -> BinRelation:
        size = len(matrix)
        for a, line in enumerate(matrix):
            if len(line) != size:
                raise InputError(f"matrix row {a} has length {len(line)}, expected {size}")
            for b, cell in enumerate(line):
                if cell not in (0, 1, True, False):
                    raise InputError(f"matrix[{a}][{b}] must be 0 or 1")
        return BinRelation.from_array(np.array(matrix, dtype=bool).reshape(size, size))

    @staticmethod
    def from_array(matrix: np.ndarray) -> BinRelation:
        """The relation of an (m, m) bool array, rows by first coordinate."""
        packed = np.packbits(matrix, axis=1, bitorder="little")
        return BinRelation(len(matrix), tuple(int.from_bytes(row.tobytes(), "little")
                                              for row in packed))

    # -- queries -----------------------------------------------------

    def contains(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def pairs(self):
        for a, row in enumerate(self.rows):
            for b in _bits(row):
                yield (a, b)

    def count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    @property
    def matrix(self) -> np.ndarray:
        """The relation as a read-only (m, m) bool array, rows by first
        coordinate; made on first use and kept, since rows never change."""
        if self._matrix is None:
            width = (self.size + 7) // 8
            raw = b"".join(row.to_bytes(width, "little") for row in self.rows)
            packed = np.frombuffer(raw, dtype=np.uint8).reshape(self.size, width)
            matrix = np.unpackbits(packed, axis=1, count=self.size,
                                   bitorder="little").view(bool)
            matrix.flags.writeable = False
            object.__setattr__(self, "_matrix", matrix)
        return self._matrix

    def to_matrix(self) -> list[list[int]]:
        return [[(row >> b) & 1 for b in range(self.size)] for row in self.rows]

    # -- boolean algebra ----------------------------------------------

    def _check_size(self, other: BinRelation):
        if self.size != other.size:
            raise InputError(f"relation size mismatch: {self.size} vs {other.size}")

    def __and__(self, other: BinRelation) -> BinRelation:
        self._check_size(other)
        return BinRelation(self.size, tuple(a & b for a, b in zip(self.rows, other.rows)))

    def __or__(self, other: BinRelation) -> BinRelation:
        self._check_size(other)
        return BinRelation(self.size, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def issubset(self, other: BinRelation) -> bool:
        self._check_size(other)
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def transpose(self) -> BinRelation:
        rows = [0] * self.size
        for a, row in enumerate(self.rows):
            for b in _bits(row):
                rows[b] |= 1 << a
        return BinRelation(self.size, tuple(rows))

    # -- composition and closures --------------------------------------

    def then(self, other: BinRelation) -> BinRelation:
        """Left-to-right chaining: (a,c) iff (a,b) in self and (b,c) in other."""
        self._check_size(other)
        rows = []
        for row in self.rows:
            acc = 0
            for b in _bits(row):
                acc |= other.rows[b]
            rows.append(acc)
        return BinRelation(self.size, tuple(rows))

    def reflexive_closure(self) -> BinRelation:
        return self | BinRelation.diagonal(self.size)

    def transitive_closure(self) -> BinRelation:
        # Warshall on bitset rows.
        rows = list(self.rows)
        for k in range(self.size):
            bit = 1 << k
            row_k = rows[k]
            for a in range(self.size):
                if rows[a] & bit:
                    rows[a] |= row_k
        return BinRelation(self.size, tuple(rows))

    # -- properties ----------------------------------------------------

    def is_reflexive(self) -> bool:
        return all(row >> a & 1 for a, row in enumerate(self.rows))

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_transitive(self) -> bool:
        for a, row in enumerate(self.rows):
            for b in _bits(row):
                if self.rows[b] & ~row:
                    return False
        return True

    def is_quasi_order(self) -> bool:
        return self.is_reflexive() and self.is_transitive()

    def is_equivalence(self) -> bool:
        return self.is_quasi_order() and self.is_symmetric()

