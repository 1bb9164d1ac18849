"""Binary relations on {0..m-1} stored as one read-only (m, m) bool array.

``matrix[a, b]`` is True iff the pair (a, b) is in the relation, i.e. rows
are indexed by the first coordinate.  Every operation is one array
expression and returns a new relation; the array is never written once
wrapped, so relations are immutable and may share it (a transpose is a
view).

Composition has one order: ``r.then(s)`` chains left to right, relating a
to c when (a,b) is in r and (b,c) is in s.

Bitset rows, one int per first coordinate whose bit b stands for the pair
(a, b), are an exchange format only: ``BinRelation(size, rows)`` reads
them and the ``rows`` property computes them on access; nothing keeps
them.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import InputError


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product.  numpy's bool matmul has no BLAS kernel: it
    is the faster one below m = 16, and falls behind beyond that, where
    float32 path counts, exact below 2**24, take the BLAS kernel."""
    if len(a) < 16:
        return a @ b
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


class BinRelation:
    __slots__ = ("matrix", "size")

    def __init__(self, size: int, rows):
        """The relation of bitset rows (see the module docstring)."""
        if len(rows) != size:
            raise InputError(f"relation has {len(rows)} rows, expected {size}")
        width = (size + 7) // 8
        raw = bytearray()
        for a, row in enumerate(rows):
            row = operator.index(row)
            if row < 0 or row >> size:
                raise InputError(f"relation row {a} references elements >= {size}")
            raw += row.to_bytes(width, "little")
        packed = np.frombuffer(bytes(raw), dtype=np.uint8).reshape(size, width)
        matrix = np.unpackbits(packed, axis=1, count=size, bitorder="little").view(bool)
        matrix.setflags(write=False)
        self.matrix, self.size = matrix, size

    @classmethod
    def _of(cls, matrix: np.ndarray) -> BinRelation:
        """Wrap a square bool array that no one else writes."""
        matrix.setflags(write=False)
        r = object.__new__(cls)
        r.matrix, r.size = matrix, len(matrix)
        return r

    # -- construction ------------------------------------------------

    @staticmethod
    def empty(size: int) -> BinRelation:
        return BinRelation._of(np.zeros((size, size), dtype=bool))

    @staticmethod
    def diagonal(size: int) -> BinRelation:
        return BinRelation._of(np.eye(size, dtype=bool))

    @staticmethod
    def full(size: int) -> BinRelation:
        return BinRelation._of(np.ones((size, size), dtype=bool))

    @staticmethod
    def from_pairs(size: int, pairs) -> BinRelation:
        matrix = np.zeros((size, size), dtype=bool)
        for a, b in pairs:
            a, b = operator.index(a), operator.index(b)  # numpy ints, not floats
            if not (0 <= a < size and 0 <= b < size):
                raise InputError(f"pair ({a}, {b}) out of range for size {size}")
            matrix[a, b] = True
        return BinRelation._of(matrix)

    @staticmethod
    def from_array(matrix) -> BinRelation:
        """The relation of a square array, rows by first coordinate, whose
        nonzero entries are the pairs; the array is copied."""
        matrix = np.array(matrix, dtype=bool)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InputError(f"relation array must be square, got shape {matrix.shape}")
        return BinRelation._of(matrix)

    # -- queries -----------------------------------------------------

    @property
    def rows(self) -> tuple[int, ...]:
        """The bitset rows, made afresh on each access."""
        packed = np.packbits(self.matrix, axis=1, bitorder="little")
        return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)

    def contains(self, a: int, b: int) -> bool:
        return bool(self.matrix[a, b])

    def pairs(self):
        """The pairs as Python ints, in row-major order."""
        a, b = np.nonzero(self.matrix)
        return zip(a.tolist(), b.tolist())

    def count(self) -> int:
        return int(np.count_nonzero(self.matrix))

    def __eq__(self, other):
        if not isinstance(other, BinRelation):
            return NotImplemented
        # bytes compare in a fraction of np.array_equal's per-call cost
        return (self.matrix.shape == other.matrix.shape
                and self.matrix.tobytes() == other.matrix.tobytes())

    def __hash__(self):
        return hash((self.size, self.matrix.tobytes()))

    def __repr__(self):
        return f"BinRelation({self.size}, {self.rows})"

    # -- boolean algebra ----------------------------------------------

    def _check_size(self, other: BinRelation):
        if self.size != other.size:
            raise InputError(f"relation size mismatch: {self.size} vs {other.size}")

    def __and__(self, other: BinRelation) -> BinRelation:
        self._check_size(other)
        return BinRelation._of(self.matrix & other.matrix)

    def __or__(self, other: BinRelation) -> BinRelation:
        self._check_size(other)
        return BinRelation._of(self.matrix | other.matrix)

    def issubset(self, other: BinRelation) -> bool:
        self._check_size(other)
        # as in __eq__, bytes beat a numpy reduction on small carriers
        return (self.matrix & other.matrix).tobytes() == self.matrix.tobytes()

    def transpose(self) -> BinRelation:
        return BinRelation._of(self.matrix.T)

    # -- composition and closures --------------------------------------

    def then(self, other: BinRelation) -> BinRelation:
        """Left-to-right chaining: (a,c) iff (a,b) in self and (b,c) in other."""
        self._check_size(other)
        return BinRelation._of(_product(self.matrix, other.matrix))

    def reflexive_closure(self) -> BinRelation:
        return BinRelation._of(self.matrix | np.eye(self.size, dtype=bool))

    def transitive_closure(self) -> BinRelation:
        # after k rounds of squaring every chain of up to 2**k steps is in
        closure = self.matrix
        while True:
            grown = closure | _product(closure, closure)
            if grown.tobytes() == closure.tobytes():
                return BinRelation._of(grown)
            closure = grown

    # -- properties ----------------------------------------------------

    def is_reflexive(self) -> bool:
        return int(np.count_nonzero(self.matrix.diagonal())) == self.size

    def is_symmetric(self) -> bool:
        return self.matrix.tobytes() == self.matrix.T.tobytes()

    def is_transitive(self) -> bool:
        return self.then(self).issubset(self)

    def is_quasi_order(self) -> bool:
        return self.is_reflexive() and self.is_transitive()

    def is_equivalence(self) -> bool:
        return self.is_quasi_order() and self.is_symmetric()
