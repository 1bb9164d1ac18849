"""Concrete partial n-place functions on a finite base set.

A function is stored as a dense table over all argument tuples, indexed in
mixed radix with the leftmost argument most significant.  ``UNDEFINED``
(-1) marks cells outside the domain; the external file format writes those
as ``null``.

Two families of compositions are provided: full superposition, which feeds
one function per argument slot, and the binary slot compositions, which
substitute a single inner function into one argument slot.  Both sides of
each defining equation are undefined exactly together, so domains shrink
as compositions stack.

A concrete algebra keeps its members' entries as one ``(m, base**n)``
table.  Every composite of the members comes from one kernel,
:func:`composite_blocks`, and the domain relations of any set of rows from
one kernel, :func:`relations_of_domains`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .bitrel import BinRelation, _product
from .errors import CapacityError, ClosureCapError, InputError

UNDEFINED = -1

DEFAULT_CLOSURE_CAP = 4096

# the superposition table has n + 1 array axes, the kernels' argument grids
# n + 1 and the dense test oracle's n + 2, and numpy arrays have at most 64
MAX_ARITY = 32
# cells of one table, base**arity: the forge draws every cell of a
# generator, and each composite block holds this many columns
MAX_CELLS = 1 << 16

# -- resource bounds ---------------------------------------------------------
# Every blocked pass of the package takes its rows through block_rows, and
# every counted phase is refused over its cap (CapacityError, exit 3) before
# it allocates or compares anything.

# bytes one pass of a blocked scan holds at once (see block_rows)
BLOCK_BYTES = 1 << 20
# equations one law phase, or one group of parts of the homomorphism check,
# compares: n * m**3 for associativity (1.0e9 at n=2, m=800); with G the
# superposition generators they are decided at (algebra.
# superposition_generators; G is every element where there are none, and
# for the scan of every head after a failure at G), |G| * m**n per
# distinct superassociativity column (3.2e8 at m=108, 5 generators and
# 5488 columns; 6.9e9 at every head), 2 * n * |G| * m**(n+1) for the mixed
# laws, and n * |G| * m per universe point plus |G| * m**n per distinct
# word column for the homomorphism check (7.2e9 at every head at m=108)
MAX_EQUATIONS = 1 << 30
# cells of the tables a universe, a block of composites, the composite
# indices of a concrete algebra or a representation file's assignments need
# (see represent._check_universe_cells, composite_blocks,
# ConcreteAlgebra.composite_indices and fileio.representation_to_doc)
MAX_TABLE_CELLS = 1 << 26


def block_rows(row_bytes: int) -> int:
    """How many rows of ``row_bytes`` each one pass takes: as many as fit
    in BLOCK_BYTES, read at call time, and at least one."""
    return max(1, BLOCK_BYTES // max(row_bytes, 1))


def _check_law_cap(phase: str, count: int):
    if count > MAX_EQUATIONS:
        raise CapacityError(f"{phase} of {count} equations exceeds the cap "
                            f"{MAX_EQUATIONS}", count=count)


def _check_table_cells(what: str, cells: int):
    if cells > MAX_TABLE_CELLS:
        raise CapacityError(f"{what} needs {cells} table cells, over the cap of "
                            f"{MAX_TABLE_CELLS}", count=cells)


@dataclass(frozen=True)
class PartialFunction:
    """Dense table of a partial function from base**arity to base."""

    arity: int
    base_size: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise InputError("arity must be positive")
        if self.base_size < 1:
            raise InputError("base_size must be positive")
        expected = self.base_size**self.arity
        if len(self.entries) != expected:
            raise InputError(
                f"table has {len(self.entries)} entries, expected {expected}"
            )
        for idx, value in enumerate(self.entries):
            if type(value) is not int or not UNDEFINED <= value < self.base_size:
                raise InputError(f"table entry {idx} = {value!r} out of range")

    # -- basic access ---------------------------------------------------

    def cell_index(self, args: tuple[int, ...]) -> int:
        if len(args) != self.arity:
            raise InputError(f"expected {self.arity} arguments, got {len(args)}")
        idx = 0
        for a in args:
            if not (0 <= a < self.base_size):
                raise InputError(f"argument {a} out of range [0, {self.base_size})")
            idx = idx * self.base_size + a
        return idx

    def at(self, args: tuple[int, ...]) -> int:
        """Value at an argument tuple, or UNDEFINED."""
        return self.entries[self.cell_index(args)]

    def is_empty(self) -> bool:
        return all(v == UNDEFINED for v in self.entries)

    # -- stock functions --------------------------------------------------

    @staticmethod
    def empty(arity: int, base_size: int) -> PartialFunction:
        return PartialFunction(arity, base_size, (UNDEFINED,) * base_size**arity)

    @staticmethod
    def projection(arity: int, base_size: int, slot: int) -> PartialFunction:
        """Total function returning its argument at ``slot`` (0-based)."""
        if not (0 <= slot < arity):
            raise InputError(f"slot {slot} out of range [0, {arity})")
        entries = tuple(
            args[slot] for args in product(range(base_size), repeat=arity)
        )
        return PartialFunction(arity, base_size, entries)

    @staticmethod
    def constant(arity: int, base_size: int, value: int) -> PartialFunction:
        if not (0 <= value < base_size):
            raise InputError(f"constant {value} out of range")
        return PartialFunction(arity, base_size, (value,) * base_size**arity)


# -- the composite kernel ---------------------------------------------------
# Tables are (rows, cells) arrays with UNDEFINED outside the domains.  A
# landing array holds the cell each outer function is read at, or ``cells``
# where an inner value is undefined, which reads an UNDEFINED padding cell.


def _slot_landing(inner: np.ndarray, arity: int, base: int, slot: int) -> np.ndarray:
    """(len(inner), cells): each cell with its slot coordinate replaced by
    inner row j's value there."""
    cells, weight = inner.shape[1], base ** (arity - 1 - slot)
    cell = np.arange(cells)
    cleared = cell - cell // weight % base * weight
    return np.where(inner >= 0, cleared + inner.astype(np.intp) * weight, cells)


def _superposition_landing(inners: list[np.ndarray], base: int) -> np.ndarray:
    """(len(inners[0]), .., len(inners[-1]), cells): the cell whose
    coordinates are the values of one row of each inner table."""
    n, cells = len(inners), inners[0].shape[1]
    landing, defined = 0, True
    for k, inner in enumerate(inners):
        axis = inner.reshape((1,) * k + (len(inner),) + (1,) * (n - 1 - k) + (cells,))
        landing, defined = landing * base + axis.astype(np.intp), defined & (axis >= 0)
    return np.where(defined, landing, cells)


def composite_blocks(table: np.ndarray, arity: int, base: int, flavor: str):
    """Every composite of the rows of ``table``, one block of rows at a
    time: per slot the m*m rows i *slot j (i-major), then on menger
    flavor, per head f, the m**n rows f[args] (argument tuples
    lexicographic).

    A block holds m*m or, on menger flavor, m**max(n, 2) rows of cells,
    and so does its intp landing on menger flavor.  Raises CapacityError
    before the first block when they are over MAX_TABLE_CELLS."""
    m, cells = table.shape
    rows = max(m * m, m**arity if flavor == "menger" else 0)
    _check_table_cells(f"composite blocks of {m} members at arity {arity}", rows * cells)
    padded = np.concatenate([table, np.full((m, 1), UNDEFINED, table.dtype)], axis=1)
    for slot in range(arity):
        yield padded[:, _slot_landing(table, arity, base, slot)].reshape(m * m, cells)
    if flavor == "menger":
        landing = _superposition_landing([table] * arity, base).reshape(m**arity, cells)
        yield from (head[landing] for head in padded)


def _keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row, equal exactly for equal rows."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


# below this many rows the void-key sort costs less than hashing
_HASH_FLOOR = 256
# odd 64-bit constants of the row hash (see _row_hash)
_MULTIPLY, _FINISH = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9)
_SHIFT = np.uint64(29)


def _words(rows: np.ndarray) -> np.ndarray:
    """(rows, words) uint64: each row's bytes, zero-padded only where the
    row's byte width is not a multiple of 8."""
    count, cols = rows.shape
    width = cols * rows.itemsize
    if width % 8 == 0:
        return np.ascontiguousarray(rows).view(np.uint64).reshape(count, width // 8)
    padded = np.zeros((count, -(-width // 8) * 8 // rows.itemsize), rows.dtype)
    padded[:, :cols] = rows
    return padded.view(np.uint64)


def _row_hash(words: np.ndarray) -> np.ndarray:
    """One uint64 per row of words, equal for equal rows: each word is
    xored into the state, which is multiplied by an odd constant and
    xor-shifted, then the state is multiplied once more (multiply-shift
    hashing, Dietzfelbinger et al. 1997), so the high bits depend on
    every word."""
    state, shifted = np.zeros(len(words), np.uint64), np.empty(len(words), np.uint64)
    for column in words.T:
        np.bitwise_xor(state, column, out=state)
        np.multiply(state, _MULTIPLY, out=state)
        np.right_shift(state, _SHIFT, out=shifted)
        np.bitwise_xor(state, shifted, out=state)
    return np.multiply(state, _FINISH, out=state)


def _runs(by_key: np.ndarray, starts: np.ndarray):
    """(first, second) of first_occurrences from by_key, the rows in
    sorted order with each run of equal rows in index order, and starts:
    starts[i] says a run starts at sorted position i, and starts[-1] is
    True."""
    heads = starts[:-1].nonzero()[0]
    heads = heads[by_key[heads].argsort()]
    # (heads + 1 wraps only where the run has no second row)
    return by_key[heads], np.where(starts[heads + 1], -1, by_key[(heads + 1) % len(by_key)])


def _first_occurrences_by_sort(rows: np.ndarray):
    keys = _keys(rows)
    by_key = keys.argsort(kind="stable")  # equal rows stay in order
    ranked = keys[by_key]
    starts = np.ones(len(keys) + 1, bool)
    starts[1:-1] = ranked[1:] != ranked[:-1]
    return _runs(by_key, starts)


def first_occurrences(rows: np.ndarray):
    """(first, second) over the classes of equal rows of a 2-D array,
    numbered by first occurrence: class c's first row is first[c], which
    ascends, and its second row second[c], or -1 when it has none.

    From _HASH_FLOOR rows on, each row's key is the high bits of its hash
    (_row_hash of its bytes as uint64 words) above its index in the low
    (k-1).bit_length() bits, so the k keys are distinct and one integer
    sort orders them, equal hash bits by index.  Equal rows have equal
    hash bits.  So if every pair of sorted neighbours with equal hash
    bits is equal, word by word, each run of equal hash bits is exactly
    one class of equal rows, its rows in index order, as a stable sort of
    the rows would give them.  Otherwise two different rows share their
    hash bits, and the stable sort of the rows' bytes decides, as it does
    below the floor."""
    count = len(rows)
    if count < _HASH_FLOOR:
        return _first_occurrences_by_sort(rows)
    words = _words(rows)
    bits = np.uint64((count - 1).bit_length())
    keys = _row_hash(words) >> bits << bits | np.arange(count, dtype=np.uint64)
    keys.sort()  # the keys are distinct, so no stable sort is needed
    by_key = (keys & ((np.uint64(1) << bits) - np.uint64(1))).astype(np.intp)
    ranked = words.take(by_key, axis=0)
    differ = np.zeros(count - 1, bool)  # sorted row i + 1 differs from row i
    for word in ranked.T:
        differ |= word[1:] != word[:-1]
    keys >>= bits
    if (differ & (keys[1:] == keys[:-1])).any():  # different rows share hash bits
        return _first_occurrences_by_sort(rows)
    starts = np.ones(count + 1, bool)
    starts[1:-1] = differ
    return _runs(by_key, starts)


def row_lookup(rows: np.ndarray):
    """A function that maps a (k, width) array like the nonempty ``rows``
    to the index in ``rows`` of each of its rows (one of them where
    ``rows`` repeats it), or -1 where it is not among them."""
    keys = _keys(rows)
    order = np.argsort(keys)
    ranked = keys[order]

    def find(wanted: np.ndarray) -> np.ndarray:
        wanted = _keys(wanted)
        at = np.searchsorted(ranked, wanted).clip(max=len(ranked) - 1)
        return np.where(ranked[at] == wanted, order[at], -1)

    return find


def _function(arity: int, base_size: int, row: np.ndarray) -> PartialFunction:
    return PartialFunction(arity, base_size, tuple(row.tolist()))


def _check_compatible(f: PartialFunction, g: PartialFunction):
    if f.arity != g.arity or f.base_size != g.base_size:
        raise InputError(
            f"incompatible tables: arity {f.arity}/{g.arity}, "
            f"base {f.base_size}/{g.base_size}"
        )


def superpose(f: PartialFunction, gs: list[PartialFunction]) -> PartialFunction:
    """Feed one inner function per slot: result(a) = f(g1(a), ..., gn(a)).

    Undefined wherever any inner value is undefined or f is undefined at
    the inner-value tuple.
    """
    if len(gs) != f.arity:
        raise InputError(f"superposition needs {f.arity} inner functions, got {len(gs)}")
    for g in gs:
        _check_compatible(f, g)
    inners = [np.array([g.entries]) for g in gs]
    landing = _superposition_landing(inners, f.base_size).ravel()
    return _function(f.arity, f.base_size, np.array(f.entries + (UNDEFINED,))[landing])


def mann_compose(f: PartialFunction, g: PartialFunction, slot: int) -> PartialFunction:
    """Substitute g into argument slot ``slot`` (0-based) of f.

    result(a1..an) = f(a1, ..., g(a1..an), ..., an), undefined when g or
    the outer application is undefined.
    """
    _check_compatible(f, g)
    if not (0 <= slot < f.arity):
        raise InputError(f"slot {slot} out of range [0, {f.arity})")
    landing = _slot_landing(np.array([g.entries]), f.arity, f.base_size, slot)
    return _function(f.arity, f.base_size, np.array(f.entries + (UNDEFINED,))[landing[0]])


@dataclass(frozen=True)
class ConcreteAlgebra:
    """A duplicate-free, composition-closed set of partial functions.

    ``table`` is the read-only (m, base**n) array of the members' entries,
    in the smallest signed dtype that holds base - 1.  Values derived from
    the members are computed once through :meth:`derived` and kept.
    """

    arity: int
    base_size: int
    functions: tuple[PartialFunction, ...]
    flavor: str  # "menger" | "plain"
    table: np.ndarray = field(init=False, repr=False, compare=False)
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.flavor not in ("menger", "plain"):
            raise InputError(f"unknown flavor {self.flavor!r}")
        if self.arity > MAX_ARITY or self.base_size**self.arity > MAX_CELLS:
            raise InputError(f"base {self.base_size} at arity {self.arity} is over the "
                             f"table caps (arity {MAX_ARITY}, {MAX_CELLS} cells)")
        if any(f.arity != self.arity or f.base_size != self.base_size
               for f in self.functions):
            raise InputError("all member functions must share arity and base_size")
        if len(set(self.functions)) < len(self.functions):
            raise InputError("duplicate function table in algebra")
        table = np.array([f.entries for f in self.functions],
                         dtype=np.min_scalar_type(-max(self.base_size, 1)))
        table = table.reshape(len(self.functions), self.base_size**self.arity)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def __len__(self) -> int:
        return len(self.functions)

    def derived(self, key, compute):
        """The value kept under ``key``, made by ``compute()`` on first use."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

    def composite_indices(self):
        """(indices, None) when closed under the applicable compositions,
        where indices holds the member index of every composite in
        composite_blocks order, in the smallest unsigned dtype that holds
        m - 1; else (None, (description, composite)) for the first
        composite that is not a member.  Raises CapacityError before the
        first block when the n*m*m slot and, on menger flavor, m**(n+1)
        superposition indices are over MAX_TABLE_CELLS."""
        m, n = len(self), self.arity
        _check_table_cells(f"composite indices of {m} members at arity {n}",
                           n * m * m + (m ** (n + 1) if self.flavor == "menger" else 0))
        find = row_lookup(self.table)
        indices = []
        for b, block in enumerate(composite_blocks(self.table, n, self.base_size, self.flavor)):
            at = find(block)
            missing = np.flatnonzero(at < 0)
            if missing.size:
                r = int(missing[0])
                if b < n:
                    label = f"f{r // m} *{b + 1} f{r % m}"
                else:
                    args = " ".join(f"f{a}" for a in np.unravel_index(r, (m,) * n))
                    label = f"f{b - n}[{args}]"
                return None, (label, _function(n, self.base_size, block[r]))
            indices.append(at.astype(np.min_scalar_type(max(m - 1, 0))))
        return np.concatenate(indices), None


def close_under_operations(
    generators: list[PartialFunction],
    flavor: str = "menger",
    cap: int = DEFAULT_CLOSURE_CAP,
    arity: int | None = None,
    base_size: int | None = None,
) -> ConcreteAlgebra:
    """Least superset of the generators closed under all slot compositions
    (and superposition for menger flavor), in breadth-first insertion order:
    each round appends the composites of the members so far that are new,
    in composite_blocks order of first occurrence.

    ``arity``/``base_size`` are only needed for an empty generator list.
    Raises ClosureCapError with the partial count when the closure would
    exceed ``cap`` elements, and CapacityError when a block of composites
    is over MAX_TABLE_CELLS (see composite_blocks).
    """
    if generators and arity is None:
        arity, base_size = generators[0].arity, generators[0].base_size
    if arity is None or base_size is None:
        raise InputError("empty generator list needs explicit arity and base_size")
    start = ConcreteAlgebra(arity, base_size, tuple(dict.fromkeys(generators)), flavor)
    if len(start) > cap:
        raise ClosureCapError(f"closure cap {cap} exceeded", count=len(start))

    table = start.table
    # each member's entries as bytes; a dict keeps first insertion order
    members = dict.fromkeys(_keys(table).tolist())
    while True:
        for block in composite_blocks(table, arity, base_size, flavor):
            members.update(dict.fromkeys(_keys(block).tolist()))
            if len(members) > cap:
                raise ClosureCapError(f"closure cap {cap} exceeded", count=cap + 1)
        if len(members) == len(table):
            break
        table = np.frombuffer(b"".join(members), table.dtype).reshape(len(members), -1)

    functions = tuple(_function(arity, base_size, row) for row in table)
    return ConcreteAlgebra(arity, base_size, functions, flavor)


# -- the domain-relation kernel -----------------------------------------------


def relations_of_domains(domains: np.ndarray):
    """(chi, gamma, pi) of the rows of a (members, points) bool array: chi
    holds where the first row's points all lie in the second, gamma where
    the rows share a point, pi where they are equal.  The columns are read
    in blocks under BLOCK_BYTES, at nine bytes per member and column: the
    negated bools and two float32 copies (see bitrel._product)."""
    size = len(domains)
    step = block_rows(9 * size)
    outside = overlap = np.zeros((size, size), dtype=bool)
    for start in range(0, domains.shape[1], step):
        block = domains[:, start : start + step]
        outside = outside | _product(block, ~block.T)
        overlap = overlap | _product(block, block.T)
    return (BinRelation.from_array(~outside), BinRelation.from_array(overlap),
            BinRelation.from_array(~(outside | outside.T)))


def domain_relations(algebra: ConcreteAlgebra):
    """(chi, gamma, pi) of the member functions' domains."""
    return relations_of_domains(algebra.table >= 0)
