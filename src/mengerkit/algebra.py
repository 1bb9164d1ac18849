"""Abstract finite (2,n)-semigroups given by operation tables.

The carrier is {0..m-1}.  ``mann[i, x, y]`` is the slot-i binary
composition (0-based slots internally; files and reports are 1-based).
Menger-flavor algebras additionally carry a full superposition table,
``superposition[g, g1, ..., gn]``.

Composition words are sequences of (slot, element) steps.  The state of a
word is the pair (slot occupants, action): occupant i is the element that
ends up in argument slot i after performing the word (EMPTY when the slot
was never touched), and the action maps each x to the result of pushing x
through the word.  All word-quantified conditions are decided exactly on
the finite set of reachable states; no word-length truncation is involved.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, InputError
from .tables import (MAX_ARITY, ConcreteAlgebra, _check_law_cap, _keys, block_rows,
                     first_occurrences)

EMPTY = -1  # unoccupied slot marker; only valid at its own position

DEFAULT_STATE_CAP = 2_000_000

Word = tuple[tuple[int, int], ...]  # ((slot, element), ...), slots 0-based


@dataclass(frozen=True)
class Violation:
    """A falsified law together with the instantiation that falsifies it."""

    law: str
    witness: tuple
    detail: str = ""


def _table_ok(table, shape: tuple[int, ...], size: int) -> bool:
    """Nested int lists, or an integer array, of the given shape with
    entries in 0..size-1; booleans are not entries."""
    if isinstance(table, np.ndarray):
        return (table.dtype.kind in "iu" and table.shape == shape
                and 0 <= table.min() and table.max() < size)
    if not shape:
        return type(table) is int and 0 <= table < size
    if not isinstance(table, (list, tuple)) or len(table) != shape[0]:
        return False
    return all(_table_ok(entry, shape[1:], size) for entry in table)


def _read_only(table) -> np.ndarray:
    """A read-only intp copy: derived data stays valid for the algebra's life."""
    array = np.array(table, dtype=np.intp)
    array.flags.writeable = False
    return array


class AbstractAlgebra:
    """Operation tables plus lazily computed derived data.

    ``mann`` is a read-only (n, m, m) intp array and ``superposition`` a
    read-only (m,) * (n + 1) intp array, or None on plain flavor.  Every
    value derived from the tables (word states and their word pairs, zero,
    plain reduct, seed relations, translation table and its classes,
    superposition generators and the law verdicts decided at them,
    universe, oracle family) is computed once through :meth:`derived` and
    kept for the algebra's lifetime, so it is observable as if computed
    eagerly.  So is each decision about given relations, keyed by them:
    the predicates' verdicts under (law, r), the closures under (kind,
    pi), and the round-trip stages under ("roundtrip", anchor, gamma) and
    ("faithful", concrete, anchor) (see theorems.roundtrip).  A compute
    that raises keeps nothing.
    """

    def __init__(self, arity, size, mann, superposition=None, zero=None,
                 flavor="menger"):
        if not 1 <= arity <= MAX_ARITY:
            raise InputError(f"arity must be in 1..{MAX_ARITY}")
        if size < 1:
            raise InputError("carrier size must be positive")
        if flavor not in ("menger", "plain"):
            raise InputError(f"unknown flavor {flavor!r}")
        if not _table_ok(mann, (arity, size, size), size):
            raise InputError(f"mann must be a list of {arity} total {size}x{size} tables")
        if flavor == "menger":
            if superposition is None:
                raise InputError("menger flavor requires a superposition table")
            if not _table_ok(superposition, (size,) * (arity + 1), size):
                raise InputError("superposition table has wrong shape or entries")
            superposition = _read_only(superposition)
        elif superposition is not None:
            raise InputError("plain flavor must not carry a superposition table")
        self.arity = arity
        self.size = size
        self.mann = _read_only(mann)
        self.superposition = superposition
        self.flavor = flavor
        self.zero = zero
        if zero is not None:
            if type(zero) is not int or not (0 <= zero < size):
                raise InputError(f"zero index {zero!r} out of range")
            violation = _zero_law_violation(self, zero)
            if violation is not None:
                raise InputError(f"declared zero {zero} breaks {violation.law} "
                                 f"at {violation.witness}")
        self._derived = {} if zero is None else {"zero": zero}

    def __eq__(self, other):
        return (
            isinstance(other, AbstractAlgebra)
            and self.arity == other.arity
            and self.size == other.size
            and np.array_equal(self.mann, other.mann)
            and np.array_equal(self.superposition, other.superposition)  # or both None
            and self.zero == other.zero
            and self.flavor == other.flavor
        )

    def __repr__(self):
        return (f"AbstractAlgebra(arity={self.arity}, size={self.size}, "
                f"flavor={self.flavor!r}, zero={self.zero})")

    # -- derived data ---------------------------------------------------

    def derived(self, key, compute):
        """The value kept under ``key``, made by ``compute()`` on first use."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

    def plain_reduct(self) -> AbstractAlgebra:
        """The same carrier and mann tables with superposition forgotten."""
        if self.flavor == "plain":
            return self
        return self.derived("reduct", lambda: AbstractAlgebra(
            self.arity, self.size, self.mann, None, self.zero, "plain"))

    def zero_element(self) -> int | None:
        """The unique element obeying the zero laws, computed on demand."""
        return self.derived("zero", lambda: find_zero(self))

    def states(self) -> "StateSpace":
        """The reachable word states under DEFAULT_STATE_CAP, kept with the
        algebra (see reachable_states)."""
        return self.derived("states", lambda: reachable_states(self))


def right_translations(alg: AbstractAlgebra):
    """(table, args), kept with the algebra.  ``table`` is the read-only
    (m, n*m + m**n) table of every right translation of x, in the smallest
    unsigned dtype that holds m - 1: column block i holds x *i z for z =
    0..m-1, then on menger flavor one column x[zs] per argument tuple zs,
    lexicographic; row k of ``args`` is the k-th zs (None on plain
    flavor).  The blocks are written into the table in place."""
    def compute():
        n, m = alg.arity, alg.size
        menger = alg.flavor == "menger"
        table = np.empty((m, n * m + (m**n if menger else 0)), np.min_scalar_type(m - 1))
        for slot in range(n):
            table[:, slot * m : (slot + 1) * m] = alg.mann[slot]
        args = None
        if menger:
            table[:, n * m :] = alg.superposition.reshape(m, m**n)
            args = _read_only(np.indices((m,) * n).reshape(n, -1).T)
        table.flags.writeable = False
        return table, args

    return alg.derived("translations", compute)


def translation_classes(alg: AbstractAlgebra):
    """(reps, table, landing), kept with the algebra: the columns of
    right_translations that start a class of equal columns (see
    distinct_columns), the read-only (m, classes) table of those columns,
    one distinct right translation each, and the (m, classes) intp index
    table[x, c] + m * c, where class c's block of a row gathered per class
    holds the entry of table[x, c].  The index stays writeable: numpy's
    take copies a read-only index on every call (4.7 MB per row block at
    m=108)."""
    def compute():
        table, _ = right_translations(alg)
        reps = distinct_columns(table)
        classes = _read_only(table.take(reps, axis=1))  # intp, C order, for row gathers
        return reps, classes, classes + alg.size * np.arange(len(reps))

    return alg.derived("translation classes", compute)


def superposition_generators(alg: AbstractAlgebra) -> np.ndarray | None:
    """The ascending elements G at which the Menger laws and the
    homomorphism check are decided (see check_menger_identities), kept
    with the algebra: a set whose closure under superposition is the whole
    carrier, or None on plain flavor and where G is the whole carrier.

    G starts with the elements outside the superposition table's image,
    which every generating set holds, and takes the first element that the
    closure of G misses until that closure, made from G alone, is the
    carrier: a set is returned only once its closure has been checked."""
    def compute():
        if alg.flavor != "menger":
            return None
        heads = np.ones(alg.size, bool)
        heads[alg.superposition.ravel()] = False
        while not (inside := _superposition_closure(alg, heads)).all():
            heads[inside.argmin()] = True
        return None if heads.all() else np.flatnonzero(heads)

    return alg.derived("generators", compute)


def _superposition_closure(alg: AbstractAlgebra, inside: np.ndarray) -> np.ndarray:
    """The least set that holds the True entries of the bool row
    ``inside`` and is closed under superposition, as a new bool row: each
    round adds every x[ys] with x and ys among the members so far,
    gathered for blocks of heads x under BLOCK_BYTES."""
    n, m = alg.arity, alg.size
    table = alg.superposition.reshape(m, m**n)
    while True:
        members = np.flatnonzero(inside)
        tuples = members  # the column of each ys, lexicographic
        for _ in range(n - 1):
            tuples = (tuples[:, None] * m + members).ravel()
        grown = inside.copy()
        step = block_rows(len(tuples) * table.itemsize)
        for start in range(0, len(members), step):
            grown[table[members[start : start + step, None], tuples]] = True
        if np.count_nonzero(grown) == len(members):
            return grown
        inside = grown


@dataclass(frozen=True)
class WordState:
    """A reachable state as a value: occupants, action, and the depth and
    word of its first event and the word of its second (None: no second)."""

    slots: tuple[int, ...]
    action: tuple[int, ...]
    depth: int
    word: Word
    alt_word: Word | None = field(default=None, compare=False)


@dataclass(frozen=True)
class StateSpace:
    """Reachable states in BFS order, the empty word excluded, as three
    read-only arrays: ``slots[s]`` holds state s's occupants (EMPTY where
    a slot is untouched) in the smallest signed dtype that holds m - 1,
    ``actions[s]`` its action, and ``events[s]`` the
    first and the second expansion event that reach it (-1: none).  An
    event is parent * n * m + slot * m + y, where parent 0 is the empty
    word and parent p > 0 is state p - 1; each first event comes from an
    earlier state, so words are rebuilt by following parent pointers."""

    slots: np.ndarray  # (states, n)
    actions: np.ndarray  # (states, m)
    events: np.ndarray  # (states, 2)

    def word(self, s: int) -> Word:
        """The word of state s's first event, a shortest one."""
        return self._word(int(self.events[s, 0]))

    def alt_word(self, s: int) -> Word | None:
        """The word of state s's second event (maybe deeper), or None."""
        return None if self.events[s, 1] < 0 else self._word(int(self.events[s, 1]))

    def _word(self, event: int) -> Word:
        m, steps = self.actions.shape[1], []
        while event >= 0:  # parent 0, the empty word, has no event
            parent, step = divmod(event, self.slots.shape[1] * m)
            steps.append(divmod(step, m))
            event = int(self.events[parent - 1, 0]) if parent else -1
        return tuple(reversed(steps))

    @property
    def states(self) -> tuple[WordState, ...]:
        """Every state as a :class:`WordState`, in BFS order: a view for
        callers outside the package, built on each access and not kept."""
        rows = enumerate(zip(self.slots.tolist(), self.actions.tolist()))
        return tuple(WordState(tuple(occupants), tuple(action), len(word := self.word(s)),
                               word, self.alt_word(s)) for s, (occupants, action) in rows)


def reachable_states(alg: AbstractAlgebra, cap: int = DEFAULT_STATE_CAP) -> StateSpace:
    """BFS over word states from the empty word under all one-step
    extensions (slot, y).  State identity is (slots, action); each state
    keeps the first and the second expansion event that reach it, events
    running in the order (parent in BFS order, slot, y) (see StateSpace).

    A state is one fixed-width row: n slot entries (EMPTY coded as m),
    then m action entries, in the smallest unsigned dtype that holds m.
    The frontier is expanded in blocks of parents (block_rows), each
    block's children gathered from the mann tables, split into classes of
    equal rows (first_occurrences) and looked up once per class.  Raises
    CapacityError with count cap + 1 when more than ``cap`` states are
    reachable."""
    n, m = alg.arity, alg.size
    width, fan = n + m, n * m  # row width, children per parent
    dtype = np.min_scalar_type(m)
    # step[slot, v, y] = v *slot y, with an extra row m that keeps EMPTY;
    # fill is the same table whose row m puts y into its own empty slot
    step = np.full((n, m + 1, m), m, dtype)
    step[:, :m] = alg.mann
    fill = step.copy()
    fill[:, m] = np.arange(m)
    # a child holds its row, the row as zero-padded uint64 words, those
    # words again in sorted order, and its 8-byte hash, key and order (see
    # first_occurrences)
    padded = -(-width * dtype.itemsize // 8) * 8
    parents_per_block = block_rows(fan * (width * dtype.itemsize + 2 * padded + 24))

    # per state: its row, its first event and its second one (-1: none);
    # an event is parent * fan + slot * m + y.  State 0 is the empty word,
    # which no event reaches, since each one fills a slot.  Events are kept
    # as machine integers: kept Python ints, scattered among each block's
    # short-lived ones, held about 1 MB more of the heap on ``queries``.
    rows = np.empty((64, width), dtype)
    rows[0] = [m] * n + list(range(m))
    first_event, second_event = array('q', [-1]), array('q', [-1])
    seen = {rows[0].tobytes(): 0}
    start = 0
    while start < len(seen):
        count = len(seen)
        stop = min(count, start + parents_per_block)
        parents = rows[start:stop]
        children = np.empty((stop - start, n, m, width), dtype)
        for slot in range(n):
            children[:, slot] = step[slot][parents].transpose(0, 2, 1)
            children[:, slot, :, slot] = fill[slot][parents[:, slot]]
        children = children.reshape(-1, width)
        first, second = first_occurrences(children)
        base = start * fan
        fresh = []  # the children that are new states, in event order
        for key, one, two in zip(_keys(children)[first].tolist(), (first + base).tolist(),
                                 np.where(second < 0, -1, second + base).tolist()):
            state = seen.get(key)  # one lookup per distinct row
            if state is None:
                seen[key] = len(first_event)
                first_event.append(one)
                second_event.append(two)
                fresh.append(one - base)
            elif second_event[state] < 0:  # met again: this is its second event
                second_event[state] = one
        if len(seen) - 1 > max(cap, 0):  # the empty word is not counted
            raise CapacityError(f"state cap {cap} exceeded", count=max(cap, 0) + 1)
        if len(seen) > len(rows):
            rows = np.resize(rows, (max(2 * len(rows), len(seen)), width))
        rows[count : len(seen)] = children[fresh]
        start = stop

    rows = rows[1 : len(seen)]  # the empty word is not a state
    # slot code v is v, and m is EMPTY
    slots = np.append(np.arange(m), EMPTY).astype(np.min_scalar_type(-m))[rows[:, :n]]
    slots.flags.writeable = False
    events = np.stack([first_event, second_event], axis=1)[1:]
    return StateSpace(slots, _read_only(rows[:, n:]), _read_only(events))


def _shared_slots(space: StateSpace) -> tuple[int, int] | None:
    """The first two states, in BFS order, of the first group of states
    with equal occupants (groups in order of their first state), or None."""
    first, second = first_occurrences(space.slots)
    twinned = np.flatnonzero(second >= 0)
    if not twinned.size:
        return None
    return int(first[twinned[0]]), int(second[twinned[0]])


def check_representability(alg: AbstractAlgebra) -> Violation | None:
    """Decide the faithful-representability implication: equal slot
    occupants for two words must force equal actions.

    Exact over all words of any length via state reachability.  The
    returned witness carries the two words and an element where the
    actions differ.
    """
    space = alg.states()
    pair = _shared_slots(space)
    if pair is None:
        return None
    (s, t), actions = pair, space.actions
    (g,) = _first(actions[s] != actions[t])  # distinct states with equal slots
    witness = (space.word(s), space.word(t), g, int(actions[s, g]), int(actions[t, g]))
    return Violation("representability", witness,
                     "two words share slot occupants but act differently")


def _first(diff: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry in row-major order, or None."""
    k = int(diff.argmax()) if diff.size else 0
    if not diff.size or not diff.item(k):
        return None
    where = []
    for extent in reversed(diff.shape):  # np.unravel_index costs more per call
        k, i = divmod(k, extent)
        where.append(i)
    return tuple(reversed(where))


def check_associativity(alg: AbstractAlgebra) -> Violation | None:
    """Each slot composition must be associative; the first violating
    (x, y, z) in lexicographic order wins, slot by slot.

    With t the column z of the slot table, the map c -> c *i z, the law
    reads t(x *i y) = x *i t(y): scan_equations checks it with the table
    as heads, left and right side, landing y at y *i z.  The n * m**3
    equations raise CapacityError before the first pass when they are
    over MAX_EQUATIONS."""
    n, m = alg.arity, alg.size
    _check_law_cap("associativity", n * m**3)
    for slot, M in enumerate(alg.mann):
        values = M.astype(np.min_scalar_type(m - 1))
        _, found = scan_equations(M, values, values,
                                  lambda start, stop: (M[start:stop], None))
        if found is not None:
            return Violation(
                f"associativity:{slot + 1}", found,
                f"(x *{slot + 1} y) *{slot + 1} z != x *{slot + 1} (y *{slot + 1} z)")
    return None


def check_menger_identities(alg: AbstractAlgebra) -> Violation | None:
    """Menger-flavor compatibility laws of superposition with the slot
    compositions: superassociativity, both mixed identities, and the
    slot-complete word identity (checked on every reachable state whose
    occupants are all carrier elements).

    Superassociativity and the mixed laws are decided at the heads of
    superposition_generators, a set G whose closure under superposition
    is the carrier (Light's associativity test, Clifford & Preston I,
    1.2, carried over).  Say P(x) holds when x[xs][ys] = x[x1[ys] ..
    xn[ys]] for all xs and ys.  If P(g) and every P(h_i) hold, then P
    holds at x = g[h1..hn]: x[xs][ys] = g[h1[xs]..hn[xs]][ys] =
    g[h1[xs][ys] ..] = g[h1[x1[ys]..] ..] = x[x1[ys] ..], by P(g), P(g),
    each P(h_i) and P(g).  So P on G gives P everywhere.  With
    superassociativity everywhere, superposition-into-slot at g and at
    each h_i gives it at g[h1..hn] in the same way, and then, with both,
    slot-into-superposition does; so in each slot superposition-into-slot
    is decided first.  A failure at a head in G is a failure, and then
    the law's scan of every head finds the first witness, so verdicts and
    witnesses are those of the scan of every head.  The verdicts at G are
    kept with the algebra (_holds_at_generators), for verify_homomorphism.

    Every phase compares its equations in passes under BLOCK_BYTES.
    Superassociativity compares |G| * m**n equations per distinct column
    (m**(n+1) per column when every head is scanned) and the mixed laws
    2 * n * |G| * m**(n+1) (2 * n * m**(n+2)); each raises
    CapacityError, naming the phase and the count it would compare, before
    its first pass when that count is over MAX_EQUATIONS.  The word
    identity compares m equations per slot-complete state, which the state
    cap bounds."""
    if alg.flavor != "menger":
        raise InputError("menger identities require menger flavor")
    violation = _superassociativity_violation(alg) or _mixed_law_violation(alg)
    if violation is not None:
        return violation

    space = alg.states()
    found = _word_superposition_mismatch(alg, space)
    if found is not None:
        s, x = found
        return Violation(
            "word-superposition", (space.word(s), x),
            "x . word != x[occupants(word)] on a slot-complete word")
    return None


def _holds_at_generators(alg: AbstractAlgebra, law: str) -> bool:
    """Whether ``law``, "superassociativity" or "mixed laws", is known
    to hold at every head, kept with the algebra: decided at the heads of
    superposition_generators alone, the mixed laws only once
    superassociativity holds (see check_menger_identities).  False where
    there are no such heads or the law fails at one of them."""
    def compute():
        heads = superposition_generators(alg)
        if heads is None:
            return False
        if law == "superassociativity":
            return _superassociativity(alg, heads) is None
        return (_holds_at_generators(alg, "superassociativity")
                and _mixed_laws(alg, heads) is None)

    return alg.derived(("holds at generators", law), compute)


def distinct_columns(table: np.ndarray) -> np.ndarray:
    """The first column of each class of equal columns of a 2-D table,
    ascending: class c, numbered by first occurrence, starts at column
    reps[c], and no class starts before a lower-numbered one."""
    return first_occurrences(table.T)[0]


def fold_arguments(table: np.ndarray, n: int, start: int, stop: int, combine) -> np.ndarray:
    """combine(..combine(table[a_1], table[a_2]).., table[a_n]), column by
    column, for the argument tuples a = (a_1..a_n) with a_1 in
    start..stop-1, in lexicographic order: shape ((stop - start) *
    m**(n-1), columns) for an (m, columns) table."""
    width, folded = table.shape[1], None
    for k in range(n):
        rows = table[start:stop] if k == 0 else table
        rows = rows.reshape((1,) * k + (len(rows),) + (1,) * (n - 1 - k) + (width,))
        folded = rows if folded is None else combine(folded, rows)
    return folded.reshape(-1, width)


def tuple_index(coords: np.ndarray, n: int, radix: int, start: int, stop: int) -> np.ndarray:
    """The linear index, in radix ``radix``, of each argument tuple's
    column of coords (see fold_arguments); coords is an intp table with
    entries below radix."""
    return fold_arguments(coords, n, start, stop, lambda index, c: index * radix + c)


def scan_equations(heads: np.ndarray, left: np.ndarray, right: np.ndarray, land,
                   low: int = 0, head_rows: np.ndarray | None = None):
    """(failing bits, first failing (h, a, c) or None) of the equations

        left[heads[h, a], c] == right[h, landing[a, c]] & gate[a, c]

    for every head h (a row of ``heads``, or only the ascending rows
    ``head_rows`` when given), argument a (a column of
    ``heads``: m**k argument tuples, lexicographic, so each leading
    argument owns a run of m**(k-1)) and column c of ``left``.  Column c
    is a map of the carrier, a point's words or an argument tuple's values;
    the left side is that map at the composite heads[h, a], and the right
    side is h's entry of ``right`` where the argument values land.
    ``land(start, stop)`` returns (landing, gate) for the arguments whose
    leading one is in start..stop-1, each (arguments, columns); a gate of
    None is all ones.

    A block of leading arguments holds their landing entries, intp, which
    numpy gathers with no per-call index conversion, and a gate of
    ``right``'s width beside each; a pass holds both sides of its heads'
    equations, each at its table's width.  Both take their lengths from
    block_rows, so when every argument and every head fit under
    BLOCK_BYTES the scan is one pass.

    With ``low`` 0 an equation fails exactly where x = (right & gate) ^
    left is nonzero, and the scan stops at the first failing equation in
    the order (h, a, c): a failure at head h in one block is the first of
    all heads <= h there, and a later block can only hold an earlier one at
    a smaller head, so later blocks check only those.  With domain bits
    ``low`` (see represent._scan) it returns the OR of every equation's
    fail word and no witness.

    Columns may stand for classes.  Where every equation depends on its
    member (a point, or an argument tuple) only through the member's
    column, a caller passes one column per class of members with equal
    columns, numbered by first occurrence (distinct_columns).  The failing
    members at (h, a) are then the union of the failing classes, and the
    first of them is the first member of the lowest-numbered failing
    class.  So the first failing (h, a, c) gives the first failing
    (h, a, member) over all members, and every distinct equation is still
    compared."""
    m, columns = left.shape  # a composite is a row of left
    if head_rows is not None:
        heads, right = heads[head_rows], right[head_rows]
    per_row = heads.shape[1] // m
    rows = block_rows(per_row * columns * (np.dtype(np.intp).itemsize + right.itemsize))
    failing, found, last = 0, None, len(heads)
    for start in range(0, m, rows):
        landing, gate = land(start, min(m, start + rows))
        first = start * per_row
        arguments = slice(first, first + len(landing))
        chunk = block_rows(landing.size * (left.itemsize + right.itemsize))
        for h in range(0, last, chunk):
            lhs = left[heads[h : min(last, h + chunk), arguments]]
            x = right[h : h + len(lhs)].take(landing, axis=1)
            if gate is not None:
                x &= gate
            x ^= lhs
            if not x.any():
                continue
            if not low:
                head, a, c = _first(x != 0)
                last = h + head
                found = (last if head_rows is None else int(head_rows[last]), first + a, c)
                break
            differ = x > low  # the values differ
            x &= low  # bL ^ bR
            lhs &= low  # bL
            lhs *= differ
            x |= lhs
            failing |= int(np.bitwise_or.reduce(x, axis=None))
    return failing, found


def _superassociativity_violation(alg: AbstractAlgebra) -> Violation | None:
    """First failure of superassociativity: None when it holds at the
    superposition generators (_holds_at_generators), else the scan of
    every head."""
    if _holds_at_generators(alg, "superassociativity"):
        return None
    return _superassociativity(alg)


def _superassociativity(alg: AbstractAlgebra, heads: np.ndarray | None = None):
    """First failure of x0[x1..xn][ys] = x0[x1[ys] .. xn[ys]] with x0
    among the ascending ``heads`` (default: every element), in
    lexicographic order of (x0, xs, ys).

    With c the column x -> x[ys] of the superposition table, the law reads
    c(x0[xs]) = x0[c(x1) .. c(xn)], so it depends on ys only through c:
    scan_equations checks it once per distinct column, with the table as
    heads and right side, and the first failing (x0, xs, class) names the
    first failing ys, the first tuple of its class."""
    n, m = alg.arity, alg.size
    table = alg.superposition.reshape(m, m**n)  # table[x, k]: x at the k-th tuple
    values = table.astype(np.min_scalar_type(m - 1))
    reps = distinct_columns(values)
    count = m if heads is None else len(heads)
    _check_law_cap("Menger identities: superassociativity", len(reps) * count * m**n)
    coords = table[:, reps]
    _, found = scan_equations(table, values[:, reps], values,
                              lambda start, stop: (tuple_index(coords, n, m, start, stop),
                                                   None), head_rows=heads)
    if found is None:
        return None
    x0, k, c = found
    xs, ys = (tuple(int(v) for v in np.unravel_index(j, (m,) * n)) for j in (k, reps[c]))
    return Violation("superassociativity", ((x0, *xs), ys),
                     "x0[x1..xn][y1..yn] != x0[x1[y..] .. xn[y..]]")


def _word_superposition_mismatch(alg: AbstractAlgebra,
                                 space: StateSpace) -> tuple[int, int] | None:
    """First (state index, x), in BFS order, with x . word != x[occupants]
    on a slot-complete state, in blocks of states (block_rows): a state
    holds its routed values, its action and their comparison."""
    complete = np.flatnonzero((space.slots != EMPTY).all(axis=1))
    rows = block_rows(alg.size * (alg.superposition.itemsize + space.actions.itemsize + 1))
    for start in range(0, len(complete), rows):
        block = complete[start : start + rows]
        routed = alg.superposition[(np.arange(alg.size), *space.slots[block].T[:, :, None])]
        where = _first(space.actions[block] != routed)
        if where is not None:
            return int(block[where[0]]), where[1]
    return None


def _mixed_law_violation(alg: AbstractAlgebra) -> Violation | None:
    """First failure of the two mixed laws: None when they hold at the
    superposition generators (_holds_at_generators), else the scan of
    every head."""
    if _holds_at_generators(alg, "mixed laws"):
        return None
    return _mixed_laws(alg)


def _mixed_laws(alg: AbstractAlgebra, heads: np.ndarray | None = None):
    """First failure of the two mixed laws with head x among the
    ascending ``heads`` (default: every element), slot by slot, each over
    all instantiations in lexicographic order of its witness, both by
    scan_equations with the superposition table as right side:

    - slot-into-superposition (x *i y)[z1..zn] = x[z1.. y[z1..zn] ..zn],
      witness (x, y, zs): head x, argument y, and one column per zs, the
      column c -> c[zs]; y's argument lands at zs with slot i set to y[zs];
    - superposition-into-slot x[y1..yn] *i z = x[y1 *i z .. yn *i z],
      witness (x, ys, z): head x, arguments ys, and one column per z, the
      right translation c -> c *i z; ys lands at (y1 *i z .. yn *i z).

    Every head checks slot-into-superposition first in each slot, in
    witness order; given heads check superposition-into-slot first, which
    the other's induction step uses (see check_menger_identities)."""
    n, m = alg.arity, alg.size
    count = m if heads is None else len(heads)
    _check_law_cap("Menger identities: mixed laws", 2 * n * count * m ** (n + 1))
    dtype = np.min_scalar_type(m - 1)
    table = alg.superposition.reshape(m, m**n)
    values = table.astype(dtype)
    tuples = np.arange(m**n)

    def slot_into_superposition(slot, M):
        weight = m ** (n - 1 - slot)
        base = tuples - tuples // weight % m * weight  # zs with slot i cleared
        _, found = scan_equations(M, values, values, lambda start, stop: (
            base + table[start:stop] * weight, None), head_rows=heads)
        if found is None:
            return None
        x, y, k = found
        zs = tuple(int(v) for v in np.unravel_index(k, (m,) * n))
        return Violation(f"slot-into-superposition:{slot + 1}", (x, y, zs),
                         "(x *i y)[z..] != x[z.. y[z..] ..z]")

    def superposition_into_slot(slot, M):
        _, found = scan_equations(table, M.astype(dtype), values, lambda start, stop: (
            tuple_index(M, n, m, start, stop), None), head_rows=heads)
        if found is None:
            return None
        x, k, z = found
        ys = tuple(int(v) for v in np.unravel_index(k, (m,) * n))
        return Violation(f"superposition-into-slot:{slot + 1}", (x, ys, z),
                         "x[y..] *i z != x[y1 *i z .. yn *i z]")

    laws = (slot_into_superposition, superposition_into_slot)
    for slot, M in enumerate(alg.mann):
        for law in laws if heads is None else laws[::-1]:
            violation = law(slot, M)
            if violation is not None:
                return violation
    return None


def find_zero(alg: AbstractAlgebra) -> int | None:
    """The unique element absorbing every composition, or None."""
    z = np.arange(alg.size)  # candidates: z *i g == z == g *i z in every slot
    absorbing = (alg.mann == z[:, None]).all(axis=(0, 2)) & (alg.mann == z).all(axis=(0, 1))
    for z in np.flatnonzero(absorbing).tolist():
        if _zero_law_violation(alg, z) is None:
            return z
    return None


def _zero_law_violation(alg: AbstractAlgebra, z: int) -> Violation | None:
    """First failure of the zero laws at z: slot by slot, g ascending,
    left absorption before right at the same g; then superposition with
    z as head, then with z as an argument (g, slot, other arguments)."""
    left, right = alg.mann[:, z] != z, alg.mann[:, :, z] != z  # axes (slot, g)
    where = _first(left | right)
    if where is not None:
        slot, g = where
        if left[slot, g]:
            return Violation(f"zero-left:{slot + 1}", (z, g), "0 *i g != 0")
        return Violation(f"zero-right:{slot + 1}", (g, z), "g *i 0 != 0")
    if alg.flavor == "menger":
        S = alg.superposition
        where = _first(S[z] != z)
        if where is not None:
            return Violation("zero-superposition-head", (z, where), "0[g..] != 0")
        # axes (g, slot, other arguments): z fills the slot
        where = _first(np.stack([np.take(S, z, axis=slot + 1)
                                 for slot in range(alg.arity)], axis=1) != z)
        if where is not None:
            g, slot, *rest = where
            args = (*rest[:slot], z, *rest[slot:])
            return Violation("zero-superposition-arg", (g, slot + 1, args),
                             "g[.. 0 ..] != 0")
    return None


def abstract_from_concrete(conc: ConcreteAlgebra) -> AbstractAlgebra:
    """Read operation tables off a closed concrete algebra.

    The carrier is the member index set in the algebra's own order.  A
    composite that is missing from the member list is a closure violation
    and raises InputError naming it.  The zero field is the unique member
    obeying the zero laws when one exists (the empty function whenever it
    is a member).
    """
    alg, missing = abstraction_or_witness(conc)
    if missing is not None:
        raise InputError(f"concrete algebra is not closed: {missing[0]} missing")
    return alg


def abstraction_or_witness(conc: ConcreteAlgebra):
    """(abstraction, None) when ``conc`` is closed, else (None, witness)
    with the (description, composite) of the first missing composite:
    closedness and the tables come from one composite pass."""
    n, m = conc.arity, len(conc)
    if m == 0:
        raise InputError("cannot abstract an empty concrete algebra")
    indices, missing = conc.composite_indices()
    if missing is not None:
        return None, missing
    mann, rest = indices[: n * m * m].reshape(n, m, m), indices[n * m * m :]
    superposition = rest.reshape((m,) * (n + 1)) if conc.flavor == "menger" else None

    alg = AbstractAlgebra(n, m, mann, superposition, flavor=conc.flavor)
    zero = alg.zero_element()
    if zero is not None:
        alg = AbstractAlgebra(n, m, mann, superposition, zero, conc.flavor)
    return alg, None
