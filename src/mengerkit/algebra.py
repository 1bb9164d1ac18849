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
from .tables import MAX_ARITY, ConcreteAlgebra, _keys

EMPTY = -1  # unoccupied slot marker; only valid at its own position

DEFAULT_STATE_CAP = 2_000_000

# children expanded per block of the state BFS: each takes its row of
# n + m bytes (m < 256), the row again among the sorted keys, and an
# 8-byte sort index
STATE_BLOCK_CHILDREN = 1 << 14

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
    value derived from the tables (word states, zero, plain reduct, seed
    relations, translation table, universe, oracle family) is computed once
    through :meth:`derived` and kept for the algebra's lifetime, so it is
    observable as if computed eagerly.
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

    def states(self, cap: int = DEFAULT_STATE_CAP) -> "StateSpace":
        """The reachable word states; raises CapacityError exactly when
        ``reachable_states(self, cap)`` would, also once they are kept."""
        space = self.derived("states", lambda: reachable_states(self, cap=cap))
        if len(space.slots) > cap:
            raise CapacityError(f"state cap {cap} exceeded", count=cap + 1)
        return space


def right_translations(alg: AbstractAlgebra):
    """(table, args), kept with the algebra.  ``table`` is the read-only
    (m, n*m + m**n) table of every right translation of x: column block i
    holds x *i z for z = 0..m-1, then on menger flavor one column x[zs]
    per argument tuple zs, lexicographic; row k of ``args`` is the k-th zs
    (None on plain flavor)."""
    def compute():
        n, m = alg.arity, alg.size
        table, args = alg.mann.transpose(1, 0, 2).reshape(m, n * m), None
        if alg.flavor == "menger":
            table = np.concatenate([table, alg.superposition.reshape(m, m**n)], axis=1)
            args = _read_only(np.indices((m,) * n).reshape(n, -1).T)
        return _read_only(table), args

    return alg.derived("translations", compute)


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
    a slot is untouched), ``actions[s]`` its action, and ``events[s]`` the
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
    The frontier is expanded in blocks of at most STATE_BLOCK_CHILDREN
    children, each gathered from the mann tables, deduplicated by row key
    and looked up once per distinct row.  Raises CapacityError with count
    cap + 1 when more than ``cap`` states are reachable."""
    n, m = alg.arity, alg.size
    width, fan = n + m, n * m  # row width, children per parent
    dtype = np.min_scalar_type(m)
    # step[slot, v, y] = v *slot y, with an extra row m that keeps EMPTY;
    # fill is the same table whose row m puts y into its own empty slot
    step = np.full((n, m + 1, m), m, dtype)
    step[:, :m] = alg.mann
    fill = step.copy()
    fill[:, m] = np.arange(m)
    parents_per_block = max(1, STATE_BLOCK_CHILDREN // fan)

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
        # each distinct row's first and second occurrence, by the first one;
        # bounds[i] marks where a run of equal keys starts (or all end)
        keys = _keys(children)
        by_key = keys.argsort(kind="stable")
        ranked = keys[by_key]
        bounds = np.ones(len(keys) + 1, bool)
        bounds[1:-1] = ranked[1:] != ranked[:-1]
        heads = bounds[:-1].nonzero()[0]
        heads = heads[by_key[heads].argsort()]
        base = start * fan
        # (heads + 1 wraps only where the run has no second occurrence)
        seconds = np.where(bounds[heads + 1], -1, by_key[(heads + 1) % len(keys)] + base)
        fresh = []  # the children that are new states, in event order
        for key, one, two in zip(ranked[heads].tolist(), (by_key[heads] + base).tolist(),
                                 seconds.tolist()):
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
    slots = np.where(rows[:, :n] == m, EMPTY, rows[:, :n].astype(np.intp))
    events = np.stack([first_event, second_event], axis=1)[1:]
    return StateSpace(_read_only(slots), _read_only(rows[:, n:]), _read_only(events))


def _shared_slots(space: StateSpace) -> tuple[int, int] | None:
    """The first two states, in BFS order, of the first group of states
    with equal occupants (groups in order of their first state), or None."""
    keys = _keys(space.slots)
    by_key = keys.argsort(kind="stable")  # equal keys stay in BFS order
    repeats = np.flatnonzero(keys[by_key[1:]] == keys[by_key[:-1]])
    if not repeats.size:
        return None
    i = repeats[by_key[repeats].argmin()]  # the lowest state with a later twin
    return int(by_key[i]), int(by_key[i + 1])


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


def _axis(k: int, ndim: int, m: int) -> np.ndarray:
    """arange(m) laid along axis k of an ndim-axis grid."""
    return np.arange(m).reshape((1,) * k + (m,) + (1,) * (ndim - 1 - k))


def _first(diff: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry in row-major order, or None."""
    k = int(diff.argmax()) if diff.size else 0
    if not diff.size or not diff.item(k):
        return None
    return tuple(int(v) for v in np.unravel_index(k, diff.shape))


def check_associativity(alg: AbstractAlgebra) -> Violation | None:
    """Each slot composition must be associative; first violating triple wins."""
    x = _axis(0, 3, alg.size)
    for slot, M in enumerate(alg.mann):
        where = _first(M[M] != M[x, M])  # (x y) z against x (y z), axes x, y, z
        if where is not None:
            return Violation(
                f"associativity:{slot + 1}", where,
                f"(x *{slot + 1} y) *{slot + 1} z != x *{slot + 1} (y *{slot + 1} z)")
    return None


def check_menger_identities(alg: AbstractAlgebra) -> Violation | None:
    """Menger-flavor compatibility laws of superposition with the slot
    compositions: superassociativity, both mixed identities, and the
    slot-complete word identity (checked on every reachable state whose
    occupants are all carrier elements)."""
    if alg.flavor != "menger":
        raise InputError("menger identities require menger flavor")
    n, m = alg.arity, alg.size

    # superassociativity x0[x1..xn][ys] = x0[x1[ys] .. xn[ys]], one head x0
    # at a time over the axes (xs, ys) of argument tuples in table order
    T, args = right_translations(alg)
    rows = T[:, n * m :]  # rows[x, k] = x[args[k]]
    # inner[j, k]: the row of args holding (x1[ys] .. xn[ys]) for
    # xs = args[j] and ys = args[k]
    inner = (rows[args] * m ** np.arange(n - 1, -1, -1)[:, None]).sum(axis=1)
    for x0 in range(m):
        where = _first(rows[rows[x0]] != rows[x0][inner])
        if where is not None:
            xs, ys = (tuple(int(v) for v in args[k]) for k in where)
            return Violation("superassociativity", ((x0, *xs), ys),
                             "x0[x1..xn][y1..yn] != x0[x1[y..] .. xn[y..]]")

    violation = _mixed_law_violation(alg)
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


def _word_superposition_mismatch(alg: AbstractAlgebra,
                                 space: StateSpace) -> tuple[int, int] | None:
    """First (state index, x), in BFS order, with x . word != x[occupants]
    on a slot-complete state."""
    complete = np.flatnonzero((space.slots != EMPTY).all(axis=1))
    slots = space.slots[complete]
    routed = alg.superposition[(_axis(1, 2, alg.size), *slots.T[:, :, None])]
    where = _first(space.actions[complete] != routed)
    return None if where is None else (int(complete[where[0]]), where[1])


def _mixed_law_violation(alg: AbstractAlgebra) -> Violation | None:
    """First failure of the two mixed laws, slot by slot, each over all
    instantiations in lexicographic order of its witness:
    slot-into-superposition (x *i y)[z1..zn] = x[z1.. y[z1..zn] ..zn] and
    superposition-into-slot x[y1..yn] *i z = x[y1 *i z .. yn *i z]."""
    n, m = alg.arity, alg.size
    S = alg.superposition
    # grid[k] runs over the carrier along axis k of an (n + 2)-axis grid
    grid = [_axis(k, n + 2, m) for k in range(n + 2)]
    for slot, M in enumerate(alg.mann):
        x, y, zs = grid[0], grid[1], grid[2:]  # witness (x, y, z1..zn)
        where = _first(S[(M[x, y], *zs)]
                       != S[(x, *zs[:slot], S[(y, *zs)], *zs[slot + 1 :])])
        if where is not None:
            x, y, *zs = where
            return Violation(
                f"slot-into-superposition:{slot + 1}", (x, y, tuple(zs)),
                "(x *i y)[z..] != x[z.. y[z..] ..z]")
        x, ys, z = grid[0], grid[1 : n + 1], grid[n + 1]  # witness (x, y1..yn, z)
        where = _first(M[S[(x, *ys)], z] != S[(x, *(M[y, z] for y in ys))])
        if where is not None:
            x, *ys, z = where
            return Violation(
                f"superposition-into-slot:{slot + 1}", (x, tuple(ys), z),
                "x[y..] *i z != x[y1 *i z .. yn *i z]")
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
