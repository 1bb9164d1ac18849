"""Abstract finite (2,n)-semigroups given by operation tables.

The carrier is {0..m-1}.  ``mann[i][x][y]`` is the slot-i binary
composition (0-based slots internally; files and reports are 1-based).
Menger-flavor algebras additionally carry a full superposition table,
nested ``sup[g][g1]...[gn]``.

Composition words are sequences of (slot, element) steps.  The state of a
word is the pair (slot occupants, action): occupant i is the element that
ends up in argument slot i after performing the word (EMPTY when the slot
was never touched), and the action maps each x to the result of pushing x
through the word.  All word-quantified conditions are decided exactly on
the finite set of reachable states; no word-length truncation is involved.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import CapacityError, InputError
from .tables import ConcreteAlgebra, mann_compose, superpose

EMPTY = -1  # unoccupied slot marker; only valid at its own position

DEFAULT_STATE_CAP = 2_000_000

Word = tuple[tuple[int, int], ...]  # ((slot, element), ...), slots 0-based


@dataclass(frozen=True)
class Violation:
    """A falsified law together with the instantiation that falsifies it."""

    law: str
    witness: tuple
    detail: str = ""


def _nested_shape_ok(table, dims: int, size: int) -> bool:
    if dims == 0:
        return type(table) is int and 0 <= table < size
    if not isinstance(table, (list, tuple)) or len(table) != size:
        return False
    return all(_nested_shape_ok(entry, dims - 1, size) for entry in table)


def _freeze(table):
    if isinstance(table, (list, tuple)):
        return tuple(_freeze(entry) for entry in table)
    return table


class AbstractAlgebra:
    """Operation tables plus lazily computed derived data.

    Instances are immutable by convention.  Every value derived from the
    tables (word states, zero, plain reduct, seed relations, universe,
    oracle family) is computed once through :meth:`derived` and kept for
    the algebra's lifetime, so it is observable as if computed eagerly.
    """

    def __init__(self, arity, size, mann, superposition=None, zero=None,
                 flavor="menger"):
        if arity < 1:
            raise InputError("arity must be positive")
        if size < 1:
            raise InputError("carrier size must be positive")
        if flavor not in ("menger", "plain"):
            raise InputError(f"unknown flavor {flavor!r}")
        if not isinstance(mann, (list, tuple)):
            raise InputError("mann must be a list of tables")
        mann = _freeze(mann)
        if len(mann) != arity:
            raise InputError(f"expected {arity} mann tables, got {len(mann)}")
        for k, table in enumerate(mann):
            if not _nested_shape_ok(table, 2, size):
                raise InputError(f"mann table {k + 1} is not a total {size}x{size} table")
        if flavor == "menger":
            if superposition is None:
                raise InputError("menger flavor requires a superposition table")
            superposition = _freeze(superposition)
            if not _nested_shape_ok(superposition, arity + 1, size):
                raise InputError("superposition table has wrong shape or entries")
        elif superposition is not None:
            raise InputError("plain flavor must not carry a superposition table")
        self.arity = arity
        self.size = size
        self.mann = mann
        self.superposition = superposition
        self.flavor = flavor
        self.zero = zero
        if zero is not None:
            if not isinstance(zero, int) or not (0 <= zero < size):
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
            and self.mann == other.mann
            and self.superposition == other.superposition
            and self.zero == other.zero
            and self.flavor == other.flavor
        )

    def __repr__(self):
        return (f"AbstractAlgebra(arity={self.arity}, size={self.size}, "
                f"flavor={self.flavor!r}, zero={self.zero})")

    # -- operations -----------------------------------------------------

    def sup_at(self, g: int, args: tuple[int, ...]) -> int:
        node = self.superposition[g]
        for a in args:
            node = node[a]
        return node

    def sup_array(self) -> np.ndarray:
        """The superposition table in the narrowest unsigned type holding m - 1."""
        return np.asarray(self.superposition, dtype=np.min_scalar_type(self.size - 1))

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
        if len(space.states) > cap:
            raise CapacityError(f"state cap {cap} exceeded", count=cap + 1)
        return space


@dataclass(frozen=True)
class WordState:
    """Reachable state of a composition word: slot occupants plus action.

    ``slots[i]`` is EMPTY when slot i never occurs in the word.  ``word``
    is one shortest witness; ``alt_word`` is a second witness recorded when
    another word first re-reaches the same state (used by debug
    cross-witness checks).
    """

    slots: tuple[int, ...]
    action: tuple[int, ...]
    depth: int
    word: Word
    alt_word: Word | None = field(default=None, compare=False)


@dataclass(frozen=True)
class StateSpace:
    states: tuple[WordState, ...]  # depth >= 1, BFS order
    by_slots: dict


def apply_word(alg: AbstractAlgebra, x: int, word: Word) -> int:
    """Left-to-right fold of the word's steps through the mann tables."""
    for slot, y in word:
        x = alg.mann[slot][x][y]
    return x


def slot_occupants_generic(word, n: int, combine) -> tuple:
    """Per-slot occupants of a word over an arbitrary value space.

    Incremental rule: a step (j, y) maps every occupied slot value v to
    combine(v, j, y) and fills slot j with y when it was empty.  Works on
    symbolic values as well as table elements; untouched slots stay EMPTY.
    """
    occ = [EMPTY] * n
    for slot, y in word:
        for i in range(n):
            if occ[i] != EMPTY:
                occ[i] = combine(occ[i], slot, y)
        if occ[slot] == EMPTY:
            occ[slot] = y
    return tuple(occ)


def slot_occupants(alg: AbstractAlgebra, word: Word) -> tuple[int, ...]:
    """Per-slot occupants after performing the word (EMPTY for untouched)."""
    return slot_occupants_generic(
        word, alg.arity, lambda v, slot, y: alg.mann[slot][v][y])


def reachable_states(alg: AbstractAlgebra, cap: int = DEFAULT_STATE_CAP) -> StateSpace:
    """BFS over word states from the empty word under all one-step
    extensions.  State identity is (slots, action); one shortest witness
    word is kept per state, plus one alternative witness when available."""
    n, m = alg.arity, alg.size
    identity = tuple(range(m))
    init_key = ((EMPTY,) * n, identity)
    initial = WordState(init_key[0], identity, 0, ())
    seen: dict[tuple, WordState] = {init_key: initial}
    order: list[WordState] = []
    queue = deque([initial])
    while queue:
        state = queue.popleft()
        for slot in range(n):
            table = alg.mann[slot]
            for y in range(m):
                new_slots = tuple(
                    (table[v][y] if v != EMPTY else (y if i == slot else EMPTY))
                    for i, v in enumerate(state.slots)
                )
                new_action = tuple(table[v][y] for v in state.action)
                key = (new_slots, new_action)
                known = seen.get(key)
                if known is None:
                    if len(seen) > cap:
                        raise CapacityError(
                            f"state cap {cap} exceeded", count=len(seen))
                    fresh = WordState(new_slots, new_action, state.depth + 1,
                                      state.word + ((slot, y),))
                    seen[key] = fresh
                    order.append(fresh)
                    queue.append(fresh)
                elif known.alt_word is None and known.depth >= 1:
                    candidate = state.word + ((slot, y),)
                    if candidate != known.word:
                        object.__setattr__(known, "alt_word", candidate)
    by_slots: dict[tuple, list[WordState]] = {}
    for state in order:
        by_slots.setdefault(state.slots, []).append(state)
    return StateSpace(tuple(order), by_slots)


def check_representability(alg: AbstractAlgebra) -> Violation | None:
    """Decide the faithful-representability implication: equal slot
    occupants for two words must force equal actions.

    Exact over all words of any length via state reachability.  The
    returned witness carries the two words and an element where the
    actions differ.
    """
    space = alg.states()
    for slots, group in space.by_slots.items():
        if len(group) < 2:
            continue
        first = group[0]
        for other in group[1:]:
            for g in range(alg.size):
                if first.action[g] != other.action[g]:
                    return Violation(
                        "representability",
                        (first.word, other.word, g, first.action[g], other.action[g]),
                        "two words share slot occupants but act differently",
                    )
    return None


def check_associativity(alg: AbstractAlgebra) -> Violation | None:
    """Each slot composition must be associative; first violating triple wins."""
    m = alg.size
    for slot in range(alg.arity):
        table = alg.mann[slot]
        for x in range(m):
            for y in range(m):
                xy = table[x][y]
                for z in range(m):
                    if table[xy][z] != table[x][table[y][z]]:
                        return Violation(
                            f"associativity:{slot + 1}", (x, y, z),
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

    # superassociativity, vectorized: both sides over all (x0..xn, y1..yn)
    S = alg.sup_array()
    lhs = S[S]  # lhs[x0..xn, y1..yn] = S[S[x0..xn], y1..yn]
    ix0 = np.arange(m).reshape((m,) + (1,) * (2 * n))
    inner = [
        S.reshape((1,) * i + (m,) + (1,) * (n - i) + (m,) * n)
        for i in range(1, n + 1)
    ]
    rhs = S[tuple([ix0] + inner)]
    if not np.array_equal(lhs, rhs):
        where = np.argwhere(lhs != rhs)[0]
        xs, ys = tuple(int(v) for v in where[: n + 1]), tuple(int(v) for v in where[n + 1 :])
        return Violation("superassociativity", (xs, ys),
                         "x0[x1..xn][y1..yn] != x0[x1[y..] .. xn[y..]]")

    violation = _mixed_law_violation(alg, S)
    if violation is not None:
        return violation

    for state in alg.states().states:
        if EMPTY in state.slots:
            continue
        for x in range(m):
            if state.action[x] != alg.sup_at(x, state.slots):
                return Violation(
                    "word-superposition", (state.word, x),
                    "x . word != x[occupants(word)] on a slot-complete word")
    return None


def _mixed_law_violation(alg: AbstractAlgebra, S: np.ndarray) -> Violation | None:
    """First failure of the two mixed laws, slot by slot, each over all
    instantiations in lexicographic order of its witness:
    slot-into-superposition (x *i y)[z1..zn] = x[z1.. y[z1..zn] ..zn] and
    superposition-into-slot x[y1..yn] *i z = x[y1 *i z .. yn *i z]."""
    n, m = alg.arity, alg.size
    # grid[k] runs over the carrier along axis k of an (n + 2)-axis grid
    grid = [np.arange(m).reshape((1,) * k + (m,) + (1,) * (n + 1 - k))
            for k in range(n + 2)]
    for slot in range(n):
        M = np.asarray(alg.mann[slot], dtype=np.intp)
        x, y, zs = grid[0], grid[1], grid[2:]  # witness (x, y, z1..zn)
        diff = S[(M[x, y], *zs)] != S[(x, *zs[:slot], S[(y, *zs)], *zs[slot + 1 :])]
        if diff.any():
            x, y, *zs = (int(v) for v in np.argwhere(diff)[0])
            return Violation(
                f"slot-into-superposition:{slot + 1}", (x, y, tuple(zs)),
                "(x *i y)[z..] != x[z.. y[z..] ..z]")
        x, ys, z = grid[0], grid[1 : n + 1], grid[n + 1]  # witness (x, y1..yn, z)
        diff = M[S[(x, *ys)], z] != S[(x, *(M[y, z] for y in ys))]
        if diff.any():
            x, *ys, z = (int(v) for v in np.argwhere(diff)[0])
            return Violation(
                f"superposition-into-slot:{slot + 1}", (x, tuple(ys), z),
                "x[y..] *i z != x[y1 *i z .. yn *i z]")
    return None


def find_zero(alg: AbstractAlgebra) -> int | None:
    """The unique element absorbing every composition, or None."""
    for z in range(alg.size):
        if _zero_law_violation(alg, z) is None:
            return z
    return None


def _zero_law_violation(alg: AbstractAlgebra, z: int) -> Violation | None:
    m = alg.size
    for slot in range(alg.arity):
        table = alg.mann[slot]
        for g in range(m):
            if table[z][g] != z:
                return Violation(f"zero-left:{slot + 1}", (z, g), "0 *i g != 0")
            if table[g][z] != z:
                return Violation(f"zero-right:{slot + 1}", (g, z), "g *i 0 != 0")
    if alg.flavor == "menger":
        for args in product(range(m), repeat=alg.arity):
            if alg.sup_at(z, args) != z:
                return Violation("zero-superposition-head", (z, args), "0[g..] != 0")
        for g in range(m):
            for slot in range(alg.arity):
                for rest in product(range(m), repeat=alg.arity - 1):
                    args = rest[:slot] + (z,) + rest[slot:]
                    if alg.sup_at(g, args) != z:
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
    funcs = conc.functions
    m = len(funcs)
    if m == 0:
        raise InputError("cannot abstract an empty concrete algebra")
    index = {f.entries: i for i, f in enumerate(funcs)}

    def locate(table, label):
        i = index.get(table.entries)
        if i is None:
            raise InputError(f"concrete algebra is not closed: {label} missing")
        return i

    mann = []
    for slot in range(conc.arity):
        rows = []
        for i, f in enumerate(funcs):
            row = []
            for j, g in enumerate(funcs):
                row.append(locate(mann_compose(f, g, slot), f"f{i} *{slot + 1} f{j}"))
            rows.append(tuple(row))
        mann.append(tuple(rows))

    superposition = None
    if conc.flavor == "menger":
        def build(prefix_head, chosen):
            if len(chosen) == conc.arity:
                label = f"f{prefix_head}[{' '.join('f%d' % c for c in chosen)}]"
                return locate(
                    superpose(funcs[prefix_head], [funcs[c] for c in chosen]), label)
            return tuple(build(prefix_head, chosen + [j]) for j in range(m))

        superposition = tuple(build(i, []) for i in range(m))

    alg = AbstractAlgebra(conc.arity, m, tuple(mann), superposition,
                          zero=None, flavor=conc.flavor)
    zero = find_zero(alg)
    if zero is not None:
        alg = AbstractAlgebra(conc.arity, m, tuple(mann), superposition,
                              zero=zero, flavor=conc.flavor)
    return alg
