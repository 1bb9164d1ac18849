"""Reference implementations the tests compare the library against.

Each one computes its answer a second way: by a direct formula or a
fixpoint over explicit maps, so that it does not share the library's
state search or relation reachability, or, for the array kernels, by
the loop over every instantiation that the kernel replaced, reading
nested-list copies of the tables (or the members' entry tuples) one cell
at a time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

import numpy as np

from mengerkit import (
    EMPTY,
    UNDEFINED,
    BinRelation,
    CapacityError,
    ClosureCapError,
    ConcreteAlgebra,
    InputError,
    PartialFunction,
    Violation,
)
from mengerkit.algebra import DEFAULT_STATE_CAP, WordState
from mengerkit.relations import WordSystemViolation, _one_step_relation

DEFAULT_TRANSLATION_CAP = 1_000_000


def sup_at(alg, g, args) -> int:
    """The superposition g[args] as a Python int."""
    return int(alg.superposition[(g, *args)])


class Tables:
    """Nested-list copies of an algebra's tables, read cell by cell."""

    def __init__(self, alg):
        self.mann = alg.mann.tolist()
        self.sup = None if alg.superposition is None else alg.superposition.tolist()

    def sup_at(self, g, args) -> int:
        node = self.sup[g]
        for a in args:
            node = node[a]
        return node


def apply_word(alg, x, word) -> int:
    """Left-to-right fold of the word's steps through the mann tables."""
    for slot, y in word:
        x = int(alg.mann[slot, x, y])
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


def slot_occupants(alg, word) -> tuple[int, ...]:
    """Per-slot occupants after performing the word (EMPTY for untouched)."""
    return slot_occupants_generic(
        word, alg.arity, lambda v, slot, y: int(alg.mann[slot, v, y]))


def slot_occupants_by_first_use(alg, word) -> tuple[int, ...]:
    """Occupants via the first-occurrence formula: the element of the first
    step touching slot i, composed with every later step.  Cross-check
    oracle for :func:`slot_occupants`."""
    mann = alg.mann.tolist()
    occ = [EMPTY] * alg.arity
    for i in range(alg.arity):
        first = None
        for k, (slot, _) in enumerate(word):
            if slot == i:
                first = k
                break
        if first is None:
            continue
        value = word[first][1]
        for slot, y in word[first + 1 :]:
            value = mann[slot][value][y]
        occ[i] = value
    return tuple(occ)


@dataclass(frozen=True)
class TranslationSet:
    """All maps built by wrapping superpositions around the identity."""

    size: int
    maps: tuple[tuple[int, ...], ...]


def inner_translations(alg, cap: int = DEFAULT_TRANSLATION_CAP) -> TranslationSet:
    """Fixpoint of wrapping x -> a[b.. x ..b] around known maps, starting
    from the identity.  Menger flavor only."""
    if alg.flavor != "menger":
        raise InputError("inner translations require menger flavor")
    m = alg.size
    one_step = one_step_translation_maps(alg)
    identity = tuple(range(m))
    maps = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for t in frontier:
            for step in one_step:
                composed = tuple(step[t[x]] for x in range(m))
                if composed not in maps:
                    if len(maps) >= cap:
                        raise CapacityError(f"translation cap {cap} exceeded",
                                            count=len(maps))
                    maps.add(composed)
                    fresh.append(composed)
        frontier = fresh
    return TranslationSet(m, tuple(sorted(maps)))


def dense_homomorphism_violation(rep, alg):
    """verify_homomorphism by whole-part arrays: every equation of a slot
    (m x m x points) or of superposition (m**(n+1) x points) is
    materialised at once.  Cross-check oracle for the library's blocked
    check, with the same part, law and witness order."""
    for part in rep.parts:
        violation = _dense_part_violation(part, alg)
        if violation is not None:
            return violation
    return None


def _dense_part_violation(part, alg):
    A = part.assign
    universe = part.universe
    m, count = A.shape
    point_ids = np.arange(count)
    for slot in range(alg.arity):
        lhs = A[alg.mann[slot]]  # lhs[g1, g2, p] = assignment of g1 *slot g2
        inner = A  # inner[g2, p]
        subst_slot = universe.subst[:, slot, :]  # (points, values)
        landed = subst_slot[point_ids[None, :], np.clip(inner, 0, None)]
        landed = np.where(inner >= 0, landed, -1)  # (g2, p) -> point or -1
        rhs = A[:, np.clip(landed, 0, None).reshape(-1)].reshape(m, m, count)
        rhs = np.where(landed[None, :, :] >= 0, rhs, -1)
        if not np.array_equal(lhs, rhs):
            g1, g2, p = (int(v) for v in np.argwhere(lhs != rhs)[0])
            return Violation(
                f"homomorphism-slot:{slot + 1}", (g1, g2, universe.points[p]),
                "P(g1 *i g2) differs from P(g1) *i P(g2)")
    if alg.flavor == "menger" and universe.all_index is not None:
        S = alg.superposition
        n = alg.arity
        lhs = A[S]  # (m,)*(n+1) + (points,)
        clipped = np.clip(A, 0, None)
        axes = []
        valid = np.ones((m,) * n + (count,), dtype=bool)
        for k in range(n):
            shape = (1,) * k + (m,) + (1,) * (n - 1 - k) + (count,)
            axes.append(clipped.reshape(shape))
            valid &= (A >= 0).reshape(shape)
        landed = universe.all_index[tuple(axes)]  # (m,)*n + (points,)
        landed = np.where(valid, landed, -1)
        rhs = A[:, np.clip(landed, 0, None).reshape(-1)].reshape((m,) * (n + 1) + (count,))
        rhs = np.where(landed[None] >= 0, rhs, -1)
        if not np.array_equal(lhs, rhs):
            where = np.argwhere(lhs != rhs)[0]
            head = int(where[0])
            args = tuple(int(v) for v in where[1 : n + 1])
            p = int(where[n + 1])
            return Violation(
                "homomorphism-superposition", (head, args, universe.points[p]),
                "P(g[g1..gn]) differs from P(g)[P(g1)..P(gn)]")
    return None


def superassociativity_by_heads(alg):
    """Superassociativity x0[x1..xn][ys] = x0[x1[ys] .. xn[ys]] by whole
    arrays, one head x0 at a time over the axes (xs, ys) of every pair of
    argument tuples in table order: no column is shared between tuples.
    Cross-check oracle for the column-deduplicated kernel inside
    :func:`mengerkit.check_menger_identities`."""
    n, m = alg.arity, alg.size
    rows = alg.superposition.reshape(m, m**n)  # rows[x, k] = x[args[k]]
    args = np.indices((m,) * n).reshape(n, -1).T
    # inner[j, k]: the row of args holding (x1[ys] .. xn[ys]) for
    # xs = args[j] and ys = args[k]
    inner = (rows[args] * m ** np.arange(n - 1, -1, -1)[:, None]).sum(axis=1)
    for x0 in range(m):
        diff = rows[rows[x0]] != rows[x0][inner]
        if diff.any():
            j, k = (int(v) for v in np.argwhere(diff)[0])
            xs, ys = (tuple(int(v) for v in args[i]) for i in (j, k))
            return Violation("superassociativity", ((x0, *xs), ys),
                             "x0[x1..xn][y1..yn] != x0[x1[y..] .. xn[y..]]")
    return None


def superposition_closure_by_loops(alg, members) -> set[int]:
    """The closure of ``members`` under superposition, by adding every
    g[args] of the members so far, one cell at a time, until nothing is
    new.  Cross-check oracle for the generating sets the Menger laws and
    the homomorphism check are decided at."""
    t, closed = Tables(alg), {int(g) for g in members}
    while True:
        grown = closed | {t.sup_at(g, args) for g in closed
                          for args in product(sorted(closed), repeat=alg.arity)}
        if grown == closed:
            return closed
        closed = grown


def superassociativity_by_loops(alg):
    """Superassociativity by a loop over every (x0, xs, ys), in that
    lexicographic order."""
    m, n, t = alg.size, alg.arity, Tables(alg)
    for x0 in range(m):
        for xs in product(range(m), repeat=n):
            head = t.sup_at(x0, xs)
            for ys in product(range(m), repeat=n):
                if t.sup_at(head, ys) != t.sup_at(x0, tuple(t.sup_at(x, ys) for x in xs)):
                    return Violation("superassociativity", ((x0, *xs), ys),
                                     "x0[x1..xn][y1..yn] != x0[x1[y..] .. xn[y..]]")
    return None


def mixed_law_violation_by_loops(alg):
    """The two mixed Menger laws by a loop over every instantiation, slot
    by slot.  Cross-check oracle for the array laws inside
    :func:`mengerkit.check_menger_identities`."""
    m, t = alg.size, Tables(alg)
    for slot in range(alg.arity):
        table = t.mann[slot]
        for x in range(m):
            for y in range(m):
                xy = table[x][y]
                for zs in product(range(m), repeat=alg.arity):
                    mixed = zs[:slot] + (t.sup_at(y, zs),) + zs[slot + 1 :]
                    if t.sup_at(xy, zs) != t.sup_at(x, mixed):
                        return Violation(
                            f"slot-into-superposition:{slot + 1}", (x, y, zs),
                            "(x *i y)[z..] != x[z.. y[z..] ..z]")
        for x in range(m):
            for ys in product(range(m), repeat=alg.arity):
                head = t.sup_at(x, ys)
                for z in range(m):
                    shifted = tuple(table[yk][z] for yk in ys)
                    if table[head][z] != t.sup_at(x, shifted):
                        return Violation(
                            f"superposition-into-slot:{slot + 1}", (x, ys, z),
                            "x[y..] *i z != x[y1 *i z .. yn *i z]")
    return None


# -- loop versions of the array predicates, laws and seeds ------------------
# Each keeps the enumeration order of its library counterpart, so the two
# must return the same first witness.


def associativity_by_loops(alg):
    m, t = alg.size, Tables(alg)
    for slot in range(alg.arity):
        table = t.mann[slot]
        for x in range(m):
            for y in range(m):
                xy = table[x][y]
                for z in range(m):
                    if table[xy][z] != table[x][table[y][z]]:
                        return Violation(f"associativity:{slot + 1}", (x, y, z),
                                         f"(x *{slot + 1} y) *{slot + 1} z != "
                                         f"x *{slot + 1} (y *{slot + 1} z)")
    return None


def zero_law_violation_by_loops(alg, z):
    m, t = alg.size, Tables(alg)
    for slot in range(alg.arity):
        table = t.mann[slot]
        for g in range(m):
            if table[z][g] != z:
                return Violation(f"zero-left:{slot + 1}", (z, g), "0 *i g != 0")
            if table[g][z] != z:
                return Violation(f"zero-right:{slot + 1}", (g, z), "g *i 0 != 0")
    if alg.flavor == "menger":
        for args in product(range(m), repeat=alg.arity):
            if t.sup_at(z, args) != z:
                return Violation("zero-superposition-head", (z, args), "0[g..] != 0")
        for g in range(m):
            for slot in range(alg.arity):
                for rest in product(range(m), repeat=alg.arity - 1):
                    args = rest[:slot] + (z,) + rest[slot:]
                    if t.sup_at(g, args) != z:
                        return Violation("zero-superposition-arg", (g, slot + 1, args),
                                         "g[.. 0 ..] != 0")
    return None


def l_regular_by_loops(r, alg):
    t = Tables(alg)
    for x, y in r.pairs():
        for slot in range(alg.arity):
            table = t.mann[slot]
            for z in range(alg.size):
                if not r.contains(table[x][z], table[y][z]):
                    return Violation(f"l-regular-slot:{slot + 1}", (x, y, z),
                                     "x r y but not x *i z r y *i z")
        if alg.flavor == "menger":
            for zs in product(range(alg.size), repeat=alg.arity):
                if not r.contains(t.sup_at(x, zs), t.sup_at(y, zs)):
                    return Violation("l-regular-superposition", (x, y, zs),
                                     "x r y but not x[z..] r y[z..]")
    return None


def l_cancellative_by_loops(r, alg):
    m, t = alg.size, Tables(alg)
    for x in range(m):
        for y in range(m):
            if r.contains(x, y):
                continue
            for slot in range(alg.arity):
                table = t.mann[slot]
                for z in range(m):
                    if r.contains(table[x][z], table[y][z]):
                        return Violation(f"l-cancellative-slot:{slot + 1}", (x, y, z),
                                         "x *i z r y *i z but not x r y")
            if alg.flavor == "menger":
                for zs in product(range(m), repeat=alg.arity):
                    if r.contains(t.sup_at(x, zs), t.sup_at(y, zs)):
                        return Violation("l-cancellative-superposition", (x, y, zs),
                                         "x[z..] r y[z..] but not x r y")
    return None


def universe_tables_by_dict(universe):
    """(subst, all_index) of a universe by one dict lookup per cell over
    its point tuples.  Oracle for the tables of
    :class:`mengerkit.Universe`."""
    n, size, points = universe.n, universe.value_size, universe.points
    index = {p: i for i, p in enumerate(points)}
    subst = np.array([[[index.get(p[:slot] + (v,) + p[slot + 1 :], -1) for v in range(size)]
                       + [-1] for slot in range(n)] for p in points], dtype=np.intp
                     ).reshape(len(points), n, size + 1)
    all_index = None
    if universe.has_all_tuples:
        all_index = np.full((size + 1,) * n, -1, dtype=np.intp)
        for c in product(range(size), repeat=n):
            all_index[c] = index[c]
    return subst, all_index


def first_occurrences_by_dict(rows):
    """(first, second) rows of each class of equal rows, classes in order
    of their first row, -1 for a class of one, by one dict of row tuples.
    Oracle for :func:`mengerkit.tables.first_occurrences`."""
    classes: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows.tolist()):
        classes.setdefault(tuple(row), []).append(i)
    return ([members[0] for members in classes.values()],
            [members[1] if len(members) > 1 else -1 for members in classes.values()])


def _read_only_rows(rows, width, dtype):
    array = np.array(rows, dtype=dtype).reshape(len(rows), width)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class LoopStates:
    """The states of :func:`reachable_states_by_loops` in BFS order, with
    their occupants, in the smallest signed dtype that holds -1..m-1, and
    their actions, intp, as read-only arrays."""

    states: tuple[WordState, ...]
    slots: np.ndarray
    actions: np.ndarray


def reachable_states_by_loops(alg, cap=DEFAULT_STATE_CAP):
    """The word-state BFS one (state, slot, y) cell at a time over
    nested-list tables, with a tuple key per child: the first event that
    reaches a state gives its word, the second its alt_word.  Oracle for
    :func:`mengerkit.reachable_states`."""
    n, m = alg.arity, alg.size
    mann = alg.mann.tolist()
    identity = tuple(range(m))
    init_key = ((EMPTY,) * n, identity)
    initial = WordState(init_key[0], identity, 0, ())
    seen = {init_key: initial}
    order = []
    queue = deque([initial])
    while queue:
        state = queue.popleft()
        for slot in range(n):
            table = mann[slot]
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
                        raise CapacityError(f"state cap {cap} exceeded", count=len(seen))
                    fresh = WordState(new_slots, new_action, state.depth + 1,
                                      state.word + ((slot, y),))
                    seen[key] = fresh
                    order.append(fresh)
                    queue.append(fresh)
                elif known.alt_word is None and known.depth >= 1:
                    candidate = state.word + ((slot, y),)
                    if candidate != known.word:
                        object.__setattr__(known, "alt_word", candidate)
    return LoopStates(tuple(order),
                      _read_only_rows([state.slots for state in order], n,
                                      np.min_scalar_type(-m)),
                      _read_only_rows([state.action for state in order], m, np.intp))


def by_slots(states) -> dict:
    """The states grouped by their slot occupants, groups in order of
    their first state and each in BFS order."""
    groups: dict[tuple, list] = {}
    for state in states:
        groups.setdefault(state.slots, []).append(state)
    return groups


def representability_by_groups(alg):
    """The representability implication read off the loop BFS's states
    grouped by occupants: the first two states of the first group with
    two.  Oracle for :func:`mengerkit.check_representability`."""
    for group in by_slots(loop_states(alg)).values():
        if len(group) > 1:  # states are distinct, so their actions differ
            first, other = group[:2]
            g = next(g for g, (a, b) in enumerate(zip(first.action, other.action))
                     if a != b)
            return Violation(
                "representability",
                (first.word, other.word, g, first.action[g], other.action[g]),
                "two words share slot occupants but act differently",
            )
    return None


def loop_states(alg):
    """The states of :func:`reachable_states_by_loops`, kept with the
    algebra under their own key, apart from the library's states."""
    return alg.derived("loop states", lambda: reachable_states_by_loops(alg).states)


def v_negative_by_loops(r, alg):
    t = Tables(alg)
    for state in loop_states(alg):
        for j, occupant in enumerate(state.slots):
            if occupant == EMPTY:
                continue
            for x in range(alg.size):
                if not r.contains(state.action[x], occupant):
                    return Violation(
                        "v-negative-word", (state.word, j + 1, x),
                        "x . word not below the slot occupant")
    if alg.flavor == "menger":
        for x in range(alg.size):
            for ys in product(range(alg.size), repeat=alg.arity):
                v = t.sup_at(x, ys)
                for i, y in enumerate(ys):
                    if not r.contains(v, y):
                        return Violation("v-negative-superposition", (x, ys, i + 1),
                                         "x[y..] not below y_i")
    return None


def one_step_translation_maps(alg):
    """Every map x -> a[.. x ..] with x in one slot, sorted."""
    m, t = alg.size, Tables(alg)
    result = set()
    for a in range(m):
        for slot in range(alg.arity):
            for rest in product(range(m), repeat=alg.arity - 1):
                result.add(tuple(t.sup_at(a, rest[:slot] + (x,) + rest[slot:])
                                 for x in range(m)))
    return sorted(result)


def seed_relations_by_loops(alg, plain):
    """(translation quasi-order or None, composite-component relation) by
    explicit pair sets over the loop BFS's states and the one-step maps."""
    m, t = alg.size, Tables(alg)
    comp_pairs = set()
    for state in loop_states(alg):
        for occupant in state.slots:
            if occupant == EMPTY:
                continue
            for x in range(m):
                comp_pairs.add((state.action[x], occupant))
    if not plain:
        for u, v in list(comp_pairs):
            for zs in product(range(m), repeat=alg.arity):
                comp_pairs.add((t.sup_at(u, zs), t.sup_at(v, zs)))
    comp = BinRelation.from_pairs(m, comp_pairs)
    trans = None
    if not plain:
        one_step = BinRelation.from_pairs(
            m, ((x, step[x]) for step in one_step_translation_maps(alg)
                for x in range(m)))
        trans = one_step.reflexive_closure().transitive_closure().transpose()
    return trans, comp


# -- loop versions of the concrete-side kernels --------------------------------
# Each composes one cell at a time through ``PartialFunction.at`` and keeps
# the order of its library counterpart: slots 1..n over member pairs (i, j),
# then superposition over (head, argument tuple), lexicographic.


def superpose_by_cells(f, gs):
    entries = []
    for args in product(range(f.base_size), repeat=f.arity):
        inner = []
        for g in gs:
            v = g.at(args)
            if v == UNDEFINED:
                break
            inner.append(v)
        if len(inner) < f.arity:
            entries.append(UNDEFINED)
        else:
            entries.append(f.at(tuple(inner)))
    return PartialFunction(f.arity, f.base_size, tuple(entries))


def mann_compose_by_cells(f, g, slot):
    entries = []
    for args in product(range(f.base_size), repeat=f.arity):
        v = g.at(args)
        if v == UNDEFINED:
            entries.append(UNDEFINED)
        else:
            entries.append(f.at(args[:slot] + (v,) + args[slot + 1 :]))
    return PartialFunction(f.arity, f.base_size, tuple(entries))


def composites_by_cells(functions, arity, flavor):
    """(description, composite) for every composite of the members, in
    the kernel's order."""
    for slot in range(arity):
        for i, f in enumerate(functions):
            for j, g in enumerate(functions):
                yield f"f{i} *{slot + 1} f{j}", mann_compose_by_cells(f, g, slot)
    if flavor == "menger":
        for i, f in enumerate(functions):
            for combo in product(range(len(functions)), repeat=arity):
                args = " ".join(f"f{j}" for j in combo)
                yield f"f{i}[{args}]", superpose_by_cells(f, [functions[j] for j in combo])


def closure_violation_by_cells(conc):
    index = {f.entries for f in conc.functions}
    for label, h in composites_by_cells(conc.functions, conc.arity, conc.flavor):
        if h.entries not in index:
            return (label, h)
    return None


def close_by_loops(generators, flavor="menger", cap=4096, arity=None, base_size=None):
    """Semi-naive breadth-first closure: each round composes only the
    tuples that involve a member added in the previous round."""
    elements, seen = [], set()
    for g in generators:
        arity, base_size = g.arity, g.base_size
        if g.entries not in seen:
            seen.add(g.entries)
            elements.append(g)
    if len(elements) > cap:
        raise ClosureCapError(f"closure cap {cap} exceeded", count=len(elements))
    old = 0  # members below this index were already composed with each other
    while True:
        fresh = []

        def emit(h):
            if h.entries not in seen:
                seen.add(h.entries)
                fresh.append(h)
                if len(seen) > cap:
                    raise ClosureCapError(f"closure cap {cap} exceeded", count=len(seen))

        total = len(elements)
        for slot in range(arity):
            for i, f in enumerate(elements):
                for j, g in enumerate(elements):
                    if i >= old or j >= old:
                        emit(mann_compose_by_cells(f, g, slot))
        if flavor == "menger":
            for i, f in enumerate(elements):
                for combo in product(range(total), repeat=arity):
                    if i >= old or any(j >= old for j in combo):
                        emit(superpose_by_cells(f, [elements[j] for j in combo]))
        if not fresh:
            break
        old = total
        elements.extend(fresh)
    return ConcreteAlgebra(arity, base_size, tuple(elements), flavor)


def abstract_by_loops(conc):
    """(mann, superposition or None) of a closed concrete algebra, one
    composite at a time; a missing composite raises InputError naming it."""
    n, m = conc.arity, len(conc.functions)
    index = {f.entries: i for i, f in enumerate(conc.functions)}
    located = []
    for label, h in composites_by_cells(conc.functions, n, conc.flavor):
        if h.entries not in index:
            raise InputError(f"concrete algebra is not closed: {label} missing")
        located.append(index[h.entries])
    mann = np.reshape(located[: n * m * m], (n, m, m))
    superposition = None
    if conc.flavor == "menger":
        superposition = np.reshape(located[n * m * m :], (m,) * (n + 1))
    return mann, superposition


def domain_relations_by_bits(conc):
    """(chi, gamma, pi) of the members' domains as bitmasks over cells."""
    doms = [sum(1 << k for k, v in enumerate(f.entries) if v != UNDEFINED)
            for f in conc.functions]
    m = len(doms)
    chi, gamma, pi = [0] * m, [0] * m, [0] * m
    for a in range(m):
        for b in range(m):
            if doms[a] & ~doms[b] == 0:
                chi[a] |= 1 << b
            if doms[a] & doms[b]:
                gamma[a] |= 1 << b
            if doms[a] == doms[b]:
                pi[a] |= 1 << b
    return (BinRelation(m, tuple(chi)), BinRelation(m, tuple(gamma)),
            BinRelation(m, tuple(pi)))


def representation_relations_by_parts(rep):
    """Relations of a sum combined part by part: inclusion intersects,
    overlap unions; an empty sum gives full inclusion."""
    chi, gamma = BinRelation.full(rep.size), BinRelation.empty(rep.size)
    for part in rep.parts:
        dom = part.assign >= 0
        inside = ~np.any(dom[:, None, :] & ~dom[None, :, :], axis=2)
        overlap = np.any(dom[:, None, :] & dom[None, :, :], axis=2)
        chi = chi & BinRelation.from_array(inside)
        gamma = gamma | BinRelation.from_array(overlap)
    return chi, gamma, chi & chi.transpose()


def faithful_by_rows(rep):
    """is_faithful by a dict keyed on each element's assignment rows, part
    by part: None, or the first element whose rows equal an earlier
    element's, after that one."""
    assigns = [part.assign for part in rep.parts]
    seen = {}
    for g in range(rep.size):
        key = tuple(assign[g].tobytes() for assign in assigns)
        if key in seen:
            return seen[key], g
        seen[key] = g
    return None


# -- relations as bitset rows ---------------------------------------------
#
# The relation algebra and the relation conditions computed on Python-int
# rows (bit b of row a for the pair (a, b)), one bit at a time.  They read
# a relation only through its ``rows`` exchange format, so they share no
# array code with the library.


def relations_by_bitset_rows(m: int, which: str):
    """The relations of forge.enumerate_relations for "all" and
    "quasi_orders", each mask's relation built from its bitset rows, in
    mask order (bit a * m + b of a mask is the pair (a, b))."""
    diagonal = sum(1 << (a * m + a) for a in range(m))
    for mask in range(1 << (m * m)):
        if which == "quasi_orders" and mask & diagonal != diagonal:
            continue
        r = BinRelation(m, tuple((mask >> (a * m)) & ((1 << m) - 1) for a in range(m)))
        if which == "all" or transitive_closure_by_bits(r) == r:
            yield r


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def transpose_by_bits(r):
    rows = [0] * r.size
    for a, row in enumerate(r.rows):
        for b in _bits(row):
            rows[b] |= 1 << a
    return BinRelation(r.size, tuple(rows))


def then_by_bits(r, s):
    other = s.rows
    rows = []
    for row in r.rows:
        acc = 0
        for b in _bits(row):
            acc |= other[b]
        rows.append(acc)
    return BinRelation(r.size, tuple(rows))


def transitive_closure_by_bits(r):
    """Warshall on bitset rows."""
    rows = list(r.rows)
    for k in range(r.size):
        bit, row_k = 1 << k, rows[k]
        for a in range(r.size):
            if rows[a] & bit:
                rows[a] |= row_k
    return BinRelation(r.size, tuple(rows))


def relation_flags_by_bits(r) -> dict[str, bool]:
    rows = r.rows
    transitive = all(not rows[b] & ~row for row in rows for b in _bits(row))
    return {
        "reflexive": all(row >> a & 1 for a, row in enumerate(rows)),
        "symmetric": rows == transpose_by_bits(r).rows,
        "transitive": transitive,
    }


def zero_quasi_equivalence_by_bits(r, alg):
    rows = r.rows
    for a, (row, flipped) in enumerate(zip(rows, transpose_by_bits(r).rows)):
        missing = row & ~flipped
        if missing:
            return Violation("symmetry", (a, _lowest(missing)), "pair present, flip missing")
    zero = alg.zero_element()
    exempt = zero if zero is not None and not rows[zero] else None
    for g in range(r.size):
        if g != exempt and not rows[g] >> g & 1:
            return Violation("reflexivity", (g,), "diagonal pair missing")
    return None


def compatibility_by_bits(chi, gamma):
    """First (h1, h2, g1, g2) in loop order with h1 gamma h2, h1 chi g1,
    h2 chi g2 and not g1 gamma g2."""
    chi_rows, gamma_rows = chi.rows, gamma.rows
    for h1, row_h1 in enumerate(gamma_rows):
        for h2 in _bits(row_h1):
            for g1 in _bits(chi_rows[h1]):
                missing = chi_rows[h2] & ~gamma_rows[g1]
                if missing:
                    return Violation("compatibility", (h1, h2, g1, _lowest(missing)),
                                     "premise holds, g1 gamma g2 missing")
    return None


def _path_by_bits(r_rows, powers, start, end, length):
    path, current = [start], start
    for remaining in range(length, 0, -1):
        if remaining == 1:
            path.append(end)
            break
        for mid in _bits(r_rows[current]):
            if powers[remaining - 1][mid] >> end & 1:
                path.append(mid)
                current = mid
                break
        else:
            raise AssertionError("path reconstruction failed")
    return path


def word_system_by_bits(alg, system, n_bound, m_bound, pi=None, gamma=None):
    """The truncated chain systems by loops over bitset rows, on the
    library's one-step relation; preconditions are the caller's."""
    bullet, base = system.endswith("bullet"), system[0]
    kind = ("chi_pi" if base in ("A", "B") else "chi0") + ("_bullet" if bullet else "")
    r = _one_step_relation(alg, kind, pi)
    m, r_rows = alg.size, r.rows
    powers = [tuple(1 << a for a in range(m))]
    for _ in range(max(n_bound, m_bound)):
        powers.append(then_by_bits(BinRelation(m, powers[-1]), r).rows)

    def path(start, end, length):
        return _path_by_bits(r_rows, powers, start, end, length)

    if base == "A":
        pi_rows = pi.rows
        for nn in range(1, n_bound + 1):
            back = powers[nn - 1]
            for x0 in range(m):
                for x1 in _bits(r_rows[x0]):
                    if back[x1] >> x0 & 1 and not pi_rows[x0] >> x1 & 1:
                        chain = tuple(path(x0, x1, 1) + path(x1, x0, nn - 1)[1:])
                        return WordSystemViolation(system, nn, None, chain,
                                                   "cycle pair not pi-related")
        return None

    g_rows = gamma.rows
    for nn in range(1, n_bound + 1):
        down = powers[nn]
        for mm in range(1, m_bound + 1):
            across = powers[mm]
            for first in range(m):
                if base == "B":
                    # first is the first chain's end xn
                    heads = [x0 for x0 in range(m) if down[x0] >> first & 1]
                    reach = 0
                    for x0 in heads:
                        for xnp1 in _bits(g_rows[x0]):
                            reach |= across[xnp1]
                    bad = reach & ~g_rows[first]
                    if not bad:
                        continue
                    xn, xlast = first, _lowest(bad)
                    x0, xnp1 = next((x0, xnp1) for x0 in heads for xnp1 in _bits(g_rows[x0])
                                    if across[xnp1] >> xlast & 1)
                    detail = "gamma fails on chain ends"
                else:
                    # first is the first chain's head x0
                    if not down[first]:
                        continue
                    reach = 0
                    for xnp1 in _bits(g_rows[first]):
                        reach |= across[xnp1]
                    bad = reach & ~g_rows[first]
                    if not bad:
                        continue
                    x0, xlast, xn = first, _lowest(bad), _lowest(down[first])
                    xnp1 = next(xnp1 for xnp1 in _bits(g_rows[x0])
                                if across[xnp1] >> xlast & 1)
                    detail = "gamma fails from first chain head"
                chain = (tuple(path(x0, xn, nn)), tuple(path(xnp1, xlast, mm)))
                return WordSystemViolation(system, nn, mm,
                                           (x0, xn, xnp1, xlast) + chain, detail)
    return None
