"""Canonical representations by partial n-place functions.

The point universe adjoins one placeholder per argument slot to the
carrier.  Points are coordinate tuples; a coordinate is a carrier element
or -1, which stands for the slot's own placeholder.  A universe holds, in
order: every all-carrier tuple (menger flavor only), the occupant tuples
of reachable word states in BFS order (all-carrier ones collapse into the
first block), and the blank point with every slot unoccupied.

A representation assigns each carrier element a partial function from
universe points to carrier elements, stored as a dense (carrier x points)
array with -1 outside the domain.  The canonical construction fixes an
anchor pair (h1, h2) and defines g's function at a point as the value g
reaches there (g[coords] at an all-carrier point, g itself at the blank
point, g pushed through the witness word at an occupant point), defined
exactly where that value sits chi-above h1 or h2.  Values are witness
independent because universe construction rejects algebras where equal
occupant tuples disagree on actions, and warrant the collapse of point
blocks by the cross-checks below.

Sums concatenate part lists; the component universes stay disjoint, so
the domain relations of a sum are those of its parts' domains laid side
by side: inclusion and equality hold in every part, overlap in some part.

The homomorphism check compares both sides of every equation in every
part.  The parts of a canonical sum share one universe and differ only
in their domains, so consecutive parts over one universe that agree
wherever two of them are defined are checked as one group: one value
table, one domain bit per part, and one pass over the equations for all
of them.  A part loaded from a file, or from another universe, is a
group of its own.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .algebra import (
    EMPTY,
    AbstractAlgebra,
    StateSpace,
    Violation,
    _shared_slots,
    _word_superposition_mismatch,
)
from .bitrel import BinRelation
from .errors import CapacityError, InputError
from .relations import is_l_regular, is_v_negative
from .tables import relations_of_domains, row_lookup

BLANK = EMPTY  # placeholder coordinate, only valid at its own slot

# elements in one block of superposition landing points in the homomorphism
# check: 8 bytes each (intp, which numpy gathers with no per-call index
# conversion; 8 more for their linear index while they are taken) plus three
# words for the block's gate and one head's two sides, and three more words
# and a 1-byte comparison in a step where the two sides' words differ; a word
# holds value + 1 and one bit per part of the group, 1 byte for a lone part
# at m < 256 and 2 for 11 parts at m=23
HOM_BLOCK_ELEMENTS = 1 << 22
# equations in the homomorphism check of one group of parts, n * m**2 +
# m**(n+1) per universe point: about 7.6 M at m=23, 2.0e8 at m=45 and
# 2.4e10 at m=118 (n=2), which is refused
MAX_HOM_EQUATIONS = 1 << 30
# intp cells of a universe's substitution tables, points * n * (n*m + m + 1)
# for the moved points and subst: 7.7 M for the 11 881-point universe at
# m=108 (n=2); 1.3 G (10 GB) at DEFAULT_STATE_CAP states there is refused
MAX_UNIVERSE_CELLS = 1 << 26


class Universe:
    """Point list with substitution lookups and per-element value table."""

    def __init__(self, n, value_size, points, kind, values=None, has_all_tuples=False):
        self.n = n
        self.value_size = value_size
        self.points = tuple(points)
        self.kind = kind  # "extended" | "base"
        self.values = values  # (carrier, points) array for extended universes
        self.has_all_tuples = has_all_tuples
        count, size = len(self.points), value_size
        cells = count * n * (n * size + size + 1)
        if cells > MAX_UNIVERSE_CELLS:
            raise CapacityError(f"universe of {count} points needs {cells} substitution "
                                f"cells, over the cap of {MAX_UNIVERSE_CELLS}", count=cells)
        rows = np.array(self.points, dtype=np.intp).reshape(count, n)
        # subst[p, slot, v] is p with coordinate slot set to v, or -1, also at v =
        # value_size or -1 (undefined): one search finds the points themselves,
        # these moved points and every all-carrier tuple (for all_index)
        moved = np.repeat(rows[:, None], n * size, axis=1).reshape(count, n, size, n)
        moved[:, range(n), :, range(n)] = np.arange(size)
        tuples = np.indices((size,) * n).reshape(n, -1).T if has_all_tuples else rows[:0]
        found = row_lookup(rows)(np.concatenate([rows, moved.reshape(-1, n), tuples]))
        own, subst, all_index = np.split(found, [count, count * (1 + n * size)])
        if (own != np.arange(count)).any():
            raise InputError("duplicate points in universe")
        self.subst = np.full((count, n, size + 1), -1, dtype=np.intp)
        self.subst[:, :, :-1] = subst.reshape(count, n, size)
        self.all_index = None  # all_index[c]: the all-carrier point c, padded with -1
        if has_all_tuples:
            if (all_index < 0).any():
                raise InputError("universe is missing all-tuple points")
            self.all_index = np.full((size + 1,) * n, -1, dtype=np.intp)
            self.all_index[(slice(size),) * n] = all_index.reshape((size,) * n)

    def __len__(self):
        return len(self.points)


def build_universe(alg: AbstractAlgebra) -> Universe:
    """Construct the extended point universe; kept for the algebra's lifetime.

    Raises InputError when the algebra fails the representability
    implication (point values would be ambiguous) or when a collapsed
    point's two value routes disagree.
    """
    return alg.derived("universe", lambda: _build_universe(alg))


def _build_universe(alg: AbstractAlgebra) -> Universe:
    bullet = alg.flavor == "plain"
    n, m = alg.arity, alg.size
    space = alg.states()
    pair = _shared_slots(space)
    if pair is not None:
        raise InputError(
            "algebra fails the representability implication; "
            f"occupants {tuple(space.slots[pair[0]].tolist())} reached with two actions")

    # on menger flavor the carrier points come first, and a slot-complete
    # state collapses into its carrier point, whose values must agree
    points, blocks, own = [], [], np.arange(len(space.slots))
    if not bullet:
        found = _word_superposition_mismatch(alg, space)
        if found is not None:
            s, g = found
            raise InputError(f"value routes disagree at point "
                             f"{tuple(space.slots[s].tolist())} for element {g}")
        points = list(product(range(m), repeat=n))
        blocks = [alg.superposition.reshape(m, m**n)]
        own = np.flatnonzero((space.slots == EMPTY).any(axis=1))
    points += [tuple(p) for p in space.slots[own].tolist()] + [(BLANK,) * n]
    values = np.concatenate(blocks + [space.actions[own].T, np.arange(m)[:, None]],
                            axis=1)
    _cross_witness_check(alg, space)
    return Universe(n, m, points, "extended", values=values, has_all_tuples=not bullet)


def _cross_witness_check(alg: AbstractAlgebra, space: StateSpace):
    """Check every expansion event against the tables: its state must be
    its parent's stepped through its (slot, y), in occupants and action.

    This replays every word and alt word.  The first events must form a
    tree rooted at the empty word, each from an earlier state; by
    induction over it, if every first edge holds, every word replays to
    its own state, and then an alt word, a word plus one step, replays to
    its state exactly when its edge holds.  First edges are checked first.
    """
    n, m, count = alg.arity, alg.size, len(space.slots)
    tree = space.events[:, 0] // (n * m)  # each state's first parent
    if ((tree < 0) | (tree > np.arange(count))).any():
        raise InputError("the first expansion events do not form a tree")
    events = space.events.T.ravel()  # all first events, then the second ones
    edge = np.flatnonzero(events >= 0)
    child = edge % count
    parent, step = np.divmod(events[edge], n * m)
    slot, y = (v[:, None] for v in np.divmod(step, m))
    # row 0 is the empty word, row p > 0 state p - 1, as in the events
    occupants = np.concatenate([np.full((1, n), EMPTY), space.slots])[parent]
    actions = np.concatenate([np.arange(m)[None], space.actions])[parent]
    # an empty slot stays empty, except the step's own, which takes y
    reached = np.where(occupants == EMPTY, np.where(np.arange(n) == slot, y, EMPTY),
                       alg.mann[slot, occupants, y])
    wrong_slots = (reached != space.slots[child]).any(axis=1)
    wrong = wrong_slots | (alg.mann[slot, actions, y] != space.actions[child]).any(axis=1)
    if wrong.any():
        k = wrong.argmax()
        s = int(child[k])
        word = space.word(s) if edge[k] < count else space.alt_word(s)
        if wrong_slots[k]:
            raise InputError(f"witness word {word} does not reach "
                             f"{tuple(space.slots[s].tolist())}")
        raise InputError(f"witness word {word} disagrees with the recorded action")


class ReprPart:
    def __init__(self, universe: Universe, assign: np.ndarray, labels=()):
        if assign.shape[1] != len(universe.points):
            raise InputError("assignment width does not match universe")
        self.universe = universe
        self.assign = assign
        self.labels = tuple(labels)


class Representation:
    """A sum of parts over pairwise disjoint universes."""

    def __init__(self, size: int, parts):
        self.size = size
        self.parts = tuple(parts)
        for part in self.parts:
            if part.assign.shape[0] != size:
                raise InputError("part carrier does not match representation")

    def __len__(self):
        return len(self.parts)


def _validate_chi(alg: AbstractAlgebra, chi: BinRelation):
    if chi.size != alg.size:
        raise InputError(f"chi size {chi.size} does not match carrier {alg.size}")
    if not chi.is_quasi_order():
        raise InputError("chi must be a quasi-order")
    if is_l_regular(chi, alg) is not None:
        raise InputError("chi must be l-regular")
    if is_v_negative(chi, alg) is not None:
        raise InputError("chi must be v-negative")


def build_representation(alg: AbstractAlgebra, chi: BinRelation, mode) -> Representation:
    """One canonical part.  ``mode`` is ("pair", h1, h2) or ("point", a);
    the point form is the pair form with both anchors equal.

    chi must be an l-regular, v-negative quasi-order; this is checked
    eagerly because every downstream claim depends on it.
    """
    _validate_chi(alg, chi)
    if mode[0] == "pair":
        h1, h2 = mode[1], mode[2]
    elif mode[0] == "point":
        h1 = h2 = mode[1]
    else:
        raise InputError(f"unknown representation mode {mode[0]!r}")
    if not (0 <= h1 < alg.size and 0 <= h2 < alg.size):
        raise InputError("anchor element out of range")
    universe = build_universe(alg)
    return Representation(alg.size, _anchored_parts(universe, chi, [(h1, h2)]))


def _anchored_parts(universe: Universe, chi: BinRelation, anchors) -> tuple[ReprPart, ...]:
    """One part per distinct anchor row chi[h1] | chi[h2], in order of
    first use, labelled by every anchor pair that gives it.

    The row decides the part, and two rows never give the same part: the
    blank point's column of ``universe.values`` is arange(m), so a part's
    blank column is the row itself (v where chi[h1, v] or chi[h2, v] holds,
    -1 elsewhere).  Grouping by row therefore yields the parts, order and
    labels that building every pair's part and deduplicating would.
    """
    by_row: dict[bytes, tuple[np.ndarray, list[str]]] = {}
    for h1, h2 in anchors:
        label = f"point({h1})" if h1 == h2 else f"pair({h1},{h2})"
        allowed = chi.matrix[h1] | chi.matrix[h2]
        by_row.setdefault(allowed.tobytes(), (allowed, []))[1].append(label)
    values = universe.values
    return tuple(ReprPart(universe, np.where(allowed[values], values, -1), labels)
                 for allowed, labels in by_row.values())


def _dedupe(parts):
    seen = {}
    for part in parts:
        key = (id(part.universe), part.assign.tobytes())
        if key in seen:
            kept = seen[key]
            kept.labels = kept.labels + part.labels
        else:
            seen[key] = ReprPart(part.universe, part.assign, part.labels)
    return tuple(seen.values())


def sum_over_pairs(alg: AbstractAlgebra, chi: BinRelation,
                   gamma: BinRelation) -> Representation:
    """Sum of one anchored part per related pair of gamma, in pair order;
    pairs with the same anchor row share one part (see _anchored_parts)."""
    _validate_chi(alg, chi)
    if gamma.size != alg.size:
        raise InputError("gamma size does not match carrier")
    universe = build_universe(alg)
    return Representation(alg.size, _anchored_parts(universe, chi, gamma.pairs()))


def sum_over_points(alg: AbstractAlgebra, chi: BinRelation) -> Representation:
    """Sum of one single-anchor part per carrier element; elements with
    the same chi row share one part."""
    _validate_chi(alg, chi)
    universe = build_universe(alg)
    anchors = [(a, a) for a in range(alg.size)]
    return Representation(alg.size, _anchored_parts(universe, chi, anchors))


def sum_representations(reps) -> Representation:
    """Disjoint-union sum; duplicate parts collapse (relations unchanged)."""
    reps = list(reps)
    sizes = {rep.size for rep in reps}
    if len(sizes) > 1:
        raise InputError(f"carrier mismatch across summands: {sorted(sizes)}")
    size = sizes.pop() if sizes else 0
    parts = [part for rep in reps for part in rep.parts]
    return Representation(size, _dedupe(parts))


def _concatenated(rep: Representation) -> np.ndarray:
    """The parts' assignments side by side, (size, all parts' points)."""
    return np.concatenate([np.empty((rep.size, 0), dtype=np.int64)]
                          + [part.assign for part in rep.parts], axis=1)


def representation_relations(rep: Representation):
    """Domain inclusion, overlap, and equality relations of the sum, read
    off the parts' domains side by side (the part universes are disjoint).
    An empty sum yields the full inclusion relation by convention."""
    return relations_of_domains(_concatenated(rep) >= 0)


def is_faithful(rep: Representation):
    """None when the assignment is injective, else the colliding pair."""
    seen = {}
    for g, row in enumerate(_concatenated(rep)):
        key = row.tobytes()
        if key in seen:
            return (seen[key], g)
        seen[key] = g
    return None


def verify_homomorphism(rep: Representation, alg: AbstractAlgebra) -> Violation | None:
    """Extensional check that the assignment turns every composition into
    the matching composition of universe functions.

    Slot compositions substitute the inner value into the coordinate;
    superposition (menger flavor, universes carrying every all-tuple
    point) feeds computed values as a fresh argument tuple.  Both sides of
    every equation are compared in every part: n * m**2 slot equations and
    m**(n+1) superposition equations per universe point.  Parts are
    checked in order, and within a part slots 1..n and then
    superposition, each in lexicographic order of its elements and point;
    the first mismatch is returned with the elements and point involved.

    Runs of parts over one universe that agree wherever two of them are
    defined form groups, each checked in one pass with one bit per part
    (see _groups and _scan); the lowest failing part of a group is then
    checked alone for its first witness.  Raises CapacityError when a
    group has more than MAX_HOM_EQUATIONS equations.  Memory is bounded
    per block of equations (see HOM_BLOCK_ELEMENTS), not by the equation
    count.
    """
    if rep.size != alg.size:
        raise InputError("representation carrier does not match algebra")
    for parts, values in _groups(rep.parts):
        count = _equation_count(parts[0].universe, alg)
        if count > MAX_HOM_EQUATIONS:
            raise CapacityError(f"homomorphism check of {count} equations exceeds "
                                f"the cap {MAX_HOM_EQUATIONS}", count=count)
        failing, violation = _scan(parts, values, alg)
        if failing and violation is None:
            part = parts[(failing & -failing).bit_length() - 1]
            _, violation = _scan([part], part.assign, alg)
        if violation is not None:
            return violation
    return None


def _equation_count(universe: Universe, alg: AbstractAlgebra) -> int:
    n, m = alg.arity, alg.size
    superposition = alg.superposition is not None and universe.all_index is not None
    return (n * m**2 + superposition * m ** (n + 1)) * len(universe)


def _groups(parts):
    """(parts, values) per group: a run of consecutive parts over one
    Universe object that agree on every value two of them define, with at
    most as many parts as a 64-bit word has bits left beside the value
    (see _scan); values is the group's common (m, points) value table,
    -1 where none of its parts is defined."""
    groups = []
    for part in parts:
        assign = part.assign
        if groups:
            members, values = groups[-1]
            universe = members[0].universe
            if (part.universe is universe
                    and len(members) < 64 - int(universe.value_size).bit_length()
                    and not ((assign != values) & (np.minimum(assign, values) >= 0)).any()):
                members.append(part)
                groups[-1] = (members, np.maximum(values, assign))
                continue
        groups.append(([part], assign))
    return groups


def _scan(parts, values, alg: AbstractAlgebra):
    """(failing bits, first Violation) of one group of parts.

    Each element and point has a word: value + 1 (0 where no part is
    defined) above one domain bit per part, bit k set where part k is
    defined, in the smallest unsigned dtype that holds it.  The word of
    element g at point p is W[g, p], its value V[g, p] and its bits
    D[g, p].

    For an equation at point p with left side composite c = T[h, a] (the
    slot or superposition table at head h and argument a) and landing
    point q (p with the argument values substituted; -1 when one is
    undefined or there is no such point), part k's left side is defined
    where bit k of D[c, p] is set, with value V[c, p], and its right side
    where bit k of D[a, p] (of every argument row, for superposition) and
    of D[h, q] are set, with value V[h, q]: a part's own values are the
    group's where it is defined, so its landing point is the group's.  With
    bL and bR the words of those left and right bits,

        fail = (bL ^ bR) | (bL * (V[c, p] != V[h, q]))

    has bit k set exactly when part k's two masked sides differ: either
    one side is defined and the other not (bit k of bL ^ bR), or both
    are and the values differ (bit k of bL and of bR, and the values).

    One gather per side brings value and bits.  A gate holds the
    argument rows' bits under all-ones value bits, so W[h, q] & gate
    holds bR and V[h, q] + 1, and x = W[c, p] ^ (W[h, q] & gate) holds
    bL ^ bR in its bits and is above them exactly when the values
    differ.  A failing bit makes x nonzero, so a step where x is zero
    everywhere passes without working out fail; the scan returns the OR
    of the fail words of every equation.

    A lone part carries no domain bit and no gate: its value field is 0
    exactly where it is undefined, and landing is -1 wherever its gate
    would be 0, so x is nonzero exactly where the part fails.  Its scan
    stops at the first failing equation in witness order: law by law,
    block of arguments by block, head by head, a mismatch at head h in
    one block is the first of all heads <= h there; a later block can
    only hold an earlier witness at a smaller head, so later blocks check
    only those.
    """
    universe = parts[0].universe
    n, m = alg.arity, alg.size
    count = len(universe)
    lone = len(parts) == 1
    bits = 0 if lone else len(parts)
    low = (1 << bits) - 1  # the domain bits
    dtype = np.min_scalar_type((1 << bits + int(universe.value_size).bit_length()) - 1)
    table = (values + 1).astype(dtype)
    gates = None
    if not lone:
        table <<= bits
        for k, part in enumerate(parts):
            table |= np.left_shift(part.assign >= 0, k, dtype=dtype)
        gates = table | ((1 << 8 * table.itemsize) - 1 - low)
    # the right side reads column `count`, all zeros, at landing point -1
    words = np.zeros((m, count + 1), dtype)
    words[:, :count] = table
    points = np.arange(count)
    laws = [(f"homomorphism-slot:{slot + 1}", "P(g1 *i g2) differs from P(g1) *i P(g2)",
             heads, int, [(0, universe.subst[points, slot, values], gates)])
            for slot, heads in enumerate(alg.mann)]
    if alg.superposition is not None and universe.all_index is not None:
        laws.append(("homomorphism-superposition",
                     "P(g[g1..gn]) differs from P(g)[P(g1)..P(gn)]",
                     alg.superposition.reshape(m, -1),
                     lambda a: tuple(int(v) for v in np.unravel_index(a, (m,) * n)),
                     _superposition_blocks(universe, values, gates, n)))
    failing = 0
    for law, message, heads, arguments, blocks in laws:
        found, last = None, m
        for start, landing, gate in blocks:
            rows = heads[:last, start : start + len(landing)]
            for h, (row, word) in enumerate(zip(rows, words)):
                x = word.take(landing)
                if not lone:
                    x &= gate
                x ^= table[row]
                if not x.any():
                    continue
                if lone:
                    a, p = divmod(int(np.flatnonzero(x)[0]), count)
                    found, last = (h, arguments(start + a), universe.points[p]), h
                    break
                fail = x & low  # bL ^ bR
                fail |= (table[row] & low) * (x > low)
                failing |= int(np.bitwise_or.reduce(fail, axis=None))
        if found is not None:
            return 1, Violation(law, found, message)
    return failing, None


def _superposition_blocks(universe: Universe, values, gates, n):
    """Blocks of leading arguments g1, flattened with g2..gn: landing is
    the all-tuple point of the argument values, gate (with gates) the AND
    of the argument rows' gates.  A block stays under HOM_BLOCK_ELEMENTS."""
    m, count = values.shape

    def axis(rows, k):  # rows as the k-th argument axis
        return rows.reshape((1,) * k + (len(rows),) + (1,) * (n - 1 - k) + (count,))

    # landing: one take at the values' linear index, where -1 reads the padding
    radix = universe.value_size + 1
    coords = values.astype(np.intp) % radix
    trailing = range(1, n)
    tail = sum((axis(coords * radix ** (n - 1 - k), k) for k in trailing), 0)
    per_row = m ** (n - 1)
    rows = max(1, HOM_BLOCK_ELEMENTS // (per_row * count or 1))
    for start in range(0, m, rows):
        block = slice(start, start + rows)
        landing = universe.all_index.take(axis(coords[block] * radix ** (n - 1), 0) + tail)
        gate = None
        if gates is not None:
            gate = axis(gates[block], 0)
            for k in trailing:
                gate = gate & axis(gates, k)
            gate = gate.reshape(-1, count)
        yield start * per_row, landing.reshape(-1, count), gate
