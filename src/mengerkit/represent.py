"""Canonical representations by partial n-place functions.

The point universe adjoins one placeholder per argument slot to the
carrier.  Points are coordinate tuples; a coordinate is a carrier element
or -1, which stands for the slot's own placeholder.  A universe holds, in
order: every all-carrier tuple (menger flavor only), the occupant tuples
of reachable word states in BFS order (all-carrier ones collapse into the
first block), and the blank point with every slot unoccupied.

A representation assigns each carrier element a partial function from
universe points to carrier elements.  The canonical construction fixes an
anchor pair (h1, h2) and defines g's function at a point as the value g
reaches there (g[coords] at an all-carrier point, g itself at the blank
point, g pushed through the witness word at an occupant point), defined
exactly where that value sits chi-above h1 or h2.  Values are witness
independent because universe construction rejects algebras where equal
occupant tuples disagree on actions, and warrant the collapse of point
blocks by the cross-checks below.

So every part is one rule: a value table and a row of allowed values
(see ReprPart).  The reached values are the universe's own ``values``
table, which every built part shares, and its row is chi[h1] | chi[h2];
a part given an assignment holds it as its table, with every value
allowed.  A sum is its list of parts over pairwise disjoint universes,
never laid out as one array: inclusion and equality hold in every part,
overlap in some part, and a part is read only at the first column of each
class of equal columns of its table, which changes none of them.

The homomorphism check compares every distinct equation in every part,
superposition equations once per class of points with equal word columns.
Consecutive parts over one value table agree wherever two of them are
defined, so they are checked as one group: one value table, one domain
bit per part, and one pass over the equations for all of them.  A part
with a table of its own is a group of its own.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .algebra import (
    EMPTY,
    AbstractAlgebra,
    StateSpace,
    Violation,
    _holds_at_generators,
    _shared_slots,
    _word_superposition_mismatch,
    distinct_columns,
    fold_arguments,
    scan_equations,
    superposition_generators,
    tuple_index,
)
from .bitrel import BinRelation
from .errors import CapacityError, InputError
from .relations import is_l_regular, is_v_negative
from .tables import (_check_law_cap, _check_table_cells, block_rows, relations_of_domains,
                     row_lookup)

BLANK = EMPTY  # placeholder coordinate, only valid at its own slot


def _check_universe_cells(count: int, n: int, size: int, all_tuples: bool,
                          value_table: bool):
    """Raise CapacityError when a universe of ``count`` points, holding
    every carrier tuple or not and a value table or not, needs more than
    MAX_TABLE_CELLS cells it keeps: points * n * (m + 1) for subst, points
    * m for the value table, plus (m + 1)**n for all_index when every
    carrier tuple is a point (3.9 M for the 11 881-point universe at
    m=108, n=2; a one-point universe at n=32 and m=1 is refused for its
    2**32 index cells).  The moved points are looked up in blocks under
    BLOCK_BYTES and never held whole, so they are not counted."""
    cells = (count * (n * (size + 1) + (size if value_table else 0))
             + ((size + 1) ** n if all_tuples else 0))
    _check_table_cells(f"universe of {count} points", cells)


class Universe:
    """Point list with substitution lookups and per-element value table.

    ``has_all_tuples`` is worked out from the points: they are distinct, so
    every carrier tuple is among them exactly when value_size**n of them
    have no placeholder coordinate."""

    def __init__(self, n, value_size, points, kind, values=None):
        self.n = n
        self.value_size = value_size
        self.points = tuple(points)
        self.kind = kind  # "extended" | "base"
        self.values = values  # (carrier, points) array for extended universes
        count, size = len(self.points), value_size
        self.has_all_tuples = sum(BLANK not in p for p in self.points) == size**n
        _check_universe_cells(count, n, size, self.has_all_tuples, values is not None)
        rows = np.array(self.points, dtype=np.intp).reshape(count, n)
        find = row_lookup(rows)
        if (find(rows) != np.arange(count)).any():
            raise InputError("duplicate points in universe")
        # subst[p, slot, v] is p with coordinate slot set to v, or -1, also at v =
        # value_size or -1 (undefined), looked up in blocks of points: per
        # moved point its n intp coordinates, the key it is matched against
        # (n * 8 bytes), four intp indices and a bool (see row_lookup)
        self.subst = np.full((count, n, size + 1), -1, dtype=np.intp)
        step = block_rows(n * size * (16 * n + 33))
        for start in range(0, count, step):
            moved = np.repeat(rows[start : start + step, None], n * size, axis=1)
            moved = moved.reshape(-1, n, size, n)
            moved[:, range(n), :, range(n)] = np.arange(size)
            self.subst[start : start + step, :, :-1] = find(moved.reshape(-1, n)).reshape(
                -1, n, size)
        self.all_index = None  # all_index[c]: the all-carrier point c, padded with -1
        if self.has_all_tuples:
            all_index = find(np.indices((size,) * n).reshape(n, -1).T)
            if (all_index < 0).any():
                raise InputError("universe is missing all-tuple points")
            self.all_index = np.full((size + 1,) * n, -1, dtype=np.intp)
            self.all_index[(slice(size),) * n] = all_index.reshape((size,) * n)
        # values at the first column of each class of equal columns (see ReprPart)
        self.distinct = None if values is None else values[:, distinct_columns(values)]

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

    # on menger flavor a slot-complete state collapses into its carrier
    # point, whose values must agree
    if not bullet:
        found = _word_superposition_mismatch(alg, space)
        if found is not None:
            s, g = found
            raise InputError(f"value routes disagree at point "
                             f"{tuple(space.slots[s].tolist())} for element {g}")

    # the points, counted and refused over the cap before any is made: on
    # menger flavor every carrier tuple, then the states with an empty slot,
    # on plain flavor every state; then the blank point
    complete = (space.slots != EMPTY).all(axis=1)
    carrier = np.count_nonzero(complete) if bullet else m**n  # points, no placeholder
    _check_universe_cells(carrier + np.count_nonzero(~complete) + 1, n, m, carrier == m**n,
                          True)
    points, blocks, own = [], [], np.arange(len(space.slots))
    if not bullet:
        points = list(product(range(m), repeat=n))
        blocks = [alg.superposition.reshape(m, m**n)]
        own = np.flatnonzero(~complete)
    points += [tuple(p) for p in space.slots[own].tolist()] + [(BLANK,) * n]
    # every value is below m
    values = np.concatenate(blocks + [space.actions[own].T, np.arange(m)[:, None]], axis=1,
                            dtype=np.min_scalar_type(m - 1), casting="unsafe")
    _cross_witness_check(alg, space)
    return Universe(n, m, points, "extended", values=values)


def _cross_witness_check(alg: AbstractAlgebra, space: StateSpace):
    """Check every expansion event against the tables: its state must be
    its parent's stepped through its (slot, y), in occupants and action.

    This replays every word and alt word.  The first events must form a
    tree rooted at the empty word, each from an earlier state; by
    induction over it, if every first edge holds, every word replays to
    its own state, and then an alt word, a word plus one step, replays to
    its state exactly when its edge holds.  First edges are checked first,
    in blocks of events under BLOCK_BYTES: per event its parent's and its
    child's action and the parent's stepped through the tables, each m
    intp, their comparison, and a few n-wide intp rows.
    """
    n, m, count = alg.arity, alg.size, len(space.slots)
    tree = space.events[:, 0] // (n * m)  # each state's first parent
    if ((tree < 0) | (tree > np.arange(count))).any():
        raise InputError("the first expansion events do not form a tree")
    events = space.events.T.ravel()  # all first events, then the second ones
    per_block = block_rows(8 * (3 * m + 4 * n) + m)
    for start in range(0, len(events), per_block):
        block = events[start : start + per_block]
        edge = start + np.flatnonzero(block >= 0)
        child = edge % count
        parent, step = np.divmod(events[edge], n * m)
        slot, y = (v[:, None] for v in np.divmod(step, m))
        # parent 0 is the empty word, parent p > 0 state p - 1
        occupants, actions = space.slots[parent - 1], space.actions[parent - 1]
        occupants[parent == 0], actions[parent == 0] = EMPTY, np.arange(m)
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
    """One summand: a (carrier, points) value table ``values`` and a bool
    row ``allowed`` over the universe's values plus a last False entry,
    which -1 reads.  Element g is defined at point p exactly where
    allowed[values[g, p]], with value values[g, p] there.

    A built part holds its universe's own table, shared and never copied,
    and its anchor row; a part given an assignment (loaded, identity or
    hand-made) holds it as its table, with every value allowed.
    ``distinct`` is the table at the first column of each class of its
    equal columns, kept by the universe for its own."""

    def __init__(self, universe: Universe, values: np.ndarray, labels=(), allowed=None):
        if values.shape[1] != len(universe.points):
            raise InputError("assignment width does not match universe")
        self.universe = universe
        self.values = values
        self.labels = tuple(labels)
        if allowed is None:
            allowed = np.arange(universe.value_size + 1) < universe.value_size
        self.allowed = allowed
        self.distinct = (universe.distinct if values is universe.values
                         else values[:, distinct_columns(values)])

    @property
    def assign(self) -> np.ndarray:
        """The assignment, -1 where undefined, formed on each read."""
        return _masked(self.values, self.allowed)


def _masked(values: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """values where allowed, else -1, in the smallest signed dtype that
    holds the values below len(allowed) - 1: one lookup per entry."""
    row = np.where(allowed, np.arange(len(allowed)), -1)
    return row.astype(np.min_scalar_type(1 - len(allowed)))[values]


class Representation:
    """A sum of parts over pairwise disjoint universes."""

    def __init__(self, size: int, parts):
        self.size = size
        self.parts = tuple(parts)
        for part in self.parts:
            if part.values.shape[0] != size:
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


def _anchored_parts(universe: Universe, chi: BinRelation, anchors) -> tuple[ReprPart, ...]:
    """One part per distinct anchor row chi[h1] | chi[h2], in order of
    first use, labelled by every anchor pair that gives it; each part
    reads the universe's values through its row.

    The row decides the part, and two rows never give the same part: the
    blank point's column of ``universe.values`` is arange(m), so a part's
    blank column is the row itself (v where chi[h1, v] or chi[h2, v] holds,
    -1 elsewhere).  Grouping by row therefore yields the parts, order and
    labels that building every pair's part and deduplicating would.
    """
    by_row: dict[bytes, tuple[np.ndarray, list[str]]] = {}
    # chi's rows, each with a last False entry
    rows = np.concatenate([chi.matrix, np.zeros((chi.size, 1), bool)], axis=1)
    for h1, h2 in anchors:
        label = f"point({h1})" if h1 == h2 else f"pair({h1},{h2})"
        allowed = rows[h1] | rows[h2]
        by_row.setdefault(allowed.tobytes(), (allowed, []))[1].append(label)
    return tuple(ReprPart(universe, universe.values, labels, allowed)
                 for allowed, labels in by_row.values())


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
    return sum_over_pairs(alg, chi, BinRelation.diagonal(alg.size))


def sum_representations(reps) -> Representation:
    """Disjoint-union sum: the summands' parts in order."""
    reps = list(reps)
    sizes = {rep.size for rep in reps}
    if len(sizes) > 1:
        raise InputError(f"carrier mismatch across summands: {sorted(sizes)}")
    size = sizes.pop() if sizes else 0
    return Representation(size, [part for rep in reps for part in rep.parts])


def _side_by_side(rep: Representation, read) -> np.ndarray:
    """read(values, allowed) of each part's table at the first column of
    each class of its equal columns, the parts side by side.  Equal
    columns read alike, so the repeats left out change no inclusion,
    overlap or row equality."""
    return np.concatenate([np.empty((rep.size, 0), bool)]
                          + [read(part.distinct, part.allowed) for part in rep.parts],
                          axis=1)


def representation_relations(rep: Representation):
    """Domain inclusion, overlap, and equality relations of the sum, read
    off the parts' domains side by side (the part universes are disjoint).
    An empty sum yields the full inclusion relation by convention."""
    return relations_of_domains(_side_by_side(rep, lambda values, allowed: allowed[values]))


def is_faithful(rep: Representation):
    """None when the assignment is injective, else the colliding pair."""
    seen = {}
    for g, row in enumerate(_side_by_side(rep, _masked)):
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
    point) feeds computed values as a fresh argument tuple.  Parts are
    checked in order, and within a part slots 1..n and then
    superposition, each in lexicographic order of its elements and point;
    the first mismatch is returned with the elements and point involved.

    Each part's functions are partial n-place functions, undefined off
    its universe, so they satisfy superassociativity and both mixed laws
    outright.  Where the algebra's superassociativity and mixed laws are
    known to hold (see check_menger_identities), the equations are
    compared at heads in superposition_generators G only.  Write P for a
    part and x = g[h1..hn].  Superposition equations at g and each h_i give
    P(x[ys]) = P(g[h1[ys]..hn[ys]]) = P(g)[P(h1)[P(ys)] ..] =
    P(g)[P(h1)..P(hn)][P(ys)] = P(x)[P(ys)], so at G they hold
    everywhere.  Slot equations at g and each h_i then give P(x *i y) =
    P(g[h1 *i y ..]) = P(g)[P(h1) *i P(y) ..] = P(x) *i P(y), through
    superposition-into-slot on both sides; so slot equations are compared
    at G only where the same scan compares superposition equations, that
    is, on universes with every all-tuple point.

    Every distinct equation at those heads is compared in every part: n *
    m slot equations per head and universe point, and m**n superposition
    equations per head and class of points with equal word columns (see
    _scan); without G the heads are all m elements.  Runs of consecutive
    parts over one value table form groups, each checked in one pass with
    one bit per part (see _groups and _scan).  A part fails at a head in G
    exactly when it fails anywhere, so the lowest failing part of a group
    is the same with G or without; it is then checked alone, at every
    head, for its first witness.  Raises CapacityError when a group, or
    that part, has more than MAX_EQUATIONS equations to compare.  Memory
    is bounded per pass of scan_equations (see BLOCK_BYTES), not by the
    equation count.
    """
    if rep.size != alg.size:
        raise InputError("representation carrier does not match algebra")
    try:
        generators = (superposition_generators(alg)
                      if _holds_at_generators(alg, "mixed laws") else None)
    except CapacityError:  # the laws are not known to hold
        generators = None
    for parts, values in _groups(rep.parts):
        heads = generators if parts[0].universe.all_index is not None else None
        failing, violation = _scan(parts, values, alg, heads)
        if failing and (violation is None or heads is not None):
            part = parts[(failing & -failing).bit_length() - 1]
            _, violation = _scan([part], part.assign, alg)
        if violation is not None:
            return violation
    return None


def _groups(parts):
    """(parts, values) per group: a run of consecutive parts over one
    Universe object and one value table, with at most as many parts as a
    64-bit word has bits left beside the value (see _scan); values is the
    group's table, -1 where none of its parts is defined."""
    runs = []
    for part in parts:
        run = runs[-1] if runs else None
        if (run and part.universe is run[0].universe and part.values is run[0].values
                and len(run) < 64 - int(part.universe.value_size).bit_length()):
            run.append(part)
        else:
            runs.append([part])
    return [(run, _masked(run[0].values, np.logical_or.reduce([p.allowed for p in run])))
            for run in runs]


def _word_dtype(parts) -> np.dtype:
    """The dtype of a group's words in _scan: the smallest unsigned one
    that holds value + 1 above one domain bit per part (none for a lone
    part)."""
    bits = len(parts) if len(parts) > 1 else 0
    return np.min_scalar_type((1 << bits + int(parts[0].universe.value_size).bit_length()) - 1)


def _scan(parts, values, alg: AbstractAlgebra, heads: np.ndarray | None = None):
    """(failing bits, first Violation) of one group of parts, at the
    ascending ``heads`` (default: every element; see verify_homomorphism).

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
    differ (scan_equations); the scan returns the OR of the fail words of
    every equation.

    A superposition equation at p reads only p's word column W[:, p]: the
    left side W[c, p], the landing point (from the values V[a_i, p]) and
    the gate (from the bits D[a_i, p]).  So it is compared once per class
    of points with equal word columns, at the class's first point, and the
    first failing point of a lone part is the first point of the first
    failing class (see scan_equations).  Slot equations read the
    substitution neighbours of p, so they are compared at every point.

    A lone part carries no domain bit and no gate: its value field is 0
    exactly where it is undefined, and landing is -1 wherever its gate
    would be 0, so x is nonzero exactly where the part fails, and its scan
    stops at the first failing equation in witness order.
    """
    universe = parts[0].universe
    n, m = alg.arity, alg.size
    count = len(universe)
    lone = len(parts) == 1
    bits = 0 if lone else len(parts)
    low = (1 << bits) - 1  # the domain bits
    dtype = _word_dtype(parts)
    table = values.astype(dtype) + 1  # -1 wraps to 0
    gates = None
    if not lone:
        # the group's parts share one value table: one gather of each
        # value's domain bits sets them all
        domains = np.zeros(len(parts[0].allowed), dtype)
        for k, part in enumerate(parts):
            domains |= np.left_shift(part.allowed, k, dtype=dtype)
        table <<= bits
        table |= domains[parts[0].values]
        gates = table | ((1 << 8 * table.itemsize) - 1 - low)
    superposition = alg.superposition is not None and universe.all_index is not None
    reps = distinct_columns(table) if superposition else ()
    rows = m if heads is None else len(heads)
    _check_law_cap("homomorphism check", n * rows * m * count + rows * m**n * len(reps))
    # the right side reads column `count`, all zeros, at landing point -1
    words = np.zeros((m, count + 1), dtype)
    words[:, :count] = table
    points = np.arange(count)

    def slot_landing(slot):
        return lambda start, stop: (universe.subst[points, slot, values[start:stop]],
                                    None if lone else gates[start:stop])

    laws = [(f"homomorphism-slot:{slot + 1}", "P(g1 *i g2) differs from P(g1) *i P(g2)",
             composites, table, slot_landing(slot), int, universe.points)
            for slot, composites in enumerate(alg.mann)]
    if superposition:
        laws.append(("homomorphism-superposition",
                     "P(g[g1..gn]) differs from P(g)[P(g1)..P(gn)]",
                     alg.superposition.reshape(m, -1), table[:, reps],
                     _superposition_landing(universe, values[:, reps],
                                            None if lone else gates[:, reps], n),
                     lambda a: tuple(int(v) for v in np.unravel_index(a, (m,) * n)),
                     [universe.points[p] for p in reps.tolist()]))
    failing = 0
    for law, message, composites, left, land, arguments, at in laws:
        found_bits, found = scan_equations(composites, left, words, land, low, heads)
        failing |= found_bits
        if found is not None:
            h, a, c = found
            return 1, Violation(law, (h, arguments(a), at[c]), message)
    return failing, None


def _superposition_landing(universe: Universe, values, gates, n):
    """land(start, stop) for scan_equations over the columns of values:
    landing is the all-tuple point of the argument values (padding -1 where
    one is undefined), gate (with gates) the AND of the argument rows'
    gates, for leading arguments g1 in start..stop-1."""
    radix = universe.value_size + 1
    coords = values.astype(np.intp) % radix  # -1 reads the padding at value_size

    def land(start, stop):
        landing = universe.all_index.take(tuple_index(coords, n, radix, start, stop))
        gate = None if gates is None else fold_arguments(gates, n, start, stop, np.bitwise_and)
        return landing, gate

    return land
