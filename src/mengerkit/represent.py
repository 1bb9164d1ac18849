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
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .algebra import (
    EMPTY,
    AbstractAlgebra,
    Violation,
    WordState,
    _word_superposition_mismatch,
    slot_occupants_generic,
)
from .bitrel import BinRelation
from .errors import InputError
from .relations import is_l_regular, is_v_negative
from .tables import relations_of_domains

BLANK = EMPTY  # placeholder coordinate, only valid at its own slot

# elements in one block of superposition landing points in the homomorphism
# check: 8 bytes each (intp, which numpy gathers with no per-call index
# conversion) plus 3 for one head's two sides and their comparison
HOM_BLOCK_ELEMENTS = 1 << 22


class Universe:
    """Point list with substitution lookups and per-element value table."""

    def __init__(self, n, value_size, points, kind, states=None, values=None,
                 has_all_tuples=False):
        self.n = n
        self.value_size = value_size
        self.points = tuple(points)
        self.kind = kind  # "extended" | "base"
        self.index = {p: i for i, p in enumerate(self.points)}
        if len(self.index) != len(self.points):
            raise InputError("duplicate points in universe")
        self.states = states or {}
        self.values = values  # (carrier, points) array for extended universes
        self.has_all_tuples = has_all_tuples
        # subst[p, slot, v]: the point p with coordinate slot set to v, or -1
        self.subst = np.array([[[self.index.get(p[:slot] + (v,) + p[slot + 1 :], -1)
                                 for v in range(value_size)] for slot in range(n)]
                               for p in self.points], dtype=np.int64
                              ).reshape(len(self.points), n, value_size)
        self.all_index = None
        if has_all_tuples:
            all_index = np.array([self.index.get(c, -1) for c in
                                  product(range(value_size), repeat=n)], dtype=np.int64)
            if (all_index < 0).any():
                raise InputError("universe is missing all-tuple points")
            self.all_index = all_index.reshape((value_size,) * n)

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
    for slots, group in space.by_slots.items():
        if len(group) > 1:
            raise InputError(
                "algebra fails the representability implication; "
                f"occupants {slots} reached with two actions")

    # on menger flavor the carrier points come first, and a slot-complete
    # state collapses into its carrier point, whose values must agree
    points, blocks, own = [], [], np.arange(len(space.states))
    if not bullet:
        found = _word_superposition_mismatch(alg, space)
        if found is not None:
            s, g = found
            raise InputError(f"value routes disagree at point "
                             f"{space.states[s].slots} for element {g}")
        points = list(product(range(m), repeat=n))
        blocks = [alg.superposition.reshape(m, m**n)]
        own = np.flatnonzero((space.slots == EMPTY).any(axis=1))
    points += [space.states[s].slots for s in own] + [(BLANK,) * n]
    values = np.concatenate(blocks + [space.actions[own].T, np.arange(m)[:, None]],
                            axis=1)
    index = {p: i for i, p in enumerate(points)}
    states = {index[state.slots]: state for state in space.states}

    _cross_witness_check(alg, states)
    return Universe(n, m, points, "extended", states=states, values=values,
                    has_all_tuples=not bullet)


def _cross_witness_check(alg: AbstractAlgebra, states: dict[int, WordState]):
    """Re-derive point values from the alternative witness word whenever
    one was recorded; both routes must agree for every element."""
    mann = alg.mann.tolist()  # Python ints index faster than array scalars
    for state in states.values():
        for word in (state.word, state.alt_word):
            if word is None:
                continue
            occupants = slot_occupants_generic(
                word, alg.arity, lambda v, slot, y: mann[slot][v][y])
            if occupants != state.slots:
                raise InputError(f"witness word {word} does not reach {state.slots}")
            action = range(alg.size)
            for slot, y in word:
                action = [mann[slot][v][y] for v in action]
            if tuple(action) != state.action:
                raise InputError(
                    f"witness word {word} disagrees with the recorded action")


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
    """One part per distinct anchor mask chi.rows[h1] | chi.rows[h2], in
    order of first use, labelled by every anchor pair that gives it.

    The mask decides the part, and two masks never give the same part:
    the blank point's column of ``universe.values`` is arange(m), so a
    part's blank column is the mask itself (v where bit v is set, -1
    elsewhere).  Grouping by mask therefore yields the parts, order and
    labels that building every pair's part and deduplicating would.
    """
    labels_by_mask: dict[int, list[str]] = {}
    for h1, h2 in anchors:
        label = f"point({h1})" if h1 == h2 else f"pair({h1},{h2})"
        labels_by_mask.setdefault(chi.rows[h1] | chi.rows[h2], []).append(label)
    values = universe.values
    parts = []
    for mask, labels in labels_by_mask.items():
        allowed = np.array([bool(mask >> v & 1) for v in range(chi.size)])
        assign = np.where(allowed[values], values, -1)
        parts.append(ReprPart(universe, assign, labels))
    return tuple(parts)


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
    pairs with the same anchor mask share one part (see _anchored_parts)."""
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
    every equation are compared: n * m**2 slot equations and m**(n+1)
    superposition equations per universe point of each part.  Parts are
    checked in order, and within a part slots 1..n and then
    superposition, each in lexicographic order of its elements and point;
    the first mismatch is returned with the elements and point involved.
    Memory is bounded per block of equations (see HOM_BLOCK_ELEMENTS),
    not by the equation count.
    """
    if rep.size != alg.size:
        raise InputError("representation carrier does not match algebra")
    for part in rep.parts:
        violation = _verify_part(part, alg.mann, alg.superposition)
        if violation is not None:
            return violation
    return None


def _verify_part(part: ReprPart, mann, sup) -> Violation | None:
    universe = part.universe
    m, count = part.assign.shape
    size = universe.value_size
    dtype = np.min_scalar_type(-max(size, 1))  # holds size - 1 and -1
    A = part.assign.astype(dtype)
    # Ax[g, -1] is -1, so a landing point of -1 (no such point) reads undefined
    Ax = np.concatenate([A, np.full((m, 1), -1, dtype=dtype)], axis=1)
    points = np.arange(count)
    for slot, table in enumerate(mann):
        # substitution with a trailing -1 column, read by undefined values
        subst = np.full((count, size + 1), -1, dtype=np.intp)
        subst[:, :size] = universe.subst[:, slot, :]
        landed = subst[points, A]  # landed[g2, p]: p with slot <- P(g2)(p)
        for g1 in range(m):
            # P(g1 *slot g2)(p) against P(g1)(p with slot <- P(g2)(p)), rows g2
            diff = A[table[g1]] != Ax[g1].take(landed)
            if diff.any():
                g2, p = (int(v) for v in np.argwhere(diff)[0])
                return Violation(
                    f"homomorphism-slot:{slot + 1}", (g1, g2, universe.points[p]),
                    "P(g1 *i g2) differs from P(g1) *i P(g2)")
    if sup is not None and universe.all_index is not None:
        return _verify_superposition(universe, A, Ax, sup)
    return None


def _verify_superposition(universe: Universe, A, Ax, sup) -> Violation | None:
    """First mismatch of P(g[g1..gn])(p) against P(g)(P(g1)(p)..P(gn)(p)).

    The landing points do not depend on the head g, so they are built
    once per block of leading arguments g1 and every head is compared
    against them.  A mismatch at head g in one block is the first of all
    heads <= g there; a later block (larger g1) can only hold an earlier
    witness at a smaller head, so later blocks check only those.
    """
    m, count = A.shape
    n = sup.ndim - 1
    size = universe.value_size
    # all_index with a trailing -1 along each axis, read by undefined values
    all_index = np.full((size + 1,) * n, -1, dtype=np.intp)
    all_index[(slice(size),) * n] = universe.all_index
    trailing = [A.reshape((1,) * k + (m,) + (1,) * (n - 1 - k) + (count,))
                for k in range(1, n)]
    rows = max(1, HOM_BLOCK_ELEMENTS // (m ** (n - 1) * count or 1))
    found, heads = None, m
    for start in range(0, m, rows):
        block = A[start : start + rows]
        lead = block.reshape((len(block),) + (1,) * (n - 1) + (count,))
        landed = all_index[(lead, *trailing)]  # (g1 in block, g2..gn, p)
        for g in range(heads):
            diff = A[sup[g, start : start + rows]] != Ax[g].take(landed)
            if diff.any():
                where = [int(v) for v in np.argwhere(diff)[0]]
                args = (start + where[0],) + tuple(where[1:n])
                found, heads = (g, args, where[n]), g
                break
    if found is None:
        return None
    head, args, p = found
    return Violation(
        "homomorphism-superposition", (head, args, universe.points[p]),
        "P(g[g1..gn]) differs from P(g)[P(g1)..P(gn)]")
