"""Reference implementations the tests compare the library against.

Each one computes its answer a second way, by a direct formula or a
fixpoint over explicit maps, so that it does not share the library's
state search or relation reachability.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from mengerkit import EMPTY, CapacityError, InputError, Violation
from mengerkit.relations import _one_step_translation_maps

DEFAULT_TRANSLATION_CAP = 1_000_000


def slot_occupants_by_first_use(alg, word) -> tuple[int, ...]:
    """Occupants via the first-occurrence formula: the element of the first
    step touching slot i, composed with every later step.  Cross-check
    oracle for :func:`mengerkit.slot_occupants`."""
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
            value = alg.mann[slot][value][y]
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
    one_step = _one_step_translation_maps(alg)
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
        table = np.asarray(alg.mann[slot], dtype=np.int64)
        lhs = A[table]  # lhs[g1, g2, p] = assignment of g1 *slot g2
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
        S = alg.sup_array()
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


def mixed_law_violation_by_loops(alg):
    """The two mixed Menger laws by a loop over every instantiation, slot
    by slot.  Cross-check oracle for the array laws inside
    :func:`mengerkit.check_menger_identities`."""
    m = alg.size
    for slot in range(alg.arity):
        table = alg.mann[slot]
        for x in range(m):
            for y in range(m):
                xy = table[x][y]
                for zs in product(range(m), repeat=alg.arity):
                    mixed = zs[:slot] + (alg.sup_at(y, zs),) + zs[slot + 1 :]
                    if alg.sup_at(xy, zs) != alg.sup_at(x, mixed):
                        return Violation(
                            f"slot-into-superposition:{slot + 1}", (x, y, zs),
                            "(x *i y)[z..] != x[z.. y[z..] ..z]")
        for x in range(m):
            for ys in product(range(m), repeat=alg.arity):
                head = alg.sup_at(x, ys)
                for z in range(m):
                    shifted = tuple(table[yk][z] for yk in ys)
                    if table[head][z] != alg.sup_at(x, shifted):
                        return Violation(
                            f"superposition-into-slot:{slot + 1}", (x, ys, z),
                            "x[y..] *i z != x[y1 *i z .. yn *i z]")
    return None
