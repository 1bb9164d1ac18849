"""Reference implementations the tests compare the library against.

Each one computes its answer a second way, by a direct formula or a
fixpoint over explicit maps, so that it does not share the library's
state search or relation reachability.
"""

from __future__ import annotations

from dataclasses import dataclass

from mengerkit import EMPTY, CapacityError, InputError
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
