"""Deterministic generation of desk-scale test instances.

Generated concrete algebras are representable by construction, which makes
them the positive battery for every necessity check.  The seed fully
determines the output; retries after a closure-cap overflow continue the
same seeded stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

import numpy as np

from .bitrel import BinRelation
from .errors import CapacityError, ClosureCapError, InputError
from .relations import is_l_regular
from .represent import Representation, ReprPart, Universe
from .tables import (
    DEFAULT_CLOSURE_CAP,
    UNDEFINED,
    ConcreteAlgebra,
    PartialFunction,
    close_under_operations,
)

UNDEFINED_PROB = 0.25  # chance that a drawn table cell is undefined
RETRIES = 32  # fresh draws after a closure-cap overflow


@dataclass(frozen=True)
class GeneratorConfig:
    arity: int = 2
    base_size: int = 2
    generator_count: int = 1
    seed: int = 0
    flavor: str = "menger"
    closure_cap: int = DEFAULT_CLOSURE_CAP

    def __post_init__(self):
        if self.arity < 1 or self.base_size < 1 or self.generator_count < 0:
            raise InputError("arity, base_size must be positive; generator_count >= 0")
        # an empty algebra of this shape checks the flavor and the table caps
        ConcreteAlgebra(self.arity, self.base_size, (), self.flavor)


def _draw_function(rng: random.Random, arity: int, base: int) -> PartialFunction:
    entries = tuple(
        UNDEFINED if rng.random() < UNDEFINED_PROB else rng.randrange(base)
        for _ in range(base**arity)
    )
    return PartialFunction(arity, base, entries)


def generate_concrete(cfg: GeneratorConfig) -> ConcreteAlgebra:
    """Close randomly drawn partial functions under the compositions.

    Each table cell is undefined with ``UNDEFINED_PROB``, else uniform.
    Draws that blow past the closure cap are retried with fresh tables
    from the same stream, up to ``RETRIES`` times; any other CapacityError
    (a block of composites over MAX_TABLE_CELLS) ends the generation.
    """
    rng = random.Random(f"mengerkit:{cfg.seed}")
    for _ in range(RETRIES):
        generators = [
            _draw_function(rng, cfg.arity, cfg.base_size)
            for _ in range(cfg.generator_count)
        ]
        try:
            return close_under_operations(
                generators, cfg.flavor, cap=cfg.closure_cap,
                arity=cfg.arity, base_size=cfg.base_size)
        except ClosureCapError:
            continue
    raise CapacityError(
        f"no closure within cap {cfg.closure_cap} after {RETRIES} retries")


RELATION_FILTERS = ("all", "equivalences", "l_regular_equivalences", "quasi_orders")


def _partitions(m: int):
    # restricted growth strings, lexicographic
    def grow(prefix, used):
        if len(prefix) == m:
            yield tuple(prefix)
            return
        for block in range(used + 1):
            yield from grow(prefix + [block], max(used, block + 1))

    yield from grow([], 0)


def enumerate_relations(m: int, which: str, alg=None):
    """Deterministic stream of relations on {0..m-1}.

    "all" and "quasi_orders" walk every bitmask (m <= 4); equivalence
    filters walk set partitions (m <= 5).
    """
    if which not in RELATION_FILTERS:
        raise InputError(f"unknown relation filter {which!r}")
    if which in ("all", "quasi_orders"):
        if m > 4:
            raise CapacityError(f"relation enumeration capped at m <= 4, got {m}")
        # mask bit a * m + b is the pair (a, b)
        masks = np.arange(1 << (m * m), dtype=np.uint32)[:, None]
        matrices = (masks >> np.arange(m * m, dtype=np.uint32) & 1).astype(bool)
        matrices = matrices.reshape(len(masks), m, m)
        if which == "quasi_orders":  # no relation is built for a non-reflexive mask
            matrices = matrices[matrices[:, range(m), range(m)].all(axis=1)]
        for matrix in matrices:
            r = BinRelation.from_array(matrix)
            if which == "quasi_orders" and not r.is_transitive():
                continue
            yield r
        return
    if m > 5:
        raise CapacityError(f"equivalence enumeration capped at m <= 5, got {m}")
    if which == "l_regular_equivalences" and alg is None:
        raise InputError("l_regular_equivalences needs the algebra")
    for blocks in _partitions(m):
        r = BinRelation.from_array(np.equal.outer(blocks, blocks))
        if which == "l_regular_equivalences" and is_l_regular(r, alg) is not None:
            continue
        yield r


def identity_representation(conc: ConcreteAlgebra) -> Representation:
    """Each member function assigned to itself over the raw base points.

    Faithful by construction: members are extensionally distinct tables.
    """
    if len(conc.functions) == 0:
        raise InputError("identity representation needs a nonempty algebra")
    points = list(product(range(conc.base_size), repeat=conc.arity))
    universe = Universe(conc.arity, conc.base_size, points, "base")
    part = ReprPart(universe, conc.table, ("identity",))
    return Representation(len(conc.functions), (part,))
