"""Concrete partial n-place functions on a finite base set.

A function is stored as a dense table over all argument tuples, indexed in
mixed radix with the leftmost argument most significant.  ``UNDEFINED``
(-1) marks cells outside the domain; the external file format writes those
as ``null``.

Two families of compositions are provided: full superposition, which feeds
one function per argument slot, and the binary slot compositions, which
substitute a single inner function into one argument slot.  Both sides of
each defining equation are undefined exactly together, so domains shrink
as compositions stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .bitrel import BinRelation
from .errors import CapacityError, InputError

UNDEFINED = -1

DEFAULT_CLOSURE_CAP = 4096


@dataclass(frozen=True)
class PartialFunction:
    """Dense table of a partial function from base**arity to base."""

    arity: int
    base_size: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise InputError("arity must be positive")
        if self.base_size < 1:
            raise InputError("base_size must be positive")
        expected = self.base_size**self.arity
        if len(self.entries) != expected:
            raise InputError(
                f"table has {len(self.entries)} entries, expected {expected}"
            )
        for idx, value in enumerate(self.entries):
            if value != UNDEFINED and not (0 <= value < self.base_size):
                raise InputError(f"table entry {idx} = {value} out of range")

    # -- basic access ---------------------------------------------------

    def cell_index(self, args: tuple[int, ...]) -> int:
        if len(args) != self.arity:
            raise InputError(f"expected {self.arity} arguments, got {len(args)}")
        idx = 0
        for a in args:
            if not (0 <= a < self.base_size):
                raise InputError(f"argument {a} out of range [0, {self.base_size})")
            idx = idx * self.base_size + a
        return idx

    def at(self, args: tuple[int, ...]) -> int:
        """Value at an argument tuple, or UNDEFINED."""
        return self.entries[self.cell_index(args)]

    def domain_bits(self) -> int:
        """Bitmask over cell indices where the function is defined."""
        mask = 0
        for idx, value in enumerate(self.entries):
            if value != UNDEFINED:
                mask |= 1 << idx
        return mask

    def is_empty(self) -> bool:
        return all(v == UNDEFINED for v in self.entries)

    # -- stock functions --------------------------------------------------

    @staticmethod
    def empty(arity: int, base_size: int) -> PartialFunction:
        return PartialFunction(arity, base_size, (UNDEFINED,) * base_size**arity)

    @staticmethod
    def projection(arity: int, base_size: int, slot: int) -> PartialFunction:
        """Total function returning its argument at ``slot`` (0-based)."""
        if not (0 <= slot < arity):
            raise InputError(f"slot {slot} out of range [0, {arity})")
        entries = tuple(
            args[slot] for args in product(range(base_size), repeat=arity)
        )
        return PartialFunction(arity, base_size, entries)

    @staticmethod
    def constant(arity: int, base_size: int, value: int) -> PartialFunction:
        if not (0 <= value < base_size):
            raise InputError(f"constant {value} out of range")
        return PartialFunction(arity, base_size, (value,) * base_size**arity)


def _check_compatible(f: PartialFunction, g: PartialFunction):
    if f.arity != g.arity or f.base_size != g.base_size:
        raise InputError(
            f"incompatible tables: arity {f.arity}/{g.arity}, "
            f"base {f.base_size}/{g.base_size}"
        )


def superpose(f: PartialFunction, gs: list[PartialFunction]) -> PartialFunction:
    """Feed one inner function per slot: result(a) = f(g1(a), ..., gn(a)).

    Undefined wherever any inner value is undefined or f is undefined at
    the inner-value tuple.
    """
    if len(gs) != f.arity:
        raise InputError(f"superposition needs {f.arity} inner functions, got {len(gs)}")
    for g in gs:
        _check_compatible(f, g)
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


def mann_compose(f: PartialFunction, g: PartialFunction, slot: int) -> PartialFunction:
    """Substitute g into argument slot ``slot`` (0-based) of f.

    result(a1..an) = f(a1, ..., g(a1..an), ..., an), undefined when g or
    the outer application is undefined.
    """
    _check_compatible(f, g)
    if not (0 <= slot < f.arity):
        raise InputError(f"slot {slot} out of range [0, {f.arity})")
    entries = []
    for args in product(range(f.base_size), repeat=f.arity):
        v = g.at(args)
        if v == UNDEFINED:
            entries.append(UNDEFINED)
        else:
            outer = args[:slot] + (v,) + args[slot + 1 :]
            entries.append(f.at(outer))
    return PartialFunction(f.arity, f.base_size, tuple(entries))


@dataclass(frozen=True)
class ConcreteAlgebra:
    """A duplicate-free, composition-closed set of partial functions."""

    arity: int
    base_size: int
    functions: tuple[PartialFunction, ...]
    flavor: str  # "menger" | "plain"

    def __post_init__(self):
        if self.flavor not in ("menger", "plain"):
            raise InputError(f"unknown flavor {self.flavor!r}")
        seen = set()
        for f in self.functions:
            if f.arity != self.arity or f.base_size != self.base_size:
                raise InputError("all member functions must share arity and base_size")
            if f.entries in seen:
                raise InputError("duplicate function table in algebra")
            seen.add(f.entries)

    def __len__(self) -> int:
        return len(self.functions)

    def closure_violation(self):
        """None when closed under the applicable compositions, else a
        (description, composite) witness."""
        index = {f.entries for f in self.functions}
        for slot in range(self.arity):
            for i, f in enumerate(self.functions):
                for j, g in enumerate(self.functions):
                    h = mann_compose(f, g, slot)
                    if h.entries not in index:
                        return (f"f{i} *{slot + 1} f{j}", h)
        if self.flavor == "menger":
            for i, f in enumerate(self.functions):
                for combo in product(range(len(self.functions)), repeat=self.arity):
                    h = superpose(f, [self.functions[j] for j in combo])
                    if h.entries not in index:
                        args = " ".join(f"f{j}" for j in combo)
                        return (f"f{i}[{args}]", h)
        return None


def close_under_operations(
    generators: list[PartialFunction],
    flavor: str = "menger",
    cap: int = DEFAULT_CLOSURE_CAP,
    arity: int | None = None,
    base_size: int | None = None,
) -> ConcreteAlgebra:
    """Least superset of the generators closed under all slot compositions
    (and superposition for menger flavor), in breadth-first insertion order.

    ``arity``/``base_size`` are only needed for an empty generator list.
    Raises CapacityError with the partial count when the closure would
    exceed ``cap`` elements.
    """
    if flavor not in ("menger", "plain"):
        raise InputError(f"unknown flavor {flavor!r}")
    elements: list[PartialFunction] = []
    seen: set[tuple[int, ...]] = set()
    for g in generators:
        if arity is None:
            arity, base_size = g.arity, g.base_size
        elif g.arity != arity or g.base_size != base_size:
            raise InputError("generators must share arity and base_size")
        if g.entries not in seen:
            seen.add(g.entries)
            elements.append(g)
    if arity is None or base_size is None:
        raise InputError("empty generator list needs explicit arity and base_size")
    if len(elements) > cap:
        raise CapacityError(f"closure cap {cap} exceeded", count=len(elements))

    old = 0  # members below this index were already composed with each other
    while True:
        fresh: list[PartialFunction] = []

        def emit(h: PartialFunction):
            if h.entries not in seen:
                seen.add(h.entries)
                fresh.append(h)
                if len(seen) > cap:
                    raise CapacityError(f"closure cap {cap} exceeded", count=len(seen))

        total = len(elements)
        for slot in range(arity):
            for i, f in enumerate(elements):
                for j, g in enumerate(elements):
                    if i < old and j < old:
                        continue
                    emit(mann_compose(f, g, slot))
        if flavor == "menger":
            for i, f in enumerate(elements):
                for combo in product(range(total), repeat=arity):
                    if i < old and all(j < old for j in combo):
                        continue
                    emit(superpose(f, [elements[j] for j in combo]))
        if not fresh:
            break
        old = total
        elements.extend(fresh)

    return ConcreteAlgebra(arity, base_size, tuple(elements), flavor)


def domain_relations(algebra: ConcreteAlgebra):
    """The three domain relations of the member functions.

    Returns (chi, gamma, pi): chi holds where the first domain is included
    in the second, gamma where the domains intersect, pi where they are
    equal.
    """
    m = len(algebra.functions)
    doms = [f.domain_bits() for f in algebra.functions]
    chi = [0] * m
    gamma = [0] * m
    pi = [0] * m
    for a in range(m):
        for b in range(m):
            if doms[a] & ~doms[b] == 0:
                chi[a] |= 1 << b
            if doms[a] & doms[b]:
                gamma[a] |= 1 << b
            if doms[a] == doms[b]:
                pi[a] |= 1 << b
    return (
        BinRelation(m, tuple(chi)),
        BinRelation(m, tuple(gamma)),
        BinRelation(m, tuple(pi)),
    )
