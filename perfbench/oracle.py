"""Reference computations made apart from mengerkit.

Everything here works from the raw function tables and numpy alone: the
domain relations of a concrete algebra, its operation tables, the relation
predicates the characterizations are phrased in, the domain relations of a
built representation, and a seeded sample of homomorphism equations.  The
benchmark compares the program's outputs with these, never with stored
copies of earlier outputs.
"""

from __future__ import annotations

import hashlib
from itertools import product

import numpy as np


def function_table(functions) -> np.ndarray:
    """(members, cells) int64 array from file rows; null becomes -1."""
    return np.array([[-1 if v is None else v for v in row] for row in functions],
                    dtype=np.int64)


def domain_relations(table: np.ndarray):
    """(chi, gamma, pi) as bool matrices: inclusion, overlap, equality."""
    dom = table >= 0
    chi = ~np.any(dom[:, None, :] & ~dom[None, :, :], axis=2)
    gamma = np.any(dom[:, None, :] & dom[None, :, :], axis=2)
    return chi, gamma, chi & chi.T


class Tables:
    """Slot compositions and superposition of a closed function set, read
    off by composing the tables directly (carrier = member order)."""

    def __init__(self, table: np.ndarray, arity: int, base: int, menger: bool):
        m, cells = table.shape
        if (base + 1) ** cells >= 2**62:
            raise ValueError("function tables too wide to encode")
        self.size, self.arity, self.menger = m, arity, menger
        self._heads = {}
        args = np.array(list(product(range(base), repeat=arity)), dtype=np.int64)
        weights = base ** np.arange(arity - 1, -1, -1, dtype=np.int64)
        digits = (base + 1) ** np.arange(cells, dtype=np.int64)
        codes = (table + 1) @ digits
        order = np.argsort(codes)
        sorted_codes = codes[order]

        def locate(rows):
            found = (rows + 1) @ digits
            pos = np.clip(np.searchsorted(sorted_codes, found), 0, m - 1)
            if not np.array_equal(sorted_codes[pos], found):
                raise ValueError("function set is not closed")
            return order[pos]

        defined = table >= 0
        self.mann = []
        for slot in range(arity):
            landed = (np.arange(cells)[None, :]
                      + (np.where(defined, table, 0) - args[None, :, slot]) * weights[slot])
            composite = np.where(defined[None, :, :], table[:, landed], -1)
            self.mann.append(locate(composite.reshape(-1, cells)).reshape(m, m))
        self.sup = None
        if menger:
            inner = np.zeros((m,) * arity + (cells,), dtype=np.int64)
            ok = np.ones((m,) * arity + (cells,), dtype=bool)
            for k in range(arity):
                shape = (1,) * k + (m,) + (1,) * (arity - 1 - k) + (cells,)
                inner = inner + np.where(defined, table, 0).reshape(shape) * weights[k]
                ok = ok & defined.reshape(shape)
            composite = np.where(ok[None], table[:, inner], -1)
            self.sup = locate(composite.reshape(-1, cells)).reshape((m,) * (arity + 1))

    def matches(self, alg) -> bool:
        """Whether an abstract algebra carries exactly these tables."""
        if alg.size != self.size or alg.arity != self.arity:
            return False
        if not np.array_equal(np.asarray(alg.mann, dtype=np.int64), np.stack(self.mann)):
            return False
        if self.menger:
            return np.array_equal(np.asarray(alg.superposition, dtype=np.int64), self.sup)
        return alg.superposition is None

    def zero(self):
        """The element absorbing every composition, or None."""
        if not hasattr(self, "_zero"):
            self._zero = next((z for z in range(self.size) if self._absorbs(z)), None)
        return self._zero

    def _absorbs(self, z: int) -> bool:
        if not all((t[z, :] == z).all() and (t[:, z] == z).all() for t in self.mann):
            return False
        return not self.menger or bool((self.sup[z] == z).all() and all(
            (np.take(self.sup, z, axis=k) == z).all() for k in range(1, self.arity + 1)))

    def heads(self, with_sup: bool):
        """(m, k) array: column j is one right action x -> x o_j (...)."""
        with_sup = with_sup and self.menger
        if with_sup not in self._heads:
            cols = list(self.mann)
            if with_sup:
                cols.append(self.sup.reshape(self.size, -1))
            self._heads[with_sup] = np.concatenate(cols, axis=1)
        return self._heads[with_sup]


# -- relation predicates ------------------------------------------------


def to_bool(rel) -> np.ndarray:
    """Bool matrix of a mengerkit BinRelation (rows by first coordinate)."""
    m = rel.size
    return np.array([[(row >> b) & 1 for b in range(m)] for row in rel.rows],
                    dtype=bool).reshape(m, m)


def is_transitive(r: np.ndarray) -> bool:
    step = (r.astype(np.int64) @ r.astype(np.int64)) > 0
    return not (step & ~r).any()


def is_quasi_order(r: np.ndarray) -> bool:
    return bool(r.diagonal().all()) and is_transitive(r)


def is_equivalence(r: np.ndarray) -> bool:
    return is_quasi_order(r) and bool((r == r.T).all())


def is_l_regular(r: np.ndarray, tables: Tables, with_sup: bool) -> bool:
    heads = tables.heads(with_sup)
    image = r[heads[:, None, :], heads[None, :, :]]
    return bool(image.all(axis=2)[r].all())


def is_l_cancellative(r: np.ndarray, tables: Tables, with_sup: bool) -> bool:
    heads = tables.heads(with_sup)
    image = r[heads[:, None, :], heads[None, :, :]]
    return not image.any(axis=2)[~r].any()


def is_zero_quasi_equivalence(r: np.ndarray, zero) -> bool:
    if not (r == r.T).all():
        return False
    need = np.ones(r.shape[0], dtype=bool)
    if zero is not None and not r[zero].any():
        need[zero] = False
    return bool(r.diagonal()[need].all())


def is_compatible(chi: np.ndarray, gamma: np.ndarray) -> bool:
    c, g = chi.astype(np.int64), gamma.astype(np.int64)
    return not (((c.T @ g @ c) > 0) & ~gamma).any()


def decidable(kind: str, rels: dict, tables: Tables) -> dict:
    """The conditions of a target's battery that the oracle decides from
    the tables alone, with the oracle's verdict on each."""
    menger = tables.menger
    out = {}
    chi, gamma, pi = rels.get("chi"), rels.get("gamma"), rels.get("pi")
    if kind in ("triplet", "pair_chi_gamma", "pair_chi_pi", "single_chi"):
        out["chi-quasi-order"] = is_quasi_order(chi)
        out["chi-l-regular"] = is_l_regular(chi, tables, menger)
    if kind in ("triplet", "pair_chi_gamma", "pair_gamma_pi", "single_gamma"):
        out["gamma-zero-quasi-equivalence"] = is_zero_quasi_equivalence(
            gamma, tables.zero())
        out["gamma-l-cancellative"] = is_l_cancellative(gamma, tables, menger)
    if kind in ("triplet", "pair_chi_pi"):
        out["pi-is-chi-kernel"] = bool((pi == (chi & chi.T)).all())
    if kind in ("triplet", "pair_chi_gamma"):
        out["compatibility"] = is_compatible(chi, gamma)
    if kind in ("pair_gamma_pi", "single_pi"):
        out["pi-equivalence"] = is_equivalence(pi)
        out["pi-l-regular"] = is_l_regular(pi, tables, menger)
    return out


# -- representations -------------------------------------------------------


def representation_relations(rep):
    """(chi, gamma, pi) of a sum of parts, from the assignment arrays."""
    m = rep.size
    chi = np.ones((m, m), dtype=bool)
    gamma = np.zeros((m, m), dtype=bool)
    for part in rep.parts:
        chi_p, gamma_p, _ = domain_relations(np.asarray(part.assign))
        chi &= chi_p
        gamma |= gamma_p
    return chi, gamma, chi & chi.T


def draw_equations(rep, tables: Tables, seed: str, count: int):
    """A seeded sample of homomorphism equations: ("slot", part, slot, g1,
    g2, point) or ("sup", part, head, args, point)."""
    rng = np.random.default_rng(int.from_bytes(hashlib.sha256(seed.encode()).digest()[:8]))
    m, n = tables.size, tables.arity
    sizes = np.array([len(part.universe.points) for part in rep.parts])
    parts = rng.integers(len(rep.parts), size=count)
    points = (rng.random(count) * sizes[parts]).astype(np.int64)
    sup = tables.menger & (rng.random(count) < 0.5)
    slots = rng.integers(n, size=count)
    elems = rng.integers(m, size=(count, n + 1))
    eqs = []
    for i in range(count):
        k, p, e = int(parts[i]), int(points[i]), [int(v) for v in elems[i]]
        if sup[i]:
            eqs.append(("sup", k, e[0], tuple(e[1:]), p))
        else:
            eqs.append(("slot", k, int(slots[i]), e[0], e[1], p))
    return eqs


def _point_index(part, cache):
    key = id(part.universe)
    if key not in cache:
        cache[key] = {tuple(int(c) for c in q): i
                      for i, q in enumerate(part.universe.points)}
    return cache[key]


def equation_sides(rep, tables: Tables, eq, cache):
    """(left, right) values of one equation; -1 stands for undefined.

    Slot: P(g1 o_i g2) at p against P(g1) at p with coordinate i replaced
    by P(g2)(p).  Superposition: P(g[g1..gn]) at p against P(g) at the
    tuple of the P(gk)(p).  A substituted tuple outside the universe is
    outside every domain.
    """
    part = rep.parts[eq[1]]
    assign = part.assign
    point = tuple(int(c) for c in part.universe.points[eq[-1]])
    index = _point_index(part, cache)
    p = eq[-1]
    if eq[0] == "slot":
        _, _, slot, g1, g2, _ = eq
        left = int(assign[tables.mann[slot][g1, g2], p])
        v = int(assign[g2, p])
        landed = None if v < 0 else index.get(point[:slot] + (v,) + point[slot + 1:])
    else:
        _, _, head, args, _ = eq
        left = int(assign[tables.sup[(head,) + args], p])
        values = tuple(int(assign[g, p]) for g in args)
        landed = None if min(values) < 0 else index.get(values)
        g1 = head
    right = -1 if landed is None else int(assign[g1, landed])
    return left, right


def failed_equations(rep, tables: Tables, eqs) -> list:
    cache = {}
    bad = []
    for eq in eqs:
        left, right = equation_sides(rep, tables, eq, cache)
        if left != right:
            bad.append(eq)
    return bad
