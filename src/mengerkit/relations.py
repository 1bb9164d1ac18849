"""Relation predicates and closure operators over an abstract algebra.

The compatibility conditions come in two strengths.  On menger-flavor
algebras the left-compatibility and cancellation laws quantify over both
composition families and negativity includes the superposition clause; on
plain flavor only the slot-composition clauses apply.  Word-quantified
clauses are decided exactly on reachable word states.

``seed_relations`` produces the two base relations whose containment
characterizes v-negativity for quasi-orders: the translation quasi-order
(first component, menger only) and the composite-component relation.  The
closure operators chain them, per kind, into the least l-regular and
v-negative quasi-order containing a given equivalence (or nothing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (EMPTY, AbstractAlgebra, Violation, _first, right_translations,
                      translation_classes)
from .bitrel import BinRelation, _product
from .errors import InputError
from .tables import block_rows

CLOSURE_KINDS = ("chi_pi", "chi0", "chi_pi_bullet", "chi0_bullet")
WORD_SYSTEMS = ("A", "B", "C", "A_bullet", "B_bullet", "C_bullet")


def _check_sized(r: BinRelation, alg: AbstractAlgebra):
    if r.size != alg.size:
        raise InputError(f"relation size {r.size} does not match carrier {alg.size}")


def _translated_violation(r: BinRelation, alg: AbstractAlgebra, related: bool,
                          law: str, details: tuple[str, str]) -> Violation | None:
    """First (x, y, translation) with x r y == related but t(x) r t(y) !=
    related, over the pairs in row-major order and the translations in
    table order; details are for slot and superposition translations.

    The law depends on a translation only through its map, so it is
    decided once per class of equal columns (translation_classes), for
    blocks of rows x (block_rows): a row x holds the gathered rows, the
    held entries and their comparison, one bool per (y, class) each; the
    landing index is kept with the class table.  Classes are numbered by
    first occurrence, so the first failing class of a pair starts at the
    pair's first failing column.  The verdict is kept with the algebra
    under (law, r)."""
    _check_sized(r, alg)
    return alg.derived((law, r), lambda: _translation_scan(r, alg, related, law, details))


def _translation_scan(r: BinRelation, alg: AbstractAlgebra, related: bool,
                      law: str, details: tuple[str, str]) -> Violation | None:
    R = r.matrix
    reps, classes, landing = translation_classes(alg)
    m, count = classes.shape
    # images[x, c * m + j] = R[t_c(x), j], so images[x, landing[y, c]] = R[t_c(x), t_c(y)]
    rows = block_rows(3 * m * count)
    for start in range(0, m, rows):
        images = R[classes[start : start + rows]].reshape(-1, count * m)
        held = images.take(landing, axis=1)  # axes (x, y, class)
        before = R[start : start + rows, :, None]
        where = _first(before > held if related else before < held)
        if where is not None:
            break
    else:
        return None
    x, y, c = where
    x, column, slots = start + x, int(reps[c]), alg.arity * alg.size
    if column < slots:
        return Violation(f"{law}-slot:{column // alg.size + 1}",
                         (x, y, column % alg.size), details[0])
    _, args = right_translations(alg)
    return Violation(f"{law}-superposition",
                     (x, y, tuple(int(z) for z in args[column - slots])), details[1])


def is_zero_quasi_equivalence(r: BinRelation, alg: AbstractAlgebra) -> Violation | None:
    """Symmetric, and reflexive away from the zero: fully reflexive when
    the zero occurs as a first coordinate (or when there is no zero).
    The verdict is kept with the algebra."""
    _check_sized(r, alg)
    return alg.derived(("zero quasi-equivalence", r), lambda: _zero_quasi_scan(r, alg))


def _zero_quasi_scan(r: BinRelation, alg: AbstractAlgebra) -> Violation | None:
    R = r.matrix
    if not r.is_symmetric():
        return Violation("symmetry", _first(R & ~R.T), "pair present, flip missing")
    if r.is_reflexive():
        return None
    missing = ~R.diagonal()
    zero = alg.zero_element()
    if zero is not None and not R[zero].any():
        missing[zero] = False
    where = _first(missing)
    if where is not None:
        return Violation("reflexivity", where, "diagonal pair missing")
    return None


def is_l_regular(r: BinRelation, alg: AbstractAlgebra) -> Violation | None:
    """Right-composing both sides of a related pair must preserve it."""
    return _translated_violation(r, alg, True, "l-regular", (
        "x r y but not x *i z r y *i z", "x r y but not x[z..] r y[z..]"))


def is_l_cancellative(r: BinRelation, alg: AbstractAlgebra) -> Violation | None:
    """Related composites must come from related heads."""
    return _translated_violation(r, alg, False, "l-cancellative", (
        "x *i z r y *i z but not x r y", "x[z..] r y[z..] but not x r y"))


def is_v_negative(r: BinRelation, alg: AbstractAlgebra) -> Violation | None:
    """Every word result must sit below each of the word's slot occupants;
    menger flavor also places superposition results below each argument.
    The verdict is kept with the algebra."""
    _check_sized(r, alg)
    return alg.derived(("v-negative", r), lambda: _v_negative_scan(r, alg))


def _v_negative_scan(r: BinRelation, alg: AbstractAlgebra) -> Violation | None:
    if _least_v_negative(alg).issubset(r):
        return None
    # the first witness, in the order the clauses are stated
    n, m = alg.arity, alg.size
    R = r.matrix
    space = alg.states()
    # axes (state, slot, x); an untouched slot holds no occupant
    below = R[space.actions[:, None, :], space.slots[:, :, None]]
    where = _first(~below & (space.slots != EMPTY)[:, :, None])
    if where is not None:
        s, j, x = where
        return Violation("v-negative-word", (space.word(s), j + 1, x),
                         "x . word not below the slot occupant")
    # so the missing pair is x[ys] below y_i, on menger flavor
    T, args = right_translations(alg)
    x, k, i = _first(~R[T[:, n * m :, None], args])  # axes (x, ys, i)
    return Violation("v-negative-superposition", (x, tuple(int(y) for y in args[k]), i + 1),
                     "x[y..] not below y_i")


def _word_pairs(alg: AbstractAlgebra) -> BinRelation:
    """Each word result paired with each occupant, kept with the algebra:
    the composite-component relation of plain flavor and of bullet kinds."""
    def compute():
        space = alg.states()
        pairs = np.zeros((alg.size, alg.size), dtype=bool)
        s, j = np.nonzero(space.slots != EMPTY)
        pairs[space.actions[s], space.slots[s, j][:, None]] = True
        return BinRelation.from_array(pairs)

    return alg.derived("word pairs", compute)


def _least_v_negative(alg: AbstractAlgebra) -> BinRelation:
    """Word results below occupants and, on menger flavor, x[ys] below
    each y_i: a relation is v-negative exactly when it contains these."""
    def compute():
        below = _word_pairs(alg).matrix.copy()
        if alg.flavor == "menger":
            T, args = right_translations(alg)
            below[T[:, alg.arity * alg.size :][:, :, None], args] = True
        return BinRelation.from_array(below)

    return alg.derived("v-negative", compute)


def seed_relations(alg: AbstractAlgebra):
    """(translation quasi-order or None, composite-component relation).

    The first relates t(g) to g for every inner translation t; it is
    computed as reachability under one-step wrappings, which avoids
    enumerating the translation maps themselves.  The second relates the
    result of a word applied to any x to each slot occupant of the word,
    closed under a common superposition suffix in menger flavor.
    """
    return alg.derived("seeds", lambda: _seed_relations(alg))


def _seed_relations(alg: AbstractAlgebra):
    if alg.flavor == "plain":
        return None, _word_pairs(alg)
    comp = _word_pairs(alg).matrix.copy()
    T, args = right_translations(alg)
    results = T[:, alg.arity * alg.size :]  # results[a, k] = a[args[k]]
    u, v = np.nonzero(comp)
    comp[results[u], results[v]] = True  # a common superposition suffix
    # one-step wrappings: each argument x of a[args[k]] goes to a[args[k]]
    one_step = np.zeros_like(comp)
    one_step[args, results[:, :, None]] = True
    reach = BinRelation.from_array(one_step).reflexive_closure().transitive_closure()
    return reach.transpose(), BinRelation.from_array(comp)


def _one_step_relation(alg: AbstractAlgebra, kind: str,
                       pi: BinRelation | None) -> BinRelation:
    if kind.endswith("bullet"):  # the seeds of the plain reduct
        r = _word_pairs(alg).reflexive_closure()
    else:
        trans, comp = seed_relations(alg)
        r = trans.then(comp.reflexive_closure())
    if kind in ("chi_pi", "chi_pi_bullet"):
        r = pi.then(r)
    return r


def build_closure(alg: AbstractAlgebra, kind: str,
                  pi: BinRelation | None = None) -> BinRelation:
    """Least l-regular, v-negative quasi-order containing ``pi`` (for the
    pi kinds) or nothing, as the transitive closure of the one-step chain.

    Non-bullet kinds require menger flavor; bullet kinds act on the plain
    reduct.  The pi kinds require pi to be an l-regular equivalence.  The
    closure is kept with the algebra under (kind, pi), pi None for the
    other kinds.
    """
    if kind not in CLOSURE_KINDS:
        raise InputError(f"unknown closure kind {kind!r}")
    if not kind.endswith("bullet") and alg.flavor != "menger":
        raise InputError(f"closure kind {kind!r} requires menger flavor")
    if kind not in ("chi_pi", "chi_pi_bullet"):
        pi = None
    elif pi is None:
        raise InputError(f"closure kind {kind!r} requires pi")
    else:
        _check_sized(pi, alg)
    return alg.derived((kind, pi), lambda: _closure(alg, kind, pi))


def _closure(alg: AbstractAlgebra, kind: str, pi: BinRelation | None) -> BinRelation:
    if pi is not None:
        if not pi.is_equivalence():
            raise InputError("pi must be an equivalence")
        check_alg = alg.plain_reduct() if kind.endswith("bullet") else alg
        if is_l_regular(pi, check_alg) is not None:
            raise InputError("pi must be l-regular")
    return _one_step_relation(alg, kind, pi).transitive_closure()


def check_compatibility(chi: BinRelation, gamma: BinRelation) -> Violation | None:
    """Overlapping elements must keep overlapping above themselves:
    h1 gamma h2 with h1 chi g1 and h2 chi g2 forces g1 gamma g2, that is
    chi^T ; gamma ; chi within gamma.  The witness is the least failing
    (h1, h2, g1, g2) in lexicographic order."""
    if chi.size != gamma.size:
        raise InputError(f"relation size mismatch: {chi.size} vs {gamma.size}")
    X, G = chi.matrix, gamma.matrix
    escapes = _product(X, ~G.T)  # [h2, g1]: some g2 above h2 misses g1
    # [h1, h2]: a gamma pair with some g1 above h1 that escapes h2, which is
    # empty exactly when chi^T ; gamma ; chi lies within gamma
    where = _first(G & _product(X, escapes.T))
    if where is None:
        return None
    h1, h2 = where
    (g1,) = _first(X[h1] & escapes[h2])
    (g2,) = _first(X[h2] & ~G[g1])
    return Violation("compatibility", (h1, h2, g1, g2),
                     "premise holds, g1 gamma g2 missing")


@dataclass(frozen=True)
class WordSystemViolation:
    system: str
    n: int
    m: int | None
    chain: tuple
    detail: str


def _find_path(r: BinRelation, powers: list[BinRelation], start: int,
               end: int, length: int) -> list[int]:
    """The least chain of ``length`` r-steps from start to end, step by
    step; assumes one exists."""
    path = [start]
    for remaining in range(length - 1, 0, -1):
        (mid,) = _first(r.matrix[path[-1]] & powers[remaining].matrix[:, end])
        path.append(mid)
    return path + [end] if length else path


def check_word_system(alg: AbstractAlgebra, system: str, n_bound: int,
                      m_bound: int, pi: BinRelation | None = None,
                      gamma: BinRelation | None = None) -> WordSystemViolation | None:
    """Truncated chain systems over the one-step relation of the matching
    closure kind.

    A-systems: a one-step pair closed back by a chain must already be
    pi-related.  B-systems: gamma on chain heads propagates to the chain
    ends.  C-systems conclude from the first chain's head, exactly as the
    source systems are stated (their conclusion is asymmetric to B's).
    """
    if system not in WORD_SYSTEMS:
        raise InputError(f"unknown word system {system!r}")
    bullet = system.endswith("bullet")
    if not bullet and alg.flavor != "menger":
        raise InputError(f"word system {system!r} requires menger flavor")
    base = system[0]
    if base in ("A", "B"):
        if pi is None:
            raise InputError(f"word system {system!r} requires pi")
        kind = "chi_pi_bullet" if bullet else "chi_pi"
    else:
        kind = "chi0_bullet" if bullet else "chi0"
    if base in ("B", "C") and gamma is None:
        raise InputError(f"word system {system!r} requires gamma")
    if n_bound < 1 or m_bound < 1:
        raise InputError(f"word-system bounds must be at least 1, got {n_bound},{m_bound}")

    r = _one_step_relation(alg, kind, pi)
    powers = [BinRelation.diagonal(alg.size)]
    for _ in range(max(n_bound, m_bound)):
        powers.append(powers[-1].then(r))

    if base == "A":
        for nn in range(1, n_bound + 1):
            where = _first(r.matrix & powers[nn - 1].matrix.T & ~pi.matrix)
            if where is not None:
                x0, x1 = where
                chain = tuple(_find_path(r, powers, x0, x1, 1)
                              + _find_path(r, powers, x1, x0, nn - 1)[1:])
                return WordSystemViolation(system, nn, None, chain,
                                           "cycle pair not pi-related")
        return None

    G = gamma.matrix
    for nn in range(1, n_bound + 1):
        down = powers[nn]
        D = down.matrix
        for mm in range(1, m_bound + 1):
            across = powers[mm]
            A = across.matrix
            if base == "B":
                # conclusion pairs the two chain ends
                premise = down.transpose().then(gamma).then(across)
                where = _first(premise.matrix & ~G)
                if where is not None:
                    xn, xlast = where
                    x0, xnp1 = _first(D[:, xn, None] & G & A[None, :, xlast])
                    detail = "gamma fails on chain ends"
            else:
                # conclusion pairs the first chain's head with the second end
                via = gamma.then(across)
                where = _first(D.any(axis=1)[:, None] & via.matrix & ~G)
                if where is not None:
                    x0, xlast = where
                    (xn,), (xnp1,) = _first(D[x0]), _first(G[x0] & A[:, xlast])
                    detail = "gamma fails from first chain head"
            if where is not None:
                chain = (tuple(_find_path(r, powers, x0, xn, nn)),
                         tuple(_find_path(r, powers, xnp1, xlast, mm)))
                return WordSystemViolation(
                    system, nn, mm, (x0, xn, xnp1, xlast) + chain, detail)
    return None
