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
from itertools import product

from .algebra import EMPTY, AbstractAlgebra, Violation
from .bitrel import BinRelation
from .errors import InputError

CLOSURE_KINDS = ("chi_pi", "chi0", "chi_pi_bullet", "chi0_bullet")
WORD_SYSTEMS = ("A", "B", "C", "A_bullet", "B_bullet", "C_bullet")


def _check_sized(r: BinRelation, alg: AbstractAlgebra):
    if r.size != alg.size:
        raise InputError(f"relation size {r.size} does not match carrier {alg.size}")


def is_zero_quasi_equivalence(r: BinRelation, alg: AbstractAlgebra) -> Violation | None:
    """Symmetric, and reflexive away from the zero: fully reflexive when
    the zero occurs as a first coordinate (or when there is no zero)."""
    _check_sized(r, alg)
    for a in range(r.size):
        for b in range(r.size):
            if r.contains(a, b) and not r.contains(b, a):
                return Violation("symmetry", (a, b), "pair present, flip missing")
    zero = alg.zero_element()
    if zero is not None and not (r.pr1() >> zero & 1):
        exempt = zero
    else:
        exempt = None
    for g in range(r.size):
        if g == exempt:
            continue
        if not r.contains(g, g):
            return Violation("reflexivity", (g,), "diagonal pair missing")
    return None


def is_l_regular(r: BinRelation, alg: AbstractAlgebra) -> Violation | None:
    """Right-composing both sides of a related pair must preserve it."""
    _check_sized(r, alg)
    for x, y in r.pairs():
        for slot in range(alg.arity):
            table = alg.mann[slot]
            for z in range(alg.size):
                if not r.contains(table[x][z], table[y][z]):
                    return Violation(f"l-regular-slot:{slot + 1}", (x, y, z),
                                     "x r y but not x *i z r y *i z")
        if alg.flavor == "menger":
            for zs in product(range(alg.size), repeat=alg.arity):
                if not r.contains(alg.sup_at(x, zs), alg.sup_at(y, zs)):
                    return Violation("l-regular-superposition", (x, y, zs),
                                     "x r y but not x[z..] r y[z..]")
    return None


def is_l_cancellative(r: BinRelation, alg: AbstractAlgebra) -> Violation | None:
    """Related composites must come from related heads."""
    _check_sized(r, alg)
    m = alg.size
    for x in range(m):
        for y in range(m):
            if r.contains(x, y):
                continue
            for slot in range(alg.arity):
                table = alg.mann[slot]
                for z in range(m):
                    if r.contains(table[x][z], table[y][z]):
                        return Violation(f"l-cancellative-slot:{slot + 1}", (x, y, z),
                                         "x *i z r y *i z but not x r y")
            if alg.flavor == "menger":
                for zs in product(range(m), repeat=alg.arity):
                    if r.contains(alg.sup_at(x, zs), alg.sup_at(y, zs)):
                        return Violation("l-cancellative-superposition", (x, y, zs),
                                         "x[z..] r y[z..] but not x r y")
    return None


def is_v_negative(r: BinRelation, alg: AbstractAlgebra) -> Violation | None:
    """Every word result must sit below each of the word's slot occupants;
    menger flavor also places superposition results below each argument."""
    _check_sized(r, alg)
    for state in alg.states().states:
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
                v = alg.sup_at(x, ys)
                for i, y in enumerate(ys):
                    if not r.contains(v, y):
                        return Violation("v-negative-superposition", (x, ys, i + 1),
                                         "x[y..] not below y_i")
    return None


def _one_step_translation_maps(alg: AbstractAlgebra) -> list[tuple[int, ...]]:
    m = alg.size
    result = set()
    for a in range(m):
        for slot in range(alg.arity):
            for rest in product(range(m), repeat=alg.arity - 1):
                entry = tuple(
                    alg.sup_at(a, rest[:slot] + (x,) + rest[slot:])
                    for x in range(m)
                )
                result.add(entry)
    return sorted(result)


def seed_relations(alg: AbstractAlgebra, as_plain: bool = False):
    """(translation quasi-order or None, composite-component relation).

    The first relates t(g) to g for every inner translation t; it is
    computed as reachability under one-step wrappings, which avoids
    enumerating the translation maps themselves.  The second relates the
    result of a word applied to any x to each slot occupant of the word,
    closed under a common superposition suffix in menger flavor.
    """
    plain = as_plain or alg.flavor == "plain"
    return alg.derived(("seeds", plain), lambda: _seed_relations(alg, plain))


def _seed_relations(alg: AbstractAlgebra, plain: bool):
    m = alg.size

    comp_pairs = set()
    for state in alg.states().states:
        for occupant in state.slots:
            if occupant == EMPTY:
                continue
            for x in range(m):
                comp_pairs.add((state.action[x], occupant))
    if not plain:
        for u, v in list(comp_pairs):
            for zs in product(range(m), repeat=alg.arity):
                comp_pairs.add((alg.sup_at(u, zs), alg.sup_at(v, zs)))
    comp = BinRelation.from_pairs(m, comp_pairs)

    trans = None
    if not plain:
        one_step = BinRelation.from_pairs(
            m,
            ((x, step[x]) for step in _one_step_translation_maps(alg)
             for x in range(m)),
        )
        reach = one_step.reflexive_closure().transitive_closure()
        trans = reach.transpose()
    return trans, comp


def _one_step_relation(alg: AbstractAlgebra, kind: str,
                       pi: BinRelation | None) -> BinRelation:
    bullet = kind.endswith("bullet")
    trans, comp = seed_relations(alg, as_plain=bullet)
    r = comp.reflexive_closure()
    if not bullet:
        r = trans.then(r)
    if kind in ("chi_pi", "chi_pi_bullet"):
        r = pi.then(r)
    return r


def build_closure(alg: AbstractAlgebra, kind: str,
                  pi: BinRelation | None = None) -> BinRelation:
    """Least l-regular, v-negative quasi-order containing ``pi`` (for the
    pi kinds) or nothing, as the transitive closure of the one-step chain.

    Non-bullet kinds require menger flavor; bullet kinds act on the plain
    reduct.  The pi kinds require pi to be an l-regular equivalence.
    """
    if kind not in CLOSURE_KINDS:
        raise InputError(f"unknown closure kind {kind!r}")
    if not kind.endswith("bullet") and alg.flavor != "menger":
        raise InputError(f"closure kind {kind!r} requires menger flavor")
    if kind in ("chi_pi", "chi_pi_bullet"):
        if pi is None:
            raise InputError(f"closure kind {kind!r} requires pi")
        _check_sized(pi, alg)
        if not pi.is_equivalence():
            raise InputError("pi must be an equivalence")
        check_alg = alg.plain_reduct() if kind.endswith("bullet") else alg
        if is_l_regular(pi, check_alg) is not None:
            raise InputError("pi must be l-regular")
    return _one_step_relation(alg, kind, pi).transitive_closure()


def check_compatibility(chi: BinRelation, gamma: BinRelation) -> Violation | None:
    """Overlapping elements must keep overlapping above themselves:
    h1 gamma h2 with h1 chi g1 and h2 chi g2 forces g1 gamma g2."""
    if chi.size != gamma.size:
        raise InputError(f"relation size mismatch: {chi.size} vs {gamma.size}")
    for h1 in range(gamma.size):
        row_h1 = gamma.rows[h1]
        if not row_h1:
            continue
        for h2 in range(gamma.size):
            if not (row_h1 >> h2 & 1):
                continue
            for g1 in range(chi.size):
                if not chi.contains(h1, g1):
                    continue
                missing = chi.rows[h2] & ~gamma.rows[g1]
                if missing:
                    g2 = (missing & -missing).bit_length() - 1
                    return Violation("compatibility", (h1, h2, g1, g2),
                                     "premise holds, g1 gamma g2 missing")
    return None


@dataclass(frozen=True)
class WordSystemViolation:
    system: str
    n: int
    m: int | None
    chain: tuple
    detail: str


def _find_path(r: BinRelation, powers: list[BinRelation], start: int,
               end: int, length: int) -> list[int]:
    """A chain of ``length`` r-steps from start to end; assumes one exists."""
    path = [start]
    current = start
    for remaining in range(length, 0, -1):
        if remaining == 1:
            path.append(end)
            break
        for mid in range(r.size):
            if r.contains(current, mid) and powers[remaining - 1].contains(mid, end):
                path.append(mid)
                current = mid
                break
        else:
            raise AssertionError("path reconstruction failed")
    return path


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

    r = _one_step_relation(alg, kind, pi)
    powers = [BinRelation.diagonal(alg.size)]
    for _ in range(max(n_bound, m_bound)):
        powers.append(powers[-1].then(r))

    if base == "A":
        for nn in range(1, n_bound + 1):
            back = powers[nn - 1]
            for x0 in range(alg.size):
                for x1 in range(alg.size):
                    if r.contains(x0, x1) and back.contains(x1, x0) \
                            and not pi.contains(x0, x1):
                        chain = tuple(_find_path(r, powers, x0, x1, 1)
                                      + _find_path(r, powers, x1, x0, nn - 1)[1:])
                        return WordSystemViolation(
                            system, nn, None, chain,
                            "cycle pair not pi-related")
        return None

    for nn in range(1, n_bound + 1):
        down = powers[nn]
        for mm in range(1, m_bound + 1):
            across = powers[mm]
            premise = down.transpose().then(gamma).then(across)
            if base == "B":
                # conclusion pairs the two chain ends
                for xn in range(alg.size):
                    bad = premise.rows[xn] & ~gamma.rows[xn]
                    if bad:
                        xlast = (bad & -bad).bit_length() - 1
                        x0, xnp1 = _premise_witness(down, gamma, across, xn, xlast)
                        chain = (tuple(_find_path(r, powers, x0, xn, nn)),
                                 tuple(_find_path(r, powers, xnp1, xlast, mm)))
                        return WordSystemViolation(
                            system, nn, mm, (x0, xn, xnp1, xlast) + chain,
                            "gamma fails on chain ends")
            else:
                # conclusion pairs the first chain's head with the second end
                via = gamma.then(across)
                for x0 in range(alg.size):
                    if not down.rows[x0]:
                        continue
                    bad = via.rows[x0] & ~gamma.rows[x0]
                    if bad:
                        xlast = (bad & -bad).bit_length() - 1
                        xn = (down.rows[x0] & -down.rows[x0]).bit_length() - 1
                        for xnp1 in range(alg.size):
                            if gamma.contains(x0, xnp1) and across.contains(xnp1, xlast):
                                break
                        chain = (tuple(_find_path(r, powers, x0, xn, nn)),
                                 tuple(_find_path(r, powers, xnp1, xlast, mm)))
                        return WordSystemViolation(
                            system, nn, mm, (x0, xn, xnp1, xlast) + chain,
                            "gamma fails from first chain head")
    return None


def _premise_witness(down: BinRelation, gamma: BinRelation, across: BinRelation,
                     xn: int, xlast: int) -> tuple[int, int]:
    for x0 in range(down.size):
        if not down.contains(x0, xn):
            continue
        for xnp1 in range(down.size):
            if gamma.contains(x0, xnp1) and across.contains(xnp1, xlast):
                return x0, xnp1
    raise AssertionError("premise witness not found")
