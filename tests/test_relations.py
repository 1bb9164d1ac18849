from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from mengerkit import (
    AbstractAlgebra,
    BinRelation,
    InputError,
    abstract_from_concrete,
    build_closure,
    check_compatibility,
    check_word_system,
    domain_relations,
    enumerate_relations,
    is_l_cancellative,
    is_l_regular,
    is_v_negative,
    is_zero_quasi_equivalence,
    seed_relations,
    word_system_crosscheck,
)
from mengerkit.relations import WORD_SYSTEMS, _one_step_relation
from oracles import (
    apply_word,
    compatibility_by_bits,
    inner_translations,
    slot_occupants,
    sup_at,
    word_system_by_bits,
    zero_quasi_equivalence_by_bits,
)


def rel(size, pairs):
    return BinRelation.from_pairs(size, pairs)


# -- zero-quasi-equivalence -------------------------------------------------


def test_zero_quasi_equivalence_zero_free_row(zero_proj):
    # zero absent from the first projection: reflexivity required off-zero only
    assert is_zero_quasi_equivalence(rel(2, [(1, 1)]), zero_proj) is None


def test_zero_quasi_equivalence_needs_full_reflexivity(zero_proj):
    r = rel(2, [(1, 1), (0, 1), (1, 0)])
    violation = is_zero_quasi_equivalence(r, zero_proj)
    assert violation is not None and violation.law == "reflexivity"
    assert violation.witness == (0,)


def test_zero_quasi_equivalence_one_element(one_elem):
    assert is_zero_quasi_equivalence(rel(1, [(0, 0)]), one_elem) is None


def test_zero_quasi_equivalence_requires_symmetry(zero_proj):
    violation = is_zero_quasi_equivalence(rel(2, [(1, 1), (0, 1)]), zero_proj)
    assert violation is not None and violation.law == "symmetry"


# -- l-regularity ----------------------------------------------------------


def test_any_relation_l_regular_on_one_element(one_elem):
    for mask in range(2):
        r = BinRelation(1, (mask,))
        assert is_l_regular(r, one_elem) is None


def test_l_regular_zero_below(zero_proj):
    r = rel(2, [(0, 1), (0, 0), (1, 1)])
    assert is_l_regular(r, zero_proj) is None


def test_l_regular_catches_violation_and_reversed_scan_agrees():
    # composing with 2 swaps 0 and 1, breaking the one-way pair (0, 1)
    table = ((0, 0, 1), (1, 1, 0), (2, 2, 2))
    alg = AbstractAlgebra(2, 3, (table, table), None, None, "plain")
    r = rel(3, [(0, 1), (0, 0), (1, 1), (2, 2)])
    violation = is_l_regular(r, alg)

    def reversed_scan():
        # independent rescan with the loop order flipped
        for slot in reversed(range(alg.arity)):
            for z in reversed(range(alg.size)):
                for x, y in r.pairs():
                    if not r.contains(alg.mann[slot][x][z], alg.mann[slot][y][z]):
                        return (x, y, z)
        return None

    if violation is None:
        assert reversed_scan() is None
    else:
        assert reversed_scan() is not None
        x, y, z = violation.witness
        slot = int(violation.law.split(":")[1]) - 1
        assert r.contains(x, y)
        assert not r.contains(alg.mann[slot][x][z], alg.mann[slot][y][z])
    assert violation is not None


# -- l-cancellativity -------------------------------------------------------


def test_full_relation_is_l_cancellative(zero_proj):
    assert is_l_cancellative(BinRelation.full(2), zero_proj) is None


def test_transported_overlap_is_l_cancellative(zero_proj_concrete, zero_proj):
    from mengerkit import domain_relations
    _, gamma, _ = domain_relations(zero_proj_concrete)
    assert is_l_cancellative(gamma, zero_proj) is None


def test_l_cancellative_scan(zero_proj):
    assert is_l_cancellative(rel(2, [(1, 1)]), zero_proj) is None
    # 1 *1 0 = 0 *1 0 = 0 and (0,0) is present, so (1,0) cannot be missing
    violation = is_l_cancellative(rel(2, [(0, 0), (1, 1), (0, 1)]), zero_proj)
    assert violation is not None
    x, y, z = violation.witness[:3]
    assert (x, y) == (1, 0)


# -- v-negativity ------------------------------------------------------------


def test_v_negative_least_order(zero_proj):
    assert is_v_negative(rel(2, [(0, 0), (0, 1), (1, 1)]), zero_proj) is None


def test_v_negative_diagonal_fails(zero_proj):
    violation = is_v_negative(BinRelation.diagonal(2), zero_proj)
    assert violation is not None and violation.law == "v-negative-word"
    word, slot_1based, x = violation.witness
    occ = slot_occupants(zero_proj, word)[slot_1based - 1]
    assert not BinRelation.diagonal(2).contains(
        apply_word(zero_proj, x, word), occ)


def test_v_negative_reflexive_on_one_element(one_elem):
    assert is_v_negative(BinRelation.diagonal(1), one_elem) is None


# -- translations and seed relations ----------------------------------------


def test_translations_one_element(one_elem):
    assert inner_translations(one_elem).maps == ((0,),)


def test_translations_zero_proj(zero_proj):
    assert inner_translations(zero_proj).maps == ((0, 0), (0, 1))


def test_translations_contain_identity(menger_battery):
    for conc in menger_battery[:10]:
        alg = abstract_from_concrete(conc)
        identity = tuple(range(alg.size))
        assert identity in inner_translations(alg).maps


def test_translations_require_menger(zero_proj_plain):
    with pytest.raises(InputError):
        inner_translations(zero_proj_plain)


def test_seed_relations_zero_proj(zero_proj):
    trans, comp = seed_relations(zero_proj)
    assert sorted(trans.pairs()) == [(0, 0), (0, 1), (1, 1)]
    assert sorted(comp.pairs()) == [(0, 0), (0, 1), (1, 1)]


def test_seed_relations_one_element(one_elem):
    trans, comp = seed_relations(one_elem)
    assert sorted(trans.pairs()) == [(0, 0)]
    assert sorted(comp.pairs()) == [(0, 0)]


def test_plain_seed_has_no_translation_order(zero_proj_plain):
    trans, comp = seed_relations(zero_proj_plain)
    assert trans is None
    assert sorted(comp.pairs()) == [(0, 0), (0, 1), (1, 1)]


def test_translation_order_matches_map_enumeration(menger_battery):
    for conc in menger_battery[:15]:
        alg = abstract_from_concrete(conc)
        trans, _ = seed_relations(alg)
        expected = {
            (t[g], g)
            for t in inner_translations(alg).maps
            for g in range(alg.size)
        }
        assert set(trans.pairs()) == expected


def test_seed_relations_are_l_regular_and_ordered(menger_battery, plain_battery):
    for conc in menger_battery[:15] + plain_battery[:15]:
        alg = abstract_from_concrete(conc)
        trans, comp = seed_relations(alg)
        assert is_l_regular(comp, alg) is None
        if trans is not None:
            assert is_l_regular(trans, alg) is None
            assert trans.is_quasi_order()
            assert BinRelation.diagonal(alg.size).issubset(trans)


def test_v_negative_iff_contains_seeds_for_quasi_orders(small_battery):
    for conc in small_battery[:20]:
        alg = abstract_from_concrete(conc)
        trans, comp = seed_relations(alg)
        seeds = comp if trans is None else comp | trans
        for r in enumerate_relations(alg.size, "quasi_orders"):
            negative = is_v_negative(r, alg) is None
            assert negative == seeds.issubset(r)


# -- closures ------------------------------------------------------------


def test_chi0_closure_zero_proj(zero_proj):
    closure = build_closure(zero_proj, "chi0")
    assert sorted(closure.pairs()) == [(0, 0), (0, 1), (1, 1)]


def test_any_kind_on_one_element(one_elem):
    diag = BinRelation.diagonal(1)
    assert build_closure(one_elem, "chi0") == diag
    assert build_closure(one_elem, "chi_pi", diag) == diag


def test_chi_pi_with_diagonal_equals_chi0(zero_proj):
    diag = BinRelation.diagonal(2)
    assert build_closure(zero_proj, "chi_pi", diag) == build_closure(zero_proj, "chi0")


def test_closure_preconditions(zero_proj, zero_proj_plain):
    with pytest.raises(InputError):
        build_closure(zero_proj_plain, "chi0")  # menger kind on plain flavor
    with pytest.raises(InputError):
        build_closure(zero_proj, "chi_pi")  # missing pi
    with pytest.raises(InputError):
        build_closure(zero_proj, "chi_pi", rel(2, [(0, 1)]))  # not an equivalence


def test_bullet_closures_on_plain(zero_proj_plain):
    closure = build_closure(zero_proj_plain, "chi0_bullet")
    assert sorted(closure.pairs()) == [(0, 0), (0, 1), (1, 1)]
    diag = BinRelation.diagonal(2)
    assert build_closure(zero_proj_plain, "chi_pi_bullet", diag) == closure


def test_closure_is_least_and_contains_inputs(small_battery):
    for conc in small_battery[:16]:
        alg = abstract_from_concrete(conc)
        bullet = alg.flavor == "plain"
        kind_pi = "chi_pi_bullet" if bullet else "chi_pi"
        kind_0 = "chi0_bullet" if bullet else "chi0"
        least = build_closure(alg, kind_0)
        trans, comp = seed_relations(alg)
        assert comp.issubset(least)
        if trans is not None:
            assert trans.issubset(least)
        for pi in enumerate_relations(alg.size, "l_regular_equivalences", alg):
            closure = build_closure(alg, kind_pi, pi)
            assert pi.issubset(closure)
            assert least.issubset(closure)
            assert closure.is_quasi_order()
            assert is_l_regular(closure, alg) is None
            assert is_v_negative(closure, alg) is None


# -- compatibility ------------------------------------------------------------


def test_compatibility_full_gamma(zero_proj):
    assert check_compatibility(build_closure(zero_proj, "chi0"),
                               BinRelation.full(2)) is None


def test_compatibility_small_gamma(zero_proj):
    chi = build_closure(zero_proj, "chi_pi", BinRelation.diagonal(2))
    assert check_compatibility(chi, rel(2, [(1, 1)])) is None


def test_compatibility_counterexample(zero_proj):
    chi = build_closure(zero_proj, "chi_pi", BinRelation.diagonal(2))
    gamma = rel(2, [(0, 0)])
    violation = check_compatibility(chi, gamma)
    assert violation is not None
    h1, h2, g1, g2 = violation.witness
    assert gamma.contains(h1, h2)
    assert chi.contains(h1, g1) and chi.contains(h2, g2)
    assert not gamma.contains(g1, g2)


def test_compatibility_witness_is_least_quadruple():
    # h1 = 0 fails only at (g1, g2) = (2, 3), while the first failing pair
    # of chi^T ; gamma ; chi in row-major order, (0, 1), comes from h1 = 1
    chi = rel(4, [(0, 2), (0, 3), (1, 0), (1, 1)])
    gamma = rel(4, [(0, 0), (1, 1), (2, 2), (3, 3), (3, 2)])
    failing = chi.transpose().then(gamma).then(chi).matrix & ~gamma.matrix
    assert next(zip(*np.nonzero(failing))) == (0, 1)
    violation = check_compatibility(chi, gamma)
    assert violation.witness == (0, 0, 2, 3)
    assert violation == compatibility_by_bits(chi, gamma)


def random_relation(seed: int, m: int, density: float) -> BinRelation:
    return BinRelation.from_array(np.random.default_rng(seed).random((m, m)) < density)


DENSITIES = st.sampled_from([0.05, 0.3, 0.7, 0.95])


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([1, 2, 3, 5, 12, 70]), st.integers(0, 2**32 - 1), DENSITIES, DENSITIES)
def test_compatibility_matches_bits(m, seed, chi_density, gamma_density):
    chi = random_relation(seed, m, chi_density).reflexive_closure()
    gamma = random_relation(seed + 1, m, gamma_density)
    assert check_compatibility(chi, gamma) == compatibility_by_bits(chi, gamma)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 149), st.integers(0, 2**32 - 1), DENSITIES, st.booleans())
def test_zero_quasi_equivalence_matches_bits(menger_battery, plain_battery,
                                             index, seed, density, symmetric):
    conc = (menger_battery[:100] + plain_battery[:50])[index]
    alg = abstract_from_concrete(conc)
    r = random_relation(seed, alg.size, density)
    if symmetric:
        r = r | r.transpose()
    assert is_zero_quasi_equivalence(r, alg) == zero_quasi_equivalence_by_bits(r, alg)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 149), st.sampled_from(WORD_SYSTEMS), st.integers(1, 4),
       st.integers(1, 4), st.integers(0, 2**32 - 1), DENSITIES, st.booleans())
def test_word_systems_match_bits(menger_battery, plain_battery, index, system,
                                 n_bound, m_bound, seed, density, realized):
    conc = (menger_battery[:100] + plain_battery[:50])[index]
    alg = abstract_from_concrete(conc)
    if alg.flavor == "plain" and not system.endswith("bullet"):
        system += "_bullet"
    m = alg.size
    # the realized relations, which satisfy the conditions, or random ones
    _, gamma, pi = domain_relations(conc) if realized else (
        None, random_relation(seed, m, density), random_relation(seed + 1, m, density))
    expected = word_system_by_bits(alg, system, n_bound, m_bound, pi=pi, gamma=gamma)
    assert check_word_system(alg, system, n_bound, m_bound, pi=pi, gamma=gamma) == expected


def test_word_system_bounds_below_one_rejected(zero_proj):
    diag = BinRelation.diagonal(2)
    for bounds in ((0, 4), (4, 0), (-2, -5)):
        with pytest.raises(InputError):
            check_word_system(zero_proj, "A", *bounds, pi=diag)
        with pytest.raises(InputError):
            word_system_crosscheck(zero_proj, diag, diag, *bounds)


def test_compatibility_size_mismatch(zero_proj):
    with pytest.raises(InputError):
        check_compatibility(BinRelation.full(2), BinRelation.full(3))


# -- word systems --------------------------------------------------------------


def test_word_systems_trivial_on_one_element(one_elem):
    diag = BinRelation.diagonal(1)
    for system in ("A", "B", "C"):
        assert check_word_system(one_elem, system, 4, 4, pi=diag, gamma=diag) is None


def test_word_system_a_on_zero_proj(zero_proj):
    assert check_word_system(zero_proj, "A", 4, 4,
                             pi=BinRelation.diagonal(2)) is None


def test_word_system_b_consistent_with_compatibility(zero_proj):
    gamma = rel(2, [(1, 1)])
    assert check_word_system(zero_proj, "B", 3, 3,
                             pi=BinRelation.diagonal(2), gamma=gamma) is None


def test_word_system_preconditions(zero_proj, zero_proj_plain):
    with pytest.raises(InputError):
        check_word_system(zero_proj_plain, "A", 2, 2, pi=BinRelation.diagonal(2))
    with pytest.raises(InputError):
        check_word_system(zero_proj, "B", 2, 2, pi=BinRelation.diagonal(2))
    with pytest.raises(InputError):
        check_word_system(zero_proj, "bogus", 2, 2)


def literal_one_step(alg, pi, with_translations):
    """One-step relation assembled from literal clause instantiations:
    x related to mu_k(word)[suffix] whenever x is pi-equivalent to a
    translation of (y . word)[suffix]; plus the pure translation clause.

    Each word is folded from scratch; a word stops growing once its
    (occupants, action) signature was already produced, which saturates
    the clause instantiations without the library's state search."""
    m = alg.size
    pairs = set()
    trans_pairs = set()
    if with_translations:
        maps = inner_translations(alg).maps
    else:
        maps = (tuple(range(m)),)
    for t in maps:
        for g in range(m):
            trans_pairs.add((t[g], g))
    steps = [(s, y) for s in range(alg.arity) for y in range(m)]
    frontier = [()]
    signatures = set()
    while frontier:
        fresh = []
        for stem in frontier:
            for step in steps:
                word = stem + (step,)
                occ = slot_occupants(alg, word)
                action = tuple(apply_word(alg, x, word) for x in range(m))
                if (occ, action) in signatures:
                    continue
                signatures.add((occ, action))
                fresh.append(word)
                for x in range(m):
                    for k in range(alg.arity):
                        if occ[k] == -1:
                            continue
                        pairs.add((action[x], occ[k]))
                        if alg.flavor == "menger":
                            for zs in product(range(m), repeat=alg.arity):
                                pairs.add((sup_at(alg, action[x], zs),
                                           sup_at(alg, occ[k], zs)))
        frontier = fresh
    comp = BinRelation.from_pairs(m, pairs).reflexive_closure()
    trans = BinRelation.from_pairs(m, trans_pairs)
    chain = pi.then(trans).then(comp)
    return chain


def test_one_step_relation_matches_literal_clauses(small_battery):
    for conc in small_battery[:12]:
        alg = abstract_from_concrete(conc)
        if len(conc) > 3:
            continue
        pi = BinRelation.diagonal(alg.size)
        bullet = alg.flavor == "plain"
        kind = "chi_pi_bullet" if bullet else "chi_pi"
        expected = literal_one_step(alg, pi, not bullet)
        assert _one_step_relation(alg, kind, pi) == expected


def test_word_system_agrees_with_exact_conditions_at_saturation(small_battery):
    from mengerkit import domain_relations
    for conc in small_battery[:20]:
        alg = abstract_from_concrete(conc)
        m = alg.size
        bullet = alg.flavor == "plain"
        _, gamma, pi = domain_relations(conc)
        bound = max(m * m, 2)
        kind_pi = "chi_pi_bullet" if bullet else "chi_pi"
        kind_0 = "chi0_bullet" if bullet else "chi0"
        suffix = "_bullet" if bullet else ""
        closure = build_closure(alg, kind_pi, pi)
        exact_a = (closure & closure.transpose()).issubset(pi)
        trunc_a = check_word_system(alg, "A" + suffix, bound, bound, pi=pi) is None
        assert exact_a == trunc_a
        exact_b = check_compatibility(closure, gamma) is None
        trunc_b = check_word_system(alg, "B" + suffix, bound, bound,
                                    pi=pi, gamma=gamma) is None
        assert exact_b == trunc_b
        least = build_closure(alg, kind_0)
        exact_c = check_compatibility(least, gamma) is None
        trunc_c = check_word_system(alg, "C" + suffix, bound, bound,
                                    gamma=gamma) is None
        assert exact_c == trunc_c


def test_word_system_violation_chain_is_genuine():
    # left projection in both slots: every word acts as the identity, so the
    # composite-component relation is full and the diagonal cannot absorb it
    left = ((0, 0), (1, 1))
    alg = AbstractAlgebra(2, 2, (left, left), None, None, "plain")
    diag = BinRelation.diagonal(2)
    violation = check_word_system(alg, "A_bullet", 3, 3, pi=diag)
    assert violation is not None and violation.system == "A_bullet"
    chain = violation.chain
    r = _one_step_relation(alg, "chi_pi_bullet", diag)
    for a, b in zip(chain, chain[1:]):
        assert r.contains(a, b)
    assert chain[0] == chain[-1]
    assert not diag.contains(chain[0], chain[1])

    # the same failure shows up through the B-system when gamma breaks
    gamma = BinRelation.diagonal(2)
    violation = check_word_system(alg, "B_bullet", 2, 2, pi=diag, gamma=gamma)
    assert violation is not None
    x0, xn, xnp1, xlast, chain1, chain2 = violation.chain
    assert gamma.contains(x0, xnp1)
    assert not gamma.contains(xn, xlast)
    for a, b in zip(chain1, chain1[1:]):
        assert r.contains(a, b)
    for a, b in zip(chain2, chain2[1:]):
        assert r.contains(a, b)
