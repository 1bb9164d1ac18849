from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mengerkit import (
    AbstractAlgebra,
    CapacityError,
    EMPTY,
    GeneratorConfig,
    InputError,
    PartialFunction,
    abstract_from_concrete,
    check_associativity,
    check_menger_identities,
    check_representability,
    find_zero,
    generate_concrete,
    reachable_states,
)
from oracles import (
    apply_word,
    by_slots,
    slot_occupants,
    slot_occupants_by_first_use,
    slot_occupants_generic,
)


def assoc_tables_m2():
    ops = [
        tuple(tuple(t[2 * a + b] for b in range(2)) for a in range(2))
        for t in product(range(2), repeat=4)
    ]
    return [
        t for t in ops
        if all(t[t[x][y]][z] == t[x][t[y][z]]
               for x in range(2) for y in range(2) for z in range(2))
    ]


def all_plain_m2():
    tables = assoc_tables_m2()
    return [
        AbstractAlgebra(2, 2, (m1, m2), None, None, "plain")
        for m1 in tables for m2 in tables
    ]


# -- construction ------------------------------------------------------


def test_mann_table_shape_validated():
    with pytest.raises(InputError):
        AbstractAlgebra(2, 2, ([[0, 0], [0]], [[0, 0], [0, 1]]), None, None, "plain")


def test_menger_requires_superposition():
    with pytest.raises(InputError):
        AbstractAlgebra(1, 1, ([[0]],), None, None, "menger")


def test_plain_rejects_superposition():
    with pytest.raises(InputError):
        AbstractAlgebra(1, 1, ([[0]],), [[0]], None, "plain")


def test_declared_zero_checked(zero_proj):
    tables = zero_proj.mann
    with pytest.raises(InputError):
        AbstractAlgebra(2, 2, tables, zero_proj.superposition, 1, "menger")


# -- words and occupants ---------------------------------------------------


def test_apply_word_one_element(one_elem):
    assert apply_word(one_elem, 0, ((0, 0), (1, 0))) == 0


def test_apply_word_table_lookup(zero_proj):
    assert apply_word(zero_proj, 1, ((0, 1),)) == 1
    assert apply_word(zero_proj, 0, ((0, 1),)) == 0  # the zero absorbs


def test_single_step_occupants(zero_proj):
    assert slot_occupants(zero_proj, ((1, 1),)) == (EMPTY, 1)


def test_occupant_folding(zero_proj):
    # two steps in the same slot fold through the composition
    assert slot_occupants(zero_proj, ((1, 1), (1, 1))) == (EMPTY, 1)
    assert slot_occupants(zero_proj, ((1, 1), (1, 0))) == (EMPTY, 0)


def test_symbolic_occupants_match_worked_example():
    # four slots, word: slot2 x, slot1 y, slot3 z (1-based)
    word = ((1, "x"), (0, "y"), (2, "z"))
    occ = slot_occupants_generic(word, 4, lambda v, s, y: ("op", s, v, y))
    assert occ[0] == ("op", 2, "y", "z")
    assert occ[1] == ("op", 2, ("op", 0, "x", "y"), "z")
    assert occ[2] == "z"
    assert occ[3] == EMPTY


@settings(max_examples=60)
@given(st.data())
def test_incremental_rule_matches_first_occurrence_formula(data):
    algebras = all_plain_m2()
    alg = data.draw(st.sampled_from(algebras))
    length = data.draw(st.integers(0, 5))
    word = tuple(
        (data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1)))
        for _ in range(length)
    )
    assert slot_occupants(alg, word) == slot_occupants_by_first_use(alg, word)


def test_first_occurrence_formula_exhaustive(zero_proj):
    steps = [(s, y) for s in range(2) for y in range(2)]
    words = [()]
    for _ in range(4):
        words = [w + (st,) for w in words for st in steps]
        for w in words:
            assert slot_occupants(zero_proj, w) == \
                slot_occupants_by_first_use(zero_proj, w)


# -- reachable states --------------------------------------------------------


def test_one_element_state_space(one_elem):
    space = one_elem.states()
    assert len(space.states) == 3
    assert sorted(s.slots for s in space.states) == [
        (EMPTY, 0), (0, EMPTY), (0, 0)]


def test_zero_proj_state_space(zero_proj):
    space = zero_proj.states()
    state = by_slots(space.states)[(1, EMPTY)][0]
    assert state.action == (0, 1)
    assert state.word == ((0, 1),)
    assert len(space.states) == 8


def test_no_state_is_all_empty(zero_proj, one_elem, menger_battery):
    algebras = [zero_proj, one_elem]
    algebras += [abstract_from_concrete(c) for c in menger_battery[:10]]
    for alg in algebras:
        for state in alg.states().states:
            assert any(v != EMPTY for v in state.slots)


def test_state_cap():
    conc_tables = [
        PartialFunction.projection(2, 3, 0),
        PartialFunction.projection(2, 3, 1),
        PartialFunction.constant(2, 3, 0),
        PartialFunction.constant(2, 3, 1),
    ]
    from mengerkit import close_under_operations
    alg = abstract_from_concrete(close_under_operations(conc_tables, "plain"))
    with pytest.raises(CapacityError):
        reachable_states(alg, cap=3)


def test_state_cap_holds_once_states_are_kept():
    # the states are kept with the algebra; a cap bounds a fresh BFS
    conc = generate_concrete(
        GeneratorConfig(arity=2, base_size=3, generator_count=1, seed=8))
    alg = abstract_from_concrete(conc)
    space = alg.states()
    assert len(space.slots) == 258 and alg.states() is space
    for cap in (10, 256, 257):
        with pytest.raises(CapacityError) as fresh:
            reachable_states(alg, cap=cap)
        assert fresh.value.count == cap + 1
    assert len(reachable_states(alg, cap=258).slots) == 258


def test_alt_words_are_recorded_and_consistent(zero_proj):
    space = zero_proj.states()
    with_alt = [s for s in space.states if s.alt_word is not None]
    assert with_alt, "expected at least one re-reached state"
    for state in with_alt:
        assert slot_occupants(zero_proj, state.alt_word) == state.slots
        for g in range(zero_proj.size):
            assert apply_word(zero_proj, g, state.alt_word) == state.action[g]


# -- representability ----------------------------------------------------


def test_representability_of_fixtures(one_elem, zero_proj):
    assert check_representability(one_elem) is None
    assert check_representability(zero_proj) is None


def brute_force_word_pairs(alg, depth):
    steps = [(s, y) for s in range(alg.arity) for y in range(alg.size)]
    words, frontier = [], [()]
    for _ in range(depth):
        frontier = [w + (st,) for w in frontier for st in steps]
        words.extend(frontier)
    seen = {}
    for w in words:
        occ = slot_occupants(alg, w)
        act = tuple(apply_word(alg, g, w) for g in range(alg.size))
        if occ in seen and seen[occ] != act:
            return False
        seen.setdefault(occ, act)
    return True


def test_representability_matches_brute_force_on_all_m2_pairs():
    # exhaustive oracle comparison: every pair of associative tables on a
    # two-element carrier, word pairs enumerated to length 4
    count_fail = 0
    for alg in all_plain_m2():
        exact = check_representability(alg) is None
        assert exact == brute_force_word_pairs(alg, 4)
        if not exact:
            count_fail += 1
    assert count_fail > 0, "the enumeration must contain failing tables"


def test_representability_witness_is_genuine():
    for alg in all_plain_m2():
        violation = check_representability(alg)
        if violation is None:
            continue
        w1, w2, g, a1, a2 = violation.witness
        assert slot_occupants(alg, w1) == slot_occupants(alg, w2)
        assert apply_word(alg, g, w1) == a1
        assert apply_word(alg, g, w2) == a2
        assert a1 != a2


# -- identity checks -----------------------------------------------------


def test_associativity_passes_on_fixtures(one_elem, zero_proj):
    assert check_associativity(one_elem) is None
    assert check_associativity(zero_proj) is None


def test_associativity_flags_subtraction_mod_3():
    sub = tuple(tuple((a - b) % 3 for b in range(3)) for a in range(3))
    other = tuple(tuple(a for _ in range(3)) for a in range(3))
    alg = AbstractAlgebra(2, 3, (sub, other), None, None, "plain")
    violation = check_associativity(alg)
    assert violation is not None and violation.law == "associativity:1"
    x, y, z = violation.witness
    assert sub[sub[x][y]][z] != sub[x][sub[y][z]]


def test_menger_identities_pass_on_fixtures(one_elem, zero_proj):
    assert check_menger_identities(one_elem) is None
    assert check_menger_identities(zero_proj) is None


def test_menger_identities_require_menger(zero_proj_plain):
    with pytest.raises(InputError):
        check_menger_identities(zero_proj_plain)


def test_perturbed_superposition_is_flagged(zero_proj):
    # flip the one superposition cell that makes the tables a function algebra
    sup = zero_proj.superposition.tolist()
    sup[1][1][1] = 0
    alg = AbstractAlgebra(2, 2, zero_proj.mann, sup, None, "menger")
    violation = check_menger_identities(alg)
    assert violation is not None


# -- zero ----------------------------------------------------------------


def test_find_zero_on_fixtures(one_elem, zero_proj):
    assert find_zero(zero_proj) == 0
    assert find_zero(one_elem) == 0  # the sole element satisfies the laws


def test_find_zero_absent():
    # left projection absorbs on the left only, so no element satisfies
    # both absorption laws
    left = ((0, 0), (1, 1))
    alg = AbstractAlgebra(2, 2, (left, left), None, None, "plain")
    assert find_zero(alg) is None


def test_find_zero_picks_the_absorbing_element():
    maximum = ((0, 1), (1, 1))
    alg = AbstractAlgebra(2, 2, (maximum, maximum), None, None, "plain")
    assert find_zero(alg) == 1


def test_zero_is_unique(menger_battery):
    for conc in menger_battery[:30]:
        alg = abstract_from_concrete(conc)
        zeros = [z for z in range(alg.size)
                 if find_zero(alg) == z and alg.zero_element() == z]
        assert len(zeros) <= 1


# -- abstraction ----------------------------------------------------------


def test_abstraction_of_zero_proj(zero_proj):
    assert zero_proj.size == 2
    assert zero_proj.zero == 0
    assert zero_proj.mann[0].tolist() == [[0, 0], [0, 1]]
    assert zero_proj.mann[1].tolist() == [[0, 0], [0, 1]]
    assert zero_proj.superposition[1, 1, 1] == 1
    assert zero_proj.superposition[1, 1, 0] == 0


def test_abstraction_of_single_projection(one_elem):
    assert one_elem.size == 1
    assert one_elem.flavor == "menger"


def test_abstraction_rejects_non_closed(proj1, corner):
    from mengerkit import ConcreteAlgebra
    broken = ConcreteAlgebra(2, 2, (proj1, corner), "menger")
    with pytest.raises(InputError) as err:
        abstract_from_concrete(broken)
    assert "not closed" in str(err.value)


def test_abstraction_checks_pass_on_battery(menger_battery):
    for conc in menger_battery[:40]:
        alg = abstract_from_concrete(conc)
        assert check_associativity(alg) is None
        assert check_menger_identities(alg) is None
        assert check_representability(alg) is None


def test_occupants_fold_through_later_steps(zero_proj):
    # repeating a slot composes the occupant with the new element
    assert slot_occupants(zero_proj, ((1, 1), (1, 1))) == (EMPTY, 1)
    # a later step in the other slot folds the occupant too
    assert slot_occupants(zero_proj, ((0, 1), (1, 0))) == (0, 0)
