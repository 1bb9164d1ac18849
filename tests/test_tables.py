from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mengerkit import (
    CapacityError,
    ConcreteAlgebra,
    InputError,
    PartialFunction,
    UNDEFINED,
    close_under_operations,
    domain_relations,
    mann_compose,
    superpose,
)


def test_evaluate_projection(proj1):
    assert proj1.entries == (0, 0, 1, 1)
    assert proj1.at((1, 0)) == 1


def test_evaluate_outside_domain(corner):
    assert corner.at((0, 1)) == UNDEFINED


def test_evaluate_empty(empty2):
    assert empty2.at((0, 0)) == UNDEFINED


def test_evaluate_rejects_out_of_range(proj1):
    with pytest.raises(InputError):
        proj1.at((0, 2))
    with pytest.raises(InputError):
        proj1.at((0,))


def brute_superpose(f, gs):
    entries = []
    for args in product(range(f.base_size), repeat=f.arity):
        inner = tuple(g.at(args) for g in gs)
        if UNDEFINED in inner:
            entries.append(UNDEFINED)
        else:
            entries.append(f.at(inner))
    return tuple(entries)


def test_superpose_cell_by_cell(proj1, proj2, const0):
    result = superpose(proj1, [const0, proj2])
    assert result.entries == brute_superpose(proj1, [const0, proj2])
    assert result.entries == (0, 0, 0, 0)


def test_superpose_with_empty_argument(proj1, proj2, empty2):
    assert superpose(proj1, [empty2, proj2]).is_empty()


def test_superpose_identity_with_projections(proj1, proj2):
    assert superpose(proj1, [proj1, proj2]) == proj1


def test_superpose_rejects_mismatch(proj1):
    other = PartialFunction.projection(2, 3, 0)
    with pytest.raises(InputError):
        superpose(proj1, [other, other])


def test_mann_compose_projection_slots(proj1, proj2):
    assert mann_compose(proj1, proj2, 0) == proj2
    # slot 2 is ignored by the first projection, for any total inner function
    for g in (proj1, proj2, PartialFunction.constant(2, 2, 1)):
        assert mann_compose(proj1, g, 1) == proj1


def test_mann_compose_domain_shrinks(proj1, corner):
    assert mann_compose(proj1, corner, 0) == corner


def test_mann_compose_rejects_bad_slot(proj1):
    with pytest.raises(InputError):
        mann_compose(proj1, proj1, 2)


def functions(base=2, arity=2):
    cells = base**arity
    return st.tuples(
        *[st.integers(-1, base - 1) for _ in range(cells)]
    ).map(lambda t: PartialFunction(arity, base, t))


@given(functions(), functions(), functions(), st.integers(0, 1))
def test_mann_composition_is_associative(f, g, h, slot):
    left = mann_compose(mann_compose(f, g, slot), h, slot)
    right = mann_compose(f, mann_compose(g, h, slot), slot)
    assert left == right


@settings(max_examples=25)
@given(functions(), st.tuples(functions(), functions()),
       st.tuples(functions(), functions()))
def test_superposition_is_superassociative(f, gs, hs):
    gs, hs = list(gs), list(hs)
    left = superpose(superpose(f, gs), hs)
    right = superpose(f, [superpose(g, hs) for g in gs])
    assert left == right


@settings(max_examples=25)
@given(functions(), st.tuples(functions(), functions()), functions(),
       st.integers(0, 1))
def test_mixed_identities_hold_extensionally(f, gs, h, slot):
    gs = list(gs)
    # (f *i g)[h..] = f[h.. g[h..] ..h] with the same inner tuple
    lhs = superpose(mann_compose(f, gs[0], slot), [h, h])
    inner = superpose(gs[0], [h, h])
    args = [h, h]
    args[slot] = inner
    assert lhs == superpose(f, args)
    # f[g..] *i h = f[g1 *i h, g2 *i h]
    lhs = mann_compose(superpose(f, gs), h, slot)
    rhs = superpose(f, [mann_compose(g, h, slot) for g in gs])
    assert lhs == rhs


def word_apply(f, word):
    for slot, g in word:
        f = mann_compose(f, g, slot)
    return f


@settings(max_examples=20)
@given(st.data())
def test_slot_complete_words_match_superposition(data):
    # identity (7) extensionally: a word touching every slot equals the
    # superposition with its occupant functions
    pool = [
        PartialFunction.projection(2, 2, 0),
        PartialFunction.projection(2, 2, 1),
        PartialFunction.constant(2, 2, 0),
        PartialFunction(2, 2, (1, -1, -1, -1)),
    ]
    f = data.draw(st.sampled_from(pool))
    length = data.draw(st.integers(2, 4))
    word = [
        (data.draw(st.integers(0, 1)), data.draw(st.sampled_from(pool)))
        for _ in range(length)
    ]
    touched = {slot for slot, _ in word}
    if touched != {0, 1}:
        return
    occupants = [None, None]
    for k, (slot, g) in enumerate(word):
        value = g
        for later_slot, later_g in word[k + 1 :]:
            value = mann_compose(value, later_g, later_slot)
        if occupants[slot] is None:
            occupants[slot] = value
    assert word_apply(f, word) == superpose(f, occupants)


def test_closure_of_single_projection(proj1):
    algebra = close_under_operations([proj1], "menger")
    assert algebra.functions == (proj1,)
    assert algebra.composite_indices()[1] is None


def test_closure_with_empty_function(empty2, proj1):
    algebra = close_under_operations([empty2, proj1], "menger")
    assert algebra.functions == (empty2, proj1)
    assert algebra.composite_indices()[1] is None


def test_closure_of_nothing():
    algebra = close_under_operations([], "menger", arity=2, base_size=2)
    assert len(algebra) == 0


def test_closure_cap_reports_partial_count(proj1, proj2, const0):
    one = PartialFunction.constant(2, 2, 1)
    with pytest.raises(CapacityError) as err:
        close_under_operations([proj1, proj2, const0, one], "menger", cap=2)
    assert err.value.count is not None and err.value.count > 2


def test_generated_closures_are_closed(menger_battery):
    for conc in menger_battery[:25]:
        assert conc.composite_indices()[1] is None


def test_domain_relations_chain(empty2, corner, proj1):
    algebra = ConcreteAlgebra(2, 2, (empty2, corner, proj1), "menger")
    chi, gamma, pi = domain_relations(algebra)
    assert sorted(chi.pairs()) == [
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert sorted(gamma.pairs()) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert sorted(pi.pairs()) == [(0, 0), (1, 1), (2, 2)]


def test_domain_relations_total_pair(proj1, proj2):
    algebra = ConcreteAlgebra(2, 2, (proj1, proj2), "menger")
    _, _, pi = domain_relations(algebra)
    assert sorted(pi.pairs()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_domain_relation_shape_invariants(menger_battery):
    for conc in menger_battery[:40]:
        chi, gamma, pi = domain_relations(conc)
        assert chi.is_quasi_order()
        assert pi == chi & chi.transpose()
        assert gamma.is_symmetric()
        empty_index = next(
            (i for i, f in enumerate(conc.functions) if f.is_empty()), None)
        if empty_index is not None:
            for g in range(len(conc.functions)):
                if g != empty_index:
                    assert gamma.contains(g, g)
            assert not gamma.contains(empty_index, empty_index)


def test_duplicate_functions_rejected(proj1):
    with pytest.raises(InputError):
        ConcreteAlgebra(2, 2, (proj1, proj1), "menger")


def test_non_int_entries_rejected():
    # a float is not truncated to a cell value, nor a numpy integer kept
    for entries in ((0.5, 1), (np.int64(0), 1), (True, 1)):
        with pytest.raises(InputError):
            PartialFunction(1, 2, entries)


def test_concrete_table_is_one_read_only_array(empty2, corner, proj1):
    algebra = ConcreteAlgebra(2, 2, (empty2, corner, proj1), "menger")
    assert algebra.table.dtype == np.int8
    assert algebra.table.tolist() == [list(f.entries) for f in algebra.functions]
    with pytest.raises(ValueError):
        algebra.table[0, 0] = 0
