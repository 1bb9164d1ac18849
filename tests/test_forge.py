import pytest

from mengerkit import (
    CapacityError,
    GeneratorConfig,
    InputError,
    abstract_from_concrete,
    check_associativity,
    check_menger_identities,
    check_representability,
    enumerate_relations,
    generate_concrete,
    identity_representation,
    is_faithful,
)
from mengerkit.fileio import algebra_to_doc, dump_doc


def test_generation_is_deterministic():
    cfg = GeneratorConfig(arity=2, base_size=2, generator_count=1, seed=7)
    first = generate_concrete(cfg)
    second = generate_concrete(cfg)
    assert dump_doc(algebra_to_doc(first)) == dump_doc(algebra_to_doc(second))


def test_zero_generators_give_empty_algebra():
    cfg = GeneratorConfig(generator_count=0, seed=3)
    assert len(generate_concrete(cfg)) == 0


def test_outputs_are_closed_and_representable():
    for seed in range(12):
        cfg = GeneratorConfig(arity=2, base_size=2, generator_count=1, seed=seed)
        conc = generate_concrete(cfg)
        assert conc.closure_violation() is None
        if len(conc) == 0:
            continue
        alg = abstract_from_concrete(conc)
        assert check_associativity(alg) is None
        assert check_menger_identities(alg) is None
        assert check_representability(alg) is None


def test_capacity_error_after_retries():
    cfg = GeneratorConfig(arity=2, base_size=3, generator_count=4, seed=0,
                          closure_cap=2)
    with pytest.raises(CapacityError):
        generate_concrete(cfg)


def test_bad_config_rejected():
    with pytest.raises(InputError):
        GeneratorConfig(arity=0)
    with pytest.raises(InputError):
        GeneratorConfig(flavor="spicy")


def test_equivalence_counts_match_bell_numbers():
    assert len(list(enumerate_relations(2, "equivalences"))) == 2
    assert len(list(enumerate_relations(3, "equivalences"))) == 5
    assert len(list(enumerate_relations(4, "equivalences"))) == 15


def test_quasi_order_count_on_two_elements():
    assert len(list(enumerate_relations(2, "quasi_orders"))) == 4


def test_all_relations_cap():
    with pytest.raises(CapacityError):
        list(enumerate_relations(5, "all"))


def test_l_regular_equivalences_filter(zero_proj):
    equivs = list(enumerate_relations(2, "equivalences"))
    filtered = list(enumerate_relations(2, "l_regular_equivalences", zero_proj))
    assert set(r.rows for r in filtered) <= set(r.rows for r in equivs)
    assert filtered, "the diagonal is always l-regular"


def test_identity_representation_faithful(menger_battery):
    for conc in menger_battery[:10]:
        if len(conc) == 0:
            continue
        assert is_faithful(identity_representation(conc)) is None
