import hashlib

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

from oracles import relations_by_bitset_rows


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
        assert conc.composite_indices()[1] is None
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


# sha256 of repr([f.entries for f in members]) for the perfbench catalogue
# and the first five menger and five plain cap-10 battery configurations:
# benchmark inputs depend on the forge's element order, so it stays fixed
FORGE_DIGESTS = {
    (2, 3, 1, 8, "menger", 26):
        "43f5e5e94fa3accf20e836e91ce553ffb908c6aa5e54bb59fc3f5cd26630f800",
    (2, 3, 1, 33, "menger", 26):
        "3ee11819851ec5274796c1bb8394568c92cf0a515fb6338f2e05b7cf35ccdc15",
    (2, 3, 1, 28, "menger", 26):
        "75398f31f36308b769e015d7ec830bea742b41df56575d5e9825cd04992af923",
    (2, 3, 1, 56, "menger", 26):
        "ab0af3420e561cef0c4c2490a52114a054a2c6d50176ecfda8fd98eb68c8a7b7",
    (3, 2, 1, 12, "plain", 40):
        "716f66f8f086f4cc270aa97a35e52e475e4d8782a32585e8dc019918b01f45b9",
    (3, 2, 1, 7, "plain", 40):
        "dbb8020ba89fa3071784c3da08af652fd3029ccc40510630f9acb90f28464442",
    (2, 3, 1, 5, "menger", 26):
        "077cbb57ecdadda2c12a8b4345f6b029fc822916f7fd5d513c94cb21255e053b",
    (2, 2, 1, 0, "menger", 10):
        "c34af0805ee4b1cbdd2ea5f4b1e17f27df7b6466118f1afdaeb0482ddbac547c",
    (2, 2, 1, 2, "menger", 10):
        "afddf244c1e1fc71f2dc92ad031d70be46a3abcbe8c1ed32cc8dc8b582d21f62",
    (2, 2, 1, 4, "menger", 10):
        "20721704558ef26ca810753d404f29beea737ad341ff18cbd5fbf60e4eefcd89",
    (2, 2, 1, 6, "menger", 10):
        "45ec7f5ef85ab16a81023b0823a5b4f3c46b0119199fb31cec2eebae315fae17",
    (2, 2, 1, 8, "menger", 10):
        "d2448f325f80e8a0f634b7bdb70953d209a042a90c34ffc83e250c29297c37bb",
    (2, 2, 1, 0, "plain", 10):
        "e34a91969f443d08dd045a803a0317fb57d8604e521a0db5260964d1f1c574e3",
    (2, 2, 3, 2, "plain", 10):
        "384bab8ab45dded33cd1bddd768f0ec5de7548b763fdbe4cd2f18302202093c2",
    (2, 3, 1, 3, "plain", 10):
        "6cb6430b1515b77b6d4656d72c86c02a7b3c212d18d33550d745710a8d95a34b",
    (2, 2, 2, 4, "plain", 10):
        "43f9196f04929fa764d35c2462d32829f4c6599d3b96de110b1d620f3da32969",
    (2, 2, 1, 6, "plain", 10):
        "45ec7f5ef85ab16a81023b0823a5b4f3c46b0119199fb31cec2eebae315fae17",
}


def test_forge_order_is_pinned():
    for fields, digest in FORGE_DIGESTS.items():
        conc = generate_concrete(GeneratorConfig(*fields))
        members = repr([f.entries for f in conc.functions]).encode()
        assert hashlib.sha256(members).hexdigest() == digest, fields


def test_bad_config_rejected():
    with pytest.raises(InputError):
        GeneratorConfig(arity=0)
    with pytest.raises(InputError):
        GeneratorConfig(flavor="spicy")
    # tables over MAX_CELLS or MAX_ARITY are refused before any cell is drawn
    with pytest.raises(InputError):
        GeneratorConfig(arity=40, base_size=3)
    with pytest.raises(InputError):
        GeneratorConfig(arity=33, base_size=1)


def test_equivalence_counts_match_bell_numbers():
    assert len(list(enumerate_relations(2, "equivalences"))) == 2
    assert len(list(enumerate_relations(3, "equivalences"))) == 5
    assert len(list(enumerate_relations(4, "equivalences"))) == 15


def test_quasi_order_count_on_two_elements():
    assert len(list(enumerate_relations(2, "quasi_orders"))) == 4


def test_enumerated_relations_match_bitset_rows():
    for m in range(1, 5):
        for which in ("all", "quasi_orders"):
            assert list(enumerate_relations(m, which)) == list(relations_by_bitset_rows(m, which))
    assert len(list(enumerate_relations(4, "quasi_orders"))) == 355


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
