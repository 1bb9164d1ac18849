"""The ladder script (``scripts/ladder.py``) measures through the package
API; a rename that would break it fails here first."""

import importlib.util
from pathlib import Path

LADDER = Path(__file__).resolve().parents[1] / "scripts" / "ladder.py"


def load_ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    return ladder


def test_first_rung_measures_every_call():
    rung = load_ladder().run_rung(1)
    assert (rung["m"], rung["translations"], rung["translation_classes"]) == (45, 2115, 90)
    results = [rung[name]["result"] for name in (
        "is_l_regular(chi)", "is_l_cancellative(gamma)", "verify_conditions(triplet)",
        "check_menger_identities", "verify_homomorphism(pairs sum)")]
    assert results == ["None", "None", "True", "None", "None"]
    assert rung["reachable_states"]["result"] == "531"
    # the laws and the homomorphism check compare equations at the 12
    # generators, the calls in their order
    assert rung["generators"] == 12
    assert rung["check_menger_identities"]["equations"] == [
        ["Menger identities: superassociativity", 12 * 45**2 * 69],
        ["Menger identities: mixed laws", 2 * 2 * 12 * 45**3]]
    assert [count for _, count in rung["verify_homomorphism(pairs sum)"]["equations"]] == [
        4496580, 4302180]
    assert [rung[name]["order"] for name in (
        "reachable_states", "is_l_regular(chi)", "check_menger_identities",
        "verify_homomorphism(pairs sum)")] == [0, 1, 4, 6]
    # the pairs sum: a group of 58 parts in 8-byte words, and one of 13
    assert [group["parts"] for group in rung["homomorphism_groups"]] == [58, 13]
    assert rung["homomorphism_groups"][0]["word_bytes"] == 8
    # its relations are chi, gamma and pi, in 1.5 MB with the universe built
    relations = rung["representation_relations(pairs sum)"]
    assert relations["result"] == "True" and relations["again_peak_mb"] < 8
    verify = rung["verify --target triplet"]
    assert (verify["exit"], verify["traceback"], verify["stderr"]) == (0, False, "")
    assert rung["build_universe"]["result"] == "2116"  # the universe's points
    roundtrips = rung["roundtrip(seven targets)"]
    assert (roundtrips["result"], roundtrips["order"]) == ("True", 8)


def test_plain_rung_measures_its_three_calls():
    rung = load_ladder().run_plain_rung("plain22")
    assert (rung["m"], rung["reachable_states"]["result"]) == (22, "2326")
    assert [rung[name]["result"] for name in (
        "check_representability", "verify_conditions(triplet)")] == ["None", "True"]
