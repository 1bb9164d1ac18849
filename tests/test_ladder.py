"""The ladder script (``scripts/ladder.py``) measures through the package
API; a rename that would break it fails here first."""

import importlib.util
from pathlib import Path

LADDER = Path(__file__).resolve().parents[1] / "scripts" / "ladder.py"


def test_first_rung_measures_every_call():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    rung = ladder.run_rung(1)
    assert (rung["m"], rung["translations"], rung["translation_classes"]) == (45, 2115, 90)
    results = [rung[name]["result"] for name in (
        "is_l_regular(chi)", "is_l_cancellative(gamma)", "verify_conditions(triplet)",
        "check_menger_identities", "verify_homomorphism(pairs sum)")]
    assert results == ["None", "None", "True", "None", "None"]
    assert rung["reachable_states"]["result"] == "531"
    # the pairs sum: a group of 58 parts in 8-byte words, and one of 13
    assert [group["parts"] for group in rung["homomorphism_groups"]] == [58, 13]
    assert rung["homomorphism_groups"][0]["word_bytes"] == 8
    # its relations are chi, gamma and pi, in 1.5 MB with the universe built
    relations = rung["representation_relations(pairs sum)"]
    assert relations["result"] == "True" and relations["again_peak_mb"] < 8
    verify = rung["verify --target triplet"]
    assert (verify["exit"], verify["traceback"], verify["stderr"]) == (0, False, "")
