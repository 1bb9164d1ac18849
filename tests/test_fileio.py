import pytest

from mengerkit import BinRelation, InputError, build_closure, sum_over_pairs
from mengerkit.fileio import (
    algebra_from_doc,
    algebra_to_doc,
    dump_doc,
    load_algebra,
    load_relation,
    load_representation,
    relation_from_doc,
    relation_to_doc,
    representation_from_doc,
    representation_to_doc,
    save_algebra,
    save_relation,
    save_representation,
    violation_to_json,
    word_from_json,
    word_to_json,
)


def test_abstract_algebra_roundtrip(zero_proj, tmp_path):
    path = tmp_path / "alg.json"
    save_algebra(zero_proj, str(path))
    assert load_algebra(str(path)) == zero_proj


def test_plain_algebra_roundtrip(zero_proj_plain, tmp_path):
    path = tmp_path / "alg.json"
    save_algebra(zero_proj_plain, str(path))
    assert load_algebra(str(path)) == zero_proj_plain


def test_concrete_algebra_roundtrip(zero_proj_concrete, tmp_path):
    path = tmp_path / "conc.json"
    save_algebra(zero_proj_concrete, str(path))
    assert load_algebra(str(path)) == zero_proj_concrete


def test_relation_roundtrip(tmp_path):
    r = BinRelation.from_pairs(3, [(0, 1), (2, 2)])
    path = tmp_path / "rel.json"
    save_relation(r, str(path))
    assert load_relation(str(path)) == r


def test_representation_roundtrip(zero_proj, tmp_path):
    chi0 = build_closure(zero_proj, "chi0")
    rep = sum_over_pairs(zero_proj, chi0, BinRelation.from_pairs(2, [(1, 1)]))
    path = tmp_path / "rep.json"
    save_representation(rep, str(path))
    loaded = load_representation(str(path))
    assert loaded.size == rep.size
    assert len(loaded.parts) == len(rep.parts)
    for ours, theirs in zip(rep.parts, loaded.parts):
        assert ours.universe.points == theirs.universe.points
        assert (ours.assign == theirs.assign).all()
    # a reloaded representation still yields the same relations
    from mengerkit import representation_relations
    assert representation_relations(loaded) == representation_relations(rep)


def test_dump_is_byte_stable(zero_proj):
    assert dump_doc(algebra_to_doc(zero_proj)) == dump_doc(algebra_to_doc(zero_proj))


def test_unknown_fields_rejected(zero_proj):
    doc = algebra_to_doc(zero_proj)
    doc["comment"] = "hello"
    with pytest.raises(InputError) as err:
        algebra_from_doc(doc)
    assert "comment" in str(err.value)


def test_missing_field_named():
    with pytest.raises(InputError) as err:
        relation_from_doc({"format": "mengerkit-relation-v1", "size": 2})
    assert "matrix" in str(err.value)


def test_malformed_matrix_rejected():
    doc = {"format": "mengerkit-relation-v1", "size": 2, "matrix": [[1, 0]]}
    with pytest.raises(InputError):
        relation_from_doc(doc)
    doc = {"format": "mengerkit-relation-v1", "size": 2,
           "matrix": [[1, 2], [0, 0]]}
    with pytest.raises(InputError):
        relation_from_doc(doc)


def test_wrong_format_tag_rejected():
    with pytest.raises(InputError):
        relation_from_doc({"format": "something-else", "size": 1, "matrix": [[1]]})


def test_superposition_flavor_consistency(zero_proj):
    doc = algebra_to_doc(zero_proj)
    doc["flavor"] = "plain"
    with pytest.raises(InputError):
        algebra_from_doc(doc)
    doc = algebra_to_doc(zero_proj)
    del doc["superposition"]
    with pytest.raises(InputError):
        algebra_from_doc(doc)


def test_concrete_entry_range_checked(zero_proj_concrete):
    doc = algebra_to_doc(zero_proj_concrete)
    doc["functions"][0][0] = 9
    with pytest.raises(InputError):
        algebra_from_doc(doc)


def test_word_json_is_one_based():
    word = ((0, 1), (1, 0))
    assert word_to_json(word) == [[1, 1], [2, 0]]
    assert word_from_json(word_to_json(word)) == word


def test_representability_witness_serialization(zero_proj):
    from mengerkit import Violation
    v = Violation("representability", (((0, 1),), ((1, 1),), 0, 0, 1), "x")
    doc = violation_to_json(v)
    assert doc["witness"]["word1"] == [[1, 1]]
    assert doc["witness"]["word2"] == [[2, 1]]
    assert doc["witness"]["g"] == 0


def test_point_tagging(zero_proj):
    chi0 = build_closure(zero_proj, "chi0")
    rep = sum_over_pairs(zero_proj, chi0, BinRelation.from_pairs(2, [(1, 1)]))
    doc = representation_to_doc(rep)
    tagged = doc["parts"][0]["points"]
    assert {"e": 1} in tagged[-1]  # the blank point carries placeholders
    flattened = [c for point in tagged for c in point]
    assert {"g": 0} in flattened


def test_representation_rejects_bad_placeholder_position():
    doc = {
        "format": "mengerkit-representation-v1",
        "size": 1,
        "parts": [{
            "kind": "extended", "n": 2, "value_size": 1,
            "points": [[{"e": 2}, {"g": 0}]],
            "labels": [],
            "assignment": [[0]],
        }],
    }
    with pytest.raises(InputError):
        representation_from_doc(doc)


def test_string_size_rejected():
    doc = {"format": "mengerkit-algebra-v1", "kind": "abstract", "flavor": "plain",
           "n": 1, "size": "2", "mann": [[[0, 1], [1, 0]]]}
    with pytest.raises(InputError):
        algebra_from_doc(doc)


def test_non_list_function_rejected():
    doc = {"format": "mengerkit-algebra-v1", "kind": "concrete", "flavor": "plain",
           "n": 1, "base_size": 2, "functions": [5]}
    with pytest.raises(InputError):
        algebra_from_doc(doc)


def test_concrete_table_over_the_cell_cap_rejected():
    # 2**17 cells per function, over MAX_CELLS, even with no functions
    doc = {"format": "mengerkit-algebra-v1", "kind": "concrete", "flavor": "plain",
           "n": 17, "base_size": 2, "functions": []}
    with pytest.raises(InputError):
        algebra_from_doc(doc)


def test_non_list_matrix_rejected():
    with pytest.raises(InputError):
        relation_from_doc({"format": "mengerkit-relation-v1", "size": 3, "matrix": 5})


def test_boolean_table_entries_rejected(zero_proj_concrete):
    doc = {"format": "mengerkit-algebra-v1", "kind": "abstract", "flavor": "plain",
           "n": 1, "size": 2, "mann": [[[False, True], [True, False]]]}
    with pytest.raises(InputError):
        algebra_from_doc(doc)
    doc = algebra_to_doc(zero_proj_concrete)
    doc["functions"][1][0] = True
    with pytest.raises(InputError):
        algebra_from_doc(doc)


# -- strict representation loader ---------------------------------------------


def blank_point_representation(**changes):
    """A one-element representation over the blank point alone, with the
    given fields replaced (``parts`` and ``size`` at the top, the rest in
    the part)."""
    part = {"kind": "extended", "n": 1, "value_size": 1, "points": [[{"e": 1}]],
            "labels": [], "assignment": [[0]]}
    doc = {"format": "mengerkit-representation-v1", "size": 1, "parts": [part]}
    for name, value in changes.items():
        (doc if name in ("parts", "size") else part)[name] = value
    return doc


def test_blank_point_representation_loads():
    rep = representation_from_doc(blank_point_representation())
    assert rep.size == 1 and rep.parts[0].universe.points == ((-1,),)


def test_representation_parts_must_be_a_list():
    with pytest.raises(InputError):
        representation_from_doc(blank_point_representation(parts=5))


def test_representation_part_must_be_an_object():
    with pytest.raises(InputError):
        representation_from_doc(blank_point_representation(parts=[5]))


def test_representation_points_must_be_a_list():
    with pytest.raises(InputError):
        representation_from_doc(blank_point_representation(points=5))


def test_representation_assignment_values_must_be_integers():
    with pytest.raises(InputError):
        representation_from_doc(blank_point_representation(assignment=[["x"]]))


def test_representation_size_must_be_an_integer():
    with pytest.raises(InputError):
        representation_from_doc(blank_point_representation(size="1", parts=[]))


def test_representation_boolean_coordinate_rejected():
    doc = blank_point_representation(size=2, value_size=2, points=[[True]],
                                     assignment=[[0], [1]])
    with pytest.raises(InputError):
        representation_from_doc(doc)
    doc["parts"][0]["points"] = [[1]]
    assert representation_from_doc(doc).parts[0].universe.points == ((1,),)
