import json

import pytest

from mengerkit import (
    BinRelation,
    CapacityError,
    ConcreteAlgebra,
    GeneratorConfig,
    Target,
    abstract_from_concrete,
    build_closure,
    build_universe,
    domain_relations,
    generate_concrete,
    roundtrip,
)
from mengerkit import represent
from mengerkit.cli import main
from mengerkit.fileio import save_algebra, save_relation


@pytest.fixture()
def paths(tmp_path, zero_proj, zero_proj_concrete):
    alg_path = tmp_path / "alg.json"
    save_algebra(zero_proj, str(alg_path))
    conc_path = tmp_path / "conc.json"
    save_algebra(zero_proj_concrete, str(conc_path))
    chi, gamma, pi = domain_relations(zero_proj_concrete)
    chi_path, gamma_path, pi_path = (
        tmp_path / "chi.json", tmp_path / "gamma.json", tmp_path / "pi.json")
    save_relation(chi, str(chi_path))
    save_relation(gamma, str(gamma_path))
    save_relation(pi, str(pi_path))
    return {
        "dir": tmp_path,
        "alg": str(alg_path),
        "conc": str(conc_path),
        "chi": str(chi_path),
        "gamma": str(gamma_path),
        "pi": str(pi_path),
    }


def test_check_passes_on_fixture(paths, capsys):
    assert main(["check", "--algebra", paths["alg"]]) == 0
    out = capsys.readouterr().out
    assert "PASS associativity" in out
    assert "PASS menger-identities" in out
    assert "PASS representability" in out


def test_check_json_report(paths, capsys):
    assert main(["check", "--algebra", paths["alg"], "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "mengerkit-report-v1"
    assert all(v["ok"] for v in doc["verdicts"])


def test_check_concrete(paths, capsys):
    assert main(["check", "--algebra", paths["conc"]]) == 0
    assert "PASS concrete-closure" in capsys.readouterr().out


def test_relations_writes_files(paths, tmp_path, zero_proj_concrete):
    out_dir = tmp_path / "rels"
    assert main(["relations", "--algebra", paths["conc"],
                 "--out-dir", str(out_dir)]) == 0
    from mengerkit.fileio import load_relation
    chi, gamma, pi = domain_relations(zero_proj_concrete)
    assert load_relation(str(out_dir / "chi.json")) == chi
    assert load_relation(str(out_dir / "gamma.json")) == gamma
    assert load_relation(str(out_dir / "pi.json")) == pi


def test_closure_command(paths, tmp_path, zero_proj):
    out = tmp_path / "chi0.json"
    assert main(["closure", "--algebra", paths["alg"], "--kind", "chi0",
                 "--out", str(out)]) == 0
    from mengerkit.fileio import load_relation
    assert load_relation(str(out)) == build_closure(zero_proj, "chi0")


def test_verify_triplet_roundtrip(paths, capsys):
    code = main([
        "verify", "--algebra", paths["conc"], "--target", "triplet",
        "--chi", paths["chi"], "--gamma", paths["gamma"], "--pi", paths["pi"],
        "--bounds", "4,4",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "roundtrip" in out
    assert "word-system" in out


def test_verify_exit_one_on_failed_conditions(paths, tmp_path, capsys):
    bad_pi = tmp_path / "badpi.json"
    save_relation(BinRelation.full(2), str(bad_pi))
    code = main([
        "verify", "--algebra", paths["conc"], "--target", "triplet",
        "--chi", paths["chi"], "--gamma", paths["gamma"], "--pi", str(bad_pi),
    ])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_over_the_equation_cap_exits_3(paths, zero_proj, zero_proj_concrete,
                                              monkeypatch, capsys):
    # the m=118 rung (14161 points) is refused; m=23 on scale is not
    assert (2 * 23**2 + 23**3) * 576 < represent.MAX_HOM_EQUATIONS
    assert (2 * 118**2 + 118**3) * 14161 > represent.MAX_HOM_EQUATIONS
    count = (2 * 2**2 + 2**3) * len(build_universe(zero_proj))
    argv = ["verify", "--algebra", paths["conc"], "--target", "triplet",
            "--chi", paths["chi"], "--gamma", paths["gamma"], "--pi", paths["pi"]]
    monkeypatch.setattr(represent, "MAX_HOM_EQUATIONS", count - 1)
    with pytest.raises(CapacityError) as err:
        roundtrip(zero_proj, Target("triplet", *domain_relations(zero_proj_concrete)))
    assert err.value.count == count
    assert main(argv) == 3
    assert f"homomorphism check of {count} equations" in capsys.readouterr().err
    monkeypatch.setattr(represent, "MAX_HOM_EQUATIONS", count)
    assert main(argv) == 0


def test_universe_over_the_cell_cap_exits_3(paths, zero_proj, zero_proj_concrete,
                                            monkeypatch, capsys):
    cells = len(build_universe(zero_proj)) * 2 * (2 * 2 + 2 + 1)  # n=2, m=2
    argv = ["represent", "--algebra", paths["conc"], "--chi", paths["chi"],
            "--point-all", "--out", str(paths["dir"] / "rep.json")]
    monkeypatch.setattr(represent, "MAX_UNIVERSE_CELLS", cells - 1)
    with pytest.raises(CapacityError) as err:
        build_universe(abstract_from_concrete(zero_proj_concrete))
    assert err.value.count == cells
    assert main(argv) == 3
    assert f"needs {cells} substitution cells" in capsys.readouterr().err
    monkeypatch.setattr(represent, "MAX_UNIVERSE_CELLS", cells)
    assert main(argv) == 0


def test_verify_rejects_bounds_below_one(paths, capsys):
    argv = ["verify", "--algebra", paths["conc"], "--target", "triplet",
            "--chi", paths["chi"], "--gamma", paths["gamma"], "--pi", paths["pi"]]
    for bounds in ("--bounds=-2,-5", "--bounds=0,4", "--bounds=4,0"):
        assert main(argv + [bounds]) == 2
        assert "bounds must be at least 1" in capsys.readouterr().err
    assert main(argv + ["--bounds=1,1"]) == 0


def test_classify_reports_conditions(paths, capsys):
    assert main(["classify", "--algebra", paths["conc"], "--target",
                 "single_gamma", "--gamma", paths["gamma"]]) == 0
    assert "T8:" in capsys.readouterr().out


def test_classify_rejects_malformed_relation(paths, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "mengerkit-relation-v1", "size": 2, '
                   '"matrix": [[1, 0]]}')
    code = main(["classify", "--algebra", paths["alg"], "--target",
                 "single_chi", "--chi", str(bad)])
    assert code == 2


def test_represent_and_reload(paths, tmp_path, zero_proj):
    chi0_path = tmp_path / "chi0.json"
    save_relation(build_closure(zero_proj, "chi0"), str(chi0_path))
    out = tmp_path / "rep.json"
    assert main(["represent", "--algebra", paths["alg"], "--chi",
                 str(chi0_path), "--gamma", paths["gamma"],
                 "--out", str(out)]) == 0
    from mengerkit import representation_relations
    from mengerkit.fileio import load_representation
    rep = load_representation(str(out))
    chi_p, _, _ = representation_relations(rep)
    assert chi_p == build_closure(zero_proj, "chi0")


def test_represent_rejects_invalid_chi(paths, tmp_path):
    bad_chi = tmp_path / "diag.json"
    save_relation(BinRelation.diagonal(2), str(bad_chi))
    code = main(["represent", "--algebra", paths["alg"], "--chi",
                 str(bad_chi), "--point-all", "--out",
                 str(tmp_path / "rep.json")])
    assert code == 2


def test_oracle_command(paths, tmp_path, zero_proj):
    out = tmp_path / "least.json"
    assert main(["oracle", "--algebra", paths["alg"], "--out", str(out)]) == 0
    from mengerkit.fileio import load_relation
    assert load_relation(str(out)) == build_closure(zero_proj, "chi0")


def test_generate_is_deterministic(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for out_dir in (dir_a, dir_b):
        assert main(["generate", "--n", "2", "--base", "2", "--gens", "1",
                     "--seed", "5", "--count", "2",
                     "--out-dir", str(out_dir)]) == 0
    for name in ("instance-5.json", "instance-6.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_generate_over_the_table_caps_exits_2(tmp_path, capsys):
    # 3**40 cells, and arity 33 (a file the loader would refuse)
    for n, base in (("40", "3"), ("33", "1")):
        assert main(["generate", "--n", n, "--base", base, "--gens", "1",
                     "--seed", "0", "--out-dir", str(tmp_path / n)]) == 2
        assert "table caps" in capsys.readouterr().err
        assert not (tmp_path / n).exists() or not any((tmp_path / n).iterdir())


def test_json_report_is_byte_stable(paths, capsys):
    main(["check", "--algebra", paths["alg"], "--json"])
    first = capsys.readouterr().out
    main(["check", "--algebra", paths["alg"], "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_missing_file_is_input_error(tmp_path):
    assert main(["check", "--algebra", str(tmp_path / "nope.json")]) == 2


def test_flavor_override_takes_plain_reduct(paths, capsys):
    assert main(["check", "--algebra", paths["alg"], "--flavor", "plain"]) == 0
    out = capsys.readouterr().out
    assert "menger-identities" not in out


def test_law_gate_refuses_subtraction_mod_3(tmp_path, capsys):
    size = 3
    doc = {"format": "mengerkit-algebra-v1", "kind": "abstract",
           "flavor": "plain", "n": 1, "size": size,
           "mann": [[[(x - y) % size for y in range(size)] for x in range(size)]]}
    alg = tmp_path / "sub3.json"
    alg.write_text(json.dumps(doc))
    full = tmp_path / "full.json"
    save_relation(BinRelation.full(size), str(full))
    rel = str(full)
    runs = [
        ["closure", "--kind", "chi0-bullet"],
        ["classify", "--target", "single_pi", "--pi", rel],
        ["represent", "--chi", rel, "--point-all", "--out", str(tmp_path / "rep.json")],
        ["verify", "--target", "single_chi", "--chi", rel],
        ["oracle"],
    ]
    for argv in runs:
        assert main(argv + ["--algebra", str(alg)]) == 2, argv
        captured = capsys.readouterr()
        assert "associativity:1" in captured.err
        assert "PASS" not in captured.out
    assert main(["check", "--algebra", str(alg)]) == 1
    assert "FAIL associativity" in capsys.readouterr().out


def test_oracle_capacity_exit_code(tmp_path):
    size = 5
    table = [[0] * size for _ in range(size)]
    doc = {"format": "mengerkit-algebra-v1", "kind": "abstract",
           "flavor": "plain", "n": 1, "size": size, "mann": [table]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", "--algebra", str(path)]) == 3


def test_console_entry_point(paths):
    import os
    import subprocess
    import sys

    import mengerkit
    # the subprocess imports the same mengerkit package as this test
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(mengerkit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root,
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "mengerkit.cli", "check", "--algebra",
         paths["alg"]],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "PASS representability" in result.stdout


def test_mann_that_is_not_a_list_exits_2(tmp_path, capsys):
    doc = {"format": "mengerkit-algebra-v1", "kind": "abstract", "n": 1,
           "size": 2, "flavor": "plain", "mann": 5}
    alg = tmp_path / "mann5.json"
    alg.write_text(json.dumps(doc))
    assert main(["check", "--algebra", str(alg)]) == 2
    assert "mann" in capsys.readouterr().err


def test_check_reports_a_concrete_file_that_is_not_closed(tmp_path, capsys):
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3,
                                             generator_count=1, seed=8))
    assert len(conc) == 18
    path = tmp_path / "open.json"
    save_algebra(ConcreteAlgebra(2, 3, conc.functions[:-1], "menger"), str(path))
    assert main(["check", "--algebra", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "FAIL concrete-closure (f0 *1 f16)\n" and not captured.err
    assert main(["check", "--algebra", str(path), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdicts"] == [{"name": "concrete-closure", "ok": False,
                                "detail": "f0 *1 f16"}]
