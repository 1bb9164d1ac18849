import json
import os
import resource
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from mengerkit import (
    BinRelation,
    CapacityError,
    ClosureCapError,
    ConcreteAlgebra,
    GeneratorConfig,
    PartialFunction,
    Target,
    abstract_from_concrete,
    build_closure,
    build_universe,
    check_associativity,
    check_menger_identities,
    close_under_operations,
    domain_relations,
    generate_concrete,
    is_l_regular,
    roundtrip,
    sum_over_pairs,
)
from mengerkit import algebra, represent, tables
from mengerkit.cli import main
from mengerkit.fileio import ALGEBRA_FORMAT, representation_to_doc, save_algebra, save_relation

import golden_reports


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
    # compared equations: n * m**2 per point and m**(n+1) per distinct word
    # column; the m=108 rung (11 881 points, 5488 columns) is refused, the
    # m=81 rung (6724 points, 625 columns) is not
    assert 2 * 81**2 * 6724 + 81**3 * 625 < tables.MAX_EQUATIONS
    assert 2 * 108**2 * 11881 + 108**3 * 5488 > tables.MAX_EQUATIONS
    chi, gamma, _ = domain_relations(zero_proj_concrete)
    parts = sum_over_pairs(zero_proj, chi, gamma).parts
    assert len(represent._groups(parts)) == 1
    # a point's word column is its column of the parts' values stacked
    columns = {column.tobytes() for column in np.concatenate([p.assign for p in parts]).T}
    count = 2 * 2**2 * len(build_universe(zero_proj)) + 2**3 * len(columns)
    argv = ["verify", "--algebra", paths["conc"], "--target", "triplet",
            "--chi", paths["chi"], "--gamma", paths["gamma"], "--pi", paths["pi"]]
    # the one cap is also the law phases', whose counts here are at most 64
    monkeypatch.setattr(tables, "MAX_EQUATIONS", count - 1)
    with pytest.raises(CapacityError) as err:
        roundtrip(zero_proj, Target("triplet", *domain_relations(zero_proj_concrete)))
    assert err.value.count == count
    assert main(argv) == 3
    assert f"homomorphism check of {count} equations" in capsys.readouterr().err
    monkeypatch.setattr(tables, "MAX_EQUATIONS", count)
    assert main(argv) == 0


def test_check_over_the_law_cap_exits_3(paths, zero_proj, monkeypatch, capsys):
    # associativity compares n * m**3 equations, counted before the first pass
    count = 2 * 2**3
    monkeypatch.setattr(tables, "MAX_EQUATIONS", count - 1)
    with pytest.raises(CapacityError) as err:
        check_associativity(zero_proj)
    assert err.value.count == count
    assert main(["check", "--algebra", paths["alg"]]) == 3
    assert f"associativity of {count} equations exceeds the cap" in capsys.readouterr().err
    monkeypatch.setattr(tables, "MAX_EQUATIONS", count)
    assert check_associativity(zero_proj) is None


def test_check_over_the_menger_cap_exits_3(tmp_path, monkeypatch, capsys):
    # at the three superposition generators, superassociativity compares
    # |G| * m**n equations per distinct column of the superposition table,
    # the mixed laws 2 * n * |G| * m**(n+1); on this m=4 algebra both
    # exceed associativity's n * m**3, which runs first under the same cap
    alg = abstract_from_concrete(generate_concrete(GeneratorConfig(
        arity=2, base_size=2, generator_count=1, seed=5)))
    assert alg.size == 4
    assert algebra.superposition_generators(alg).tolist() == [0, 1, 3]
    path = tmp_path / "alg.json"
    save_algebra(alg, str(path))
    columns = {column.tobytes() for column in alg.superposition.reshape(4, 16).T}
    phases = [("superassociativity", 3 * 4**2 * len(columns)), ("mixed laws", 2 * 2 * 3 * 4**3)]
    assert 2 * 4**3 < phases[0][1] < phases[1][1]
    argv = ["check", "--algebra", str(path)]
    for phase, count in phases:
        monkeypatch.setattr(tables, "MAX_EQUATIONS", count - 1)
        with pytest.raises(CapacityError) as err:
            check_menger_identities(alg)
        assert err.value.count == count
        assert main(argv) == 3
        assert f"Menger identities: {phase} of {count} equations" in capsys.readouterr().err
    monkeypatch.setattr(tables, "MAX_EQUATIONS", phases[1][1])
    assert main(argv) == 0


def test_verify_bounds_keep_every_verdict_when_pi_has_no_closure(tmp_path, monkeypatch,
                                                                 capsys):
    # the word systems A and B are judged against pi's closure, which exists
    # only for an l-regular equivalence pi; for any other pi they are left
    # out, and the conditions report what pi breaks
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3, generator_count=1,
                                             seed=8))
    alg, m = abstract_from_concrete(conc), len(conc)
    chi, gamma, _ = domain_relations(conc)
    merges = (BinRelation.from_pairs(m, [(a, a) for a in range(m)] + [(x, y), (y, x)])
              for x, y in combinations(range(m), 2))
    merge = next(pi for pi in merges if is_l_regular(pi, alg) is not None)
    monkeypatch.chdir(tmp_path)
    save_algebra(conc, "alg.json")
    for name, rel in (("chi", chi), ("gamma", gamma), ("merge", merge)):
        save_relation(rel, f"{name}.json")
    cases = [("chi.json", "pi-equivalence"), ("merge.json", "pi-l-regular")]
    for (pi, failed), target in product(cases, ("triplet", "pair_gamma_pi", "single_pi")):
        argv = ["verify", "--algebra", "alg.json", "--target", target, "--chi", "chi.json",
                "--gamma", "gamma.json", "--pi", pi]
        assert main(argv) == 1
        without = capsys.readouterr().out
        assert main(argv + ["--bounds", "4,4"]) == 1
        captured = capsys.readouterr()
        assert not captured.err
        assert captured.out.startswith(without)
        added = captured.out[len(without):].splitlines()
        assert [line.split()[:2] for line in added] == [
            ["PASS", "word-system-C-consistent"]]
        expected = {"triplet": "T1:pi-is-chi-kernel", "pair_gamma_pi": f"T2:{failed}",
                    "single_pi": f"T6:{failed}"}[target]
        assert ["FAIL", expected] in [line.split()[:2] for line in without.splitlines()]


def test_universe_over_the_cell_cap_exits_3(paths, zero_proj, zero_proj_concrete,
                                            monkeypatch, capsys):
    # n=2, m=2: the substitution table, the value table and the all-tuple index
    cells = len(build_universe(zero_proj)) * (2 * (2 + 1) + 2) + 3**2
    argv = ["represent", "--algebra", paths["conc"], "--chi", paths["chi"],
            "--point-all", "--out", str(paths["dir"] / "rep.json")]
    monkeypatch.setattr(tables, "MAX_TABLE_CELLS", cells - 1)
    with pytest.raises(CapacityError) as err:
        build_universe(abstract_from_concrete(zero_proj_concrete))
    assert err.value.count == cells
    assert main(argv) == 3
    assert f"needs {cells} table cells" in capsys.readouterr().err
    monkeypatch.setattr(tables, "MAX_TABLE_CELLS", cells)
    assert main(argv) == 0


def test_representation_file_over_the_cell_cap_exits_3(tmp_path, zero_proj, zero_proj_concrete,
                                                       monkeypatch, capsys):
    # a file holds size * points cells per part, counted before any
    # assignment is formed; through the CLI on the m=23 pairs sum, whose 11
    # parts hold more cells than its universe's tables, which pass under
    # the same cap
    rep = sum_over_pairs(zero_proj, *domain_relations(zero_proj_concrete)[:2])
    count = 2 * len(build_universe(zero_proj)) * len(rep.parts)
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3, generator_count=1,
                                             seed=56, closure_cap=26))
    points = len(build_universe(abstract_from_concrete(conc)))
    cli_count = 23 * points * 11
    assert points * (2 * (23 + 1) + 23) + 24**2 < cli_count
    monkeypatch.chdir(tmp_path)
    save_algebra(conc, "alg.json")
    for name, rel in zip(("chi", "gamma"), domain_relations(conc)):
        save_relation(rel, f"{name}.json")
    argv = ["represent", "--algebra", "alg.json", "--chi", "chi.json", "--gamma", "gamma.json",
            "--out", "rep.json"]
    monkeypatch.setattr(tables, "MAX_TABLE_CELLS", count - 1)
    with pytest.raises(CapacityError) as err:
        representation_to_doc(rep)
    assert err.value.count == count
    monkeypatch.setattr(tables, "MAX_TABLE_CELLS", count)
    assert len(representation_to_doc(rep)["parts"]) == len(rep.parts)
    monkeypatch.setattr(tables, "MAX_TABLE_CELLS", cli_count - 1)
    assert main(argv) == 3
    assert (f"representation file of 11 parts needs {cli_count} table cells"
            in capsys.readouterr().err)
    assert not (tmp_path / "rep.json").exists()
    monkeypatch.setattr(tables, "MAX_TABLE_CELLS", cli_count)
    assert main(argv) == 0


def test_composites_over_the_cell_cap_exit_3(tmp_path, monkeypatch, capsys):
    # [null] and [0] at n=2 on a one-element base: a block holds at most
    # 2**2 rows of one cell, and the abstraction keeps 2 * 2**2 slot and
    # 2**3 superposition indices, which the closure never builds
    functions = [PartialFunction.empty(2, 1), PartialFunction.constant(2, 1, 0)]
    path = tmp_path / "two.json"
    save_algebra(close_under_operations(functions), str(path))
    argv = ["check", "--algebra", str(path)]
    monkeypatch.setattr(tables, "MAX_TABLE_CELLS", 4)
    assert len(close_under_operations(functions)) == 2
    assert main(argv) == 3
    assert ("composite indices of 2 members at arity 2 needs 16 table cells"
            in capsys.readouterr().err)
    monkeypatch.setattr(tables, "MAX_TABLE_CELLS", 3)
    with pytest.raises(CapacityError) as err:
        close_under_operations(functions)
    assert err.value.count == 4 and not isinstance(err.value, ClosureCapError)
    assert "composite blocks of 2 members at arity 2 needs 4 table cells" in str(err.value)
    monkeypatch.setattr(tables, "MAX_TABLE_CELLS", 16)
    assert main(argv) == 0


def test_composites_at_arity_32_exit_3_before_the_first_block(tmp_path):
    # two one-cell members at n=32 have 2**32 composites per superposition
    # head.  Each call runs in a child under a 3 GB address-space limit, so
    # a build that asks for them ends in the child, not in the host's memory
    path = tmp_path / "n32.json"
    path.write_text(json.dumps({"format": ALGEBRA_FORMAT, "kind": "concrete",
                                "flavor": "menger", "n": 32, "base_size": 1,
                                "functions": [[None], [0]]}))
    assert path.stat().st_size == 127

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))

    def cli(*argv):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from mengerkit.cli import main; sys.exit(main())",
             *argv], capture_output=True, text=True, env=env, preexec_fn=limit, timeout=300)
        assert done.returncode == 3, done.stderr
        return done.stderr

    cells = 32 * 2**2 + 2**33
    assert cli("check", "--algebra", str(path)) == (
        f"capacity error: composite indices of 2 members at arity 32 needs {cells} table "
        f"cells, over the cap of {tables.MAX_TABLE_CELLS}\n")
    # seed 8 draws the two members first; the refusal ends the generation
    # instead of sending the forge on to a fresh draw
    out = tmp_path / "generated"
    assert cli("generate", "--n", "32", "--base", "1", "--gens", "2", "--seed", "8",
               "--out-dir", str(out)) == (
        f"capacity error: composite blocks of 2 members at arity 32 needs {2**32} table "
        f"cells, over the cap of {tables.MAX_TABLE_CELLS}\n")
    assert not any(out.iterdir())


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


def test_generate_rejects_a_count_below_one(tmp_path, capsys):
    for count in ("0", "-2"):
        out_dir = tmp_path / count
        assert main(["generate", "--n", "2", "--base", "2", "--gens", "1", "--seed", "3",
                     "--count", count, "--out-dir", str(out_dir)]) == 2
        assert "count must be at least 1" in capsys.readouterr().err
        assert not out_dir.exists()


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


@pytest.mark.parametrize("instance", sorted(golden_reports.INSTANCES))
def test_reports_match_golden(instance, tmp_path, monkeypatch):
    with open(golden_reports.golden_path(instance), encoding="utf-8") as fh:
        golden = json.load(fh)
    monkeypatch.chdir(tmp_path)
    entries = golden_reports.reports(instance)
    assert [e["argv"] for e in entries] == [e["argv"] for e in golden]
    for entry, expected in zip(entries, golden):
        assert entry == expected, " ".join(entry["argv"])
