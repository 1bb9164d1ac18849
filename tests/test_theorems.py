import random

import pytest

from mengerkit import (
    BinRelation,
    CapacityError,
    GeneratorConfig,
    InputError,
    Target,
    abstract_from_concrete,
    build_closure,
    domain_relations,
    enumerate_relations,
    generate_concrete,
    identity_representation,
    least_quasiorder_oracle,
    roundtrip,
    seed_relations,
    verify_conditions,
    word_system_crosscheck,
)
from mengerkit import fileio, tables, theorems
from mengerkit.theorems import TARGET_KINDS


def rel(size, pairs):
    return BinRelation.from_pairs(size, pairs)


def test_target_requires_its_relations():
    with pytest.raises(InputError):
        Target("triplet", chi=BinRelation.full(2))
    with pytest.raises(InputError):
        Target("bogus")


def test_conditions_pass_on_transported_triplet(zero_proj, zero_proj_concrete):
    chi, gamma, pi = domain_relations(zero_proj_concrete)
    report = verify_conditions(zero_proj, Target("triplet", chi=chi, gamma=gamma, pi=pi))
    assert report.ok
    assert report.theorem_id == "T1"


def test_conditions_fail_with_full_pi(zero_proj):
    chi0 = build_closure(zero_proj, "chi0")
    report = verify_conditions(
        zero_proj,
        Target("triplet", chi=chi0, gamma=rel(2, [(1, 1)]), pi=BinRelation.full(2)))
    assert not report.ok
    assert [r.name for r in report.failing()] == ["pi-is-chi-kernel"]


def test_conditions_on_one_element(one_elem):
    diag = BinRelation.diagonal(1)
    for kind, rels in [
        ("triplet", dict(chi=diag, gamma=diag, pi=diag)),
        ("pair_chi_gamma", dict(chi=diag, gamma=diag)),
        ("pair_gamma_pi", dict(gamma=diag, pi=diag)),
        ("pair_chi_pi", dict(chi=diag, pi=diag)),
        ("single_chi", dict(chi=diag)),
        ("single_gamma", dict(gamma=diag)),
        ("single_pi", dict(pi=diag)),
    ]:
        assert verify_conditions(one_elem, Target(kind, **rels)).ok


def test_closure_dependent_conditions_skip_on_bad_pi(zero_proj):
    report = verify_conditions(
        zero_proj, Target("pair_gamma_pi", gamma=rel(2, [(1, 1)]),
                          pi=rel(2, [(0, 1), (0, 0), (1, 1)])))
    assert not report.ok
    names = [r.name for r in report.failing()]
    assert "pi-equivalence" in names
    assert "pi-closure-antisymmetry" in names  # reported, not evaluated


def test_roundtrip_triplet(zero_proj):
    chi0 = build_closure(zero_proj, "chi0")
    verdict = roundtrip(zero_proj, Target(
        "triplet", chi=chi0, gamma=rel(2, [(1, 1)]), pi=BinRelation.diagonal(2)))
    assert verdict.ok and verdict.roundtrip_attempted
    assert dict(verdict.equalities) == {
        "chi == chi_P": True, "gamma == gamma_P": True, "pi == pi_P": True}
    assert verdict.hom_violation is None


def test_roundtrip_chi_pi_with_faithful(one_elem, zero_proj, zero_proj_concrete):
    diag = BinRelation.diagonal(1)
    verdict = roundtrip(one_elem, Target("pair_chi_pi", chi=diag, pi=diag))
    assert verdict.ok

    chi, _, pi = domain_relations(zero_proj_concrete)
    verdict = roundtrip(zero_proj, Target("pair_chi_pi", chi=chi, pi=pi),
                        concrete=zero_proj_concrete)
    assert verdict.ok
    assert verdict.faithful is not None and verdict.faithful["ok"]


def test_roundtrip_single_chi_faithful(zero_proj, zero_proj_concrete):
    chi, _, _ = domain_relations(zero_proj_concrete)
    verdict = roundtrip(zero_proj, Target("single_chi", chi=chi),
                        concrete=zero_proj_concrete)
    assert verdict.ok and verdict.faithful["ok"]


def test_faithful_summand_is_built_once(monkeypatch):
    # both faithful targets share the identity representation kept with
    # the concrete algebra
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3, generator_count=1, seed=8))
    alg = abstract_from_concrete(conc)
    chi, _, pi = domain_relations(conc)
    built = []
    monkeypatch.setattr(theorems, "identity_representation",
                        lambda c: built.append(c) or identity_representation(c))
    for kind in ("pair_chi_pi", "single_chi"):
        verdict = roundtrip(alg, Target(kind, chi=chi, pi=pi), concrete=conc)
        assert verdict.ok and verdict.faithful["ok"]
    assert built == [conc]


def test_roundtrip_skipped_when_conditions_fail(zero_proj):
    verdict = roundtrip(zero_proj, Target("single_chi", chi=BinRelation.diagonal(2)))
    assert not verdict.ok
    assert not verdict.roundtrip_attempted
    assert verdict.representation is None


def test_roundtrip_all_targets_on_plain(zero_proj_plain, zero_proj_plain_concrete):
    chi, gamma, pi = domain_relations(zero_proj_plain_concrete)
    for kind, rels in [
        ("pair_gamma_pi", dict(gamma=gamma, pi=pi)),
        ("single_gamma", dict(gamma=gamma)),
        ("triplet", dict(chi=chi, gamma=gamma, pi=pi)),
    ]:
        verdict = roundtrip(zero_proj_plain, Target(kind, **rels))
        assert verdict.ok, (kind, verdict.equalities)
        assert verdict.theorem_id in ("T11", "T12", "T1")


def test_theorem_ids_follow_flavor(zero_proj, zero_proj_plain):
    gamma = rel(2, [(1, 1)])
    assert verify_conditions(
        zero_proj, Target("single_gamma", gamma=gamma)).theorem_id == "T8"
    assert verify_conditions(
        zero_proj_plain, Target("single_gamma", gamma=gamma)).theorem_id == "T12"


# -- oracle -------------------------------------------------------------


def test_oracle_equals_closure_on_fixture(zero_proj):
    assert least_quasiorder_oracle(zero_proj) == build_closure(zero_proj, "chi0")


def test_oracle_one_element(one_elem):
    assert least_quasiorder_oracle(one_elem) == BinRelation.diagonal(1)


def test_oracle_with_full_pi(zero_proj):
    assert least_quasiorder_oracle(zero_proj, BinRelation.full(2)) == \
        BinRelation.full(2)


def test_oracle_cap():
    from mengerkit import AbstractAlgebra
    table = tuple(tuple(0 for _ in range(5)) for _ in range(5))
    alg = AbstractAlgebra(1, 5, (table,), None, None, "plain")
    with pytest.raises(CapacityError):
        least_quasiorder_oracle(alg, cap=4)


def test_closure_monotone_in_pi(small_battery):
    for conc in small_battery[:12]:
        alg = abstract_from_concrete(conc)
        bullet = alg.flavor == "plain"
        kind_pi = "chi_pi_bullet" if bullet else "chi_pi"
        kind_0 = "chi0_bullet" if bullet else "chi0"
        least = build_closure(alg, kind_0)
        trans, comp = seed_relations(alg)
        for pi in enumerate_relations(alg.size, "l_regular_equivalences", alg):
            closure = build_closure(alg, kind_pi, pi)
            assert pi.issubset(closure)
            assert comp.issubset(closure)
            if trans is not None:
                assert trans.issubset(closure)
            assert least.issubset(closure)


# -- word-system cross-checks -------------------------------------------


def test_crosscheck_consistent_on_fixture(zero_proj):
    report = word_system_crosscheck(
        zero_proj, BinRelation.diagonal(2), rel(2, [(1, 1)]), 4, 4)
    assert not report["divergence"]
    assert set(report["systems"]) == {"A", "B", "C"}
    for entry in report["systems"].values():
        assert entry["exact"] and entry["truncated"]


def test_crosscheck_one_element(one_elem):
    diag = BinRelation.diagonal(1)
    report = word_system_crosscheck(one_elem, diag, diag)
    assert not report["divergence"]


def test_crosscheck_plain_uses_bullet_systems(zero_proj_plain,
                                              zero_proj_plain_concrete):
    _, gamma, pi = domain_relations(zero_proj_plain_concrete)
    report = word_system_crosscheck(zero_proj_plain, pi, gamma)
    assert set(report["systems"]) == {"A_bullet", "B_bullet", "C_bullet"}
    assert not report["divergence"]


def test_crosscheck_flags_nothing_on_failing_exact_conditions():
    # left projection tables: the exact antisymmetry condition fails, and
    # the truncated systems must fail with it (consistency, not divergence)
    from mengerkit import AbstractAlgebra
    left = ((0, 0), (1, 1))
    alg = AbstractAlgebra(2, 2, (left, left), None, None, "plain")
    diag = BinRelation.diagonal(2)
    report = word_system_crosscheck(alg, diag, diag)
    entry = report["systems"]["A_bullet"]
    assert not entry["exact"] and not entry["truncated"]
    assert entry["consistent"]
    assert not report["divergence"]


def test_point_sum_reproduces_every_valid_order(small_battery):
    # the single-anchor sum hits chi and its kernel exactly, for every
    # l-regular v-negative quasi-order on the carrier, not just domain ones
    from mengerkit import representation_relations, sum_over_points
    for conc in small_battery[:10]:
        alg = abstract_from_concrete(conc)
        for chi in enumerate_relations(alg.size, "quasi_orders"):
            from mengerkit import is_l_regular, is_v_negative
            if is_l_regular(chi, alg) is not None:
                continue
            if is_v_negative(chi, alg) is not None:
                continue
            rep = sum_over_points(alg, chi)
            chi_p, _, pi_p = representation_relations(rep)
            assert chi_p == chi
            assert pi_p == chi & chi.transpose()


# -- round-trips kept with the algebra ------------------------------------


def verdict_view(verdict):
    """Everything a verdict reports, the representation's parts included,
    as plain values."""
    rep = verdict.representation
    parts = None if rep is None else [
        (part.labels, part.universe.points, part.assign.tolist()) for part in rep.parts]
    conditions = verdict.conditions
    return (verdict.theorem_id, verdict.target_kind, verdict.flavor,
            conditions.results, conditions.derived, verdict.roundtrip_attempted,
            verdict.equalities, verdict.hom_violation, verdict.faithful, parts)


def loaded(conc, rels):
    """A freshly loaded copy of conc, its abstraction and copies of rels."""
    conc = fileio.algebra_from_doc(fileio.algebra_to_doc(conc))
    return conc, abstract_from_concrete(conc), {
        name: fileio.relation_from_doc(fileio.relation_to_doc(r)) for name, r in rels.items()}


def kept_roundtrips_match_fresh(conc, rels):
    """Every target's round-trip on one algebra, forward, backward and each
    one twice, against each target alone on a freshly loaded copy."""
    alg = abstract_from_concrete(conc)

    def target(kind, rels):
        names = theorems._TARGETS[kind][0]
        return Target(kind, **{name: rels[name] for name in names})

    fresh = {}
    for kind in TARGET_KINDS:
        copy_conc, copy_alg, copy_rels = loaded(conc, rels)
        fresh[kind] = verdict_view(roundtrip(copy_alg, target(kind, copy_rels),
                                             concrete=copy_conc))
    # the backward runs take an equal copy of the concrete origin
    other, _, _ = loaded(conc, rels)
    for kinds, origin in ((TARGET_KINDS, conc), (TARGET_KINDS[::-1], other)):
        for kind in kinds:
            for _ in range(2):
                verdict = roundtrip(alg, target(kind, rels), concrete=origin)
                assert verdict_view(verdict) == fresh[kind], kind
    return alg


def roundtrip_instances(menger_battery, plain_battery):
    """20 battery-sized algebras, both flavors, and the m=18 and m=23 ones."""
    return menger_battery[:12] + plain_battery[:8] + [
        generate_concrete(GeneratorConfig(arity=2, base_size=3, generator_count=1, seed=8)),
        generate_concrete(GeneratorConfig(arity=2, base_size=3, generator_count=1, seed=56,
                                          closure_cap=26))]


def test_kept_roundtrips_equal_fresh_ones(menger_battery, plain_battery):
    instances = roundtrip_instances(menger_battery, plain_battery)
    assert [len(conc) for conc in instances[-2:]] == [18, 23]
    for conc in instances:
        rels = dict(zip(("chi", "gamma", "pi"), domain_relations(conc)))
        alg = kept_roundtrips_match_fresh(conc, rels)
        # targets with one anchor and gamma share one representation
        chi, gamma, pi = rels["chi"], rels["gamma"], rels["pi"]
        one = roundtrip(alg, Target("triplet", chi=chi, gamma=gamma, pi=pi))
        two = roundtrip(alg, Target("pair_gamma_pi", gamma=gamma, pi=pi))
        assert one.ok and one.representation is two.representation


def perturbed(rels, rng):
    """rels with one pair of each relation flipped, at random."""
    out = {}
    for name, r in rels.items():
        matrix = r.matrix.copy()
        a, b = rng.randrange(r.size), rng.randrange(r.size)
        matrix[a, b] = not matrix[a, b]
        out[name] = BinRelation.from_array(matrix)
    return out


def test_kept_roundtrips_equal_fresh_ones_on_perturbed_relations(menger_battery,
                                                                 plain_battery):
    rng = random.Random(25)
    failing = attempted = 0
    for conc in roundtrip_instances(menger_battery, plain_battery):
        rels = perturbed(dict(zip(("chi", "gamma", "pi"), domain_relations(conc))), rng)
        alg = kept_roundtrips_match_fresh(conc, rels)
        for kind in TARGET_KINDS:
            names = theorems._TARGETS[kind][0]
            verdict = roundtrip(alg, Target(kind, **{name: rels[name] for name in names}))
            failing += any(r.witness is not None for r in verdict.conditions.failing())
            attempted += verdict.roundtrip_attempted
    # failing conditions with witnesses, and round-trips, come from the memo
    assert failing and attempted


def test_capacity_error_is_raised_on_every_call(monkeypatch):
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3, generator_count=1, seed=8))
    alg = abstract_from_concrete(conc)
    chi, gamma, pi = domain_relations(conc)
    target = Target("triplet", chi=chi, gamma=gamma, pi=pi)
    monkeypatch.setattr(tables, "MAX_EQUATIONS", 1)
    for _ in range(2):
        with pytest.raises(CapacityError, match="homomorphism check"):
            roundtrip(alg, target)
    monkeypatch.undo()
    verdict = roundtrip(alg, target)
    fresh = abstract_from_concrete(conc)
    assert verdict.ok and verdict_view(verdict) == verdict_view(roundtrip(fresh, target))
