"""Acceptance criteria, one test per criterion, each printing a verdict line.

Everything here is exact discrete mathematics: no tolerances, only equality
and stated runtime budgets.  Batteries are deterministic (seed-scanned) and
shared across criteria through session fixtures.
"""

from __future__ import annotations

import random
import time
from itertools import product

import pytest

from mengerkit import (
    AbstractAlgebra,
    BinRelation,
    EMPTY,
    Target,
    abstract_from_concrete,
    build_closure,
    build_universe,
    check_associativity,
    check_menger_identities,
    check_representability,
    domain_relations,
    enumerate_relations,
    identity_representation,
    is_faithful,
    is_l_regular,
    is_v_negative,
    is_zero_quasi_equivalence,
    least_quasiorder_oracle,
    representation_relations,
    roundtrip,
    sum_over_pairs,
    sum_representations,
    verify_conditions,
    verify_homomorphism,
    word_system_crosscheck,
)

from oracles import apply_word, slot_occupants, slot_occupants_generic, sup_at

MENGER_TARGET_IDS = {"T1", "T1a", "T2", "T4", "T5", "T6", "T8"}
PLAIN_TARGET_IDS = {"T1", "T1a", "T11", "T4", "T5", "T6", "T12"}


def target_suite(chi, gamma, pi):
    return [
        Target("triplet", chi=chi, gamma=gamma, pi=pi),
        Target("pair_chi_gamma", chi=chi, gamma=gamma),
        Target("pair_gamma_pi", gamma=gamma, pi=pi),
        Target("pair_chi_pi", chi=chi, pi=pi),
        Target("single_chi", chi=chi),
        Target("single_gamma", gamma=gamma),
        Target("single_pi", pi=pi),
    ]


@pytest.fixture(scope="session")
def necessity(menger_battery, plain_battery):
    start = time.monotonic()
    failures = []
    for conc in menger_battery:
        alg = abstract_from_concrete(conc)
        if check_associativity(alg) is not None:
            failures.append((conc, "associativity"))
        if check_menger_identities(alg) is not None:
            failures.append((conc, "identities"))
        if check_representability(alg) is not None:
            failures.append((conc, "representability"))
        chi, gamma, pi = domain_relations(conc)
        for target in target_suite(chi, gamma, pi):
            report = verify_conditions(alg, target)
            if not report.ok:
                failures.append((conc, target.kind, report.failing()))
    for conc in plain_battery:
        alg = abstract_from_concrete(conc)
        if check_associativity(alg) is not None:
            failures.append((conc, "associativity"))
        if check_representability(alg) is not None:
            failures.append((conc, "representability"))
        chi, gamma, pi = domain_relations(conc)
        for target in target_suite(chi, gamma, pi):
            report = verify_conditions(alg, target)
            if not report.ok:
                failures.append((conc, target.kind, report.failing()))
    return {"failures": failures, "seconds": time.monotonic() - start}


@pytest.fixture(scope="session")
def sufficiency(menger_battery, plain_battery):
    start = time.monotonic()
    verdicts = []
    for conc in menger_battery + plain_battery:
        alg = abstract_from_concrete(conc)
        chi, gamma, pi = domain_relations(conc)
        for target in target_suite(chi, gamma, pi):
            verdict = roundtrip(alg, target, concrete=conc)
            verdicts.append((conc, alg, verdict))
    return {"verdicts": verdicts, "seconds": time.monotonic() - start}


def test_criterion_1_slot_occupant_reproduction():
    start = time.perf_counter()
    word = ((1, "x"), (0, "y"), (2, "z"))  # slots 2, 1, 3 in 1-based terms
    occ = slot_occupants_generic(word, 4, lambda v, s, y: ("op", s, v, y))
    elapsed = time.perf_counter() - start
    assert occ[0] == ("op", 2, "y", "z")                      # y *3 z
    assert occ[1] == ("op", 2, ("op", 0, "x", "y"), "z")      # x *1 y *3 z
    assert occ[2] == "z"
    assert occ[3] == EMPTY                                    # slot 4 untouched
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    print(f"\nACCEPTANCE 1 PASS: symbolic slot occupants reproduced "
          f"({elapsed * 1e6:.1f} us)")


def test_criterion_2_necessity_battery(necessity, menger_battery, plain_battery):
    assert len(menger_battery) == 200 and len(plain_battery) == 100
    assert all(len(c) <= 12 and c.base_size <= 3 for c in menger_battery)
    assert necessity["failures"] == []
    assert necessity["seconds"] < 120, f"took {necessity['seconds']:.1f}s"
    print(f"\nACCEPTANCE 2 PASS: necessity on 200 menger + 100 plain instances, "
          f"7 targets each ({necessity['seconds']:.1f}s)")


def test_criterion_3_sufficiency_roundtrips(sufficiency):
    bad = []
    seen_ids = set()
    for conc, alg, verdict in sufficiency["verdicts"]:
        seen_ids.add(verdict.theorem_id)
        if not verdict.conditions.ok or not verdict.roundtrip_attempted:
            bad.append((verdict.theorem_id, "conditions", conc))
        elif not all(ok for _, ok in verdict.equalities):
            bad.append((verdict.theorem_id, verdict.equalities, conc))
    assert bad == []
    assert MENGER_TARGET_IDS | PLAIN_TARGET_IDS <= seen_ids
    assert sufficiency["seconds"] < 300, f"took {sufficiency['seconds']:.1f}s"
    print(f"\nACCEPTANCE 3 PASS: {len(sufficiency['verdicts'])} round-trips, "
          f"exact relation equality ({sufficiency['seconds']:.1f}s)")


def test_criterion_4_homomorphism_and_cross_witness(sufficiency, menger_battery):
    hom_failures = [
        (verdict.theorem_id, verdict.hom_violation)
        for _, _, verdict in sufficiency["verdicts"]
        if verdict.hom_violation is not None
    ]
    assert hom_failures == []
    # cross-witness: universes re-derive point values from an alternative
    # witness word whenever one exists; construction fails loudly otherwise
    exercised = 0
    for conc in menger_battery:
        alg = abstract_from_concrete(conc)
        build_universe(alg)
        if any(s.alt_word is not None for s in alg.states().states):
            exercised += 1
    assert exercised > 0
    checked = sum(1 for _, _, v in sufficiency["verdicts"]
                  if v.representation is not None)
    print(f"\nACCEPTANCE 4 PASS: homomorphism verified on {checked} built "
          f"representations; cross-witness exercised on {exercised} universes")


def test_criterion_5_closure_oracle_equality(small_battery):
    start = time.monotonic()
    assert len(small_battery) == 50
    assert all(len(c) <= 4 for c in small_battery)
    checks = 0
    for conc in small_battery:
        alg = abstract_from_concrete(conc)
        bullet = alg.flavor == "plain"
        kind_pi = "chi_pi_bullet" if bullet else "chi_pi"
        kind_0 = "chi0_bullet" if bullet else "chi0"
        assert build_closure(alg, kind_0) == least_quasiorder_oracle(alg)
        checks += 1
        for pi in enumerate_relations(alg.size, "l_regular_equivalences", alg):
            assert build_closure(alg, kind_pi, pi) == \
                least_quasiorder_oracle(alg, pi)
            checks += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 5 PASS: closure == enumeration oracle on "
          f"{checks} (instance, pi) checks ({elapsed:.1f}s)")


def test_criterion_6_word_system_consistency(menger_battery, plain_battery,
                                             small_battery):
    divergences = []
    count = 0
    for conc in menger_battery + plain_battery + small_battery:
        alg = abstract_from_concrete(conc)
        chi, gamma, pi = domain_relations(conc)
        report = word_system_crosscheck(alg, pi, gamma, 4, 4)
        count += len(report["systems"])
        if report["divergence"]:
            divergences.append((conc, report))
    assert divergences == []
    print(f"\nACCEPTANCE 6 PASS: {count} truncated word-system checks, "
          f"zero divergences at bounds 4,4")


def test_criterion_7_sum_relation_identities(menger_battery):
    instances = [c for c in menger_battery if len(c) >= 2][:50]
    assert len(instances) == 50
    rng = random.Random("partition-battery")
    for conc in instances:
        alg = abstract_from_concrete(conc)
        chi, gamma, _ = domain_relations(conc)
        pairs = list(gamma.pairs())
        if not pairs:
            continue
        rng.shuffle(pairs)
        chunk_count = rng.randint(1, min(3, len(pairs)))
        chunks = [pairs[i::chunk_count] for i in range(chunk_count)]
        parts = [
            sum_over_pairs(alg, chi, BinRelation.from_pairs(alg.size, chunk))
            for chunk in chunks if chunk
        ]
        total = sum_representations(parts)
        chi_p, gamma_p, pi_p = representation_relations(total)
        chi_i = BinRelation.full(alg.size)
        gamma_i = BinRelation.empty(alg.size)
        pi_i = BinRelation.full(alg.size)
        for part in parts:
            c, g, p = representation_relations(part)
            chi_i, gamma_i, pi_i = chi_i & c, gamma_i | g, pi_i & p
        assert (chi_p, gamma_p, pi_p) == (chi_i, gamma_i, pi_i)
        # the undivided sum agrees with the partitioned one
        direct = sum_over_pairs(alg, chi, gamma)
        assert representation_relations(direct) == (chi_p, gamma_p, pi_p)
    print("\nACCEPTANCE 7 PASS: sum relations equal componentwise "
          "intersection/union/intersection on 50 instances")


def test_criterion_8_faithful_augmentation(sufficiency):
    checked = 0
    for conc, alg, verdict in sufficiency["verdicts"]:
        if verdict.target_kind not in ("pair_chi_pi", "single_chi"):
            continue
        assert verdict.faithful is not None
        assert verdict.faithful["ok"], (conc, verdict.faithful)
        checked += 1
    assert checked == 600  # two faithful targets on each of 300 instances
    print(f"\nACCEPTANCE 8 PASS: identity-plus-points sum faithful with "
          f"intersected relations on {checked} round-trips")


# -- criterion 9: negative controls -----------------------------------------


def brute_menger_scan(alg):
    """Definitional re-scan of the superposition laws, independent of the
    library checker: plain loops plus literal word enumeration."""
    m, n = alg.size, alg.arity
    for combo in product(range(m), repeat=2 * n + 1):
        x0, xs, ys = combo[0], combo[1 : n + 1], combo[n + 1 :]
        lhs = sup_at(alg, sup_at(alg, x0, xs), ys)
        rhs = sup_at(alg, x0, tuple(sup_at(alg, x, ys) for x in xs))
        if lhs != rhs:
            return ("superassociativity", combo)
    for slot in range(n):
        for x in range(m):
            for y in range(m):
                for zs in product(range(m), repeat=n):
                    mixed = zs[:slot] + (sup_at(alg, y, zs),) + zs[slot + 1 :]
                    if sup_at(alg, alg.mann[slot][x][y], zs) != sup_at(alg, x, mixed):
                        return ("slot-into-superposition", (slot, x, y, zs))
        for x in range(m):
            for ys in product(range(m), repeat=n):
                for z in range(m):
                    shifted = tuple(alg.mann[slot][yk][z] for yk in ys)
                    if alg.mann[slot][sup_at(alg, x, ys)][z] != sup_at(alg, x, shifted):
                        return ("superposition-into-slot", (slot, x, ys, z))
    steps = [(s, y) for s in range(n) for y in range(m)]
    words = [()]
    for _ in range(4):
        words = [w + (st,) for w in words for st in steps]
        for word in words:
            occ = slot_occupants(alg, word)
            if EMPTY in occ:
                continue
            for x in range(m):
                if apply_word(alg, x, word) != sup_at(alg, x, occ):
                    return ("word-superposition", (word, x))
    return None


def verify_identity_witness(alg, violation):
    law, witness = violation.law, violation.witness
    if law == "superassociativity":
        xs, ys = witness
        lhs = sup_at(alg, sup_at(alg, xs[0], xs[1:]), ys)
        rhs = sup_at(alg, xs[0], tuple(sup_at(alg, x, ys) for x in xs[1:]))
        return lhs != rhs
    if law.startswith("slot-into-superposition"):
        slot = int(law.split(":")[1]) - 1
        x, y, zs = witness
        mixed = zs[:slot] + (sup_at(alg, y, zs),) + zs[slot + 1 :]
        return sup_at(alg, alg.mann[slot][x][y], zs) != sup_at(alg, x, mixed)
    if law.startswith("superposition-into-slot"):
        slot = int(law.split(":")[1]) - 1
        x, ys, z = witness
        shifted = tuple(alg.mann[slot][yk][z] for yk in ys)
        return alg.mann[slot][sup_at(alg, x, ys)][z] != sup_at(alg, x, shifted)
    if law == "word-superposition":
        word, x = witness
        occ = slot_occupants(alg, word)
        return apply_word(alg, x, word) != sup_at(alg, x, occ)
    return False


def test_criterion_9a_perturbed_tables_flagged(zero_proj, menger_battery):
    sources = [zero_proj] + [
        abstract_from_concrete(c) for c in menger_battery
        if 2 <= len(c) <= 4
    ][:6]
    flagged = 0
    candidates = 0
    for alg in sources:
        m, n = alg.size, alg.arity
        cells = list(product(range(m), repeat=n + 1))
        for head, *args in cells:
            for delta in range(1, m):
                sup = [
                    [[sup_at(alg, g, (a, b)) for b in range(m)] for a in range(m)]
                    for g in range(m)
                ]
                args_t = tuple(args)
                old = sup[head][args_t[0]][args_t[1]]
                sup[head][args_t[0]][args_t[1]] = (old + delta) % m
                perturbed = AbstractAlgebra(n, m, alg.mann, sup, None, "menger")
                candidates += 1
                violation = check_menger_identities(perturbed)
                brute = brute_menger_scan(perturbed)
                assert (violation is None) == (brute is None)
                if violation is not None:
                    assert verify_identity_witness(perturbed, violation)
                    flagged += 1
            if flagged >= 12:
                break
        if flagged >= 12:
            break
    assert flagged >= 12, f"only {flagged} of {candidates} perturbations flagged"

    # representability violators from the exhaustive two-element pool
    ops = [tuple(tuple(t[2 * a + b] for b in range(2)) for a in range(2))
           for t in product(range(2), repeat=4)]
    assoc = [t for t in ops
             if all(t[t[x][y]][z] == t[x][t[y][z]]
                    for x in range(2) for y in range(2) for z in range(2))]
    rep_flagged = 0
    for m1 in assoc:
        for m2 in assoc:
            alg = AbstractAlgebra(2, 2, (m1, m2), None, None, "plain")
            violation = check_representability(alg)
            if violation is None:
                continue
            w1, w2, g, a1, a2 = violation.witness
            assert slot_occupants(alg, w1) == slot_occupants(alg, w2)
            assert apply_word(alg, g, w1) == a1 != a2 == apply_word(alg, g, w2)
            rep_flagged += 1
    assert flagged + rep_flagged >= 20
    print(f"\nACCEPTANCE 9a PASS: {flagged} identity perturbations and "
          f"{rep_flagged} representability violators flagged with verified "
          f"witnesses")


def truncated_composite_pairs(alg):
    """(word result, slot occupant) pairs of every word up to length 4, by
    literal enumeration: an independent word-truncated view of v-negativity,
    built once per algebra and checked against each perturbed relation."""
    steps = [(s, y) for s in range(alg.arity) for y in range(alg.size)]
    pairs = set()
    words = [()]
    for _ in range(4):
        words = [w + (st,) for w in words for st in steps]
        for word in words:
            occupants = [v for v in slot_occupants(alg, word) if v != EMPTY]
            for x in range(alg.size):
                result = apply_word(alg, x, word)
                pairs.update((result, v) for v in occupants)
    return pairs


def test_criterion_9b_relation_negatives_rejected(menger_battery):
    instances = [c for c in menger_battery if len(c) >= 2][:10]
    rejected = {"l-regular": 0, "v-negative": 0, "zero-quasi-equivalence": 0}
    rng = random.Random("relation-negatives")
    for conc in instances:
        alg = abstract_from_concrete(conc)
        chi, gamma, _ = domain_relations(conc)
        m = alg.size
        composite_pairs = truncated_composite_pairs(alg)
        for _ in range(12):
            a, b = rng.randrange(m), rng.randrange(m)
            flipped_chi = BinRelation(
                m, tuple(row ^ (1 << b) if i == a else row
                         for i, row in enumerate(chi.rows)))
            violation = is_l_regular(flipped_chi, alg)
            if violation is not None:
                x, y, z = violation.witness[:3]
                slot = int(violation.law.split(":")[1]) - 1 \
                    if "slot" in violation.law else None
                assert flipped_chi.contains(x, y)
                if slot is not None:
                    assert not flipped_chi.contains(
                        alg.mann[slot][x][z], alg.mann[slot][y][z])
                rejected["l-regular"] += 1
            violation = is_v_negative(flipped_chi, alg)
            if violation is not None:
                if violation.law == "v-negative-word":
                    word, slot1, x = violation.witness
                    occ = slot_occupants(alg, word)[slot1 - 1]
                    assert not flipped_chi.contains(
                        apply_word(alg, x, word), occ)
                rejected["v-negative"] += 1
            else:
                assert all(flipped_chi.contains(u, v) for u, v in composite_pairs)
            flipped_gamma = BinRelation(
                m, tuple(row ^ (1 << b) if i == a else row
                         for i, row in enumerate(gamma.rows)))
            violation = is_zero_quasi_equivalence(flipped_gamma, alg)
            if violation is not None:
                if violation.law == "symmetry":
                    x, y = violation.witness
                    assert flipped_gamma.contains(x, y)
                    assert not flipped_gamma.contains(y, x)
                else:
                    (g,) = violation.witness
                    assert not flipped_gamma.contains(g, g)
                rejected["zero-quasi-equivalence"] += 1
    total = sum(rejected.values())
    assert total >= 20 and all(count > 0 for count in rejected.values()), rejected
    print(f"\nACCEPTANCE 9b PASS: {total} perturbed relations rejected with "
          f"verified witnesses {rejected}")


def test_criterion_10_exhaustive_micro_verification():
    start = time.monotonic()
    ops = [tuple(tuple(t[2 * a + b] for b in range(2)) for a in range(2))
           for t in product(range(2), repeat=4)]
    assoc = [t for t in ops
             if all(t[t[x][y]][z] == t[x][t[y][z]]
                    for x in range(2) for y in range(2) for z in range(2))]
    algebras = [
        alg for alg in (
            AbstractAlgebra(2, 2, (m1, m2), None, None, "plain")
            for m1 in assoc for m2 in assoc)
        if check_representability(alg) is None
    ]
    assert len(algebras) > 0
    relations = list(enumerate_relations(2, "all"))
    passing = built = 0
    for alg in algebras:
        suites = [
            ("triplet", [dict(chi=c, gamma=g, pi=p)
                         for c in relations for g in relations for p in relations]),
            ("pair_chi_gamma", [dict(chi=c, gamma=g)
                                for c in relations for g in relations]),
            ("pair_gamma_pi", [dict(gamma=g, pi=p)
                               for g in relations for p in relations]),
            ("pair_chi_pi", [dict(chi=c, pi=p)
                             for c in relations for p in relations]),
            ("single_chi", [dict(chi=c) for c in relations]),
            ("single_gamma", [dict(gamma=g) for g in relations]),
            ("single_pi", [dict(pi=p) for p in relations]),
        ]
        for kind, combos in suites:
            for rels in combos:
                target = Target(kind, **rels)
                if not verify_conditions(alg, target).ok:
                    continue
                passing += 1
                verdict = roundtrip(alg, target)
                assert verdict.ok, (kind, rels, verdict.equalities)
                built += 1
                chi_p, gamma_p, pi_p = representation_relations(
                    verdict.representation)
                derived = Target(
                    kind,
                    chi=chi_p if target.chi is not None else None,
                    gamma=gamma_p if target.gamma is not None else None,
                    pi=pi_p if target.pi is not None else None)
                assert verify_conditions(alg, derived).ok
    elapsed = time.monotonic() - start
    assert passing == built > 0
    assert elapsed < 300, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 10 PASS: {len(algebras)} exhaustively enumerated "
          f"two-element tables, {passing} condition-passing targets, all "
          f"round-trips exact ({elapsed:.1f}s)")
