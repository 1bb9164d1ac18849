"""The array kernels (homomorphism check, Menger and semigroup laws, zero
laws, relation predicates, seed relations, the word-state BFS, and on the
concrete side compositions, closure, closedness, abstraction and domain
relations) against the dense and loop implementations kept in
``oracles``: both must return the same Violation or witness, not only
the same verdict."""

import random
import tracemalloc

import numpy as np
import pytest

from mengerkit import (
    AbstractAlgebra,
    BinRelation,
    CapacityError,
    ConcreteAlgebra,
    GeneratorConfig,
    InputError,
    Representation,
    Target,
    abstract_from_concrete,
    build_universe,
    check_associativity,
    check_menger_identities,
    check_representability,
    close_under_operations,
    domain_relations,
    generate_concrete,
    identity_representation,
    is_faithful,
    is_l_cancellative,
    is_l_regular,
    is_v_negative,
    mann_compose,
    reachable_states,
    representation_relations,
    roundtrip,
    sum_over_pairs,
    sum_over_points,
    sum_representations,
    superpose,
    verify_homomorphism,
)
from mengerkit import algebra, fileio, forge, represent, tables
from mengerkit.algebra import (
    EMPTY,
    StateSpace,
    _holds_at_generators,
    _mixed_law_violation,
    _mixed_laws,
    _shared_slots,
    _superassociativity,
    _zero_law_violation,
    distinct_columns,
    superposition_generators,
    translation_classes,
)
from mengerkit.cli import main
from mengerkit.relations import _least_v_negative, _seed_relations, _word_pairs
from mengerkit.represent import ReprPart
from mengerkit.tables import first_occurrences
from mengerkit.theorems import TARGET_KINDS

from oracles import (
    abstract_by_loops,
    associativity_by_loops,
    close_by_loops,
    closure_violation_by_cells,
    dense_homomorphism_violation,
    domain_relations_by_bits,
    faithful_by_rows,
    first_occurrences_by_dict,
    l_cancellative_by_loops,
    l_regular_by_loops,
    mann_compose_by_cells,
    mixed_law_violation_by_loops,
    reachable_states_by_loops,
    representability_by_groups,
    representation_relations_by_parts,
    seed_relations_by_loops,
    superassociativity_by_heads,
    superassociativity_by_loops,
    superpose_by_cells,
    superposition_closure_by_loops,
    universe_tables_by_dict,
    v_negative_by_loops,
    zero_law_violation_by_loops,
)


def corrupted(rep, k, g, p):
    """rep with cell (g, p) of part k toggled between undefined and 0."""
    parts = list(rep.parts)
    assign = parts[k].assign.copy()
    assign[g, p] = -1 if assign[g, p] >= 0 else 0
    parts[k] = ReprPart(parts[k].universe, assign, parts[k].labels)
    return Representation(rep.size, parts)


def perturbed(alg, rng):
    """alg with one seeded cell of a mann or the superposition table changed."""
    n, m = alg.arity, alg.size
    tables = [np.array(t) for t in alg.mann] + [np.array(alg.superposition)]
    table = tables[rng.integers(n + 1)]
    cell = tuple(rng.integers(m, size=table.ndim))
    table[cell] = (table[cell] + 1 + rng.integers(m - 1)) % m
    return AbstractAlgebra(n, m, [t.tolist() for t in tables[:n]],
                           tables[n].tolist(), flavor="menger")


@pytest.fixture(scope="module")
def m18():
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3,
                                             generator_count=1, seed=8))
    alg = abstract_from_concrete(conc)
    chi, gamma, _ = domain_relations(conc)
    rep = sum_over_pairs(alg, chi, gamma)
    assert alg.size == 18 and len(rep.parts) >= 3
    return alg, rep


def battery_representations(conc):
    """The abstraction of conc, and its identity representation followed
    by the round-trip representation of every target."""
    alg = abstract_from_concrete(conc)
    chi, gamma, pi = domain_relations(conc)
    reps = [identity_representation(conc)]
    for kind in TARGET_KINDS:
        verdict = roundtrip(alg, Target(kind, chi=chi, gamma=gamma, pi=pi))
        assert verdict.representation is not None, kind
        reps.append(verdict.representation)
    return alg, reps


def test_battery_representations_match_dense_check(menger_battery, plain_battery,
                                                    monkeypatch):
    rng = np.random.default_rng(0)
    flagged = 0
    for conc in menger_battery[:8] + plain_battery[:8]:
        alg, reps = battery_representations(conc)
        for rep in reps:
            assert verify_homomorphism(rep, alg) is None
            assert dense_homomorphism_violation(rep, alg) is None
            k = int(rng.integers(len(rep.parts)))
            g = int(rng.integers(rep.size))
            p = int(rng.integers(rep.parts[k].assign.shape[1]))
            broken = corrupted(rep, k, g, p)
            violation = verify_homomorphism(broken, alg)
            assert violation == dense_homomorphism_violation(broken, alg)
            with monkeypatch.context() as patch:
                single_row_blocks(patch)
                assert verify_homomorphism(broken, alg) == violation
            flagged += violation is not None
    assert flagged > 100


def single_row_blocks(monkeypatch):
    """Let each blocked pass take one row: one leading argument per block of
    the equation scan and one head per pass, one row x per block of the
    l-conditions."""
    monkeypatch.setattr(tables, "BLOCK_BYTES", 1)


def test_corrupted_cells_match_dense_check(m18, monkeypatch):
    alg, rep = m18
    rng = np.random.default_rng(18)
    for k in (0, len(rep.parts) // 2, len(rep.parts) - 1):
        count = rep.parts[k].assign.shape[1]
        g, p = int(rng.integers(alg.size)), int(rng.integers(count))
        broken = corrupted(rep, k, g, p)
        violation = verify_homomorphism(broken, alg)
        assert violation is not None
        assert violation == dense_homomorphism_violation(broken, alg)
        with monkeypatch.context() as patch:
            single_row_blocks(patch)
            assert verify_homomorphism(broken, alg) == violation


def test_superposition_witness_order_across_blocks(m18, monkeypatch):
    # three changed superposition cells (head, g1, g2): with one leading
    # argument g1 per block, the first witness (smallest head) sits in a
    # later block than another one, and a still later block holds a third
    alg, rep = m18
    table = np.array(alg.superposition)
    for cell in ((5, 2, 3), (1, 10, 4), (7, 15, 6)):
        table[cell] = (table[cell] + 1) % alg.size
    pert = AbstractAlgebra(2, alg.size, alg.mann, table.tolist(), flavor="menger")
    expected = dense_homomorphism_violation(rep, pert)
    assert expected.witness[:2] == (1, (10, 4))
    assert verify_homomorphism(rep, pert) == expected
    single_row_blocks(monkeypatch)
    assert verify_homomorphism(rep, pert) == expected


def test_perturbed_tables_match_oracles(m18, monkeypatch):
    alg, rep = m18
    rng = np.random.default_rng(8)
    hom_flagged = laws_flagged = 0
    for _ in range(20):
        pert = perturbed(alg, rng)
        hom = verify_homomorphism(rep, pert)
        assert hom == dense_homomorphism_violation(rep, pert)
        with monkeypatch.context() as patch:
            single_row_blocks(patch)
            assert verify_homomorphism(rep, pert) == hom
        laws = _mixed_law_violation(pert)
        assert laws == mixed_law_violation_by_loops(pert)
        hom_flagged += hom is not None
        laws_flagged += laws is not None
    assert hom_flagged >= 15 and laws_flagged >= 15


def superposition_perturbations(alg, rng, count):
    """count seeded copies of alg, each with one superposition cell changed."""
    n, m = alg.arity, alg.size
    cases = []
    for _ in range(count):
        table = np.array(alg.superposition)
        cell = tuple(rng.integers(m, size=n + 1))
        table[cell] = (table[cell] + 1 + rng.integers(m - 1)) % m
        cases.append(AbstractAlgebra(n, m, alg.mann, table, flavor="menger"))
    return cases


def test_superassociativity_matches_oracles(menger_battery, m18, m23, monkeypatch):
    # the battery, m18 and m23 and seeded one-cell perturbations of them:
    # the column classes give the per-head arrays' Violation (and, up to
    # m = 6, the loops'), also with one leading argument and head per pass;
    # the failing class first occurs early for some and late for others
    rng = np.random.default_rng(13)
    sources = [abstract_from_concrete(c) for c in menger_battery[:60]] + [m18[0], m23[0]]
    late = set()
    for source in sources:
        cases = [source] + superposition_perturbations(
            source, rng, 0 if source.size == 1 else 2 if source.size < 18 else 12)
        for alg in cases:
            expected = superassociativity_by_heads(alg)
            if alg.size <= 6:
                assert superassociativity_by_loops(alg) == expected
            assert algebra._superassociativity_violation(alg) == expected
            with monkeypatch.context() as patch:
                single_row_blocks(patch)
                assert algebra._superassociativity_violation(alg) == expected
            if expected is not None:
                ys = np.ravel_multi_index(expected.witness[1], (alg.size,) * alg.arity)
                late.add(2 * ys >= alg.size ** alg.arity)
    assert late == {False, True}


def test_superposition_classes_match_dense_check(menger_battery, m18, m23, monkeypatch):
    # seeded superposition cells changed under a fixed representation:
    # only superposition equations change, and they fail at the points of
    # the classes whose words tell the old composite from the new one; the
    # first failing class first occurs at the first point for some and
    # past the all-carrier points for others
    rng = np.random.default_rng(81)
    for conc in [c for c in menger_battery if len(c) > 1][:20]:
        alg, reps = battery_representations(conc)
        for pert in superposition_perturbations(alg, rng, 2):
            for rep in reps:
                expected = dense_homomorphism_violation(rep, pert)
                assert verify_homomorphism(rep, pert) == expected
                with monkeypatch.context() as patch:
                    single_row_blocks(patch)
                    assert verify_homomorphism(rep, pert) == expected
    late = set()
    for (alg, rep), count in ((m18, 30), (m23, 3)):
        if alg.size == 23:  # one part: the dense check of a part takes 56 MB a side
            rep = Representation(rep.size, rep.parts[:1])
        points = rep.parts[0].universe.points
        for pert in superposition_perturbations(alg, rng, count):
            expected = dense_homomorphism_violation(rep, pert)
            if expected is None:  # the part's words of the two composites agree
                assert verify_homomorphism(rep, pert) is None
                continue
            assert_witness(rep, pert, expected, monkeypatch)
            assert expected.law == "homomorphism-superposition"
            late.add(2 * points.index(expected.witness[2]) >= len(points))
    assert late == {False, True}


def test_superposition_into_slot_matches_loops(m18):
    # a constant superposition table keeps slot-into-superposition for any
    # mann tables, so superposition-into-slot is the first law to fail
    alg, _ = m18
    m = alg.size
    for c in range(0, m, 5):
        const = AbstractAlgebra(2, m, alg.mann, [[[c] * m] * m] * m, flavor="menger")
        expected = mixed_law_violation_by_loops(const)
        assert expected.law == "superposition-into-slot:1"
        assert _mixed_law_violation(const) == expected


@pytest.fixture(scope="module")
def m23():
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3, generator_count=1,
                                             seed=56, closure_cap=26))
    alg = abstract_from_concrete(conc)
    chi, gamma, _ = domain_relations(conc)
    rep = sum_over_pairs(alg, chi, gamma)
    assert alg.size == 23
    assert len(list(gamma.pairs())) == 376 and len(rep.parts) == 11
    assert sum(len(part.labels) for part in rep.parts) == 376
    return alg, rep


@pytest.fixture(scope="module")
def m45():
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3, generator_count=1,
                                             seed=1, closure_cap=130))
    alg = abstract_from_concrete(conc)
    assert alg.size == 45
    return conc, alg


def test_homomorphism_check_memory_is_bounded(m23):
    alg, rep = m23
    tracemalloc.start()
    try:
        assert verify_homomorphism(rep, alg) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 1.7 MB; one head at a time took 4.3 MB, the whole-part arrays 163.5 MB
    assert peak < 16 * 2**20


def changed_value(rep, k, g, p):
    """rep with the defined value at cell (g, p) of part k changed."""
    parts = list(rep.parts)
    assign = parts[k].assign.copy()
    assert assign[g, p] >= 0
    assign[g, p] = (assign[g, p] + 1) % rep.size
    parts[k] = ReprPart(parts[k].universe, assign, parts[k].labels)
    return Representation(rep.size, parts)


def assert_witness(rep, alg, expected, monkeypatch):
    """verify_homomorphism finds expected, also with one leading argument
    per superposition block."""
    assert expected is not None
    assert verify_homomorphism(rep, alg) == expected
    with monkeypatch.context() as patch:
        single_row_blocks(patch)
        assert verify_homomorphism(rep, alg) == expected


def test_parts_beyond_one_word_match_dense_check(m23, monkeypatch):
    # the 11 parts six times over: 66 parts over one universe, more than
    # one 64-bit word holds beside a value; the dense check passes the 11
    # clean parts, so a corrupted part's witness in the sum is its own
    alg, rep = m23
    assert dense_homomorphism_violation(rep, alg) is None
    big = Representation(rep.size, rep.parts * 6)
    groups = represent._groups(big.parts)
    assert len(groups) == 2 and len(groups[0][0]) < 66
    rng = np.random.default_rng(23)
    count = len(rep.parts[0].universe)
    cells, witnesses = {}, {}
    for k in (0, 65):
        while witnesses.get(k) is None:  # the first seeded cell whose toggle fails
            cells[k] = int(rng.integers(alg.size)), int(rng.integers(count))
            broken = corrupted(big, k, *cells[k])
            witnesses[k] = dense_homomorphism_violation(
                Representation(rep.size, broken.parts[k : k + 1]), alg)
        assert_witness(broken, alg, witnesses[k], monkeypatch)
    assert_witness(corrupted(broken, 0, *cells[0]), alg, witnesses[0], monkeypatch)
    # two failing parts in one group: at 0 and 11, parts over the universe's
    # own table whose rows, one value flipped, break the homomorphism with
    # two different witnesses; the lower part's witness comes first
    universe = rep.parts[0].universe

    def flipped(k):
        """(part, witness) of part k's row with the first seeded value
        flipped whose part fails."""
        witness = None
        while witness is None:
            allowed = big.parts[k].allowed.copy()
            allowed[rng.integers(alg.size)] ^= True
            part = ReprPart(universe, universe.values, (), allowed)
            witness = dense_homomorphism_violation(Representation(rep.size, [part]), alg)
        return part, witness

    parts = list(big.parts)
    parts[0], first = flipped(0)
    other = first
    while other == first:
        parts[11], other = flipped(11)
    both = Representation(rep.size, parts)
    layout = [len(members) for members, _ in groups]
    assert [len(members) for members, _ in represent._groups(both.parts)] == layout
    assert_witness(both, alg, first, monkeypatch)
    # a part with a table of its own is a group of its own, between the
    # runs before and after it, which the 35 parts after it fill anew
    k = 30
    g, p = (int(v) for v in np.argwhere(big.parts[k].assign >= 0)[0])
    split = changed_value(big, k, g, p)
    assert [len(members) for members, _ in represent._groups(split.parts)] == [k, 1, 35]
    expected = dense_homomorphism_violation(Representation(rep.size, split.parts[k : k + 1]),
                                            alg)
    assert_witness(split, alg, expected, monkeypatch)


def test_sum_over_two_universes_matches_dense_check(monkeypatch):
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3,
                                             generator_count=1, seed=8))
    alg = abstract_from_concrete(conc)
    chi, _, _ = domain_relations(conc)
    rep = sum_representations([identity_representation(conc), sum_over_points(alg, chi)])
    assert len(rep.parts) >= 3
    assert [len(parts) for parts, _ in represent._groups(rep.parts)] == [1, len(rep.parts) - 1]
    assert verify_homomorphism(rep, alg) is None
    assert dense_homomorphism_violation(rep, alg) is None
    rng = np.random.default_rng(8)
    for k in (0, 1, len(rep.parts) - 1):
        part = rep.parts[k]
        g, p = int(rng.integers(alg.size)), int(rng.integers(part.assign.shape[1]))
        broken = corrupted(rep, k, g, p)
        assert_witness(broken, alg, dense_homomorphism_violation(broken, alg), monkeypatch)
        g, p = (int(v) for v in np.argwhere(part.assign >= 0)[-1])
        broken = changed_value(rep, k, g, p)
        assert_witness(broken, alg, dense_homomorphism_violation(broken, alg), monkeypatch)


# -- predicates, laws and seeds against their loop versions -----------------

PREDICATES = ((is_l_regular, l_regular_by_loops),
              (is_l_cancellative, l_cancellative_by_loops),
              (is_v_negative, v_negative_by_loops))


def relation_cases(alg, conc, rng, count=4):
    """The realized chi, gamma and pi (when a concrete origin is given),
    the diagonal and the full relation, count seeded random ones, and the
    least v-negative relation with one seeded pair taken out."""
    m = alg.size
    cases = list(domain_relations(conc)) if conc is not None else []
    cases += [BinRelation.diagonal(m), BinRelation.full(m)]
    for _ in range(count):
        matrix = rng.random((m, m)) < rng.uniform(0.3, 0.95)
        cases.append(BinRelation.from_array(matrix))
    least = list(_least_v_negative(alg).pairs())
    a, b = least[rng.integers(len(least))]
    cases.append(BinRelation.from_pairs(m, [p for p in least if p != (a, b)]))
    cases.append(seed_relations_by_loops(alg, True)[1])  # word results, occupants
    cases += [BinRelation.from_pairs(m, [tuple(rng.integers(m, size=2).tolist())])
              for _ in range(2)]
    return cases


def assert_kernels_match_loops(alg, relations, seen, monkeypatch):
    """Every predicate on every relation (l-regularity and
    l-cancellativity also with one row per block), the laws and every zero
    candidate, and the seed relations: identical results, witnesses
    included."""
    for r in relations:
        for ours, loops in PREDICATES:
            violation = ours(r, alg)
            assert violation == loops(r, alg), (ours.__name__, r)
            seen.add((ours.__name__, None if violation is None else violation.law))
            if ours is not is_v_negative:
                with monkeypatch.context() as patch:
                    single_row_blocks(patch)
                    assert ours(r, alg) == violation, (ours.__name__, r)
    violation = check_associativity(alg)
    assert violation == associativity_by_loops(alg)
    seen.add(("associativity", None if violation is None else violation.law))
    for z in range(alg.size):
        violation = _zero_law_violation(alg, z)
        assert violation == zero_law_violation_by_loops(alg, z)
        seen.add(("zero", None if violation is None else violation.law.split(":")[0]))
    assert _seed_relations(alg) == seed_relations_by_loops(alg, alg.flavor == "plain")
    assert (None, _word_pairs(alg)) == seed_relations_by_loops(alg, True)  # bullet kinds


def test_battery_kernels_match_loops(menger_battery, plain_battery, monkeypatch):
    rng = np.random.default_rng(6)
    seen = set()
    for conc in menger_battery[:40] + plain_battery[:30]:
        alg = abstract_from_concrete(conc)
        assert_kernels_match_loops(alg, relation_cases(alg, conc, rng), seen, monkeypatch)
    # both verdicts and every law family occurred
    for name in ("is_l_regular", "is_l_cancellative", "is_v_negative"):
        assert (name, None) in seen and len({law for n, law in seen if n == name}) >= 2
    assert {("zero", None), ("zero", "zero-left"), ("zero", "zero-right")} <= seen


def test_m18_kernels_match_loops(m18, monkeypatch):
    alg, _ = m18
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3,
                                             generator_count=1, seed=8))
    seen = set()
    assert_kernels_match_loops(alg, relation_cases(alg, conc, np.random.default_rng(18)),
                               seen, monkeypatch)
    assert ("is_l_regular", None) in seen and ("is_v_negative", None) in seen


def test_perturbed_tables_kernels_match_loops(m18, menger_battery, monkeypatch):
    # the seeded single-cell perturbations of the m18 tables, and of a few
    # smaller battery algebras, so that laws and zero laws fail in many ways
    alg, _ = m18
    rng = np.random.default_rng(8)
    seen = set()
    sources = [alg] + [abstract_from_concrete(c) for c in menger_battery
                       if 3 <= len(c) <= 6][:10]
    for source in sources:
        perts = [perturbed(source, rng) for _ in range(2 if source is alg else 4)]
        if source.zero is not None:  # a superposition cell headed by the zero
            sup = np.array(source.superposition)
            sup[source.zero, 0, 0] = (source.zero + 1) % source.size
            perts.append(AbstractAlgebra(2, source.size, source.mann, sup))
        for pert in perts:
            assert_kernels_match_loops(pert, relation_cases(pert, None, rng, 3), seen,
                                       monkeypatch)
    assert len({law for n, law in seen if n == "associativity"}) >= 2
    assert {("zero", "zero-superposition-arg"), ("zero", "zero-superposition-head"),
            ("is_v_negative", "v-negative-superposition"),
            ("is_l_cancellative", "l-cancellative-superposition")} <= seen


def planted_band(m, columns):
    """The n=2 menger left-zero band on m elements, whose right
    translations are all the identity, with the translations at the given
    columns of right_translations replaced by x -> x, but 3 -> 4: every
    translation but those is one class."""
    f = np.arange(m)
    f[3] = 4
    mann = np.broadcast_to(np.arange(m)[None, :, None], (2, m, m)).copy()
    sup = np.broadcast_to(np.arange(m)[:, None, None], (m, m, m)).copy()
    for k in columns:
        if k < 2 * m:
            mann[k // m][:, k % m] = f
        else:
            sup[(slice(None), *divmod(k - 2 * m, m))] = f
    return AbstractAlgebra(2, m, mann, sup, flavor="menger")


@pytest.mark.parametrize("columns, law, z", [
    ((17,), "superposition", (1, 2)),
    # the superposition translation x[0, 0] has the map of the slot one
    # x *2 4 before it: the witness names the slot
    ((10, 9), "slot:2", 4),
])
def test_planted_translations_match_loops(columns, law, z, monkeypatch):
    m = 5
    alg = planted_band(m, columns)
    assert translation_classes(alg)[0].tolist() == [0, min(columns)]
    # rows 0-2 hold pairs that pass; (3, 3) fails on the planted map
    regular = BinRelation.from_pairs(m, [(0, 0), (0, 1), (1, 1), (2, 2), (3, 3)])
    cancellative = BinRelation.from_pairs(m, [(0, 0), (4, 4)])
    # one block, one row per block, and two: rows 0 and 1 pass, then (3, 3)
    # fails in the second row of the second block; a row holds three bools
    # per (y, class)
    for block in (tables.BLOCK_BYTES, 1, 2 * 3 * m * 2):
        monkeypatch.setattr(tables, "BLOCK_BYTES", block)
        for ours, loops, r in ((is_l_regular, l_regular_by_loops, regular),
                               (is_l_cancellative, l_cancellative_by_loops, cancellative)):
            violation = ours(r, alg)
            assert violation == loops(r, alg)
            assert violation.law.endswith(law) and violation.witness == (3, 3, z)


# -- the laws and the homomorphism check at superposition generators ----------


def fresh(alg):
    """A copy of alg that keeps none of its derived data."""
    return AbstractAlgebra(alg.arity, alg.size, alg.mann, alg.superposition, alg.zero,
                           alg.flavor)


def scanned_heads(monkeypatch) -> list:
    """The heads each represent._scan call is given, from here on."""
    heads, scan = [], represent._scan

    def spy(parts, values, alg, at=None):
        heads.append(at)
        return scan(parts, values, alg, at)

    monkeypatch.setattr(represent, "_scan", spy)
    return heads


def witness_head(violation) -> int:
    """The head of a Menger-law or homomorphism witness: x0 of
    superassociativity, x of the mixed laws, g1 or g of the homomorphism."""
    head = violation.witness[0]
    return head[0] if violation.law == "superassociativity" else head


def test_generating_sets_match_loop_closure(menger_battery, m45):
    # the closure that decides whether a set generates the carrier is the
    # loop closure, on G and on G without each of its members; G holds
    # every element outside the superposition table's image, and is
    # returned only once its closure is the carrier, so the image's
    # complement, or G without a member, is rejected wherever its closure
    # leaves an element out
    algebras = [abstract_from_concrete(c) for c in menger_battery[:80]] + [m45[1]]
    rejected = proper = 0
    for alg in algebras:
        m, generators = alg.size, superposition_generators(alg)
        if generators is None:
            continue
        proper += 1
        assert superposition_closure_by_loops(alg, generators) == set(range(m))
        outside = sorted(set(range(m)) - set(alg.superposition.ravel().tolist()))
        assert set(outside) <= set(generators.tolist())
        for subset in [outside] + [np.delete(generators, k) for k in range(len(generators))]:
            inside = np.zeros(m, bool)
            inside[subset] = True
            closure = algebra._superposition_closure(alg, inside)
            assert set(np.flatnonzero(closure).tolist()) == superposition_closure_by_loops(
                alg, subset)
            rejected += not closure.all()
    assert proper >= 20 and rejected >= 20
    assert len(superposition_generators(m45[1])) == 12


def test_laws_at_generators_match_oracles(menger_battery, m18, m23, monkeypatch):
    # seeded one-cell changes of the mann and superposition tables of
    # algebras with fewer generators than elements: the verdicts decided at
    # the generators, then the scan of every head after a failure there,
    # give the oracles' Violation, also with one head per pass; the first
    # witness's head is a generator for some changes and not for others
    rng = np.random.default_rng(22)
    sources = [alg for alg in map(abstract_from_concrete, menger_battery[:120])
               if superposition_generators(alg) is not None][:20] + [m18[0], m23[0]]
    cases = [case for source in sources
             for case in [source] + [perturbed(source, rng) for _ in range(6)]]
    # every change of one superposition cell of an m=5 algebra: a few of
    # them give a first superassociativity witness at a head outside G
    five = next(alg for alg in sources if alg.size == 5)
    table = np.array(five.superposition)
    for cell in np.ndindex(table.shape):
        for value in set(range(5)) - {table[cell]}:
            changed = table.copy()
            changed[cell] = value
            cases.append(AbstractAlgebra(2, 5, five.mann, changed, flavor="menger"))
    seen = set()
    for case in cases:
        expected = superassociativity_by_heads(case) or (
            mixed_law_violation_by_loops(case) if case.size <= 12 else _mixed_laws(case))
        for blocks in (False, True):
            with monkeypatch.context() as patch:
                if blocks:
                    single_row_blocks(patch)
                alg = fresh(case)
                assert (algebra._superassociativity_violation(alg)
                        or _mixed_law_violation(alg)) == expected
        generators = superposition_generators(case)
        if generators is not None:
            seen.add(None if expected is None else (expected.law == "superassociativity",
                                                    witness_head(expected) in generators))
    assert seen == {None, (True, True), (True, False), (False, True), (False, False)}


def test_homomorphism_at_generators_matches_dense_check(menger_battery, m18, monkeypatch):
    # corrupted cells of the round-trip representations of algebras whose
    # laws hold at their generators: every group is scanned at the
    # generators alone (the heads _scan is given), the failing part then at
    # every head, and the witness is the dense check's; its head is a
    # generator for some cells and not for others
    scans = scanned_heads(monkeypatch)
    rng = np.random.default_rng(122)
    cases = []
    for conc in menger_battery[:120]:
        if len(cases) < 30 and superposition_generators(abstract_from_concrete(conc)) is not None:
            cases += [battery_representations(conc)]
    cases += [(m18[0], [m18[1]])]
    seen = set()
    for alg, reps in cases:
        generators = superposition_generators(alg)
        for rep in reps:
            for _ in range(3):
                k = int(rng.integers(len(rep.parts)))
                g = int(rng.integers(rep.size))
                p = int(rng.integers(rep.parts[k].assign.shape[1]))
                broken = corrupted(rep, k, g, p)
                scans.clear()
                violation = verify_homomorphism(broken, alg)
                assert violation == dense_homomorphism_violation(broken, alg)
                if scans[0] is not None:
                    assert scans[0] is generators
                    seen.add(None if violation is None else witness_head(violation) in generators)
    assert seen == {None, True, False}


def test_failing_superassociativity_gets_every_head(menger_battery, m18, monkeypatch):
    # changed superposition cells that break superassociativity: the
    # algebra still has generators, but the mixed laws and the homomorphism
    # check scan every head, and find the oracles' witnesses.  On battery
    # algebra 13 (m=10) with x[1, 3] = 4 at x = 8, the mixed laws hold at
    # the generators 0, 1 and 3 and fail at head 8: their induction step
    # needs superassociativity
    conc = menger_battery[13]
    source = abstract_from_concrete(conc)
    table = np.array(source.superposition)
    table[8, 1, 3] = 4
    pert = AbstractAlgebra(2, 10, source.mann, table, flavor="menger")
    assert superposition_generators(pert).tolist() == [0, 1, 3]
    assert _mixed_laws(pert, superposition_generators(pert)) is None
    expected = mixed_law_violation_by_loops(pert)
    assert expected.witness[0] == 8 and _mixed_law_violation(pert) == expected
    scans = scanned_heads(monkeypatch)
    for rep in battery_representations(conc)[1]:
        scans.clear()
        assert verify_homomorphism(rep, pert) == dense_homomorphism_violation(rep, pert)
        assert scans and all(heads is None for heads in scans)
    alg, rep = m18
    scans.clear()
    clean = fresh(alg)
    assert verify_homomorphism(rep, clean) is None
    assert scans and all(heads is superposition_generators(clean) for heads in scans)
    broken = 0
    for pert in superposition_perturbations(alg, np.random.default_rng(18), 12):
        if superassociativity_by_heads(pert) is None or superposition_generators(pert) is None:
            continue
        broken += 1
        scans.clear()
        assert not _holds_at_generators(pert, "superassociativity")
        assert verify_homomorphism(rep, pert) == dense_homomorphism_violation(rep, pert)
        assert scans and all(heads is None for heads in scans)
    assert broken >= 3


def test_checks_at_generators_match_every_head_at_m45(m45, monkeypatch):
    # at m=45 (12 generators) the laws hold at every head, and seeded
    # changed superposition cells give superassociativity_by_heads'
    # witness; corrupted cells of the pairs sum give the witness of the
    # homomorphism check at every head
    conc, source = m45
    alg = fresh(source)
    assert superassociativity_by_heads(alg) is None
    assert _superassociativity(alg) is None and _mixed_laws(alg) is None
    assert check_menger_identities(alg) is None
    assert _holds_at_generators(alg, "mixed laws")
    generators = superposition_generators(alg)
    rng = np.random.default_rng(45)
    for pert in superposition_perturbations(alg, rng, 6):
        expected = superassociativity_by_heads(pert)
        assert algebra._superassociativity_violation(pert) == expected
    rep = sum_over_pairs(alg, *domain_relations(conc)[:2])
    seen = set()
    for _ in range(4):
        k = int(rng.integers(len(rep.parts)))
        g, p = int(rng.integers(alg.size)), int(rng.integers(len(rep.parts[k].universe)))
        broken = corrupted(rep, k, g, p)
        violation = verify_homomorphism(broken, alg)
        with monkeypatch.context() as patch:
            patch.setattr(represent, "_holds_at_generators", lambda alg, law: False)
            assert verify_homomorphism(broken, alg) == violation
        seen.add(violation is not None and witness_head(violation) in generators)
    assert True in seen


def test_menger_cap_between_generator_and_full_counts_at_m45(m45, tmp_path, monkeypatch,
                                                             capsys):
    # the cap counts the equations compared: at the 12 generators the laws
    # pass under a cap below the count of the scan of every head; a planted
    # failure sends superassociativity to that scan, which is refused
    _, source = m45
    m, generators = 45, superposition_generators(source)
    columns = len(distinct_columns(source.superposition.reshape(m, m * m)))
    cap = 2 * 2 * len(generators) * m**3  # the mixed laws at the generators
    assert 2 * m**3 < len(generators) * m**2 * columns <= cap < m**3 * columns
    monkeypatch.setattr(tables, "MAX_EQUATIONS", cap)
    assert check_menger_identities(fresh(source)) is None
    planted = next(pert for pert in superposition_perturbations(
        source, np.random.default_rng(45), 6) if superassociativity_by_heads(pert) is not None)
    columns = len(distinct_columns(planted.superposition.reshape(m, m * m)))
    assert len(superposition_generators(planted)) * m**2 * columns <= cap
    with pytest.raises(CapacityError) as err:
        check_menger_identities(planted)
    assert err.value.count == m**3 * columns
    path = tmp_path / "planted.json"
    fileio.save_algebra(planted, str(path))
    assert main(["check", "--algebra", str(path)]) == 3
    assert (f"Menger identities: superassociativity of {m**3 * columns} equations"
            in capsys.readouterr().err)


def test_homomorphism_memory_is_bounded_at_m45():
    # the pairs sum is a group of 58 parts, 8-byte words, and one of 13:
    # measured 7.2 MB with passes sized in bytes; 28.5 MB when a block held
    # 2**20 intp landing entries, whatever the word's width
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3, generator_count=1,
                                             seed=1, closure_cap=130))
    alg = abstract_from_concrete(conc)
    rep = sum_over_pairs(alg, *domain_relations(conc)[:2])
    assert alg.size == 45 and verify_homomorphism(rep, alg) is None
    tracemalloc.start()
    try:
        assert verify_homomorphism(rep, alg) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20


def test_sum_relations_and_faithfulness_memory_is_bounded_at_m45(m45):
    # with the universe built first, every built part reads its table
    # through its own row; measured 2.2 MB, while int64 copies of the table
    # per part and their concatenation took 110.6 MB
    conc, alg = m45
    chi, gamma, _ = domain_relations(conc)
    values = build_universe(alg).values
    tracemalloc.start()
    try:
        pairs = sum_over_pairs(alg, chi, gamma)
        relations = representation_relations(pairs)
        points = sum_over_points(alg, chi)
        collision = is_faithful(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert all(part.values is values for part in pairs.parts + points.parts)
    assert relations == representation_relations_by_parts(pairs)
    assert collision == faithful_by_rows(points)


def test_l_regular_memory_is_bounded_at_m45():
    # measured 0.6 MB once the class table is kept; the whole (x, y,
    # translation) array of 45 * 45 * 2115 entries took 8.2 MB
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3, generator_count=1,
                                             seed=1, closure_cap=130))
    alg = abstract_from_concrete(conc)
    chi = domain_relations(conc)[0]
    assert alg.size == 45 and is_l_regular(chi, alg) is None
    tracemalloc.start()
    try:
        assert is_l_regular(chi, alg) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_tables_and_states_are_read_only(m18):
    alg, _ = m18
    space = alg.states()
    for table in (alg.mann, alg.superposition, space.slots, space.actions):
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1
    # the algebra keeps its own copy of a caller's writable tables
    mann, sup = np.array(alg.mann), np.array(alg.superposition)
    copy = AbstractAlgebra(2, alg.size, mann, sup, flavor="menger")
    mann[0, 0, 0] = sup[0, 0, 0] = (alg.mann[0, 0, 0] + 1) % alg.size
    assert copy == alg


def menger_identity_peak(seed, closure_cap, size) -> int:
    """The tracemalloc peak of check_menger_identities, word states
    included, on the menger forge algebra of a seed."""
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3, generator_count=1,
                                             seed=seed, closure_cap=closure_cap))
    alg = abstract_from_concrete(conc)
    assert alg.size == size
    tracemalloc.start()
    try:
        assert check_menger_identities(alg) is None
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_menger_identity_memory_is_bounded():
    # measured 0.8 MB; the whole S[S] array and its right side took 18.4 MB
    # in uint8, and one head at a time 8.7 MB in intp
    assert menger_identity_peak(56, 26, 23) < 12 * 2**20


def test_menger_identity_memory_is_bounded_at_m45():
    # measured 5.0 MB; one head at a time took 126 MB
    assert menger_identity_peak(1, 130, 45) < 12 * 2**20


def associative_tables(m, rng):
    """A seeded associative table on m elements: a left- or right-zero
    band, min, max, a constant or addition mod m."""
    x, y = np.indices((m, m))
    return [x, y, np.minimum(x, y), np.maximum(x, y), np.zeros_like(x),
            (x + y) % m][rng.integers(6)]


def test_associativity_matches_loops_on_random_tables(monkeypatch):
    # 400 plain algebras of 1-3 slots on 1-7 elements: random slot tables,
    # which mostly fail early, and associative ones with one or two cells
    # changed, which fail anywhere or nowhere
    rng = np.random.default_rng(400)
    laws = set()
    for case in range(400):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 8))
        mann = []
        for _ in range(n):
            if case % 4 == 0:
                table = rng.integers(m, size=(m, m))
            else:
                table = associative_tables(m, rng).copy()
                for _ in range(case % 3):
                    table[tuple(rng.integers(m, size=2))] = rng.integers(m)
            mann.append(table.tolist())
        alg = AbstractAlgebra(n, m, mann, None, None, "plain")
        expected = associativity_by_loops(alg)
        assert check_associativity(alg) == expected
        with monkeypatch.context() as patch:
            single_row_blocks(patch)
            assert check_associativity(alg) == expected
        laws.add(None if expected is None else expected.law)
    assert {None, "associativity:1", "associativity:2", "associativity:3"} <= laws


def test_associativity_memory_is_bounded_at_m200():
    # a left-zero band: measured 3.3 MB; the three m**3 grids per slot took 130 MB
    x = np.indices((200, 200))[0]
    alg = AbstractAlgebra(2, 200, [x.tolist(), x.tolist()], None, None, "plain")
    tracemalloc.start()
    try:
        assert check_associativity(alg) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# -- the concrete side against its cell-by-cell loops -------------------------

# the perfbench catalogue (scale and queries workloads)
CATALOGUE = [
    GeneratorConfig(2, 3, 1, 8, "menger", 26), GeneratorConfig(2, 3, 1, 33, "menger", 26),
    GeneratorConfig(2, 3, 1, 28, "menger", 26), GeneratorConfig(2, 3, 1, 56, "menger", 26),
    GeneratorConfig(3, 2, 1, 12, "plain", 40), GeneratorConfig(3, 2, 1, 7, "plain", 40),
    GeneratorConfig(2, 3, 1, 5, "menger", 26),
]


def closure_outcome(close, generators, flavor, cap):
    """The closure's members in order, or the count of its CapacityError."""
    try:
        return [f.entries for f in close(generators, flavor, cap=cap).functions]
    except CapacityError as exc:
        return exc.count


def test_compositions_match_cell_loops():
    rng = random.Random("compositions")
    for _ in range(300):
        arity, base = rng.randint(1, 3), rng.randint(1, 3)
        f, *gs = [forge._draw_function(rng, arity, base) for _ in range(arity + 1)]
        assert superpose(f, gs) == superpose_by_cells(f, gs)
        for slot in range(arity):
            assert mann_compose(f, gs[0], slot) == mann_compose_by_cells(f, gs[0], slot)


def test_cap10_closures_match_loop_closure():
    """Seeds 0-199, both flavors, four draws each of 1-3 generators over
    base 2 or 3: the same members in the same order, or the same count."""
    capped = 0
    for seed in range(200):
        for flavor in ("menger", "plain"):
            rng = random.Random(f"closure-draws:{seed}:{flavor}")
            for _ in range(4):
                base, count = rng.choice((2, 3)), rng.randint(1, 3)
                generators = [forge._draw_function(rng, 2, base) for _ in range(count)]
                ours = closure_outcome(close_under_operations, generators, flavor, 10)
                assert ours == closure_outcome(close_by_loops, generators, flavor, 10)
                capped += type(ours) is int
    assert 500 < capped < 1500  # both outcomes are exercised


def test_catalogue_matches_loop_closure_and_abstraction(monkeypatch):
    for cfg in CATALOGUE:
        conc = generate_concrete(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(forge, "close_under_operations", close_by_loops)
            assert generate_concrete(cfg).functions == conc.functions
        alg = abstract_from_concrete(conc)
        mann, superposition = abstract_by_loops(conc)
        assert np.array_equal(alg.mann, mann)
        assert np.array_equal(alg.superposition, superposition)  # or both None


def test_non_closed_sets_match_loops(menger_battery, plain_battery):
    """Each battery algebra, and it with each member dropped in turn: the
    same closure witness, and the same tables or abstraction error."""
    missing = 0
    for conc in menger_battery[:20] + plain_battery[:20]:
        members = conc.functions
        for k in range(-1, len(members)):
            kept = members if k < 0 else members[:k] + members[k + 1 :]
            if not kept:
                continue
            subset = ConcreteAlgebra(conc.arity, conc.base_size, kept, conc.flavor)
            assert subset.composite_indices()[1] == closure_violation_by_cells(subset)
            try:
                mann, superposition = abstract_by_loops(subset)
            except InputError as exc:
                with pytest.raises(InputError) as err:
                    abstract_from_concrete(subset)
                assert str(err.value) == str(exc)
                missing += 1
                continue
            alg = abstract_from_concrete(subset)
            assert np.array_equal(alg.mann, mann)
            assert np.array_equal(alg.superposition, superposition)
    assert missing > 100


def test_domain_relations_match_bits_and_parts(menger_battery, plain_battery, m45):
    sums = []
    for conc in menger_battery[:8] + plain_battery[:8]:
        assert domain_relations(conc) == domain_relations_by_bits(conc)
        alg, reps = battery_representations(conc)
        sums += reps + [Representation(alg.size, ())]
    # at m=45: the pairs and the points sum, the identity beside the points
    # sum, a corrupted part between the pairs sum's own, whose rows read the
    # universe's table, and a summand twice
    conc, alg = m45
    chi, gamma, _ = domain_relations(conc)
    pairs, points = sum_over_pairs(alg, chi, gamma), sum_over_points(alg, chi)
    sums += [pairs, points, sum_representations([identity_representation(conc), points]),
             corrupted(pairs, 30, 7, 100), sum_representations([points, pairs, points])]
    collisions = set()
    for rep in sums:
        assert representation_relations(rep) == representation_relations_by_parts(rep)
        collision = is_faithful(rep)
        assert collision == faithful_by_rows(rep)
        collisions.add(collision is None)
    assert collisions == {False, True}


def test_abstraction_memory_is_bounded():
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3, generator_count=1,
                                             seed=14, closure_cap=64))
    assert len(conc) == 62
    tracemalloc.start()
    try:
        abstract_from_concrete(conc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20  # measured 2.2 MB; the loop abstraction took 3.8 MB


# -- the word-state BFS against its loop version --------------------------------


def bfs_outcome(search, alg, cap):
    """The count of the search's CapacityError, or None when it stays
    within the cap."""
    try:
        search(alg, cap=cap)
    except CapacityError as exc:
        return exc.count
    return None


def assert_states_match_loops(alg, caps=True):
    """Identical states (slots, action, depth, word, alt_word), through the
    ``states`` view and through ``word`` and ``alt_word``, read-only arrays
    and, for caps 1, 10, S - 1 and S, identical CapacityError counts."""
    ours, loops = reachable_states(alg), reachable_states_by_loops(alg)
    assert ([(s.slots, s.action, s.depth, s.word, s.alt_word) for s in ours.states]
            == [(s.slots, s.action, s.depth, s.word, s.alt_word) for s in loops.states])
    assert ([(ours.word(s), ours.alt_word(s)) for s in range(len(ours.slots))]
            == [(s.word, s.alt_word) for s in loops.states])
    for array, expected in ((ours.slots, loops.slots), (ours.actions, loops.actions)):
        assert array.dtype == expected.dtype and np.array_equal(array, expected)
        assert not array.flags.writeable
    assert ours.events.shape == (len(ours.slots), 2) and not ours.events.flags.writeable
    count = len(loops.states)
    for cap in sorted({1, 10, count - 1, count}) if caps else ():
        assert (bfs_outcome(reachable_states, alg, cap)
                == bfs_outcome(reachable_states_by_loops, alg, cap))
    return ours


def test_battery_states_match_loops(menger_battery, plain_battery):
    for conc in menger_battery[:40] + plain_battery[:30]:
        assert_states_match_loops(abstract_from_concrete(conc))


def test_catalogue_states_match_loops():
    sizes = []
    for cfg in CATALOGUE:
        space = assert_states_match_loops(abstract_from_concrete(generate_concrete(cfg)))
        sizes.append(len(space.states))
    assert sizes[4:6] == [2326, 2094]  # plain22 and plain23, n=3


def test_perturbed_mann_states_match_loops(m18):
    alg, _ = m18
    rng = np.random.default_rng(8)
    mann = np.array(alg.mann)
    slot, x, y = rng.integers(2), *rng.integers(alg.size, size=2)
    mann[slot, x, y] = (mann[slot, x, y] + 1 + rng.integers(alg.size - 1)) % alg.size
    pert = AbstractAlgebra(2, alg.size, mann, alg.superposition, flavor="menger")
    assert len(assert_states_match_loops(pert).states) != len(alg.states().states)


def test_one_parent_blocks_match_loops(m18, menger_battery, monkeypatch):
    # each block expands one parent, so a state's children, its second
    # event and the blocks that meet it again all lie in different blocks
    monkeypatch.setattr(tables, "BLOCK_BYTES", 1)
    alg, _ = m18
    spaces = [assert_states_match_loops(alg)]
    spaces += [assert_states_match_loops(abstract_from_concrete(conc), caps=False)
               for conc in menger_battery[:10]]
    alts = [s for space in spaces for s in space.states if s.alt_word is not None]
    # second events from the parent of the first one and from another parent
    assert any(s.alt_word[:-1] == s.word[:-1] for s in alts)
    assert any(s.alt_word[:-1] != s.word[:-1] for s in alts)
    assert any(len(s.alt_word) > s.depth for s in alts)  # met again one level down


def states_peak(alg) -> int:
    tracemalloc.start()
    try:
        reachable_states(alg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_state_bfs_memory_is_bounded(monkeypatch):
    conc = generate_concrete(GeneratorConfig(arity=3, base_size=2, generator_count=1,
                                             seed=12, flavor="plain", closure_cap=40))
    alg = abstract_from_concrete(conc)
    # measured 1.9 MB, 0.5 MB of which is the returned states (the loop
    # BFS peaks at 2.4 MB)
    assert states_peak(alg) < 5 * 2**20
    # one block per BFS level, unbounded: 6.7 MB
    monkeypatch.setattr(tables, "BLOCK_BYTES", 1 << 40)
    assert states_peak(alg) > 5 * 2**20


def test_state_space_holds_arrays_only():
    alg = abstract_from_concrete(generate_concrete(CATALOGUE[4]))  # plain22
    tracemalloc.start()
    try:
        space = reachable_states(alg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(space.slots) == 2326
    # measured 0.48 MB: the slots, actions and events arrays; with a word
    # object per state it was 1.9 MB
    assert held < 0.6 * 2**20


# -- representability and the universe against their reference versions ----


def test_representability_matches_grouped_states(menger_battery, plain_battery, m18):
    alg, _ = m18
    rng = np.random.default_rng(18)
    algebras = [abstract_from_concrete(conc) for conc in menger_battery + plain_battery]
    # the ninth seeded perturbation reaches 54452 states, too many for the
    # loop search here
    algebras += [perturbed(alg, rng) for _ in range(8)]
    flagged = 0
    for algebra in algebras:
        violation = check_representability(algebra)
        assert violation == representability_by_groups(algebra)
        flagged += violation is not None
    assert flagged == 2


def repeating_rows(rng, count, cols, dtype):
    """count rows drawn from about count / 3 distinct ones, so that most
    classes repeat and some do not."""
    pool = rng.integers(-2, 3, size=(count // 3 + 1, cols)).astype(dtype)
    return pool[rng.integers(len(pool), size=count)]


def first_occurrence_cases(rng):
    """Arrays on both sides of the hash floor, 1 to 17 bytes and over 1 KB
    wide, in four dtypes, and non-contiguous views."""
    cases = [rng.integers(0, 3, size=shape).astype(dtype)
             for shape in ((300, 2), (200, 4), (50, 1), (1, 3), (0, 3))
             for dtype in (bool, np.uint8, np.intp)]
    wide = rng.integers(0, 2, size=(3, 120)).astype(np.uint8)
    cases += [wide.T, wide[:, ::3].T, rng.integers(0, 2, size=(60, 5))[::2, 1:]]
    for count in (255, 256, 257, 3000):
        for dtype in (bool, np.uint8, np.int8, np.intp):
            itemsize = np.dtype(dtype).itemsize
            cases += [repeating_rows(rng, count, cols, dtype)
                      for cols in range(1, 17 // itemsize + 1)]
            cases.append(repeating_rows(rng, count, 1100 // itemsize + 1, dtype))
    table = repeating_rows(rng, 2 * 700, 9, np.uint8)
    cases += [table[::2], table[:, ::2], table[1::2, 1:], np.asfortranarray(table),
              repeating_rows(rng, 40, 600, np.int8).T]
    assert min(map(len, cases)) < tables._HASH_FLOOR <= max(map(len, cases))
    return cases


def test_first_occurrences_match_dict():
    for rows in first_occurrence_cases(np.random.default_rng(12)):
        first, second = first_occurrences(rows)
        assert (first.tolist(), second.tolist()) == first_occurrences_by_dict(rows)


@pytest.mark.parametrize("forced", ["constant", "one bit"])
def test_colliding_hashes_fall_back_to_the_sort(forced, monkeypatch):
    # every row gets hash 0, or only its first word's low bit at the top of
    # the hash: different rows share their hash bits, and the exact
    # neighbour check sends the call to the sort of the rows' bytes
    def collide(words):
        if forced == "constant":
            return np.zeros(len(words), np.uint64)
        return (words[:, 0] & np.uint64(1)) << np.uint64(63)

    sorted_calls = []
    by_sort = tables._first_occurrences_by_sort
    monkeypatch.setattr(tables, "_row_hash", collide)
    monkeypatch.setattr(tables, "_first_occurrences_by_sort",
                        lambda rows: sorted_calls.append(len(rows)) or by_sort(rows))
    cases = first_occurrence_cases(np.random.default_rng(13))
    cases.append(np.zeros((300, 5), np.uint8))  # one class: no two neighbours differ
    for rows in cases:
        first, second = first_occurrences(rows)
        assert (first.tolist(), second.tolist()) == first_occurrences_by_dict(rows)
    hashed = [len(rows) for rows in cases if len(rows) >= tables._HASH_FLOOR]
    assert max(sorted_calls) >= tables._HASH_FLOOR
    assert sorted_calls.count(300) < hashed.count(300)  # the one class kept its hash


def test_hashed_state_blocks_match_loops(monkeypatch):
    # plain22 (n=3, m=22, 2326 states): every block after the first holds
    # thousands of children, over the hash floor, and no two different
    # children share their hash bits, so no block falls back to the sort
    alg = abstract_from_concrete(generate_concrete(GeneratorConfig(
        arity=3, base_size=2, generator_count=1, seed=12, flavor="plain", closure_cap=40)))
    kernel, by_sort, blocks, sorted_calls = first_occurrences, tables._first_occurrences_by_sort, [], []
    monkeypatch.setattr(algebra, "first_occurrences",
                        lambda rows: blocks.append(len(rows)) or kernel(rows))
    monkeypatch.setattr(tables, "_first_occurrences_by_sort",
                        lambda rows: sorted_calls.append(len(rows)) or by_sort(rows))
    space = assert_states_match_loops(alg, caps=False)
    assert len(space.slots) == 2326
    assert max(blocks) >= tables._HASH_FLOOR
    assert all(size < tables._HASH_FLOOR for size in sorted_calls)


def test_shared_slots_takes_the_class_that_starts_first():
    # occupants A B B A: row 2 is the first to repeat an earlier row, but the
    # class of row 0 starts first
    a, b = [0, EMPTY], [EMPTY, 1]
    space = StateSpace(np.array([a, b, b, a]), np.zeros((4, 2), np.intp),
                       np.full((4, 2), -1))
    assert _shared_slots(space) == (0, 3)


def with_events(alg, events):
    """A copy of alg whose state space carries the given events."""
    copy = AbstractAlgebra(alg.arity, alg.size, alg.mann, alg.superposition, alg.zero,
                           alg.flavor)
    space = alg.states()
    copy.derived("states", lambda: StateSpace(space.slots, space.actions, events))
    return copy


def test_cross_witness_check_rejects_corrupted_events(m18):
    alg, _ = m18
    events = alg.states().events
    assert len(build_universe(with_events(alg, events))) == len(build_universe(alg))
    s = int(np.flatnonzero(events[:, 1] >= 0)[-1])
    for column in (0, 1):  # another y in the last state's event
        corrupt = np.array(events)
        corrupt[s, column] += 1 if corrupt[s, column] % alg.size == 0 else -1
        with pytest.raises(InputError, match="witness word"):
            build_universe(with_events(alg, corrupt))
    corrupt = np.array(events)
    corrupt[0, 0] += alg.arity * alg.size  # state 0 from itself
    with pytest.raises(InputError, match="do not form a tree"):
        build_universe(with_events(alg, corrupt))


def cross_witness_error(alg, events):
    """The message build_universe raises on alg with the given events."""
    with pytest.raises(InputError, match="witness word") as err:
        represent._build_universe(with_events(alg, events))
    return str(err.value)


def test_blocked_cross_witness_check_names_the_same_event(m18, monkeypatch):
    # one event per block, a few hundred, or every event in one block: the
    # same first wrong event, first edges before second ones
    alg, _ = m18
    events = alg.states().events
    twice = np.flatnonzero(events[:, 1] >= 0)
    cases = []
    for s, column in ((int(twice[-1]), 0), (int(twice[-1]), 1), (int(twice[3]), 1)):
        corrupt = np.array(events)
        corrupt[s, column] += 1 if corrupt[s, column] % alg.size == 0 else -1
        cases.append(corrupt)
    both = np.array(cases[2])  # a second edge early, a first edge late
    both[twice[-1], 0] = cases[0][twice[-1], 0]
    cases.append(both)
    messages = []
    for block in (1 << 40, 1, 64 * 1024):
        monkeypatch.setattr(tables, "BLOCK_BYTES", block)
        messages.append([cross_witness_error(alg, corrupt) for corrupt in cases])
    assert messages[0] == messages[1] == messages[2]
    assert messages[0][3] == messages[0][0] != messages[0][2]


def assert_universe_tables_match_dict(universe):
    subst, all_index = universe_tables_by_dict(universe)
    assert universe.subst.dtype == subst.dtype and np.array_equal(universe.subst, subst)
    if all_index is None:
        assert universe.all_index is None
    else:
        assert np.array_equal(universe.all_index, all_index)


def test_universe_tables_match_dict_lookups(menger_battery, plain_battery, m18):
    for conc in menger_battery[:40] + plain_battery[:30]:
        assert_universe_tables_match_dict(build_universe(abstract_from_concrete(conc)))
        assert_universe_tables_match_dict(identity_representation(conc).parts[0].universe)
    assert_universe_tables_match_dict(
        build_universe(abstract_from_concrete(generate_concrete(CATALOGUE[4]))))  # plain22
    # a loaded extended universe without every third non-carrier point:
    # some substitutions land on no point
    alg, rep = m18
    doc = fileio.representation_to_doc(rep)
    part = doc["parts"][0]
    count = len(part["points"])
    keep = [p for p in range(count) if p % 3 or p < alg.size**2]
    part["points"] = [part["points"][p] for p in keep]
    part["assignment"] = [[row[p] for p in keep] for row in part["assignment"]]
    universe = fileio.representation_from_doc(doc).parts[0].universe
    assert universe.has_all_tuples and (universe.subst[:, :, :-1] < 0).any()
    assert_universe_tables_match_dict(universe)
    part["points"].append(part["points"][-2])
    for row in part["assignment"]:
        row.append(None)
    with pytest.raises(InputError, match="duplicate points"):
        fileio.representation_from_doc(doc)
