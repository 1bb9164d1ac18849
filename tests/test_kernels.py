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
from mengerkit import algebra, fileio, forge, represent
from mengerkit.algebra import StateSpace, _mixed_law_violation, _zero_law_violation
from mengerkit.relations import _least_v_negative, _seed_relations
from mengerkit.represent import ReprPart
from mengerkit.theorems import TARGET_KINDS

from oracles import (
    abstract_by_loops,
    associativity_by_loops,
    close_by_loops,
    closure_violation_by_cells,
    dense_homomorphism_violation,
    domain_relations_by_bits,
    l_cancellative_by_loops,
    l_regular_by_loops,
    mann_compose_by_cells,
    mixed_law_violation_by_loops,
    reachable_states_by_loops,
    representability_by_groups,
    representation_relations_by_parts,
    seed_relations_by_loops,
    superpose_by_cells,
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
    """Let each superposition block hold one leading argument."""
    monkeypatch.setattr(represent, "HOM_BLOCK_ELEMENTS", 1)


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


def test_homomorphism_check_memory_is_bounded(m23):
    alg, rep = m23
    tracemalloc.start()
    try:
        assert verify_homomorphism(rep, alg) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # measured 4.3 MB; the whole-part arrays took 163.5 MB


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
    # two failing parts in one group (part 11 repeats part 0 with another
    # witness): the lower part's witness comes first
    other = None
    while other in (None, witnesses[0]):
        cell = int(rng.integers(alg.size)), int(rng.integers(count))
        other = dense_homomorphism_violation(
            Representation(rep.size, corrupted(big, 11, *cell).parts[11:12]), alg)
    both = corrupted(corrupted(big, 0, *cells[0]), 11, *cell)
    assert len(represent._groups(both.parts)) == 2
    assert_witness(both, alg, witnesses[0], monkeypatch)
    # a changed defined value that other parts define too splits the group
    k = 30
    assign = big.parts[k].assign
    shared = (assign >= 0) & (big.parts[k - 1].assign >= 0) & (big.parts[k + 1].assign >= 0)
    g, p = (int(v) for v in np.argwhere(shared)[0])
    split = changed_value(big, k, g, p)
    assert len(represent._groups(split.parts)) > len(groups)
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


def assert_kernels_match_loops(alg, relations, seen):
    """Every predicate on every relation, the laws and every zero candidate,
    and the seed relations: identical results, witnesses included."""
    for r in relations:
        for ours, loops in PREDICATES:
            violation = ours(r, alg)
            assert violation == loops(r, alg), (ours.__name__, r)
            seen.add((ours.__name__, None if violation is None else violation.law))
    violation = check_associativity(alg)
    assert violation == associativity_by_loops(alg)
    seen.add(("associativity", None if violation is None else violation.law))
    for z in range(alg.size):
        violation = _zero_law_violation(alg, z)
        assert violation == zero_law_violation_by_loops(alg, z)
        seen.add(("zero", None if violation is None else violation.law.split(":")[0]))
    for plain in {True, alg.flavor == "plain"}:
        assert _seed_relations(alg, plain) == seed_relations_by_loops(alg, plain)


def test_battery_kernels_match_loops(menger_battery, plain_battery):
    rng = np.random.default_rng(6)
    seen = set()
    for conc in menger_battery[:40] + plain_battery[:30]:
        alg = abstract_from_concrete(conc)
        assert_kernels_match_loops(alg, relation_cases(alg, conc, rng), seen)
    # both verdicts and every law family occurred
    for name in ("is_l_regular", "is_l_cancellative", "is_v_negative"):
        assert (name, None) in seen and len({law for n, law in seen if n == name}) >= 2
    assert {("zero", None), ("zero", "zero-left"), ("zero", "zero-right")} <= seen


def test_m18_kernels_match_loops(m18):
    alg, _ = m18
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3,
                                             generator_count=1, seed=8))
    seen = set()
    assert_kernels_match_loops(alg, relation_cases(alg, conc, np.random.default_rng(18)),
                               seen)
    assert ("is_l_regular", None) in seen and ("is_v_negative", None) in seen


def test_perturbed_tables_kernels_match_loops(m18, menger_battery):
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
            assert_kernels_match_loops(pert, relation_cases(pert, None, rng, 3), seen)
    assert len({law for n, law in seen if n == "associativity"}) >= 2
    assert {("zero", "zero-superposition-arg"), ("zero", "zero-superposition-head"),
            ("is_v_negative", "v-negative-superposition"),
            ("is_l_cancellative", "l-cancellative-superposition")} <= seen


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


def test_menger_identity_memory_is_bounded():
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3, generator_count=1,
                                             seed=56, closure_cap=26))
    alg = abstract_from_concrete(conc)
    assert alg.size == 23
    tracemalloc.start()
    try:
        assert check_menger_identities(alg) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 8.7 MB; the whole S[S] array and its right side took 18.4 MB
    # in uint8 and would take 8 times that in intp
    assert peak < 12 * 2**20


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


def test_domain_relations_match_bits_and_parts(menger_battery, plain_battery):
    for conc in menger_battery[:8] + plain_battery[:8]:
        assert domain_relations(conc) == domain_relations_by_bits(conc)
        alg, reps = battery_representations(conc)
        for rep in reps + [Representation(alg.size, ())]:
            assert representation_relations(rep) == representation_relations_by_parts(rep)


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
    monkeypatch.setattr(algebra, "STATE_BLOCK_CHILDREN", 1)
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
    monkeypatch.setattr(algebra, "STATE_BLOCK_CHILDREN", 1 << 40)
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
