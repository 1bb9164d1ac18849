"""The array kernels of the homomorphism check and the mixed Menger laws
against the dense and loop implementations kept in ``oracles``: both must
return the same Violation, witness included, not only the same verdict."""

import tracemalloc

import numpy as np
import pytest

from mengerkit import (
    AbstractAlgebra,
    GeneratorConfig,
    Representation,
    Target,
    abstract_from_concrete,
    domain_relations,
    generate_concrete,
    identity_representation,
    roundtrip,
    sum_over_pairs,
    verify_homomorphism,
)
from mengerkit import represent
from mengerkit.algebra import _mixed_law_violation
from mengerkit.represent import ReprPart
from mengerkit.theorems import TARGET_KINDS

from oracles import dense_homomorphism_violation, mixed_law_violation_by_loops


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


def test_battery_representations_match_dense_check(menger_battery, plain_battery):
    rng = np.random.default_rng(0)
    flagged = 0
    for conc in menger_battery[:8] + plain_battery[:8]:
        alg = abstract_from_concrete(conc)
        chi, gamma, pi = domain_relations(conc)
        reps = [identity_representation(conc)]
        for kind in TARGET_KINDS:
            verdict = roundtrip(alg, Target(kind, chi=chi, gamma=gamma, pi=pi))
            assert verdict.representation is not None, kind
            reps.append(verdict.representation)
        for rep in reps:
            assert verify_homomorphism(rep, alg) is None
            assert dense_homomorphism_violation(rep, alg) is None
            k = int(rng.integers(len(rep.parts)))
            g = int(rng.integers(rep.size))
            p = int(rng.integers(rep.parts[k].assign.shape[1]))
            broken = corrupted(rep, k, g, p)
            violation = verify_homomorphism(broken, alg)
            assert violation == dense_homomorphism_violation(broken, alg)
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
        laws = _mixed_law_violation(pert, pert.sup_array())
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
        assert _mixed_law_violation(const, const.sup_array()) == expected


def test_homomorphism_check_memory_is_bounded():
    conc = generate_concrete(GeneratorConfig(arity=2, base_size=3, generator_count=1,
                                             seed=56, closure_cap=26))
    alg = abstract_from_concrete(conc)
    chi, gamma, _ = domain_relations(conc)
    rep = sum_over_pairs(alg, chi, gamma)
    assert alg.size == 23
    assert len(list(gamma.pairs())) == 376 and len(rep.parts) == 11
    assert sum(len(part.labels) for part in rep.parts) == 376
    tracemalloc.start()
    try:
        assert verify_homomorphism(rep, alg) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # measured 3.8 MB; the whole-part arrays took 163.5 MB
