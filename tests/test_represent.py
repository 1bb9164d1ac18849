import numpy as np
import pytest

from mengerkit import (
    AbstractAlgebra,
    BinRelation,
    CapacityError,
    EMPTY,
    InputError,
    PartialFunction,
    Representation,
    abstract_from_concrete,
    build_closure,
    build_universe,
    close_under_operations,
    domain_relations,
    identity_representation,
    is_faithful,
    representation_relations,
    sum_over_pairs,
    sum_over_points,
    sum_representations,
    verify_homomorphism,
)
from mengerkit import represent, tables

from oracles import representability_by_groups


def rel(size, pairs):
    return BinRelation.from_pairs(size, pairs)


# -- universes --------------------------------------------------------


def test_one_element_universe(one_elem):
    universe = build_universe(one_elem)
    assert universe.points == ((0, 0), (0, EMPTY), (EMPTY, 0), (EMPTY, EMPTY))


def test_zero_proj_universe(zero_proj):
    universe = build_universe(zero_proj)
    assert len(universe) == 9
    assert universe.points[-1] == (EMPTY, EMPTY)
    # the four all-carrier points come first, ordered lexicographically
    assert universe.points[:4] == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_blank_point_always_present(zero_proj_plain):
    universe = build_universe(zero_proj_plain)
    assert (EMPTY, EMPTY) in universe.points


def test_bullet_universe_only_has_realizable_points(zero_proj_plain):
    universe = build_universe(zero_proj_plain)
    blank = (EMPTY, EMPTY)
    reached = {tuple(row) for row in zero_proj_plain.states().slots.tolist()}
    for point in universe.points:
        if point != blank:
            assert point in reached


def test_universe_rejects_non_representable():
    # right projection in slot 1, constant 0 in slot 2: words (2,0) and
    # (2,1) share occupants only if ... build a table pair that fails
    from mengerkit import check_representability
    from itertools import product
    ops = [tuple(tuple(t[2 * a + b] for b in range(2)) for a in range(2))
           for t in product(range(2), repeat=4)]
    assoc = [t for t in ops
             if all(t[t[x][y]][z] == t[x][t[y][z]]
                    for x in range(2) for y in range(2) for z in range(2))]
    bad = None
    for m1 in assoc:
        for m2 in assoc:
            alg = AbstractAlgebra(2, 2, (m1, m2), None, None, "plain")
            if check_representability(alg) is not None:
                bad = alg
                break
        if bad:
            break
    assert bad is not None
    assert check_representability(bad) == representability_by_groups(bad)
    with pytest.raises(InputError):
        build_universe(bad)


def test_universe_refuses_over_the_cell_cap_before_it_builds(
        zero_proj_concrete, zero_proj_plain_concrete, monkeypatch):
    def built(alg, space):
        raise AssertionError("the universe was built before the cap was checked")

    for conc in (zero_proj_concrete, zero_proj_plain_concrete):
        universe = build_universe(abstract_from_concrete(conc))
        # n=2, m=2: the substitution table, the value table, and the
        # all-tuple index if any
        cells = len(universe) * (2 * (2 + 1) + 2) + 3**2 * universe.has_all_tuples
        with monkeypatch.context() as patch:
            patch.setattr(tables, "MAX_TABLE_CELLS", cells - 1)
            patch.setattr(represent, "_cross_witness_check", built)
            with pytest.raises(CapacityError) as err:
                build_universe(abstract_from_concrete(conc))
        assert err.value.count == cells


def test_all_tuple_index_counts_in_the_cell_cap(monkeypatch):
    # one member at n=6 on a one-element base: one point, 1 * 6 * (1 + 1)
    # substitution cells and a (1 + 1)**6 all-tuple index
    conc = close_under_operations([PartialFunction.constant(6, 1, 0)])
    monkeypatch.setattr(tables, "MAX_TABLE_CELLS", 12 + 64 - 1)
    with pytest.raises(CapacityError) as err:
        identity_representation(conc)
    assert err.value.count == 12 + 64
    monkeypatch.setattr(tables, "MAX_TABLE_CELLS", 12 + 64)
    universe = identity_representation(conc).parts[0].universe
    assert universe.has_all_tuples and universe.all_index.shape == (2,) * 6


def test_universe_cached(zero_proj):
    assert build_universe(zero_proj) is build_universe(zero_proj)


# -- single parts ------------------------------------------------------


def test_one_element_pair_part_total(one_elem):
    chi = BinRelation.diagonal(1)
    rep = sum_over_pairs(one_elem, chi, rel(1, [(0, 0)]))
    assert (rep.parts[0].assign == 0).all()


def test_zero_proj_pair_part_domains(zero_proj):
    chi0 = build_closure(zero_proj, "chi0")
    rep = sum_over_pairs(zero_proj, chi0, rel(2, [(1, 1)]))
    part = rep.parts[0]
    universe = part.universe
    # the projection is defined exactly where its value stays itself
    defined = {universe.points[i] for i in np.nonzero(part.assign[1] >= 0)[0]}
    assert defined == {(1, 1), (1, EMPTY), (EMPTY, 1), (EMPTY, EMPTY)}
    # the zero's function is empty: nothing sits chi-above the projection
    assert (part.assign[0] == -1).all()


def test_zero_proj_point_part_total(zero_proj):
    chi0 = build_closure(zero_proj, "chi0")
    rep = sum_over_pairs(zero_proj, chi0, rel(2, [(0, 0)]))
    assert (rep.parts[0].assign >= 0).all()


def test_chi_precondition_enforced(zero_proj):
    with pytest.raises(InputError):
        sum_over_pairs(zero_proj, BinRelation.diagonal(2), rel(2, [(0, 0)]))
    with pytest.raises(InputError):
        sum_over_pairs(zero_proj, rel(2, [(0, 1)]), rel(2, [(0, 0)]))


def test_pair_anchors_must_lie_in_the_carrier(zero_proj):
    chi0 = build_closure(zero_proj, "chi0")
    with pytest.raises(InputError):
        sum_over_pairs(zero_proj, chi0, rel(6, [(0, 5)]))


# -- relations of representations ---------------------------------------


def test_single_part_relations(one_elem):
    chi = BinRelation.diagonal(1)
    rep = sum_over_pairs(one_elem, chi, rel(1, [(0, 0)]))
    chi_p, gamma_p, pi_p = representation_relations(rep)
    assert sorted(chi_p.pairs()) == [(0, 0)]
    assert sorted(gamma_p.pairs()) == [(0, 0)]
    assert sorted(pi_p.pairs()) == [(0, 0)]


def test_zero_proj_sum_reproduces_least_order(zero_proj):
    chi0 = build_closure(zero_proj, "chi0")
    rep = sum_over_pairs(zero_proj, chi0, rel(2, [(1, 1)]))
    chi_p, gamma_p, pi_p = representation_relations(rep)
    assert chi_p == chi0
    assert sorted(gamma_p.pairs()) == [(1, 1)]
    assert pi_p == BinRelation.diagonal(2)


def test_pi_is_always_the_kernel_of_chi(menger_battery):
    for conc in menger_battery[:10]:
        alg = abstract_from_concrete(conc)
        chi, gamma, _ = domain_relations(conc)
        rep = sum_over_pairs(alg, chi, gamma)
        chi_p, _, pi_p = representation_relations(rep)
        assert pi_p == chi_p & chi_p.transpose()
        assert pi_p.is_equivalence()


def test_empty_sum_conventions():
    rep = Representation(3, ())
    chi_p, gamma_p, pi_p = representation_relations(rep)
    assert chi_p == BinRelation.full(3)
    assert gamma_p == BinRelation.empty(3)
    assert pi_p == BinRelation.full(3)
    assert is_faithful(rep) is not None  # all three rows collide vacuously


def test_sum_of_one_part_is_that_part(zero_proj):
    chi0 = build_closure(zero_proj, "chi0")
    rep = sum_over_pairs(zero_proj, chi0, rel(2, [(1, 1)]))
    total = sum_representations([rep])
    assert representation_relations(total) == representation_relations(rep)


def test_sum_combines_per_component(zero_proj):
    chi0 = build_closure(zero_proj, "chi0")
    pair_rep = sum_over_pairs(zero_proj, chi0, rel(2, [(1, 1)]))
    point_rep = sum_over_pairs(zero_proj, chi0, rel(2, [(0, 0)]))
    total = sum_representations([pair_rep, point_rep])
    chi_p, gamma_p, pi_p = representation_relations(total)
    chi_1, gamma_1, pi_1 = representation_relations(pair_rep)
    chi_2, gamma_2, pi_2 = representation_relations(point_rep)
    assert chi_p == chi_1 & chi_2
    assert gamma_p == gamma_1 | gamma_2
    assert pi_p == pi_1 & pi_2


def test_sum_rejects_carrier_mismatch(zero_proj, one_elem):
    chi0 = build_closure(zero_proj, "chi0")
    rep2 = sum_over_pairs(zero_proj, chi0, rel(2, [(0, 0)]))
    rep1 = sum_over_pairs(one_elem, BinRelation.diagonal(1), rel(1, [(0, 0)]))
    with pytest.raises(InputError):
        sum_representations([rep1, rep2])


# -- homomorphism checks ----------------------------------------------------


def test_homomorphism_fixtures(one_elem, zero_proj):
    rep = sum_over_pairs(one_elem, BinRelation.diagonal(1), rel(1, [(0, 0)]))
    assert verify_homomorphism(rep, one_elem) is None
    chi0 = build_closure(zero_proj, "chi0")
    rep = sum_over_pairs(zero_proj, chi0, rel(2, [(1, 1)]))
    assert verify_homomorphism(rep, zero_proj) is None


def test_homomorphism_on_plain(zero_proj_plain):
    chi0 = build_closure(zero_proj_plain, "chi0_bullet")
    rep = sum_over_points(zero_proj_plain, chi0)
    assert verify_homomorphism(rep, zero_proj_plain) is None


def test_corrupted_assignment_is_flagged(zero_proj):
    chi0 = build_closure(zero_proj, "chi0")
    rep = sum_over_pairs(zero_proj, chi0, rel(2, [(0, 0)]))
    corrupted = rep.parts[0].assign.copy()
    corrupted[1, 0] = 1 - corrupted[1, 0]
    from mengerkit.represent import ReprPart
    broken = Representation(2, (ReprPart(rep.parts[0].universe, corrupted),))
    violation = verify_homomorphism(broken, zero_proj)
    assert violation is not None
    assert violation.law.startswith("homomorphism")


# -- faithfulness --------------------------------------------------------


def test_identity_representation_is_faithful(zero_proj_concrete):
    rep = identity_representation(zero_proj_concrete)
    assert is_faithful(rep) is None


def test_collision_reported(zero_proj):
    chi0 = build_closure(zero_proj, "chi0")
    rep = sum_over_pairs(zero_proj, chi0, rel(2, [(1, 1)]))
    part = rep.parts[0]
    collided = part.assign.copy()
    collided[0] = collided[1]
    from mengerkit.represent import ReprPart
    broken = Representation(2, (ReprPart(part.universe, collided),))
    assert is_faithful(broken) == (0, 1)


def test_one_element_vacuously_faithful(one_elem):
    rep = sum_over_pairs(one_elem, BinRelation.diagonal(1), rel(1, [(0, 0)]))
    assert is_faithful(rep) is None


# -- identity representation ------------------------------------------------


def test_identity_relations_total_pair(proj1, proj2):
    from mengerkit import ConcreteAlgebra
    conc = ConcreteAlgebra(2, 2, (proj1, proj2), "menger")
    rep = identity_representation(conc)
    chi_l, _, _ = representation_relations(rep)
    assert chi_l == BinRelation.full(2)


def test_identity_relations_match_domain_relations(zero_proj_concrete):
    rep = identity_representation(zero_proj_concrete)
    assert representation_relations(rep) == domain_relations(zero_proj_concrete)


def test_identity_representation_is_homomorphism(zero_proj_concrete, zero_proj):
    rep = identity_representation(zero_proj_concrete)
    assert verify_homomorphism(rep, zero_proj) is None


def test_part_dedupe_keeps_labels(zero_proj):
    chi0 = build_closure(zero_proj, "chi0")
    gamma = BinRelation.full(2)
    rep = sum_over_pairs(zero_proj, chi0, gamma)
    labels = [label for part in rep.parts for label in part.labels]
    assert len(labels) == 4  # one label per related pair survives dedupe
    assert len(rep.parts) < 4
