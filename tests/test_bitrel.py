from hypothesis import given
from hypothesis import strategies as st
import numpy as np
import pytest

from mengerkit import BinRelation, InputError, is_l_regular


def rel(size, pairs):
    return BinRelation.from_pairs(size, pairs)


def relation_flags(r: BinRelation) -> dict[str, bool]:
    """Standard property flags of a relation."""
    reflexive = r.is_reflexive()
    symmetric = r.is_symmetric()
    transitive = r.is_transitive()
    return {
        "reflexive": reflexive,
        "symmetric": symmetric,
        "transitive": transitive,
        "quasi_order": reflexive and transitive,
        "equivalence": reflexive and transitive and symmetric,
    }


def test_then_chains_left_operand_first():
    sigma = rel(3, [(1, 2)])
    rho = rel(3, [(0, 1)])
    assert sorted(rho.then(sigma).pairs()) == [(0, 2)]
    # the opposite order is empty, so the orientation is observable
    assert sorted(sigma.then(rho).pairs()) == []


def test_then_with_diagonal_is_identity():
    r = rel(3, [(0, 1), (2, 0)])
    diag = BinRelation.diagonal(3)
    assert r.then(diag) == r
    assert diag.then(r) == r


def test_flags_on_diagonal():
    assert relation_flags(BinRelation.diagonal(3)) == {
        "reflexive": True,
        "symmetric": True,
        "transitive": True,
        "quasi_order": True,
        "equivalence": True,
    }


def test_flags_on_single_offdiagonal_pair():
    flags = relation_flags(rel(2, [(0, 1)]))
    assert flags == {
        "reflexive": False,
        "symmetric": False,
        "transitive": True,
        "quasi_order": False,
        "equivalence": False,
    }


def test_flags_on_full_relation():
    assert relation_flags(BinRelation.full(3))["equivalence"] is True


def test_transpose_and_subset():
    r = rel(3, [(0, 1), (1, 2)])
    assert sorted(r.transpose().pairs()) == [(1, 0), (2, 1)]
    assert r.issubset(r | BinRelation.diagonal(3))
    assert not (r | BinRelation.diagonal(3)).issubset(r)


def test_size_mismatch_rejected():
    with pytest.raises(InputError):
        rel(2, [(0, 1)]) & rel(3, [])


def test_out_of_range_pair_rejected():
    with pytest.raises(InputError):
        rel(2, [(0, 5)])


@st.composite
def relations(draw, max_size=5):
    size = draw(st.integers(1, max_size))
    mask = draw(st.integers(0, (1 << (size * size)) - 1))
    rows = tuple((mask >> (a * size)) & ((1 << size) - 1) for a in range(size))
    return BinRelation(size, rows)


@given(relations())
def test_transitive_closure_matches_power_union(r):
    expected = BinRelation.empty(r.size)
    power = r
    for _ in range(r.size):
        expected = expected | power
        power = power.then(r)
    closure = r.transitive_closure()
    assert closure == expected
    assert closure.is_transitive()
    assert r.issubset(closure)


@given(relations(), relations())
def test_then_is_relational_composition(a, b):
    if a.size != b.size:
        return
    expected = {
        (x, z)
        for x, y in a.pairs()
        for y2, z in b.pairs()
        if y == y2
    }
    assert set(a.then(b).pairs()) == expected



def test_from_pairs_takes_numpy_ints(zero_proj):
    r = BinRelation.from_pairs(2, [(np.int64(0), np.int64(0))])
    assert type(r.rows[0]) is int
    assert is_l_regular(r, zero_proj) is None
    wide = BinRelation.from_pairs(70, [(0, np.int64(65))])
    assert wide.rows[0] == 1 << 65 and wide.contains(0, 65)
    with pytest.raises(TypeError):
        BinRelation.from_pairs(2, [(0.0, 1)])


def test_matrix_is_kept_and_read_only():
    r = rel(3, [(0, 2), (1, 1)])
    assert r.matrix is r.matrix
    assert r.matrix.tolist() == [[bool(v) for v in row] for row in r.to_matrix()]
    with pytest.raises(ValueError):
        r.matrix[0, 0] = True
    assert BinRelation.from_array(r.matrix) == r
