"""Jacobian-ring graded pieces and the period-map first approximation."""

import random
from fractions import Fraction

import pytest

from latconf.configs import smoothness
from latconf.errors import DimensionError, LabelError, SmoothnessRequired
from latconf.jacobian import (
    AMBIENT,
    _slot,
    deformed_system,
    invariant_deformations,
    kappa_rows,
    kappa_sum_bases,
    kappa_target,
    kernel_family_vectors,
    monomial_labels,
    period_map,
    period_maps,
    squarefree_triples,
)
from latconf.matrices import Matrix
from latconf.verify import random_system


def test_monomial_labels_and_slots():
    labels = monomial_labels()
    assert len(labels) == AMBIENT == 28
    for i in range(1, 8):
        for j in range(4):
            assert labels[_slot(i, j)] == (i, j + 1)


def test_system_validation():
    with pytest.raises(DimensionError):
        invariant_deformations(Matrix([[1, 2], [3, 4]]))


def test_dimensions_on_smooth_systems():
    rng = random.Random(17)
    for _ in range(3):
        q = random_system(rng)
        inv = invariant_deformations(q)
        assert inv.dimension == 6
        for kappa in range(1, 8):
            first, second = kappa_target(q, kappa)
            assert (first.dimension, second.dimension) == (4, 2)
            data = period_map(q, kappa)
            assert data.rank == 4
            assert data.kernel.rows == 2
            assert data.to_json() == {
                "dim_R10": 6,
                "dim_target": [4, 2],
                "rank": 4,
                "kernel_dim": 2,
            }


def test_period_maps_equal_period_map():
    rng = random.Random(37)
    for _ in range(3):
        q = random_system(rng)
        maps = period_maps(q)
        assert list(maps) == list(range(1, 8))
        for kappa, pm in maps.items():
            one = period_map(q, kappa)
            assert pm.matrix == one.matrix
            assert pm.kernel == one.kernel
            assert pm.source.free == one.source.free
            assert pm.target.free == one.target.free
            assert pm.to_json() == one.to_json()
            # rank-nullity against an independent elimination
            assert pm.rank == pm.matrix.rank()


def _degenerate(rng, kappa):
    """A rank-4 system whose kappa column repeats column 1: not smooth."""
    while True:
        q = random_system(rng)
        cols = [list(q.column(j)) for j in range(7)]
        cols[kappa - 1] = cols[0]
        bad = Matrix.from_columns(cols)
        if bad.rank() == 4 and not smoothness(bad)[0]:
            return bad


def test_period_map_error_order():
    bad = _degenerate(random.Random(23), 3)
    # system errors, then kappa errors, then smoothness
    for fn in (period_map, kappa_target):
        with pytest.raises(DimensionError):
            fn(Matrix([[1, 2], [3, 4]]), 0)
        with pytest.raises(LabelError):
            fn(bad, 0)
        with pytest.raises(SmoothnessRequired):
            fn(bad, 3)
    with pytest.raises(DimensionError):
        period_maps(Matrix([[1, 2], [3, 4]]))
    with pytest.raises(SmoothnessRequired):
        period_maps(bad)


def test_relation_counts():
    rng = random.Random(18)
    q = random_system(rng)
    inv = invariant_deformations(q)
    # 16 quadric rows + 7 jacobian rows with a single overlap
    assert inv.relation_matrix.rows == 16 + 7
    assert inv.relation_matrix.rank() == 22
    first, _ = kappa_target(q, 1)
    assert first.relation_matrix.rows == 16 + 7 + 6
    assert first.relation_matrix.rank() == 24


def test_kappa_sum_bases_and_squarefree_triples():
    for kappa in range(1, 8):
        bases = kappa_sum_bases(kappa)
        assert len(bases) == 4
        for t in bases:
            assert kappa not in t
            assert t[0] ^ t[1] ^ t[2] == kappa
        assert squarefree_triples(kappa) == bases[:2]
    assert kappa_sum_bases(7) == [(1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6)]


def test_kernel_family_maps_to_zero():
    rng = random.Random(19)
    q = random_system(rng)
    for kappa in (2, 5):
        first, _ = kappa_target(q, kappa)
        data = period_map(q, kappa)
        for vec in kernel_family_vectors(q, kappa):
            assert all(x == 0 for x in first.reduce_vector(vec))
            coords = data.source.reduce_vector(vec)
            image = data.matrix * Matrix.from_columns([coords])
            assert image.is_zero()


def test_degenerate_system_requires_flag():
    kappa = 3
    bad = _degenerate(random.Random(23), kappa)
    with pytest.raises(SmoothnessRequired):
        kappa_target(bad, kappa)
    first, _ = kappa_target(bad, kappa, require_smooth=False)
    assert first.dimension != 4


def test_deformed_system_identity_and_linearity():
    rng = random.Random(29)
    q = random_system(rng)
    direction = [Fraction(rng.randint(-5, 5)) for _ in range(AMBIENT)]
    assert deformed_system(q, direction, 0) == q
    d1 = deformed_system(q, direction, 1)
    d2 = deformed_system(q, direction, 2)
    assert d2 - d1 == d1 - q
    for i in range(1, 8):
        for j in range(4):
            assert (d1.entry(j, i - 1) - q.entry(j, i - 1)
                    == direction[_slot(i, j)])


def test_kappa_rows_shape():
    rng = random.Random(31)
    q = random_system(rng)
    rows = kappa_rows(q, 4)
    assert len(rows) == 6
    assert all(len(r) == AMBIENT for r in rows)
