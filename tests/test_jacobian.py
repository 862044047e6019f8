"""Jacobian-ring graded pieces and the period-map first approximation."""

import random
from fractions import Fraction

import pytest

from latconf.configs import seven_line_config, smoothness
from latconf.errors import DimensionError, LabelError, SmoothnessRequired
from latconf.jacobian import (
    AMBIENT,
    _slot,
    deformed_system,
    invariant_deformations,
    jacobian_rows,
    kappa_rows,
    kappa_sum_bases,
    kappa_target,
    kernel_family_vectors,
    monomial_labels,
    period_map,
    period_maps,
    quadric_rows,
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
    rank3 = Matrix(list(bad.data[:3]) + [bad.data[0]])
    # system errors, then kappa errors, then smoothness
    for fn in (period_map, kappa_target):
        with pytest.raises(DimensionError):
            fn(Matrix([[1, 2], [3, 4]]), 0)
        with pytest.raises(DimensionError, match="rank 4"):
            fn(rank3, 0)
        with pytest.raises(LabelError):
            fn(bad, 0)
        with pytest.raises(SmoothnessRequired):
            fn(bad, 3)
    with pytest.raises(DimensionError):
        period_maps(Matrix([[1, 2], [3, 4]]))
    with pytest.raises(SmoothnessRequired):
        period_maps(bad)


def test_one_elimination_of_the_system(monkeypatch):
    """Each entry point eliminates the 4 x 7 system once, for its Gale
    dual, and ``random_system`` each draw once; every other elimination
    is of a relation or period matrix."""
    q = random_system(random.Random(41))
    shapes = []
    for name in ("rref", "rank"):
        def counted(self, _original=getattr(Matrix, name)):
            shapes.append((self.rows, self.cols))
            return _original(self)
        monkeypatch.setattr(Matrix, name, counted)
    calls = {
        "period_map": lambda: period_map(q, 3),
        "period_maps": lambda: period_maps(q),
        "kappa_target": lambda: kappa_target(q, 5),
        "invariant_deformations": lambda: invariant_deformations(q),
        "kernel_family_vectors": lambda: kernel_family_vectors(q, 2),
        "deformed_system": lambda: deformed_system(q, [0] * AMBIENT, 1),
        "smoothness": lambda: smoothness(q),
        "seven_line_config": lambda: seven_line_config(q),
    }
    for name, call in calls.items():
        shapes.clear()
        call()
        assert shapes.count((4, 7)) == 1, name

    class Draws(random.Random):
        """Counts the entries drawn, 28 per system."""
        entries = 0

        def randint(self, a, b):
            self.entries += 1
            return super().randint(a, b)

    for smooth in (True, False):
        rng = Draws(0)
        shapes.clear()
        for _ in range(20):
            random_system(rng, smooth)
        draws = rng.entries // 28
        assert shapes.count((4, 7)) == draws, smooth
        assert draws > 20 or not smooth  # a non-smooth draw was rejected


def test_relation_counts():
    rng = random.Random(18)
    q = random_system(rng)
    # 16 quadric rows + 7 jacobian rows with a single overlap
    rows = quadric_rows(q) + jacobian_rows(q)
    assert len(rows) == 16 + 7
    assert Matrix(rows).rank() == 22
    assert invariant_deformations(q).dimension == AMBIENT - 22
    rows += kappa_rows(q, 1)
    assert len(rows) == 16 + 7 + 6
    assert Matrix(rows).rank() == 24
    first, _ = kappa_target(q, 1)
    assert first.dimension == AMBIENT - 24


class FullWidthPiece:
    """Oracle: a graded piece as the 28 ambient monomials modulo the
    full relation matrix, read off one ``Matrix.rref``."""

    def __init__(self, rows):
        red, pivots = Matrix(rows).rref()
        self.rows = [list(red.data[r]) for r in range(len(pivots))]
        self.pivots = pivots
        self.free = tuple(c for c in range(AMBIENT) if c not in pivots)

    def reduce_vector(self, vec):
        vec = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            coef = vec[p]
            if coef != 0:
                vec = [x - coef * y for x, y in zip(vec, row)]
        return [vec[f] for f in self.free]


def _oracle_source(q):
    return FullWidthPiece(quadric_rows(q) + jacobian_rows(q))


def _oracle_target(q, kappa):
    return FullWidthPiece(
        quadric_rows(q) + jacobian_rows(q) + kappa_rows(q, kappa)
    )


def test_quotient_pieces_match_full_width_oracle():
    rng = random.Random(41)
    for _ in range(20):
        q = random_system(rng)
        maps = period_maps(q)
        source = _oracle_source(q)
        randoms = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(AMBIENT)]
            for _ in range(2)
        ]
        for vec in randoms:
            assert maps[1].source.reduce_vector(vec) == source.reduce_vector(vec)
        for kappa, pm in maps.items():
            target = _oracle_target(q, kappa)
            assert pm.source.free == source.free
            assert pm.target.free == target.free
            family = kernel_family_vectors(q, kappa)
            for vec in family[:2]:
                assert pm.source.reduce_vector(vec) == source.reduce_vector(vec)
            for vec in family[:3] + randoms:
                assert pm.target.reduce_vector(vec) == target.reduce_vector(vec)
            cols = []
            for f in source.free:
                unit = [0] * AMBIENT
                unit[f] = 1
                cols.append(target.reduce_vector(unit))
            matrix = Matrix.from_columns(cols)
            assert pm.matrix == matrix
            assert pm.kernel == matrix.kernel_basis()


def test_degenerate_target_matches_full_width_oracle():
    rng = random.Random(43)
    for kappa in range(2, 8):  # _degenerate copies column 1 onto kappa
        bad = _degenerate(rng, kappa)
        first, _ = kappa_target(bad, kappa, require_smooth=False)
        oracle = _oracle_target(bad, kappa)
        assert first.free == oracle.free
        assert first.dimension != 4
        vec = [rng.randint(-9, 9) for _ in range(AMBIENT)]
        assert first.reduce_vector(vec) == oracle.reduce_vector(vec)


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
