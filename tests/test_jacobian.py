"""Jacobian-ring graded pieces and the period-map first approximation."""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

import latconf.configs
import latconf.jacobian
import latconf.matrices
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
            assert (first.dimension, second) == (4, 2)
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


def _with_column(q, j, col):
    """``q`` with column j (0-based) replaced by ``col``."""
    cols = [list(q.column(i)) for i in range(7)]
    cols[j] = col
    return Matrix.from_columns(cols)


def _degenerate(rng, kappa):
    """A rank-4 system whose kappa column repeats column 1: not smooth."""
    while True:
        q = random_system(rng)
        bad = _with_column(q, kappa - 1, list(q.column(0)))
        if bad.rank() == 4 and not smoothness(bad)[0]:
            return bad


MEMO = latconf.jacobian._system_data
GALE = latconf.configs._gale_dual


def _clear_memos():
    """Cold memos: the system's entry and its Gale dual."""
    MEMO.cache_clear()
    GALE.cache_clear()


def test_period_map_error_order():
    bad = _degenerate(random.Random(23), 3)
    rank3 = Matrix(list(bad.data[:3]) + [bad.data[0]])
    # on a cold memo, and on one warmed by the bad system itself and by a
    # smooth one: system errors, then kappa errors, then smoothness
    warm_ups = (
        MEMO.cache_clear,
        lambda: kappa_target(bad, 3, require_smooth=False),
        lambda: period_map(random_system(random.Random(23)), 3),
    )
    for warm_up in warm_ups:
        for fn in (period_map, kappa_target):
            warm_up()
            with pytest.raises(DimensionError):
                fn(Matrix([[1, 2], [3, 4]]), 0)
            with pytest.raises(DimensionError, match="rank 4"):
                fn(rank3, 0)
            with pytest.raises(LabelError):
                fn(bad, 0)
            with pytest.raises(SmoothnessRequired):
                fn(bad, 3)
        warm_up()
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

    def counted(m, reduce=False, _original=latconf.matrices.bareiss):
        shapes.append((len(m), len(m[0]) if m else 0))
        return _original(m, reduce)

    monkeypatch.setattr(latconf.matrices, "bareiss", counted)
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
    memo_readers = (
        "period_map", "period_maps", "kappa_target", "invariant_deformations",
        "kernel_family_vectors",
    )
    for name, call in calls.items():
        _clear_memos()
        shapes.clear()
        call()
        assert shapes.count((4, 7)) == 1, name
        if name in memo_readers:  # a repeat reads the system off the memo
            shapes.clear()
            call()
            assert shapes.count((4, 7)) == shapes.count((6, 12)) == 0, name

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


def test_period_map_eliminations(monkeypatch):
    """One ``period_map`` runs six eliminations, all through the one
    kernel ``matrices.bareiss``: the system for its Gale dual, six of
    the source's seven Jacobian rows (they sum to zero), the target's
    three new rows on the source's free coordinates (not the stacked
    12 x 12 system), the system's columns in each of the second
    summand's two triples, and the two rows that span the period
    matrix's kernel (read off the target's step, see ``period_map``)."""
    q = random_system(random.Random(47))
    shapes = []

    def counted(m, reduce=False, _original=latconf.matrices.bareiss):
        shapes.append((len(m), len(m[0]) if m else 0))
        return _original(m, reduce)

    monkeypatch.setattr(latconf.matrices, "bareiss", counted)
    _clear_memos()
    period_map(q, 6)
    assert shapes == [(4, 7), (6, 12), (3, 6), (3, 4), (3, 4), (2, 6)]
    # a repeat on the same system, with any kappa, reads the system and
    # its source piece off the memo
    for kappa in (6, 2):
        shapes.clear()
        period_map(q, kappa)
        assert shapes == [(3, 6), (3, 4), (3, 4), (2, 6)]


def test_kernel_family_vectors_checks_the_system_alone(monkeypatch):
    """``kernel_family_vectors`` checks the system through its Gale dual
    and builds no source piece: a cold call eliminates the system only,
    and a call after ``period_map`` on the same system eliminates
    nothing."""
    q = random_system(random.Random(43))
    shapes = []

    def counted(m, reduce=False, _original=latconf.matrices.bareiss):
        shapes.append((len(m), len(m[0]) if m else 0))
        return _original(m, reduce)

    monkeypatch.setattr(latconf.matrices, "bareiss", counted)
    _clear_memos()
    cold = kernel_family_vectors(q, 2)
    assert shapes == [(4, 7)]
    _clear_memos()
    period_map(q, 2)
    shapes.clear()
    assert kernel_family_vectors(q, 2) == cold
    assert shapes == []


def test_warm_period_map_builds_two_matrices(monkeypatch):
    """A warm ``period_map`` builds two Matrices, its ``matrix`` and its
    ``kernel``: the second summand's ranks and the eliminations run on
    integer rows.  Every route to a new Matrix is counted: the class's
    constructor, ``from_integers`` and the module's unchecked builder,
    which ``from_integers``, ``zeros`` and the arithmetic go through."""
    q = random_system(random.Random(53))
    period_map(q, 1)
    made = []
    checked, unchecked = Matrix.from_integers.__func__, latconf.matrices._of_integers
    init = Matrix.__init__

    def counted_init(self, data):
        init(self, data)
        made.append(self)

    def counted_checked(cls, *args, **kwargs):
        m = checked(cls, *args, **kwargs)
        made.append(m)
        return m

    def counted_unchecked(*args, **kwargs):
        m = unchecked(*args, **kwargs)
        made.append(m)
        return m

    monkeypatch.setattr(Matrix, "__init__", counted_init)
    monkeypatch.setattr(Matrix, "from_integers", classmethod(counted_checked))
    monkeypatch.setattr(latconf.matrices, "_of_integers", counted_unchecked)
    for kappa in range(1, 8):
        made.clear()
        pm = period_map(q, kappa)
        assert {id(m) for m in made} == {id(pm.matrix), id(pm.kernel)}, kappa
        assert len(made) == 4  # each built by from_integers over the builder


def _cold(fn, *args, **kwargs):
    MEMO.cache_clear()
    return fn(*args, **kwargs)


def _same_map(pm, other):
    assert pm.matrix == other.matrix
    assert pm.kernel == other.kernel
    assert pm.source.free == other.source.free
    assert pm.target.free == other.target.free
    assert pm.to_json() == other.to_json()


def test_memo_warm_equals_cold():
    """Every kappa's map, target and source agree on a warm memo (after
    the system's other kappas) and a cold one."""
    rng = random.Random(59)
    for _ in range(3):
        q = random_system(rng)
        cold = {kappa: _cold(period_map, q, kappa) for kappa in range(1, 8)}
        targets = {kappa: _cold(kappa_target, q, kappa) for kappa in range(1, 8)}
        source = _cold(invariant_deformations, q)
        MEMO.cache_clear()
        for kappa in (4, 1, 7, 2, 6, 3, 5):
            _same_map(period_map(q, kappa), cold[kappa])
            assert kappa_target(q, kappa) == targets[kappa]
            assert invariant_deformations(q) == source
        for kappa, pm in period_maps(q).items():
            _same_map(pm, cold[kappa])
        assert MEMO.cache_info().currsize == 1


def test_memo_alternating_and_equal_systems():
    """Systems A, B, A in turn give A's cold answers again; an equal but
    distinct Matrix, and the system as a list of rows, hit A's entry."""
    rng = random.Random(61)
    a, b = random_system(rng), random_system(rng)
    cold_a = {kappa: _cold(period_map, a, kappa) for kappa in range(1, 8)}
    cold_b = {kappa: _cold(period_map, b, kappa) for kappa in range(1, 8)}
    for kappa in range(1, 8):
        for q, cold in ((a, cold_a), (b, cold_b), (a, cold_a)):
            _same_map(period_map(q, kappa), cold[kappa])
            assert MEMO.cache_info().currsize == 1
    twin, rows = Matrix(a.data), [list(row) for row in a.data]
    assert twin is not a and twin == a
    MEMO.cache_clear()
    period_map(a, 1)
    for q in (twin, rows):
        hits = MEMO.cache_info().hits
        for kappa in range(1, 8):
            _same_map(period_map(q, kappa), cold_a[kappa])
        assert MEMO.cache_info().hits == hits + 7
    _same_map(period_maps(rows)[5], cold_a[5])


def test_memo_keeps_no_error():
    """A non-smooth system right after a smooth one still raises, and
    still answers without the smoothness requirement; a system error
    leaves the previous entry in place."""
    rng = random.Random(67)
    good, bad = random_system(rng), _degenerate(rng, 5)
    cold_first, cold_second = _cold(kappa_target, bad, 5, require_smooth=False)
    period_map(good, 5)
    with pytest.raises(SmoothnessRequired):
        period_map(bad, 5)
    first, second = kappa_target(bad, 5, require_smooth=False)
    assert (first, second) == (cold_first, cold_second)
    assert first.dimension != 4
    with pytest.raises(SmoothnessRequired):
        kappa_target(bad, 5)
    with pytest.raises(SmoothnessRequired):
        period_maps(bad)
    period_map(good, 5)
    misses = MEMO.cache_info().misses
    with pytest.raises(DimensionError):
        period_map(Matrix(list(good.data[:3]) + [good.data[0]]), 5)
    assert MEMO.cache_info().misses == misses + 1
    period_map(good, 5)  # still the entry
    assert MEMO.cache_info().misses == misses + 1
    assert MEMO.cache_info().maxsize == 1
    assert MEMO.cache_info().currsize <= 1


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
    full relation matrix, read off one ``Matrix.rref``, whose integer
    rows ``num`` are ``den`` times the RREF."""

    def __init__(self, rows):
        red, pivots = Matrix(rows).rref()
        self.free = tuple(c for c in range(AMBIENT) if c not in pivots)
        self.pivots = pivots
        self.rows = [[row[f] for f in self.free] for row in red.num[: len(pivots)]]
        self.den = red.den

    def reduce_vector(self, vec):
        """Each RREF row is zero at the other pivots, so the class of vec
        is vec minus vec[p] times the row of p, summed over the pivots p,
        on the free monomials."""
        vec = Matrix([vec])
        (num,), den = vec.num, vec.den
        out = [self.den * num[f] for f in self.free]
        for row, p in zip(self.rows, self.pivots):
            coef = num[p]
            if coef:
                out = [x - coef * y for x, y in zip(out, row)]
        return [Fraction(x, den * self.den) for x in out]


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


def _oracle_second_dim(q, kappa):
    """8 minus the rank of the second summand's six relation rows
    e_t (x) q_p, p in the retained triple t, on its 8 monomials."""
    rows = []
    for t_index, t in enumerate(squarefree_triples(kappa)):
        for p in t:
            row = [0] * 8
            row[4 * t_index:4 * t_index + 4] = q.column(p - 1)
            rows.append(row)
    return 8 - Matrix(rows).rank()


def test_degenerate_target_matches_full_width_oracle():
    rng = random.Random(43)

    def check(bad, kappa):
        first, second = kappa_target(bad, kappa, require_smooth=False)
        oracle = _oracle_target(bad, kappa)
        assert first.free == oracle.free
        vec = [rng.randint(-9, 9) for _ in range(AMBIENT)]
        assert first.reduce_vector(vec) == oracle.reduce_vector(vec)
        assert second == _oracle_second_dim(bad, kappa)
        return first, second

    for kappa in range(2, 8):  # _degenerate copies column 1 onto kappa
        first, _ = check(_degenerate(rng, kappa), kappa)
        assert first.dimension != 4
    for kappa in (1, 4, 7):  # a zero kappa column: no target rows at all
        q = _with_column(random_system(rng), kappa - 1, [0] * 4)
        assert q.rank() == 4 and not smoothness(q)[0]
        check(q, kappa)
    for kappa in range(1, 8):  # a column repeated inside a retained triple
        t = squarefree_triples(kappa)[kappa % 2]
        q = random_system(rng)
        q = _with_column(q, t[2] - 1, list(q.column(t[0] - 1)))
        assert q.rank() == 4 and not smoothness(q)[0]
        _, second = check(q, kappa)
        assert second == 3
    # triples of rank 2, 1 and 0: a zero column, repeated and proportional
    # columns, and a triple of zero columns; the two retained triples
    # share one character, so the other triple's rank drops too when its
    # shared column is zero
    ranks = set()
    for kappa in range(1, 8):
        for t in squarefree_triples(kappa):
            a, b, c = (p - 1 for p in t)
            q = random_system(rng)
            col, zero = [list(q.column(j)) for j in range(7)], [0] * 4
            for changes in (
                {b: zero},
                {b: col[a], c: col[a]},
                {b: [2 * x for x in col[a]], c: zero},
                {a: zero, b: zero, c: zero},
            ):
                bad = q
                for j, new in changes.items():
                    bad = _with_column(bad, j, new)
                assert bad.rank() == 4 and not smoothness(bad)[0]
                ranks.add(Matrix.from_columns([bad.column(p - 1) for p in t]).rank())
                check(bad, kappa)
    assert ranks == {0, 1, 2}


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


def test_relation_rows_and_deformation_against_fraction_entries():
    """On a system with den > 1, every relation row holds the Fraction
    entries of the system at their slots, and Q + t·D adds t times each
    direction coefficient to its entry."""
    rng = random.Random(37)
    q = Matrix([[Fraction(x, rng.randint(1, 4)) for x in row]
                for row in random_system(rng).num])
    assert q.den > 1
    kappa = 3

    def ambient(value):  # the row with value(character, j) at x_{character+1}^2 y_j
        return [value(i, j) for i in range(7) for j in range(4)]

    expected = [
        ambient(lambda i, jj: q.entry(k, i) if jj == j else 0)
        for k in range(4) for j in range(4)
    ]
    expected += [ambient(lambda i, j: q.entry(j, s) if i == s else 0) for s in range(7)]
    expected += [
        ambient(lambda i, j: q.entry(j, kappa - 1) if i == s else 0)
        for s in range(7) if s != kappa - 1
    ]
    rows = quadric_rows(q) + jacobian_rows(q) + kappa_rows(q, kappa)
    assert rows == expected
    assert all(type(x) is Fraction for row in rows for x in row)
    direction = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(AMBIENT)]
    t = Fraction(-2, 3)
    moved = deformed_system(q, direction, t)
    assert all(
        moved.entry(j, i - 1) == q.entry(j, i - 1) + t * direction[_slot(i, j)]
        for i in range(1, 8) for j in range(4)
    )


def test_vector_lengths_are_checked():
    """A graded-piece vector and a deformation direction have exactly
    AMBIENT entries; a short one no longer reads as zero-padded and a
    long one no longer drops its tail."""
    q = random_system(random.Random(71))
    pm = period_map(q, 2)
    for n in (5, AMBIENT - 1, AMBIENT + 1, 30):
        for piece in (pm.source, pm.target):
            with pytest.raises(DimensionError, match="28 entries"):
                piece.reduce_vector([1] * n)
        with pytest.raises(DimensionError, match="28 entries"):
            deformed_system(q, [1] * n, 1)
    assert len(pm.source.reduce_vector([1] * AMBIENT)) == 6
    assert deformed_system(q, [0] * AMBIENT, 5) == q


def _small_system(rng):
    """A smooth system with entries in [-2, 2]: its period maps often
    have non-generic free columns."""
    while True:
        q = Matrix([[rng.randint(-2, 2) for _ in range(7)] for _ in range(4)])
        if q.rank() == 4 and smoothness(q)[0]:
            return q


def _systems(seed, generic, small):
    rng = random.Random(seed)
    return [random_system(rng) for _ in range(generic)] + [
        _small_system(rng) for _ in range(small)
    ]


def test_kernel_against_sympy_nullspace():
    """The kernel read off the target's step is sympy's nullspace of the
    period matrix, for every kappa, including small-entry systems whose
    period matrices have non-generic free columns."""
    frees = set()
    for q in _systems(73, 4, 12):
        for kappa in range(1, 8):
            pm = period_map(q, kappa)
            m = sympy.Matrix(pm.matrix.rows, pm.matrix.cols,
                             [sympy.Rational(x) for row in pm.matrix.data for x in row])
            want = [[Fraction(int(x.p), int(x.q)) for x in v] for v in m.nullspace()]
            assert [list(row) for row in pm.kernel.data] == want
            assert pm.rank == m.rank()
            frees.add(tuple(c for c in range(6) if c not in pm.matrix.rref()[1]))
    assert len(frees) > 2  # not only the generic free columns


def test_steps_in_lowest_terms():
    """Every stored reduction step has gcd(scale, entries) = 1."""
    for q in _systems(79, 6, 4):
        for kappa in range(1, 8):
            first, _ = kappa_target(q, kappa)
            for _, _, rows, scale in first.steps:
                assert gcd(scale, *(x for row in rows for x in row)) == 1


PINNED_PERIOD_MAPS = "d48d24d90f585fbb81a36956e9116844aa1e200c103a5af9b9f8f4f5625cc142"


def test_period_map_outputs_pinned():
    """The summary, matrix, kernel and free monomials of 50 seeded
    systems' 350 period maps hash to the digest of the code before the
    steps were kept in lowest terms: any changed output byte fails."""
    h = hashlib.sha256()
    for q in _systems(2401, 40, 10):
        for kappa in range(1, 8):
            pm = period_map(q, kappa)
            h.update(json.dumps([
                pm.to_json(), pm.matrix.to_json(), pm.kernel.to_json(),
                list(pm.source.free), list(pm.target.free),
            ]).encode())
    assert h.hexdigest() == PINNED_PERIOD_MAPS
