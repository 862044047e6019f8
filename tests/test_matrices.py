"""Exact linear algebra: normal forms, rank, kernels."""

import hashlib
import json
import random
from enum import IntEnum
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from latconf.errors import DimensionError, SingularMatrixError
from latconf.lattices import parse_lattice_name
from latconf.matrices import (
    Matrix,
    bareiss,
    echelon,
    frac_to_str,
    hnf,
    null_space,
    rank,
    snf,
    solve_rows,
    str_to_frac,
)

small_int = st.integers(min_value=-9, max_value=9)
rational = st.one_of(
    st.just(Fraction(0)),
    small_int.map(Fraction),
    st.builds(Fraction, small_int, st.integers(min_value=1, max_value=7)),
)


def int_matrix(rows, cols):
    return st.lists(
        st.lists(small_int, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(Matrix)


def test_basic_arithmetic():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a + b == Matrix([[1, 3], [4, 4]])
    assert a - b == Matrix([[1, 1], [2, 4]])
    assert a * b == Matrix([[2, 1], [4, 3]])
    assert a.transpose() == Matrix([[1, 3], [2, 4]])
    assert a.det() == -2
    assert a.rank() == 2
    assert (a * a.inverse()) == Matrix.identity(2)


def test_singular_inverse_raises():
    with pytest.raises(SingularMatrixError):
        Matrix([[1, 2], [2, 4]]).inverse()


def test_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        Matrix([[1, 2]]) * Matrix([[1, 2]])


def test_fraction_strings_round_trip():
    for x in (Fraction(3), Fraction(-5, 2), Fraction(0), Fraction(7, 11)):
        assert str_to_frac(frac_to_str(x)) == x
    assert frac_to_str(Fraction(1, 2)) == "1/2"
    assert frac_to_str(Fraction(4, 2)) == "2"


def test_json_round_trip():
    m = Matrix([[Fraction(1, 2), 3], [-4, Fraction(5, 7)]])
    assert Matrix.from_json(m.to_json()) == m


def test_no_rows_keep_their_width():
    empty = Matrix.zeros(0, 3)
    assert (empty.rows, empty.cols) == (0, 3)
    assert empty != Matrix.zeros(0, 2)
    assert Matrix.identity(3).submatrix([], range(3)) == empty
    kernel = Matrix.identity(3).kernel_basis()
    assert (kernel.rows, kernel.cols) == (0, 3)
    assert kernel == empty
    assert empty * Matrix.identity(3) == empty
    assert Matrix.zeros(2, 0) * empty == Matrix.zeros(2, 3)
    assert (empty.transpose().rows, empty.transpose().cols) == (3, 0)
    assert Matrix.zeros(3, 0).transpose() == empty
    assert Matrix.from_json(empty.to_json()) == empty
    assert hnf(empty) == empty and snf(empty)[0] == empty
    with pytest.raises(DimensionError):
        Matrix.from_json({"rows": 0, "cols": -1, "entries": []})


def assert_same_row_lattice(h, m):
    """h and m generate the same row lattice: each one's rows are integral
    combinations of a basis of the other's lattice.  The basis of m's
    lattice is the nonzero rows of u*m from its Smith form u*m*v = d, so
    the check does not rest on hnf."""
    _, u, _ = snf(m)
    bases = [[row for row in x.data if any(row)] for x in (h, u * m)]
    assert len(bases[0]) == len(bases[1]) == m.rank()
    if not bases[0]:
        return
    for basis, rows in ((bases[0], m), (bases[1], h)):
        x = solve_rows(Matrix(basis), rows)
        assert x is not None and x.is_integral()


@settings(max_examples=40, deadline=None)
@given(int_matrix(3, 4))
def test_hnf_postconditions(m):
    h = hnf(m)
    assert_same_row_lattice(h, m)
    # row echelon with nonnegative entries above each pivot
    last_pivot = -1
    for i in range(h.rows):
        row = list(h.data[i])
        nz = next((j for j, x in enumerate(row) if x != 0), None)
        if nz is None:
            continue
        assert nz > last_pivot
        last_pivot = nz
        assert h.entry(i, nz) > 0
        for k in range(i):
            assert 0 <= h.entry(k, nz) < h.entry(i, nz)


@settings(max_examples=40, deadline=None)
@given(int_matrix(3, 4))
def test_snf_postconditions(m):
    d, u, v = snf(m)
    assert abs(u.det()) == 1 and abs(v.det()) == 1
    assert u * m * v == d
    diag = [int(d.entry(i, i)) for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entry(i, j) == 0
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0


def test_snf_against_sympy():
    """snf's diagonal equals sympy's Smith normal form up to sign, on
    seeded square, non-square, rank-deficient and zero matrices."""
    rng = random.Random(11)
    cases = [Matrix.zeros(3, 3), Matrix.zeros(2, 4), Matrix.zeros(4, 1)]
    for trial in range(60):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[k * rng.randint(-5, 5) for _ in range(c)]
                for k in (rng.choice((1, 2, 6)) for _ in range(r))]
        if trial % 3 == 0 and r > 2:  # last row in the span of two others
            rows[-1] = [2 * a - 3 * b for a, b in zip(rows[0], rows[1])]
        cases.append(Matrix(rows))
    ranks = set()
    for m in cases:
        d, _, _ = snf(m)
        want = smith_normal_form(to_sympy(m), domain=sympy.ZZ)
        n = min(m.rows, m.cols)
        assert [abs(d.entry(i, i)) for i in range(n)] == [
            abs(want[i, i]) for i in range(n)
        ]
        ranks.add("full" if m.rank() == n else "deficient")
    assert ranks == {"full", "deficient"}


PINNED_SNF = "ee7484be163ef522d06713ddcdc30a0f8ca74cef50e8a048fbff3f6d91bfa0b5"
SNF_GRAMS = ("D4", "D4+D4", "H(2)+H(2)", "Z(0,4)*2", "D6+D6", "H(2)+E10*-1",
             "D(2,4)", "H(4)", "H(2)+D4*-1", "D4*2", "L*2", "E8")


def test_snf_transforms_pinned():
    """SHA-256 of (d, u, v) for 30 seeded integer matrices of every shape
    up to 6x6 (entries in [-6, 6]) and for the catalogue Grams, L(2) and
    E8: the discriminant generators and certificates are read off u and
    v, so any changed transform byte fails."""
    rng = random.Random(29)
    cases = [Matrix([[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)])
             for r in range(1, 7) for c in range(1, 7) for _ in range(30)]
    cases += [parse_lattice_name(name).gram for name in SNF_GRAMS]
    h = hashlib.sha256()
    for m in cases:
        d, u, v = snf(m)
        h.update(json.dumps([d.num, u.num, v.num]).encode())
    assert h.hexdigest() == PINNED_SNF


@settings(max_examples=40, deadline=None)
@given(int_matrix(3, 5))
def test_kernel_basis(m):
    k = m.kernel_basis()
    assert k.rows == 5 - m.rank()
    if k.rows:
        assert (m * k.transpose()).is_zero()
        assert k.rank() == k.rows


@settings(max_examples=40, deadline=None)
@given(int_matrix(4, 4))
def test_rank_agrees_with_rref(m):
    red, pivots = m.rref()
    assert m.rank() == len(pivots)


def _generator_bareiss(m, reduce=False):
    """``bareiss`` with its pivot row found by one generator search per
    column, the first row at or below the pivot row with a nonzero entry
    (the kernel tests the pivot row's own entry first)."""
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots, swaps, prev, prow = [], 0, 1, 0
    for col in range(ncols):
        sel = next((r for r in range(prow, nrows) if m[r][col] != 0), None)
        if sel is None:
            continue
        if sel != prow:
            m[prow], m[sel] = m[sel], m[prow]
            swaps += 1
        mp = m[prow]
        pivot = mp[col]
        for r in range(0 if reduce else prow + 1, nrows):
            if r != prow:
                mr = m[r]
                f = mr[col]
                m[r] = [(pivot * a - f * b) // prev for a, b in zip(mr, mp)]
        pivots.append(col)
        prev = pivot
        prow += 1
        if prow == nrows:
            break
    return pivots, swaps, prev


def _probe_matrices(rng):
    """Seeded integer matrices of every shape 0x0 .. 7x7, mostly zeros,
    with zero leading entries, a zero row, a zero column or a row that is
    a combination of two others."""
    for nrows in range(8):
        for ncols in range(8):
            for variant in range(6):
                m = [[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(ncols)]
                     for _ in range(nrows)]
                if nrows and ncols:
                    if variant == 1:
                        m[0][0] = 0
                        m[rng.randrange(nrows)][0] = 0
                    elif variant == 2:
                        m[rng.randrange(nrows)] = [0] * ncols
                    elif variant == 3:
                        col = rng.randrange(ncols)
                        for row in m:
                            row[col] = 0
                    elif variant == 4 and nrows >= 3:
                        i, j, k = rng.sample(range(nrows), 3)
                        c = rng.randint(-3, 3)
                        m[i] = [c * a + b for a, b in zip(m[j], m[k])]
                    elif variant == 5:  # runs of leading zeros
                        for row in m:
                            z = rng.randrange(ncols + 1)
                            row[:] = [0] * z + [rng.choice((-1, 1)) * rng.randint(1, 9)
                                                for _ in range(ncols - z)]
                yield m


def test_pivot_probe_matches_generator_search():
    """The kernel's pivot probe picks the pivot row the generator search
    picks, so pivots, swaps, the last pivot and every row left in place
    are the same, with and without ``reduce``; ``rank`` of the rows is
    the pivot count, as ``Matrix.rank`` and a Fraction elimination
    count it, and leaves the rows as they were."""
    count = 0
    for m in _probe_matrices(random.Random(3401)):
        for reduce in (False, True):
            ours, theirs = [list(row) for row in m], [list(row) for row in m]
            assert bareiss(ours, reduce) == _generator_bareiss(theirs, reduce)
            assert ours == theirs
        rows = [tuple(row) for row in m]
        expected = len(gauss_jordan(m)[1])
        assert rank(rows) == Matrix(m).rank() == expected
        assert rows == [tuple(row) for row in m]
        count += 1
    assert count == 8 * 8 * 6


def test_hnf_example():
    m = Matrix([[2, 4], [6, 8]])
    h = hnf(m)
    assert_same_row_lattice(h, m)
    assert h.entry(1, 0) == 0


def _euclid_hnf(m):
    """Oracle: the Hermite form by Euclid down each column, its least
    nonzero entry reducing the rest, then the entries above the pivot
    reduced at once."""
    a = [list(row) for row in m.num]
    prow = 0
    for col in range(m.cols):
        while nz := [r for r in range(prow, m.rows) if a[r][col]]:
            sel = min(nz, key=lambda r: abs(a[r][col]))
            a[prow], a[sel] = a[sel], a[prow]
            if len(nz) == 1:
                break
            for r in range(prow + 1, m.rows):
                if a[r][col]:
                    q = a[r][col] // a[prow][col]
                    a[r] = [x - q * y for x, y in zip(a[r], a[prow])]
        if prow < m.rows and a[prow][col]:
            if a[prow][col] < 0:
                a[prow] = [-x for x in a[prow]]
            for r in range(prow):
                q = a[r][col] // a[prow][col]
                a[r] = [x - q * y for x, y in zip(a[r], a[prow])]
            prow += 1
    return Matrix.from_integers(a, 1, m.cols)


def _hnf_oracle_inputs():
    """Seeded integer matrices: every shape from 0x0 to 8x9 (zero rows,
    zero columns and negative leading entries forced in), then the
    shapes the callers build: [A | I] (``integer_kernel``),
    [den·I ; glue rows] (``_glue``) and [diag(orders) ; gens]
    (``subgroup_order``)."""
    rng = random.Random(38)
    for r in range(9):
        for c in range(10):
            for _ in range(3):
                a = [[0 if rng.random() < 0.3 else rng.randint(-20, 20) for _ in range(c)]
                     for _ in range(r)]
                if r and c:
                    a[rng.randrange(r)] = [0] * c
                    zero = rng.randrange(c)
                    for row in a:
                        row[zero] = 0
                    lead = rng.randrange(r)
                    a[lead][rng.randrange(c)] = -rng.randint(1, 20)
                yield Matrix.from_integers(a, 1, c)
    for _ in range(60):
        k, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(k)]
        yield Matrix.from_integers([[row[j] for row in rows] + [int(i == j) for i in range(n)]
                                    for j in range(n)], 1, k + n)
        den = rng.randint(2, 24)
        glue = [[rng.randint(-3 * den, 3 * den) for _ in range(n)] for _ in range(k)]
        yield Matrix.from_integers([[den * (i == j) for j in range(n)] for i in range(n)] + glue)
        orders = [rng.choice((2, 3, 4, 6, 8, 12)) for _ in range(n)]
        gens = [[rng.randrange(o) for o in orders] for _ in range(k)]
        yield Matrix.from_integers([[o * (i == j) for j in range(n)]
                                    for i, o in enumerate(orders)] + gens)


def test_hnf_against_euclid_oracle():
    """Row insertion gives the Euclid oracle's Hermite form byte for byte."""
    count = 0
    for m in _hnf_oracle_inputs():
        h = hnf(m)
        assert (h.rows, h.cols, h.num) == (m.rows, m.cols, _euclid_hnf(m).num), m
        count += 1
    assert count == 9 * 10 * 3 + 60 * 3


# -- differential tests of the elimination kernel ------------------------


def gauss_jordan(rows):
    """Reference Fraction Gauss-Jordan: (RREF rows, pivots, determinant).

    The determinant is only meaningful for square input.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots, det, prow = [], Fraction(1), 0
    for col in range(ncols):
        sel = next((r for r in range(prow, len(m)) if m[r][col] != 0), None)
        if sel is None:
            continue
        if sel != prow:
            m[prow], m[sel] = m[sel], m[prow]
            det = -det
        pivot = m[prow][col]
        det *= pivot
        m[prow] = [x / pivot for x in m[prow]]
        for r in range(len(m)):
            if r != prow and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[prow])]
        pivots.append(col)
        prow += 1
    return m, pivots, det if len(pivots) == len(m) else Fraction(0)


def to_sympy(m: Matrix):
    flat = [sympy.Rational(x.numerator, x.denominator) for row in m.data for x in row]
    return sympy.Matrix(m.rows, m.cols, flat)


def from_sympy(rows):
    return [[Fraction(int(x.p), int(x.q)) for x in row] for row in rows]


@st.composite
def rational_matrices(draw, square=False):
    """Rational matrices, often singular or with a zero row or column."""
    nrows = draw(st.integers(min_value=0, max_value=5))
    ncols = nrows if square else draw(st.integers(min_value=1, max_value=6))
    data = [[draw(rational) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):
        i, j, k = (draw(st.integers(0, nrows - 1)) for _ in range(3))
        c = draw(rational)
        data[i] = [c * a + b for a, b in zip(data[j], data[k])]
    if nrows and draw(st.booleans()):
        if draw(st.booleans()):
            data[draw(st.integers(0, nrows - 1))] = [Fraction(0)] * ncols
        else:
            col = draw(st.integers(0, ncols - 1))
            for row in data:
                row[col] = Fraction(0)
    return Matrix(data)


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
@example(Matrix([]))
@example(Matrix([[0, Fraction(2, 3), 0, -1]]))
@example(Matrix([[0], [Fraction(-1, 2)], [4]]))
@example(Matrix([[0, 0], [0, 0]]))
# rows with large common factors
@example(Matrix([[2**40 * 3, 2**40 * 5, 0], [7**20, 0, 7**20 * 2], [3**25, 3**25 * 5, 0]]))
@example(Matrix.from_integers([[6 * 10**15, 4 * 10**15, 2 * 10**15], [5**30, 0, -(5**30)]], 7**9))
def test_rref_rank_kernel_against_oracles(m):
    red, pivots = m.rref()
    ref, ref_pivots, _ = gauss_jordan(m.data)
    assert red == Matrix(ref) and pivots == ref_pivots
    sym_red, sym_pivots = to_sympy(m).rref()
    assert red.data == Matrix(from_sympy(sym_red.tolist())).data
    assert pivots == list(sym_pivots)
    assert m.rank() == len(ref_pivots)
    kernel = m.kernel_basis()
    nullspace = [list(v) for v in to_sympy(m).nullspace()]
    assert kernel.rows == m.cols - len(pivots)
    assert [list(r) for r in kernel.data] == from_sympy(nullspace)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    rational_matrices(),
    st.tuples(st.integers(0, 5), st.integers(1, 6)).flatmap(lambda s: int_matrix(*s)),
))
@example(Matrix([]))
@example(Matrix.zeros(3, 4))
@example(Matrix([[1, 2], [3, 4], [5, 6]]))
@example(Matrix([[2, 1, 1], [0, 0, 0]]))
def test_echelon_null_space_against_oracle(m):
    """``echelon``, ``null_space`` and ``kernel_basis`` read the Fraction
    Gauss-Jordan RREF: pivots, free columns, the pivot rows on the free
    columns (times ``scale``) and the echelon kernel basis."""
    ref, ref_pivots, _ = gauss_jordan(m.data)
    free = [c for c in range(m.cols) if c not in ref_pivots]
    oracle = [[Fraction(c == f) for c in range(m.cols)] for f in free]
    for p, row in zip(ref_pivots, ref):
        for vec, f in zip(oracle, free):
            vec[p] = -row[f]
    rows = m.num
    pivots, kept, reduced, scale = echelon([list(r) for r in rows], m.cols)
    assert list(pivots) == ref_pivots and list(kept) == free
    assert scale != 0 and len(reduced) == len(pivots)
    for row, ref_row in zip(reduced, ref):
        assert [Fraction(x, scale) for x in row] == [ref_row[c] for c in free]
    basis, kept = null_space([list(r) for r in rows], m.cols)
    assert [list(r) for r in basis.data] == oracle and list(kept) == free
    kernel = m.kernel_basis()
    assert (kernel.rows, kernel.cols) == (len(free), m.cols)
    assert [list(r) for r in kernel.data] == oracle


@settings(max_examples=150, deadline=None)
@given(rational_matrices(square=True))
@example(Matrix([]))
@example(Matrix([[Fraction(-3, 4)]]))
@example(Matrix([[0, 1], [1, 0]]))
# rows with large common factors
@example(Matrix([[6 * 10**12, 4 * 10**12], [3**30, 3**31]]))
@example(Matrix.from_integers([[2**50, 3 * 2**50, 0], [0, 7**20, 7**21], [5**9, 0, 2 * 5**9]], 15))
@example(Matrix([[2**40, 2**41], [3**20, 2 * 3**20]]))
def test_det_inverse_against_oracles(m):
    _, _, ref_det = gauss_jordan(m.data)
    det = m.det()
    assert type(det) is Fraction
    assert det == ref_det
    sym_det = to_sympy(m).det()
    assert det == Fraction(int(sym_det.p), int(sym_det.q))
    if det == 0:
        with pytest.raises(SingularMatrixError):
            m.inverse()
        return
    inv = m.inverse()
    ref, _, _ = gauss_jordan([r + e for r, e in zip(m.data, Matrix.identity(m.rows).data)])
    assert inv == Matrix([row[m.rows:] for row in ref])
    assert [list(r) for r in inv.data] == from_sympy(to_sympy(m).inv().tolist())


@settings(max_examples=80, deadline=None)
@given(rational_matrices(), st.data())
def test_solve_rows(basis, data):
    # the pivot rows of the transpose's RREF: an independent subset of the rows
    _, independent = to_sympy(basis).T.rref()
    assume(independent)
    basis = basis.submatrix(independent, range(basis.cols))
    nsol = data.draw(st.integers(min_value=1, max_value=3))
    x = Matrix([[data.draw(rational) for _ in range(basis.rows)] for _ in range(nsol)])
    rows = x * basis
    assert solve_rows(basis, rows) == x
    kernel = basis.kernel_basis()
    if kernel.rows:
        # a nonzero kernel vector is orthogonal to the row span, so off it
        off = [list(r) for r in rows.data]
        off[-1] = [a + b for a, b in zip(off[-1], kernel.data[0])]
        assert solve_rows(basis, Matrix(off)) is None


def test_solve_rows_outside_span():
    basis = Matrix([[1, 0, 0], [0, 2, 0]])
    assert solve_rows(basis, Matrix([[3, 4, 0], [0, 1, 0]])) == Matrix(
        [[3, 2], [0, Fraction(1, 2)]]
    )
    assert solve_rows(basis, Matrix([[3, 4, 0], [0, 0, 1]])) is None
    with pytest.raises(DimensionError):
        solve_rows(basis, Matrix([[1, 0]]))


# -- storage: integer rows over one denominator --------------------------


def test_one_matrix_from_every_route():
    """Every route to the same values stores the same minimal ``num`` and
    ``den``, so ``==`` and ``hash`` agree."""
    entries = [[Fraction(1, 2), Fraction(-2, 3), 0], [Fraction(5, 6), 1, Fraction(4, 3)]]
    m = Matrix(entries)
    routes = [
        Matrix([[str(x) for x in row] for row in entries]),
        Matrix.from_integers([[3, -4, 0], [5, 6, 8]], 6),
        Matrix.from_integers([[-6, 8, 0], [-10, -12, -16]], -12),
        Matrix.from_columns(zip(*entries)),
        m.transpose().transpose(),
        Matrix.identity(2) * m,
        m * Matrix.identity(3),
        Matrix.from_json(m.to_json()),
        m.scale(4).scale(Fraction(1, 4)),
        m + Matrix.zeros(2, 3),
        (m + m) - m,
    ]
    for other in routes:
        assert other == m and hash(other) == hash(m)
        assert (other.num, other.den) == (((3, -4, 0), (5, 6, 8)), 6)
    assert m.data == tuple(tuple(Fraction(x) for x in row) for row in entries)
    assert m.to_json()["entries"] == [["1/2", "-2/3", "0"], ["5/6", "1", "4/3"]]
    assert Matrix([[Fraction(3, 2), 1]]).to_json()["entries"] == [["3/2", "1"]]
    assert Matrix([[2, Fraction(-6, 2)]]).to_json()["entries"] == [["2", "-3"]]
    assert (Matrix([[2, 4]]).num, Matrix([[2, 4]]).den) == (((2, 4),), 1)
    assert (m - m).den == 1 and m.scale(0) == Matrix.zeros(2, 3)
    with pytest.raises(ZeroDivisionError):
        Matrix.from_integers([[1]], 0)
    with pytest.raises(AttributeError):
        m.den = 1


class _Two(IntEnum):
    TWO = 2


@pytest.mark.parametrize(
    "num, den",
    [([[Fraction(1, 2)]], 1), ([[0.5, 1]], 1), ([[1, True]], 1), ([["1"]], 1), ([[1]], Fraction(2)),
     ([[1, _Two.TWO]], 1), ([[1, 2]], True)],
)
def test_from_integers_rejects_non_int_entries(num, den):
    """Stored entries must be ints: a Fraction or float left in ``num``
    would make ``is_integral``, ``==`` and ``hash`` wrong."""
    with pytest.raises(TypeError):
        Matrix.from_integers(num, den)


def test_zero_row_storage_keeps_its_width():
    empty = Matrix.from_integers([], 5, 4)
    assert (empty.rows, empty.cols, empty.num, empty.den) == (0, 4, (), 1)
    assert empty == Matrix.zeros(0, 4) and hash(empty) == hash(Matrix.zeros(0, 4))
    assert empty != Matrix.zeros(0, 3)
    assert empty.to_json() == {"rows": 0, "cols": 4, "entries": []}
    assert (empty * Matrix.zeros(4, 2)).cols == 2
    assert (empty + empty).cols == 4 and empty.scale(3).cols == 4


@settings(max_examples=100, deadline=None)
@given(rational_matrices(), st.data())
def test_storage_and_arithmetic_against_fraction_reference(m, data):
    ref = [[Fraction(x) for x in row] for row in m.data]
    den = lcm(*(x.denominator for row in ref for x in row))
    assert m.den == den and gcd(m.den, *(x for row in m.num for x in row)) == 1
    assert m.num == tuple(tuple(int(x * den) for x in row) for row in ref)
    assert Matrix(ref) == m and hash(Matrix(ref)) == hash(m)
    assert m.to_json()["entries"] == [[frac_to_str(x) for x in row] for row in ref]
    other = [[data.draw(rational) for _ in range(m.cols)] for _ in range(m.rows)]
    o = Matrix(other) if other else Matrix.zeros(0, m.cols)
    assert (m + o).data == tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(ref, other))
    assert (m - o).data == tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(ref, other))
    k = data.draw(st.integers(min_value=1, max_value=4))
    right = [[data.draw(rational) for _ in range(k)] for _ in range(m.cols)]
    product = [[sum(a * right[t][j] for t, a in enumerate(row)) for j in range(k)] for row in ref]
    r = Matrix(right) if right else Matrix.zeros(0, k)
    assert (m * r).data == tuple(map(tuple, product)) and (m * r).cols == k
    assert m.rank() == len(gauss_jordan(ref)[1])
    square = [row[: m.rows] for row in ref] if m.rows <= m.cols else ref[: m.cols]
    size = min(m.rows, m.cols)
    sq = Matrix(square) if size else Matrix([])
    assert sq.det() == gauss_jordan(square)[2]
