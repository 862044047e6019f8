"""Dense exact rational/integer linear algebra.

Provides an immutable :class:`Matrix` of rationals together with the
normal forms used by the rest of the package:

* ``rref`` / ``kernel_basis`` / ``rank`` / ``det`` / ``inverse`` over Q,
  and ``null_space`` and ``rank``, the kernel basis (and its free columns)
  and the rank of integer rows,
* ``integer_kernel``: the HNF basis of the integer kernel of integer rows,
* ``solve_rows``: the coefficients of rows in the row span of a basis,
* row-style Hermite normal form ``hnf`` of the row lattice, by row
  insertion into a triangular basis (Cohen, GTM 138, §2.4.2),
* Smith normal form ``snf`` with both unimodular transforms, read off
  the blocks of one working matrix ``[[m, I], [I, 0]]``.

A Matrix stores integer rows ``num`` over one positive denominator
``den`` with gcd(den, every entry) = 1, so equal values are equal
objects.  Products, sums, transposes and every elimination run on
``num``; Fractions are built only by ``entry``, ``column``, ``to_json``
and the ``data`` view, which is rebuilt on each access.  All elimination
runs through one fraction-free kernel on integer rows, ``bareiss``,
whose steps keep every entry an integer minor of the input (scaling
every row by ``den`` changes no pivot and no RREF).  ``rank`` and
``det`` read its pivots and last pivot; every RREF is read off its one
reducing caller, ``echelon``.  The rest of the package reads ``num``
and ``den``; only ``to_json`` and ``repr`` read the Fraction views.

Conventions (fixed once, used everywhere):

* HNF is row-style: ``h = u*m`` for some unimodular ``u`` (not built),
  pivots positive, entries above pivots reduced into ``[0, pivot)``.
* SNF: ``d = u*m*v`` diagonal, nonnegative, each entry dividing the next.
* ``kernel_basis`` returns the echelon basis derived from the RREF free
  columns, so identical inputs yield bit-identical outputs.

No floating point appears anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import DimensionError, SingularMatrixError


def frac_to_str(x: Fraction) -> str:
    """Render a rational as ``"p/q"`` (``"p"`` when the denominator is 1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def str_to_frac(s) -> Fraction:
    """Parse a ``"p/q"`` (or integer) string into a Fraction."""
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s))


class Matrix:
    """Immutable dense matrix with exact rational entries, stored as
    integer rows ``num`` over one positive common denominator ``den``
    with gcd(den, every entry) = 1, so ``==`` and ``hash`` compare values.
    """

    __slots__ = ("num", "den", "rows", "cols")

    def __init__(self, data):
        data = [[x if type(x) in (int, Fraction) else Fraction(x) for x in row] for row in data]
        width = len(data[0]) if data else 0
        if any(len(row) != width for row in data):
            raise DimensionError("ragged rows")
        den = lcm(*(x.denominator for row in data for x in row if type(x) is not int))
        if den == 1:  # keep the input's int objects
            num = tuple(tuple(x if type(x) is int else x.numerator for x in row) for row in data)
        else:
            num = tuple(
                tuple(x * den if type(x) is int else x.numerator * (den // x.denominator)
                      for x in row)
                for row in data
            )
        _set(self, num, den, width)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_integers(cls, num, den=1, cols=None):
        """The matrix ``num / den`` of integer rows ``num`` and a nonzero
        integer ``den``; ``cols`` gives the width when there are no rows.
        Raises TypeError unless every entry and ``den`` is an int."""
        num = tuple(map(tuple, num))
        if type(den) is not int or not {*map(type, chain.from_iterable(num))} <= {int}:
            raise TypeError("from_integers takes int entries over an int denominator")
        return _of_integers(num, den, cols)

    @classmethod
    def zeros(cls, rows, cols):
        """The zero matrix; with no rows it still has ``cols`` columns."""
        return _of_integers([[0] * cols for _ in range(rows)], 1, cols)

    @classmethod
    def identity(cls, n):
        return _of_integers([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns):
        columns = [tuple(c) for c in columns]
        if len({len(c) for c in columns}) > 1:
            raise DimensionError("ragged rows")
        return cls(zip(*columns))

    # -- basic access -------------------------------------------------

    @property
    def data(self):
        """The entries as rows of Fractions, built on each access."""
        return tuple(_fractions(row, self.den) for row in self.num)

    def entry(self, i, j) -> Fraction:
        return Fraction(self.num[i][j], self.den)

    def column(self, j):
        return _fractions((row[j] for row in self.num), self.den)

    def submatrix(self, row_idx, col_idx):
        return _of_integers(
            [[self.num[i][j] for j in col_idx] for i in row_idx], self.den, len(col_idx)
        )

    def __eq__(self, other):
        return isinstance(other, Matrix) and (self.cols, self.den, self.num) == (
            other.cols, other.den, other.num
        )

    def __hash__(self):
        return hash((self.den, self.num))

    def __repr__(self):
        body = "; ".join(" ".join(frac_to_str(x) for x in row) for row in self.data)
        return f"Matrix[{body}]"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch")
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        rows = zip(self.num, other.num)
        return _of_integers(
            [[s * a + t * b for a, b in zip(ra, rb)] for ra, rb in rows], den, self.cols
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        num = [[c.numerator * a for a in row] for row in self.num]
        return _of_integers(num, c.denominator * self.den, self.cols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        bt = tuple(zip(*other.num)) if other.rows else ((),) * other.cols
        num = [[sum(map(mul, row, col)) for col in bt] for row in self.num]
        return _of_integers(num, self.den * other.den, other.cols)

    def transpose(self):
        return _of_integers(
            [[row[j] for row in self.num] for j in range(self.cols)], self.den, self.rows
        )

    # -- predicates ---------------------------------------------------

    def is_square(self):
        return self.rows == self.cols

    def is_integral(self):
        return self.den == 1

    def is_symmetric(self):
        return self.is_square() and self.num == tuple(zip(*self.num))

    def is_zero(self):
        return not any(map(any, self.num))

    # -- normal forms over Q ------------------------------------------

    def rref(self):
        """Reduced row echelon form over Q.

        Returns:
            (R, pivots): R the RREF as a Matrix, pivots the list of
            pivot column indices (leftmost-pivot convention).
        """
        m = list(self.num)
        pivots, _, _, scale = echelon(m, self.cols)
        return _of_integers(m, scale, self.cols), list(pivots)

    def rank(self) -> int:
        """Rank over Q: ``rank`` of the integer rows ``num``."""
        return rank(self.num)

    def kernel_basis(self):
        """Echelon basis of the right null space, rows spanning it.

        Each free column contributes one basis row with 1 in that
        column; deterministic by construction.  Row count equals
        ``cols - rank``.
        """
        return null_space(list(self.num), self.cols)[0]

    def det(self) -> Fraction:
        if not self.is_square():
            raise DimensionError("det requires a square matrix")
        pivots, swaps, det = bareiss(list(self.num))
        if len(pivots) < self.rows:
            return Fraction(0)
        return Fraction(-det if swaps % 2 else det, self.den**self.rows)

    def inverse(self):
        if not self.is_square():
            raise DimensionError("inverse requires a square matrix")
        inv = solve_rows(self, Matrix.identity(self.rows))
        if inv is None:
            raise SingularMatrixError("matrix is singular")
        return inv

    # -- serialization ------------------------------------------------

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[frac_to_str(x) for x in row] for row in self.data]
            if self.den != 1 else [list(map(str, row)) for row in self.num],
        }

    @classmethod
    def from_json(cls, obj):
        m = cls([[str_to_frac(x) for x in row] for row in obj["entries"]])
        if not m.rows and type(obj["cols"]) is int and obj["cols"] > 0:
            m = cls.zeros(0, obj["cols"])
        if m.rows != obj["rows"] or m.cols != obj["cols"]:
            raise DimensionError("JSON matrix shape mismatch")
        return m


def _fractions(values, den):
    """The ints ``values`` over ``den``, as a tuple of Fractions."""
    if den == 1:
        return tuple(map(Fraction, values))
    return tuple(Fraction(x, den) for x in values)


def _of_integers(num, den=1, cols=None):
    """``Matrix.from_integers`` without its type check, for the int rows
    this module computes."""
    num = tuple(map(tuple, num))
    width = len(num[0]) if num else cols or 0
    if {*map(len, num)} - {width}:
        raise DimensionError("ragged rows")
    m = object.__new__(Matrix)
    _set(m, num, den, width)
    return m


def _set(m, num, den, cols):
    """Store ``num / den`` on a new Matrix, dividing out gcd(den, num)
    and moving the sign of ``den`` into ``num``."""
    if den != 1:
        if not den:
            raise ZeroDivisionError("Matrix with denominator 0")
        g = gcd(den, *chain.from_iterable(num))
        if den < 0:
            g = -g
        if g != 1:
            num = tuple([tuple([x // g for x in row]) for row in num])
            den //= g
    object.__setattr__(m, "num", num)
    object.__setattr__(m, "den", den)
    object.__setattr__(m, "rows", len(num))
    object.__setattr__(m, "cols", cols)


def echelon(rows, width: int):
    """(pivots, free, reduced, scale): the RREF of the integer ``rows`` on
    ``width`` columns, from one ``bareiss``, which leaves ``rows`` as
    ``scale`` (the last pivot) times the RREF: its pivot and free
    columns, and its pivot rows on the free columns times ``scale``."""
    pivots, _, scale = bareiss(rows, reduce=True)
    free = tuple([c for c in range(width) if c not in pivots])
    reduced = tuple([tuple([row[c] for c in free]) for row in rows[: len(pivots)]])
    return tuple(pivots), free, reduced, scale


def null_space(rows, width: int):
    """(basis, free): the echelon kernel basis of the integer ``rows`` on
    ``width`` columns, a Matrix, and the free columns of their RREF;
    basis row a is 1 at free[a], 0 at the other free columns and minus
    the RREF entries of column free[a] at the pivots."""
    pivots, free, reduced, scale = echelon(rows, width)
    basis = [[scale if c == f else 0 for c in range(width)] for f in free]
    for p, row in zip(pivots, reduced):
        for vec, x in zip(basis, row):
            vec[p] = -x
    return _of_integers(basis, scale, width), free


def integer_kernel(rows, width: int) -> Matrix:
    """The HNF basis of the x in Z^width with row·x = 0 for the integer
    ``rows``: with A their transpose, the I-block of the rows of
    ``hnf([A | I])`` whose A-block is zero, which span the kernel since
    the row operations are unimodular (Cohen, GTM 138, §2.4.3)."""
    k = len(rows)
    a = [[row[j] for row in rows] + [int(i == j) for i in range(width)] for j in range(width)]
    h = hnf(_of_integers(a, 1, k + width)).num
    return _of_integers([r[k:] for r in h if not any(r[:k])], 1, width)


def rank(rows) -> int:
    """Rank over Q of the integer ``rows`` (left as they are): a pivot count."""
    return len(bareiss(list(rows))[0])


def bareiss(m, reduce=False):
    """Fraction-free (Bareiss) elimination of integer rows ``m``, in place.

    Each step sets every row below the pivot row (every other row, with
    ``reduce``) to ``(pivot*row - row[col]*pivot_row) // prev``; the
    divisions are exact because the entries stay minors of the input.
    With ``reduce``, ``m`` ends as the last pivot times the RREF: every
    earlier pivot row's pivot entry is rescaled to the current pivot at
    each step, so all pivot entries end equal to the last one.

    Returns:
        (pivots, swaps, det): the pivot columns, the number of row
        swaps, and the last pivot (for square nonsingular input, the
        determinant of the row-swapped input).
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    swaps = 0
    prev = 1
    prow = 0
    for col in range(ncols):
        if not m[prow][col]:  # the first row below with a nonzero entry
            sel = next((r for r in range(prow + 1, nrows) if m[r][col]), None)
            if sel is None:
                continue
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


def solve_rows(basis: Matrix, rows: Matrix):
    """Coefficients ``x`` with ``x * basis == rows``, or None.

    One ``echelon`` of the stacked system ``[basis^T | rows^T]`` solves
    for every row at once.  Returns None when some row lies outside the
    row span of ``basis``; the solution is unique when ``basis`` has full
    row rank (otherwise free coefficients are 0).
    """
    if basis.cols != rows.cols:
        raise DimensionError("solve_rows: width mismatch")
    k, n = basis.rows, rows.rows
    # x * basis.num / basis.den == rows.num / rows.den
    b, r = rows.den, basis.den
    m = [[b * row[j] for row in basis.num] + [r * row[j] for row in rows.num]
         for j in range(basis.cols)]
    pivots, _, _, scale = echelon(m, k + n)
    if pivots and pivots[-1] >= k:
        return None
    x = [[0] * k for _ in range(n)]
    for p, row in zip(pivots, m):
        for i, value in enumerate(row[k:]):
            x[i][p] = value
    return _of_integers(x, scale, k)


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms (integer matrices)
# ---------------------------------------------------------------------------


def hnf(m: Matrix) -> Matrix:
    """Row-style Hermite normal form of the row lattice of ``m``: echelon
    form with positive pivots, entries above each pivot reduced into
    ``[0, pivot)``, zero rows last.  Each row is inserted into a
    triangular basis: at its first nonzero entry x it becomes a new pivot
    row (negated if x < 0), or meets pivot row p of pivot a in one 2×2
    step (p, row) ↦ (s·p + t·row, (a/g)·row − (x/g)·p), s·a + t·x = g =
    gcd(a, x).  A last pass reduces the entries above each pivot (Cohen,
    GTM 138, §2.4.2); the form is unique, so the step order never shows."""
    if not m.is_integral():
        raise DimensionError("hnf requires an integer matrix")
    basis = {}
    for row in m.num:
        for col in range(m.cols):
            if not (x := row[col]):
                continue
            if (p := basis.get(col)) is None:
                basis[col] = row if x > 0 else [-y for y in row]
                break
            a = p[col]
            g = gcd(a, x)
            if t := pow(x // g, -1, a // g):  # t·x = g mod a; else a divides x
                basis[col] = [(g - t * x) // a * u + t * v for u, v in zip(p, row)]
            row = [a // g * v - x // g * u for u, v in zip(p, row)]
    rows = [basis[c] for c in sorted(basis)]
    for i, c in enumerate(sorted(basis)):
        for j in range(i):
            if q := rows[j][c] // rows[i][c]:
                rows[j] = [u - q * v for u, v in zip(rows[j], rows[i])]
    return _of_integers(rows + [[0] * m.cols] * (m.rows - len(rows)), 1, m.cols)


def snf(m: Matrix):
    """Smith normal form.

    Returns:
        (d, u, v) with ``d = u*m*v``; ``u``, ``v`` unimodular; ``d``
        diagonal with nonnegative entries, each dividing the next.

    Runs on one working matrix ``[[m, I], [I, 0]]``.  Row operations act
    on whole rows among the first ``m.rows`` and column operations on
    whole columns among the first ``m.cols``, so the ``m`` block becomes
    ``d`` while the top-right block becomes ``u`` and the bottom-left
    block ``v``.  The pivot search, the clearing passes and the
    divisibility step read only the ``m`` block.
    """
    if not m.is_integral():
        raise DimensionError("snf requires an integer matrix")
    nrows, ncols = m.rows, m.cols
    a = [list(row) + [int(i == k) for k in range(nrows)] for i, row in enumerate(m.num)]
    a += [[int(i == j) for j in range(ncols)] + [0] * nrows for i in range(ncols)]

    t = 0
    while t < min(nrows, ncols):
        # the least nonzero entry of the trailing block, first in row order
        best = None
        for i in range(t, nrows):
            for j, x in enumerate(a[i][t:ncols], t):
                if x and (best is None or abs(x) < best):
                    best, pi, pj = abs(x), i, j
        if best is None:
            break
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        dirty = True
        while dirty:
            dirty = False
            # clear column t, then row t; a nonzero remainder is the new pivot
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
        # enforce divisibility of the remaining block by a[t][t]
        offender = next((i for i in range(t + 1, nrows) for j in range(t + 1, ncols)
                         if a[i][j] % a[t][t]), None)
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    top, bottom = a[:nrows], a[nrows:]
    return (_of_integers([row[:ncols] for row in top], 1, ncols),
            _of_integers([row[ncols:] for row in top], 1, nrows),
            _of_integers([row[:ncols] for row in bottom], 1, ncols))
