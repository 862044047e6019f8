"""Exact linear algebra on the Jacobian ring of f = sum_j y_j Q_j for
a system of four diagonal quadrics in seven squared coordinates.

The ambient monomials x_i^2 y_j form Q^7 (x) Q^4, flattened so that
coordinate (i-1)*4 + j holds the coefficient of x_i^2 y_j.  Every graded
piece contains the quadric rows Q_k y_j, which span rowspace(q) (x) Q^4;
modulo them e_i (x) c is g_i (x) c, g_i column i of the Gale dual G of q
(``configs.gale_dual``, taken once per entry point).  So each piece is
the RREF of its other relation rows on the 12 coordinates F x {y_j}, F
the free columns of q's RREF.  An RREF is unique, so these are the rows
of the full 28-column RREF with pivots in F x {y_j}, and its non-pivot
monomials are the full complement basis — fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .configs import check_kappa, dependent_columns, gale_dual
from .errors import SmoothnessRequired
from .matrices import Matrix, integer_rows

NCHARS = 7
NY = 4
AMBIENT = NCHARS * NY  # 28 monomials x_i^2 y_j


def monomial_labels():
    """The ambient monomial order: (character, y index) pairs."""
    return [(i, j) for i in range(1, 8) for j in range(1, 5)]


def _slot(i: int, j: int) -> int:
    """Flat coordinate of x_i^2 y_j (i in 1..7, j in 0..3)."""
    return (i - 1) * NY + j


def _ambient(i: int, c):
    """The ambient row of e_i (x) c: c at the slots x_{i+1}^2 y_j."""
    row = [Fraction(0)] * AMBIENT
    row[i * NY:(i + 1) * NY] = c
    return row


def quadric_rows(q: Matrix):
    """The 16 relation rows Q_k y_j: coefficient q_{k,i} at x_i^2 y_j."""
    rows = []
    for k in range(NY):
        for j in range(NY):
            row = [Fraction(0)] * AMBIENT
            for i in range(1, 8):
                row[_slot(i, j)] = q.entry(k, i - 1)
            rows.append(row)
    return rows


def jacobian_rows(q: Matrix):
    """The 7 relation rows sum_j q_{ij} x_i^2 y_j (one per character)."""
    return [_ambient(i, q.column(i)) for i in range(NCHARS)]


def kappa_rows(q: Matrix, kappa: int):
    """The 6 rows sum_j q_{kappa j} x_s^2 y_j for s != kappa."""
    qk = q.column(kappa - 1)
    return [_ambient(s, qk) for s in range(NCHARS) if s != kappa - 1]


@dataclass(frozen=True)
class GradedPiece:
    """Ambient monomials modulo relation rows, stored on a quotient:
    ``basis`` (m x n, column chars[a] = e_a) maps ambient coordinate
    i*NY + j to quotient coordinates a*NY + j; ``reduced`` and ``pivots``
    are the relations' RREF there, ``free`` the ambient slots of the
    non-pivot coordinates."""

    basis: Matrix
    chars: tuple
    reduced: Matrix
    pivots: tuple
    free: tuple

    @property
    def dimension(self) -> int:
        return len(self.free)

    def reduce_vector(self, vec):
        """Coordinates of a vector's class on the free monomials: its
        projection through ``basis``, reduced by the relation RREF."""
        quot = [Fraction(0)] * (self.basis.rows * NY)
        for k, x in enumerate(vec):
            if x != 0:
                x, (i, j) = Fraction(x), divmod(k, NY)
                for a, g in enumerate(self.basis.data):
                    if g[i] != 0:
                        quot[a * NY + j] += g[i] * x
        for row, p in zip(self.reduced.data, self.pivots):
            coef = quot[p]
            if coef != 0:
                quot = [x - coef * y for x, y in zip(quot, row)]
        return [x for c, x in enumerate(quot) if c not in self.pivots]


def _make_piece(basis: Matrix, chars, relation_rows) -> GradedPiece:
    red, pivots = Matrix(relation_rows).rref()
    free = tuple(
        chars[c // NY] * NY + c % NY
        for c in range(basis.rows * NY)
        if c not in pivots
    )
    red = Matrix(red.data[: len(pivots)])
    return GradedPiece(basis, tuple(chars), red, tuple(pivots), free)


def _tensor(g: Matrix, i: int, c):
    """The quotient row of e_i (x) c, column i of g tensored with c,
    scaled to integers (only a relation row's span counts)."""
    (gi, ci), _ = integer_rows([g.column(i), c])
    return [a * x for a in gi for x in ci]


def invariant_deformations(q) -> GradedPiece:
    """The invariant deformation space R_{1,0}: dimension 6 generically.

    Ambient: the 28 monomials x_i^2 y_j.  Relations: the 16 products
    Q_k y_j and the 7 Jacobian rows; these overlap in the single
    dependency sum_k Q_k y_k = sum_i (sum_j q_ij x_i^2 y_j), so the
    relation rank is 22 for full-rank systems.  On the 12 quotient
    coordinates the Jacobian rows are g_i (x) q_i, of rank 6.
    """
    return _invariant_piece(*gale_dual(q))


def _invariant_piece(q: Matrix, g: Matrix, chars) -> GradedPiece:
    return _make_piece(
        g, chars, [_tensor(g, i, q.column(i)) for i in range(NCHARS)]
    )


def kappa_sum_bases(kappa: int):
    """All unordered triples of distinct non-kappa characters whose
    XOR-sum is kappa.  There are four for every kappa (they are the
    character-group bases summing to kappa)."""
    kappa = check_kappa(kappa)
    return [
        t
        for t in combinations(range(1, 8), 3)
        if kappa not in t and t[0] ^ t[1] ^ t[2] == kappa
    ]


def squarefree_triples(kappa: int):
    """The two monomial triples carried by the second summand.

    Among the four character triples summing to kappa, the second
    summand retains two; the selection is the lexicographically first
    pair, fixed once and for all so the dimension bookkeeping
    (8 monomials, 6 relations, dimension 2) is deterministic.
    """
    return kappa_sum_bases(kappa)[:2]


def kappa_target(q, kappa: int, require_smooth: bool = True):
    """The two summands of R_{5,1}^{(kappa)}: dimensions (4, 2).

    The first summand lives on the monomials x_i^2 x_kappa y_j (same
    28 coordinates) with the 16 + 7 + 6 relation rows; the second on
    the 8 monomials x_p x_q x_r y_j over the two squarefree triples
    with p+q+r = kappa, with 6 relation rows.  The dimension claims
    presuppose 4-column independence of the system, so non-smooth
    input is rejected unless ``require_smooth`` is disabled.
    """
    q, g, chars = gale_dual(q)
    kappa = check_kappa(kappa)
    if require_smooth:
        _require_smooth(g)
    return _target_pieces(q, kappa, _invariant_piece(q, g, chars))


def _require_smooth(g: Matrix) -> None:
    if dependent_columns(g) is not None:
        raise SmoothnessRequired(
            "kappa_target dimensions presuppose a smooth system"
        )


def _target_pieces(q: Matrix, kappa: int, source: GradedPiece):
    """The target summands: the first is R_{1,0} modulo g_s (x) q_kappa."""
    g, qk = source.basis, q.column(kappa - 1)
    first = _make_piece(g, source.chars, list(source.reduced.data) + [
        _tensor(g, s, qk) for s in range(NCHARS) if s != kappa - 1
    ])
    ident = Matrix.identity(2)
    second = _make_piece(ident, (0, 1), [
        _tensor(ident, ti, q.column(p - 1))
        for ti, t in enumerate(squarefree_triples(kappa))
        for p in t
    ])
    return first, second


@dataclass(frozen=True)
class PeriodMapData:
    source: GradedPiece
    target: GradedPiece
    matrix: Matrix  # target.dimension x source.dimension
    rank: int
    kernel: Matrix  # rows: kernel coordinates on the source basis
    second_dim: int  # dimension of the second summand of the target

    def to_json(self):
        return {
            "dim_R10": self.source.dimension,
            "dim_target": [self.target.dimension, self.second_dim],
            "rank": self.rank,
            "kernel_dim": self.kernel.rows,
        }


def period_map(q, kappa: int) -> PeriodMapData:
    """Multiplication by x_kappa from R_{1,0} to the first summand of
    R_{5,1}^{(kappa)}: generically rank 4 with kernel of dimension 2.

    On the shared 28 monomial coordinates the multiplication is the
    identity; the matrix expresses each source complement monomial in
    the target complement basis.
    """
    q, g, chars = gale_dual(q)
    kappa = check_kappa(kappa)
    _require_smooth(g)
    return _period_map(q, _invariant_piece(q, g, chars), kappa)


def period_maps(q) -> dict:
    """The period maps of all seven characters, ``{kappa: PeriodMapData}``.

    The Gale dual, the smoothness test and the source piece R_{1,0} do
    not depend on kappa, so they are done once for all seven maps; each
    value equals ``period_map(q, kappa)``.
    """
    q, g, chars = gale_dual(q)
    _require_smooth(g)
    source = _invariant_piece(q, g, chars)
    return {kappa: _period_map(q, source, kappa) for kappa in range(1, NCHARS + 1)}


def _period_map(q: Matrix, source: GradedPiece, kappa: int) -> PeriodMapData:
    first, second = _target_pieces(q, kappa, source)
    cols = []
    for f in source.free:
        unit = [Fraction(0)] * AMBIENT
        unit[f] = Fraction(1)
        cols.append(first.reduce_vector(unit))
    mat = Matrix.from_columns(cols)
    kern = mat.kernel_basis()
    return PeriodMapData(
        source=source,
        target=first,
        matrix=mat,
        rank=source.dimension - kern.rows,
        kernel=kern,
        second_dim=second.dimension,
    )


def kernel_family_vectors(q, kappa: int):
    """The explicit kernel family: for s != kappa, the deformation
    with coefficients a_{sj} = q_{kappa j} concentrated on x_s^2.

    Multiplying such a vector by x_kappa gives one of the relation
    rows of the target, so its period-map image vanishes exactly.
    """
    q = gale_dual(q)[0]
    return kappa_rows(q, check_kappa(kappa))


def deformed_system(q, direction, t) -> Matrix:
    """The system Q + t * direction, with direction a 28-coefficient
    deformation vector in monomial coordinates."""
    q = gale_dual(q)[0]
    t = Fraction(t)
    rows = []
    for j in range(NY):
        row = []
        for i in range(1, 8):
            row.append(q.entry(j, i - 1) + t * Fraction(direction[_slot(i, j)]))
        rows.append(row)
    return Matrix(rows)
