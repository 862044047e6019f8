"""Exact linear algebra on the Jacobian ring of f = sum_j y_j Q_j for
a system of four diagonal quadrics in seven squared coordinates.

All graded pieces are realized as explicit monomial coordinate spaces:
the 28-dimensional space of sums a_ij x_i^2 y_j is flattened with the
monomial order (character i ascending 1..7, then y index j ascending),
so coordinate (i-1)*4 + j holds the coefficient of x_i^2 y_j.
Dimensions are ambient size minus the rank of an explicit relation
matrix, and complement bases are the non-pivot monomials of the
relation row echelon form — fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .configs import check_kappa, check_system, smoothness
from .errors import SmoothnessRequired
from .matrices import Matrix

NCHARS = 7
NY = 4
AMBIENT = NCHARS * NY  # 28 monomials x_i^2 y_j


def monomial_labels():
    """The ambient monomial order: (character, y index) pairs."""
    return [(i, j) for i in range(1, 8) for j in range(1, 5)]


def _slot(i: int, j: int) -> int:
    """Flat coordinate of x_i^2 y_j (i in 1..7, j in 0..3)."""
    return (i - 1) * NY + j


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
    rows = []
    for i in range(1, 8):
        row = [Fraction(0)] * AMBIENT
        for j in range(NY):
            row[_slot(i, j)] = q.entry(j, i - 1)
        rows.append(row)
    return rows


def kappa_rows(q: Matrix, kappa: int):
    """The 6 rows sum_j q_{kappa j} x_s^2 y_j for s != kappa."""
    rows = []
    for s in range(1, 8):
        if s == kappa:
            continue
        row = [Fraction(0)] * AMBIENT
        for j in range(NY):
            row[_slot(s, j)] = q.entry(j, kappa - 1)
        rows.append(row)
    return rows


@dataclass(frozen=True)
class GradedPiece:
    """A graded/eigenspace piece as monomials modulo explicit relations."""

    relation_matrix: Matrix
    reduced: Matrix
    pivots: tuple
    free: tuple

    @property
    def dimension(self) -> int:
        return len(self.free)

    def reduce_vector(self, vec):
        """Coordinates of a vector's class on the free monomials."""
        vec = [Fraction(x) for x in vec]
        for r, p in enumerate(self.pivots):
            coef = vec[p]
            if coef != 0:
                for c in range(len(vec)):
                    vec[c] -= coef * self.reduced.entry(r, c)
        return [vec[f] for f in self.free]


def _make_piece(relation_rows) -> GradedPiece:
    rel = Matrix(relation_rows)
    red, pivots = rel.rref()
    red = Matrix([list(red.data[r]) for r in range(len(pivots))])
    free = tuple(c for c in range(rel.cols) if c not in pivots)
    return GradedPiece(rel, red, tuple(pivots), free)


def invariant_deformations(q) -> GradedPiece:
    """The invariant deformation space R_{1,0}: dimension 6 generically.

    Ambient: the 28 monomials x_i^2 y_j.  Relations: the 16 products
    Q_k y_j and the 7 Jacobian rows; these overlap in the single
    dependency sum_k Q_k y_k = sum_i (sum_j q_ij x_i^2 y_j), so the
    relation rank is 22 for full-rank systems.
    """
    return _invariant_piece(check_system(q))


def _invariant_piece(q: Matrix) -> GradedPiece:
    return _make_piece(quadric_rows(q) + jacobian_rows(q))


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
    q, kappa = check_system(q), check_kappa(kappa)
    if require_smooth:
        _require_smooth(q)
    return _target_pieces(q, kappa)


def _require_smooth(q: Matrix) -> None:
    if not smoothness(q)[0]:
        raise SmoothnessRequired(
            "kappa_target dimensions presuppose a smooth system"
        )


def _target_pieces(q: Matrix, kappa: int):
    first = _make_piece(quadric_rows(q) + jacobian_rows(q) + kappa_rows(q, kappa))
    triples = squarefree_triples(kappa)
    rows2 = []
    for ti, t in enumerate(triples):
        for p in t:
            row = [Fraction(0)] * (len(triples) * NY)
            for j in range(NY):
                row[ti * NY + j] = q.entry(j, p - 1)
            rows2.append(row)
    return first, _make_piece(rows2)


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
    q, kappa = check_system(q), check_kappa(kappa)
    _require_smooth(q)
    return _period_map(q, _invariant_piece(q), kappa)


def period_maps(q) -> dict:
    """The period maps of all seven characters, ``{kappa: PeriodMapData}``.

    The system check, the smoothness test and the source piece R_{1,0}
    do not depend on kappa, so they are done once for all seven maps;
    each value equals ``period_map(q, kappa)``.
    """
    q = check_system(q)
    _require_smooth(q)
    source = _invariant_piece(q)
    return {kappa: _period_map(q, source, kappa) for kappa in range(1, NCHARS + 1)}


def _period_map(q: Matrix, source: GradedPiece, kappa: int) -> PeriodMapData:
    first, second = _target_pieces(q, kappa)
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
    q = check_system(q)
    kappa = check_kappa(kappa)
    return kappa_rows(q, kappa)


def deformed_system(q, direction, t) -> Matrix:
    """The system Q + t * direction, with direction a 28-coefficient
    deformation vector in monomial coordinates."""
    q = check_system(q)
    t = Fraction(t)
    rows = []
    for j in range(NY):
        row = []
        for i in range(1, 8):
            row.append(q.entry(j, i - 1) + t * Fraction(direction[_slot(i, j)]))
        rows.append(row)
    return Matrix(rows)
