"""Exact linear algebra on the Jacobian ring of f = sum_j y_j Q_j for
a system of four diagonal quadrics in seven squared coordinates.

The ambient monomials x_i^2 y_j form Q^7 (x) Q^4, flattened so that
coordinate (i-1)*4 + j holds the coefficient of x_i^2 y_j.  Every graded
piece contains the quadric rows Q_k y_j, which span rowspace(q) (x) Q^4;
modulo them e_i (x) c is g_i (x) c, g_i column i of the Gale dual G of q
(``configs.gale_dual``).  So the source
R_{1,0} is the RREF of its Jacobian rows g_i (x) q_i on the 12
coordinates F x {y_j}, F the free columns of q's RREF; as G q^T = 0 the
seven rows sum to zero, so the first six span them.  The first target
summand of R_{5,1}^{(kappa)} is a quotient of the source: its rows
g_s (x) q_kappa (s != kappa) and the source's g_kappa (x) q_kappa span
Q^3 (x) q_kappa (G has rank 3), so its 3 rows e_a (x) q_kappa, reduced
modulo the source's RREF, live on the source's 6 free coordinates,
where one 3 x 6 elimination (rank 2) finishes it.  An RREF
is unique, so these are the rows of the full 28-column RREF with pivots
in F x {y_j}, and its non-pivot monomials are the full complement
basis — fully deterministic.  The second summand's rows e_t (x) q_p
(p in the triple t) are block diagonal over its two triples t, so its
dimension is the sum of 4 - rank{q_p : p in t}, ``matrices.rank`` of int columns.

Every reduction step is one ``matrices.echelon`` of integer rows, kept
in lowest terms: each row is divided by its content before the
elimination, and the step's RREF rows and scale by their gcd after it.
Neither changes the RREF, so the step holds the integers of the RREF,
not Bareiss's minors with their common factor.  The period matrix's
kernel is read off the target's step as well (see ``period_map``), and
``matrix`` and ``kernel`` are integer-backed Matrices; Fractions are
built only for ``reduce_vector`` and the relation rows the oracles read.

A system's seven period maps share what does not depend on kappa: its
integer columns, the smoothness witness of its Gale dual and the source
piece.  A memo of one entry, keyed by the system as a Matrix (compared
by value), holds these for the last system that ``period_map``,
``period_maps``, ``kappa_target`` or ``invariant_deformations`` read,
so a loop over kappa eliminates the system once.  It holds no exception:
a system error leaves the previous entry, and the smoothness test is
raised outside it, after the kappa check.  ``kernel_family_vectors``
and ``deformed_system`` check the system through ``gale_dual`` alone,
whose own memo holds the last system's Gale dual, so they build no
source piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd

from .configs import check_kappa, dependent_columns, gale_dual
from .errors import DimensionError, SmoothnessRequired
from .f2space import character_bases
from .matrices import Matrix, echelon, rank

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


def _columns(q: Matrix):
    """The columns of the system ``q`` as Fraction lists, read off ``q.num``."""
    return [[Fraction(x, q.den) for x in col] for col in zip(*q.num)]


def quadric_rows(q: Matrix):
    """The 16 relation rows Q_k y_j: coefficient q_{k,i} at x_i^2 y_j."""
    rows = []
    for qk in zip(*_columns(q)):
        for j in range(NY):
            row = [Fraction(0)] * AMBIENT
            row[j::NY] = qk
            rows.append(row)
    return rows


def jacobian_rows(q: Matrix):
    """The 7 relation rows sum_j q_{ij} x_i^2 y_j (one per character)."""
    return [_ambient(i, c) for i, c in enumerate(_columns(q))]


def kappa_rows(q: Matrix, kappa: int):
    """The 6 rows sum_j q_{kappa j} x_s^2 y_j for s != kappa."""
    qk = _columns(q)[kappa - 1]
    return [_ambient(s, qk) for s in range(NCHARS) if s != kappa - 1]


@dataclass(frozen=True)
class GradedPiece:
    """Ambient monomials modulo relation rows, stored on a quotient.

    ``basis`` holds the integer rows of an m x n matrix B = basis / den
    (column chars[a] = e_a), which maps ambient coordinate i*NY + j to
    the quotient coordinates a*NY + j with weights B[a][i].  Each of
    ``steps`` reduces a vector on the coordinates the step before kept
    (the first step: all m*NY quotient coordinates) modulo an RREF and
    keeps its non-pivot coordinates.  A step is ``_step`` of the step's
    relation rows: (pivots, kept, rows, scale), ``rows`` the RREF's rows
    on the kept coordinates times ``scale``, in lowest terms (gcd of
    ``scale`` and every entry 1).  ``free`` holds the ambient slots of
    the coordinates the last step keeps."""

    basis: tuple
    den: int
    steps: tuple
    free: tuple

    @property
    def dimension(self) -> int:
        return len(self.free)

    def reduce_vector(self, vec):
        """Coordinates of a vector's class on the free monomials: its
        projection through B, reduced by each step in turn; ``vec``
        has the AMBIENT coordinates."""
        if len(vec) != AMBIENT:
            raise DimensionError(
                f"a graded-piece vector has {AMBIENT} entries, not {len(vec)}"
            )
        vec = Matrix([vec])
        (vec,), den = vec.num, vec.den
        quot = [0] * (len(self.basis) * NY)
        for k, x in enumerate(vec):
            if x:
                i, j = divmod(k, NY)
                for a, b in enumerate(self.basis):
                    if b[i]:
                        quot[a * NY + j] += b[i] * x
        den *= self.den
        for step in self.steps:
            quot = _reduce(quot, step)
            den *= step[3]
        return [Fraction(x, den) for x in quot]


def _reduce(x, step):
    """``scale`` times the integer vector x modulo a step's RREF, on the
    coordinates the step keeps."""
    pivots, kept, rows, scale = step
    out = [scale * x[k] for k in kept]
    for p, row in zip(pivots, rows):
        c = x[p]
        if c:
            out = [a - c * b for a, b in zip(out, row)]
    return out


def _step(rows, width: int):
    """The reduction step of the integer relation ``rows`` on ``width``
    coordinates: their ``matrices.echelon`` in lowest terms.  Each row
    is divided by its content before the elimination, and the RREF's
    rows and scale by their gcd after it; neither changes the RREF."""
    rows = [[x // g for x in row] if (g := gcd(*row)) > 1 else row for row in rows]
    pivots, kept, reduced, scale = echelon(rows, width)
    g = gcd(scale, *chain.from_iterable(reduced))
    if g != 1:
        reduced = tuple(tuple(x // g for x in row) for row in reduced)
        scale //= g
    return pivots, kept, reduced, scale


def _quotient(piece: GradedPiece, relation_rows) -> GradedPiece:
    """``piece`` modulo further relation rows on its quotient coordinates.

    Reducing the rows modulo each step of ``piece`` spans the same space
    together with the piece's relations, and leaves them on the free
    coordinates of ``piece``; the RREF of all relations consists of the
    new rows' RREF there (zero at the old pivots) and the old rows
    reduced by it.  So its pivots are the old pivots plus the new rows'
    pivots, and an RREF is unique: the free slots and every reduced
    vector are those of one elimination of all the relation rows.
    """
    for step in piece.steps:
        relation_rows = [_reduce(row, step) for row in relation_rows]
    step = _step(relation_rows, piece.dimension)
    free = tuple(piece.free[k] for k in step[1])
    return GradedPiece(piece.basis, piece.den, piece.steps + (step,), free)


def _system(q):
    """(columns, witness, source) of the system ``q``: its columns, each
    scaled to integers, ``configs.dependent_columns`` of its Gale dual
    and the source piece R_{1,0}; the memo holds the last system."""
    return _system_data(q if isinstance(q, Matrix) else Matrix(q))


@lru_cache(maxsize=1)
def _system_data(q: Matrix):
    q, g, chars = gale_dual(q)
    qcols, basis = q.transpose().num, g.num
    # rows g_i (x) q_i; the seventh is minus the first six's sum
    step = _step([[b[i] * x for b in basis for x in qcols[i]]
                  for i in range(NCHARS - 1)], len(basis) * NY)
    free = tuple(chars[c // NY] * NY + c % NY for c in step[1])
    return qcols, dependent_columns(g), GradedPiece(basis, g.den, (step,), free)


def invariant_deformations(q) -> GradedPiece:
    """The invariant deformation space R_{1,0}: dimension 6 generically.

    Ambient: the 28 monomials x_i^2 y_j.  Relations: the 16 products
    Q_k y_j and the 7 Jacobian rows; these overlap in the single
    dependency sum_k Q_k y_k = sum_i (sum_j q_ij x_i^2 y_j), so the
    relation rank is 22 for full-rank systems.  On the 12 quotient
    coordinates the Jacobian rows are g_i (x) q_i, of rank 6.
    """
    return _system(q)[2]


_SUM_BASES = tuple(tuple(t for t in character_bases()  # [k - 1]: kappa_sum_bases(k)
                         if t[0] ^ t[1] ^ t[2] == k) for k in range(1, 8))


def kappa_sum_bases(kappa: int):
    """All unordered triples of distinct non-kappa characters whose
    XOR-sum is kappa.  There are four for every kappa (they are the
    character-group bases summing to kappa)."""
    return list(_SUM_BASES[check_kappa(kappa) - 1])


def squarefree_triples(kappa: int):
    """The two monomial triples carried by the second summand.

    Among the four character triples summing to kappa, the second
    summand retains two; the selection is the lexicographically first
    pair, fixed once and for all so the dimension bookkeeping
    (8 monomials, 6 relations, dimension 2) is deterministic.
    """
    return kappa_sum_bases(kappa)[:2]


def kappa_target(q, kappa: int, require_smooth: bool = True):
    """(first, second_dim): the first summand of R_{5,1}^{(kappa)}, a
    GradedPiece, and the dimension of the second; (4, 2) generically.

    The first summand lives on the monomials x_i^2 x_kappa y_j (same
    28 coordinates) with the 16 + 7 + 6 relation rows; the second on
    the 8 monomials x_p x_q x_r y_j over the two squarefree triples
    with p+q+r = kappa, with 6 relation rows.  The dimension claims
    presuppose 4-column independence of the system, so non-smooth
    input is rejected unless ``require_smooth`` is disabled.
    """
    qcols, witness, source = _system(q)
    kappa = check_kappa(kappa)
    if require_smooth:
        _require_smooth(witness)
    return _target_pieces(qcols, kappa, source)


def _require_smooth(witness) -> None:
    if witness is not None:
        raise SmoothnessRequired(
            "kappa_target dimensions presuppose a smooth system"
        )


def _target_pieces(qcols, kappa: int, source: GradedPiece):
    """(first, second_dim) on the fewest relation rows (see the module
    docstring); ``qcols`` are the system's integer columns."""
    qk, m = qcols[kappa - 1], len(source.basis)
    relation_rows = [[0] * (m * NY) for _ in range(m)]
    for a, row in enumerate(relation_rows):  # e_a (x) q_kappa
        row[a * NY:(a + 1) * NY] = qk
    first = _quotient(source, relation_rows)
    return first, sum(NY - rank([qcols[p - 1] for p in t]) for t in _SUM_BASES[kappa - 1][:2])


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

    The kernel comes off the target's last step (pivots, kept, rows,
    scale) too.  For each pivot p and its row r, the rows
    scale·e_p + sum_t r[t]·e_kept[t] are a basis of it.  By matroid
    duality the free columns of the period matrix's RREF are those
    rows' columns picked greedily from the right, so the echelon kernel
    basis (``matrices.null_space`` of the period matrix) is their RREF
    with the column order reversed, reversed back.
    """
    qcols, witness, source = _system(q)
    kappa = check_kappa(kappa)
    _require_smooth(witness)
    first, second_dim = _target_pieces(qcols, kappa, source)
    # read off the target's last step: source slot k maps to the unit
    # vector of k among the kept slots, or, for the pivot k of a new
    # relation row, to minus that row, both times the step's scale
    pivots, kept, rows, scale = first.steps[-1]
    width = source.dimension
    scaled = [[0] * width for _ in kept]
    for out, c in zip(scaled, kept):
        out[c] = scale
    reversed_basis = []
    for p, row in zip(pivots, rows):
        vec = [0] * width
        vec[p] = scale
        for k, out, x in zip(kept, scaled, row):
            out[p] = -x
            vec[k] = x
        reversed_basis.append(vec[::-1])
    matrix = Matrix.from_integers(scaled, scale, width)
    # the rows are independent, so echelon leaves each one its RREF row
    # times the returned scale
    kern_scale = echelon(reversed_basis, width)[3]
    kern = Matrix.from_integers([vec[::-1] for vec in reversed(reversed_basis)], kern_scale, width)
    return PeriodMapData(
        source=source,
        target=first,
        matrix=matrix,
        rank=width - kern.rows,
        kernel=kern,
        second_dim=second_dim,
    )


def period_maps(q) -> dict:
    """The period maps of all seven characters, ``{kappa: PeriodMapData}``:
    each value is ``period_map(q, kappa)``, and the memo of the last
    system shares the Gale dual, the smoothness test and the source
    piece R_{1,0} among the seven."""
    return {kappa: period_map(q, kappa) for kappa in range(1, NCHARS + 1)}


def kernel_family_vectors(q, kappa: int):
    """The explicit kernel family: for s != kappa, the deformation
    with coefficients a_{sj} = q_{kappa j} concentrated on x_s^2.

    Multiplying such a vector by x_kappa gives one of the relation
    rows of the target, so its period-map image vanishes exactly.
    """
    q = gale_dual(q)[0]  # the system's check, with no source piece
    return kappa_rows(q, check_kappa(kappa))


def deformed_system(q, direction, t) -> Matrix:
    """The system Q + t * D, with D the 4 x 7 matrix of a 28-coefficient
    deformation vector in monomial coordinates: D[j][i-1] is the
    coefficient of x_i^2 y_j."""
    q, t = gale_dual(q)[0], Fraction(t)
    if len(direction) != AMBIENT:
        raise DimensionError(
            f"a deformation direction has {AMBIENT} entries, not {len(direction)}"
        )
    d = Matrix([[direction[_slot(i, j)] for i in range(1, 8)] for j in range(NY)])
    return q + d.scale(t)
