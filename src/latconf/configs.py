"""Configurations of labeled lines in the projective plane.

A configuration is a 3 x n rational matrix (n = 6 or 7) whose columns
are line coefficients, together with labels: for n = 6 the six columns
come in three ordered pairs occupying pair slots 0, 1, 2 (labels
(0,0,1,1,2,2)); for n = 7 the labels are the seven nonzero characters
1..7 of a rank-3 group over F2, encoded as integers read in binary.

Provided operations: Plücker coordinates, the GIT stability
stratification for six lines, triple points, a canonical form that is
a complete invariant for the GL3 x torus action with fixed labels,
the Cremona involution based at the three pair vertices, the Gale
dual of a system of four diagonal quadrics (its 7-line configuration
and smoothness test), line dropping with pair regrouping, node
classification, and the finite group actions (wreath product on pair
slots, S4 on quadrangle vertices, GL3(F2) on characters, torus
scalings).  The lines are read off the integer columns of
``matrix.num``: they are the lines scaled by the common denominator
``den``, which changes no line, and each of their 3-minors is a minor
of the lines times ``den**3``, which changes no zero.  Column
permutation, the group actions and line dropping select those columns.
Stability, triple points and the smoothness test read the zero minors
off one pass over the integer columns; ``plucker`` divides the same
integer minors by ``den**3``.  One kernel, ``_canonical_columns``,
searches lazily for the first frame (it usually stops at the first
4-subset of columns) and reads each image column off 3-minors by
Cramer's rule, divided by its signed content: ``canonical_key`` is the
labels, the frame and those primitive int triples, with no Matrix, and
``canonical_form`` scales the same triples to a lead entry of 1.
Triple points are integer cross products over their lead entries, and
the Cremona involution takes the dot products of the integer columns
with the integer pair vertices, over ``den**3``.

The public constructor and ``with_matrix`` check the labels and that no
column is zero.  The configurations this module derives from a valid
one are built without those checks (``_derived``), as each is valid by
construction:

* the group actions ``act_wreath`` and ``act_gl3f2`` and
  ``drop_line`` select columns of the input, so none is zero, under
  ``PAIR_LABELS`` or ``CHAR_LABELS``;
* ``canonical_form`` scales every column to a first nonzero entry of 1
  and keeps the input's labels;
* ``cremona``'s columns are N*x, for an invertible N (the pair vertices
  are not collinear) and a nonzero column x, with two entries swapped,
  so none is zero; it keeps the input's labels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd, lcm
from operator import index

from .errors import (
    DimensionError,
    LabelError,
    NoFrame,
    VerticesCollinear,
)
from .matrices import Matrix, null_space

PAIR_LABELS = (0, 0, 1, 1, 2, 2)
CHAR_LABELS = (1, 2, 3, 4, 5, 6, 7)


@dataclass(frozen=True, slots=True)
class ConfigMatrix:
    """A labeled 3 x n line configuration."""

    matrix: Matrix
    labels: tuple

    def __init__(self, matrix, labels=None):
        if not isinstance(matrix, Matrix):
            matrix = Matrix(matrix)
        if matrix.rows != 3 or matrix.cols not in (6, 7):
            raise DimensionError("configuration must be 3 x 6 or 3 x 7")
        if labels is None:
            labels = PAIR_LABELS if matrix.cols == 6 else CHAR_LABELS
        labels = tuple(labels)
        if len(labels) != matrix.cols:
            raise LabelError("one label per column required")
        if matrix.cols == 6 and sorted(labels) != [0, 0, 1, 1, 2, 2]:
            raise LabelError("six-line labels must be pair slots 0,0,1,1,2,2")
        if matrix.cols == 7 and sorted(labels) != list(range(1, 8)):
            raise LabelError("seven-line labels must be the characters 1..7")
        for j, col in enumerate(zip(*matrix.num)):
            if not any(col):
                raise DimensionError(f"column {j} is zero: not a line")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.matrix.cols

    def with_matrix(self, matrix: Matrix) -> "ConfigMatrix":
        return ConfigMatrix(matrix, self.labels)

    def permute_columns(self, perm) -> "ConfigMatrix":
        """Column j of the result is column perm[j] of self."""
        labels = tuple(self.labels[p] for p in perm)
        return ConfigMatrix(self.matrix.submatrix(range(3), perm), labels)

    def to_json(self):
        return {
            "matrix": self.matrix.to_json(),
            "labels": list(self.labels),
        }

    @staticmethod
    def from_json(data) -> "ConfigMatrix":
        return ConfigMatrix(
            Matrix.from_json(data["matrix"]), tuple(data["labels"])
        )


def _derived(matrix: Matrix, labels: tuple) -> ConfigMatrix:
    """A ConfigMatrix of ``matrix`` and ``labels`` without ``__init__``'s
    checks, for a result derived from a valid configuration (see the
    module docstring for why each such result is valid)."""
    c = object.__new__(ConfigMatrix)
    object.__setattr__(c, "matrix", matrix)
    object.__setattr__(c, "labels", labels)
    return c


def _select(c: ConfigMatrix, order, labels) -> ConfigMatrix:
    """Column j of the result is column order[j] of ``c``, under
    ``labels``, a valid labelling of the result; the denominator is
    re-normalised for the kept columns."""
    return _derived(c.matrix.submatrix(range(3), order), labels)


# ---------------------------------------------------------------------------
# Plücker coordinates
# ---------------------------------------------------------------------------


def _det3(a, b, c):
    """The 3 x 3 determinant with columns a, b, c."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _cross(u, v):
    return [
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _zero_triples(cols):
    """The column triples of the integer columns ``cols`` whose 3-minor
    is zero, in lex order."""
    return [
        (i, j, k)
        for i, j, k in combinations(range(len(cols)), 3)
        if not _det3(cols[i], cols[j], cols[k])
    ]


def plucker(c: ConfigMatrix) -> dict:
    """All C(n,3) maximal minors m_{ijk}, keyed by column triples: the
    minors of the integer columns over ``den**3``."""
    cols = list(zip(*c.matrix.num))
    scale = c.matrix.den**3
    return {
        (i, j, k): Fraction(_det3(cols[i], cols[j], cols[k]), scale)
        for i, j, k in combinations(range(c.n), 3)
    }


# ---------------------------------------------------------------------------
# GIT stability for six lines
# ---------------------------------------------------------------------------


def _proportional(u, v) -> bool:
    return not any(_cross(u, v))


@dataclass(frozen=True)
class StabilityReport:
    status: str  # Stable | StrictlySemistable | Polystable | Unstable
    stratum: str
    coincident_pairs: tuple
    concurrent_triples: tuple

    def to_json(self):
        return {
            "status": self.status,
            "stratum": self.stratum,
            "coincident_pairs": [list(p) for p in self.coincident_pairs],
            "concurrent_triples": [list(t) for t in self.concurrent_triples],
        }


def _coincidence_groups(cols):
    """Partition of columns into groups of mutually proportional lines."""
    groups = {}
    for j, col in enumerate(cols):
        first = next((g for g in groups if _proportional(col, cols[g])), j)
        groups.setdefault(first, []).append(j)
    return list(groups.values())


def stability(c: ConfigMatrix) -> StabilityReport:
    """Classify a six-line configuration per the GIT stratification.

    Instability is tested against the one-parameter subgroups with
    weights (2,-1,-1) and (1,1,-2): a configuration is unstable iff
    some point lies on at least five lines (counted with multiplicity)
    or at least three lines coincide; it is non-stable iff some point
    lies on at least four lines or two lines coincide.
    """
    if c.n != 6:
        raise DimensionError("stability is defined for six lines")
    cols = list(zip(*c.matrix.num))
    groups = _coincidence_groups(cols)
    group_of = {j: g for g, members in enumerate(groups) for j in members}
    zeros = _zero_triples(cols)
    mult = max(len(g) for g in groups)
    pairs = tuple(p for g in groups for p in combinations(g, 2))
    triples = tuple(t for t in zeros if len({group_of[j] for j in t}) == 3)
    if mult >= 3:
        return StabilityReport("Unstable", "213", pairs, triples)
    # the most lines, with multiplicity, through the point where two meet
    through = Counter(p for t in zeros for p in combinations(t, 2))
    conc = max(
        2 + through[i, j]
        for i, j in combinations(range(6), 2)
        if group_of[i] != group_of[j]
    )
    if conc >= 5:
        return StabilityReport("Unstable", "141", pairs, triples)
    if mult == 1 and conc <= 3:
        stratum = "321" if triples else "411"
        return StabilityReport("Stable", stratum, pairs, triples)
    # Non-stable boundary: decide polystable versus strictly semistable.
    doubled = [g for g in groups if len(g) == 2]
    if len(doubled) == 3:
        return StabilityReport("Polystable", "222", pairs, triples)
    if len(doubled) == 1 and len(groups) == 5:
        i, j, *rest = (g[0] for g in groups if len(g) == 1)
        # singles come in column order, so (i, j, k) is sorted
        if all((i, j, k) in zeros for k in rest) and (
            tuple(sorted((i, j, doubled[0][0]))) not in zeros
        ):
            return StabilityReport("Polystable", "231", pairs, triples)
    if mult >= 2 and conc >= 4:
        return StabilityReport("StrictlySemistable", "222", pairs, triples)
    if mult >= 2:
        return StabilityReport("StrictlySemistable", "312", pairs, triples)
    return StabilityReport("StrictlySemistable", "231", pairs, triples)


# ---------------------------------------------------------------------------
# Triple points
# ---------------------------------------------------------------------------


def triple_points(c: ConfigMatrix):
    """All concurrent triples of pairwise-distinct lines, with points.

    Each entry is (triple of column indices, common point) where the
    point is scaled so its first nonzero coordinate is 1.
    """
    cols = list(zip(*c.matrix.num))
    for i, j in combinations(range(c.n), 2):
        if _proportional(cols[i], cols[j]):
            raise DimensionError(f"columns {i} and {j} are the same line")
    out = []
    for t in _zero_triples(cols):
        point = _cross(cols[t[0]], cols[t[1]])
        lead = next(x for x in point if x != 0)
        out.append((t, tuple(Fraction(x, lead) for x in point)))
    return out


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def _canonical_columns(cols):
    """(frame, columns): the first frame of the integer columns ``cols``
    and each column's image, divided by its signed content (the gcd of
    its entries, with the sign of its first nonzero entry).

    By Cramer's rule, with frame (a, b, e, d), entry i of the image of x
    is M_i(x)/M_i(d), where M_0(x) = det[x, b, e], M_1(x) = det[a, x, e]
    and M_2(x) = det[a, b, x]: the dot products of x with the rows
    b^e, e^a, a^b of the adjugate of [a b e].  Scaling a line scales
    its column, so the minors are taken on the integer columns.  Two
    images are proportional iff these primitive triples are equal.
    """
    for frame in combinations(range(len(cols)), 4):
        if all(_det3(cols[i], cols[j], cols[k]) for i, j, k in combinations(frame, 3)):
            break
    else:
        raise NoFrame("no four columns form a projective frame")
    a, b, e, d = (cols[j] for j in frame)
    adj = (_cross(b, e), _cross(e, a), _cross(a, b))
    m0, m1, m2 = (_dot(r, d) for r in adj)
    # the rows that give m0*m1*m2 times the image of x
    (p0, p1, p2), (q0, q1, q2), (s0, s1, s2) = (
        [w * t for t in r] for w, r in zip((m1 * m2, m0 * m2, m0 * m1), adj)
    )
    out = []
    for x0, x1, x2 in cols:
        v0 = p0 * x0 + p1 * x1 + p2 * x2
        v1 = q0 * x0 + q1 * x1 + q2 * x2
        v2 = s0 * x0 + s1 * x1 + s2 * x2
        g = gcd(v0, v1, v2)
        g = g if (v0 or v1 or v2) > 0 else -g
        out.append((v0 // g, v1 // g, v2 // g))
    return frame, tuple(out)


def canonical_form(c: ConfigMatrix):
    """Normalize under GL3 and column scalings; labels kept in place.

    The lexicographically first 4-subset of columns whose four maximal
    minors are all nonzero is mapped to the standard projective frame
    (e1, e2, e3, (1,1,1)); every column is then scaled so its first
    nonzero entry is 1.  Two configurations with the same labels are
    GL3 x torus equivalent iff their canonical forms are equal.  Column
    w of ``_canonical_columns``, with lead entry ``lead``, becomes
    w*(den // lead) over den = lcm(leads): lowest terms, as w is primitive.

    Returns (normalized ConfigMatrix, frame column subset).
    """
    frame, columns = _canonical_columns(list(zip(*c.matrix.num)))
    leads = [next(t for t in w if t) for w in columns]
    den = lcm(*leads)
    normal = [[t * (den // lead) for t in w] for w, lead in zip(columns, leads)]
    return _derived(Matrix.from_integers(zip(*normal), den), c.labels), frame


def canonical_key(c: ConfigMatrix):
    """``(labels, frame, columns)`` of ``_canonical_columns``, with no
    Matrix: two configurations are GL3 x torus equivalent with fixed
    labels iff their keys are equal."""
    return (c.labels, *_canonical_columns(list(zip(*c.matrix.num))))


def equivalent(a: ConfigMatrix, b: ConfigMatrix) -> bool:
    """GL3 x torus equivalence with fixed labels, via canonical keys."""
    return a.labels == b.labels and canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# Cremona involution
# ---------------------------------------------------------------------------


def cremona(c: ConfigMatrix) -> ConfigMatrix:
    """The Cremona involution based at the three pair vertices.

    Build N whose rows are the pair vertices M1^M2, M3^M4, M5^M6,
    form N*M (which vanishes at row j//2 of column j), and swap the
    two remaining entries of each column.  Defined up to GL3 and
    column scaling, so equality claims go through canonical_form.
    """
    if c.n != 6:
        raise DimensionError("the Cremona involution acts on six lines")
    cols = list(zip(*c.matrix.num))
    n = [_cross(cols[k], cols[k + 1]) for k in (0, 2, 4)]
    if _det3(*n) == 0:
        raise VerticesCollinear("the three pair vertices are collinear")
    images = []
    for j, x in enumerate(cols):
        col = [_dot(r, x) for r in n]
        others = [i for i in range(3) if i != j // 2]
        col[others[0]], col[others[1]] = col[others[1]], col[others[0]]
        images.append(col)
    return _derived(Matrix.from_integers(zip(*images), c.matrix.den**3), c.labels)


def etale_slice(t, a, b, c, d) -> ConfigMatrix:
    """The five-parameter family around the four-concurrent stratum."""
    t, a, b, c, d = (Fraction(x) for x in (t, a, b, c, d))
    return ConfigMatrix(
        [[1, 0, 1, 1, 0, c], [0, 1, 1, t, 0, d], [0, 0, a, b, 1, 1]]
    )


def quadrangle_slice(a, b, c, d) -> ConfigMatrix:
    """The four-parameter family around the complete quadrangle.

    At a = b = c = d = 0 the columns are the six sides of the complete
    quadrangle; the minors m135, m245, m146, m236 equal 4b, -4a, 4d,
    -4c.
    """
    a, b, c, d = (Fraction(x) for x in (a, b, c, d))
    return ConfigMatrix(
        [
            [1, 1, 1, 1, a + b, 1],
            [1, 1, -1, -1, 1, c + d],
            [1, -1, 1, -1, a - b, c - d],
        ]
    )


# ---------------------------------------------------------------------------
# Seven lines from a quadric system
# ---------------------------------------------------------------------------


def gale_dual(q):
    """(q, G, F): the quadric system ``q`` as a Matrix, checked to be
    4 x 7 of rank 4 (exactly three kernel rows); its Gale dual G, the
    3 x 7 echelon kernel basis; F the free columns of q's RREF, so
    column F[a] of G is e_a.  One elimination of q."""
    if not isinstance(q, Matrix):
        q = Matrix(q)
    if q.rows != 4 or q.cols != 7:
        raise DimensionError("quadric system must be 4 x 7")
    g, chars = null_space(list(q.num), 7)
    if g.rows != 3:
        raise DimensionError("quadric system must have rank 4")
    return q, g, chars


def check_kappa(kappa: int) -> int:
    """``kappa`` as an int, checked to be one of the nonzero characters
    1..7; only what ``operator.index`` accepts is an integer."""
    try:
        kappa = index(kappa)
    except TypeError:
        kappa = None
    if kappa not in range(1, 8):
        raise LabelError("kappa must be a nonzero character 1..7")
    return kappa


def seven_line_config(q: Matrix) -> ConfigMatrix:
    """Line configuration attached to a rank-4 system of 7 diagonal
    quadrics (rows = quadrics, columns = the 7 squared coordinates):
    its Gale dual, one line per character column."""
    return ConfigMatrix(gale_dual(q)[1], CHAR_LABELS)


def dependent_columns(g: Matrix):
    """The first dependent 4-subset of the columns of a rank-4 system
    whose Gale dual is ``g``, or None if every 4-subset is independent.

    Four columns of the system are dependent iff the other three columns
    of G are, so the test is on G's 3-minors, taken on its integer rows
    ``num``.  The complement of the last zero 3-subset is the first
    dependent 4-subset: complements reverse the lex order of subsets of
    range(7).
    """
    zeros = _zero_triples(list(zip(*g.num)))
    return tuple(j for j in range(7) if j not in zeros[-1]) if zeros else None


def smoothness(q: Matrix):
    """(True, None) iff every 4-subset of quadric-system columns is
    independent; otherwise (False, first dependent 4-subset)."""
    witness = dependent_columns(gale_dual(q)[1])
    return witness is None, witness


def drop_pairs(kappa: int):
    """The three pairs {chi, chi + kappa} of surviving characters,
    sorted by smallest member, each pair sorted ascending."""
    kappa = check_kappa(kappa)
    # chi < chi ^ kappa picks each pair once by its smaller member
    return [(chi, chi ^ kappa) for chi in range(1, 8) if chi < chi ^ kappa]


def drop_line(c: ConfigMatrix, kappa: int) -> ConfigMatrix:
    """Remove the line labeled kappa and regroup the rest into pairs.

    The six remaining lines are reordered so the pair slots hold the
    character pairs {chi, chi + kappa} sorted by smallest member;
    ``drop_pairs`` checks kappa.
    """
    if c.n != 7:
        raise DimensionError("drop_line expects a seven-line configuration")
    position = {lab: j for j, lab in enumerate(c.labels)}
    order = [position[chi] for pair in drop_pairs(kappa) for chi in pair]
    return _select(c, order, PAIR_LABELS)


# ---------------------------------------------------------------------------
# Node classification
# ---------------------------------------------------------------------------


def node_report(c: ConfigMatrix, kappa: int):
    """Classify each concurrent triple of a seven-line configuration
    relative to the character kappa.

    A triple with labels summing (XOR) to zero is Degenerate: the
    labels do not generate the character group.  Otherwise the labels
    form a basis and kappa is a sum of a nonempty subset of them:
    OnBranch for a singleton, PairFixed for a pair, ExtraFixedNode
    when the full sum equals kappa.
    """
    if c.n != 7:
        raise DimensionError("node_report expects a seven-line configuration")
    kappa = check_kappa(kappa)
    entries = []
    counts = {
        "Degenerate": 0,
        "OnBranch": 0,
        "PairFixed": 0,
        "ExtraFixedNode": 0,
    }
    for t, _point in triple_points(c):
        labels = tuple(c.labels[j] for j in t)
        k1, k2, k3 = labels
        total = k1 ^ k2 ^ k3
        if total == 0:
            kind = "Degenerate"
        elif kappa in labels:
            kind = "OnBranch"
        elif kappa in (k1 ^ k2, k1 ^ k3, k2 ^ k3):
            kind = "PairFixed"
        elif total == kappa:
            kind = "ExtraFixedNode"
        else:  # unreachable: kappa is a combination of any basis
            raise LabelError(f"unclassifiable triple {labels}")
        counts[kind] += 1
        entries.append({"triple": t, "labels": labels, "kind": kind})
    return {"counts": counts, "triples": entries}


# ---------------------------------------------------------------------------
# Group actions
# ---------------------------------------------------------------------------


def wreath_elements():
    """All 48 elements of Z/2 wr S3: (swap bits, pair permutation)."""
    return [
        (bits, perm)
        for bits in product((0, 1), repeat=3)
        for perm in permutations(range(3))
    ]


def wreath_signature(element) -> int:
    """The quotient map to Z/2: parity of the number of pair swaps."""
    bits, _perm = element
    return sum(bits) % 2


def act_wreath(element, c: ConfigMatrix) -> ConfigMatrix:
    """Swap within pairs, then send pair i to slot perm[i].

    Column order encodes the pair slots, so the input must carry the
    standard labels and the output does too.
    """
    if c.n != 6:
        raise DimensionError("the wreath product acts on six lines")
    if c.labels != PAIR_LABELS:
        raise LabelError("wreath action expects standard pair-slot order")
    bits, perm = element
    source = [0] * 6
    for i in range(3):
        lo, hi = 2 * i, 2 * i + 1
        if bits[i]:
            lo, hi = hi, lo
        source[2 * perm[i]] = lo
        source[2 * perm[i] + 1] = hi
    return _select(c, source, PAIR_LABELS)


#: The six sides of the quadrangle on vertices 1..4, as vertex pairs,
#: opposite sides sharing a pair slot.
QUADRANGLE_SIDES = (
    frozenset((1, 2)),
    frozenset((3, 4)),
    frozenset((1, 3)),
    frozenset((2, 4)),
    frozenset((1, 4)),
    frozenset((2, 3)),
)


def s4_to_wreath(sigma):
    """Embed a permutation of the four quadrangle vertices into the
    wreath product via its action on the six sides."""
    sigma = tuple(sigma)
    if sorted(sigma) != [1, 2, 3, 4]:
        raise LabelError("expected a permutation of (1,2,3,4)")
    move = dict(zip((1, 2, 3, 4), sigma))
    # the sides move by a permutation of column slots preserving pair
    # slots: side 2i goes to slot t, so pair i goes to slot t // 2, and in
    # act_wreath terms it is swapped when its first member lands second
    slots = [
        QUADRANGLE_SIDES.index(frozenset(move[v] for v in side))
        for side in QUADRANGLE_SIDES[::2]
    ]
    return tuple(t % 2 for t in slots), tuple(t // 2 for t in slots)


def _char_matrix_apply(g, chi: int) -> int:
    """Apply a 3x3 F2 matrix (rows of bit tuples) to a character: bit
    2 - i of the image is the parity of row i against chi's bits, the
    low bit of the XOR of ``row[k] & chi >> (2 - k)`` over k."""
    hi, mid = chi >> 2, chi >> 1
    out = 0
    for i in range(3):
        row = g[i]
        out = out << 1 | ((row[0] & hi) ^ (row[1] & mid) ^ (row[2] & chi)) & 1
    return out


def gl3f2_elements():
    """All 168 invertible 3x3 matrices over F2 (rows of bit tuples)."""
    vecs = [v for v in product((0, 1), repeat=3) if any(v)]
    return [
        g for g in product(vecs, repeat=3)
        if len({_char_matrix_apply(g, chi) for chi in range(1, 8)}) == 7
    ]


@lru_cache(maxsize=168)
def _gl3f2_preimages(g):
    """The labels g^{-1}(1..7), g as row tuples; a singular g raises (not memoised)."""
    image = {_char_matrix_apply(g, chi): chi for chi in range(1, 8)}
    if len(image) != 7:
        raise LabelError("matrix is not invertible over F2")
    return tuple(image[chi] for chi in range(1, 8))


def act_gl3f2(g, c: ConfigMatrix) -> ConfigMatrix:
    """Relabel characters by g: the column at label position chi of
    the result is the column labeled g^{-1}(chi)."""
    if c.n != 7:
        raise DimensionError("GL3(F2) acts on seven-line configurations")
    position = {lab: j for j, lab in enumerate(c.labels)}
    order = [position[lab] for lab in _gl3f2_preimages(tuple(map(tuple, g)))]
    return _select(c, order, CHAR_LABELS)


def act_torus(scalars, c: ConfigMatrix) -> ConfigMatrix:
    if len(scalars) != c.n:
        raise DimensionError("one scalar per column")
    scalars = [Fraction(s) for s in scalars]
    if any(s == 0 for s in scalars):
        raise DimensionError("torus scalars must be nonzero")
    return c.with_matrix(c.matrix * Matrix.diagonal(scalars))


def orbit(items, elements, action):
    """Partition configurations into classes under the group action
    combined with GL3 x torus equivalence.

    ``items`` is a list of ConfigMatrix; ``elements`` a sequence of the
    group elements; ``action(element, config)`` the action map.  Returns
    a list of lists of indices into ``items``: each class starts at its
    first item and lists its members in index order.

    Each class walks ``elements`` in order from its first item and stops
    once every later unclassed item is found, but only after at least
    one element (so a class with no later items still tries the action
    once).  An element past that point is never applied, so an error
    its action would raise is not raised.
    """
    keys = [canonical_key(item) for item in items]
    classes = []
    assigned = set()
    for idx, item in enumerate(items):
        if idx in assigned:
            continue
        pending = {}
        for jdx in range(idx + 1, len(items)):
            if jdx not in assigned:
                pending.setdefault(keys[jdx], []).append(jdx)
        cls = [idx]
        for el in elements:
            cls += pending.pop(canonical_key(action(el, item)), ())
            if not pending:
                break
        cls.sort()
        assigned.update(cls)
        classes.append(cls)
    return classes


# ---------------------------------------------------------------------------
# The complete quadrangle
# ---------------------------------------------------------------------------


def quadrangle_vertices():
    return ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def complete_quadrangle(assignment=None) -> ConfigMatrix:
    """The six sides of the standard complete quadrangle.

    ``assignment`` optionally reorders the columns by a wreath element
    applied to the standard side order (opposite sides paired).
    """
    verts = quadrangle_vertices()
    cols = []
    for side in QUADRANGLE_SIDES:
        i, j = sorted(side)
        cols.append(_cross(verts[i - 1], verts[j - 1]))
    config = ConfigMatrix(Matrix.from_integers(zip(*cols)), PAIR_LABELS)
    if assignment is not None:
        config = act_wreath(assignment, config)
    return config


def quadrangle_classes():
    """Equivalence classes of the 48 labeled complete quadrangles.

    Returns (classes under GL3 x torus only, classes under the even
    wreath subgroup, classes under the full wreath product).
    """
    variants = [complete_quadrangle(el) for el in wreath_elements()]
    trivial = orbit(variants, [((0, 0, 0), (0, 1, 2))], act_wreath)
    even = orbit(
        variants,
        [el for el in wreath_elements() if wreath_signature(el) == 0],
        act_wreath,
    )
    full = orbit(variants, wreath_elements(), act_wreath)
    return trivial, even, full
