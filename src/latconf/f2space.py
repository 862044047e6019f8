"""The 7-dimensional quadratic space over F2 attached to a set of
seven lines.

Vectors are length-7 bit tuples.  For x of weight n the quadratic form
is q(x) = n(n+1)/2 mod 2, with polarization
b(x, y) = (sum x)(sum y) - sum x_i y_i mod 2, whose kernel is spanned
by the all-ones vector.  The distinguished 3-dimensional subspace G is
totally isotropic, and pairing against the standard basis vectors
recovers the column characters of the 3 x 7 generator matrix.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product

from .errors import DimensionError

DIM = 7

#: Rows of the generator matrix of G: the i-th column, read as a binary
#: number with row 0 the top bit, is the character i (1..7).
G_ROWS = (
    (0, 0, 0, 1, 1, 1, 1),
    (0, 1, 1, 0, 0, 1, 1),
    (1, 0, 1, 0, 1, 0, 1),
)


def _check(x):
    x = tuple(int(c) & 1 for c in x)
    if len(x) != DIM:
        raise DimensionError(f"vectors have length {DIM}")
    return x


def support(x) -> int:
    """Number of nonzero coordinates."""
    return sum(_check(x))


def weight(x) -> int:
    """Trace weight of the sign involution attached to x.

    Reading x as the diagonal sign matrix with -1 on its support, the
    weight is |trace| = |7 - 2*support(x)|; it is shared by x and its
    complement x + (1,...,1).
    """
    return abs(DIM - 2 * support(x))


def q(x) -> int:
    """Quadratic form: n(n+1)/2 mod 2 for n nonzero coordinates."""
    n = support(x)
    return (n * (n + 1) // 2) % 2


def b(x, y) -> int:
    """Polarization of q: b(x,y) = q(x+y) - q(x) - q(y) mod 2."""
    x, y = _check(x), _check(y)
    sx, sy = sum(x), sum(y)
    dot = sum(a * c for a, c in zip(x, y))
    return (sx * sy - dot) % 2


def add(x, y):
    return tuple((a + c) % 2 for a, c in zip(_check(x), _check(y)))


def is_isotropic(x) -> bool:
    return q(x) == 0


def census() -> dict[int, int]:
    """Trace-weight distribution of the 64 sign involutions.

    The 128 sign vectors in {±1}^7 modulo global sign correspond to
    the 64 classes {x, x + (1,...,1)} in F2^7; counting classes by
    weight gives {7: 1, 5: 7, 3: 21, 1: 35}.
    """
    return dict(Counter(
        weight(x) for x in product((0, 1), repeat=DIM)
        if sum(x) <= 3  # one representative per class
    ))


def g_elements():
    """The eight elements of the totally isotropic subspace G."""
    out = []
    for c0, c1, c2 in product((0, 1), repeat=3):
        v = tuple(
            (c0 * G_ROWS[0][k] + c1 * G_ROWS[1][k] + c2 * G_ROWS[2][k]) % 2
            for k in range(DIM)
        )
        out.append(v)
    return out


def g_is_totally_isotropic() -> bool:
    els = g_elements()
    return all(q(x) == 0 for x in els) and all(
        b(x, y) == 0 for x in els for y in els
    )


def character_of_column(i: int) -> int:
    """Character value of standard basis vector e_i against G.

    Pairing e_i with the three generator rows of G gives three bits;
    read with the first row as the top bit they form the integer label
    of column i (1-based), which equals i + 1 in the standard layout.
    """
    e = tuple(1 if k == i else 0 for k in range(DIM))
    bits = [b(e, row) for row in G_ROWS]
    return bits[0] * 4 + bits[1] * 2 + bits[2]


def character_bases():
    """Bases of the rank-3 character group, as increasing triples in
    lexicographic order.

    Characters are the integers 1..7 read as 3-bit vectors with XOR as
    addition.  A basis is a set {a, b, c} of three characters with
    a XOR b XOR c != 0 (three distinct nonzero vectors not summing to
    zero are automatically independent in dimension 3).  There are
    7 * 6 * 4 / 3! = 28 of them.
    """
    return [t for t in combinations(range(1, 8), 3) if t[0] ^ t[1] ^ t[2] != 0]


def character_basis_census() -> dict[int, int]:
    """Count character bases grouped by their XOR-sum: 4 per sum."""
    return dict(Counter(x ^ y ^ z for x, y, z in character_bases()))
