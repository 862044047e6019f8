"""Classification of isotropic vectors and planes in the signature
(2,4) lattice L with Gram diag(2,2,-1,-1,-1,-1).

A primitive isotropic vector falls into one of three classes:

* ``EvenVector`` — all pairings with the lattice are even; the quotient
  certificate ``l^perp/l`` has the invariants of Z^{1,3};
* ``OddType1Vector`` — odd quotient, invariants of Z^{1,1}+Z^2(-2);
* ``OddType2Vector`` — even quotient, invariants of H+Z^2(-2).

A primitive totally isotropic plane is ``EvenPlane`` (contains an even
vector; certificate Z^2(-1)) or ``OddPlane`` (certificate Z^2(-2)).

The acceptance suite's exhaustive census lists the primitive isotropic
vectors of bounded height and counts the planes spanned by pairs of
them, reading kinds off parities.  The plane count runs on exact int64
arrays and multiplies only one vector per orbit of L's 3,072 signed
permutations against the list, weighting each plane it meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import gcd

from .errors import DimensionError, NotIsotropic, NotPrimitive
from .lattices import (
    Lattice,
    Sublattice,
    Zpq,
    hyperbolic,
    is_isometric_small,
    orthogonal_complement,
    saturation,
    transcendental_slice,
)
from .matrices import Matrix, snf, solve_rows

EVEN_VECTOR = "EvenVector"
ODD_TYPE1_VECTOR = "OddType1Vector"
ODD_TYPE2_VECTOR = "OddType2Vector"
ODD_PLANE = "OddPlane"
EVEN_PLANE = "EvenPlane"


@dataclass(frozen=True)
class IsotropicClass:
    """Classification outcome with the quotient Gram certificate."""

    kind: str
    certificate: Matrix


def boundary_models():
    """Reference lattices for the certificate of each class."""
    return {
        EVEN_VECTOR: Zpq(1, 3),
        ODD_TYPE1_VECTOR: Zpq(1, 1).direct_sum(Zpq(2, 0).rescale(-2)),
        ODD_TYPE2_VECTOR: hyperbolic().direct_sum(Zpq(2, 0).rescale(-2)),
        ODD_PLANE: Zpq(2, 0).rescale(-2),
        EVEN_PLANE: Zpq(0, 2),
    }


def certificate_matches(cls: IsotropicClass) -> bool:
    """Check the certificate against the boundary-table row of its kind."""
    model = boundary_models()[cls.kind]
    return is_isometric_small(Lattice(cls.certificate), model)


def _complete_to_basis(coords: Matrix) -> Matrix:
    """Unimodular matrix whose first rows span the row space of ``coords``.

    From the Smith decomposition ``u*coords*v = [I | 0]`` the first rows
    of ``v^{-1}`` equal ``u*coords``, so ``v^{-1}`` is the required
    completion.  Raises NotPrimitive unless ``coords`` is primitive (all
    elementary divisors 1).
    """
    d, _, v = snf(coords)
    if any(d.num[i][i] != 1 for i in range(coords.rows)):
        raise NotPrimitive("sublattice is not primitive")
    return v.inverse()


def _quotient_gram(sub_rows: Matrix, complement: Sublattice) -> Matrix:
    """Gram matrix of complement / (row span of sub_rows).

    ``sub_rows`` are ambient coordinates of an isotropic sublattice inside
    ``complement`` (its own orthogonal complement), so the form descends to
    the quotient; any basis completion gives the same form up to base
    change.  Raises NotPrimitive unless it is primitive in ``complement``.
    """
    ambient = complement.ambient
    coords = solve_rows(complement.basis, sub_rows)
    if coords is None or not coords.is_integral():
        raise DimensionError("sublattice not inside its complement")
    completion = _complete_to_basis(coords)
    new_basis = completion * complement.basis
    rest = new_basis.submatrix(range(sub_rows.rows, new_basis.rows), range(new_basis.cols))
    return rest * ambient.gram * rest.transpose()


def _slice_only(l: Lattice | None) -> Lattice:
    """``l``, or L when ``l`` is None: the classification is defined on
    no other lattice."""
    if l is None:
        return transcendental_slice()
    if l.gram != transcendental_slice().gram:
        raise DimensionError("classification is defined on L = diag(2,2,-1,-1,-1,-1) only")
    return l


def classify_isotropic_vector(l: Lattice | None, v) -> IsotropicClass:
    """Classify a primitive isotropic vector of L (``l`` is None or L).

    Raises NotIsotropic / NotPrimitive / DimensionError on bad input.
    """
    l = _slice_only(l)
    coords = list(v)
    v = [int(x) for x in coords]
    if v != coords:
        raise DimensionError("vector coordinates must be integers")
    if len(v) != l.n:
        raise DimensionError("vector length mismatch")
    if all(x == 0 for x in v):
        raise NotIsotropic("zero vector")
    if gcd(*v) != 1:
        raise NotPrimitive("vector content exceeds 1")
    vm = Matrix([v])
    norm = (vm * l.gram * vm.transpose()).num[0][0]  # L is integral
    if norm != 0:
        raise NotIsotropic(f"vector has norm {norm}")
    complement = orthogonal_complement(Sublattice(l, vm))
    cert = _quotient_gram(vm, complement)
    if _vector_parity_gcd(l, v) == 2:
        return IsotropicClass(EVEN_VECTOR, cert)
    quotient_even = all(row[i] % (2 * cert.den) == 0 for i, row in enumerate(cert.num))
    kind = ODD_TYPE2_VECTOR if quotient_even else ODD_TYPE1_VECTOR
    return IsotropicClass(kind, cert)


def _vector_parity_gcd(l: Lattice, v) -> int:
    vm = Matrix([v])
    return gcd(*(vm * l.gram).num[0])


def classify_isotropic_plane(l: Lattice | None, basis) -> IsotropicClass:
    """Classify a primitive rank-2 totally isotropic plane of L (``l`` is
    None or L)."""
    l = _slice_only(l)
    basis = basis if isinstance(basis, Matrix) else Matrix(basis)
    if basis.rows != 2 or basis.cols != l.n:
        raise DimensionError("plane basis must be 2 x n")
    if basis.rank() != 2:
        raise DimensionError("plane basis must have rank 2")
    if not (basis * l.gram * basis.transpose()).is_zero():
        raise NotIsotropic("plane is not totally isotropic")
    # P is primitive in L iff in the saturated P⊥, which _quotient_gram tests
    complement = orthogonal_complement(Sublattice(l, basis))
    cert = _quotient_gram(basis, complement)
    r1, r2 = basis.num  # a Sublattice basis, so integral
    has_even = any(
        _vector_parity_gcd(l, [a * x + b * y for x, y in zip(r1, r2)]) == 2
        for a, b in ((1, 0), (0, 1), (1, 1))
    )
    return IsotropicClass(EVEN_PLANE if has_even else ODD_PLANE, cert)


# ---------------------------------------------------------------------------
# Exhaustive bounded enumeration
# ---------------------------------------------------------------------------
#
# The census routines classify tens of thousands of vectors and
# hundreds of thousands of planes by parities, a shortcut that the full
# classifier validates on samples.  For v = (a1, a2; b1..b4) the pairing
# row v*G is (2a1, 2a2, -b1..-b4): v is EvenVector iff all bi are even,
# OddType2Vector iff all are odd (then (0,0,1,1,1,1), the diagonal
# parities of G, lies in the span of v*G mod 2), else OddType1Vector.
# A primitive plane P contains an even vector iff its 2x4 b-block has
# rank < 2 over F_2 (P/2P -> F_2^6 is injective), i.e. iff the six
# b-column minors of its coprime Plücker vector are all even.
#
# W = (+-1)^6 x| (S_2 x S_4), the signed permutations keeping G, moves
# vectors and planes without changing these kinds.  So with V the
# listed vectors (one of each +-pair), the plane count is the
# orbit-weighted sum over representatives v of |W*v|/2 * sum over
# planes P through v of 1/|P meet V|: each plane adds 1/|P meet V| for
# every listed vector it holds.  The census by kind is the same sum
# split by the minor rule.


def fast_vector_kind(v) -> str:
    """Kind of a primitive isotropic vector of L, read off its b-part parities."""
    parities = {x & 1 for x in v[2:]}
    if parities == {0}:
        return EVEN_VECTOR
    if parities == {1}:
        return ODD_TYPE2_VECTOR
    return ODD_TYPE1_VECTOR


def enumerate_isotropic_vectors(height: int = 5):
    """All primitive isotropic vectors of L with coordinates in [-h, h].

    One representative per +-pair (first nonzero coordinate positive).
    """
    rng = range(-height, height + 1)
    by_square_sum: dict[int, list[tuple[int, ...]]] = {}
    for bs in product(rng, repeat=4):
        by_square_sum.setdefault(sum(b * b for b in bs), []).append(bs)
    candidates = (
        (a1, a2) + bs
        for a1, a2 in product(rng, repeat=2)
        for bs in by_square_sum.get(2 * (a1 * a1 + a2 * a2), ())
    )
    # v > 0 lexicographically iff its first nonzero coordinate is positive
    zero = (0,) * 6
    return [v for v in candidates if v > zero and gcd(*v) == 1]


def isotropic_vector_census(height: int = 5, vectors=None):
    """Kind counts over all primitive isotropic vectors of height <= h."""
    if vectors is None:
        vectors = enumerate_isotropic_vectors(height)
    census: dict[str, int] = {}
    for v in vectors:
        k = fast_vector_kind(v)
        census[k] = census.get(k, 0) + 1
    return census


@dataclass(frozen=True)
class PlaneScan:
    """Outcome of the exhaustive isotropic-plane scan.

    ``count`` distinct planes were found; ``census`` maps kind to the
    number of planes of that kind; ``representatives`` maps kind to a
    saturated 2 x 6 basis of one plane of that kind.
    """

    count: int
    census: dict
    representatives: dict


def _integer_array(vectors):
    """The listed vectors as int64 rows.  Coordinates below 2^30 keep every
    pairing (at most 8*max|x|^2) and 2x2 minor exact."""
    import numpy as np

    rows = [tuple(v) for v in vectors]
    if any(len(v) != 6 or any(int(x) != x for x in v) for v in rows):
        raise DimensionError("listed vectors need 6 integer coordinates")
    if any(abs(x) >= 2**30 for v in rows for x in v):
        raise DimensionError("vector coordinates must lie below 2^30 in absolute value")
    return np.array(rows, dtype=np.int64).reshape(len(rows), 6)


def _runs(rows):
    """(first, size) of each run of equal rows in lexicographic order
    (``np.unique`` would import ``numpy.ma`` on its first call)."""
    import numpy as np

    order = np.lexsort(rows.T[::-1])
    new = np.ones(len(rows), bool)
    new[1:] = (rows[order[1:]] != rows[order[:-1]]).any(axis=1)
    starts = np.flatnonzero(new)
    return order[starts], np.diff(np.r_[starts, len(rows)])


@cache
def _signed_permutations():
    """W = (+-1)^6 x| (S_2 x S_4), L's 3,072 signed permutations, as
    (perms, signs, index, sign): g = (perms[g // 64], signs[g % 64]) maps
    x to s * x[p], and a key with m01 > 0 to ``key[index[g]] * sign[g]``,
    again with m01 > 0.  Element 0 is the identity."""
    import numpy as np

    perms = np.array([a + b for a in permutations((0, 1)) for b in permutations((2, 3, 4, 5))])
    signs = 1 - 2 * (np.arange(64)[:, None] >> np.arange(6) & 1)
    a, b = np.triu_indices(6, 1)
    pair = np.zeros((6, 6), np.int64)
    pair[a, b] = pair[b, a] = np.arange(15)
    pa, pb = perms[:, a], perms[:, b]
    sign = np.where(pa < pb, 1, -1)[:, None, :] * (signs[:, a] * signs[:, b])[None]
    sign *= sign[:, :, :1]
    index = np.broadcast_to(pair[pa, pb][:, None, :], sign.shape)
    tables = perms, signs, index.reshape(-1, 15), sign.reshape(-1, 15)
    for t in tables:
        t.setflags(write=False)  # cached, so shared by every scan
    return tables


def _classes(V):
    """(representatives, weights, group) of the nonzero rows V: the
    W-orbits and their sizes under W if V is W-closed up to sign (each
    class of equal sorted |a| and |b| parts holds |W*v|/2 vectors, none
    listed twice up to sign), else each row alone under the identity."""
    import numpy as np

    parts = np.hstack((np.sort(np.abs(V[:, :2]), axis=1), np.sort(np.abs(V[:, 2:]), axis=1)))
    reps, sizes = _runs(parts)
    # |W*v|: the distinct orders of each part, times two signs per nonzero entry
    orbit = np.array([len(set(permutations(c[:2]))) * len(set(permutations(c[2:])))
                      << sum(map(bool, c)) for c in parts[reps].tolist()], dtype=np.int64)
    lead = np.take_along_axis(V, np.argmax(V != 0, axis=1)[:, None], axis=1)
    if len(_runs(V * np.sign(lead))[0]) == len(V) and (2 * sizes == orbit).all():
        return reps, sizes, _signed_permutations()
    return np.arange(len(V)), np.ones(len(V), np.int64), [t[:1] for t in _signed_permutations()]


def _least_image(keys, index, sign):
    """(k, g) with the lexicographically least image key
    ``keys[k][index[g]] * sign[g]``; only keys of least m01 can win."""
    import numpy as np

    least = np.flatnonzero(keys[:, 0] == keys[:, 0].min())
    kk, gg = np.repeat(least, len(index)), np.tile(np.arange(len(index)), len(least))
    for c in range(1, 15):
        image = keys[kk, index[gg, c]] * sign[gg, c]
        kk, gg = kk[image == image.min()], gg[image == image.min()]
    return kk[0], gg[0]


def scan_isotropic_planes(vectors=None, height: int = 5) -> PlaneScan:
    """Exhaustively classify planes spanned by pairs of listed vectors.

    Each plane is keyed by its coprime Plücker vector (the 2x2 minors of
    any spanning pair over their gcd, m01 > 0) and counted by the
    orbit-weighted sum above, one representative row of each class of
    ``_classes`` against the whole list.  The representative of each
    kind is the least key over the group images of the planes met,
    saturated.  Raises DimensionError for non-integral or oversized
    coordinates, NotIsotropic for a vector of nonzero norm.
    """
    import numpy as np

    if vectors is None:
        vectors = enumerate_isotropic_vectors(height)
    V = _integer_array(vectors)
    G = V * np.array([2, 2, -1, -1, -1, -1], dtype=np.int64)
    if (V * G).sum(axis=1).any():
        raise NotIsotropic("listed vectors must be isotropic")
    V, G = V[V.any(axis=1)], G[V.any(axis=1)]
    if not len(V):
        return PlaneScan(0, {}, {})
    reps, weights, (perms, signs, index, sign) = _classes(V)
    # column pairs (a, b), a < b, in lexicographic order: the last six
    # are the pairs of b-columns 2..5
    a, b = np.triu_indices(6, 1)
    parallel, records = np.zeros(len(reps), np.int64), []
    # under the trivial group every row is a representative: a block of
    # 128 against the height-5 list is 128 x 10,112 int64, 10 MB
    for start in range(0, len(reps), 128):
        ii, jj = np.nonzero(V[reps[start : start + 128]] @ G.T == 0)
        ii += start
        minors = V[reps[ii]][:, a] * V[jj][:, b] - V[reps[ii]][:, b] * V[jj][:, a]
        spans = minors.any(axis=1)
        parallel += np.bincount(ii[~spans], minlength=len(reps))
        minors, ii, jj = minors[spans], ii[spans], jj[spans]
        # m01 != 0, else P holds a nonzero vector with a = 0, of norm -|b|^2
        minors //= np.gcd.reduce(minors, axis=1)[:, None] * np.sign(minors[:, :1])
        first, met = _runs(np.column_stack((ii, minors)))  # one record per (v, P) pair
        records.append((ii[first], jj[first], minors[first], met))
    ii, jj, keys, met = (np.concatenate(parts) for parts in zip(*records))
    even = ~(keys[:, 9:] & 1).any(axis=1)
    census: dict[str, int] = {}
    representatives: dict[str, Matrix] = {}
    for kind, mask in ((EVEN_PLANE, even), (ODD_PLANE, ~even)):
        if mask.any():
            # integral weights summed per |P meet V|, exact in float64
            per_size = np.bincount(met[mask] + parallel[ii[mask]], weights[ii[mask]])
            census[kind] = int(sum(Fraction(int(w), d) for d, w in enumerate(per_size) if w))
            k, g = _least_image(keys[mask], index, sign)
            p, s = perms[g // len(signs)], signs[g % len(signs)]
            span = [(s * V[x][p]).tolist() for x in (reps[ii[mask][k]], jj[mask][k])]
            representatives[kind] = saturation(Sublattice(transcendental_slice(), span)).basis
    return PlaneScan(sum(census.values()), census, representatives)
