"""Classification of isotropic vectors and planes in the signature
(2,4) lattice with Gram diag(2,2,-1,-1,-1,-1).

A primitive isotropic vector falls into one of three classes:

* ``EvenVector`` — all pairings with the lattice are even; the quotient
  certificate ``l^perp/l`` has the invariants of Z^{1,3};
* ``OddType1Vector`` — odd quotient, invariants of Z^{1,1}+Z^2(-2);
* ``OddType2Vector`` — even quotient, invariants of H+Z^2(-2).

A primitive totally isotropic plane is ``EvenPlane`` (contains an even
vector; certificate Z^2(-1)) or ``OddPlane`` (certificate Z^2(-2)).

The exhaustive enumerations used by the acceptance suite (all primitive
isotropic vectors of bounded coordinate height, and all isotropic
planes spanned by pairs of them) are also provided.  They read each
kind off parities: a vector's from its b-part, a plane's from the six
b-column minors of its coprime Plücker vector.  The plane scan runs on
exact integer numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, NotIsotropic, NotPrimitive
from .lattices import (
    Lattice,
    Sublattice,
    Zpq,
    hyperbolic,
    is_isometric_small,
    is_primitive,
    orthogonal_complement,
    saturation,
    transcendental_slice,
)
from .matrices import Matrix, gcd_of, snf, solve_rows

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

    ``coords`` must be primitive (all elementary divisors 1).  From the
    Smith decomposition ``u*coords*v = [I | 0]`` the first rows of
    ``v^{-1}`` equal ``u*coords``, so ``v^{-1}`` is the required
    completion.
    """
    d, _, v = snf(coords)
    for i in range(coords.rows):
        if d.entry(i, i) != 1:
            raise NotPrimitive("rows are not a primitive sublattice basis")
    return v.inverse()


def _quotient_gram(sub_rows: Matrix, complement: Sublattice) -> Matrix:
    """Gram matrix of complement / (row span of sub_rows).

    ``sub_rows`` are ambient coordinates of an isotropic sublattice
    sitting primitively inside ``complement`` (its own orthogonal
    complement), so the induced form descends to the quotient; any
    basis completion yields the same form up to base change.
    """
    ambient = complement.ambient
    coords = solve_rows(complement.basis, sub_rows)
    if coords is None or not coords.is_integral():
        raise DimensionError("sublattice not inside its complement")
    completion = _complete_to_basis(coords)
    new_basis = completion * complement.basis
    k = sub_rows.rows
    rest = Matrix([list(new_basis.data[i]) for i in range(k, new_basis.rows)])
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
    if gcd_of(v) != 1:
        raise NotPrimitive("vector content exceeds 1")
    vm = Matrix([v])
    norm = (vm * l.gram * vm.transpose()).entry(0, 0)
    if norm != 0:
        raise NotIsotropic(f"vector has norm {norm}")
    complement = orthogonal_complement(Sublattice(l, vm))
    cert = _quotient_gram(vm, complement)
    if _vector_parity_gcd(l, v) == 2:
        return IsotropicClass(EVEN_VECTOR, cert)
    quotient_even = all(cert.entry(i, i) % 2 == 0 for i in range(cert.rows))
    kind = ODD_TYPE2_VECTOR if quotient_even else ODD_TYPE1_VECTOR
    return IsotropicClass(kind, cert)


def _vector_parity_gcd(l: Lattice, v) -> int:
    vm = Matrix([v])
    return gcd_of(int(x) for x in (vm * l.gram).data[0])


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
    sub = Sublattice(l, basis)
    if not is_primitive(sub):
        raise NotPrimitive("plane is not primitive")
    complement = orthogonal_complement(sub)
    cert = _quotient_gram(basis, complement)
    r1, r2 = basis.data
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
# hundreds of thousands of planes, so they use a shortcut that the
# full classifier validates on samples: for v = (a1, a2; b1..b4) the
# pairing row v*G is (2a1, 2a2, -b1..-b4), so modulo 2 everything is
# decided by the b-part.  All pairings even (EvenVector) means all bi
# even; the quotient l^perp/l is even (OddType2Vector) iff the vector
# (0,0,1,1,1,1) carrying the diagonal parities of G lies in the span
# of v*G mod 2, i.e. all bi odd; anything else is OddType1Vector.
# A primitive plane P contains an even vector iff some v in P \ 2P has
# an even b-part (the a-part of v*G is even anyway).  P/2P -> F_2^6 is
# injective, so that holds iff the 2x4 b-part block of any basis of P
# has rank < 2 over F_2, i.e. iff the six b-column 2x2 minors
# (coordinates 2..5) of its coprime Plücker vector are all even.


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
    by_square_sum: dict[int, list[tuple[int, ...]]] = {}
    rng = range(-height, height + 1)
    for b1 in rng:
        for b2 in rng:
            for b3 in rng:
                for b4 in rng:
                    s = b1 * b1 + b2 * b2 + b3 * b3 + b4 * b4
                    by_square_sum.setdefault(s, []).append((b1, b2, b3, b4))
    out = []
    for a1 in rng:
        for a2 in rng:
            s = 2 * (a1 * a1 + a2 * a2)
            for bs in by_square_sum.get(s, ()):
                v = (a1, a2) + bs
                nz = next((x for x in v if x != 0), None)
                if nz is None or nz < 0:
                    continue
                if gcd_of(v) != 1:
                    continue
                out.append(v)
    return out


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


def scan_isotropic_planes(vectors=None, height: int = 5) -> PlaneScan:
    """Exhaustively classify planes spanned by pairs of listed vectors.

    Every rank-2 totally isotropic span of two listed vectors is
    collected once, keyed by its coprime Plücker vector: the 2x2 minors
    of the spanning pair divided by their gcd, first nonzero entry
    positive.  That key is the Plücker vector of the saturation, so a
    plane is even iff its six b-column minors are all even, whatever
    the index of the pair that reached it.  The scan runs on exact
    integer numpy arrays; only the two representatives (the
    lexicographically first key of each kind) are saturated.

    Raises NotIsotropic when a listed vector has nonzero norm.
    """
    import numpy as np

    if vectors is None:
        vectors = enumerate_isotropic_vectors(height)
    V = np.array(vectors, dtype=np.int64).reshape(len(vectors), 6)
    W = V * np.array([2, 2, -1, -1, -1, -1], dtype=np.int64)
    if (V * W).sum(axis=1).any():
        raise NotIsotropic("listed vectors must be isotropic")
    # column pairs (a, b), a < b, in lexicographic order: the last six
    # are the pairs of b-columns 2..5
    a, b = np.triu_indices(6, 1)
    # Each key is packed, most significant minor first, into words of
    # base-(2*bound + 1) digits, where bound = 2*max|x|^2 over the listed
    # vectors bounds every 2x2 minor; the words sort as the 15 minors do.
    bound = 2 * int(np.abs(V).max(initial=0)) ** 2
    base = max(2, 2 * bound + 1)
    digits = 1
    while digits < 8 and base ** (digits + 1) < 2**63:
        digits += 1
    words = [range(c, min(c + digits, 15)) for c in range(0, 15, digits)]
    keys = [[np.empty(0, np.int64)] for _ in words]
    evens, pairs = [np.empty(0, bool)], [np.empty((0, 2), np.int64)]
    block = 128  # a height-5 block product is 128 x 10,112 int64, 10 MB
    for start in range(0, len(V), block):
        ii, jj = np.nonzero(V[start : start + block] @ W[start:].T == 0)
        ii, jj = ii + start, jj + start
        keep = ii < jj
        ii, jj = ii[keep], jj[keep]
        v, w = V[ii], V[jj]
        minors = v[:, a] * w[:, b] - v[:, b] * w[:, a]
        spans = minors.any(axis=1)
        minors, ii, jj = minors[spans], ii[spans], jj[spans]
        minors //= np.gcd.reduce(np.abs(minors), axis=1)[:, None]
        first = np.argmax(minors != 0, axis=1)[:, None]
        minors *= np.sign(np.take_along_axis(minors, first, axis=1))
        for parts, cols in zip(keys, words):
            word = np.zeros(len(minors), np.int64)
            for c in cols:
                word = word * base + (minors[:, c] + bound)
            parts.append(word)
        evens.append(~(minors[:, 9:] & 1).any(axis=1))
        pairs.append(np.column_stack((ii, jj)))
    keys = [np.concatenate(parts) for parts in keys]
    order = np.lexsort(keys[::-1])
    new_plane = np.zeros(len(order), dtype=bool)
    new_plane[:1] = True
    for word in keys:
        word = word[order]
        new_plane[1:] |= word[1:] != word[:-1]
    planes = order[new_plane]  # the first record of each plane
    even = np.concatenate(evens)[planes]
    pairs = np.concatenate(pairs)[planes]
    census: dict[str, int] = {}
    representatives: dict[str, Matrix] = {}
    for kind, mask in ((EVEN_PLANE, even), (ODD_PLANE, ~even)):
        if mask.any():
            census[kind] = int(mask.sum())
            span = [list(vectors[k]) for k in pairs[np.argmax(mask)]]
            representatives[kind] = saturation(Sublattice(transcendental_slice(), span)).basis
    return PlaneScan(len(planes), census, representatives)
