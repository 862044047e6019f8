"""Isotropic vector and plane classification in the reference lattice."""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latconf.errors import DimensionError, NotIsotropic, NotPrimitive
from latconf.isotropic import (
    EVEN_PLANE,
    EVEN_VECTOR,
    ODD_PLANE,
    ODD_TYPE1_VECTOR,
    ODD_TYPE2_VECTOR,
    IsotropicClass,
    PlaneScan,
    _classes,
    _integer_array,
    boundary_models,
    certificate_matches,
    classify_isotropic_plane,
    classify_isotropic_vector,
    enumerate_isotropic_vectors,
    fast_vector_kind,
    isotropic_vector_census,
    scan_isotropic_planes,
)
from latconf.lattices import (
    Lattice,
    Sublattice,
    Zpq,
    gauss_reduce_binary,
    is_isometric_small,
    saturation,
    transcendental_slice,
)
from latconf.matrices import Matrix


def test_reference_example_vector():
    cls = classify_isotropic_vector(None, (1, 1, 2, 0, 0, 0))
    assert cls.kind == EVEN_VECTOR
    assert certificate_matches(cls)


def test_vector_kinds_by_parity():
    assert fast_vector_kind((1, 1, 2, 0, 0, 0)) == EVEN_VECTOR
    assert fast_vector_kind((1, 1, 1, 1, 1, 1)) == ODD_TYPE2_VECTOR
    assert fast_vector_kind((1, 0, 1, 1, 0, 0)) == ODD_TYPE1_VECTOR


def test_fast_kind_matches_certificates():
    l = transcendental_slice()
    for v in ((1, 1, 2, 0, 0, 0), (1, 1, 1, 1, 1, 1), (1, 0, 1, 1, 0, 0),
              (1, 2, 3, 0, 1, 0), (5, 0, 7, 1, 0, 0)):
        cls = classify_isotropic_vector(l, v)
        assert cls.kind == fast_vector_kind(v)
        assert certificate_matches(cls)


def test_rejects_bad_vectors():
    with pytest.raises(NotIsotropic):
        classify_isotropic_vector(None, (1, 0, 0, 0, 0, 0))
    with pytest.raises(NotPrimitive, match="content exceeds 1"):
        classify_isotropic_vector(None, (2, 2, 4, 0, 0, 0))
    with pytest.raises(NotIsotropic):
        classify_isotropic_vector(None, (0, 0, 0, 0, 0, 0))
    # non-integral coordinates are rejected, not truncated, and so are
    # coordinates that are not numbers at all
    for v in ((1.5, 0, 1, 1, 0, 0), (Fraction(3, 2), 0, 1, 1, 0, 0),
              ["a", 0, 0, 0, 0, 0], [None, 0, 0, 0, 0, 0], [float("inf"), 0, 0, 0, 0, 0],
              [float("nan"), 0, 0, 0, 0, 0]):
        with pytest.raises(DimensionError, match="must be integers"):
            classify_isotropic_vector(None, v)


@pytest.mark.parametrize("bad", ["a", None, float("inf")], ids=["non-numeric", "none", "infinite"])
def test_plane_classifier_rejects_non_integer_coordinates(bad):
    """A list basis goes through the vector classifier's integer check,
    so no ValueError, TypeError or OverflowError escapes the Matrix
    constructor."""
    with pytest.raises(DimensionError, match="must be integers"):
        classify_isotropic_plane(None, [[bad, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])


class _Indexed:
    """A sequence that iterates through ``__getitem__`` only."""

    def __init__(self, items):
        self.items = items

    def __getitem__(self, i):
        return self.items[i]


def test_plane_classifier_takes_any_iterable_basis():
    """The basis and its rows need only be iterable, as ``list`` reads
    them, not instances of ``collections.abc.Iterable``."""
    rows = [[1, 0, 1, -1, 0, 0], [0, 1, -1, -1, 0, 0]]
    want = classify_isotropic_plane(None, rows)
    assert classify_isotropic_plane(None, _Indexed([_Indexed(r) for r in rows])) == want
    assert classify_isotropic_vector(None, _Indexed([1, 1, 2, 0, 0, 0])) == (
        classify_isotropic_vector(None, [1, 1, 2, 0, 0, 0])
    )


def test_vector_census_three_classes():
    vectors = enumerate_isotropic_vectors(height=3)
    census = isotropic_vector_census(vectors=vectors)
    assert sorted(census) == [EVEN_VECTOR, ODD_TYPE1_VECTOR,
                              ODD_TYPE2_VECTOR]
    assert all(count > 0 for count in census.values())


def test_plane_classification():
    l = transcendental_slice()
    even = classify_isotropic_plane(
        l, Matrix([[1, 0, 1, -1, 0, 0], [0, 1, -1, -1, 0, 0]])
    )
    assert even.kind == EVEN_PLANE and certificate_matches(even)
    odd = classify_isotropic_plane(
        l, Matrix([[1, 0, 0, 0, 1, 1], [0, 1, -1, -1, 0, 0]])
    )
    assert odd.kind == ODD_PLANE and certificate_matches(odd)


@pytest.mark.parametrize("a, b", [((2, 0), (0, 1)), ((1, 0), (0, 3)), ((1, 1), (1, -1))])
def test_plane_classification_rejects_non_primitive_planes(a, b):
    # the rows a and b combine r and s into a sublattice of index 2 or 3
    r, s = (1, 0, 1, -1, 0, 0), (0, 1, -1, -1, 0, 0)
    rows = [[x * i + y * j for i, j in zip(r, s)] for x, y in (a, b)]
    with pytest.raises(NotPrimitive, match="not primitive"):
        classify_isotropic_plane(None, Matrix(rows))


def test_classification_rejects_other_lattices():
    # Z(2,4) has isotropic planes too, but the classes and certificates
    # are those of L = diag(2,2,-1,-1,-1,-1) only
    z24 = Zpq(2, 4)
    with pytest.raises(DimensionError):
        classify_isotropic_plane(z24, Matrix([[1, 0, 1, 0, 0, 0], [0, 1, 0, 1, 0, 0]]))
    with pytest.raises(DimensionError):
        classify_isotropic_vector(z24, (1, 0, 1, 0, 0, 0))
    assert classify_isotropic_vector(transcendental_slice(), (1, 1, 2, 0, 0, 0)).kind == EVEN_VECTOR


def test_plane_scan_two_classes():
    vectors = enumerate_isotropic_vectors(height=2)
    scan = scan_isotropic_planes(vectors=vectors, height=2)
    assert sorted(scan.census) == [EVEN_PLANE, ODD_PLANE]
    assert scan.count == sum(scan.census.values())
    l = transcendental_slice()
    for kind, rep in scan.representatives.items():
        cls = classify_isotropic_plane(l, rep)
        assert cls.kind == kind


@pytest.mark.parametrize("v, w, kind", [
    ((1, 1, 0, -2, 0, 0), (1, -1, 2, 0, 0, 0), EVEN_PLANE),
    ((1, 1, -1, -1, 1, 1), (1, -1, 1, 1, 1, 1), ODD_PLANE),
])
def test_plane_scan_even_index_fallback(v, w, kind):
    # v, w = r + s, r - s span their plane with index 2; the parities of
    # v*G, w*G would call the odd pair even, but the coprime Plücker
    # minors are those of the saturation
    scan = scan_isotropic_planes(vectors=[v, w])
    assert scan.census == {kind: 1}
    assert classify_isotropic_plane(None, scan.representatives[kind]).kind == kind


def test_plane_scan_height_3():
    vectors = enumerate_isotropic_vectors(height=3)
    scan = scan_isotropic_planes(vectors=vectors, height=3)
    assert len(vectors) == 1824
    assert scan.count == 19440
    assert scan.census == {EVEN_PLANE: 5136, ODD_PLANE: 14304}


def _pair_scan(vectors):
    """The scan in plain Python: the coprime Plücker key of every
    spanning isotropic pair (i, j), i < j, the first pair of each key,
    and per kind the smallest key's first pair, saturated."""
    gram = (2, 2, -1, -1, -1, -1)
    first = {}
    for i, v in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            w = vectors[j]
            if sum(g * x * y for g, x, y in zip(gram, v, w)):
                continue
            minors = [v[a] * w[b] - v[b] * w[a] for a in range(6) for b in range(a + 1, 6)]
            g = gcd(*minors)
            if g:
                g *= 1 if next(m for m in minors if m) > 0 else -1
                first.setdefault(tuple(m // g for m in minors), (v, w))
    census, representatives = {}, {}
    for key in sorted(first):
        kind = EVEN_PLANE if all(m % 2 == 0 for m in key[9:]) else ODD_PLANE
        if kind not in census:
            span = Sublattice(transcendental_slice(), [list(x) for x in first[key]])
            representatives[kind] = saturation(span).basis
        census[kind] = census.get(kind, 0) + 1
    return PlaneScan(len(first), census, representatives)


def test_plane_scan_against_pair_oracle():
    # the height-2 list is W-closed (orbit representatives); the sample
    # of 150 is not (every vector its own class)
    vectors = enumerate_isotropic_vectors(height=2)
    assert scan_isotropic_planes(vectors=vectors) == _pair_scan(vectors)
    rng = random.Random(3)
    sample = rng.sample(enumerate_isotropic_vectors(height=4), 150)
    assert scan_isotropic_planes(vectors=sample) == _pair_scan(sample)


@pytest.mark.parametrize("k", [7, 1000])
def test_plane_scan_of_scaled_vectors(k):
    # k*v span the same planes and fall into orbits of the same sizes,
    # so the scan is unchanged
    vectors = enumerate_isotropic_vectors(height=2)
    scaled = [tuple(k * x for x in v) for v in vectors]
    assert scan_isotropic_planes(vectors=scaled) == scan_isotropic_planes(vectors=vectors)


def _numpy_pair_scan(vectors):
    """The full pair scan in exact int64 numpy: the coprime Plücker key
    of every spanning isotropic pair (i, j), i < j, sorted, and per kind
    the first pair of the smallest key, saturated."""
    V = np.array(vectors, dtype=np.int64).reshape(len(vectors), 6)
    W = V * np.array([2, 2, -1, -1, -1, -1], dtype=np.int64)
    a, b = np.triu_indices(6, 1)
    keys, pairs = [np.empty((0, 15), np.int64)], [np.empty((0, 2), np.int64)]
    for start in range(0, len(V), 128):
        ii, jj = np.nonzero(V[start : start + 128] @ W[start:].T == 0)
        ii, jj = ii + start, jj + start
        ii, jj = ii[ii < jj], jj[ii < jj]
        minors = V[ii][:, a] * V[jj][:, b] - V[ii][:, b] * V[jj][:, a]
        spans = minors.any(axis=1)
        minors, ii, jj = minors[spans], ii[spans], jj[spans]
        minors //= np.gcd.reduce(np.abs(minors), axis=1)[:, None]
        first = np.argmax(minors != 0, axis=1)[:, None]
        minors *= np.sign(np.take_along_axis(minors, first, axis=1))
        keys.append(minors)
        pairs.append(np.column_stack((ii, jj)))
    keys, pairs = np.concatenate(keys), np.concatenate(pairs)
    order = np.lexsort(keys.T[::-1])
    new = np.ones(len(order), bool)
    new[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
    planes = order[new]
    even = ~(keys[planes, 9:] & 1).any(axis=1)
    census, representatives = {}, {}
    for kind, mask in ((EVEN_PLANE, even), (ODD_PLANE, ~even)):
        if mask.any():
            census[kind] = int(mask.sum())
            span = [list(vectors[k]) for k in pairs[planes[np.argmax(mask)]]]
            representatives[kind] = saturation(Sublattice(transcendental_slice(), span)).basis
    return PlaneScan(len(planes), census, representatives)


@pytest.mark.parametrize("height", [1, 2, 3, 4])
def test_plane_scan_against_numpy_pair_oracle(height):
    vectors = enumerate_isotropic_vectors(height)
    assert scan_isotropic_planes(vectors=vectors) == _numpy_pair_scan(vectors)


def test_plane_scan_height_5():
    scan = scan_isotropic_planes(height=5)
    assert scan.count == 226608
    assert scan.census == {EVEN_PLANE: 73296, ODD_PLANE: 153312}
    assert scan.representatives == {
        EVEN_PLANE: Matrix([[1, 0, 1, -1, 0, 0], [0, 1, -1, -1, 0, 0]]),
        ODD_PLANE: Matrix([[1, 0, 0, 0, 1, 1], [0, 1, -1, -1, 0, 0]]),
    }


HEIGHT_2 = enumerate_isotropic_vectors(2)


def _orbits(vectors):
    """The W-orbits of a W-closed list, as lists of vectors."""
    orbits = {}
    for v in vectors:
        key = tuple(sorted(map(abs, v[:2]))) + tuple(sorted(map(abs, v[2:])))
        orbits.setdefault(key, []).append(v)
    return list(orbits.values())


FIRST_ORBIT = _orbits(HEIGHT_2)[0]
SMALL_ORBITS = [o for o in _orbits(enumerate_isotropic_vectors(3)) if len(o) <= 192]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(range(len(HEIGHT_2))), max_size=80))
def test_plane_scan_of_random_sublists(picks):
    vectors = [HEIGHT_2[i] for i in picks]
    assert scan_isotropic_planes(vectors=vectors) == _pair_scan(vectors)


@pytest.mark.parametrize("vectors", [
    HEIGHT_2[:100] + HEIGHT_2[101:],
    HEIGHT_2 + [tuple(-x for x in v) for v in HEIGHT_2[::7]],
    HEIGHT_2 + HEIGHT_2[5:40],
    HEIGHT_2 + [tuple(3 * x for x in v) for v in HEIGHT_2[::5]],
    [(0,) * 6] + HEIGHT_2,
    # an orbit keeps its count with one vector listed twice, or twice up
    # to sign, in place of another
    [v for v in HEIGHT_2 if v != FIRST_ORBIT[0]] + [FIRST_ORBIT[1]],
    [v for v in HEIGHT_2 if v != FIRST_ORBIT[0]] + [tuple(-x for x in FIRST_ORBIT[1])],
], ids=["one-missing", "plus-negatives", "repeated", "scaled-multiples", "zero",
        "duplicate-for-missing", "negative-for-missing"])
def test_plane_scan_of_lists_that_are_not_w_closed(vectors):
    V = _integer_array(vectors)
    # the zero vector spans nothing and is dropped before the classes
    closed = _classes(V[V.any(axis=1)])[2][2].shape == (3072, 15)
    assert closed == (vectors[0] == (0,) * 6)
    assert scan_isotropic_planes(vectors=vectors) == _pair_scan(vectors)


@settings(max_examples=15, deadline=None)
@given(st.sets(st.sampled_from(range(len(SMALL_ORBITS))), min_size=1, max_size=3),
       st.sampled_from([1, 2]))
def test_plane_scan_of_unions_of_orbits(picks, k):
    # whole orbits of the height-3 list, every other one scaled by k,
    # form a W-closed list whose planes hold varying numbers of its vectors
    vectors = [tuple(k ** (i % 2) * x for x in v) for i in sorted(picks) for v in SMALL_ORBITS[i]]
    assert _classes(_integer_array(vectors))[2][2].shape == (3072, 15)
    assert scan_isotropic_planes(vectors=vectors) == _pair_scan(vectors)


@pytest.mark.parametrize("vectors", [
    [(1, 1, 2, 0, 0, 0), (1, -1, 0, 2, 0, 0), (1.9, -1, 0, 0, 2, 0)],
    [(1, 1, 2, 0, 0, 0), (1, -1, 0, 2, 0, 0), (Fraction(3, 2), -1, 0, 0, 2, 0)],
    [(1, 1, 2, 0, 0, 0), (1, -1, 0, 2, 0)],
    [(1, 1, 2, 0, 0, 0), ("1", -1, 0, 2, 0, 0)],
    [tuple(10**9 * x for x in v) for v in HEIGHT_2],
    [tuple(2**30 * x for x in v) for v in enumerate_isotropic_vectors(1)],
    [(1, 1, 2, 0, 0, 0), ("a", 0, 0, 0, 0, 0)],
    [(1, 1, 2, 0, 0, 0), (None, 0, 0, 0, 0, 0)],
    [(1, 1, 2, 0, 0, 0), (float("inf"), 0, 0, 0, 0, 0)],
], ids=["float", "fraction", "short", "string", "1e9-height-2", "2^30",
        "non-numeric", "none", "infinite"])
def test_plane_scan_rejects_inexact_input(vectors):
    # non-integral coordinates are rejected, not truncated, and so are
    # coordinates whose pairings (up to 8*max|x|^2) could leave int64
    with pytest.raises(DimensionError):
        scan_isotropic_planes(vectors=vectors)


def test_plane_scan_at_the_coordinate_bound():
    vectors = enumerate_isotropic_vectors(1)
    for k in (10**9, 2**30 - 1):
        scaled = [tuple(k * x for x in v) for v in vectors]
        assert scan_isotropic_planes(vectors=scaled) == scan_isotropic_planes(vectors=vectors)
    exact = [tuple(Fraction(x) for x in v) for v in vectors]
    assert scan_isotropic_planes(vectors=exact) == scan_isotropic_planes(vectors=vectors)


def test_plane_scan_kind_matches_classifier():
    """The Plücker-minor rule against the full classifier on seeded
    orthogonal pairs of height <= 3 and on their index-2 pairs r +- s."""
    rng = random.Random(9)
    vectors = enumerate_isotropic_vectors(height=3)
    gram = (2, 2, -1, -1, -1, -1)
    kinds = {}
    for _ in range(40):
        r = rng.choice(vectors)
        partners = [
            s for s in vectors
            if sum(g * x * y for g, x, y in zip(gram, r, s)) == 0
            and Matrix([r, s]).rank() == 2
        ]
        s = rng.choice(partners)
        plus = tuple(x + y for x, y in zip(r, s))
        minus = tuple(x - y for x, y in zip(r, s))
        for v, w in ((r, s), (plus, minus)):
            scan = scan_isotropic_planes(vectors=[v, w])
            (kind, rep), = scan.representatives.items()
            assert scan.count == 1 and scan.census == {kind: 1}
            assert Matrix([list(rep.data[0]), list(rep.data[1]), v, w]).rank() == 2
            assert classify_isotropic_plane(None, rep).kind == kind, (v, w)
            # the index of the pair in its saturation is the gcd of its minors
            index = gcd(*(v[a] * w[b] - v[b] * w[a] for a in range(6) for b in range(a)))
            kinds.setdefault(index, set()).add(kind)
    assert kinds[1] == kinds[2] == {EVEN_PLANE, ODD_PLANE}


@pytest.mark.parametrize("kwargs", [
    {"vectors": [(1, 1, 2, 0, 0, 0)]},
    {"vectors": []},
    {"vectors": [(1, 1, 2, 0, 0, 0), (1, 1, 2, 0, 0, 0)]},
    {"vectors": [(0, 0, 0, 0, 0, 0), (1, 1, 2, 0, 0, 0)]},
    {"height": 0},
])
def test_plane_scan_without_planes(kwargs):
    assert scan_isotropic_planes(**kwargs) == PlaneScan(0, {}, {})


def test_plane_scan_rejects_non_isotropic():
    with pytest.raises(NotIsotropic):
        scan_isotropic_planes(vectors=[(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])


def test_boundary_models_pairwise_distinct():
    models = boundary_models()
    kinds = sorted(models)
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            if models[a].n != models[b].n:
                continue
            assert not bool(is_isometric_small(models[a], models[b])), (a, b)
            assert not bool(is_isometric_small(models[b], models[a])), (b, a)


def test_boundary_models_built_once_and_read_only():
    models = boundary_models()
    assert len(models) == 5
    assert all(boundary_models()[kind] is model for kind, model in models.items())
    with pytest.raises(TypeError):
        models[EVEN_PLANE] = Zpq(0, 2)
    with pytest.raises(TypeError):
        del models[ODD_PLANE]


ONE_OF_EACH_KIND = [
    (classify_isotropic_vector, (1, 1, 2, 0, 0, 0)),
    (classify_isotropic_vector, (1, 0, 1, 1, 0, 0)),
    (classify_isotropic_vector, (1, 1, 1, 1, 1, 1)),
    (classify_isotropic_plane, [[1, 0, 1, -1, 0, 0], [0, 1, -1, -1, 0, 0]]),
    (classify_isotropic_plane, [[1, 0, 0, 0, 1, 1], [0, 1, -1, -1, 0, 0]]),
]


def test_warm_certificate_matches_builds_one_lattice(monkeypatch):
    """Once the models are built, checking a certificate builds only the
    certificate's own Lattice, for every kind."""
    classes = [classify(None, x) for classify, x in ONE_OF_EACH_KIND]
    assert sorted(cls.kind for cls in classes) == sorted(boundary_models())
    assert all(map(certificate_matches, classes))  # warm
    built = []
    init = Lattice.__init__

    def counting_init(self, gram, name=None):
        built.append(gram)
        init(self, gram, name)

    monkeypatch.setattr(Lattice, "__init__", counting_init)
    for cls in classes:
        built.clear()
        assert certificate_matches(cls)
        assert built == [cls.certificate], cls.kind


def test_certificate_matches_rejects_wrong_kind():
    odd = classify_isotropic_plane(
        None, Matrix([[1, 0, 0, 0, 1, 1], [0, 1, -1, -1, 0, 0]])
    )
    assert odd.kind == ODD_PLANE
    assert not certificate_matches(IsotropicClass(EVEN_PLANE, odd.certificate))


def _random_unimodular(rng, bound):
    """A 2 x 2 integer matrix of det 1 with entries up to ``bound``."""
    while True:
        a, b = rng.randint(1, bound), rng.randint(1, bound)
        if gcd(a, b) == 1:
            break
    # extended Euclid: a*x + b*y = 1, with |x| <= b and |y| <= a
    old_r, r, x, next_x, y, next_y = a, b, 1, 0, 0, 1
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        x, next_x = next_x, x - k * next_x
        y, next_y = next_y, y - k * next_y
    return Matrix([[a, -y], [b, x]])


def test_skewed_plane_certificates_match_their_model_only():
    """Certificates U^T M U with entries in the thousands, as the plane
    scan produces, against both plane models; Gauss reduction is the
    independent oracle."""
    rng = random.Random(8)
    models = {kind: boundary_models()[kind] for kind in (EVEN_PLANE, ODD_PLANE)}
    for kind, model in models.items():
        for _ in range(10):
            u = _random_unimodular(rng, 50)
            cert = u.transpose() * model.gram * u
            assert certificate_matches(IsotropicClass(kind, cert))
            for other, reference in models.items():
                same = gauss_reduce_binary(cert) == gauss_reduce_binary(reference.gram)
                assert same == (other == kind)
                assert bool(is_isometric_small(Lattice(cert), reference)) == same


PINNED_CERTIFICATES = "5caacb73b468aff6d7e6fadd1aa2490a40da4ab35921097825b8d13007312d06"


def test_certificates_pinned():
    """SHA-256 of the kind and certificate Gram of 40 seeded height-3
    vectors and of the saturations of 40 seeded orthogonal pairs: the
    certificates are completed from snf's v, so any changed byte fails."""
    rng = random.Random(29)
    vectors = enumerate_isotropic_vectors(height=3)
    gram = (2, 2, -1, -1, -1, -1)
    h = hashlib.sha256()
    classes = [classify_isotropic_vector(None, v) for v in rng.sample(vectors, 40)]
    for _ in range(40):
        r = rng.choice(vectors)
        s = rng.choice([s for s in vectors if s != r
                        and sum(g * x * y for g, x, y in zip(gram, r, s)) == 0])
        plane = saturation(Sublattice(transcendental_slice(), [list(r), list(s)]))
        classes.append(classify_isotropic_plane(None, plane.basis))
    for cls in classes:
        h.update(json.dumps([cls.kind, cls.certificate.to_json()]).encode())
    assert h.hexdigest() == PINNED_CERTIFICATES
