"""Isotropic vector and plane classification in the reference lattice."""

from fractions import Fraction

import pytest

from latconf.errors import DimensionError, NotIsotropic, NotPrimitive
from latconf.isotropic import (
    EVEN_PLANE,
    EVEN_VECTOR,
    ODD_PLANE,
    ODD_TYPE1_VECTOR,
    ODD_TYPE2_VECTOR,
    boundary_models,
    certificate_matches,
    classify_isotropic_plane,
    classify_isotropic_vector,
    enumerate_isotropic_vectors,
    fast_vector_kind,
    isotropic_vector_census,
    scan_isotropic_planes,
)
from latconf.lattices import Zpq, is_isometric_small, transcendental_slice
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
    with pytest.raises(NotPrimitive):
        classify_isotropic_vector(None, (2, 2, 4, 0, 0, 0))
    with pytest.raises(NotIsotropic):
        classify_isotropic_vector(None, (0, 0, 0, 0, 0, 0))
    # non-integral coordinates are rejected, not truncated
    for v in ((1.5, 0, 1, 1, 0, 0), (Fraction(3, 2), 0, 1, 1, 0, 0)):
        with pytest.raises(DimensionError):
            classify_isotropic_vector(None, v)


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
    # v, w = r + s, r - s span their plane with index 2, so the scan
    # must saturate; on the odd pair the pair-parity rule says even
    scan = scan_isotropic_planes(vectors=[v, w])
    assert scan.census == {kind: 1}
    assert classify_isotropic_plane(None, scan.representatives[kind]).kind == kind


def test_boundary_models_pairwise_distinct():
    models = boundary_models()
    kinds = sorted(models)
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            if models[a].n != models[b].n:
                continue
            assert not bool(is_isometric_small(models[a], models[b])), (a, b)
