"""Documented input errors: each raises its own class, a LatconfError,
so the CLI reports it as one JSON error document of that kind."""

from fractions import Fraction

import pytest

from latconf import f2space
from latconf.configs import ConfigMatrix, act_wreath, s4_to_wreath
from latconf.errors import (
    DimensionError,
    InvalidName,
    LabelError,
    LatconfError,
    NonIntegralLattice,
    NotIsotropic,
)
from latconf.finite_forms import FiniteForm, finite_form_isometric
from latconf.isotropic import classify_isotropic_plane, classify_isotropic_vector
from latconf.lattices import (
    Dpq,
    Lattice,
    Sublattice,
    Zpq,
    gamma_member,
    gauss_reduce_binary,
    hyperbolic,
    is_isometry,
    orthogonal_complement,
    parse_lattice_name,
)
from latconf.matrices import Matrix, hnf

SIX_LINES = [[1, 0, 0, 1, 1, 1], [0, 1, 0, 1, 2, 3], [0, 0, 1, 1, 3, 5]]
SEVEN_LINES = [row + [1] for row in SIX_LINES]
RELABELLED = ConfigMatrix(SIX_LINES).permute_columns([2, 3, 0, 1, 4, 5])
HALF = FiniteForm([2], [[Fraction(1, 2)]])
PLANE = [[1, 0, 1, -1, 0, 0], [0, 1, -1, -1, 0, 0]]  # an isotropic plane of L

# id: (the call, the class and the message it raises)
CASES = {
    "non-symmetric Gram": (
        lambda: Lattice([[1, 2], [3, 4]]),
        DimensionError, "Gram matrix must be symmetric"),
    "rescale by 0": (
        lambda: Zpq(2, 0).rescale(0),
        DimensionError, "rescale factor must be nonzero"),
    "Zpq(-1, 2)": (
        lambda: Zpq(-1, 2),
        InvalidName, "Zpq requires p,q >= 0, p+q > 0"),
    "Dpq(1, 0)": (
        lambda: Dpq(1, 0),
        InvalidName, "Dpq requires p+q >= 2"),
    "empty name": (
        lambda: parse_lattice_name(""),
        InvalidName, "empty lattice name"),
    "non-integral basis": (
        lambda: Sublattice(Zpq(2, 0), [[Fraction(1, 2), 0]]),
        DimensionError, "sublattice basis must be integral"),
    "rank-deficient basis": (
        lambda: Sublattice(Zpq(2, 0), [[1, 1], [2, 2]]),
        DimensionError, "sublattice basis must have full row rank"),
    "complement in H(1/2)": (
        lambda: orthogonal_complement(Sublattice(hyperbolic(Fraction(1, 2)), [[1, 0]])),
        NonIntegralLattice, "orthogonal complement requires integral ambient"),
    "3x3 Gauss reduction": (
        lambda: gauss_reduce_binary(Matrix.identity(3)),
        DimensionError, "gauss_reduce_binary requires a symmetric 2x2 matrix"),
    "indefinite Gauss reduction": (
        lambda: gauss_reduce_binary(Matrix([[1, 0], [0, -1]])),
        DimensionError, "binary form must be definite"),
    "isometry of the wrong size": (
        lambda: is_isometry(Zpq(2, 0), Matrix.identity(3)),
        DimensionError, "isometry candidate has wrong size"),
    "non-integral gamma member": (
        lambda: gamma_member(Matrix([[Fraction(1, 2), 0], [0, 2]])),
        DimensionError, "gamma_member requires an integral 2x2 matrix"),
    "plane with 3 rows": (
        lambda: classify_isotropic_plane(None, [PLANE[0]] * 3),
        DimensionError, "plane basis must be 2 x n"),
    "plane of rank 1": (
        lambda: classify_isotropic_plane(None, [PLANE[0], [2 * x for x in PLANE[0]]]),
        DimensionError, "plane basis must have rank 2"),
    "plane not isotropic": (
        lambda: classify_isotropic_plane(None, [[1, 0, 0, 0, 0, 0], PLANE[1]]),
        NotIsotropic, "plane is not totally isotropic"),
    "plane with a non-numeric coordinate": (
        lambda: classify_isotropic_plane(None, [["a", 0, 0, 0, 0, 0], PLANE[1]]),
        DimensionError, "vector coordinates must be integers"),
    "plane with a None coordinate": (
        lambda: classify_isotropic_plane(None, [[None, 0, 0, 0, 0, 0], PLANE[1]]),
        DimensionError, "vector coordinates must be integers"),
    "plane with an infinite coordinate": (
        lambda: classify_isotropic_plane(None, [[float("inf"), 0, 0, 0, 0, 0], PLANE[1]]),
        DimensionError, "vector coordinates must be integers"),
    "plane with a row that is not iterable": (
        lambda: classify_isotropic_plane(None, [5, 6]),
        DimensionError, "vector coordinates must be integers"),
    "plane basis None": (
        lambda: classify_isotropic_plane(None, None),
        DimensionError, "plane basis must be 2 x n"),
    "plane basis 5": (
        lambda: classify_isotropic_plane(None, 5),
        DimensionError, "plane basis must be 2 x n"),
    "vector 5": (
        lambda: classify_isotropic_vector(None, 5),
        DimensionError, "vector coordinates must be integers"),
    "vector None": (
        lambda: classify_isotropic_vector(None, None),
        DimensionError, "vector coordinates must be integers"),
    "vector of length 5": (
        lambda: classify_isotropic_vector(None, [1, 0, 1, 1, 0]),
        DimensionError, "vector length mismatch"),
    "order 1": (
        lambda: FiniteForm([1], [[0]]),
        DimensionError, "generator orders must be > 1"),
    "quadratic vector length": (
        lambda: FiniteForm([2], [[Fraction(1, 2)]], [Fraction(1, 2), 0]),
        DimensionError, "quadratic vector size mismatch"),
    "quadratic compare without refinement": (
        lambda: finite_form_isometric(HALF, HALF, "quadratic"),
        DimensionError, "quadratic comparison requires quadratic refinements"),
    "label count": (
        lambda: ConfigMatrix(SIX_LINES, (0, 0, 1, 1, 2)),
        LabelError, "one label per column required"),
    "seven-line labels": (
        lambda: ConfigMatrix(SEVEN_LINES, (1, 2, 3, 4, 5, 6, 6)),
        LabelError, "seven-line labels must be the characters 1..7"),
    "wreath on relabelled columns": (
        lambda: act_wreath(((0, 0, 0), (0, 1, 2)), RELABELLED),
        LabelError, "wreath action expects standard pair-slot order"),
    "s4_to_wreath((1, 1, 2, 3))": (
        lambda: s4_to_wreath((1, 1, 2, 3)),
        LabelError, "expected a permutation of (1,2,3,4)"),
    "support of length 6": (
        lambda: f2space.support((1, 0, 1, 0, 1, 0)),
        DimensionError, "vectors have length 7"),
    "ragged Matrix": (
        lambda: Matrix([[1, 2], [3]]),
        DimensionError, "ragged rows"),
    "ragged from_columns": (
        lambda: Matrix.from_columns([[1, 2], [3]]),
        DimensionError, "ragged rows"),
    "shape mismatch in +": (
        lambda: Matrix.identity(2) + Matrix.identity(3),
        DimensionError, "shape mismatch"),
    "non-square det": (
        lambda: Matrix([[1, 2]]).det(),
        DimensionError, "det requires a square matrix"),
    "non-square inverse": (
        lambda: Matrix([[1, 2]]).inverse(),
        DimensionError, "inverse requires a square matrix"),
    "non-integral hnf": (
        lambda: hnf(Matrix([[Fraction(1, 2)]])),
        DimensionError, "hnf requires an integer matrix"),
}


@pytest.mark.parametrize("case", CASES)
def test_documented_input_errors(case):
    call, cls, message = CASES[case]
    with pytest.raises(LatconfError) as info:
        call()
    assert (type(info.value), str(info.value)) == (cls, message)
