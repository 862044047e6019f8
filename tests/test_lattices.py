"""Quadratic lattices: invariants, complements, gluing, isometries."""

import random
from fractions import Fraction

import pytest

from latconf.errors import (
    DegenerateGram,
    DimensionError,
    IntegralityViolation,
    InvalidName,
    NonIntegralLattice,
)
from latconf.lattices import (
    MAX_NAME_RANK,
    Dn,
    Dpq,
    E8,
    E10,
    IndexFormulaInput,
    Lattice,
    Sublattice,
    Zpq,
    definite_isometries,
    enumerate_integral_overlattices,
    gamma_member,
    gauss_reduce_binary,
    hyperbolic,
    index_exponent,
    is_isometric_small,
    is_isometry,
    is_primitive,
    orthogonal_complement,
    overlattice_from_isotropic,
    parse_lattice_name,
    saturation,
    short_vectors,
    sublattice_index,
    transcendental_slice,
)
from latconf.matrices import Matrix


def test_named_lattices():
    assert transcendental_slice().gram == Matrix.diagonal(
        [2, 2, -1, -1, -1, -1]
    )
    assert hyperbolic().gram == Matrix([[0, 1], [1, 0]])
    assert E8().signature() == (8, 0)
    assert E8().is_unimodular() and E8().parity() == "even"
    assert E10().signature() == (9, 1) and E10().is_unimodular()
    assert Dn(6).det() == 4
    assert Zpq(2, 4).signature() == (2, 4)
    assert Dpq(2, 4).parity() == "even"
    assert Zpq(2, 4).parity() == "odd"


def test_parse_lattice_name():
    assert parse_lattice_name("D6").gram == Dn(6).gram
    assert parse_lattice_name("H(1/2)").gram == Matrix(
        [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]
    )
    combo = parse_lattice_name("Z(1,1)+D(2,0)*-2")
    assert combo.n == 4
    assert parse_lattice_name("L").gram == transcendental_slice().gram


def test_parse_lattice_name_rank_bound():
    # the bound is on the summed rank of the atoms, rescaling included
    assert parse_lattice_name("E10*2+D(30,24)").n == MAX_NAME_RANK == 64
    for name in ("D65", "E10*2+D(30,25)", "D(-1,3)", "Z(2,-1)"):
        with pytest.raises(InvalidName):
            parse_lattice_name(name)


def test_parity_requires_integral():
    with pytest.raises(NonIntegralLattice):
        hyperbolic(Fraction(1, 2)).parity()


def test_disc_group_order_is_abs_det():
    rng = random.Random(4)
    for _ in range(20):
        while True:
            m = Matrix([[rng.randint(-3, 3) for _ in range(3)]
                        for _ in range(3)])
            g = m * m.transpose() + Matrix.identity(3).scale(
                rng.randint(1, 4)
            )
            if g.det() != 0:
                break
        l = Lattice(g)
        form = l.discriminant_form()
        assert form.group_order() == abs(l.det())


def test_saturation_and_index():
    amb = Zpq(6, 0)
    rows = Matrix([
        [1, 1, 0, 0, 0, 0], [1, -1, 0, 0, 0, 0], [0, 1, -1, 0, 0, 0],
        [0, 0, 1, -1, 0, 0], [0, 0, 0, 1, -1, 0], [0, 0, 0, 0, 1, -1],
    ])
    sub = Sublattice(amb, rows)
    sat = saturation(sub)
    assert sat.basis == Matrix.identity(6)
    assert sublattice_index(sub, sat) == 2
    assert not is_primitive(sub)
    assert is_primitive(sat)


def test_orthogonal_complement_pairing_vanishes():
    amb = Zpq(2, 2).direct_sum(E8().rescale(-1))
    basis = Matrix([[1 if j == 4 + i else 0 for j in range(12)]
                    for i in (1, 2, 3, 4, 5, 6)])
    sub = Sublattice(amb, basis)
    comp = orthogonal_complement(sub)
    assert (sub.basis * amb.gram * comp.basis.transpose()).is_zero()
    assert comp.rank == 6
    assert is_primitive(comp)


def test_glue_discriminant_drops_by_index_squared():
    l = transcendental_slice().rescale(2)
    form = l.discriminant_form()
    # any single bilinear-isotropic element of order 2
    gen = next(
        g for g in form.elements()
        if g != form.zero() and form.element_order(g) == 2
        and form.b(g, g) == 0
    )
    glue = overlattice_from_isotropic(l, [gen], check_quadratic=False)
    assert abs(glue.lattice.det()) == abs(l.det()) // glue.index ** 2


def test_glue_rejects_non_isotropic():
    l = transcendental_slice()
    form = l.discriminant_form()
    bad = next(
        g for g in form.elements()
        if g != form.zero() and form.b(g, g) != 0
    )
    with pytest.raises(IntegralityViolation):
        overlattice_from_isotropic(l, [bad])


def test_overlattice_enumeration_of_reference_lattice():
    infos = enumerate_integral_overlattices(transcendental_slice())
    assert infos[0].index == 1
    unimodular = [i for i in infos if i.unimodular and i.index > 1]
    # exactly one index-2 odd unimodular overlattice
    assert len(unimodular) == 1
    assert unimodular[0].parity == "odd"
    assert unimodular[0].index == 2


@pytest.mark.parametrize("name", ["D4", "H(4)", "D4*2"])
def test_overlattice_enumeration_matches_single_glues(name):
    # the enumeration glues each isotropic subgroup in one pass; it must
    # agree with gluing that subgroup alone through the public entry point
    l = parse_lattice_name(name)
    form = l.discriminant_form()
    expected = []
    for sub in form.all_subgroups():
        gens = sorted(sub)
        if form.is_isotropic_subgroup(gens, use_quadratic=False)[0]:
            glue = overlattice_from_isotropic(l, gens, check_quadratic=False)
            expected.append((glue.index, tuple(gens), glue.lattice))
    expected.sort(key=lambda e: e[:2])
    infos = enumerate_integral_overlattices(l)
    assert [(i.index, i.subgroup, i.lattice) for i in infos] == expected
    assert len(expected) > 1


def test_gauss_reduce_idempotent_and_canonical():
    g = gauss_reduce_binary(Matrix([[4, 2], [2, 4]]).scale(-1))
    assert gauss_reduce_binary(g) == g
    a, b, c = -g.entry(0, 0), -g.entry(0, 1), -g.entry(1, 1)
    assert 0 <= 2 * b <= a <= c


def test_is_isometric_small_cases():
    z2m1 = Zpq(0, 2)
    z2m2 = Zpq(2, 0).rescale(-2)
    assert not bool(is_isometric_small(z2m1, z2m2))
    odd = Zpq(1, 1).direct_sum(z2m2)
    even = hyperbolic().direct_sum(z2m2)
    assert not bool(is_isometric_small(odd, even))
    dec = is_isometric_small(Dn(6), Dn(6))
    assert bool(dec)
    # Z^2(-2) and D4 embed with index 2 in Z^2(-1) and Z^4, in both orders
    assert not is_isometric_small(z2m2, z2m1)
    assert not is_isometric_small(Dn(4), Zpq(4, 0))
    assert not is_isometric_small(Zpq(4, 0), Dn(4))


def test_definite_isometries_z2():
    z2 = Zpq(2, 0)
    autos = list(definite_isometries(z2, z2))
    assert len(autos) == 8  # the symmetries of the square
    for g in autos:
        assert is_isometry(z2, g)


def test_definite_isometries_skip_embeddings():
    """Maps between lattices of different |det| are embeddings, not
    isometries: Z^2(2) and D4 embed in Z^2 and Z^4 with index 2."""
    for a, b in ((Zpq(2, 0).rescale(2), Zpq(2, 0)), (Dn(4), Zpq(4, 0))):
        assert not list(definite_isometries(a, b))


def test_signature_with_zero_pivots():
    assert Lattice([[0, 1], [1, 2]]).signature() == (1, 1)  # swaps a pivot in
    assert Lattice([[0, 1], [1, 0]]).signature() == (1, 1)  # adds a row to it
    assert Lattice([[0, 0, 1], [0, -2, 0], [1, 0, 0]]).signature() == (1, 2)
    with pytest.raises(DegenerateGram):
        Lattice([[0, 1, 0], [1, 0, 0], [0, 0, 0]]).signature()


def test_short_vectors():
    assert sorted(short_vectors(Zpq(2, 0).gram, 1)) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert len(short_vectors(Dn(4).gram, 2)) == 24


@pytest.mark.parametrize(
    "gram",
    [
        [[1, 0], [0, -1]],  # indefinite
        [[0, 1], [1, 0]],  # indefinite with a zero pivot
        [[-2]],  # negative definite
        [[1, 1], [1, 1]],  # degenerate, positive semidefinite
        [[0, 0], [0, 0]],  # degenerate
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],  # degenerate and indefinite
    ],
)
def test_short_vectors_rejects_non_positive_definite(gram):
    with pytest.raises(DimensionError) as info:
        short_vectors(Matrix(gram), 2)
    assert type(info.value) is DimensionError


def test_is_isometry_identity():
    for l in (Dn(6), transcendental_slice(), E8()):
        assert is_isometry(l, Matrix.identity(l.n))
        assert is_isometry(l, Matrix.identity(l.n).scale(-1))


def _gl2_samples(rng, count):
    gens = [Matrix([[1, 1], [0, 1]]), Matrix([[0, 1], [1, 0]]),
            Matrix([[1, 0], [1, 1]]), Matrix([[-1, 0], [0, 1]])]
    out = []
    for _ in range(count):
        g = Matrix.identity(2)
        for _ in range(rng.randint(1, 6)):
            g = g * rng.choice(gens)
        out.append(g)
    return out


def test_gamma_membership_basic():
    assert gamma_member(Matrix.identity(2))
    assert gamma_member(Matrix([[0, 1], [1, 0]]))
    assert not gamma_member(Matrix([[1, 1], [0, 1]]))
    assert not gamma_member(Matrix([[1, 0], [0, 2]]))  # determinant 2


def test_conjugation_lemma():
    # X = M Y M / 2 is integral exactly for Y in the congruence
    # subgroup, and then lies in it as well
    m = Matrix([[1, 1], [1, -1]])
    rng = random.Random(11)
    seen_in = seen_out = 0
    for y in _gl2_samples(rng, 60):
        x = (m * y * m).scale(Fraction(1, 2))
        if gamma_member(y):
            assert x.is_integral()
            assert gamma_member(x)
            seen_in += 1
        else:
            assert not x.is_integral()
            seen_out += 1
    assert seen_in > 0 and seen_out > 0


def _odd_plane_gram():
    # basis (e1+f1, e2+f2, g1, g2, e1, e2) of Z^{2,2} + Z^2(-2)
    return Matrix([
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, -2, 0, 0, 0],
        [0, 0, 0, -2, 0, 0],
        [1, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 0, 1],
    ])


def test_plane_stabilizer_block_isometry():
    l = Lattice(_odd_plane_gram())
    rng = random.Random(13)
    tested = 0
    for h in _gl2_samples(rng, 40):
        if not gamma_member(h):
            continue
        hdag = h.inverse().transpose()
        two_n = Matrix.identity(2) - hdag.transpose() * hdag
        n = two_n.scale(Fraction(1, 2))
        assert n.is_integral()
        b = h * n
        rows = []
        for i in range(2):
            rows.append(list(h.data[i]) + [0, 0] + list(b.data[i]))
        for i in range(2):
            rows.append([0, 0] + [1 if j == i else 0 for j in range(2)]
                        + [0, 0])
        for i in range(2):
            rows.append([0, 0, 0, 0] + list(hdag.data[i]))
        g = Matrix(rows)
        assert is_isometry(l, g)
        tested += 1
    assert tested > 0


def test_index_exponent():
    assert index_exponent(IndexFormulaInput(0, 2, 7, False)) == 5
    assert index_exponent(IndexFormulaInput(3, 3, 1, True)) == 0
    with pytest.raises(DimensionError):
        IndexFormulaInput(-1, 0, 0, False)


def test_lattice_json_round_trip():
    l = Dn(6)
    assert Lattice.from_json(l.to_json()).gram == l.gram
