"""Quadratic lattices: invariants, complements, gluing, isometries."""

import hashlib
import json
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import floor, gcd, isqrt

import pytest

from latconf import finite_forms, lattices
from latconf.errors import (
    DegenerateGram,
    DimensionError,
    GroupTooLarge,
    IntegralityViolation,
    InvalidName,
    NonIntegralLattice,
)
from latconf.finite_forms import finite_form_automorphisms, finite_form_isometric
from latconf.lattices import (
    MAX_NAME_RANK,
    Dn,
    Dpq,
    E8,
    E10,
    Lattice,
    OverlatticeInfo,
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
    same_invariants,
    saturation,
    short_vectors,
    sublattice_index,
    transcendental_slice,
)
from latconf.matrices import Matrix, hnf, snf


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
    start = time.perf_counter()
    assert parse_lattice_name("E10*2+D(30,24)").n == MAX_NAME_RANK == 64
    assert time.perf_counter() - start < 0.1
    for name in ("D65", "E10*2+D(30,25)", "D(-1,3)", "Z(2,-1)"):
        with pytest.raises(InvalidName):
            parse_lattice_name(name)


def test_dpq_gram_matches_basis_product():
    for n in range(2, 13):
        rows = [[1, 1] + [0] * (n - 2)]
        rows += [[0] * i + [1, -1] + [0] * (n - 2 - i) for i in range(n - 1)]
        basis = Matrix(rows)
        for p in range(n + 1):
            diag = Matrix.diagonal([1] * p + [-1] * (n - p))
            assert Dpq(p, n - p).gram == basis * diag * basis.transpose()


def test_overlattices_past_the_subgroup_bound_raise():
    start = time.perf_counter()
    with pytest.raises(GroupTooLarge):
        enumerate_integral_overlattices(parse_lattice_name("E8*2"))
    assert time.perf_counter() - start < 2


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


def _snf_disc_element(l, vector):
    """Oracle: the coefficients x·u⁻¹·d through the Smith decomposition
    d = u·G·v, each reduced modulo its elementary divisor."""
    d, u, _ = snf(l.gram)
    y = Matrix([list(vector)]) * u.inverse() * d
    if not y.is_integral():
        raise DimensionError("vector is not in the dual lattice")
    divisors = [int(d.entry(i, i)) for i in range(l.n)]
    return tuple(int(y.entry(0, i)) % di for i, di in enumerate(divisors) if di > 1)


@pytest.mark.parametrize("name", ["L*2", "D4", "H(4)", "D4*2", "H(2)+E10*-1"])
def test_disc_element_against_snf_inverse_route(name):
    """Seeded dual vectors y·G⁻¹ get the coefficients of the u⁻¹ route;
    a vector outside the dual raises DimensionError on both routes."""
    rng = random.Random(name)
    l = parse_lattice_name(name)
    ginv = l.gram.inverse()
    for _ in range(40):
        v = (Matrix([[rng.randint(-9, 9) for _ in range(l.n)]]) * ginv).data[0]
        assert l.disc_element(v) == _snf_disc_element(l, v), v
    outside = [Fraction(1, 101)] + [0] * (l.n - 1)
    for route in (l.disc_element, lambda v: _snf_disc_element(l, v)):
        with pytest.raises(DimensionError, match="not in the dual lattice"):
            route(outside)


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


@pytest.mark.parametrize("sub, sup, message", [
    (Sublattice(Zpq(2, 1), [[2, 0, 0]]), Sublattice(Zpq(3, 0), [[1, 0, 0]]),
     "different ambients"),
    (Sublattice(Zpq(3, 0), [[2, 0, 0]]), Sublattice(Zpq(3, 0), [[1, 0, 0], [0, 1, 0]]),
     "equal ranks"),
    (Sublattice(Zpq(3, 0), [[1, 0, 1]]), Sublattice(Zpq(3, 0), [[1, 0, 0]]),
     "not contained in the span"),
    (Sublattice(Zpq(3, 0), [[1, 1, 0]]), Sublattice(Zpq(3, 0), [[2, 2, 0]]),
     "not a subgroup"),
])
def test_sublattice_index_errors(sub, sup, message):
    with pytest.raises(DimensionError, match=message):
        sublattice_index(sub, sup)


def _snf_saturation(s):
    """Oracle: the saturation through the Smith decomposition u*B*v = d.
    The Q-row-span of B meets Z^n in the span of the first k rows of
    v^{-1}, put in Hermite normal form."""
    _, _, v = snf(s.basis)
    rows = v.inverse().num[: s.rank]
    return hnf(Matrix.from_integers(rows)) if rows else s.basis


def test_saturation_against_snf_route():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        scales = [rng.choice((1, 2, 3)) for _ in range(k)]
        basis = Matrix.from_integers(
            [[c * rng.randint(-3, 3) for _ in range(n)] for c in scales], 1, n
        )
        if basis.rank() != k:
            continue
        sub = Sublattice(Zpq(n, 0), basis)
        assert saturation(sub).basis == _snf_saturation(sub), basis


def test_is_primitive_against_saturation_index():
    """The primitivity test agrees with the index of each seeded basis in
    its saturation and with its elementary divisors, rows scaled by 2 and
    by 3 included."""
    rng = random.Random(12)
    amb = Zpq(6, 0)
    seen = set()
    for _ in range(200):
        rows = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(rng.randint(1, 3))]
        rows[0] = [rng.choice((1, 2, 3)) * x for x in rows[0]]
        if not any(rows[0]) or Matrix(rows).rank() != len(rows):
            continue
        sub = Sublattice(amb, rows)
        primitive = sublattice_index(sub, saturation(sub)) == 1
        d = snf(sub.basis)[0]
        assert primitive == all(d.entry(i, i) == 1 for i in range(sub.rank)), rows
        assert is_primitive(sub) == primitive, rows
        seen.add(primitive)
    assert seen == {True, False}


def test_orthogonal_complement_pairing_vanishes():
    amb = Zpq(2, 2).direct_sum(E8().rescale(-1))
    basis = Matrix([[1 if j == 4 + i else 0 for j in range(12)]
                    for i in (1, 2, 3, 4, 5, 6)])
    sub = Sublattice(amb, basis)
    comp = orthogonal_complement(sub)
    assert (sub.basis * amb.gram * comp.basis.transpose()).is_zero()
    assert comp.rank == 6
    assert is_primitive(comp)


def _fraction_complement(s):
    """Oracle: the complement through the Fraction kernel of the pairing,
    its rows scaled to primitive integer rows and then saturated."""
    kernel = (s.basis * s.ambient.gram).kernel_basis()
    if not kernel.rows:
        return Matrix.zeros(0, s.ambient.n)
    rows = [[x // gcd(*row) for x in row] for row in kernel.num]
    return _snf_saturation(Sublattice(s.ambient, rows))


def test_orthogonal_complement_against_fraction_route():
    rng = random.Random(23)
    # (2, 1, 1) pairs to an echelon kernel of index 2 in its saturation
    cases = [Sublattice(Zpq(3, 0), [[2, 1, 1]])]
    while len(cases) < 160:
        n = rng.randint(2, 5)
        half = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        amb = Lattice(half + half.transpose())
        rows = [[rng.choice((1, 2, 3)) * rng.randint(-3, 3) for _ in range(n)]
                for _ in range(rng.randint(1, n))]
        if amb.det() != 0 and Matrix(rows).rank() == len(rows):
            cases.append(Sublattice(amb, rows))
    for sub in cases:
        comp = orthogonal_complement(sub)
        assert comp.basis == _fraction_complement(sub)
        assert comp.rank == sub.ambient.n - sub.rank
    assert orthogonal_complement(cases[0]).basis == Matrix([[1, 0, -2], [0, 1, -1]])


def _maximal_minors_gcd(m):
    return gcd(*(int(m.submatrix(range(m.rows), cols).det())
                 for cols in combinations(range(m.cols), m.rows)))


def test_complements_with_large_entries_are_fast_and_primitive():
    """Seeded complements in ranks up to 9 with entries up to 30, whose
    Smith-form saturation ran for seconds to minutes: each is orthogonal
    to the basis, has rank n - rank(B*G) and is primitive (its maximal
    minors have gcd 1)."""
    rng = random.Random(47)
    cases = []
    while len(cases) < 30:
        n = rng.randint(4, 9)
        half = [[rng.randint(-15, 15) for _ in range(n)] for _ in range(n)]
        amb = Lattice([[half[i][j] + half[j][i] for j in range(n)] for i in range(n)])
        basis = Matrix([[rng.randint(-30, 30) for _ in range(n)]
                        for _ in range(rng.randint(1, n - 1))])
        if amb.det() != 0 and basis.rank() == basis.rows:
            cases.append(Sublattice(amb, basis))
    start = time.perf_counter()
    comps = [orthogonal_complement(sub) for sub in cases]
    assert time.perf_counter() - start < 2
    for sub, comp in zip(cases, comps):
        gram = sub.ambient.gram
        assert (sub.basis * gram * comp.basis.transpose()).is_zero()
        assert comp.rank == sub.ambient.n - (sub.basis * gram).rank()
        assert _maximal_minors_gcd(comp.basis) == 1


def test_complements_of_full_and_zero_rank_sublattices():
    amb = Zpq(1, 1)
    comp = orthogonal_complement(Sublattice(amb, [[1, 0], [0, 1]]))
    assert (comp.rank, comp.basis.cols) == (0, 2)
    assert comp.as_lattice().n == 0
    zero = Sublattice(amb, Matrix.zeros(0, 2))
    assert saturation(zero).basis == zero.basis
    assert orthogonal_complement(zero).basis == Matrix.identity(2)


def test_saturations_and_complements_pass_the_checked_constructor():
    """``saturation`` and ``orthogonal_complement`` build their HNF kernels
    without ``Sublattice``'s checks; each result passes them unchanged,
    zero-rank and full-rank results included."""
    rng = random.Random(32)
    cases = [Sublattice(Zpq(1, 1), [[1, 0], [0, 1]]), Sublattice(Zpq(1, 1), Matrix.zeros(0, 2))]
    while len(cases) < 60:
        n = rng.randint(1, 5)
        half = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        amb = Lattice([[half[i][j] + half[j][i] for j in range(n)] for i in range(n)])
        basis = Matrix.from_integers(
            [[rng.choice((1, 2, 3)) * rng.randint(-3, 3) for _ in range(n)]
             for _ in range(rng.randint(0, n))], 1, n)
        if amb.det() != 0 and basis.rank() == basis.rows:
            cases.append(Sublattice(amb, basis))
    for sub in cases:
        for result in (saturation(sub), orthogonal_complement(sub)):
            checked = Sublattice(result.ambient, result.basis)
            assert (checked.ambient, checked.basis) == (sub.ambient, result.basis)
            with pytest.raises(AttributeError):
                result.basis = sub.basis


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


def _overlattices_by_filter(l):
    """Oracle: every subgroup of the discriminant group, kept when it is
    isotropic and glued alone through the public entry point."""
    form = l.discriminant_form()
    infos = []
    for sub in form.all_subgroups():
        gens = sorted(sub)
        if form.is_isotropic_subgroup(gens, use_quadratic=False)[0]:
            glue = overlattice_from_isotropic(l, gens, check_quadratic=False)
            infos.append(OverlatticeInfo(tuple(gens), glue.index, glue.lattice,
                                         glue.lattice.parity(), glue.lattice.is_unimodular()))
    return infos


CATALOGUE = ("D4", "D4+D4", "H(2)+H(2)", "Z(0,4)*2", "D6+D6", "H(2)+E10*-1",
             "D(2,4)", "H(4)", "H(2)+D4*-1", "D4*2")


@pytest.mark.parametrize("name", CATALOGUE)
def test_overlattice_enumeration_matches_single_glues(name):
    # the enumeration walks the isotropic subgroups only; it must agree,
    # in order, with filtering every subgroup and gluing each survivor
    l = parse_lattice_name(name)
    expected = _overlattices_by_filter(l)
    assert enumerate_integral_overlattices(l) == expected
    assert len(expected) > 1


def test_overlattice_enumeration_on_seeded_grams():
    """The filtered route as oracle on rescaled random Grams, definite
    and indefinite, with discriminant groups of order at most 64."""
    rng = random.Random(2606)
    tried = 0
    while tried < 12:
        n, k = rng.randint(2, 4), rng.choice((2, 3, 4))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = k * rng.randint(-2, 2)
        l = Lattice(Matrix(rows))
        if l.det() == 0 or abs(l.det()) > 64:
            continue
        expected = _overlattices_by_filter(l)
        assert enumerate_integral_overlattices(l) == expected
        tried += len(expected) > 1


@pytest.mark.parametrize("n, codes", [(6, 15), (8, 135)])
def test_unimodular_overlattices_of_scaled_cubic_lattices(n, codes):
    """Unimodular overlattices of Z^n(2) are the self-dual binary codes
    of length n, prod_{i=1}^{n/2-1} (2^i + 1) of them.  (Z/2)^8 has more
    subgroups than the walk's bound, but few enough isotropic ones."""
    l = parse_lattice_name(f"Z({n},0)*2")
    infos = enumerate_integral_overlattices(l)
    assert sum(i.unimodular for i in infos) == codes
    assert all(i.index == 2 ** (n // 2) for i in infos if i.unimodular)
    if n == 8:
        with pytest.raises(GroupTooLarge):
            l.discriminant_form().all_subgroups()


PINNED_CATALOGUE = "5edde0a522ea458d5614e8f6509e3321d75e960aef97c2453e828c2971c2f239"
PINNED_L2 = "cd02d05b2c1f16680407c2e97d59451d15d9fd5f7878ad68cecfb67addb2de85"


def _overlattices_digest(names):
    """SHA-256 of each lattice's discriminant form and every
    ``OverlatticeInfo`` (subgroup, index, parity, unimodular, Gram)."""
    h = hashlib.sha256()
    for name in names:
        l = parse_lattice_name(name)
        h.update(json.dumps(l.discriminant_form().to_json()).encode())
        for o in enumerate_integral_overlattices(l):
            h.update(json.dumps([o.subgroup, o.index, o.parity, o.unimodular,
                                 o.lattice.gram.to_json()]).encode())
    return h.hexdigest()


def test_catalogue_overlattices_pinned():
    """The ten catalogue lattices hash to the digest of the code that
    enumerated every subgroup and filtered by isotropy: any changed
    output byte fails."""
    assert _overlattices_digest(CATALOGUE) == PINNED_CATALOGUE


def test_l2_overlattices_pinned():
    """The 253 overlattices of L(2) hash to the digest of the filtered
    route, which took about 22 s for them on 2 vCPUs."""
    assert _overlattices_digest(["L*2"]) == PINNED_L2


@pytest.fixture
def derivations(monkeypatch):
    """Counts of the ``snf`` calls of ``lattices`` and of the element
    table builds of ``finite_forms``."""
    counts = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(lattices, "snf")
    count(finite_forms, "_element_tables")
    return counts


@pytest.mark.parametrize("name", CATALOGUE)
def test_one_decomposition_and_one_table_set_per_lattice(name, derivations):
    """The form, the overlattice walk and the automorphism search of one
    lattice share one Smith decomposition and one set of tables."""
    l = parse_lattice_name(name)
    form = l.discriminant_form()
    enumerate_integral_overlattices(l)
    assert sum(1 for _ in finite_form_automorphisms(l.discriminant_form())) > 0
    assert l.discriminant_form() is form
    assert derivations == {"snf": 1, "_element_tables": 1}


def test_disc_elements_share_the_decomposition(derivations):
    """The six L(2) dual vectors of the verify report and a search on the
    form read the one decomposition and the one table set."""
    l2 = transcendental_slice().rescale(2)
    quarters = [[Fraction(1, 4) if j == i else 0 for j in range(6)] for i in range(2)]
    halves = [[0, 0] + [Fraction(1, 2) if j == i else 0 for j in range(4)] for i in range(4)]
    coefficients = [l2.disc_element(v) for v in quarters + halves]
    lam = l2.discriminant_form()
    assert all(len(x) == lam.ngens for x in coefficients)
    assert finite_form_isometric(lam, l2.discriminant_form(), "bilinear") is not None
    assert derivations == {"snf": 1, "_element_tables": 1}


@pytest.mark.parametrize("gram, vector, error", [
    ([[2, 0], [0, 0]], [Fraction(1, 2), 0], DegenerateGram),
    ([[Fraction(1, 2), 0], [0, 1]], [1, 0], NonIntegralLattice),
])
def test_disc_element_raises_the_domain_errors(gram, vector, error):
    """A degenerate or non-integral Gram has no discriminant form, so no
    dual vector gets coefficients in one."""
    l = Lattice(gram)
    with pytest.raises(error):
        l.discriminant_form()
    with pytest.raises(error):
        l.disc_element(vector)


@pytest.mark.parametrize("name", ["D4*2", "H(2)+D4*-1", "H(4)", "L*2"])
def test_glue_gram_against_fraction_product(name):
    # the glued Gram is formed in integers; the Fraction product
    # B*G*B^T of the returned basis B is the oracle, and the index is
    # 1/|det B|
    l = parse_lattice_name(name)
    form = l.discriminant_form()
    rng = random.Random(name)
    els = form.elements()
    tried = 0
    for _ in range(200):
        gens = rng.sample(els, rng.randint(1, 3))
        if not form.is_isotropic_subgroup(gens, use_quadratic=False)[0]:
            continue
        glue = overlattice_from_isotropic(l, gens, check_quadratic=False)
        assert glue.lattice.gram == glue.basis * l.gram * glue.basis.transpose()
        assert glue.index == abs(1 / glue.basis.det()) == len(form.subgroup(gens))
        tried += 1
    assert tried > 3


def test_subgroup_order_agrees_with_listing():
    """The order read off one Hermite form in discriminant coordinates
    against the listed subgroup, on 52 seeded generator sets (isotropic
    or not) per catalogue form."""
    for name in CATALOGUE:
        form = parse_lattice_name(name).discriminant_form()
        rng = random.Random(name)
        els = form.elements()
        for _ in range(52):
            gens = rng.sample(els, rng.randint(0, 3))
            assert form.subgroup_order(gens) == len(form.subgroup(gens)), (name, gens)


@pytest.mark.parametrize("e", [16, 24, 40])
def test_glue_of_a_large_cyclic_subgroup_answers_fast(e):
    """Gluing [[n, 0], [0, -n]], n = 2^e, along (1, 1) lists none of the
    subgroup's n elements; at e = 16, where listing it still finishes,
    both orders agree."""
    n = 2**e
    l = Lattice([[n, 0], [0, -n]])
    start = time.perf_counter()
    glue = overlattice_from_isotropic(l, [(1, 1)])
    assert time.perf_counter() - start < 1
    assert glue.index == n
    assert glue.basis.to_json()["entries"] == [[f"1/{n}", f"{n - 1}/{n}"], ["0", "1"]]
    assert glue.lattice.gram.num == ((2 - n, 1 - n), (1 - n, -n))
    if e == 16:
        assert len(l.discriminant_form().subgroup([(1, 1)])) == n


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


def test_rank_zero_lattices_are_isometric():
    """The rank-0 lattice has one isometry onto itself, the empty one."""
    empty = Lattice([])
    assert list(definite_isometries(empty, empty)) == [Matrix.zeros(0, 0)]
    assert is_isometric_small(empty, empty)


def test_same_invariants_stops_at_the_first_difference():
    assert same_invariants(Zpq(1, 1), Zpq(2, 0)) == (False, "signature")
    assert same_invariants(Zpq(1, 1), hyperbolic()) == (False, "parity")
    assert same_invariants(Lattice([[2]]), Lattice([[4]])) == (False, "discriminant-form")
    assert same_invariants(Dn(4), Dn(4)) == (True, None)


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


# -- the integer routes against their Fraction routes ------------------


def _fraction_diagonalize(gram, taken=None):
    """Oracle: ``_diagonalize`` on the Fraction entries of ``gram``,
    appending ``(i, "swap")`` or ``(i, "add")`` to ``taken`` for each zero
    pivot replaced at step i."""
    n = gram.rows
    a = [list(row) for row in gram.data]
    lmat = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = []
    for i in range(n):
        if a[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if taken is not None:
                taken.append((i, "add" if swap is None else "swap"))
            if swap is not None:
                a[i], a[swap] = a[swap], a[i]
                for row in a:
                    row[i], row[swap] = row[swap], row[i]
            else:
                off = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if off is None:
                    raise DegenerateGram("degenerate Gram matrix")
                a[i] = [x + y for x, y in zip(a[i], a[off])]
                for row in a:
                    row[i] += row[off]
        pivot = a[i][i]
        d.append(pivot)
        for j in range(i + 1, n):
            lmat[i][j] = a[i][j] / pivot
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                a[j][k] -= a[i][j] * a[i][k] / pivot
    return d, lmat


def _fraction_short_vectors(gram, norm):
    """Oracle: ``short_vectors`` on the Fraction diagonalization, whose
    upward walk steps over a miss at floor(-center)."""
    n = gram.rows
    d, lmat = _fraction_diagonalize(gram)
    out = []
    x = [0] * n

    def rec(i, remaining):
        if i < 0:
            if remaining == 0:
                out.append(tuple(x))
            return
        center = sum(lmat[i][j] * x[j] for j in range(i + 1, n))
        base = -center
        start = base.numerator // base.denominator
        for direction in (1, -1):
            xi = start if direction == 1 else start - 1
            while True:
                val = d[i] * (xi + center) ** 2
                if val > remaining:
                    if direction == 1 and xi == start:
                        xi += 1
                        continue
                    break
                x[i] = xi
                rec(i - 1, remaining - val)
                xi += direction
        x[i] = 0

    rec(n - 1, Fraction(norm))
    return out


def _fraction_isometries(a, b):
    """Oracle: ``definite_isometries`` on Fraction entries, built through
    ``Matrix.from_columns``."""
    if a.n != b.n or abs(a.det()) != abs(b.det()):
        return
    ga, gb = a.gram, b.gram
    if ga.entry(0, 0) < 0 and gb.entry(0, 0) < 0:
        ga, gb = ga.scale(-1), gb.scale(-1)
    n = a.n
    cols = []

    def pair(u, v):
        return sum(u[i] * gb.entry(i, j) * v[j] for i in range(n) for j in range(n))

    def rec(k):
        if k == n:
            yield Matrix.from_columns(cols)
            return
        for v in _fraction_short_vectors(gb, ga.entry(k, k)):
            if all(pair(v, cols[j]) == ga.entry(k, j) for j in range(k)):
                cols.append(list(v))
                yield from rec(k + 1)
                cols.pop()

    yield from rec(0)


def _definite_gram(rng, n):
    """A positive definite integer Gram m·mᵀ + c·I with small entries,
    off-diagonal entries of both signs."""
    m = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
    return m * m.transpose() + Matrix.identity(n).scale(rng.randint(1, 3))


def _unimodular(rng, n):
    """A random unimodular matrix: a few elementary moves, a signed
    permutation."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    rng.shuffle(u)
    return Matrix(u).transpose() * Matrix.diagonal([rng.choice((-1, 1)) for _ in u])


def _brute_short_vectors(gram, norm):
    """Every x with xᵀ·gram·x = norm, in the box x_i² <= norm·(gram⁻¹)_ii."""
    inv = gram.inverse()
    bounds = [isqrt(floor(norm * inv.entry(i, i))) for i in range(gram.rows)]
    out = []
    for x in product(*(range(-b, b + 1) for b in bounds)):
        v = Matrix([x])
        if (v * gram * v.transpose()).entry(0, 0) == norm:
            out.append(x)
    return out


SKEWED_PAIR = (  # the second Gram is uᵀ·G·u for u below, det u = -1
    [[10, 6, 7], [6, 6, 4], [7, 4, 7]],
    [[5, -2, 0], [-2, 3, 1], [0, 1, 5]],
    [[0, 1, 1], [-1, 0, -1], [1, -1, -1]],
)


def test_short_vectors_against_brute_force():
    """On non-diagonal definite Grams, integral and with den > 1, the
    walk finds every vector of each norm once, also where floor(-center)
    misses and the integer above it hits."""
    assert (0, 1, -1) in short_vectors(Matrix([[4, 0, -1], [0, 3, 3], [-1, 3, 6]]), 3)
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(2, 4)
        gram = _definite_gram(rng, n).scale(Fraction(1, rng.randint(1, 3)))
        for _ in range(3):
            norm = (gram.entry(0, 0) + gram.entry(n - 1, n - 1)) * rng.randint(1, 3) // 2
            found = short_vectors(gram, norm)
            assert len(set(found)) == len(found)
            assert sorted(found) == sorted(_brute_short_vectors(gram, norm)), (gram, norm)


def test_definite_isometries_against_fraction_route():
    """Pairs B = uᵀ·A·u, rational and negative definite ones included,
    get the matrices of the Fraction route in its order; their count is
    even (g and -g) and u is among the isometries from B onto A."""
    rng = random.Random(62)
    pairs = [tuple(map(Matrix, SKEWED_PAIR))]
    for _ in range(30):
        n = rng.randint(2, 4)
        a = _definite_gram(rng, n).scale(Fraction(rng.choice((-1, 1)), rng.randint(1, 3)))
        u = _unimodular(rng, n)
        pairs.append((a, u.transpose() * a * u, u))
    for a, b, u in pairs:
        la, lb = Lattice(a), Lattice(b)
        for src, dst in ((lb, la), (la, lb)):
            found = list(definite_isometries(src, dst))
            assert found == list(_fraction_isometries(src, dst))
            assert len(found) % 2 == 0
            assert all(g.transpose() * dst.gram * g == src.gram for g in found)
        assert u in list(definite_isometries(lb, la))
    assert is_isometric_small(Lattice(SKEWED_PAIR[0]), Lattice(SKEWED_PAIR[1]))


def _zero_pivot_gram(rng, n):
    """uᵀ·B·u for B a block sum of scalars and blocks [[0, c], [c, 0]]
    and u upper unitriangular: u keeps the leading minors of B, which
    are zero where a prefix splits a block, so zero pivots come up after
    the first step."""
    b = [[0] * n for _ in range(n)]
    i = 0
    while i < n:
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        if i + 1 < n and rng.random() < 0.5:
            b[i][i + 1] = b[i + 1][i] = c
            i += 2
        else:
            b[i][i] = c
            i += 1
    u = [[int(i == j) if i >= j else rng.randint(-2, 2) for j in range(n)] for i in range(n)]
    return Matrix(u).transpose() * Matrix(b) * Matrix(u)


def test_signature_against_fraction_route():
    """Symmetric Grams with den > 1, zero diagonal entries included, get
    the signs of the Fraction diagonalization, or DegenerateGram alike,
    and pivots p_i with p_i / p_{i-1} = den·d_i.  The seeded Grams of
    ``_zero_pivot_gram`` take both zero-pivot branches after step 0,
    where the Bareiss division is by a pivot other than 1."""
    rng = random.Random(63)
    grams = []
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.choice((0, 0, rng.randint(-5, 5)))
        grams.append(Matrix(rows).scale(Fraction(1, rng.randint(2, 6))))
    for _ in range(120):
        gram = _zero_pivot_gram(rng, rng.randint(2, 6))
        grams.append(gram.scale(Fraction(1, rng.randint(2, 6))))
    taken = []
    for gram in grams:
        n = gram.rows
        try:
            d, _ = _fraction_diagonalize(gram, taken)
        except DegenerateGram:
            with pytest.raises(DegenerateGram):
                Lattice(gram).signature()
            continue
        pivots, _ = lattices._diagonalize(gram.num)
        assert [Fraction(p, q) for p, q in zip(pivots, [1] + pivots)] == [gram.den * x for x in d]
        pos = sum(1 for x in d if x > 0)
        assert Lattice(gram).signature() == (pos, n - pos)
    assert {"swap", "add"} <= {branch for i, branch in taken if i > 0}


def _fraction_discriminant_data(l):
    """Oracle: the lifts as Fraction rows u_i / d_i, and the form's
    orders, its bilinear values mod 1 and its quadratic values mod 2 read
    off the Fraction entries of the lifts' pairing."""
    d, u, _ = snf(l.gram)
    gens = [(d.entry(i, i), u.data[i]) for i in range(l.n) if d.entry(i, i) > 1]
    lifts = Matrix([[x / di for x in row] for di, row in gens]) if gens else Matrix.zeros(0, l.n)
    pair = lifts * l.gram * lifts.transpose()
    bilinear = Matrix([[x % 1 for x in row] for row in pair.data])
    even = l.parity() == "even"
    quad = tuple(pair.entry(i, i) % 2 for i in range(len(gens))) if even else None
    return [int(di) for di, _ in gens], bilinear, quad, lifts


def test_discriminant_data_against_fraction_route():
    """Random nondegenerate integral Grams, even and odd, definite and
    indefinite, get the lifts and the form of the Fraction route."""
    rng = random.Random(64)
    tried = 0
    while tried < 80:
        n = rng.randint(1, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(-4, 4) * (2 if tried % 2 else 1)
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        l = Lattice(rows)
        if l.det() == 0:
            continue
        tried += 1
        form, lifts = l.discriminant_data()
        orders, bilinear, quad, fraction_lifts = _fraction_discriminant_data(l)
        assert lifts == fraction_lifts
        assert list(form.orders) == orders
        if orders:
            assert form.bilinear == bilinear
        assert form.quadratic == quad


def _brute_minima(g):
    """The two successive minima of the positive definite binary form g,
    over the box that holds every vector of norm at most max(g00, g11)."""
    (a, b), (_, c) = g.data
    det, top = a * c - b * b, max(a, c)
    bx, by = isqrt(floor(top * c / det)), isqrt(floor(top * a / det))
    vectors = sorted(
        (a * x * x + 2 * b * x * y + c * y * y, x, y)
        for x in range(-bx, bx + 1) for y in range(-by, by + 1) if x or y
    )
    first = vectors[0]
    second = next(v for v in vectors if first[1] * v[2] != first[2] * v[1])
    return first[0], second[0]


def test_gauss_reduce_binary_against_brute_force_minimum():
    """Rational and negative definite binary forms reduce to [[a,b],[b,c]]
    with 0 <= 2b <= a <= c, the same determinant, and a and c the two
    successive minima of the form."""
    rng = random.Random(65)
    tried = 0
    while tried < 200:
        a, b, c = rng.randint(1, 30), rng.randint(-30, 30), rng.randint(1, 30)
        if a * c <= b * b:
            continue
        tried += 1
        sign = rng.choice((-1, 1))
        g = Matrix([[a, b], [b, c]]).scale(Fraction(sign, rng.randint(1, 4)))
        r = gauss_reduce_binary(g).scale(sign)
        (ra, rb), (rb2, rc) = r.data
        assert rb == rb2 and 0 <= 2 * rb <= ra <= rc
        assert r.det() == g.det()
        assert (ra, rc) == _brute_minima(g.scale(sign))
        assert gauss_reduce_binary(gauss_reduce_binary(g)) == gauss_reduce_binary(g)


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
    assert index_exponent(0, 2, 7, False) == 5
    assert index_exponent(3, 3, 1, True) == 0
    for counts in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(DimensionError, match="index formula counts must be >= 0"):
            index_exponent(*counts, False)


def test_lattice_json_round_trip():
    l = Dn(6)
    assert Lattice.from_json(l.to_json()).gram == l.gram
