"""Finite bilinear/quadratic forms and isometry search."""

import functools
import hashlib
import json
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import chain, combinations_with_replacement, islice
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latconf import finite_forms
from latconf.errors import DimensionError, GroupTooLarge
from latconf.finite_forms import (
    BATCH_BOUND,
    SEARCH_BOUND,
    FiniteForm,
    apply_images,
    finite_form_automorphisms,
    finite_form_isometric,
    stabilizer_chain,
    trivial_form,
)
from latconf.lattices import Dn, Dpq, Lattice, Zpq, parse_lattice_name, transcendental_slice
from latconf.matrices import Matrix


def test_construction_validation():
    with pytest.raises(DimensionError):
        FiniteForm((2, 3), Matrix.zeros(2, 2))  # 3 does not divide by 2
    with pytest.raises(DimensionError):
        FiniteForm((2,), Matrix.zeros(2, 2))


def test_construction_rejects_ill_defined_forms():
    # b(1, 1) = 1/3 on Z/2 would give b((1,), (2,)) = 2/3, not b((1,), (0,)) = 0
    with pytest.raises(DimensionError):
        FiniteForm((2,), [[Fraction(1, 3)]])
    with pytest.raises(DimensionError):  # 2 * b_12 = 1/2
        FiniteForm((2, 4), [[0, Fraction(1, 4)], [Fraction(1, 4), 0]])
    # q(1) = 1/3 on Z/3 would give q(3) = 3 = 1 mod 2, not q(0) = 0
    with pytest.raises(DimensionError):
        FiniteForm((3,), [[Fraction(1, 3)]], [Fraction(1, 3)])
    # a quadratic value that does not refine the bilinear one
    with pytest.raises(DimensionError):
        FiniteForm((2,), [[Fraction(1, 2)]], [Fraction(0)])
    f = FiniteForm((3,), [[Fraction(1, 3)]], [Fraction(4, 3)])
    assert f.q((2,)) == Fraction(4, 3) and f.b((1,), (2,)) == Fraction(2, 3)


def test_group_structure():
    f = Dn(6).discriminant_form()
    assert f.orders == (2, 2)
    assert f.group_order() == 4
    assert len(f.elements()) == 4
    assert f.add((1, 0), (1, 1)) == (0, 1)
    assert f.element_order((1, 1)) == 2
    assert len(f.subgroup([(1, 0)])) == 2
    assert len(f.all_subgroups()) == 5  # trivial, three Z/2, full
    assert f.reduce((3, -1)) == (1, 1)
    for x in ((1,), (1, 0, 5)):  # never truncated or padded
        with pytest.raises(DimensionError):
            f.reduce(x)
    # integral values of any numeric type pass; nothing else is truncated
    assert f.reduce((Fraction(3), 2.0)) == (1, 0)
    for x in ((1.5, 0), (Fraction(1, 2), 0), ("a", 0), (None, 0)):
        with pytest.raises(DimensionError):
            f.reduce(x)


def test_polarization_identity():
    f = Zpq(2, 4).rescale(2).discriminant_form()
    els = f.elements()
    for x in els[:8]:
        for y in els[:8]:
            lhs = (f.q(f.add(x, y)) - f.q(x) - f.q(y)) % 2
            assert lhs == (2 * f.b(x, y)) % 2


def test_d6_quadratic_values():
    f = Dn(6).discriminant_form()
    values = sorted(f.q(e) for e in f.elements() if e != f.zero())
    # the three nonzero classes of the D6 discriminant form
    assert values == [Fraction(1), Fraction(3, 2), Fraction(3, 2)]


def test_isometric_reflexive_symmetric():
    forms = [
        Dn(6).discriminant_form(),
        Dpq(2, 4).discriminant_form(),
        Zpq(2, 0).rescale(2).discriminant_form(),
    ]
    for f in forms:
        compare = "quadratic" if f.quadratic is not None else "bilinear"
        assert finite_form_isometric(f, f, compare) is not None
    a, b = forms[0], forms[1]
    assert (finite_form_isometric(a, b, "quadratic") is None) == (
        finite_form_isometric(b, a, "quadratic") is None
    )


def test_d6_vs_index2_sublattices():
    d6 = Dn(6).discriminant_form()
    # quadratic forms of D6 and D(2,4) coincide
    assert finite_form_isometric(d6, Dpq(2, 4).discriminant_form(),
                                 "quadratic") is not None
    # bilinear forms of D6 and D(2,2) do not
    assert finite_form_isometric(d6, Dpq(2, 2).discriminant_form(),
                                 "bilinear") is None


def test_forms_of_different_orders_are_not_isometric():
    """(Z/2)² and Z/4 have the same group order but different orders."""
    d4 = Dn(4).discriminant_form()
    z4 = Zpq(1, 0).rescale(4).discriminant_form()
    assert (d4.orders, z4.orders) == ((2, 2), (4,))
    for compare in ("bilinear", "quadratic"):
        assert finite_form_isometric(d4, z4, compare) is None


def test_witness_preserves_form():
    a = Dn(6).discriminant_form()
    images = finite_form_isometric(a, a, "quadratic")
    for x in a.elements():
        for y in a.elements():
            assert a.b(apply_images(a, images, x),
                       apply_images(a, images, y)) == a.b(x, y)


def test_apply_images_matches_generator_fold():
    """One linear combination per call equals the add/smul fold over the
    generators, on every element and on unreduced coefficients."""
    forms = [
        Dn(5).discriminant_form(),
        Dn(6).discriminant_form(),
        Zpq(2, 4).rescale(2).discriminant_form(),
        Dpq(2, 4).rescale(2).discriminant_form(),
    ]
    for f in forms:
        for images in islice(finite_form_automorphisms(f), 6):
            for x in f.elements():
                for y in (x, tuple(c - 3 * n for c, n in zip(x, f.orders))):
                    fold = f.zero()
                    for c, img in zip(f.reduce(y), images):
                        fold = f.add(fold, f.smul(c, img))
                    assert apply_images(f, images, y) == fold


def test_apply_images_rejects_malformed_images():
    f = FiniteForm((2, 2), Matrix.zeros(2, 2))
    # one image too few: the second coefficient would be dropped
    with pytest.raises(DimensionError):
        apply_images(f, [(1, 0)], (1, 1))
    with pytest.raises(DimensionError):
        apply_images(f, [(1, 0), (0, 1), (1, 1)], (1, 1))
    # an image of the wrong length would be truncated
    with pytest.raises(DimensionError):
        apply_images(f, [(1, 0), (1, 0, 5)], (1, 1))
    with pytest.raises(DimensionError):
        apply_images(f, [(1, 0), (1,)], (0, 0))
    # every image is checked, also one at a zero coefficient of x
    with pytest.raises(DimensionError):
        apply_images(f, [(1, 0), (1, 0, 5)], (1, 0))
    with pytest.raises(DimensionError):
        apply_images(f, [(1, 0), (Fraction(1, 2), 0)], (1, 0))
    with pytest.raises(DimensionError):
        apply_images(f, [(0, 1.5), (0, 1)], (0, 1))
    # integral but unreduced images and elements still work
    assert apply_images(f, [(3, 0), [0, -1]], (1, 1)) == (1, 1)
    assert apply_images(f, [(1, 1), (Fraction(2), 1.0)], [3, -1]) == (1, 0)


def test_automorphism_count_small():
    f = Dn(6).discriminant_form()
    autos = list(finite_form_automorphisms(f, compare="quadratic"))
    # the two order-2 elements of value 1 may be exchanged
    assert len(autos) == 2


def test_trivial_form_and_json():
    t = trivial_form(True)
    assert t.group_order() == 1
    f = Dpq(2, 4).discriminant_form()
    assert FiniteForm.from_json(f.to_json()) == f


# -- the search against a brute-force oracle --------------------------

# divisibility chains over {2, 3, 4, 6} with at most 3 generators and
# group order at most 36, small enough for the oracle below
CHAINS = [
    (2,), (3,), (4,), (6,), (2, 2), (2, 4), (2, 6), (3, 3), (3, 6), (4, 4),
    (6, 6), (2, 2, 2), (2, 2, 4), (2, 2, 6),
]


def _values(f, coeff, den):
    """``den*b`` on every pair of elements (mod ``den``) and ``den*q`` on
    every element (mod ``2*den``, or zeros without q), from the Fraction
    entries of ``f`` and the sums that define the values."""
    k = f.ngens
    bil = np.array([[int(x * den) for x in row] for row in f.bilinear.data], dtype=np.int64)
    pair = coeff @ bil.reshape(k, k) @ coeff.T % den
    if f.quadratic is None:
        return pair, np.zeros(len(coeff), dtype=np.int64)
    quad = np.array([int(x * den) for x in f.quadratic], dtype=np.int64)
    cross = np.einsum("ni,ij,nj->n", coeff, np.triu(bil.reshape(k, k), 1), coeff)
    return pair, (coeff * coeff @ quad + 2 * cross) % (2 * den)


def _oracle(a, b, use_quadratic):
    """Every order-respecting tuple of generator images of ``a`` in ``b``
    whose map is bijective and preserves b (and q) on all elements, in
    lexicographic order.

    Tuples grow one generator at a time, all of them at once in numpy:
    phi of an element is one matmul mod the orders, read as its row
    index in ``elements()``.  A tuple x_0..x_i is kept while it keeps
    b(e_j, e_i) for j <= i (and q(e_i)) and its map is injective on the
    span of e_0..e_i; these are necessary, so no witness is lost.  Each
    complete tuple is then tested on all elements, in chunks.
    """
    if a.orders != b.orders:
        return []
    els = a.elements()
    size, k = len(els), a.ngens
    coeff = np.array(els, dtype=np.int64).reshape(size, k)
    orders = np.array(a.orders, dtype=np.int64)
    radix = np.array([prod(a.orders[j + 1:]) for j in range(k)], dtype=np.int64)  # index of e_j
    fractions = [x for f in (a, b) for x in chain(*f.bilinear.data, f.quadratic or ())]
    den = lcm(*(x.denominator for x in fractions))
    (ba, qa), (bb, qb) = _values(a, coeff, den), _values(b, coeff, den)
    if not use_quadratic:
        qa = qb = np.zeros(size, dtype=np.int64)
    tuples = np.zeros((1, 0), dtype=np.int64)
    for i, n in enumerate(a.orders):
        pool = np.flatnonzero((n * coeff % orders == 0).all(axis=1))
        grown = np.column_stack([np.repeat(tuples, len(pool), axis=0), np.tile(pool, len(tuples))])
        keep = (bb[grown[:, i:i + 1], grown] == ba[radix[i], radix[:i + 1]]).all(axis=1)
        grown = grown[keep & (qb[grown[:, i]] == qa[radix[i]])]
        span = coeff[~coeff[:, i + 1:].any(axis=1), :i + 1]
        phi = np.sort(span @ coeff[grown] % orders @ radix, axis=1)
        tuples = grown[(np.diff(phi, axis=1) != 0).all(axis=1)]
    found = []
    for part in np.array_split(tuples, len(tuples) // max(1, 2**18 // size**2) + 1):
        phi = coeff @ coeff[part] % orders @ radix  # (tuple, element)
        keep = (np.sort(phi, axis=1) == np.arange(size)).all(axis=1)
        keep &= (bb[phi[:, :, None], phi[:, None, :]] == ba).all(axis=(1, 2))
        keep &= (qb[phi] == qa).all(axis=1)
        found += [tuple(els[j] for j in row) for row in part[keep].tolist()]
    return found


@st.composite
def forms(draw):
    """A well-defined form, often degenerate, with or without q."""
    orders = draw(st.sampled_from(CHAINS))
    k = len(orders)
    bil = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            # n_i divides n_j, so t / n_i is killed by both orders
            t = draw(st.integers(0, orders[i] - 1))
            bil[i][j] = bil[j][i] = Fraction(t, orders[i])
    if not draw(st.booleans()):
        return FiniteForm(orders, bil)
    quad = []
    for i, n in enumerate(orders):
        # q_i = b_ii mod 1, and n^2 q_i even forces the lift for odd n
        lift = draw(st.integers(0, 1)) if n % 2 == 0 else (n * bil[i][i]) % 2
        quad.append(bil[i][i] + lift)
    return FiniteForm(orders, bil, quad)


def _fraction_fields(orders, bilinear, quadratic):
    """Oracle: a form's ``bilinear``, ``quadratic`` and ``_gram`` through
    Fraction entries (each b_ij reduced mod 1, then scaled by the largest
    order), or the start of the error message of an ill-defined form."""
    data = [[x % 1 for x in row] for row in Matrix(bilinear).data]
    if any(data[i][j] != data[j][i] for i in range(len(data)) for j in range(i)):
        return "bilinear matrix must be symmetric"
    if any((n * x).denominator != 1 for n, row in zip(orders, data) for x in row):
        return "bilinear values not well defined"
    if quadratic is not None:
        quadratic = tuple(Fraction(x) % 2 for x in quadratic)
        if any((x - data[i][i]).denominator != 1 or n * n * x % 2
               for i, (n, x) in enumerate(zip(orders, quadratic))):
            return "quadratic values not well defined"
    scale = orders[-1] if orders else 1
    return Matrix(data), quadratic, [[int(x * scale) for x in row] for row in data]


def test_construction_against_fraction_route():
    """Drawn forms, unreduced, negative, asymmetric or ill-defined ones
    included, get the reduced values and the integer pair table of the
    Fraction route, or its error."""
    rng = random.Random(71)
    chains = CHAINS + [(), (5,), (2, 8), (3, 9), (4, 12), (2, 2, 8)]
    outcomes = set()
    for _ in range(400):
        orders = rng.choice(chains)
        k = len(orders)
        bil = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                t = Fraction(rng.randrange(orders[i]), orders[i])
                bil[i][j] = t + rng.randint(-3, 3)
                bil[j][i] = t + rng.randint(-3, 3)
        if k and rng.random() < 0.2:  # possibly ill-defined or asymmetric
            i, j = rng.randrange(k), rng.randrange(k)
            bil[i][j] += Fraction(1, rng.choice((2, 3, 4, 8, 16)))
        quad = None
        if rng.random() < 0.6:
            quad = []
            for i, n in enumerate(orders):
                b = bil[i][i] % 1
                lift = rng.randint(0, 1) if n % 2 == 0 else (n * b) % 2
                quad.append(b + lift + 2 * rng.randint(-2, 2))
            if k and rng.random() < 0.2:
                quad[rng.randrange(k)] += Fraction(1, rng.choice((1, 2, 3)))
        expected = _fraction_fields(orders, bil, quad)
        outcomes.add(type(expected))
        if isinstance(expected, str):
            with pytest.raises(DimensionError, match=expected):
                FiniteForm(orders, bil, quad)
            continue
        f = FiniteForm(orders, Matrix(bil), quad)
        assert (f.bilinear, f.quadratic, f._gram) == expected
    assert outcomes == {str, tuple}


@st.composite
def form_pairs(draw):
    """A form and its pullback along a random tuple of generator images:
    an isometric copy when the images give a bijection, else another
    (often degenerate) form on the same group."""
    a = draw(forms())
    images = [
        draw(st.sampled_from([y for y in a.elements() if n % a.element_order(y) == 0]))
        for n in a.orders
    ]
    bil = [[a.b(y, z) for z in images] for y in images]
    quad = None if a.quadratic is None else [a.q(y) for y in images]
    return a, FiniteForm(a.orders, bil, quad)


@settings(max_examples=60, deadline=None)
@given(forms(), st.data())
def test_values_against_fraction_sums(f, data):
    """``b`` and ``q`` equal the Fraction sums that define them, reduced
    mod 1 and mod 2, also on unreduced coefficients."""
    k = f.ngens
    coeffs = st.lists(st.integers(-20, 20), min_size=k, max_size=k)
    for _ in range(4):
        x, y = data.draw(coeffs), data.draw(coeffs)
        pair = sum(x[i] * y[j] * f.bilinear.entry(i, j) for i in range(k) for j in range(k))
        assert f.b(x, y) == pair % 1
        if f.quadratic is not None:
            quad = sum(x[i] ** 2 * f.quadratic[i] for i in range(k)) + sum(
                2 * x[i] * x[j] * f.bilinear.entry(i, j)
                for i in range(k) for j in range(i + 1, k)
            )
            assert f.q(x) == quad % 2


def _fraction_isotropy(f, gens, use_quadratic):
    """Oracle: ``is_isotropic_subgroup`` through the Fraction values ``b``
    on each pair of generators and ``q`` on each generator."""
    gens = [f.reduce(g) for g in gens]
    for i, g in enumerate(gens):
        for h in gens[: i + 1]:
            if f.b(g, h) != 0:
                return False, (g, h)
        if use_quadratic and f.q(g) != 0:
            return False, (g, g)
    return True, None


@pytest.mark.parametrize("name", [
    "D4", "D4+D4", "H(2)+H(2)", "Z(0,4)*2", "D6+D6", "H(2)+E10*-1", "D(2,4)", "H(4)",
    "H(2)+D4*-1", "D4*2", "L", "L*2",
])
def test_isotropic_subgroup_against_fraction_values(name):
    """Seeded generator lists, unreduced ones included, get the same
    ``(ok, pair)`` as the Fraction route, for both ``use_quadratic``; on a
    form without a quadratic refinement both routes raise alike."""

    def outcome(check, *args):
        try:
            return check(*args)
        except DimensionError as error:
            return str(error)

    rng = random.Random(name)
    f = parse_lattice_name(name).discriminant_form()
    seen = set()
    for _ in range(150):
        gens = [tuple(rng.randint(-2 * n, 2 * n) for n in f.orders)
                for _ in range(rng.randint(0, 3))]
        for use_quadratic in (False, True):
            found = outcome(f.is_isotropic_subgroup, gens, use_quadratic)
            assert found == outcome(_fraction_isotropy, f, gens, use_quadratic), gens
            seen.add(found if isinstance(found, str) else found[0])
    assert {True, False} <= seen


@settings(max_examples=40, deadline=None)
@given(form_pairs())
def test_search_against_oracle(pair):
    a, b = pair
    for compare in ["bilinear"] + (["quadratic"] if a.quadratic is not None else []):
        use_quadratic = compare == "quadratic"
        for f in (a, b):
            # the search yields in the oracle's lexicographic order
            assert list(finite_form_automorphisms(f, compare)) == _oracle(f, f, use_quadratic)
        for x, y in ((a, b), (b, a)):
            witnesses = _oracle(x, y, use_quadratic)
            assert finite_form_isometric(x, y, compare) == (
                witnesses[0] if witnesses else None
            )


def test_zero_form_automorphisms():
    f = FiniteForm((2, 2), Matrix.zeros(2, 2))
    autos = list(finite_form_automorphisms(f))
    assert len(autos) == 6  # GL(2, F2)
    assert autos == _oracle(f, f, False)


def test_unknown_compare_is_rejected():
    f = Dn(6).discriminant_form()
    for compare in ("quadratc", "Bilinear", None):
        with pytest.raises(DimensionError):
            finite_form_isometric(f, f, compare)
        with pytest.raises(DimensionError):
            next(finite_form_automorphisms(f, compare))
    # also where the group orders differ, so no search would run
    with pytest.raises(DimensionError):
        finite_form_isometric(f, Dn(4).discriminant_form(), "quadratc")


@pytest.mark.parametrize("orders, count", [((2, 2, 2), 168), ((4, 4), 96)])
def test_zero_forms_beyond_the_oracle(orders, count):
    """Every nonzero element is in the radical, so only the injectivity
    test cuts the search: |GL(3, F2)| = 168, |GL(2, Z/4)| = 96."""
    f = FiniteForm(orders, Matrix.zeros(len(orders), len(orders)))
    autos = list(finite_form_automorphisms(f))
    assert len(autos) == count and autos == sorted(set(autos))
    els = f.elements()
    for images in autos[::7]:
        assert sorted(apply_images(f, images, x) for x in els) == els


# the lattice-census catalogue
CATALOGUE = ["D4", "D4+D4", "H(2)+H(2)", "Z(0,4)*2", "D6+D6", "H(2)+E10*-1", "D(2,4)", "H(4)",
             "H(2)+D4*-1", "D4*2"]


def _seeded_forms():
    """The catalogue's forms, the discriminant forms of 30 seeded Grams
    with groups of order at most 256, three zero forms, and 20 seeded
    forms on the chains above, often degenerate."""
    rng = random.Random(5)
    out = [parse_lattice_name(name).discriminant_form() for name in CATALOGUE]
    grams = []
    while len(grams) < 30:
        n = rng.randint(1, 4)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = rng.randint(-4, 4)
        lattice = Lattice(gram)
        if 0 < abs(lattice.det()) <= 256:
            grams.append(lattice.discriminant_form())
    out += grams
    out += [FiniteForm(orders, Matrix.zeros(len(orders), len(orders)))
            for orders in ((2, 2, 2), (4, 4), (2, 2, 2, 2))]
    for _ in range(20):
        orders = rng.choice(CHAINS)
        k = len(orders)
        bil = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                t = rng.randrange(orders[i]) if rng.random() < 0.5 else 0
                bil[i][j] = bil[j][i] = Fraction(t, orders[i])
        quad = None
        if rng.random() < 0.5:
            quad = [bil[i][i] + (rng.randint(0, 1) if n % 2 == 0 else (n * bil[i][i]) % 2)
                    for i, n in enumerate(orders)]
        out.append(FiniteForm(orders, bil, quad))
    return out


@functools.cache
def _seeded_cases():
    """(form, compare, the oracle's automorphisms) for each seeded form
    and each compare mode it has."""
    return [(f, compare, _oracle(f, f, compare == "quadratic"))
            for f in _seeded_forms()
            for compare in ["bilinear"] + (["quadratic"] if f.quadratic is not None else [])]


def _seeded_subgroups(f, rng):
    """Generator lists of seeded subgroups of ``f``: random ones, 2A and
    3A, and the elements killed by 2, which every automorphism keeps."""
    gens = [tuple(int(i == j) for j in range(f.ngens)) for i in range(f.ngens)]
    lists = [rng.sample(f.elements(), rng.randint(1, min(2, f.group_order()))) for _ in range(6)]
    lists += [[f.smul(t, g) for g in gens] for t in (2, 3)]
    lists.append([f.smul(n // 2, g) for n, g in zip(f.orders, gens) if n % 2 == 0])
    return lists


def _keeps(f, autos, sub, span):
    """Whether every automorphism in ``autos`` maps every element of
    ``sub`` into ``span``: x times the image rows, mod the orders."""
    k = f.ngens
    radix = np.array([prod(f.orders[j + 1:]) for j in range(k)], dtype=np.int64)
    images = (np.array(sub, dtype=np.int64).reshape(len(sub), k)
              @ np.array(autos, dtype=np.int64).reshape(len(autos), k, k))
    members = np.zeros(f.group_order(), dtype=bool)
    members[np.array(sorted(span), dtype=np.int64).reshape(len(span), k) @ radix] = True
    return bool(members[images % np.array(f.orders, dtype=np.int64) @ radix].all())


@pytest.mark.parametrize("batch", [1, BATCH_BOUND])
def test_enumeration_against_oracle(batch, monkeypatch):
    """On the seeded forms, in both compare modes, the enumeration is
    the oracle's list, also when every coset is walked down to single
    automorphisms."""
    monkeypatch.setattr(finite_forms, "BATCH_BOUND", batch)
    for f, compare, autos in _seeded_cases():
        assert list(finite_form_automorphisms(f, compare)) == autos, (f, compare)


def test_chain_against_oracle():
    """On the seeded forms, in both compare modes: the chain's order is
    the oracle's count; level i holds automorphisms fixing e_0..e_{i-1},
    with increasing images of e_i, e_i itself among them; and a seeded
    subgroup is stable under the chain's witnesses iff it is stable
    under every automorphism the oracle lists."""
    rng = random.Random(5)
    outcomes = set()
    for f, compare, autos in _seeded_cases():
        gens = [tuple(int(i == j) for j in range(f.ngens)) for i in range(f.ngens)]
        levels = stabilizer_chain(f, compare)
        assert len(levels) == f.ngens and prod(map(len, levels)) == len(autos)
        known = set(autos)
        for i, level in enumerate(levels):
            assert set(level) <= known
            assert all(images[:i] == tuple(gens[:i]) for images in level)
            images_of_e_i = [images[i] for images in level]
            assert images_of_e_i == sorted(set(images_of_e_i)) and gens[i] in images_of_e_i
        witnesses = [images for level in levels for images in level]
        for sub in _seeded_subgroups(f, rng):
            span = _closure(f, sub)
            stable = _keeps(f, autos, sub, span)
            assert stable == all(apply_images(f, images, x) in span
                                 for images in witnesses for x in sub), (f, compare, sub)
            outcomes.add(stable)
    assert outcomes == {True, False}


def test_chain_of_the_trivial_form():
    for compare in ("bilinear", "quadratic"):
        assert stabilizer_chain(trivial_form(True), compare) == []
        assert list(finite_form_automorphisms(trivial_form(True), compare)) == [()]


def test_l2_chain():
    """The paper's L(2) form: the chain's orbit lengths multiply to the
    49,152 automorphisms that ``test_l2_automorphisms`` counts, and its 63
    witnesses keep the order-8 isotropic glue subgroup."""
    lam = _l2_form()
    levels = stabilizer_chain(lam, "bilinear")
    assert [len(level) for level in levels] == [32, 12, 8, 1, 8, 2]
    glue = [(0, 0, 0, 0, 2, 0), (0, 0, 0, 0, 0, 2), (1, 1, 1, 1, 0, 0)]
    span = _closure(lam, glue)
    assert len(span) == 8
    witnesses = [images for level in levels for images in level]
    assert all(apply_images(lam, images, g) in span for images in witnesses for g in glue)


def test_first_automorphism_is_lazy(monkeypatch):
    """The zero form on (Z/2)^10 has |GL(10, F2)| automorphisms, about
    2^100: the first comes out at once, and it is the isometry search's
    first witness.  It takes two searches, for x = 0 and x = e_9 as the
    image of e_0: the least completion σ of the second is the least
    automorphism of its coset, so each later level descends at
    σ(e_i) without a search, and no level is filled."""
    searches = []
    dfs = finite_forms._dfs
    monkeypatch.setattr(finite_forms, "_dfs", lambda *args: searches.append(args) or dfs(*args))
    f = FiniteForm((2,) * 10, Matrix.zeros(10, 10))
    start = time.perf_counter()
    first = next(finite_form_automorphisms(f))
    elapsed = time.perf_counter() - start
    assert len(searches) == 2
    assert first == finite_form_isometric(f, f, "bilinear")
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("rank", [5, 6])
def test_zero_form_search_prunes_non_injective_prefixes(rank):
    """On the zero form on (Z/2)^rank every nonzero element is in the
    radical; a prefix that sends a combination of its generators to zero
    is cut at once, so the first witness (e_i to e_{rank-1-i}, the lowest
    indices) is found without walking the non-injective assignments,
    which took 14 s for rank 5 when only complete ones were tested."""
    f = FiniteForm((2,) * rank, Matrix.zeros(rank, rank))
    start = time.perf_counter()
    images = finite_form_isometric(f, f, "bilinear")
    elapsed = time.perf_counter() - start
    assert images == tuple(tuple(int(j == rank - 1 - i) for j in range(rank)) for i in range(rank))
    assert elapsed < 1.0, elapsed


def test_isometry_at_the_bound():
    """Five hyperbolic planes over F2: 1024 elements, 1024-bit pools."""
    half = Fraction(1, 2)
    bil = [[half if i // 2 == j // 2 and i != j else 0 for j in range(10)] for i in range(10)]
    f = FiniteForm((2,) * 10, bil)
    assert f.group_order() == SEARCH_BOUND
    images = finite_form_isometric(f, f, "bilinear")
    gens = [tuple(int(i == j) for j in range(10)) for i in range(10)]
    for i, x in enumerate(images):
        for j, y in enumerate(images):
            assert f.b(x, y) == f.b(gens[i], gens[j])
    kernel = [x for x in f.elements() if apply_images(f, images, x) == f.zero()]
    assert kernel == [f.zero()]


# -- the element tables against tuple arithmetic -----------------------


def _closure(f, gens):
    """The subgroup generated by ``gens``: close {0} under adding a
    generator, in coefficient tuples (-g is a multiple of g)."""
    gens = [tuple(c % n for c, n in zip(g, f.orders)) for g in gens]
    span = {f.zero()}
    frontier = list(span)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % n for a, b, n in zip(x, g, f.orders))
            if y not in span:
                span.add(y)
                frontier.append(y)
    return frozenset(span)


def _all_subgroups(f):
    """Every subgroup, as the closures of all multisets of at most
    ``ngens`` elements: a subgroup of a group with k invariant factors
    is generated by k elements."""
    subs = {_closure(f, gens) for gens in combinations_with_replacement(f.elements(), f.ngens)}
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def _combination(f, images, x):
    """sum_i x_i * images[i], reduced per coordinate."""
    return tuple(sum(c * img[j] for c, img in zip(x, images)) % n for j, n in enumerate(f.orders))


@settings(max_examples=40, deadline=None)
@given(forms(), st.data())
def test_tables_against_tuple_arithmetic(f, data):
    els = f.elements()
    gens = data.draw(st.lists(st.sampled_from(els), max_size=3))
    assert f.subgroup(gens) == _closure(f, gens)
    assert f.all_subgroups() == _all_subgroups(f)
    # any images, not only homomorphisms, and unreduced coefficients
    images = data.draw(st.lists(st.sampled_from(els), min_size=f.ngens, max_size=f.ngens))
    for x in els:
        y = tuple(c + 2 * n for c, n in zip(x, f.orders))
        assert apply_images(f, images, x) == apply_images(f, images, y) == _combination(f, images, x)


@settings(max_examples=60, deadline=None)
@given(forms())
def test_isotropic_subgroups_against_filtered_subgroups(f):
    """The isotropic walk against every subgroup filtered by the
    pairwise check, in the same order; degenerate forms included."""
    expected = [s for s in f.all_subgroups()
                if f.is_isotropic_subgroup(sorted(s), use_quadratic=False)[0]]
    assert f.isotropic_subgroups() == expected


def test_isotropic_subgroups_of_the_trivial_form():
    assert trivial_form(False).isotropic_subgroups() == [frozenset([()])]


def test_tables_on_the_l2_form():
    lam = transcendental_slice().rescale(2).discriminant_form()
    assert lam.orders == (2, 2, 2, 2, 4, 4)
    rng = random.Random(5)
    els = lam.elements()
    for _ in range(20):
        gens = rng.sample(els, rng.randint(1, 3))
        assert lam.subgroup(gens) == _closure(lam, gens)
    for images in islice(finite_form_automorphisms(lam), 0, 4000, 500):
        assert [apply_images(lam, images, x) for x in els] == [_combination(lam, images, x) for x in els]


def test_l2_automorphisms():
    """The paper's L(2) form: every automorphism once, in increasing order."""
    lam = transcendental_slice().rescale(2).discriminant_form()
    autos = list(finite_form_automorphisms(lam, compare="bilinear"))
    assert len(autos) == 49152 and autos == sorted(set(autos))
    assert autos[0] == ((0, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                        (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0))
    assert autos[-1] == ((1, 1, 1, 0, 2, 2), (1, 1, 0, 1, 2, 2), (1, 0, 1, 1, 2, 2),
                         (0, 1, 1, 1, 2, 2), (1, 1, 1, 1, 3, 2), (1, 1, 1, 1, 2, 3))


PINNED_L2_IMAGES = "1dc9677228e880ec524733ab32a2a7bf96c229f1b9e57aa92c4340b5df7bab77"


def test_l2_images_pinned():
    """``apply_images`` of 512 seeded L(2) automorphisms on all 256
    elements hashes to the digest of the code that folded over every
    coefficient: any changed output byte fails."""
    lam = transcendental_slice().rescale(2).discriminant_form()
    autos = list(finite_form_automorphisms(lam))
    els = lam.elements()
    h = hashlib.sha256()
    for images in random.Random(26).sample(autos, 512):
        h.update(json.dumps([apply_images(lam, images, x) for x in els]).encode())
    assert h.hexdigest() == PINNED_L2_IMAGES


@pytest.mark.parametrize("orders", [(2,) * 10, (2, 2, 4, 4, 4, 4), (1024,)])
def test_tables_on_forms_at_the_bound(orders):
    f = FiniteForm(orders, Matrix.zeros(len(orders), len(orders)))
    assert f.group_order() == SEARCH_BOUND
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f._tables()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 10 * 2**20
    rng = random.Random(len(orders))
    els = f.elements()
    for k in (1, 2, 3):
        gens = rng.sample(els, k)
        assert f.subgroup(gens) == _closure(f, gens)
    images = rng.sample(els, f.ngens)
    for x in rng.sample(els, 200):
        assert apply_images(f, images, x) == _combination(f, images, x)


def test_forms_above_the_bound_work_without_tables():
    f = FiniteForm((2, 1024), Matrix.zeros(2, 2))
    gens = [(1, 512), (0, 256)]
    assert f.subgroup(gens) == _closure(f, gens) and len(f.subgroup(gens)) == 8
    images = [(1, 3), (0, 5)]
    for x in ((1, 1), (3, -2), (0, 1023)):
        assert apply_images(f, images, x) == _combination(f, images, f.reduce(x))
    with pytest.raises(DimensionError):
        apply_images(f, [(1, 0)], (1, 1))
    with pytest.raises(GroupTooLarge):
        f.all_subgroups()


def _l2_form():
    lam = transcendental_slice().rescale(2).discriminant_form()
    assert lam.orders == (2, 2, 2, 2, 4, 4)
    return lam


def test_apply_images_memo_does_not_keep_mutable_images():
    """A list, or a tuple holding a list, changed in place between two
    calls gives the images it holds at each call."""
    lam = _l2_form()
    a, b = islice(finite_form_automorphisms(lam), 0, 2000, 1999)
    x = (1, 1, 0, 1, 3, 2)
    images = list(a)
    assert apply_images(lam, images, x) == _combination(lam, a, x)
    images[:] = b
    assert apply_images(lam, images, x) == _combination(lam, b, x)
    held = [list(a[0])]
    images = (held[0],) + a[1:]
    assert apply_images(lam, images, x) == _combination(lam, a, x)
    held[0][:] = b[0]
    assert apply_images(lam, images, x) == _combination(lam, (b[0],) + a[1:], x)


def test_apply_images_memo_on_interleaved_and_equal_tuples():
    """Images A, B, A in turn, and a tuple equal to A but not A itself,
    each give their own combination on every element."""
    lam = _l2_form()
    a, b = islice(finite_form_automorphisms(lam), 0, 3000, 2999)
    copy = tuple(list(a))
    assert copy == a and copy is not a
    els = lam.elements()
    for images in (a, b, a, copy, b, copy):
        assert [apply_images(lam, images, x) for x in els] == [_combination(lam, images, x) for x in els]
    # unreduced images resolve on every call, also in a tuple
    unreduced = tuple(tuple(c + n for c, n in zip(img, lam.orders)) for img in b)
    for _ in range(2):
        assert [apply_images(lam, unreduced, x) for x in els] == [_combination(lam, b, x) for x in els]


def test_apply_images_memo_is_per_form():
    """One tuple on two forms with equal orders, and on a form with other
    orders of the same rank, gives each form's own combination."""
    f = FiniteForm((2, 4), Matrix.zeros(2, 2))
    g = FiniteForm((2, 4), [[Fraction(1, 2), 0], [0, Fraction(1, 4)]])
    h = FiniteForm((4, 4), Matrix.zeros(2, 2))
    images = ((1, 1), (0, 3))
    for form in (f, g, f, h, g):
        for x in form.elements():
            assert apply_images(form, images, x) == _combination(form, images, x)


def test_apply_images_memo_survives_malformed_calls():
    """A malformed call between two good ones raises as before and
    leaves the memoised images right; a malformed tuple is never
    memoised, so it raises again."""
    f = FiniteForm((2, 4), Matrix.zeros(2, 2))
    images = ((1, 2), (1, 3))
    assert apply_images(f, images, (1, 1)) == _combination(f, images, (1, 1))
    with pytest.raises(DimensionError):
        apply_images(f, images, (1, 1, 0))
    bad = ((1, 2), (1, 3, 0))
    for _ in range(2):
        with pytest.raises(DimensionError):
            apply_images(f, bad, (1, 0))
    with pytest.raises(DimensionError):
        apply_images(f, ((1, 2),), (1, 0))
    for x in f.elements():
        assert apply_images(f, images, x) == _combination(f, images, x)
    # a fresh form has no memo that an argument could match
    with pytest.raises(TypeError):
        apply_images(FiniteForm((2,), Matrix.zeros(1, 1)), None, (0,))


def test_apply_images_memo_above_the_bound():
    """Forms above ``SEARCH_BOUND`` keep their table-free path: one
    tuple applied twice, then another, and no tables are built."""
    f = FiniteForm((4, 512), Matrix.zeros(2, 2))
    a, b = ((1, 3), (2, 5)), ((3, 1), (0, 7))
    for images in (a, a, b, a):
        for x in ((1, 1), (3, 511), (2, -3)):
            assert apply_images(f, images, x) == _combination(f, images, f.reduce(x))
    assert f._cache is None


class _CountingIndex(dict):
    """An element index that counts its lookups."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_apply_images_looks_each_automorphism_up_once():
    """One automorphism on 3 elements in a row looks up its 6 images
    once and each element once: 6 + 3 index lookups, not 18 + 3."""
    lam = _l2_form()
    tables = lam._tables()
    index = _CountingIndex(tables.index)
    object.__setattr__(lam, "_cache", tables._replace(index=index))
    gens = [(0, 0, 0, 0, 2, 0), (0, 0, 0, 0, 0, 2), (1, 1, 1, 1, 0, 0)]
    for images in islice(finite_form_automorphisms(lam), 0, 1000, 250):
        index.lookups = 0
        out = [apply_images(lam, images, g) for g in gens]
        assert index.lookups == 6 + 3
        assert out == [_combination(lam, images, g) for g in gens]
