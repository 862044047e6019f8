"""Finite bilinear/quadratic forms and isometry search."""

from fractions import Fraction
from itertools import islice, product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latconf.errors import DimensionError
from latconf.finite_forms import (
    FiniteForm,
    apply_images,
    finite_form_automorphisms,
    finite_form_isometric,
    trivial_form,
)
from latconf.lattices import Dn, Dpq, Zpq
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


def _oracle(a, b, use_quadratic):
    """Every order-respecting tuple of generator images of ``a`` in ``b``
    whose map is bijective and preserves b (and q) on all elements.

    All tuples are tested at once: phi of every element is one matmul
    mod the orders, read as its row index in ``elements()``, and each
    form value is replaced by an integer label, equal iff the values are.
    """
    if a.orders != b.orders:
        return []
    els = a.elements()
    size = len(els)
    orders = np.array(a.orders)
    radix = np.array([prod(a.orders[j + 1:]) for j in range(len(a.orders))])
    labels = {}

    def table(values):
        return np.array([labels.setdefault(v, len(labels)) for v in values])

    ba = table(a.b(x, y) for x in els for y in els).reshape(size, size)
    bb = table(b.b(x, y) for x in els for y in els).reshape(size, size)
    pools = [[y for y in els if n % b.element_order(y) == 0] for n in a.orders]
    candidates = list(product(*pools))
    phi = (np.array(els) @ np.array(candidates)) % orders @ radix  # (tuple, element)
    keep = (np.sort(phi, axis=1) == np.arange(size)).all(axis=1)
    keep &= (bb[phi[:, :, None], phi[:, None, :]] == ba).all(axis=(1, 2))
    if use_quadratic:
        qa, qb = table(map(a.q, els)), table(map(b.q, els))
        keep &= (qb[phi] == qa).all(axis=1)
    return [images for images, ok in zip(candidates, keep) if ok]


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
