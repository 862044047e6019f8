"""Finite abelian groups with Q/Z bilinear (and Q/2Z quadratic) forms.

A :class:`FiniteForm` is the discriminant-form object: a finite abelian
group presented by generator orders (invariant factors, each dividing
the next), a symmetric matrix of bilinear values in Q/Z on the
generators, and optionally a vector of quadratic values in Q/2Z (present
exactly when the source lattice is even).  The constructor rejects
values that are not well defined on the group.

Isometry testing and automorphism enumeration share one exhaustive
backtracking search over generator images, bounded at group order
2**10.  It runs on integer tables of the scaled form values on all
elements: a candidate image must have an order dividing its
generator's and the right form values against the images chosen so
far.  Such an assignment is a form-preserving homomorphism, and its
kernel pairs trivially with everything, so it lies in the radical of
the source form.  One test per complete assignment (no nonzero radical
element maps to zero) therefore decides bijectivity, for degenerate
and nondegenerate forms alike.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from numbers import Rational
from operator import index

from .errors import DimensionError, GroupTooLarge
from .matrices import Matrix, frac_to_str, str_to_frac

SEARCH_BOUND = 2**10


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def _mod2(x: Fraction) -> Fraction:
    f = Fraction(x, 2)
    return 2 * (f - (f.numerator // f.denominator))


def _integer(c) -> int:
    """``c`` as an int; only integral numbers pass, nothing is truncated."""
    if isinstance(c, Rational) and c.denominator == 1:
        return int(c)
    if isinstance(c, float) and c.is_integer():
        return int(c)
    raise DimensionError(f"coefficient {c!r} is not an integer")


class FiniteForm:
    """Finite bilinear/quadratic form module on canonical generators."""

    __slots__ = ("orders", "bilinear", "quadratic")

    def __init__(self, orders, bilinear, quadratic=None):
        orders = tuple(int(n) for n in orders)
        if any(n <= 1 for n in orders):
            raise DimensionError("generator orders must be > 1")
        for a, b in zip(orders, orders[1:]):
            if b % a != 0:
                raise DimensionError("orders must form a divisibility chain")
        bilinear = Matrix(bilinear.data if isinstance(bilinear, Matrix) else bilinear)
        if bilinear.rows != len(orders) or bilinear.cols != len(orders):
            raise DimensionError("bilinear matrix size mismatch")
        bilinear = Matrix([[_mod1(x) for x in row] for row in bilinear.data])
        if not bilinear.is_symmetric():
            raise DimensionError("bilinear matrix must be symmetric")
        if any((n * x).denominator != 1 for n, row in zip(orders, bilinear.data) for x in row):
            raise DimensionError("bilinear values not well defined: need n_i * b_ij integral")
        if quadratic is not None:
            quadratic = tuple(_mod2(Fraction(x)) for x in quadratic)
            if len(quadratic) != len(orders):
                raise DimensionError("quadratic vector size mismatch")
            if any((x - bilinear.data[i][i]).denominator != 1 or n * n * x % 2
                   for i, (n, x) in enumerate(zip(orders, quadratic))):
                raise DimensionError(
                    "quadratic values not well defined: need q_i = b_ii mod 1 "
                    "and n_i^2 * q_i even"
                )
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "bilinear", bilinear)
        object.__setattr__(self, "quadratic", quadratic)

    def __setattr__(self, *_):
        raise AttributeError("FiniteForm is immutable")

    # -- group structure ----------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.orders)

    def group_order(self) -> int:
        return prod(self.orders)

    def reduce(self, x):
        """Reduce a tuple of integer coefficients modulo the generator orders."""
        if len(x) != self.ngens:
            raise DimensionError("element length does not match the generator count")
        try:
            return tuple(index(c) % n for c, n in zip(x, self.orders))
        except TypeError:  # not all ints: integral Fractions and floats pass
            return tuple(_integer(c) % n for c, n in zip(x, self.orders))

    def zero(self):
        return (0,) * self.ngens

    def add(self, x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, self.orders))

    def smul(self, t, x):
        return tuple((t * a) % n for a, n in zip(x, self.orders))

    def elements(self):
        """All group elements as coefficient tuples, lexicographic order."""
        return [t for t in product(*(range(n) for n in self.orders))]

    def element_order(self, x) -> int:
        o = 1
        for c, n in zip(x, self.orders):
            o = lcm(o, n // gcd(n, c))
        return o

    def _join(self, span, g):
        """The subgroup generated by the subgroup ``span`` and ``g``."""
        out = set(span)
        for t in range(1, self.element_order(g)):
            tg = self.smul(t, g)
            out.update(self.add(s, tg) for s in span)
        return frozenset(out)

    def subgroup(self, gens):
        """The subgroup generated by the given coefficient tuples."""
        span = frozenset([self.zero()])
        for g in gens:
            span = self._join(span, self.reduce(g))
        return span

    def all_subgroups(self):
        """Every subgroup, as a sorted list of frozensets of elements."""
        if self.group_order() > SEARCH_BOUND:
            raise GroupTooLarge("discriminant group exceeds the search bound")
        elements = self.elements()
        seen = {frozenset([self.zero()])}
        frontier = list(seen)
        while frontier:
            nxt = []
            for sub in frontier:
                for g in elements:
                    if g in sub:
                        continue
                    bigger = self._join(sub, g)
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.append(bigger)
            frontier = nxt
        return sorted(seen, key=lambda s: (len(s), sorted(s)))

    # -- form values --------------------------------------------------

    def b(self, x, y) -> Fraction:
        """Bilinear value in Q/Z, represented in [0, 1)."""
        x, y = self.reduce(x), self.reduce(y)
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi:
                row = self.bilinear.data[i]
                for j, yj in enumerate(y):
                    if yj:
                        total += xi * yj * row[j]
        return _mod1(total)

    def q(self, x) -> Fraction:
        """Quadratic value in Q/2Z, represented in [0, 2)."""
        if self.quadratic is None:
            raise DimensionError("no quadratic refinement on this form")
        x = self.reduce(x)
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi:
                total += xi * xi * self.quadratic[i]
                row = self.bilinear.data[i]
                for j in range(i + 1, self.ngens):
                    if x[j]:
                        total += 2 * xi * x[j] * row[j]
        return _mod2(total)

    def is_isotropic_subgroup(self, gens, use_quadratic):
        """Check isotropy of the subgroup generated by ``gens``.

        Bilinear isotropy (b integral on all pairs of generators) is
        always required; quadratic isotropy (q even on generators) is
        additionally required when ``use_quadratic`` is true.  Returns
        ``(ok, offending pair or None)``.
        """
        gens = [self.reduce(g) for g in gens]
        for i, g in enumerate(gens):
            for h in gens[: i + 1]:
                if self.b(g, h) != 0:
                    return False, (g, h)
            if use_quadratic and self.q(g) != 0:
                return False, (g, g)
        return True, None

    # -- serialization / equality -------------------------------------

    def to_json(self):
        obj = {
            "orders": list(self.orders),
            "bilinear": [[frac_to_str(x) for x in row] for row in self.bilinear.data],
        }
        if self.quadratic is not None:
            obj["quadratic"] = [frac_to_str(x) for x in self.quadratic]
        return obj

    @classmethod
    def from_json(cls, obj):
        quad = obj.get("quadratic")
        return cls(
            obj["orders"],
            [[str_to_frac(x) for x in row] for row in obj["bilinear"]],
            None if quad is None else [str_to_frac(x) for x in quad],
        )

    def __eq__(self, other):
        return (
            isinstance(other, FiniteForm)
            and self.orders == other.orders
            and self.bilinear == other.bilinear
            and self.quadratic == other.quadratic
        )

    def __hash__(self):
        return hash((self.orders, self.bilinear, self.quadratic))

    def __repr__(self):
        return f"FiniteForm(orders={self.orders})"


def trivial_form(quadratic: bool):
    """The finite form on the trivial group."""
    return FiniteForm((), Matrix.zeros(0, 0), () if quadratic else None)


# ---------------------------------------------------------------------------
# Backtracking isometry search
# ---------------------------------------------------------------------------


def _scaled_tables(f: FiniteForm, scale: int):
    """Integer tables of ``f`` on all elements, in ``elements()`` order.

    Returns ``(elements, coeff, pair, quad)``: the elements, their
    coefficient rows as an array, ``pair[i, j] = scale*b(x_i, x_j) mod
    scale`` and ``quad[i] = scale*q(x_i) mod 2*scale`` (``None`` without
    a quadratic refinement).  ``f`` must have a generator, and ``scale``
    must be a multiple of every generator order, which makes every
    scaled value an integer.
    """
    import numpy as np

    bs = np.array([[int(x * scale) for x in row] for row in f.bilinear.data], dtype=np.int64)
    elements = f.elements()
    coeff = np.array(elements, dtype=np.int64)
    raw = coeff @ bs @ coeff.T
    pair = raw % scale
    quad = None
    if f.quadratic is not None:
        qs = np.array([int(x * scale) for x in f.quadratic], dtype=np.int64)
        quad = (np.diagonal(raw) + (coeff * coeff) @ (qs - np.diagonal(bs))) % (2 * scale)
    return elements, coeff, pair, quad


def _search(a: FiniteForm, b: FiniteForm, use_quadratic: bool):
    """Backtrack over generator images; yield witness image tuples.

    A witness is a tuple of elements of ``b`` (one per generator of
    ``a``) defining a group isomorphism ``a -> b`` preserving the
    bilinear form (and quadratic form when requested) on generators —
    hence, by (bi)linearity, everywhere.  Witnesses come in
    lexicographic order of their element indices.
    """
    if a.group_order() > SEARCH_BOUND or b.group_order() > SEARCH_BOUND:
        raise GroupTooLarge("finite form exceeds the backtracking bound")
    if use_quadratic and (a.quadratic is None or b.quadratic is None):
        raise DimensionError("quadratic comparison requires quadratic refinements")
    if a.orders != b.orders:
        return
    k = a.ngens
    if k == 0:
        yield ()
        return

    import numpy as np

    orders = np.array(a.orders, dtype=np.int64)
    scale = lcm(*a.orders)
    ta = _scaled_tables(a, scale)
    _, coeff_a, pair_a, quad_a = ta
    elements_b, coeff_b, pair_b, quad_b = ta if b is a else _scaled_tables(b, scale)
    # generator e_i sits at the mixed-radix index prod(orders[i+1:])
    gidx = [prod(a.orders[i + 1:]) for i in range(k)]
    cross = pair_a[np.ix_(gidx, gidx)]
    order_b = np.lcm.reduce(orders // np.gcd(coeff_b, orders), axis=1)
    diag_b = np.diagonal(pair_b)
    pools = []
    for i, n in enumerate(a.orders):
        mask = (n % order_b == 0) & (diag_b == cross[i, i])
        if use_quadratic:
            mask &= quad_b == quad_a[gidx[i]]
        pools.append(np.nonzero(mask)[0])
    # The kernel of a b-preserving homomorphism pairs trivially with
    # everything, so it lies in the radical of a: the map is injective
    # (hence bijective, the orders being equal) iff it sends no nonzero
    # radical element to zero.
    radical = coeff_a[1:][~pair_a[1:].any(axis=1)]

    def rec(i, pools_i, chosen):
        if i == k:
            if not radical.size or ((radical @ coeff_b[chosen]) % orders).any(axis=1).all():
                yield tuple(elements_b[j] for j in chosen)
            return
        for x in pools_i[0]:
            nxt = []
            for off in range(i + 1, k):
                pool = pools_i[off - i]
                pool = pool[pair_b[pool, x] == cross[off, i]]
                if not pool.size:
                    break
                nxt.append(pool)
            else:
                chosen.append(int(x))
                yield from rec(i + 1, nxt, chosen)
                chosen.pop()

    yield from rec(0, pools, [])


def finite_form_isometric(a: FiniteForm, b: FiniteForm, compare="quadratic"):
    """Decide isometry of two finite forms.

    Args:
        compare: ``"quadratic"`` to require matching quadratic values,
            ``"bilinear"`` for the bilinear form only.

    Returns:
        A witness tuple of generator images (an explicit isomorphism
        ``a -> b``) if the forms are isometric, else ``None``.
    """
    return next(_search(a, b, compare == "quadratic"), None)


def finite_form_automorphisms(f: FiniteForm, compare="bilinear"):
    """Iterate over all form automorphisms of ``f`` as image tuples."""
    return _search(f, f, compare == "quadratic")


def apply_images(f: FiniteForm, images, x):
    """Apply the homomorphism defined by generator ``images`` to ``x``:
    one linear combination of the images, reduced once per coordinate."""
    coeffs = f.reduce(x)
    return tuple(sum(c * img[j] for c, img in zip(coeffs, images)) % n
                 for j, n in enumerate(f.orders))
