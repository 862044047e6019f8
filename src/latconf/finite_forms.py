"""Finite abelian groups with Q/Z bilinear (and Q/2Z quadratic) forms.

A :class:`FiniteForm` is the discriminant-form object: a finite abelian
group presented by generator orders (invariant factors, each dividing
the next), a symmetric matrix of bilinear values in Q/Z on the
generators, and optionally a vector of quadratic values in Q/2Z (present
exactly when the source lattice is even).  The constructor rejects
values that are not well defined on the group.

Isometry testing and automorphism enumeration share one exhaustive
depth-first search over generator images, bounded at group order
2**10.  A candidate image must have an order dividing its generator's
and the right form values against the images chosen so far; each
generator's candidates are a bitset over the elements (an int), so
choosing an image narrows every later pool with one AND against a mask
built once per search from the integer pair table.  Such an assignment
is a form-preserving homomorphism, and its kernel pairs trivially with
everything, so it lies in the radical of the source form.  Table folds
of the nonzero radical elements (none may map to zero) decide
bijectivity, for degenerate and nondegenerate forms; each is tested at
the first node whose choices fix its image, so no search walks the
subtree of a non-injective prefix.

Each form also carries element tables, built with numpy on first use
and cached on the instance: its elements in ``elements()`` order (mixed
radix, so index order is the lexicographic tuple order), a dict from
element to index, ``add[i][j]``, the index of x_i + x_j, and
``smul[t][i]``, the index of t*x_i for t below the largest generator
order.  The table rows are ``array('H')`` rows, so a form of 2**10
elements keeps them in a few MB.  Subgroup enumeration,
``apply_images`` and the isometry search run on element indices
through these tables; the public API speaks in coefficient tuples.
``subgroup`` stays in tuple arithmetic, so it needs no tables and
works on forms of any size.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import partial
from itertools import product
from math import gcd, lcm, prod
from numbers import Rational
from operator import index
from typing import NamedTuple

from .errors import DimensionError, GroupTooLarge
from .matrices import Matrix, frac_to_str, str_to_frac

SEARCH_BOUND = 2**10
# all_subgroups stops past this many subgroups; (Z/2)^8 has 417,199
SUBGROUP_BOUND = 2**14


def _integer(c) -> int:
    """``c`` as an int; only integral numbers pass, nothing is truncated."""
    if isinstance(c, Rational) and c.denominator == 1:
        return int(c)
    if isinstance(c, float) and c.is_integer():
        return int(c)
    raise DimensionError(f"coefficient {c!r} is not an integer")


class _ElementTables(NamedTuple):
    """Element tables of one form, see the module docstring."""

    elements: list  # coefficient tuples in index order
    index: dict  # coefficient tuple -> index
    coeff: object  # (N, k) int64 array of the coefficient rows
    add: list  # add[i][j] = index of x_i + x_j, array('H') rows
    smul: list  # smul[t][i] = index of t * x_i, array('H') rows


def _element_tables(orders) -> _ElementTables:
    """Build the tables with numpy, one mixed-radix digit at a time."""
    import numpy as np

    elements = list(product(*(range(n) for n in orders)))
    size = len(elements)
    coeff = np.array(elements, dtype=np.int64).reshape(size, len(orders))
    add = np.zeros((size, size), dtype=np.int32)
    scalars = np.arange(max(orders, default=1), dtype=np.int32)[:, None]
    smul = np.zeros((len(scalars), size), dtype=np.int32)
    for j, n in enumerate(orders):
        radix = prod(orders[j + 1:])
        digit = coeff[:, j].astype(np.int32)
        add += (digit[:, None] + digit) % n * radix
        smul += scalars * digit % n * radix

    def rows(table):
        return [array("H", row.tobytes()) for row in table.astype(np.uint16)]

    return _ElementTables(elements, {x: i for i, x in enumerate(elements)},
                          coeff, rows(add), rows(smul))


def _join(span, g, translate):
    """The subgroup generated by the subgroup ``span`` and ``g``, as a
    union of cosets of ``span``; ``translate(x)`` maps s to x + s."""
    out = set(span)
    x = g
    while x not in span:
        shift = translate(x)
        out.update(map(shift, span))
        x = shift(g)
    return frozenset(out)


class FiniteForm:
    """Finite bilinear/quadratic form module on canonical generators."""

    __slots__ = ("orders", "bilinear", "quadratic", "_scale", "_gram", "_qvec", "_cache")

    def __init__(self, orders, bilinear, quadratic=None):
        orders = tuple(int(n) for n in orders)
        if any(n <= 1 for n in orders):
            raise DimensionError("generator orders must be > 1")
        for a, b in zip(orders, orders[1:]):
            if b % a != 0:
                raise DimensionError("orders must form a divisibility chain")
        bilinear = bilinear if isinstance(bilinear, Matrix) else Matrix(bilinear)
        if bilinear.rows != len(orders) or bilinear.cols != len(orders):
            raise DimensionError("bilinear matrix size mismatch")
        den = bilinear.den  # x % den keeps gcd(den, x), so den stays the denominator
        num = [[x % den for x in row] for row in bilinear.num]
        bilinear = Matrix.from_integers(num, den, len(orders))
        if not bilinear.is_symmetric():
            raise DimensionError("bilinear matrix must be symmetric")
        if any(n * x % den for n, row in zip(orders, num) for x in row):
            raise DimensionError("bilinear values not well defined: need n_i * b_ij integral")
        if quadratic is not None:
            quadratic = tuple(Fraction(x) % 2 for x in quadratic)
            if len(quadratic) != len(orders):
                raise DimensionError("quadratic vector size mismatch")
            if any((x * den - row[i]) % den or n * n * x % 2
                   for i, (n, x, row) in enumerate(zip(orders, quadratic, num))):
                raise DimensionError(
                    "quadratic values not well defined: need q_i = b_ii mod 1 "
                    "and n_i^2 * q_i even"
                )
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "bilinear", bilinear)
        object.__setattr__(self, "quadratic", quadratic)
        scale = orders[-1] if orders else 1  # den divides it; it makes every form value an integer
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_gram", [[x * (scale // den) for x in row] for row in num])
        qvec = None if quadratic is None else [int(x * scale) for x in quadratic]
        object.__setattr__(self, "_qvec", qvec)
        object.__setattr__(self, "_cache", None)

    def __setattr__(self, *_):
        raise AttributeError("FiniteForm is immutable")

    def _tables(self) -> _ElementTables:
        """The element tables, built on first use (group order at most
        ``SEARCH_BOUND``)."""
        if self._cache is None:
            if self.group_order() > SEARCH_BOUND:
                raise GroupTooLarge("finite form exceeds the element-table bound")
            object.__setattr__(self, "_cache", _element_tables(self.orders))
        return self._cache

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

    def subgroup(self, gens):
        """The subgroup generated by the given coefficient tuples."""
        span = frozenset([self.zero()])
        for g in gens:
            span = _join(span, self.reduce(g), lambda x: partial(self.add, x))
        return span

    def all_subgroups(self):
        """Every subgroup, as a sorted list of frozensets of elements."""
        if self.group_order() > SEARCH_BOUND:
            raise GroupTooLarge("discriminant group exceeds the search bound")
        t = self._tables()
        shifts = [row.__getitem__ for row in t.add]
        seen = {frozenset([0])}
        frontier = list(seen)
        while frontier:
            nxt = []
            for sub in frontier:
                for g in range(len(shifts)):
                    if g in sub:
                        continue
                    bigger = _join(sub, g, shifts.__getitem__)
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.append(bigger)
                        if len(seen) > SUBGROUP_BOUND:
                            raise GroupTooLarge(f"over {SUBGROUP_BOUND} subgroups")
            frontier = nxt
        # index order is the lexicographic element order
        ordered = sorted(seen, key=lambda s: (len(s), sorted(s)))
        return [frozenset(map(t.elements.__getitem__, s)) for s in ordered]

    # -- form values --------------------------------------------------

    def _pair(self, x, y) -> int:
        """``scale * b(x, y)`` before reduction, for reduced x and y."""
        return sum(a * b * g for a, row in zip(x, self._gram) for b, g in zip(y, row))

    def b(self, x, y) -> Fraction:
        """Bilinear value in Q/Z, represented in [0, 1)."""
        return Fraction(self._pair(self.reduce(x), self.reduce(y)) % self._scale,
                        self._scale)

    def q(self, x) -> Fraction:
        """Quadratic value in Q/2Z, represented in [0, 2)."""
        if self.quadratic is None:
            raise DimensionError("no quadratic refinement on this form")
        x = self.reduce(x)
        total = self._pair(x, x) + sum(
            a * a * (qa - row[i])
            for i, (a, qa, row) in enumerate(zip(x, self._qvec, self._gram)))
        return Fraction(total % (2 * self._scale), self._scale)

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
                if self._pair(g, h) % self._scale:
                    return False, (g, h)
            if use_quadratic and self.q(g) != 0:
                return False, (g, g)
        return True, None

    # -- serialization / equality -------------------------------------

    def to_json(self):
        obj = {
            "orders": list(self.orders),
            "bilinear": self.bilinear.to_json()["entries"],
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


def _scaled_tables(f: FiniteForm):
    """Integer tables of ``f`` on all elements, in ``elements()`` order.

    Returns ``(elements, coeff, pair, quad)``: the elements and their
    coefficient rows as an array (both from the element tables),
    ``pair[i, j] = scale*b(x_i, x_j) mod scale`` and ``quad[i] =
    scale*q(x_i) mod 2*scale`` (``None`` without a quadratic
    refinement), ``scale`` the largest generator order; ``f`` must have
    a generator.  These are the values ``b`` and ``q`` compute.
    """
    import numpy as np

    scale = f._scale
    bs = np.array(f._gram, dtype=np.int64)
    elements, _, coeff, _, _ = f._tables()
    raw = coeff @ bs @ coeff.T
    pair = raw % scale
    quad = None
    if f.quadratic is not None:
        qs = np.array(f._qvec, dtype=np.int64)
        quad = (np.diagonal(raw) + (coeff * coeff) @ (qs - np.diagonal(bs))) % (2 * scale)
    return elements, coeff, pair, quad


def _search(a: FiniteForm, b: FiniteForm, compare: str):
    """Depth-first search over generator images; yield witness image tuples.

    A witness is a tuple of elements of ``b`` (one per generator of
    ``a``) defining a group isomorphism ``a -> b`` preserving the
    bilinear form (and quadratic form when requested) on generators —
    hence, by (bi)linearity, everywhere.  Pools are bitsets over the
    elements of ``b``, narrowed with one AND per later generator by
    ``masks[v][x]``, the elements y with ``scale*b(y, x) = v``.  An
    explicit stack takes the bits lowest first, so witnesses come in
    lexicographic order of their element indices.
    """
    if a.group_order() > SEARCH_BOUND or b.group_order() > SEARCH_BOUND:
        raise GroupTooLarge("finite form exceeds the backtracking bound")
    if compare not in ("bilinear", "quadratic"):
        raise DimensionError(f"compare must be 'bilinear' or 'quadratic', not {compare!r}")
    use_quadratic = compare == "quadratic"
    if use_quadratic and (a.quadratic is None or b.quadratic is None):
        raise DimensionError("quadratic comparison requires quadratic refinements")
    if a.orders != b.orders:
        return
    k = a.ngens
    if k == 0:
        yield ()
        return

    import numpy as np

    def bits(rows):  # row r of a boolean array as an int, bit j for rows[r, j]
        return [int.from_bytes(r.tobytes(), "little")
                for r in np.packbits(rows, axis=1, bitorder="little")]

    ta = _scaled_tables(a)
    elements_a, _, pair_a, quad_a = ta
    elements_b, coeff_b, pair_b, quad_b = ta if b is a else _scaled_tables(b)
    # generator e_i sits at the mixed-radix index prod(orders[i+1:])
    gidx = [prod(a.orders[i + 1:]) for i in range(k)]
    cross = pair_a[np.ix_(gidx, gidx)].tolist()
    # candidates for e_i: n_i * y = 0 and the values of e_i
    orders = np.array(a.orders)
    keep = (orders[:, None, None] * coeff_b % orders == 0).all(axis=2)
    keep &= np.diagonal(pair_b) == np.diagonal(pair_a)[gidx][:, None]
    if use_quadratic:
        keep &= quad_b == quad_a[gidx][:, None]
    pools = bits(keep)
    masks = {v: bits(pair_b.T == v) for v in {cross[o][i] for o in range(k) for i in range(o)}}
    tails = [[masks[cross[o][i]] for o in range(i + 1, k)] for i in range(k)]
    # The kernel of a b-preserving homomorphism pairs trivially with
    # everything, so the map is bijective iff no nonzero element of the
    # radical of a maps to zero.  radical[i]: those whose last nonzero
    # coefficient is at e_i, whose images the choices for e_0..e_i fix.
    radical = [[] for _ in range(k)]
    for r in np.flatnonzero(~pair_a[1:].any(axis=1)) + 1:
        coeffs = elements_a[r]
        last = max(j for j, c in enumerate(coeffs) if c)
        radical[last].append(coeffs[: last + 1])
    _, _, _, add, smul = b._tables()
    # stack[i]: the untried images of e_i, then the pools of e_{i+1}, ...
    chosen, stack = [0] * k, [pools]
    while stack:
        i, pool = len(stack) - 1, stack[-1]
        rest = pool[0]
        if not rest:
            stack.pop()
            continue
        low = rest & -rest
        pool[0] = rest ^ low
        x = chosen[i] = low.bit_length() - 1
        for coeffs in radical[i]:
            total = 0
            for c, y in zip(coeffs, chosen):
                if c:
                    total = add[total][smul[c][y]]
            if not total:
                break
        else:
            if i == k - 1:
                yield tuple(map(elements_b.__getitem__, chosen))
                continue
            nxt = [p & m[x] for p, m in zip(pool[1:], tails[i])]
            if all(nxt):
                stack.append(nxt)


def finite_form_isometric(a: FiniteForm, b: FiniteForm, compare="quadratic"):
    """Decide isometry of two finite forms.

    Args:
        compare: ``"quadratic"`` to require matching quadratic values,
            ``"bilinear"`` for the bilinear form only; any other value
            raises ``DimensionError``.

    Returns:
        A witness tuple of generator images (an explicit isomorphism
        ``a -> b``) if the forms are isometric, else ``None``.
    """
    return next(_search(a, b, compare), None)


def finite_form_automorphisms(f: FiniteForm, compare="bilinear"):
    """Iterate over all form automorphisms of ``f`` as image tuples
    (``compare`` as in :func:`finite_form_isometric`)."""
    return _search(f, f, compare)


def apply_images(f: FiniteForm, images, x):
    """Apply the homomorphism defined by generator ``images`` to ``x``:
    the sum of c_i * images[i] over the nonzero coefficients c_i of
    ``x``, by table lookups."""
    if len(images) != len(f.orders):
        raise DimensionError("need one image per generator")
    if f.group_order() > SEARCH_BOUND:  # too large for tables
        images = [f.reduce(img) for img in images]
        return tuple(sum(c * img[j] for c, img in zip(f.reduce(x), images)) % n
                     for j, n in enumerate(f.orders))
    elements, index, _, add, smul = f._tables()
    try:
        coeffs, ids = elements[index[x]], [index[img] for img in images]
    except (KeyError, TypeError):  # unreduced, malformed or unhashable
        coeffs, ids = f.reduce(x), [index[f.reduce(img)] for img in images]
    total = 0
    for c, img in zip(coeffs, ids):
        if c:
            total = add[total][smul[c][img]]
    return elements[total]
