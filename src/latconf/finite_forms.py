"""Finite abelian groups with Q/Z bilinear (and Q/2Z quadratic) forms.

A :class:`FiniteForm` is the discriminant-form object: a finite abelian
group presented by generator orders (invariant factors, each dividing
the next), a symmetric matrix of bilinear values in Q/Z on the
generators, and optionally a vector of quadratic values in Q/2Z (present
exactly when the source lattice is even).  The constructor rejects
values that are not well defined on the group.

Isometry testing and the automorphism group share one depth-first
search over generator images from a pinned prefix, bounded at group
order 2**10.  A candidate image must have an order dividing its
generator's and the right form values against the images chosen so
far; each generator's candidates are a bitset over the elements (an
int), so choosing an image narrows every later pool with one AND
against a mask built once per set-up from the integer pair table, and a
pinned generator's pool is the one bit of its image.  Such an
assignment is a form-preserving homomorphism, and its kernel pairs
trivially with everything, so it lies in the radical of the source
form.  Table folds of the nonzero radical elements (none may map to
zero) decide bijectivity, for degenerate and nondegenerate forms; each
is tested at the first node whose choices fix its image, so no search
walks the subtree of a non-injective prefix.

``finite_form_isometric`` takes the first witness from the empty
prefix.  The automorphism group is read off a stabilizer chain (Sims;
Seress, *Permutation Group Algorithms*, ch. 4) along the base e_0, ...,
e_{k-1}: level i pins e_0..e_{i-1} to themselves, and the candidates x
for e_i that the search completes form the basic orbit Δ_i, one witness
t_x each, so |Aut| = ∏|Δ_i| and the witnesses generate Aut.
``finite_form_automorphisms`` enumerates by coset products: the
automorphisms that agree with p on e_0..e_{i-1} are p∘G^(i), where G^(i)
fixes e_0..e_{i-1}, and they take e_i to p(Δ_i), so the walk descends
into p∘t_x∘G^(i+1) for x by increasing p(x).  A coset of at most
``BATCH_BOUND`` elements comes out as one sorted batch.  The chain is
filled on demand, so the first automorphism of a huge group comes out
after one search.

Each form also carries element tables, built with numpy on first use
and cached on the instance: its elements in ``elements()`` order (mixed
radix, so index order is the lexicographic tuple order), a dict from
element to index, ``add[i][j]``, the index of x_i + x_j, and
``terms[i]``, a pair ``(j, smul[c_j])`` for each nonzero coefficient c_j
of x_i, where ``smul[t][y]`` is the index of t*x_y, and the scaled form
values: ``pair[i, j]``, ``scale*b(x_i, x_j) mod scale``, and ``quad[i]``,
``scale*q(x_i) mod 2*scale``.  The ``add`` rows are ``array('H')`` rows
and ``pair`` is int16, so a form of 2**10 elements keeps its tables in
a few MB.  ``apply_images`` folds ``add`` over the row ``terms[i]``
only, and the isometry search folds its radical elements the same way.
Its callers apply one automorphism to several elements in a row, so
each form keeps a one-entry memo, the last tuple of images it resolved
with their element indices: a call with that same tuple object skips
the lookups.  Only a tuple whose images were all found as elements is
kept (the memo's reference keeps it alive and its entries fixed); lists
and unreduced images are looked up on every call.
The search and the subgroup walk read ``pair`` and ``quad`` off the same
tables, so each form builds them once.  Subgroup enumeration runs on
element indices too; the public API speaks in coefficient tuples.

Subgroups come from one walk from {0} that joins one element at a time.
``isotropic_subgroups`` lets a subgroup join only the isotropic elements
orthogonal to it, a bitset narrowed by one AND with the orthogonal set
of each element joined (read off the integer pair table).  Every
intermediate subgroup of an isotropic one is then isotropic, so the
walk reaches every isotropic subgroup and no other.  ``all_subgroups``
is the same walk on the zero form, where every subgroup is isotropic.
``subgroup`` stays in tuple arithmetic, so it needs no tables and works
on forms of any size; ``subgroup_order`` reads the order off one Hermite
form without listing the subgroup.
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
from .matrices import Matrix, frac_to_str, hnf, str_to_frac

SEARCH_BOUND = 2**10
# The automorphism walk sorts a coset p∘G^(i) in one batch once the
# candidate counts of e_i..e_{k-1} bound |G^(i)| by this.  A batch first
# tests every candidate below it, so the bound stays under the element
# count of a form at SEARCH_BOUND: the first automorphism of the zero
# form on (Z/2)^10 takes one search, not a test of 1,024 candidates.
BATCH_BOUND = 2**9
# the subgroup walk stops past this many subgroups; (Z/2)^8 has 417,199
SUBGROUP_BOUND = 2**14
# the initial images of apply_images's memo: no caller passes this object
_NO_IMAGES = object()


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
    terms: list  # terms[i] = ((j, smul[c_j]) for each nonzero c_j of x_i)
    pair: object  # (N, N) int16 array, scale*b(x_i, x_j) mod scale
    quad: object  # (N,) int64 array, scale*q(x_i) mod 2*scale, or None


def _element_tables(f: FiniteForm) -> _ElementTables:
    """Build the tables with numpy, one mixed-radix digit at a time;
    ``pair`` and ``quad`` are the values ``b`` and ``q`` compute, times
    ``scale``, the largest generator order (at most ``SEARCH_BOUND``, so
    ``pair`` fits int16)."""
    import numpy as np

    orders = f.orders
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

    smul = rows(smul)
    steps = [[(j, row) for row in smul[:n]] for j, n in enumerate(orders)]
    terms = [tuple(steps[j][c] for j, c in enumerate(x) if c) for x in elements]
    bs = np.array(f._gram, dtype=np.int64).reshape(len(orders), len(orders))
    raw = coeff @ bs @ coeff.T
    quad = None
    if f.quadratic is not None:
        qs = np.array(f._qvec, dtype=np.int64)
        quad = (np.diagonal(raw) + (coeff * coeff) @ (qs - np.diagonal(bs))) % (2 * f._scale)
    return _ElementTables(elements, {x: i for i, x in enumerate(elements)},
                          coeff, rows(add), terms, (raw % f._scale).astype(np.int16), quad)


def _bits(rows):
    """Row r of a boolean array as an int, bit j for ``rows[r, j]``."""
    import numpy as np

    return [int.from_bytes(r.tobytes(), "little")
            for r in np.packbits(rows, axis=1, bitorder="little")]


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

    __slots__ = ("orders", "bilinear", "quadratic", "_scale", "_gram", "_qvec", "_cache", "_last")

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
        object.__setattr__(self, "_last", (_NO_IMAGES, None))  # apply_images's memo

    def __setattr__(self, *_):
        raise AttributeError("FiniteForm is immutable")

    def _tables(self) -> _ElementTables:
        """The element tables, built on first use (group order at most
        ``SEARCH_BOUND``)."""
        if self._cache is None:
            if self.group_order() > SEARCH_BOUND:
                raise GroupTooLarge("finite form exceeds the element-table bound")
            object.__setattr__(self, "_cache", _element_tables(self))
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

    def subgroup_order(self, gens) -> int:
        """Order of the subgroup generated by ``gens``, without listing
        it: |A| over the index in Z^k of the span of the rows n_i·e_i and
        the generators, the product of its Hermite pivots."""
        k = self.ngens
        rows = [[n * (i == j) for j in range(k)] for i, n in enumerate(self.orders)]
        h = hnf(Matrix.from_integers(rows + [self.reduce(g) for g in gens], 1, k))
        return self.group_order() // prod(h.num[i][i] for i in range(k))

    def all_subgroups(self):
        """Every subgroup, as a sorted list of frozensets of elements: the
        isotropic subgroups of the zero form on the same group."""
        zero = FiniteForm(self.orders, Matrix.zeros(self.ngens, self.ngens))
        return zero.isotropic_subgroups()

    def isotropic_subgroups(self):
        """Every subgroup on which the bilinear form vanishes, sorted by
        (order, element indices): the walk from {0} joining one element
        at a time, each subgroup carrying the bitset of the isotropic
        elements orthogonal to it that it may join."""
        t = self._tables()
        orth = _bits(t.pair == 0)
        allowed = sum(1 << i for i, row in enumerate(orth) if row >> i & 1)
        shifts = [row.__getitem__ for row in t.add]
        seen = {frozenset([0]): allowed}
        frontier = list(seen)
        while frontier:
            nxt = []
            for sub in frontier:
                free = rest = seen[sub]
                while rest:
                    low = rest & -rest
                    rest ^= low
                    g = low.bit_length() - 1
                    if g in sub:
                        continue
                    bigger = _join(sub, g, shifts.__getitem__)
                    if bigger not in seen:
                        seen[bigger] = free & orth[g]
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


class _Search:
    """The set-up of a search ``a -> b``: ``pools[i]``, the candidates
    for e_i as a bitset over the elements of ``b``; ``tails[i][o]``, the
    masks that narrow the pool of e_{i+1+o} once e_i is chosen;
    ``radical[i]``, the term rows of the radical elements of ``a`` whose
    images the choices for e_0..e_i fix; ``add``, the addition table of
    ``b``; ``elements``, the elements of ``b`` in index order; and
    ``gidx[i]``, the index of e_i."""

    __slots__ = ("pools", "tails", "radical", "add", "elements", "gidx")

    def __init__(self, pools, tails, radical, add, elements, gidx):
        self.pools, self.tails, self.radical = pools, tails, radical
        self.add, self.elements, self.gidx = add, elements, gidx


def _prepare(a: FiniteForm, b: FiniteForm, compare: str):
    """The search set-up for ``a -> b``, or None when the generator
    orders differ (so no isomorphism exists).

    Pools are bitsets over the elements of ``b``, narrowed with one AND
    per later generator by ``masks[v][x]``, the elements y with
    ``scale*b(y, x) = v``.
    """
    if a.group_order() > SEARCH_BOUND or b.group_order() > SEARCH_BOUND:
        raise GroupTooLarge("finite form exceeds the backtracking bound")
    if compare not in ("bilinear", "quadratic"):
        raise DimensionError(f"compare must be 'bilinear' or 'quadratic', not {compare!r}")
    use_quadratic = compare == "quadratic"
    if use_quadratic and (a.quadratic is None or b.quadratic is None):
        raise DimensionError("quadratic comparison requires quadratic refinements")
    if a.orders != b.orders:
        return None
    k = a.ngens
    if k == 0:
        return _Search([], [], [], None, [], [])

    import numpy as np

    ta, tb = a._tables(), b._tables()
    # generator e_i sits at the mixed-radix index prod(orders[i+1:])
    gidx = [prod(a.orders[i + 1:]) for i in range(k)]
    cross = ta.pair[np.ix_(gidx, gidx)].tolist()
    # candidates for e_i: n_i * y = 0 and the values of e_i
    orders = np.array(a.orders)
    keep = (orders[:, None, None] * tb.coeff % orders == 0).all(axis=2)
    keep &= np.diagonal(tb.pair) == np.diagonal(ta.pair)[gidx][:, None]
    if use_quadratic:
        keep &= tb.quad == ta.quad[gidx][:, None]
    pools = _bits(keep)
    masks = {v: _bits(tb.pair.T == v) for v in {cross[o][i] for o in range(k) for i in range(o)}}
    tails = [[masks[cross[o][i]] for o in range(i + 1, k)] for i in range(k)]
    # The kernel of a b-preserving homomorphism pairs trivially with
    # everything, so the map is bijective iff no nonzero element of the
    # radical of a maps to zero.  radical[i]: the term rows of those
    # whose last nonzero coefficient is at e_i, whose images the choices
    # for e_0..e_i fix.  Equal orders give a and b the same term rows.
    terms, add = ta.terms, tb.add
    radical = [[] for _ in range(k)]
    for r in np.flatnonzero(~ta.pair[1:].any(axis=1)) + 1:
        radical[terms[r][-1][0]].append(terms[r])
    return _Search(pools, tails, radical, add, tb.elements, gidx)


def _dfs(s: _Search, prefix=()):
    """Depth-first search over generator images from a pinned prefix:
    yield, in lexicographic order, the tuples of element indices that
    begin with ``prefix`` and define a group isomorphism ``a -> b``
    preserving the bilinear form (and quadratic form when requested) on
    generators — hence, by (bi)linearity, everywhere.

    An explicit stack takes the bits lowest first; a pinned generator's
    pool is the one bit of its image, so the prefix is checked like any
    other choice.
    """
    k = len(s.pools)
    if k == 0:
        yield ()
        return
    pools = [p & (1 << x) for p, x in zip(s.pools, prefix)] + s.pools[len(prefix):]
    radical, tails, add = s.radical, s.tails, s.add
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
        for steps in radical[i]:
            total = 0
            for j, row in steps:
                total = add[total][row[chosen[j]]]
            if not total:
                break
        else:
            if i == k - 1:
                yield tuple(chosen)
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
    search = _prepare(a, b, compare)
    found = None if search is None else next(_dfs(search), None)
    return None if found is None else tuple(map(search.elements.__getitem__, found))


class _Chain:
    """The stabilizer chain of Aut(f) along the base e_0, ..., e_{k-1}
    (see the module docstring), filled on demand from one set-up.

    ``orbit[i]`` maps each x tested for e_i to its witness t_x, an
    element of G^(i) sending e_i to x held as a permutation of the
    element indices (a numpy index array), or to None when x is not in
    Δ_i.  Only the x in ``candidates[i]``, the pool of e_i narrowed by
    e_0..e_{i-1} fixed, can be in Δ_i.
    """

    def __init__(self, f, search):
        import numpy as np

        t = f._tables()
        self.search, self.coeff, self.orders = search, t.coeff, np.array(f.orders)
        size = len(t.elements)
        self.identity = np.arange(size)
        gidx, tails = search.gidx, search.tails
        self.orbit = [{g: self.identity} for g in gidx]
        self.candidates = []
        for i, bits in enumerate(search.pools):
            for j in range(i):
                bits &= tails[j][i - j - 1][gidx[j]]
            self.candidates.append(np.array([x for x in range(size) if bits >> x & 1]))
        # bound[i] >= |G^(i)|, from the candidate counts alone
        self.bound = [prod(map(len, self.candidates[i:])) for i in range(len(gidx) + 1)]
        self.rows = {len(gidx): np.array([gidx])}

    def complete(self, i, p, y):
        """Whether y is in Δ_i: the search from the prefix p(e_0), ...,
        p(e_{i-1}), p(y), for an automorphism p.  Record the witness
        p^{-1}∘σ for the least completion σ, and return σ as a
        permutation (coefficient rows times its image rows, reduced and
        read in the mixed radix, which is ``gidx``), or None."""
        gidx = self.search.gidx
        found = next(_dfs(self.search, p[gidx[:i] + [y]].tolist()), None)
        if found is None:
            self.orbit[i][y] = None
            return None
        sigma = self.coeff @ self.coeff[list(found)] % self.orders @ gidx
        self.orbit[i][y] = p.argsort()[sigma]
        return sigma

    def fill(self, i):
        """Test every candidate for e_i, ..., e_{k-1}."""
        for j in range(i, len(self.orbit)):
            for y in self.candidates[j].tolist():
                if y not in self.orbit[j]:
                    self.complete(j, self.identity, y)

    def images(self, i):
        """The generator images of every element of G^(i), one row of
        element indices each: the products t_x∘h for x in Δ_i and h in
        G^(i+1)."""
        if i not in self.rows:
            import numpy as np

            self.fill(i)
            below = self.images(i + 1)
            transversal = [t for t in self.orbit[i].values() if t is not None]
            self.rows[i] = np.concatenate([t[below] for t in transversal])
        return self.rows[i]

    def walk(self, i, p, least):
        """The coset p∘G^(i) as arrays of index rows, in lexicographic
        order: by increasing p(x) for x in Δ_i, the coset p∘t_x∘G^(i+1),
        or the whole coset sorted at once when ``bound[i]`` is at most
        ``BATCH_BOUND``.  ``least`` says that p is the least element of
        its coset, as the least completion of a prefix is, so no x with
        p(x) < p(e_i) is in Δ_i."""
        import numpy as np

        if self.bound[i] <= BATCH_BOUND:
            rows = p[self.images(i)]
            yield rows[np.lexsort(rows.T[::-1])]
            return
        orbit, g, ys = self.orbit[i], self.search.gidx[i], self.candidates[i]
        if least:
            below = p[ys] < p[g]
            orbit.update(dict.fromkeys(ys[below].tolist()))
            ys = ys[~below]
        for y in ys[np.argsort(p[ys])].tolist():
            if y not in orbit:
                sigma = self.complete(i, p, y)
                if sigma is not None:
                    yield from self.walk(i + 1, sigma, True)
            elif y == g:
                yield from self.walk(i + 1, p, least)
            elif orbit[y] is not None:
                yield from self.walk(i + 1, p[orbit[y]], False)


def finite_form_automorphisms(f: FiniteForm, compare="bilinear"):
    """Iterate lazily over all form automorphisms of ``f`` as image
    tuples, in lexicographic order (``compare`` as in
    :func:`finite_form_isometric`).  They are coset products read off a
    stabilizer chain that the isometry search fills on demand (see the
    module docstring), so the first comes out after one search."""
    search = _prepare(f, f, compare)
    if not f.orders:
        yield ()
        return

    import numpy as np

    chain = _Chain(f, search)
    elements = np.fromiter(search.elements, dtype=object, count=len(search.elements))
    for rows in chain.walk(0, chain.identity, False):
        yield from map(tuple, elements[rows].tolist())


def stabilizer_chain(f: FiniteForm, compare="bilinear"):
    """The transversals of the stabilizer chain of Aut(f) along the base
    e_0, ..., e_{k-1}: for each generator e_i, the image tuples of
    automorphisms fixing e_0..e_{i-1}, one sending e_i to each x in its
    basic orbit Δ_i, by increasing x.  |Aut(f)| is the product of their
    lengths, and together they generate Aut(f) (``compare`` as in
    :func:`finite_form_isometric`)."""
    search = _prepare(f, f, compare)
    if not f.orders:
        return []
    chain = _Chain(f, search)
    chain.fill(0)
    gidx = search.gidx
    return [[tuple(map(search.elements.__getitem__, orbit[x][gidx].tolist()))
             for x in sorted(orbit) if orbit[x] is not None] for orbit in chain.orbit]


def apply_images(f: FiniteForm, images, x):
    """Apply the homomorphism defined by generator ``images`` to ``x``:
    the sum of c_j * images[j] over the nonzero coefficients c_j of
    ``x``, folded over its row of the term table.  Every image is looked
    up, also one at a zero coefficient, so each must be an element.
    A call with the tuple the form memoised last (see the module
    docstring) reuses its indices; lists, unreduced images and forms
    above ``SEARCH_BOUND`` are resolved on every call."""
    t, (last, ids) = f._cache, f._last
    if images is not last:
        if len(images) != len(f.orders):
            raise DimensionError("need one image per generator")
        if t is None:
            if f.group_order() > SEARCH_BOUND:  # too large for tables
                images = [f.reduce(img) for img in images]
                return tuple(sum(c * img[j] for c, img in zip(f.reduce(x), images)) % n
                             for j, n in enumerate(f.orders))
            t = f._tables()
        try:
            ids = list(map(t.index.__getitem__, images))
        except (KeyError, TypeError):  # unreduced, malformed or unhashable
            ids = [t.index[f.reduce(img)] for img in images]
        else:
            if type(images) is tuple:
                object.__setattr__(f, "_last", (images, ids))
    try:
        steps = t.terms[t.index[x]]
    except (KeyError, TypeError):
        steps = t.terms[t.index[f.reduce(x)]]
    add, total = t.add, 0
    for j, row in steps:
        total = add[total][row[ids[j]]]
    return t.elements[total]
