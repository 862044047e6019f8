"""Quadratic lattices over Z given by rational Gram matrices.

A :class:`Lattice` is a free Z-module with a symmetric nondegenerate
rational Gram matrix.  Integrality and evenness are queryable
predicates, not assumptions (scaled hyperbolic planes like H(1/2) are
representable).  A :class:`Sublattice` is a full-row-rank integer
coordinate matrix inside an ambient lattice.

The module implements signatures and short vectors (integer congruence
diagonalization), discriminant forms via Smith normal form, indices,
saturations and orthogonal complements (HNF integer kernels), overlattice
gluing along isotropic discriminant subgroups, integral overlattice
enumeration, binary Gauss reduction and the two-adic index-exponent formula.

Gluing works on integer rows: the glue rows over one denominator go
through one Hermite form, and the glued Gram is an integer product.  An
overlattice of index k is unimodular iff |det L| = k², so enumeration
takes one determinant, of L.

A lattice derives its discriminant data once, on first use, from one
Smith decomposition d = u·G·v: the form and the generator lifts (rows
of u) and the coefficients of dual vectors (through v).  Every call
returns the same form object, so its element tables are built once too.

Isometry of small lattices is a bool decision, True only when shown:
rank, signature and |det| first, then a lazy search for an isometry
(definite pairs) or the invariant triple (indefinite integral pairs).
The search yields only unimodular maps, because it yields nothing for
lattices of different |det|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import gcd, isqrt, lcm, prod
from operator import mul

from .errors import (
    DegenerateGram,
    DimensionError,
    InvalidName,
    NonIntegralLattice,
    IntegralityViolation,
)
from .finite_forms import FiniteForm, finite_form_isometric
from .matrices import Matrix, hnf, integer_kernel, snf, solve_rows


class Lattice:
    """Free Z-module with a symmetric nondegenerate rational Gram matrix."""

    __slots__ = ("gram", "name", "_disc")

    def __init__(self, gram, name=None):
        gram = gram if isinstance(gram, Matrix) else Matrix(gram)
        if not gram.is_symmetric():
            raise DimensionError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_disc", None)

    def __setattr__(self, *_):
        raise AttributeError("Lattice is immutable")

    @property
    def n(self) -> int:
        return self.gram.rows

    def det(self) -> Fraction:
        return self.gram.det()

    def is_integral(self) -> bool:
        return self.gram.is_integral()

    def parity(self) -> str:
        """``"even"`` or ``"odd"``; requires an integral lattice.

        A lattice is even iff every diagonal Gram entry is even (then
        all self-pairings are even by bilinearity).
        """
        if not self.is_integral():
            raise NonIntegralLattice("parity requires an integral Gram matrix")
        even = all(row[i] % 2 == 0 for i, row in enumerate(self.gram.num))
        return "even" if even else "odd"

    def is_unimodular(self) -> bool:
        return abs(self.det()) == 1

    def signature(self):
        """(positive, negative) inertia counts: d_i > 0 where p_i, p_{i-1} agree in sign."""
        pivots, _ = _diagonalize(self.gram.num)
        pos = sum(1 for p, q in zip([1] + pivots, pivots) if (p > 0) == (q > 0))
        return pos, len(pivots) - pos

    # -- construction helpers -----------------------------------------

    def direct_sum(self, other: "Lattice") -> "Lattice":
        n, m = self.n, other.n
        a, b = self.gram, other.gram
        den = lcm(a.den, b.den)
        rows = [[x * (den // a.den) for x in row] + [0] * m for row in a.num]
        rows += [[0] * n + [x * (den // b.den) for x in row] for row in b.num]
        return Lattice(Matrix.from_integers(rows, den, n + m))

    def rescale(self, c) -> "Lattice":
        c = Fraction(c)
        if c == 0:
            raise DimensionError("rescale factor must be nonzero")
        return Lattice(self.gram.scale(c))

    # -- discriminant form --------------------------------------------

    def _discriminant(self):
        """``(form, lifts, divisors, v)`` from one Smith decomposition
        d = u·G·v, derived on first use and kept: the form and lifts of
        ``discriminant_data``, the elementary divisors d_i and v."""
        if self._disc is None:
            if not self.is_integral():
                raise NonIntegralLattice("discriminant form requires integral Gram")
            d, u, v = snf(self.gram)
            divisors = [d.num[i][i] for i in range(self.n)]
            if 0 in divisors:
                raise DegenerateGram("degenerate Gram matrix")
            gens = [(di, row) for di, row in zip(divisors, u.num) if di > 1]
            top = gens[-1][0] if gens else 1  # each d_i divides the next
            lifts = Matrix.from_integers(
                [[x * (top // di) for x in row] for di, row in gens], top, self.n
            )
            pair = lifts * self.gram * lifts.transpose()
            even = self.parity() == "even"
            quad = [Fraction(row[i], pair.den) for i, row in enumerate(pair.num)] if even else None
            form = FiniteForm([di for di, _ in gens], pair, quad)
            object.__setattr__(self, "_disc", (form, lifts, divisors, v))
        return self._disc

    def discriminant_data(self):
        """Canonical discriminant group data.

        Returns:
            (form, lifts): ``form`` the :class:`FiniteForm` on canonical
            SNF generators; ``lifts`` a k x n rational matrix whose rows
            are dual-vector representatives of the generators in lattice
            coordinates, row i of u over each elementary divisor d_i > 1.
        """
        return self._discriminant()[:2]

    def discriminant_form(self) -> FiniteForm:
        return self._discriminant()[0]

    def disc_element(self, vector):
        """Coefficients of a dual vector in the canonical generators.

        ``vector`` is a rational coordinate vector (an element of the
        dual lattice, written in the lattice basis); the result is the
        coefficient tuple of its class in the discriminant group.  With
        d = u·G·v, the coefficients x·u⁻¹·d are x·G·v.  A non-integral
        or degenerate Gram raises as ``discriminant_form`` does.
        """
        _, _, divisors, v = self._discriminant()
        y = Matrix([list(vector)]) * self.gram * v
        if not y.is_integral():
            raise DimensionError("vector is not in the dual lattice")
        return tuple(c % di for c, di in zip(y.num[0], divisors) if di > 1)

    # -- serialization ------------------------------------------------

    def to_json(self):
        obj = {"gram": self.gram.to_json()}
        if self.name:
            obj["name"] = self.name
        return obj

    @classmethod
    def from_json(cls, obj):
        return cls(Matrix.from_json(obj["gram"]), obj.get("name"))

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"Lattice({self.name or self.gram!r})"


def _diagonalize(rows):
    """Congruence diagonalization ``rows = Lᵀ·diag(d)·L`` of the integer
    rows of a symmetric matrix by Bareiss's recurrence, L unitriangular.

    A zero pivot is first replaced by swapping in a later nonzero
    diagonal entry, or else by adding a later row and column that pairs
    nonzero with it, a congruence on the trailing indices, so step i's
    a[j] = (p·a[j] - a[j][i]·a[i]) // prev stays exact.  L factors
    ``rows`` only when neither step was taken, always so if definite.

    Returns:
        (p, a): the pivots p_i = d_0···d_i and a[i][j] = p_i·L[i][j], j >= i.

    Raises:
        DegenerateGram: the matrix is singular.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    pivots = []
    prev = 1
    for i in range(n):
        if a[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
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
        pivot, top = a[i][i], a[i]
        pivots.append(pivot)
        for row in a[i + 1:]:
            c = row[i]
            for k in range(i + 1, n):
                row[k] = (pivot * row[k] - c * top[k]) // prev
        prev = pivot
    return pivots, a


# ---------------------------------------------------------------------------
# Named lattices
# ---------------------------------------------------------------------------


def Zpq(p: int, q: int) -> Lattice:
    """Odd unimodular lattice of signature (p, q)."""
    if p < 0 or q < 0 or p + q == 0:
        raise InvalidName("Zpq requires p,q >= 0, p+q > 0")
    return Lattice(Matrix.diagonal([1] * p + [-1] * q), f"Z({p},{q})")


def hyperbolic(scale=1) -> Lattice:
    """The hyperbolic plane H, optionally rescaled (H(1/2) allowed)."""
    s = Fraction(scale)
    name = "H" if s == 1 else f"H({s})"
    return Lattice(Matrix([[0, s], [s, 0]]), name)


_E8_EDGES = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]


def E8() -> Lattice:
    """The positive definite E8 root lattice (Cartan-matrix Gram)."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for i, j in _E8_EDGES:
        g[i][j] = g[j][i] = -1
    return Lattice(Matrix(g), "E8")


def E10() -> Lattice:
    """E10 = H + E8, the even unimodular lattice of signature (9, 1)."""
    lat = hyperbolic().direct_sum(E8())
    return Lattice(lat.gram, "E10")


def Dpq(p: int, q: int) -> Lattice:
    """Even-coordinate-sum sublattice of Z^{p,q} in its standard basis.

    Basis: e1+e2, then e_i - e_{i+1} for i = 1..n-1 (n = p+q >= 2).
    The Gram is summed in integers over sparse {coordinate: coeff} rows.
    """
    n = p + q
    if n < 2 or p < 0 or q < 0:
        raise InvalidName("Dpq requires p+q >= 2")
    sign = [1] * p + [-1] * q
    rows = [{0: 1, 1: 1}] + [{i: 1, i + 1: -1} for i in range(n - 1)]
    gram = [
        [sum(x * v.get(k, 0) * sign[k] for k, x in u.items()) for v in rows]
        for u in rows
    ]
    return Lattice(gram, f"D({p},{q})")


def Dn(n: int) -> Lattice:
    """D_n = D_{n,0}."""
    return Lattice(Dpq(n, 0).gram, f"D{n}")


def transcendental_slice() -> Lattice:
    """The signature (2,4) lattice with Gram diag(2,2,-1,-1,-1,-1)."""
    return Lattice(Matrix.diagonal([2, 2, -1, -1, -1, -1]), "L")


MAX_NAME_RANK = 64


def parse_lattice_name(text: str) -> Lattice:
    """Parse a lattice expression like ``"D(2,4)+Z(1,1)*-1"`` or ``"H(1/2)+E10*-1"``.

    Grammar: sums of terms; a term is an atom optionally rescaled with
    ``*c`` (rational ``c``); atoms are ``L``, ``H``, ``H(c)``, ``E8``,
    ``E10``, ``D<n>``, ``D(p,q)``, ``Z(p,q)``.  The ranks of the atoms
    may add up to at most ``MAX_NAME_RANK`` (64); the bound is checked
    before any Gram matrix is built, so ``D100000`` is an InvalidName.
    """
    text = text.replace(" ", "")
    if not text:
        raise InvalidName("empty lattice name")
    terms = []
    for part in _split_top(text, "+"):
        atom, *factors = _split_top(part, "*")
        rank, build = _parse_atom(atom)
        terms.append((rank, build, [_name_number(f, Fraction) for f in factors]))
    total = sum(rank for rank, _, _ in terms)
    if total > MAX_NAME_RANK:
        raise InvalidName(
            f"lattice name has rank {total}, above the bound {MAX_NAME_RANK}"
        )
    lat = None
    for _, build, factors in terms:
        term = build()
        for factor in factors:
            term = term.rescale(factor)
        lat = term if lat is None else lat.direct_sum(term)
    return Lattice(lat.gram, text)


def _split_top(text, sep):
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_atom(text: str):
    """(rank, build) for one atom: its rank and a function building it."""
    fixed = {"L": (6, transcendental_slice), "H": (2, hyperbolic),
             "E8": (8, E8), "E10": (10, E10)}
    if text in fixed:
        return fixed[text]
    if text.startswith("H(") and text.endswith(")"):
        scale = _name_number(text[2:-1], Fraction)
        return 2, lambda: hyperbolic(scale)
    for prefix, make in (("D(", Dpq), ("Z(", Zpq)):
        if text.startswith(prefix) and text.endswith(")"):
            p, q = _name_pair(text[2:-1])
            return p + q, lambda: make(p, q)
    if text.startswith("D") and text[1:].isdigit():
        n = int(text[1:])
        return n, lambda: Dn(n)
    raise InvalidName(f"cannot parse lattice atom: {text}")


def _name_number(text: str, kind):
    """``kind(text)`` for a number in a lattice name, else InvalidName."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidName(f"not a number in lattice name: {text!r}") from None


def _name_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidName(f"expected two integers in lattice name: {text!r}")
    p, q = _name_number(parts[0], int), _name_number(parts[1], int)
    if p < 0 or q < 0:
        raise InvalidName(f"negative count in lattice name: {text!r}")
    return p, q


# ---------------------------------------------------------------------------
# Sublattices
# ---------------------------------------------------------------------------


class Sublattice:
    """Integer-spanned sublattice of an ambient lattice (rows = generators)."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: Lattice, basis):
        basis = basis if isinstance(basis, Matrix) else Matrix(basis)
        if not basis.is_integral():
            raise DimensionError("sublattice basis must be integral")
        if basis.cols != ambient.n:
            raise DimensionError("sublattice basis width mismatch")
        if basis.rank() != basis.rows:
            raise DimensionError("sublattice basis must have full row rank")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, *_):
        raise AttributeError("Sublattice is immutable")

    @property
    def rank(self) -> int:
        return self.basis.rows

    def gram(self) -> Matrix:
        return self.basis * self.ambient.gram * self.basis.transpose()

    def as_lattice(self) -> Lattice:
        return Lattice(self.gram())


def _sublattice(ambient: Lattice, basis: Matrix) -> Sublattice:
    """A Sublattice without ``__init__``'s checks, for an HNF integer
    kernel of width ``ambient.n``, which has full row rank."""
    s = object.__new__(Sublattice)
    object.__setattr__(s, "ambient", ambient)
    object.__setattr__(s, "basis", basis)
    return s


def saturation(s: Sublattice) -> Sublattice:
    """Primitive closure of a sublattice inside its ambient lattice, in HNF:
    the integer kernel of the integer kernel of the basis."""
    n = s.ambient.n
    return _sublattice(s.ambient, integer_kernel(integer_kernel(s.basis.num, n).num, n))


def sublattice_index(sub: Sublattice, sup: Sublattice) -> int:
    """Index [sup : sub] for equal-rank nested sublattices."""
    if sub.ambient.gram != sup.ambient.gram:
        raise DimensionError("sublattices live in different ambients")
    if sub.rank != sup.rank:
        raise DimensionError("index requires equal ranks")
    x = solve_rows(sup.basis, sub.basis)
    if x is None:
        raise DimensionError("sub is not contained in the span of sup")
    if not x.is_integral():
        raise DimensionError("sub is not a subgroup of sup")
    # equal full ranks make x nonsingular
    return abs(int(x.det()))


def orthogonal_complement(s: Sublattice) -> Sublattice:
    """Saturated sublattice of all ambient vectors orthogonal to s, in HNF."""
    if not s.ambient.is_integral():
        raise NonIntegralLattice("orthogonal complement requires integral ambient")
    n = s.ambient.n
    return _sublattice(s.ambient, integer_kernel((s.basis * s.ambient.gram).num, n))


def is_primitive(s: Sublattice) -> bool:
    """True iff ``s`` equals its saturation: their HNF bases agree."""
    return hnf(s.basis) == saturation(s).basis


# ---------------------------------------------------------------------------
# Overlattice gluing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlueResult:
    """Result of gluing a lattice along an isotropic discriminant subgroup."""

    lattice: Lattice
    basis: Matrix  # rows: new basis in old lattice coordinates
    index: int


def overlattice_from_isotropic(l: Lattice, subgroup_gens, check_quadratic=False) -> GlueResult:
    """Overlattice generated by ``l`` and lifts of discriminant elements.

    Args:
        subgroup_gens: generator coefficient tuples in the canonical
            discriminant-group coordinates of ``l``.
        check_quadratic: additionally require the subgroup to be
            isotropic for the quadratic form (even-lattice gluing).

    Raises:
        IntegralityViolation: when the generated subgroup is not
            isotropic, naming the offending pair.
    """
    form, lifts = l.discriminant_data()
    gens = [form.reduce(g) for g in subgroup_gens]
    ok, pair = form.is_isotropic_subgroup(gens, use_quadratic=check_quadratic)
    if not ok:
        raise IntegralityViolation(
            f"subgroup is not isotropic: offending pair {pair}", pair=pair
        )
    return _glue(l, lifts, gens, form.subgroup_order(gens))


def _glue(l: Lattice, lifts: Matrix, gens, order: int) -> GlueResult:
    """Glue ``l`` along the isotropic subgroup of order ``order`` that the
    reduced coefficient tuples ``gens`` generate; ``lifts`` are the
    dual-vector lifts of the canonical discriminant generators.

    The glue rows gens·lifts are integer rows over one denominator
    ``den`` in lowest terms; with H the HNF rows of [den·I ; glue rows],
    the basis is H / den and the glued Gram H·G·Hᵀ over den²·G.den, an
    integer product over the nonzero entries of H (most rows are den·e_i)."""
    n = l.n
    # a unimodular l has no lift rows: then every glue row is n zeros
    cols = list(zip(*lifts.num)) or [()] * n
    glue = [[sum(map(mul, g, col)) for col in cols] for g in gens]
    k = gcd(lifts.den, *(x for row in glue for x in row))
    den = lifts.den // k
    glue = [[x // k for x in row] for row in glue]
    scaled = [[den * (i == j) for j in range(n)] for i in range(n)]
    top = hnf(Matrix.from_integers(scaled + glue, 1, n)).num[:n]
    G = l.gram.num
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in top]
    hg = [[sum(x * G[j][c] for j, x in s) for c in range(n)] for s in sparse]
    gram = [[sum(x * row[j] for j, x in s) for s in sparse] for row in hg]
    new_gram = Matrix.from_integers(gram, den * den * l.gram.den, n)
    # H is upper triangular with positive pivots: full rank n, index den**n / ∏ pivots
    if den**n != order * prod(top[i][i] for i in range(n)):
        raise IntegralityViolation("glue index does not match subgroup order")
    if not new_gram.is_integral():
        raise IntegralityViolation("glued lattice is not integral")
    return GlueResult(Lattice(new_gram), Matrix.from_integers(top, den), order)


@dataclass(frozen=True)
class OverlatticeInfo:
    """One integral overlattice found by subgroup enumeration."""

    subgroup: tuple  # sorted element tuples
    index: int
    lattice: Lattice
    parity: str
    unimodular: bool


def enumerate_integral_overlattices(l: Lattice):
    """All integral overlattices of ``l`` from isotropic discriminant subgroups.

    Glues each subgroup of the discriminant group on which the bilinear
    form vanishes (``isotropic_subgroups``; each glue is integral, and
    the overlattice depends only on the subgroup) and reports
    invariants.  The results come in (index, subgroup) order: the index
    is the subgroup's order, so the trivial subgroup (the lattice
    itself) is always first.

    Raises:
        GroupTooLarge: past ``SEARCH_BOUND`` discriminant elements or
            ``SUBGROUP_BOUND`` isotropic subgroups.
    """
    form, lifts = l.discriminant_data()
    det = abs(l.det())
    results = []
    for sub in form.isotropic_subgroups():
        gens = sorted(sub)
        glue = _glue(l, lifts, gens, len(sub))
        results.append(
            OverlatticeInfo(
                subgroup=tuple(gens),
                index=glue.index,
                lattice=glue.lattice,
                parity=glue.lattice.parity(),
                unimodular=det == glue.index**2,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Binary Gauss reduction and small isometry decisions
# ---------------------------------------------------------------------------


def gauss_reduce_binary(g: Matrix) -> Matrix:
    """Gauss-reduced form of a definite binary Gram matrix.

    Output convention: ``[[a,b],[b,c]]`` with ``0 <= 2b <= a <= c``
    (sign-flipped for negative definite inputs), reduced on the integer
    rows ``num``, which are ``den`` times the form.
    """
    if g.rows != 2 or g.cols != 2 or not g.is_symmetric():
        raise DimensionError("gauss_reduce_binary requires a symmetric 2x2 matrix")
    if g.det() <= 0:
        raise DimensionError("binary form must be definite")
    sign = 1 if g.num[0][0] > 0 else -1
    (a, b), (_, c) = g.scale(sign).num
    while True:
        if c < a:
            a, c = c, a
        if abs(2 * b) > a:
            # center b modulo a: t is b/a rounded to nearest, halves up
            t = (2 * b + a) // (2 * a)
            c = c - 2 * t * b + t * t * a
            b = b - t * a
            continue
        break
    b = sign * abs(b)
    return Matrix.from_integers([[sign * a, b], [b, sign * c]], g.den)


def short_vectors(gram: Matrix, norm):
    """All integer vectors of the given norm in a positive definite lattice.

    Exact Fincke-Pohst recursion on the congruence diagonalization of
    ``num`` = den·Gram: den·norm(x) = Σ y_i²/(p_{i-1}·p_i), y_i = p_i·(Lx)_i,
    so times C = lcm(p_{i-1}·p_i) one ``isqrt`` bounds each y_i.  Each x_i
    walks up from floor(-center), then down from the integer below it.
    """
    n = gram.rows
    try:
        pivots, a = _diagonalize(gram.num)
    except DegenerateGram:
        pivots = None
    if pivots is None or any(p <= 0 for p in pivots):
        raise DimensionError("short_vectors requires positive definite Gram")
    target = Fraction(norm) * gram.den
    if target.denominator != 1 or target < 0:
        return []
    pairs = [p * q for p, q in zip([1] + pivots, pivots)]
    c = lcm(*pairs)
    weights = [c // pq for pq in pairs]
    out = []
    x = [0] * n

    def rec(i, remaining):
        if i < 0:
            if remaining == 0:
                out.append(tuple(x))
            return
        row, p, w = a[i], pivots[i], weights[i]
        s = sum(row[j] * x[j] for j in range(i + 1, n))
        # w·y² <= remaining for y = p·x_i + s, so |y| <= m
        m = isqrt(remaining // w)
        lo, hi, start = -((m + s) // p), (m - s) // p, -s // p
        for xi in (*range(max(start, lo), hi + 1), *range(start - 1, lo - 1, -1)):
            x[i] = xi
            y = p * xi + s
            rec(i - 1, remaining - w * y * y)

    rec(n - 1, c * int(target))
    return out


def definite_isometries(a: Lattice, b: Lattice):
    """Yield the isometries from ``a`` onto ``b`` of two definite lattices.

    Each is the integer matrix g with gᵀ·gram(b)·g = gram(a) whose
    column k is the image in ``b`` of a's k-th basis vector, searched
    among b's vectors of norm gram(a)[k][k].  Since det a = det(g)²·det b,
    such a g is unimodular exactly when |det a| = |det b|; otherwise it is
    only an embedding and nothing is yielded.  Both lattices must be
    definite of the same sign; negative definite pairs are handled by a
    global sign flip, and both are scaled to integer rows.
    """
    if a.n != b.n or abs(a.det()) != abs(b.det()):
        return
    ga, gb = a.gram, b.gram
    sign = -1 if a.n and ga.num[0][0] < 0 and gb.num[0][0] < 0 else 1
    scale = sign * lcm(ga.den, gb.den)
    ga, gb = ga.scale(scale), gb.scale(scale)

    vectors_of_norm = cache(partial(short_vectors, gb))

    cols: list = []
    # pair(u, v) is uᵀ·gram(b)·v, read off b's nonzero entries
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in gb.num]

    def pair(u, v):
        return sum(ui * sum(x * v[j] for j, x in row) for ui, row in zip(u, sparse) if ui)

    def rec(k):
        if k == a.n:
            yield Matrix.from_integers(zip(*cols))
            return
        target = ga.num[k]
        for v in vectors_of_norm(target[k]):
            if all(pair(v, cols[j]) == target[j] for j in range(k)):
                cols.append(v)
                yield from rec(k + 1)
                cols.pop()

    yield from rec(0)


def same_invariants(a: Lattice, b: Lattice):
    """Compare the invariant triple; returns (equal, failing stage)."""
    if a.signature() != b.signature():
        return False, "signature"
    pa, pb = a.parity(), b.parity()
    if pa != pb:
        return False, "parity"
    fa, fb = a.discriminant_form(), b.discriminant_form()
    compare = "quadratic" if pa == "even" else "bilinear"
    if finite_form_isometric(fa, fb, compare) is None:
        return False, "discriminant-form"
    return True, None


def is_isometric_small(a: Lattice, b: Lattice) -> bool:
    """True only when ``a`` and ``b`` are shown isometric.

    Rank, signature and |det| are compared first.  Definite lattices of
    rank <= 6 with |det| <= 64 are decided by looking for an isometry
    from ``b`` onto ``a``, which enumerates vectors of ``a`` at the norms
    of ``b``'s basis: pass the reduced reference lattice (a model) as
    ``b``, since a skewed basis has large norms.  Integral indefinite
    lattices are decided by the invariant triple (signature, parity,
    discriminant form).  Anything else is not decided, and gives False
    rather than a possibly wrong True.
    """
    signature = a.signature()
    if a.n != b.n or signature != b.signature() or abs(a.det()) != abs(b.det()):
        return False
    if 0 in signature:
        small = a.n <= 6 and abs(a.det()) <= 64
        return small and next(definite_isometries(b, a), None) is not None
    return a.is_integral() and b.is_integral() and same_invariants(a, b)[0]


# ---------------------------------------------------------------------------
# Isometry membership tests and the index formula
# ---------------------------------------------------------------------------


def is_isometry(l: Lattice, g: Matrix) -> bool:
    """True iff gᵀ·gram·g = gram exactly (g integral, square, matching size)."""
    g = g if isinstance(g, Matrix) else Matrix(g)
    if g.rows != l.n or g.cols != l.n:
        raise DimensionError("isometry candidate has wrong size")
    return g.transpose() * l.gram * g == l.gram


def gamma_member(h: Matrix) -> bool:
    """Membership in the index-3 congruence subgroup of GL2(Z).

    Requires |det| = 1 with a = d and b = c mod 2 for [[a,b],[c,d]].
    """
    h = h if isinstance(h, Matrix) else Matrix(h)
    if h.rows != 2 or h.cols != 2 or not h.is_integral():
        raise DimensionError("gamma_member requires an integral 2x2 matrix")
    if abs(h.det()) != 1:
        return False
    (a, b), (c, d) = h.num
    return (a - d) % 2 == 0 and (b - c) % 2 == 0


def index_exponent(ell2_base: int, ell2_cover: int, rho: int, kappa_trivial: bool) -> int:
    """Exponent l2(base) - l2(cover) + rho - epsilon, epsilon = 1 iff
    ``kappa_trivial``; the three counts must be >= 0."""
    if ell2_base < 0 or ell2_cover < 0 or rho < 0:
        raise DimensionError("index formula counts must be >= 0")
    return ell2_base - ell2_cover + rho - (1 if kappa_trivial else 0)
