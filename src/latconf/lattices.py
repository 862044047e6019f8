"""Quadratic lattices over Z given by rational Gram matrices.

A :class:`Lattice` is a free Z-module with a symmetric nondegenerate
rational Gram matrix.  Integrality and evenness are queryable
predicates, not assumptions (scaled hyperbolic planes like H(1/2) are
representable).  A :class:`Sublattice` is a full-row-rank integer
coordinate matrix inside an ambient lattice.

The module implements signatures (exact congruence diagonalization),
discriminant forms via Smith normal form, saturation and indices,
orthogonal complements, overlattice gluing along isotropic subgroups of
the discriminant group, enumeration of integral overlattices, Gauss
reduction of binary forms, and the two-adic index-exponent formula.

Isometry of small lattices is a bool decision, True only when shown:
rank, signature and |det| first, then a lazy search for an isometry
(definite pairs) or the invariant triple (indefinite integral pairs).
The search yields only unimodular maps, because it yields nothing for
lattices of different |det|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    DegenerateGram,
    DimensionError,
    InvalidName,
    NonIntegralLattice,
    IntegralityViolation,
)
from .finite_forms import FiniteForm, finite_form_isometric, trivial_form
from .matrices import Matrix, gcd_of, hnf, integer_rows, snf, solve_rows


class Lattice:
    """Free Z-module with a symmetric nondegenerate rational Gram matrix."""

    __slots__ = ("gram", "name")

    def __init__(self, gram, name=None):
        gram = gram if isinstance(gram, Matrix) else Matrix(gram)
        if not gram.is_symmetric():
            raise DimensionError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "name", name)

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
        even = all(self.gram.entry(i, i) % 2 == 0 for i in range(self.n))
        return "even" if even else "odd"

    def is_unimodular(self) -> bool:
        return abs(self.det()) == 1

    def signature(self):
        """(positive, negative) inertia counts by congruence diagonalization."""
        d, _ = _diagonalize(self.gram)
        pos = sum(1 for x in d if x > 0)
        return pos, len(d) - pos

    # -- construction helpers -----------------------------------------

    def direct_sum(self, other: "Lattice") -> "Lattice":
        n, m = self.n, other.n
        rows = []
        for i in range(n):
            rows.append(list(self.gram.data[i]) + [Fraction(0)] * m)
        for i in range(m):
            rows.append([Fraction(0)] * n + list(other.gram.data[i]))
        return Lattice(Matrix(rows))

    def rescale(self, c) -> "Lattice":
        c = Fraction(c)
        if c == 0:
            raise DimensionError("rescale factor must be nonzero")
        return Lattice(self.gram.scale(c))

    # -- discriminant form --------------------------------------------

    def discriminant_data(self):
        """Canonical discriminant group data.

        Returns:
            (form, lifts): ``form`` the :class:`FiniteForm` on canonical
            SNF generators; ``lifts`` a k x n rational matrix whose rows
            are dual-vector representatives of the generators in lattice
            coordinates.
        """
        if not self.is_integral():
            raise NonIntegralLattice("discriminant form requires integral Gram")
        d, u, _ = snf(self.gram)
        orders = []
        lift_rows = []
        for i in range(self.n):
            di = int(d.entry(i, i))
            if di == 0:
                raise DegenerateGram("degenerate Gram matrix")
            if di > 1:
                orders.append(di)
                lift_rows.append([Fraction(x, di) for x in u.data[i]])
        lifts = Matrix(lift_rows) if lift_rows else Matrix.zeros(0, self.n)
        even = self.parity() == "even"
        if not orders:
            return trivial_form(even), lifts
        pair = lifts * self.gram * lifts.transpose()
        quad = [pair.entry(i, i) for i in range(len(orders))] if even else None
        return FiniteForm(orders, pair, quad), lifts

    def discriminant_form(self) -> FiniteForm:
        return self.discriminant_data()[0]

    def disc_element(self, vector):
        """Coefficients of a dual vector in the canonical generators.

        ``vector`` is a rational coordinate vector (an element of the
        dual lattice, written in the lattice basis); the result is the
        coefficient tuple of its class in the discriminant group.
        """
        d, u, _ = snf(self.gram)
        x = Matrix([list(vector)])
        y = x * u.inverse() * d
        if not y.is_integral():
            raise DimensionError("vector is not in the dual lattice")
        coeffs = []
        for i in range(self.n):
            di = int(d.entry(i, i))
            if di > 1:
                coeffs.append(int(y.entry(0, i)) % di)
        return tuple(coeffs)

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


def _diagonalize(gram: Matrix):
    """Congruence diagonalization ``gram = Lᵀ·diag(d)·L``, L upper unitriangular.

    A zero pivot is first replaced by swapping in a later nonzero
    diagonal entry, or else by adding a later row and column that pairs
    nonzero with it; L factors ``gram`` itself only when neither step
    was taken, which is always so for positive definite input.

    Returns:
        (d, L): the diagonal entries and L as lists of Fractions.

    Raises:
        DegenerateGram: the matrix is singular.
    """
    n = gram.rows
    a = [list(row) for row in gram.data]
    lmat = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    d = []
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
        pivot = a[i][i]
        d.append(pivot)
        for j in range(i + 1, n):
            lmat[i][j] = a[i][j] / pivot
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                a[j][k] -= a[i][j] * a[i][k] / pivot
    return d, lmat


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
    """
    n = p + q
    if n < 2 or p < 0 or q < 0:
        raise InvalidName("Dpq requires p+q >= 2")
    rows = []
    v = [0] * n
    v[0] = v[1] = 1
    rows.append(list(v))
    for i in range(n - 1):
        v = [0] * n
        v[i] = 1
        v[i + 1] = -1
        rows.append(v)
    basis = Matrix(rows)
    diag = Matrix.diagonal([1] * p + [-1] * q)
    return Lattice(basis * diag * basis.transpose(), f"D({p},{q})")


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


def saturation(s: Sublattice) -> Sublattice:
    """Primitive closure of a sublattice inside its ambient lattice.

    Uses the Smith decomposition ``u*B*v = d``: the Q-row-span of B
    meets Z^n exactly in the span of the first k rows of v^{-1}.  The
    result basis is put in Hermite normal form for determinism.
    """
    k = s.rank
    _, _, v = snf(s.basis)
    vinv = v.inverse()
    rows = Matrix([list(vinv.data[i]) for i in range(k)])
    h, _ = hnf(rows)
    return Sublattice(s.ambient, Matrix([list(h.data[i]) for i in range(k)]))


def sublattice_index(sub: Sublattice, sup: Sublattice) -> int:
    """Index [sup : sub] for equal-rank nested sublattices."""
    if sub.ambient.gram != sup.ambient.gram:
        raise DimensionError("sublattices live in different ambients")
    if sub.rank != sup.rank:
        raise DimensionError("index requires equal ranks")
    x = solve_rows(sup.basis, sub.basis)
    if x is None:
        raise DimensionError("sub is not contained in the span of sup")
    if x * sup.basis != sub.basis:
        raise DimensionError("sub is not contained in the span of sup")
    if not x.is_integral():
        raise DimensionError("sub is not a subgroup of sup")
    idx = x.det()
    if idx == 0:
        raise DimensionError("sub has lower rank than sup")
    return abs(int(idx))


def orthogonal_complement(s: Sublattice) -> Sublattice:
    """Saturated sublattice of all ambient vectors orthogonal to s."""
    if not s.ambient.is_integral():
        raise NonIntegralLattice("orthogonal complement requires integral ambient")
    pairing = s.basis * s.ambient.gram
    kernel = pairing.kernel_basis()
    if kernel.rows == 0:
        return Sublattice(s.ambient, Matrix.zeros(0, s.ambient.n))
    int_rows = []
    for row in integer_rows(kernel.data)[0]:
        g = gcd_of(row)
        int_rows.append([x // g for x in row])
    return saturation(Sublattice(s.ambient, Matrix(int_rows)))


def is_primitive(s: Sublattice) -> bool:
    return sublattice_index(s, saturation(s)) == 1


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
    return _glue(l, lifts, gens, len(form.subgroup(gens)))


def _glue(l: Lattice, lifts: Matrix, gens, order: int) -> GlueResult:
    """Glue ``l`` along the isotropic subgroup of order ``order`` that the
    reduced coefficient tuples ``gens`` generate; ``lifts`` are the
    dual-vector lifts of the canonical discriminant generators."""
    rows = [list(row) for row in Matrix.identity(l.n).data]
    for g in gens:
        vec = [Fraction(0)] * l.n
        for c, lift_row in zip(g, lifts.data):
            for j in range(l.n):
                vec[j] += c * lift_row[j]
        rows.append(vec)
    denom = lcm(*(x.denominator for row in rows for x in row))
    scaled = Matrix([[int(x * denom) for x in row] for row in rows])
    h, _ = hnf(scaled)
    basis = Matrix([list(h.data[i]) for i in range(l.n)]).scale(Fraction(1, denom))
    new_gram = basis * l.gram * basis.transpose()
    index = abs(Fraction(1) / basis.det())
    if index.denominator != 1 or int(index) != order:
        raise IntegralityViolation("glue index does not match subgroup order")
    if not new_gram.is_integral():
        raise IntegralityViolation("glued lattice is not integral")
    return GlueResult(Lattice(new_gram), basis, int(index))


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

    Enumerates every subgroup of the discriminant group, keeps those
    whose glue is integral (bilinear isotropy), and reports invariants.
    The trivial subgroup (the lattice itself) is always first.
    """
    form, lifts = l.discriminant_data()
    results = []
    for sub in form.all_subgroups():
        gens = sorted(sub)
        ok, _pair = form.is_isotropic_subgroup(gens, use_quadratic=False)
        if not ok:
            continue
        glue = _glue(l, lifts, gens, len(sub))
        results.append(
            OverlatticeInfo(
                subgroup=tuple(gens),
                index=glue.index,
                lattice=glue.lattice,
                parity=glue.lattice.parity(),
                unimodular=glue.lattice.is_unimodular(),
            )
        )
    results.sort(key=lambda info: (info.index, info.subgroup))
    return results


# ---------------------------------------------------------------------------
# Binary Gauss reduction and small isometry decisions
# ---------------------------------------------------------------------------


def gauss_reduce_binary(g: Matrix) -> Matrix:
    """Gauss-reduced form of a definite binary Gram matrix.

    Output convention: ``[[a,b],[b,c]]`` with ``0 <= 2b <= a <= c``
    (sign-flipped for negative definite inputs).
    """
    if g.rows != 2 or g.cols != 2 or not g.is_symmetric():
        raise DimensionError("gauss_reduce_binary requires a symmetric 2x2 matrix")
    det = g.det()
    if det <= 0:
        raise DimensionError("binary form must be definite")
    sign = 1 if g.entry(0, 0) > 0 else -1
    a, b, c = sign * g.entry(0, 0), sign * g.entry(0, 1), sign * g.entry(1, 1)
    while True:
        if c < a:
            a, c = c, a
        # center b modulo a
        if abs(2 * b) > a:
            q = Fraction(b, a)
            t = (q.numerator + (q.denominator // 2)) // q.denominator
            c = c - 2 * t * b + t * t * a
            b = b - t * a
            continue
        if c < a:
            continue
        break
    if b < 0:
        b = -b
    return Matrix([[sign * a, sign * b], [sign * b, sign * c]])


def short_vectors(gram: Matrix, norm: Fraction):
    """All integer vectors of the given norm in a positive definite lattice.

    Straightforward exact Fincke-Pohst style recursion on the
    congruence diagonalization of the Gram matrix.
    """
    n = gram.rows
    try:
        d, lmat = _diagonalize(gram)
    except DegenerateGram:
        d = None
    if d is None or any(x <= 0 for x in d):
        raise DimensionError("short_vectors requires positive definite Gram")
    out = []
    x = [0] * n

    def rec(i, remaining):
        if i < 0:
            if remaining == 0:
                out.append(tuple(x))
            return
        center = sum(lmat[i][j] * x[j] for j in range(i + 1, n))
        # d[i]*(x_i + center)^2 <= remaining
        base = -center
        start = base.numerator // base.denominator  # floor
        for direction in (1, -1):
            xi = start if direction == 1 else start - 1
            while True:
                val = d[i] * (xi + center) ** 2
                if val > remaining:
                    break
                x[i] = xi
                rec(i - 1, remaining - val)
                xi += direction
        x[i] = 0

    rec(n - 1, Fraction(norm))
    return out


def definite_isometries(a: Lattice, b: Lattice):
    """Yield the isometries from ``a`` onto ``b`` of two definite lattices.

    Each is the integer matrix g with gᵀ·gram(b)·g = gram(a) whose
    column k is the image in ``b`` of a's k-th basis vector, searched
    among b's vectors of norm gram(a)[k][k].  Since det a = det(g)²·det b,
    such a g is unimodular exactly when |det a| = |det b|; otherwise it is
    only an embedding and nothing is yielded.  Both lattices must be
    definite of the same sign; negative definite pairs are handled by a
    global sign flip.
    """
    if a.n != b.n or abs(a.det()) != abs(b.det()):
        return
    ga, gb = a.gram, b.gram
    if ga.entry(0, 0) < 0 and gb.entry(0, 0) < 0:
        ga, gb = ga.scale(-1), gb.scale(-1)
    cache = {}

    def vectors_of_norm(t):
        if t not in cache:
            cache[t] = short_vectors(gb, t)
        return cache[t]

    n = a.n
    cols: list = []

    def pair(u, v):
        return sum(
            u[i] * gb.entry(i, j) * v[j] for i in range(n) for j in range(n) if u[i] and gb.entry(i, j)
        )

    def rec(k):
        if k == n:
            yield Matrix.from_columns(cols)
            return
        for v in vectors_of_norm(ga.entry(k, k)):
            if all(pair(v, cols[j]) == ga.entry(k, j) for j in range(k)):
                cols.append(list(v))
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
    a, b = h.entry(0, 0), h.entry(0, 1)
    c, d = h.entry(1, 0), h.entry(1, 1)
    return (a - d) % 2 == 0 and (b - c) % 2 == 0


@dataclass(frozen=True)
class IndexFormulaInput:
    """Inputs of the two-adic index-exponent formula."""

    ell2_base: int
    ell2_cover: int
    rho: int
    kappa_trivial: bool

    def __post_init__(self):
        if self.ell2_base < 0 or self.ell2_cover < 0 or self.rho < 0:
            raise DimensionError("index formula counts must be >= 0")


def index_exponent(inp: IndexFormulaInput) -> int:
    """Exponent l2(base) - l2(cover) + rho - epsilon."""
    eps = 1 if inp.kappa_trivial else 0
    return inp.ell2_base - inp.ell2_cover + inp.rho - eps
