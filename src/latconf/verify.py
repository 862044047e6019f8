"""Self-verification harness.

Every desk-checkable numerical claim implemented by the library is
re-derived here as a registry of named checks.  Each check is a pure
function of a deterministic per-check random generator, returning an
``(ok, details)`` pair; :func:`run_verify` runs the registry (or a
filtered prefix of it) and assembles a deterministic :class:`Report`.

Checks never raise on mathematical failure — a failed expectation
becomes a ``Fail`` entry with the computed-vs-expected values in its
details.  An unexpected exception is also captured as a failure so a
single broken check cannot take down the whole report.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from . import __version__
from . import f2space
from .configs import (
    PAIR_LABELS,
    ConfigMatrix,
    complete_quadrangle,
    cremona,
    dependent_columns,
    drop_line,
    drop_pairs,
    equivalent,
    etale_slice,
    gale_dual,
    plucker,
    quadrangle_classes,
    quadrangle_slice,
    seven_line_config,
    smoothness,
    stability,
    triple_points,
)
from .errors import DimensionError, LatconfError, VerticesCollinear
from .finite_forms import (
    apply_images,
    finite_form_automorphisms,
    finite_form_isometric,
)
from .isotropic import (
    certificate_matches,
    classify_isotropic_plane,
    classify_isotropic_vector,
    enumerate_isotropic_vectors,
    fast_vector_kind,
    isotropic_vector_census,
    scan_isotropic_planes,
)
from .jacobian import (
    AMBIENT,
    invariant_deformations,
    jacobian_rows,
    kappa_rows,
    kappa_sum_bases,
    kappa_target,
    kernel_family_vectors,
    period_map,
    period_maps,
    quadric_rows,
    squarefree_triples,
)
from .lattices import (
    Dn,
    Dpq,
    E8,
    E10,
    IndexFormulaInput,
    Sublattice,
    Zpq,
    definite_isometries,
    enumerate_integral_overlattices,
    gauss_reduce_binary,
    hyperbolic,
    index_exponent,
    orthogonal_complement,
    overlattice_from_isotropic,
    same_invariants,
    sublattice_index,
    transcendental_slice,
)
from .matrices import Matrix, frac_to_str


# ---------------------------------------------------------------------------
# Report structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One verification outcome."""

    id: str
    description: str
    status: str  # Pass | Fail | Skipped
    details: dict

    def to_json(self):
        return {
            "id": self.id,
            "description": self.description,
            "status": self.status,
            "details": self.details,
        }


@dataclass(frozen=True)
class Report:
    seed: int
    version: str
    checks: tuple
    elapsed_seconds: float = field(default=0.0, compare=False)

    @property
    def counts(self):
        out = {"Pass": 0, "Fail": 0, "Skipped": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts["Fail"] == 0

    def to_json(self):
        return {
            "seed": self.seed,
            "version": self.version,
            "summary": self.counts,
            "checks": [c.to_json() for c in self.checks],
        }

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"[{c.status:>7}] {c.id}: {c.description}")
            if c.status == "Fail":
                for k, v in c.details.items():
                    lines.append(f"          {k}: {v}")
        counts = self.counts
        lines.append(
            f"{counts['Pass']} passed, {counts['Fail']} failed, "
            f"{counts['Skipped']} skipped (seed {self.seed})"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shared generators
# ---------------------------------------------------------------------------


def random_system(rng, smooth=True) -> Matrix:
    """Random full-rank 4x7 rational system, smooth unless disabled."""
    while True:
        q = Matrix(
            [[Fraction(rng.randint(-9, 9)) for _ in range(7)] for _ in range(4)]
        )
        try:
            g = gale_dual(q)[1]
        except DimensionError:  # rank below 4
            continue
        if not smooth or dependent_columns(g) is None:
            return q


def _degenerate_system(rng) -> Matrix:
    """Full-rank system with exactly one engineered dependent 4-subset."""
    while True:
        q = random_system(rng)
        subset = sorted(rng.sample(range(7), 4))
        cols = [list(q.column(j)) for j in range(7)]
        # replace the last column of the subset by a combination of the
        # other three, making that 4-subset (and generically only it)
        # dependent
        a, b, c, d = subset
        coeffs = [Fraction(rng.randint(1, 5)) for _ in range(3)]
        cols[d] = [
            coeffs[0] * cols[a][i] + coeffs[1] * cols[b][i] + coeffs[2] * cols[c][i]
            for i in range(4)
        ]
        q2 = Matrix.from_columns(cols)
        if q2.rank() != 4:
            continue
        if _dependent_subsets(q2) == [tuple(subset)]:
            return q2


def _dependent_subsets(q: Matrix):
    """The 4-subsets of system columns with a zero 4 x 4 ``det``: an
    oracle for ``smoothness`` that does not go through the Gale dual."""
    return [s for s in combinations(range(7), 4)
            if q.submatrix(range(4), s).det() == 0]


def _rand_config(rng) -> ConfigMatrix:
    while True:
        try:
            c = ConfigMatrix(
                Matrix([[Fraction(rng.randint(-9, 9)) for _ in range(6)]
                        for _ in range(3)])
            )
        except LatconfError:
            continue
        return c


def _rand_stable_config(rng) -> ConfigMatrix:
    while True:
        c = _rand_config(rng)
        if stability(c).status == "Stable":
            return c


# ---------------------------------------------------------------------------
# Lattice checks
# ---------------------------------------------------------------------------


def check_disc_form_d6(rng):
    form = Dn(6).discriminant_form()
    expected = Matrix([[Fraction(0), Fraction(1, 2)],
                       [Fraction(1, 2), Fraction(1, 2)]])
    ok = form.orders == (2, 2) and form.bilinear == expected
    return ok, {
        "orders": list(form.orders),
        "bilinear": [[frac_to_str(x) for x in row] for row in form.bilinear.data],
        "expected_bilinear": [["0", "1/2"], ["1/2", "1/2"]],
    }


def _d6_rows_in(width, offset):
    """Basis rows of a D6 root sublattice on coordinates offset..offset+7."""
    rows = []
    for i in (1, 2, 3, 4, 5, 6):
        rows.append([1 if j == offset + i else 0 for j in range(width)])
    return rows


def check_complement_in_z210(rng):
    # D6(-1) sits inside Z^{2,10} = Z^{2,2} + E8(-1) as the root
    # sublattice on simple roots 2..7 of E8(-1)
    ambient = Zpq(2, 2).direct_sum(E8().rescale(-1))
    sub = Sublattice(ambient, Matrix(_d6_rows_in(12, 4)))
    t = orthogonal_complement(sub).as_lattice()
    l = transcendental_slice()
    witness = finite_form_isometric(
        t.discriminant_form(), l.discriminant_form(), "bilinear"
    )
    ok = (
        t.signature() == (2, 4)
        and t.parity() == "odd"
        and abs(t.det()) == 4
        and witness is not None
    )
    return ok, {
        "signature": list(t.signature()),
        "parity": t.parity(),
        "discriminant": int(abs(t.det())),
        "disc_form_matches_reference": witness is not None,
    }


def check_d6_perp_e8(rng):
    e8 = E8()
    sub = Sublattice(e8, Matrix(_d6_rows_in(8, 0)))
    comp = orthogonal_complement(sub)
    reduced = gauss_reduce_binary(comp.gram())
    expected = Matrix([[2, 0], [0, 2]])
    return reduced == expected, {
        "reduced_gram": [[frac_to_str(x) for x in row] for row in reduced.data],
        "expected": [["2", "0"], ["0", "2"]],
    }


def check_index2_identities(rng):
    h = hyperbolic()
    z2m2 = Zpq(2, 0).rescale(-2)
    pairs = [
        ("D(2,4)", Dpq(2, 4), h.direct_sum(h).direct_sum(z2m2)),
        ("D(0,4)+Z(2,0)", Dpq(0, 4).direct_sum(Zpq(2, 0)),
         hyperbolic(2).direct_sum(Zpq(1, 3))),
        ("D(2,2)+Z(0,2)", Dpq(2, 2).direct_sum(Zpq(0, 2)),
         hyperbolic(2).direct_sum(h).direct_sum(Zpq(0, 2))),
        ("D(2,0)+Z(0,4)", Dpq(2, 0).direct_sum(Zpq(0, 4)),
         Zpq(2, 0).rescale(2).direct_sum(Zpq(0, 4))),
        ("D(0,2)+Z(2,2)", Dpq(0, 2).direct_sum(Zpq(2, 2)),
         Zpq(2, 2).direct_sum(z2m2)),
        ("D(1,3)+Z(1,1)", Dpq(1, 3).direct_sum(Zpq(1, 1)),
         h.direct_sum(z2m2).direct_sum(Zpq(1, 1))),
        ("D(1,1)+Z(1,3)", Dpq(1, 1).direct_sum(Zpq(1, 3)),
         hyperbolic(2).direct_sum(Zpq(1, 3))),
    ]
    results = {}
    ok = True
    for name, a, b in pairs:
        equal, stage = same_invariants(a, b)
        results[name] = "match" if equal else f"mismatch:{stage}"
        ok = ok and equal and abs(a.det()) == 4
    return ok, {"identities": results, "count": len(pairs)}


def check_allcock_overlattices(rng):
    # integral lattices between H(2)+E10(-1) and its dual H(1/2)+E10(-1)
    a = hyperbolic(2).direct_sum(E10().rescale(-1))
    form = a.discriminant_form()
    qvals = sorted(
        form.q(e) for e in form.elements() if e != form.zero()
    )
    infos = enumerate_integral_overlattices(a)
    proper = [i for i in infos if i.index > 1]
    odd_unimodular = [i for i in proper if i.parity == "odd" and i.unimodular]
    ok = (
        form.orders == (2, 2)
        and qvals == [Fraction(0), Fraction(0), Fraction(1)]
        and len(proper) == 3
        and len(odd_unimodular) == 1
    )
    return ok, {
        "quotient_orders": list(form.orders),
        "q_values": [frac_to_str(v) for v in qvals],
        "intermediate_integral": len(proper),
        "odd_unimodular": len(odd_unimodular),
    }


def check_isotropic_orbits(rng):
    vectors = enumerate_isotropic_vectors(height=5)
    census = isotropic_vector_census(vectors=vectors)
    l = transcendental_slice()
    reps = {}
    for v in vectors:
        kind = fast_vector_kind(v)
        reps.setdefault(kind, v)
        if len(reps) == 3:
            break
    vector_certs_ok = True
    for kind, rep in sorted(reps.items()):
        cls = classify_isotropic_vector(l, rep)
        vector_certs_ok = vector_certs_ok and (
            cls.kind == kind and certificate_matches(cls)
        )
    # the fast parity classification agrees with the full certificate
    # classification on a seeded sample
    for v in rng.sample(vectors, 50):
        cls = classify_isotropic_vector(l, v)
        vector_certs_ok = vector_certs_ok and (
            cls.kind == fast_vector_kind(v) and certificate_matches(cls)
        )
    scan = scan_isotropic_planes(vectors=vectors, height=5)
    plane_certs_ok = True
    for kind, rep in scan.representatives.items():
        cls = classify_isotropic_plane(l, rep)
        plane_certs_ok = plane_certs_ok and (
            cls.kind == kind and certificate_matches(cls)
        )
    ok = (
        len(census) == 3
        and sorted(scan.census) == ["EvenPlane", "OddPlane"]
        and vector_certs_ok
        and plane_certs_ok
    )
    return ok, {
        "vector_classes": dict(sorted(census.items())),
        "plane_classes": dict(sorted(scan.census.items())),
        "vector_certificates_match": vector_certs_ok,
        "plane_certificates_match": plane_certs_ok,
    }


def _lambda_data():
    l2 = transcendental_slice().rescale(2)
    lam = l2.discriminant_form()
    a = l2.disc_element([Fraction(1, 4), 0, 0, 0, 0, 0])
    b = l2.disc_element([0, Fraction(1, 4), 0, 0, 0, 0])
    cdef = [
        l2.disc_element([0, 0] + [Fraction(1, 2) if j == i else 0 for j in range(4)])
        for i in range(4)
    ]
    g3 = lam.zero()
    for g in cdef:
        g3 = lam.add(g3, g)
    gens = [lam.smul(2, a), lam.smul(2, b), g3]
    return l2, lam, (a, b, cdef), gens


def check_lambda_disc_form(rng):
    l2, lam, (a, b, cdef), gens = _lambda_data()
    integral = [x for x in lam.elements() if lam.b(x, x) == 0]
    lam0 = lam.subgroup(gens)
    # the subgroup is isotropic for the bilinear form only: the glued
    # overlattice is odd, so no quadratic isotropy is required
    isotropic, _ = lam.is_isotropic_subgroup(gens, use_quadratic=False)
    ok = (
        sorted(lam.orders) == [2, 2, 2, 2, 4, 4]
        and lam.group_order() == 256
        and len(integral) == 64
        and len(lam0) == 8
        and isotropic
    )
    return ok, {
        "orders": sorted(lam.orders),
        "integral_norm_subgroup_order": len(integral),
        "isotropic_subgroup_order": len(lam0),
        "subgroup_isotropic": isotropic,
    }


def check_lambda_glue(rng):
    l2, lam, _, gens = _lambda_data()
    glue = overlattice_from_isotropic(l2, gens, check_quadratic=False)
    model = Zpq(2, 0).direct_sum(Dpq(0, 4))
    equal, stage = same_invariants(glue.lattice, model)
    ok = glue.index == 8 and equal and abs(glue.lattice.det()) == 4
    return ok, {
        "glue_index": glue.index,
        "discriminant": int(abs(glue.lattice.det())),
        "invariants_match_model": "match" if equal else f"mismatch:{stage}",
    }


def check_lambda_stable(rng):
    _, lam, _, gens = _lambda_data()
    lam0 = lam.subgroup(gens)
    count = 0
    stable = True
    for images in finite_form_automorphisms(lam, compare="bilinear"):
        count += 1
        stable = all(apply_images(lam, images, g) in lam0 for g in gens)
        if not stable:
            break
    return stable and count > 0, {
        "automorphisms": count,
        "subgroup_stable": stable,
    }


def check_index_exponent(rng):
    exp = index_exponent(IndexFormulaInput(0, 2, 7, kappa_trivial=False))
    # chain identity 2^2 * 2^5 = [Z^6(-1):D6(-2)] * [glue : L(2)]
    z6m = Zpq(0, 6)
    d6_basis = Matrix([
        [1, 1, 0, 0, 0, 0], [1, -1, 0, 0, 0, 0], [0, 1, -1, 0, 0, 0],
        [0, 0, 1, -1, 0, 0], [0, 0, 0, 1, -1, 0], [0, 0, 0, 0, 1, -1],
    ])
    # doubling matrix M with M M^T = 2I (block diag of [[1,1],[1,-1]])
    block = [[1, 1], [1, -1]]
    m = Matrix([
        [block[i % 2][j % 2] if i // 2 == j // 2 else 0 for j in range(6)]
        for i in range(6)
    ])
    d6m2 = Sublattice(z6m, d6_basis * m.transpose())
    idx1 = sublattice_index(d6m2, Sublattice(z6m, Matrix.identity(6)))
    is_d6m2 = d6m2.gram() == Dn(6).gram.scale(-2)
    l2, _, _, gens = _lambda_data()
    idx2 = overlattice_from_isotropic(l2, gens, check_quadratic=False).index
    ok = exp == 5 and is_d6m2 and 4 * 2 ** exp == idx1 * idx2
    return ok, {
        "exponent": exp,
        "embedded_gram_is_scaled_d6": is_d6m2,
        "index_d6_scaled_in_z6": idx1,
        "index_glue": idx2,
        "chain_lhs": 4 * 2 ** exp,
        "chain_rhs": idx1 * idx2,
    }


# ---------------------------------------------------------------------------
# Jacobian checks
# ---------------------------------------------------------------------------

JACOBIAN_SAMPLES = 100


def check_target_dim_4(rng):
    bad = []
    for trial in range(JACOBIAN_SAMPLES):
        for kappa, pm in period_maps(random_system(rng)).items():
            if not (
                pm.source.dimension == 6
                and pm.target.dimension == 4
                and pm.second_dim == 2
                and pm.rank == 4
                and pm.kernel.rows == 2
            ):
                bad.append((trial, kappa))
    return not bad, {
        "samples": JACOBIAN_SAMPLES,
        "characters_per_sample": 7,
        "expected": {"dim_R10": 6, "dim_target": [4, 2],
                     "rank": 4, "kernel_dim": 2},
        "failures": bad[:5],
    }


def check_jacobian_counts(rng):
    q = random_system(rng)
    kappa = 1 + rng.randrange(7)
    src = invariant_deformations(q)
    count1 = src.dimension == AMBIENT - 16 - 7 + 1  # the single overlap
    a_rows = quadric_rows(q)
    bc_rows = jacobian_rows(q) + kappa_rows(q, kappa)
    r_a = Matrix(a_rows).rank()
    r_bc = Matrix(bc_rows).rank()
    r_all = Matrix(a_rows + bc_rows).rank()
    count2 = r_a == 16 and r_bc == 13 and r_all == 16 + 13 - 5 == 24
    # kernel family images vanish and span the kernel
    pm = period_map(q, kappa)
    fam = [pm.source.reduce_vector(v) for v in kernel_family_vectors(q, kappa)]
    images_zero = all(
        (pm.matrix * Matrix([[x] for x in vec])).is_zero() for vec in fam
    )
    spans = Matrix(fam).rank() == 2 and Matrix(
        fam + [list(r) for r in pm.kernel.data]
    ).rank() == 2
    # a constructed degenerate system breaks the dimension-4 claim:
    # duplicating the kappa column keeps rank 4 but kills smoothness
    while True:
        cols = [list(q.column(j)) for j in range(7)]
        other = rng.choice([j for j in range(7) if j != kappa - 1])
        cols[kappa - 1] = list(cols[other])
        qbad = Matrix.from_columns(cols)
        if qbad.rank() == 4:
            break
        q = random_system(rng)
    first, _second = kappa_target(qbad, kappa, require_smooth=False)
    degenerate_breaks = first.dimension != 4
    ok = count1 and count2 and images_zero and spans and degenerate_breaks
    return ok, {
        "dim_R10": src.dimension,
        "count_28_16_7_1": count1,
        "rank_products": r_a,
        "rank_jacobian_and_kappa": r_bc,
        "rank_all": r_all,
        "overlap_dimension": r_a + r_bc - r_all,
        "kernel_family_vanishes": images_zero,
        "kernel_family_spans": spans,
        "degenerate_first_summand_dim": first.dimension,
        "degenerate_breaks_dim_4": degenerate_breaks,
    }


def check_squarefree_triples(rng):
    ok = True
    per_kappa = {}
    for kappa in range(1, 8):
        bases = kappa_sum_bases(kappa)
        chosen = squarefree_triples(kappa)
        good = (
            len(bases) == 4
            and len(chosen) == 2
            and chosen == bases[:2]
            and all(t[0] ^ t[1] ^ t[2] == kappa and kappa not in t
                    for t in bases)
        )
        per_kappa[kappa] = len(bases)
        ok = ok and good
    return ok, {"bases_per_kappa": per_kappa, "retained_per_kappa": 2}


# ---------------------------------------------------------------------------
# Configuration checks
# ---------------------------------------------------------------------------


def check_stability_strata(rng):
    witnesses = [
        ("general-position",
         ConfigMatrix([[1, 0, 0, 1, 2, 3], [0, 1, 0, 1, 5, 7],
                       [0, 0, 1, 1, 11, 13]]),
         ("Stable", "411")),
        ("one-triple-point", complete_quadrangle(), ("Stable", "321")),
        ("five-concurrent",
         ConfigMatrix([[1, 0, 1, 1, 1, 0], [0, 1, 1, 2, 3, 0],
                       [0, 0, 0, 0, 0, 1]]),
         ("Unstable", "141")),
        ("three-identical",
         ConfigMatrix([[1, 1, 1, 0, 1, 0], [0, 0, 0, 1, 1, 0],
                       [0, 0, 0, 0, 0, 1]]),
         ("Unstable", "213")),
        ("three-identical-pairs",
         ConfigMatrix([[1, 1, 0, 0, 1, 1], [0, 0, 1, 1, 1, 1],
                       [0, 0, 0, 0, 1, 1]]),
         ("Polystable", "222")),
        ("double-plus-four-concurrent",
         ConfigMatrix([[1, 0, 1, 1, 0, 0], [0, 1, 1, 2, 0, 0],
                       [0, 0, 0, 0, 1, 1]]),
         ("Polystable", "231")),
        ("four-concurrent",
         ConfigMatrix([[1, 0, 1, 1, 0, 1], [0, 1, 1, 2, 0, 0],
                       [0, 0, 0, 0, 1, 1]]),
         ("StrictlySemistable", "231")),
        ("two-identical",
         ConfigMatrix([[1, 0, 0, 1, 2, 2], [0, 1, 0, 1, 3, 3],
                       [0, 0, 1, 1, 1, 1]]),
         ("StrictlySemistable", "312")),
        ("four-concurrent-two-identical",
         ConfigMatrix([[1, 1, 1, 1, 0, 1], [0, 0, 1, 2, 0, 0],
                       [0, 0, 0, 0, 1, 1]]),
         ("StrictlySemistable", "222")),
    ]
    results = {}
    ok = True
    for name, config, (status, stratum) in witnesses:
        rep = stability(config)
        results[name] = f"{rep.status}/{rep.stratum}"
        ok = ok and rep.status == status and rep.stratum == stratum
    # stable configurations have at most 4 triple points
    max_triples = 0
    for _ in range(50):
        c = _rand_stable_config(rng)
        max_triples = max(max_triples, len(triple_points(c)))
    quad_triples = len(triple_points(complete_quadrangle()))
    ok = ok and max_triples <= 4 and quad_triples == 4
    return ok, {
        "witnesses": results,
        "max_triple_points_on_stable_samples": max_triples,
        "quadrangle_triple_points": quad_triples,
    }


def check_quadrangle_classes(rng):
    trivial, even, full = quadrangle_classes()
    ok = len(trivial) == 2 and len(even) == 2 and len(full) == 1
    return ok, {
        "labeled_variants": 48,
        "classes_no_group": len(trivial),
        "classes_even_wreath": len(even),
        "classes_full_wreath": len(full),
    }


def check_cremona_involution(rng):
    samples = failures = 0
    while samples < 100:
        c = _rand_stable_config(rng)
        try:
            back = cremona(cremona(c))
        except VerticesCollinear:
            continue
        samples += 1
        if not equivalent(back, c):
            failures += 1
    return failures == 0, {"samples": samples, "failures": failures}


def check_etale_slice(rng):
    samples = failures = 0
    while samples < 100:
        t = Fraction(rng.randint(2, 9))
        a, b, c, d = (Fraction(rng.randint(1, 9)) for _ in range(4))
        try:
            lhs = cremona(etale_slice(t, a, b, c, d))
        except VerticesCollinear:
            continue
        samples += 1
        rhs = etale_slice(t, c, d, a, b).permute_columns([3, 2, 1, 0, 4, 5])
        rhs = ConfigMatrix(rhs.matrix, PAIR_LABELS)
        if not equivalent(lhs, rhs):
            failures += 1
    return failures == 0, {"samples": samples, "failures": failures}


def check_family_minors(rng):
    failures = 0
    for _ in range(20):
        params = [
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(4)
        ]
        a, b, c, d = params
        if 0 in (a, b, c, d):
            a, b, c, d = a + 1, b + 1, c + 1, d + 1
        try:
            m = plucker(quadrangle_slice(a, b, c, d))
        except LatconfError:
            failures += 1
            continue
        if not (
            m[(0, 2, 4)] == 4 * b
            and m[(1, 3, 4)] == -4 * a
            and m[(0, 3, 5)] == 4 * d
            and m[(1, 2, 5)] == -4 * c
        ):
            failures += 1
    return failures == 0, {"samples": 20, "failures": failures}


# ---------------------------------------------------------------------------
# F2 space checks
# ---------------------------------------------------------------------------


def check_f2_census(rng):
    census = f2space.census()
    iso_ok = all(
        f2space.is_isotropic(x) == (sum(x) in (0, 3, 4, 7))
        for x in product((0, 1), repeat=7)
    )
    bases = f2space.character_bases()
    per_sum = f2space.character_basis_census()
    ok = (
        census == {7: 1, 5: 7, 3: 21, 1: 35}
        and iso_ok
        and f2space.g_is_totally_isotropic()
        and len(bases) == 28
        and per_sum == {k: 4 for k in range(1, 8)}
        and all(f2space.character_of_column(i) == i + 1 for i in range(7))
    )
    return ok, {
        "weight_census": {str(k): v for k, v in sorted(census.items())},
        "isotropy_rule_holds": iso_ok,
        "g_totally_isotropic": f2space.g_is_totally_isotropic(),
        "character_bases": len(bases),
        "bases_per_sum": {str(k): v for k, v in sorted(per_sum.items())},
    }


def check_stabilizer_768(rng):
    z2_2 = Zpq(2, 0).rescale(2)
    z4 = Zpq(4, 0)
    o2 = list(definite_isometries(z2_2, z2_2))
    so2 = [g for g in o2 if g.det() == 1]
    o4 = list(definite_isometries(z4, z4))
    order = len(so2) * len(o4) // 2  # quotient by the global -identity
    ok = len(so2) == 4 and len(o4) == 384 and order == 768 == 24 * 32
    return ok, {
        "so2_order": len(so2),
        "o4_order": len(o4),
        "stabilizer_order": order,
        "expected": 768,
    }


# ---------------------------------------------------------------------------
# Cross-implementation equivalences
# ---------------------------------------------------------------------------


def check_smoothness_paths(rng):
    mismatches = 0
    samples = []
    for i in range(200):
        if i < 20:
            q = _degenerate_system(rng)
        else:
            q = random_system(rng, smooth=False)
        samples.append(q)
    for q in samples:
        path1 = smoothness(q)[0]  # 35 nonzero integer 3-minors of the Gale dual
        config = seven_line_config(q)
        # path 2: no concurrent triple among the seven lines
        try:
            path2 = len(triple_points(config)) == 0
        except LatconfError:
            path2 = False  # coincident lines certainly violate smoothness
        path3 = not _dependent_subsets(q)  # path 3: the system's 4x4 minors
        if not (path1 == path2 == path3):
            mismatches += 1
    return mismatches == 0, {
        "samples": 200,
        "engineered_failures": 20,
        "mismatches": mismatches,
    }


def check_drop_line_paths(rng):
    mismatches = 0
    for _ in range(100):
        q = random_system(rng)
        kappa = 1 + rng.randrange(7)
        config = seven_line_config(q)
        dropped = drop_line(config, kappa)
        # oracle path: the dropped configuration's row space must be the
        # kernel of the hyperplane-sliced system.  Y spans the kernel of
        # the kappa column of q; Y*q with the kappa column removed cuts
        # out the span of the six remaining lines.
        y = Matrix([[x] for x in q.column(kappa - 1)]).transpose().kernel_basis()
        sliced = y * q
        # columns in the same pair-regrouped order as drop_line output
        order = [chi for pair in drop_pairs(kappa) for chi in pair]
        b = Matrix.from_columns([list(sliced.column(chi - 1)) for chi in order])
        product_zero = (b * dropped.matrix.transpose()).is_zero()
        rank_ok = dropped.matrix.rank() == 3 and b.rank() == 3
        if not (product_zero and rank_ok):
            mismatches += 1
    return mismatches == 0, {"samples": 100, "mismatches": mismatches}


def check_verify_determinism(rng):
    # two cheap seeded checks, each run twice on a seed drawn here, must
    # report the same JSON
    seed = rng.randrange(2**32)
    same = {
        cid: run_check(cid, seed).to_json() == run_check(cid, seed).to_json()
        for cid in ("jacobian-counts", "family-minors")
    }
    return all(same.values()), {"seed": seed, "reproducible": same}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

REGISTRY = (
    ("disc-form-d6",
     "discriminant form of D6 is [[0,1/2],[1/2,1/2]] on (Z/2)^2",
     check_disc_form_d6),
    ("lattice-complement-z210",
     "complement of D6(-1) in Z^{2,10}: signature (2,4), odd, disc 4, "
     "reference discriminant form",
     check_complement_in_z210),
    ("lattice-d6-perp-e8",
     "complement of D6 in E8 Gauss-reduces to diag(2,2)",
     check_d6_perp_e8),
    ("lattice-index2-identities",
     "the seven index-2 sublattice identities hold at invariant level",
     check_index2_identities),
    ("lattice-overlattice-enumeration",
     "H(2)+E10(-1): quotient (Z/2)^2 with q {0,0,1}, 3 intermediate "
     "integral lattices, 1 odd unimodular",
     check_allcock_overlattices),
    ("isotropic-orbits",
     "exhaustive height-5 classification: 3 vector classes, 2 plane "
     "classes, certificates match the boundary table",
     check_isotropic_orbits),
    ("lattice-disc-form-scaled",
     "discriminant form of L(2): (Z/4)^2+(Z/2)^4, 64 integral-norm "
     "elements, isotropic subgroup of order 8",
     check_lambda_disc_form),
    ("lattice-glue",
     "gluing L(2) along the isotropic subgroup gives the invariants of "
     "Z^2+D4(-1) at index 8",
     check_lambda_glue),
    ("lattice-subgroup-stable",
     "the isotropic subgroup is fixed by every bilinear automorphism of "
     "the discriminant form",
     check_lambda_stable),
    ("index-2^5",
     "index exponent (0,2,7,nontrivial) = 5 and the chain identity "
     "2^2*2^5 = 2^4*2^3 from computed indices",
     check_index_exponent),
    ("target-dim-4",
     "100 random smooth systems x 7 characters: dims (6,4,2), period "
     "rank 4, kernel dimension 2",
     check_target_dim_4),
    ("jacobian-counts",
     "internal counts 28-16-7+1 and 16+13-5=24; kernel family spans; a "
     "degenerate system breaks dimension 4",
     check_jacobian_counts),
    ("jacobian-squarefree-triples",
     "four character triples sum to each kappa; the second summand "
     "retains the first two",
     check_squarefree_triples),
    ("stability-strata",
     "stability witnesses classify into their strata; stable "
     "configurations have at most 4 triple points",
     check_stability_strata),
    ("quadrangle-classes",
     "48 labeled complete quadrangles: 2 classes, merged to 1 by odd "
     "wreath elements",
     check_quadrangle_classes),
    ("cremona-involution",
     "the Cremona map is an involution up to equivalence on 100 stable "
     "samples",
     check_cremona_involution),
    ("etale-slice",
     "slice identity: cremona(N(t,a,b,c,d)) is equivalent to "
     "N(t,c,d,a,b) with the first four columns reversed, on 100 samples",
     check_etale_slice),
    ("family-minors",
     "the 4-parameter family has minors 4b, -4a, 4d, -4c at 20 rational "
     "points",
     check_family_minors),
    ("f2-census",
     "weight census {7:1,5:7,3:21,1:35}; isotropy rule; totally "
     "isotropic G; 28 character bases, 4 per sum",
     check_f2_census),
    ("stabilizer-768",
     "|SO2| x |O4| / 2 = 4*384/2 = 768 = 24*32 by explicit enumeration",
     check_stabilizer_768),
    ("smoothness-paths",
     "three smoothness code paths agree on 200 systems including 20 "
     "engineered failures",
     check_smoothness_paths),
    ("drop-line-paths",
     "column-deletion line dropping agrees with the hyperplane-slice "
     "oracle on 100 samples",
     check_drop_line_paths),
    ("verify-determinism",
     "jacobian-counts and family-minors, each run twice on one drawn "
     "seed, report identical JSON",
     check_verify_determinism),
)


def registry_ids():
    return [entry[0] for entry in REGISTRY]


def run_check(check_id: str, seed: int = 0) -> Check:
    """Run a single registry check by id."""
    for cid, description, fn in REGISTRY:
        if cid == check_id:
            return _execute(cid, description, fn, seed)
    raise KeyError(f"unknown check id: {check_id}")


def _execute(cid, description, fn, seed) -> Check:
    rng = random.Random(f"{seed}:{cid}")
    try:
        ok, details = fn(rng)
        status = "Pass" if ok else "Fail"
    except Exception as exc:  # checks must never abort the report
        status = "Fail"
        details = {
            "exception": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(limit=3),
        }
    return Check(cid, description, status, details)


def run_verify(seed: int = 0, id_filter: str | None = None) -> Report:
    """Run the registry (optionally filtered by id prefix)."""
    start = time.monotonic()
    checks = []
    for cid, description, fn in REGISTRY:
        if id_filter and not cid.startswith(id_filter):
            checks.append(Check(cid, description, "Skipped", {}))
            continue
        checks.append(_execute(cid, description, fn, seed))
    return Report(
        seed=seed,
        version=__version__,
        checks=tuple(checks),
        elapsed_seconds=time.monotonic() - start,
    )
