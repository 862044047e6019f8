"""The benchmark workloads: seeded inputs, ops and output checks.

Every workload is a closed loop with one client.  Its work comes in
rounds: ``round_ops(r)`` draws the inputs of round ``r`` from
``random.Random(f"{seed}:{name}:{r}")`` and returns the ops of that
round.  A round has a fixed composition, so ops per second and the
latency percentiles do not depend on where a run stops.

An op is ``Op(key, run, check)``; its kind is the key up to the first
colon.  ``run()`` is the timed call into the
library and returns its raw result; ``check(raw)`` runs untimed and
returns ``(canonical, problem)``: the op's canonical JSON output, whose
SHA-256 digest is compared with the golden file, and ``None`` or a
description of the violated invariant.  Inputs are built by the
benchmark's own integer code, so the library receives only generated
inputs, and the filters double as independent oracles.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, NamedTuple, Optional

from latconf import configs, finite_forms, isotropic, jacobian, lattices
from latconf.errors import VerticesCollinear
from latconf.matrices import Matrix, frac_to_str

WORKLOADS = ("period-map", "lattice-census", "line-configs")

# Every run measures at least this many ops, so that at least ten
# samples lie beyond the 90th percentile.
MIN_OPS = 100

PERIOD_SUMMARY = {"dim_R10": 6, "dim_target": [4, 2], "rank": 4, "kernel_dim": 2}

# name -> (discriminant group orders, integral overlattices, bilinear
# automorphisms of the discriminant form), as computed at the commit
# that defined this benchmark.
CATALOGUE = {
    "D4": ([2, 2], 4, 6),
    "D4+D4": ([2, 2, 2, 2], 31, 720),
    "H(2)+H(2)": ([2, 2, 2, 2], 31, 720),
    "Z(0,4)*2": ([2, 2, 2, 2], 11, 48),
    "D6+D6": ([2, 2, 2, 2], 11, 48),
    "H(2)+E10*-1": ([2, 2], 4, 6),
    "D(2,4)": ([2, 2], 2, 2),
    "H(4)": ([4, 4], 9, 16),
    "H(2)+D4*-1": ([2, 2, 2, 2], 31, 720),
    "D4*2": ([2, 2, 4, 4], 38, 4608),
}

# height -> (primitive isotropic vectors, planes, plane census)
SCANS = {
    1: (None, None, None),
    3: (1824, 19440, {"EvenPlane": 5136, "OddPlane": 14304}),
    4: (4320, 59376, {"EvenPlane": 25488, "OddPlane": 33888}),
}

# Two height-5 planes whose classification is slow (about 0.6 s and
# 1.3 s at the commit that defined this benchmark).
SLOW_PLANES = (
    [[5, 1, -3, -3, 3, 5], [3, -2, -3, -4, 0, 1]],
    [[0, 3, 4, 0, -1, 1], [5, -2, -5, 1, -4, 4]],
)

L2_AUTOMORPHISMS = 49152
L2_CHUNK = 128


class Op(NamedTuple):
    """One timed call into the library and its untimed check."""

    key: str
    run: Callable
    check: Callable
    # raw -> True when the op ended in a counted reject, not a failure
    reject: Optional[Callable] = None


# ---------------------------------------------------------------------------
# Exact integer helpers (the benchmark's own, independent of latconf)
# ---------------------------------------------------------------------------


def det(rows):
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def columns(rows, idx):
    return [[row[j] for j in idx] for row in rows]


def cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def gcd_all(values):
    g = 0
    for x in values:
        g = _gcd(g, x)
    return g


def _gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def smooth_system(rng):
    """A 4x7 integer system whose 35 column 4-minors are all nonzero
    (smooth, hence of rank 4)."""
    while True:
        q = rand_matrix(rng, 4, 7)
        if all(det(columns(q, s)) != 0 for s in combinations(range(7), 4)):
            return q


def non_smooth_system(rng):
    """A rank-4 system with one repeated column: not smooth."""
    while True:
        q = smooth_system(rng)
        i, j = rng.sample(range(7), 2)
        for row in q:
            row[j] = row[i]
        if any(det(columns(q, s)) != 0 for s in combinations(range(7), 4)):
            return q


def general_config(rng, n=6):
    """3 x n lines in general position: every 3x3 minor is nonzero."""
    while True:
        c = rand_matrix(rng, 3, n)
        if all(det(columns(c, t)) != 0 for t in combinations(range(n), 3)):
            return c


def triple_config(rng):
    """Six lines whose only concurrent triple is a seeded one.

    Returns (rows, triple, point)."""
    while True:
        triple = tuple(sorted(rng.sample(range(6), 3)))
        point = [rng.randint(-4, 4) for _ in range(3)]
        if not any(point):
            continue
        cols = []
        for j in range(6):
            if j in triple:
                cols.append(cross(point, [rng.randint(-3, 3) for _ in range(3)]))
            else:
                cols.append([rng.randint(-9, 9) for _ in range(3)])
        rows = [[cols[j][i] for j in range(6)] for i in range(3)]
        zero = [t for t in combinations(range(6), 3) if det(columns(rows, t)) == 0]
        if zero == [triple]:
            return rows, triple, point


def vertex_rows(rows):
    """The three pair vertices M1^M2, M3^M4, M5^M6 of a six-line config."""
    cols = [[rows[i][j] for i in range(3)] for j in range(6)]
    return [cross(cols[0], cols[1]), cross(cols[2], cols[3]), cross(cols[4], cols[5])]


def collinear_vertex_config(rng):
    """Six lines in pairs whose three pair vertices lie on one line."""
    while True:
        base = [rng.randint(-5, 5) for _ in range(3)]
        if not any(base):
            continue
        cols = []
        for _ in range(3):
            vertex = cross(base, [rng.randint(-3, 3) for _ in range(3)])
            for _ in range(2):
                cols.append(cross(vertex, [rng.randint(-3, 3) for _ in range(3)]))
        if any(not any(c) for c in cols):
            continue
        rows = [[cols[j][i] for j in range(6)] for i in range(3)]
        vertices = vertex_rows(rows)
        if all(any(v) for v in vertices) and det(vertices) == 0:
            return rows


def isotropic_vectors(height):
    """Primitive isotropic vectors of diag(2,2,-1,-1,-1,-1) with
    coordinates in [-h, h], first nonzero coordinate positive."""
    rng = range(-height, height + 1)
    by_sum = {}
    for b in ((b1, b2, b3, b4) for b1 in rng for b2 in rng for b3 in rng for b4 in rng):
        by_sum.setdefault(sum(x * x for x in b), []).append(b)
    out = []
    for a1 in rng:
        for a2 in rng:
            for b in by_sum.get(2 * (a1 * a1 + a2 * a2), ()):
                v = (a1, a2) + b
                lead = next((x for x in v if x), 0)
                if lead > 0 and gcd_all(v) == 1:
                    out.append(v)
    return out


def pairing(v, w):
    return 2 * v[0] * w[0] + 2 * v[1] * w[1] - sum(x * y for x, y in zip(v[2:], w[2:]))


def vector_kind(v):
    """Parity rule: the b-part of v*G mod 2 decides the class."""
    parities = {x & 1 for x in v[2:]}
    if parities == {0}:
        return "EvenVector"
    if parities == {1}:
        return "OddType2Vector"
    return "OddType1Vector"


def plane_kind(r, s):
    """A primitive plane contains an even vector iff r*G, s*G mod 2
    are linearly dependent."""
    bits = [tuple(x & 1 for x in v[2:]) for v in (r, s)]
    zero = (0, 0, 0, 0)
    even = bits[0] == zero or bits[1] == zero or bits[0] == bits[1]
    return "EvenPlane" if even else "OddPlane"


def primitive_plane(rng, vectors):
    """Two orthogonal isotropic vectors spanning a primitive plane."""
    while True:
        v, w = rng.sample(vectors, 2)
        if pairing(v, w) != 0:
            continue
        minors = [v[a] * w[b] - v[b] * w[a] for a, b in combinations(range(6), 2)]
        if any(minors) and gcd_all(minors) == 1:
            return [list(v), list(w)]


def fraction_rows(m):
    return [[Fraction(x) for x in row] for row in m]


def matrix_json(rows):
    return [[frac_to_str(Fraction(x)) for x in row] for row in rows]


def drop_pairs(kappa):
    """Pairs {chi, chi xor kappa} of the six characters other than kappa."""
    return sorted({tuple(sorted((chi, chi ^ kappa))) for chi in range(1, 8) if chi != kappa})


def normalized(vec):
    lead = next(x for x in vec if x != 0)
    return [Fraction(x) / lead for x in vec]


def first_frame(rows):
    n = len(rows[0])
    for s in combinations(range(n), 4):
        if all(det(columns(rows, t)) != 0 for t in combinations(s, 3)):
            return s
    return None


def product_is_zero(q, c):
    """q * c^T == 0 for a 4x7 system q and a 3x7 configuration c."""
    return all(
        sum(Fraction(q[i][k]) * c[j][k] for k in range(7)) == 0
        for i in range(4)
        for j in range(3)
    )


# ---------------------------------------------------------------------------
# period-map
# ---------------------------------------------------------------------------


class PeriodMap:
    """One ``jacobian.period_map(q, kappa)`` call per op; kappa runs 1..7
    for each seeded smooth 4x7 system in turn (one system per round)."""

    name = "period-map"

    def __init__(self, seed, tiny=False):
        self.seed = seed

    def warm_up_ops(self):
        q = smooth_system(random.Random(f"{self.seed}:{self.name}:warm-up"))
        return self._ops("warm-up", q)[:1]

    def round_ops(self, r):
        return self._ops(r, smooth_system(random.Random(f"{self.seed}:{self.name}:{r}")))

    def _ops(self, r, rows):
        q = Matrix(rows)
        return [Op(f"period_map:{r}:{kappa}", self._run(q, kappa), self._check(q, kappa)) for kappa in range(1, 8)]

    @staticmethod
    def _run(q, kappa):
        return lambda: jacobian.period_map(q, kappa)

    @staticmethod
    def _check(q, kappa):
        def check(pm):
            canonical = {
                "kappa": kappa,
                "summary": pm.to_json(),
                "matrix": pm.matrix.to_json(),
                "kernel": pm.kernel.to_json(),
                "source_free": list(pm.source.free),
                "target_free": list(pm.target.free),
            }
            if canonical["summary"] != PERIOD_SUMMARY:
                return canonical, f"period map summary {canonical['summary']}"
            family = [pm.source.reduce_vector(v) for v in jacobian.kernel_family_vectors(q, kappa)]
            if not all((pm.matrix * Matrix([[x] for x in vec])).is_zero() for vec in family):
                return canonical, "kernel family does not map to zero"
            return canonical, None

        return check


# ---------------------------------------------------------------------------
# lattice-census
# ---------------------------------------------------------------------------


class LatticeCensus:
    """Discriminant-form and isotropic censuses (ROADMAP item 3's layer).

    One round: the ten catalogue lattices in seed-drawn order; the L(2)
    job (enumerating its 49,152 automorphisms, 384 ops each checking with
    ``apply_images`` that 128 of them fix the isotropic subgroup, and the
    glue); the plane scans at heights 3 and 4; 8 vector and 4 plane
    classifications, plus the two fixed slow planes below.  The L(2)
    ops have fixed inputs and are over 90% of the ops, so both the
    median and the 90th-percentile op lie well inside them and the
    latency percentiles follow the finite-form layer, not the seed.
    The height-5 scan (226,608 planes, about 8 s) is left out: one
    round must fit in a third of a run (see ``worker.timed_phase``).

    Seeded planes are spanned by vectors of height <= 3: at height 5
    the classification time is heavy-tailed (median 18 ms, maximum
    1.3 s over 150 draws), which would make a run's figures depend on
    its seed.  The two slowest planes of those draws are classified in
    every round, so that slow path stays measured.
    """

    name = "lattice-census"
    vectors_per_round = 8
    planes_per_round = 4

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.tiny = tiny
        self.vectors = isotropic_vectors(5)
        self.low_vectors = [v for v in self.vectors if max(map(abs, v)) <= 3]
        self.l2 = lattices.transcendental_slice().rescale(2)
        lam = self.l2.discriminant_form()
        a = self.l2.disc_element([Fraction(1, 4), 0, 0, 0, 0, 0])
        b = self.l2.disc_element([0, Fraction(1, 4), 0, 0, 0, 0])
        g3 = lam.zero()
        for i in range(4):
            half = [0, 0] + [Fraction(1, 2) if j == i else 0 for j in range(4)]
            g3 = lam.add(g3, self.l2.disc_element(half))
        self.lam = lam
        self.gens = [lam.smul(2, a), lam.smul(2, b), g3]

    def warm_up_ops(self):
        # the first finite-form search and plane scan import numpy
        rng = random.Random(f"{self.seed}:{self.name}:warm-up")
        return [
            self._catalogue("D4"),
            self._scan(1),
            self._vector("warm-up:v", rng.choice(self.vectors)),
            self._plane("warm-up:p", primitive_plane(rng, self.low_vectors)),
        ]

    def round_ops(self, r):
        rng = random.Random(f"{self.seed}:{self.name}:{r}")
        names = list(CATALOGUE)
        rng.shuffle(names)
        vectors = [rng.choice(self.vectors) for _ in range(self.vectors_per_round)]
        planes = [primitive_plane(rng, self.low_vectors) for _ in range(self.planes_per_round)]
        if self.tiny:
            names, vectors, planes = names[:2], vectors[:2], planes[:1]
        ops = [self._catalogue(name) for name in names]
        if not self.tiny:
            ops += self._l2_ops()
        ops += [self._scan(3)] + ([] if self.tiny else [self._scan(4)])
        ops += [self._vector(f"{r}:v{i}", v) for i, v in enumerate(vectors)]
        ops += [self._plane(f"{r}:p{i}", p) for i, p in enumerate(planes)]
        if not self.tiny:
            ops += [self._plane(f"slow{i}", p) for i, p in enumerate(SLOW_PLANES)]
        return ops

    # -- catalogue ------------------------------------------------------

    def _catalogue(self, name):
        def run():
            l = lattices.parse_lattice_name(name)
            form = l.discriminant_form()
            overlattices = lattices.enumerate_integral_overlattices(l)
            automorphisms = sum(1 for _ in finite_forms.finite_form_automorphisms(form))
            return form, overlattices, automorphisms

        def check(raw):
            form, overlattices, automorphisms = raw
            canonical = {
                "name": name,
                "form": form.to_json(),
                "overlattices": [
                    {"index": o.index, "parity": o.parity, "unimodular": o.unimodular,
                     "gram": o.lattice.gram.to_json()}
                    for o in overlattices
                ],
                "automorphisms": automorphisms,
            }
            found = (list(form.orders), len(overlattices), automorphisms)
            if found != CATALOGUE[name]:
                return canonical, f"{name}: census {found} != {CATALOGUE[name]}"
            return canonical, None

        return Op(f"catalogue:{name}", run, check)

    # -- the L(2) job ------------------------------------------------------

    def _l2_ops(self):
        lam, gens = self.lam, self.gens
        state = {}
        chunks = L2_AUTOMORPHISMS // L2_CHUNK

        def enumerate_run():
            state["subgroup"] = lam.subgroup(gens)
            state["images"] = list(finite_forms.finite_form_automorphisms(lam, compare="bilinear"))
            return state["images"], len(state["subgroup"])

        def enumerate_check(raw):
            images, order = raw
            blob = json.dumps([list(map(list, im)) for im in images], separators=(",", ":"))
            canonical = {"automorphisms": len(images), "subgroup_order": order,
                         "images_sha256": _sha256(blob)}
            if len(images) != L2_AUTOMORPHISMS or order != 8:
                return canonical, f"L(2): {len(images)} automorphisms, subgroup order {order}"
            return canonical, None

        def chunk(i):
            def run():
                subgroup = state["subgroup"]
                images = state["images"][i * L2_CHUNK:(i + 1) * L2_CHUNK]
                return len(images), all(
                    finite_forms.apply_images(lam, im, g) in subgroup for im in images for g in gens
                )

            def check(raw):
                count, stable = raw
                canonical = {"chunk": i, "automorphisms": count, "stable": stable}
                if count != L2_CHUNK or not stable:
                    return canonical, f"L(2) chunk {i}: {count} images, stable={stable}"
                return canonical, None

            return Op(f"l2-stable:{i}", run, check)

        def glue_run():
            return lattices.overlattice_from_isotropic(self.l2, gens, check_quadratic=False)

        def glue_check(glue):
            canonical = {"index": glue.index, "gram": glue.lattice.gram.to_json(),
                         "basis": glue.basis.to_json()}
            model = lattices.Zpq(2, 0).direct_sum(lattices.Dpq(0, 4))
            same, _stage = lattices.same_invariants(glue.lattice, model)
            if glue.index != 8 or not same or abs(glue.lattice.det()) != 4:
                return canonical, "L(2) glue is not Z^2+D4(-1) at index 8"
            return canonical, None

        return ([Op("l2-automorphisms", enumerate_run, enumerate_check)]
                + [chunk(i) for i in range(chunks)] + [Op("l2-glue", glue_run, glue_check)])

    # -- plane scans -------------------------------------------------------

    def _scan(self, height):
        def run():
            vectors = isotropic.enumerate_isotropic_vectors(height)
            return vectors, isotropic.scan_isotropic_planes(vectors=vectors, height=height)

        def check(raw):
            vectors, scan = raw
            canonical = {
                "height": height, "vectors": len(vectors), "planes": scan.count,
                "census": dict(sorted(scan.census.items())),
                "representatives": {k: m.to_json() for k, m in sorted(scan.representatives.items())},
            }
            mine = sorted(v for v in self.vectors if max(map(abs, v)) <= height)
            if sorted(vectors) != mine:
                return canonical, f"height {height}: isotropic vectors differ"
            n_vectors, n_planes, census = SCANS[height]
            if n_planes is not None and (
                len(vectors), scan.count, canonical["census"]) != (n_vectors, n_planes, census):
                return canonical, f"height {height}: plane census {scan.count} {scan.census}"
            return canonical, None

        return Op(f"scan:{height}", run, check)

    # -- classification ----------------------------------------------------

    def _vector(self, key, v):
        def run():
            cls = isotropic.classify_isotropic_vector(None, v)
            return cls, isotropic.certificate_matches(cls)

        def check(raw):
            cls, matches = raw
            canonical = {"vector": list(v), "kind": cls.kind,
                         "certificate": cls.certificate.to_json(), "matches": matches}
            if cls.kind != vector_kind(v) or not matches:
                return canonical, f"vector {v}: {cls.kind}, certificate match {matches}"
            return canonical, None

        return Op(f"vector:{key}", run, check)

    def _plane(self, key, basis):
        def run():
            cls = isotropic.classify_isotropic_plane(None, Matrix(basis))
            return cls, isotropic.certificate_matches(cls)

        def check(raw):
            cls, matches = raw
            canonical = {"plane": basis, "kind": cls.kind,
                         "certificate": cls.certificate.to_json(), "matches": matches}
            if cls.kind != plane_kind(*basis) or not matches:
                return canonical, f"plane {basis}: {cls.kind}, certificate match {matches}"
            return canonical, None

        return Op(f"plane:{key}", run, check)


# ---------------------------------------------------------------------------
# line-configs
# ---------------------------------------------------------------------------


class LineConfigs:
    """Many tiny exact matrices: six-line configurations, seven-line
    configurations of smooth systems, and group orbits.

    One round: 36 configuration ops (every fourth has one triple
    point), 18 system ops, and one orbit each under the wreath group
    W3 (48), S4 (24) and GL3(F2) (168).
    """

    name = "line-configs"
    configs_per_round = 36
    systems_per_round = 18

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.tiny = tiny
        self.groups = {
            "w3": (configs.wreath_elements(), configs.act_wreath),
            "s4": ([configs.s4_to_wreath(s) for s in permutations(range(1, 5))], configs.act_wreath),
            "glf2": (configs.gl3f2_elements(), configs.act_gl3f2),
        }

    def warm_up_ops(self):
        rng = random.Random(f"{self.seed}:{self.name}:warm-up")
        return [
            self._config("warm-up:c", general_config(rng)),
            self._system("warm-up:s", smooth_system(rng)),
            self._orbit("warm-up:o", "s4", rng),
        ]

    def round_ops(self, r):
        rng = random.Random(f"{self.seed}:{self.name}:{r}")
        ops = []
        for i in range(self.configs_per_round):
            if i % 4 == 3:
                ops.append(self._config(f"{r}:c{i}", *triple_config(rng)))
            else:
                ops.append(self._config(f"{r}:c{i}", general_config(rng)))
        ops += [self._system(f"{r}:s{i}", smooth_system(rng)) for i in range(self.systems_per_round)]
        ops += [self._orbit(f"{r}:{g}", g, rng) for g in ("w3", "s4", "glf2")]
        rng.shuffle(ops)
        if self.tiny:
            keep = {f"config:{r}:c{i}" for i in range(4)} | {f"system:{r}:s0", f"orbit:{r}:w3"}
            ops = [op for op in ops if op.key in keep]
        return ops

    def _config(self, key, rows, triple=None, point=None):
        c = configs.ConfigMatrix(fraction_rows(rows))

        def run():
            report = configs.stability(c)
            triples = configs.triple_points(c)
            normal, frame = configs.canonical_form(c)
            try:
                back = configs.cremona(configs.cremona(c))
            except VerticesCollinear:
                return report, triples, normal, frame, None
            return report, triples, normal, frame, configs.equivalent(back, c)

        def check(raw):
            report, triples, normal, frame, involution = raw
            canonical = {
                "config": matrix_json(rows),
                "stability": report.to_json(),
                "triple_points": [[list(t), [frac_to_str(x) for x in p]] for t, p in triples],
                "canonical": normal.to_json(),
                "frame": list(frame),
                "cremona_involution": "collinear" if involution is None else involution,
            }
            stratum = "411" if triple is None else "321"
            if (report.status, report.stratum) != ("Stable", stratum):
                return canonical, f"stability {report.status}/{report.stratum}, expected Stable/{stratum}"
            expected = [] if triple is None else [(triple, tuple(normalized(point)))]
            if [(t, tuple(p)) for t, p in triples] != expected:
                return canonical, f"triple points {canonical['triple_points']}"
            if tuple(frame) != first_frame(rows):
                return canonical, f"frame {frame}"
            cols = [list(normal.matrix.column(j)) for j in frame]
            if cols != [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]:
                return canonical, "canonical form does not send the frame to the standard frame"
            if involution is None:
                if det(vertex_rows(rows)) != 0:
                    return canonical, "cremona rejected vertices that are not collinear"
            elif involution is not True:
                return canonical, "cremona(cremona(c)) is not equivalent to c"
            return canonical, None

        # a VerticesCollinear draw is a counted reject, not a failure
        return Op(f"config:{key}", run, check, reject=lambda raw: raw[4] is None)

    def _system(self, key, rows):
        q = Matrix(rows)

        def run():
            smooth = configs.smoothness(q)
            seven = configs.seven_line_config(q)
            triples = configs.triple_points(seven)
            dropped = [configs.drop_line(seven, kappa) for kappa in range(1, 8)]
            return smooth, seven, triples, dropped

        def check(raw):
            smooth, seven, triples, dropped = raw
            canonical = {
                "system": matrix_json(rows),
                "smooth": smooth[0],
                "seven": seven.to_json(),
                "dropped": [d.to_json() for d in dropped],
            }
            if smooth != (True, None) or triples:
                return canonical, f"smooth system reported {smooth}, triple points {len(triples)}"
            c = [list(row) for row in seven.matrix.data]
            if seven.labels != tuple(range(1, 8)) or not product_is_zero(rows, c):
                return canonical, "seven-line configuration is not the kernel of the system"
            for kappa, d in zip(range(1, 8), dropped):
                order = [chi for pair in drop_pairs(kappa) for chi in pair]
                want = [[c[i][chi - 1] for chi in order] for i in range(3)]
                if [list(row) for row in d.matrix.data] != want or d.labels != (0, 0, 1, 1, 2, 2):
                    return canonical, f"drop_line(kappa={kappa}) regrouped wrongly"
            return canonical, None

        return Op(f"system:{key}", run, check)

    def _orbit(self, key, group, rng):
        elements, act = self.groups[group]
        n = 7 if group == "glf2" else 6
        c = configs.ConfigMatrix(fraction_rows(general_config(rng, n)))
        g = rng.choice(elements)

        def run():
            return configs.orbit([c, act(g, c)], elements, act)

        def check(classes):
            canonical = {"group": group, "config": c.to_json(),
                         "element": json.loads(json.dumps(g)), "classes": classes}
            if classes != [[0, 1]]:
                return canonical, f"{group} orbit classes {classes}"
            return canonical, None

        return Op(f"orbit:{key}", run, check)


# ---------------------------------------------------------------------------
# cli-mix: no timed workload; the traced line-configs run uses its first
# round to measure the cli layer (worker.cli_probes)
# ---------------------------------------------------------------------------

# catalogue lattices whose overlattice enumeration stays well under a second
CHEAP_OVERLATTICES = ("D4", "H(4)", "D(2,4)", "H(2)+E10*-1", "Z(0,4)*2")


class CliMix:
    """One ``python -m latconf ...`` child per op, one at a time.

    One round is the fixed mix of 14 invocations below; inputs are
    given inline and as files, and two ops are documented domain errors
    that must exit 1 with one JSON error document.
    """

    name = "cli-mix"

    def __init__(self, seed, tiny=False, workdir=None, env=None):
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.vectors = isotropic_vectors(3)

    def warm_up_ops(self):
        def check(out):
            code, stdout, _stderr = out
            return {"exit": code}, None if code == 0 and stdout.strip() else "latconf --version failed"

        return [Op("version:warm-up", self._run(["--version"]), check)]

    def _file(self, name, obj):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def _run(self, argv):
        cmd = [sys.executable, "-m", "latconf", *argv]

        def run():
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        return run

    def round_ops(self, r):
        rng = random.Random(f"{self.seed}:{self.name}:{r}")
        tag = f"r{r}"
        name = rng.choice(list(CATALOGUE))
        cheap = rng.choice(CHEAP_OVERLATTICES)
        vector = rng.choice(self.vectors)
        base, cover, rho = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 9)
        trivial = rng.random() < 0.5
        stable_rows = general_config(rng)
        canon_rows = general_config(rng)
        while True:
            cremona_rows = general_config(rng)
            if det(vertex_rows(cremona_rows)) != 0:
                break
        orbit_rows = general_config(rng)
        seven_rows = general_config(rng, 7)
        drop_kappa = rng.randint(1, 7)
        quadrics = smooth_system(rng)
        dims_system, dims_kappa = smooth_system(rng), rng.randint(1, 7)
        rank_system, rank_kappa = smooth_system(rng), rng.randint(1, 7)
        collinear_rows = collinear_vertex_config(rng)
        singular, singular_kappa = non_smooth_system(rng), rng.randint(1, 7)

        inline = lambda obj: json.dumps(obj)  # noqa: E731
        index_argv = ["lattice", "index-formula", "--ell2-base", str(base),
                      "--ell2-cover", str(cover), "--rho", str(rho)]
        if trivial:
            index_argv.append("--kappa-trivial")
        mix = [
            ("disc-form", ["lattice", "disc-form", "--name", name],
             lambda out: self._expect(out, orders=CATALOGUE[name][0])),
            ("overlattices", ["lattice", "overlattices", "--name", cheap],
             lambda out: self._expect(out, count=CATALOGUE[cheap][1])),
            ("classify-isotropic", ["lattice", "classify-isotropic", "--vector", inline(list(vector))],
             lambda out: self._expect(out, kind=vector_kind(vector))),
            ("index-formula", index_argv,
             lambda out: self._expect(out, exponent=base - cover + rho - (1 if trivial else 0))),
            ("stability", ["config", "stability", "--config", self._file(f"{tag}-stability.json", stable_rows)],
             lambda out: self._expect(out, status="Stable", stratum="411")),
            ("canonical", ["config", "canonical", "--config", inline(canon_rows)],
             lambda out: self._expect(out, frame=list(first_frame(canon_rows)))),
            ("cremona", ["config", "cremona", "--config", inline(cremona_rows)],
             lambda out: self._expect(out, labels=[0, 0, 1, 1, 2, 2])),
            ("orbit", ["config", "orbit", "--group", "w3", "--config", self._file(f"{tag}-orbit.json", orbit_rows)],
             lambda out: self._check_orbit(out)),
            ("drop", ["config", "drop", "--kappa", str(drop_kappa),
                      "--config", self._file(f"{tag}-seven.json", seven_rows)],
             lambda out: self._check_drop(out, seven_rows, drop_kappa)),
            ("from-quadrics", ["config", "from-quadrics", "--system", self._file(f"{tag}-quadrics.json", quadrics)],
             lambda out: self._check_from_quadrics(out, quadrics)),
            ("dims", ["jacobian", "dims", "--kappa", str(dims_kappa),
                      "--system", self._file(f"{tag}-dims.json", dims_system)],
             lambda out: self._expect(out, dim_R10=6, kappa=dims_kappa, dim_target=[4, 2])),
            ("period-rank", ["jacobian", "period-rank", "--kappa", str(rank_kappa), "--system", inline(rank_system)],
             lambda out: self._expect(out, **PERIOD_SUMMARY)),
            ("error-collinear", ["config", "cremona", "--config", inline(collinear_rows)],
             lambda out: self._expect_error(out, "VerticesCollinear")),
            ("error-smoothness", ["jacobian", "period-rank", "--kappa", str(singular_kappa),
                                  "--system", self._file(f"{tag}-singular.json", singular)],
             lambda out: self._expect_error(out, "SmoothnessRequired")),
        ]
        return [Op(f"{label}:{r}", self._run(argv), check) for label, argv, check in mix]

    # -- checks ------------------------------------------------------------

    @staticmethod
    def _parse(out, want_exit):
        code, stdout, stderr = out
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return {"exit": code, "stdout": stdout}, f"exit {code}, stdout is not one JSON document"
        canonical = {"exit": code, "stdout": doc}
        if code != want_exit:
            return canonical, f"exit {code}, expected {want_exit}: {stderr.strip()[-200:]}"
        if stderr.strip():
            return canonical, f"unexpected stderr: {stderr.strip()[-200:]}"
        return canonical, None

    def _expect(self, out, **fields):
        canonical, problem = self._parse(out, 0)
        if problem:
            return canonical, problem
        doc = canonical["stdout"]
        for key, want in fields.items():
            if doc.get(key) != want:
                return canonical, f"{key} = {doc.get(key)!r}, expected {want!r}"
        return canonical, None

    def _check_orbit(self, out):
        canonical, problem = self._parse(out, 0)
        if problem:
            return canonical, problem
        doc = canonical["stdout"]
        size = doc.get("orbit_size")
        if doc.get("group_order") != 48 or not isinstance(size, int) or size < 1 or 48 % size:
            return canonical, f"w3 orbit {doc}"
        return canonical, None

    def _expect_error(self, out, kind):
        canonical, problem = self._parse(out, 1)
        if problem:
            return canonical, problem
        error = canonical["stdout"].get("error", {})
        if error.get("kind") != kind or set(canonical["stdout"]) != {"error"}:
            return canonical, f"error document {canonical['stdout']}, expected kind {kind}"
        return canonical, None

    def _check_drop(self, out, rows, kappa):
        canonical, problem = self._parse(out, 0)
        if problem:
            return canonical, problem
        order = [chi for pair in drop_pairs(kappa) for chi in pair]
        want = matrix_json([[rows[i][chi - 1] for chi in order] for i in range(3)])
        doc = canonical["stdout"]
        if doc["matrix"]["entries"] != want or doc["labels"] != [0, 0, 1, 1, 2, 2]:
            return canonical, f"drop --kappa {kappa} regrouped wrongly"
        return canonical, None

    def _check_from_quadrics(self, out, q):
        canonical, problem = self._parse(out, 0)
        if problem:
            return canonical, problem
        doc = canonical["stdout"]
        c = [[Fraction(x) for x in row] for row in doc["config"]["matrix"]["entries"]]
        if not doc["smooth"] or doc["dependent_columns"] is not None or not product_is_zero(q, c):
            return canonical, "from-quadrics: not smooth or not the kernel of the system"
        return canonical, None


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make(name, seed, tiny=False, **kwargs):
    cls = {
        "period-map": PeriodMap,
        "lattice-census": LatticeCensus,
        "line-configs": LineConfigs,
        "cli-mix": CliMix,
    }[name]
    return cls(seed, tiny=tiny, **kwargs)
