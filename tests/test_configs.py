"""Line configurations: stability, canonical forms, Cremona, groups."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latconf.configs
from latconf.configs import (
    CHAR_LABELS,
    PAIR_LABELS,
    ConfigMatrix,
    act_gl3f2,
    act_torus,
    act_wreath,
    canonical_form,
    canonical_key,
    check_kappa,
    complete_quadrangle,
    cremona,
    dependent_columns,
    drop_line,
    drop_pairs,
    equivalent,
    etale_slice,
    gale_dual,
    gl3f2_elements,
    node_report,
    orbit,
    plucker,
    quadrangle_classes,
    quadrangle_slice,
    s4_to_wreath,
    seven_line_config,
    smoothness,
    stability,
    triple_points,
    wreath_elements,
    wreath_signature,
)
from latconf.errors import (
    DimensionError,
    LabelError,
    LatconfError,
    NoFrame,
    VerticesCollinear,
)
from latconf.jacobian import kappa_target, kernel_family_vectors, period_map
from latconf.matrices import Matrix
from latconf.verify import random_system

GENERIC = ConfigMatrix([[1, 0, 0, 1, 2, 3], [0, 1, 0, 1, 5, 7],
                        [0, 0, 1, 1, 11, 13]])


def test_config_validation():
    with pytest.raises(DimensionError):
        ConfigMatrix([[1, 0], [0, 1]])
    with pytest.raises(DimensionError):
        ConfigMatrix([[1, 0, 0, 1, 2, 0], [0, 1, 0, 1, 5, 0],
                      [0, 0, 1, 1, 11, 0]])  # zero column
    with pytest.raises(LabelError):
        ConfigMatrix(GENERIC.matrix, (0, 0, 0, 1, 1, 2))
    # a column selection that does not rearrange the labels is checked
    with pytest.raises(DimensionError):
        GENERIC.permute_columns([0, 1, 2, 3, 4])
    with pytest.raises(LabelError):
        GENERIC.permute_columns([0, 1, 0, 1, 4, 5])
    repeated = GENERIC.permute_columns([0, 0, 2, 3, 4, 5])
    assert ConfigMatrix(repeated.matrix, repeated.labels) == repeated


def test_json_round_trip():
    assert ConfigMatrix.from_json(GENERIC.to_json()).matrix == GENERIC.matrix


def test_plucker_values():
    coords = plucker(GENERIC)
    assert len(coords) == 20
    assert coords[(0, 1, 2)] == 1
    assert coords[(0, 1, 3)] == 1


def test_stability_strata_witnesses():
    cases = [
        (GENERIC, "Stable", "411"),
        (complete_quadrangle(), "Stable", "321"),
        (ConfigMatrix([[1, 0, 1, 1, 1, 0], [0, 1, 1, 2, 3, 0],
                       [0, 0, 0, 0, 0, 1]]), "Unstable", "141"),
        (ConfigMatrix([[1, 1, 1, 0, 1, 0], [0, 0, 0, 1, 1, 0],
                       [0, 0, 0, 0, 0, 1]]), "Unstable", "213"),
        (ConfigMatrix([[1, 1, 0, 0, 1, 1], [0, 0, 1, 1, 1, 1],
                       [0, 0, 0, 0, 1, 1]]), "Polystable", "222"),
        (ConfigMatrix([[1, 0, 1, 1, 0, 0], [0, 1, 1, 2, 0, 0],
                       [0, 0, 0, 0, 1, 1]]), "Polystable", "231"),
        (ConfigMatrix([[1, 0, 1, 1, 0, 1], [0, 1, 1, 2, 0, 0],
                       [0, 0, 0, 0, 1, 1]]), "StrictlySemistable", "231"),
        (ConfigMatrix([[1, 0, 0, 1, 2, 2], [0, 1, 0, 1, 3, 3],
                       [0, 0, 1, 1, 1, 1]]), "StrictlySemistable", "312"),
        (ConfigMatrix([[1, 1, 1, 1, 0, 1], [0, 0, 1, 2, 0, 0],
                       [0, 0, 0, 0, 1, 1]]), "StrictlySemistable", "222"),
    ]
    for config, status, stratum in cases:
        report = stability(config)
        assert (report.status, report.stratum) == (status, stratum)


def test_stable_configs_have_at_most_four_triple_points():
    rng = random.Random(2)
    found = 0
    while found < 25:
        try:
            c = ConfigMatrix([[rng.randint(-9, 9) for _ in range(6)]
                              for _ in range(3)])
        except DimensionError:
            continue
        if stability(c).status != "Stable":
            continue
        found += 1
        assert len(triple_points(c)) <= 4


def _seeded_configs(rng, n):
    """A configuration of n lines with entries in -2..2, some columns
    forced proportional to others and some forced through the meeting
    point of two others."""
    while True:
        cols = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(n)]
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            a, b = rng.sample(range(n), 2)
            cols[b] = [rng.choice((1, -1, 2)) * x for x in cols[a]]
        for _ in range(rng.choice((0, 1, 2, 3))):
            a, b, d = rng.sample(range(n), 3)
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            cols[d] = [s * x + t * y for x, y in zip(cols[a], cols[b])]
        try:
            return ConfigMatrix(Matrix.from_columns(cols))
        except DimensionError:  # a zero column
            continue


def _over_denominators(rng, c):
    """The lines of ``c`` over denominators: each column times its own
    s/d with s in (1, -1, 2) and d in 5..7."""
    cols = []
    for col in zip(*c.matrix.num):
        s, d = rng.choice((1, -1, 2)), rng.choice((5, 6, 7))
        cols.append([Fraction(s * x, d) for x in col])
    return ConfigMatrix(Matrix.from_columns(cols), c.labels)


def _column_ranks(c):
    """``Matrix.rank`` of every subset of 2 to 5 columns (2 or 3 of 7)."""
    sizes = range(2, 6) if c.n == 6 else (2, 3)
    return {
        s: c.matrix.submatrix(range(3), s).rank()
        for k in sizes
        for s in combinations(range(c.n), k)
    }


def _stability_oracle(rank):
    """(status, stratum, coincident pairs, concurrent triples) of six
    lines from the ranks of their column subsets: lines coincide when
    their columns have rank 1, and pass through one point when their
    columns have rank 2.  A set of six lines through one point has five
    through it too, so subsets of at most five columns decide."""
    mult = max((len(s) for s, r in rank.items() if r == 1), default=1)
    conc = max(len(s) for s, r in rank.items() if r <= 2)
    pairs = [s for s in combinations(range(6), 2) if rank[s] == 1]
    triples = tuple(
        t for t in combinations(range(6), 3)
        if rank[t] == 2 and all(rank[p] == 2 for p in combinations(t, 2))
    )
    if mult >= 3:
        kind = "Unstable", "213"
    elif conc >= 5:
        kind = "Unstable", "141"
    elif mult == 1 and conc <= 3:
        kind = "Stable", "321" if triples else "411"
    elif len(pairs) == 3:
        kind = "Polystable", "222"
    elif len(pairs) == 1 and (
        rank[tuple(j for j in range(6) if j not in pairs[0])] == 2
        and rank[tuple(j for j in range(6) if j != pairs[0][1])] == 3
    ):
        # the other four lines meet in a point off the double line
        kind = "Polystable", "231"
    elif mult == 2:
        kind = "StrictlySemistable", "222" if conc >= 4 else "312"
    else:
        kind = "StrictlySemistable", "231"
    return kind + (pairs, triples)


def _oracle_configs():
    """401 six-line and 100 seven-line seeded configurations, then each
    of them over denominators."""
    rng = random.Random(17)
    # random draws rarely reach this stratum
    polystable_231 = ConfigMatrix([[1, 0, 1, 1, 0, 0], [0, 1, 1, 2, 0, 0],
                                   [0, 0, 0, 0, 1, 1]])
    configs = [polystable_231] + [_seeded_configs(rng, 6) for _ in range(400)]
    configs += [_seeded_configs(rng, 7) for _ in range(100)]
    rational = [_over_denominators(rng, c) for c in configs]
    assert all(c.matrix.den > 1 for c in rational)
    return configs + rational


def test_stability_and_triple_points_against_rank_oracle():
    seen = set()
    for c in _oracle_configs():
        rank = _column_ranks(c)
        if c.n == 6:
            report = stability(c)
            status, stratum, pairs, triples = _stability_oracle(rank)
            assert (report.status, report.stratum) == (status, stratum)
            assert sorted(report.coincident_pairs) == pairs
            assert report.concurrent_triples == triples
            seen.add((status, stratum))
        if any(rank[p] == 1 for p in combinations(range(c.n), 2)):
            with pytest.raises(DimensionError):
                triple_points(c)
            continue
        found = triple_points(c)
        assert [t for t, _ in found] == [
            t for t in combinations(range(c.n), 3) if rank[t] == 2
        ]
        for t, point in found:
            assert next(x for x in point if x != 0) == 1
            for j in t:
                assert sum(a * b for a, b in zip(c.matrix.column(j), point)) == 0
    assert len(seen) == 9


def test_quadrangle():
    quad = complete_quadrangle()
    assert stability(quad).status == "Stable"
    assert len(triple_points(quad)) == 4
    trivial, even, full = quadrangle_classes()
    assert (len(trivial), len(even), len(full)) == (2, 2, 1)


small_frac = st.integers(min_value=-7, max_value=7)


@settings(max_examples=25, deadline=None)
@given(st.lists(small_frac, min_size=9, max_size=9),
       st.lists(st.integers(min_value=1, max_value=7), min_size=6,
                max_size=6))
def test_canonical_form_invariance(entries, scalars):
    g = Matrix([entries[0:3], entries[3:6], entries[6:9]])
    if g.det() == 0:
        return
    base, frame = canonical_form(GENERIC)
    moved = act_torus(scalars, GENERIC.with_matrix(g * GENERIC.matrix))
    again, frame2 = canonical_form(moved)
    assert frame == frame2
    assert base.matrix == again.matrix


def _canonical_form_oracle(c):
    """The Fraction route: A^-1 sends the frame's first three columns to
    e1, e2, e3, diag(1/w) its fourth to (1,1,1), w = A^-1 d; then every
    column is scaled so its first nonzero entry is 1."""
    cols = [c.matrix.column(j) for j in range(c.n)]
    for frame in combinations(range(c.n), 4):
        if all(Matrix.from_columns([cols[j] for j in t]).det() != 0
               for t in combinations(frame, 3)):
            break
    else:
        raise NoFrame("no frame")
    ainv = Matrix.from_columns([cols[j] for j in frame[:3]]).inverse()
    w = ainv * Matrix([[x] for x in cols[frame[3]]])
    g = Matrix.diagonal([1 / w.entry(i, 0) for i in range(3)]) * ainv
    image = g * c.matrix
    scaled = []
    for j in range(c.n):
        col = image.column(j)
        lead = next(x for x in col if x != 0)
        scaled.append([x / lead for x in col])
    return Matrix.from_columns(scaled), frame


rational_entry = st.one_of(
    small_frac.map(Fraction),
    st.builds(Fraction, small_frac, st.integers(min_value=1, max_value=7)),
)


@st.composite
def line_configs(draw):
    """Six or seven lines with rational entries; some columns forced to
    be combinations of two others, and sometimes five or all lines forced
    through one point, which leaves no frame."""
    n = draw(st.sampled_from((6, 7)))
    cols = [[draw(rational_entry) for _ in range(3)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        a, b, d = draw(st.permutations(range(n)))[:3]
        s, t = draw(rational_entry), draw(rational_entry)
        cols[d] = [s * x + t * y for x, y in zip(cols[a], cols[b])]
    through = draw(st.sampled_from((0, 0, 0, 5, n)))
    if through:
        point = [draw(rational_entry) for _ in range(2)] + [Fraction(-1)]
        for j in draw(st.permutations(range(n)))[:through]:
            cols[j][2] = cols[j][0] * point[0] + cols[j][1] * point[1]
    for col in cols:
        if not any(col):
            col[draw(st.integers(0, 2))] = draw(rational_entry.filter(bool))
    return ConfigMatrix(Matrix.from_columns(cols))


@settings(max_examples=150, deadline=None)
@given(line_configs())
def test_canonical_form_against_fraction_oracle(c):
    try:
        want = _canonical_form_oracle(c)
    except NoFrame:
        with pytest.raises(NoFrame):
            canonical_form(c)
        return
    normal, frame = canonical_form(c)
    assert (normal.matrix, frame) == want
    assert normal.matrix.data == want[0].data and normal.labels == c.labels
    # results built without the constructor's checks pass them
    assert ConfigMatrix(normal.matrix, normal.labels) == normal
    if c.n == 6:
        try:
            image = cremona(c)
        except VerticesCollinear:
            return
        assert ConfigMatrix(image.matrix, image.labels) == image


def _form_key(c):
    """``(labels, frame, canonical_form matrix)``: the Matrix form, which
    ``test_canonical_form_against_fraction_oracle`` holds to the Fraction
    route, so this key is independent of ``canonical_key``."""
    normal, frame = canonical_form(c)
    return c.labels, frame, normal.matrix


@st.composite
def key_families(draw):
    """A drawn configuration, a GL3 x torus image of it, the same columns
    shuffled under the same labels, the same columns with their labels
    and an unrelated draw."""
    c = draw(line_configs())
    g = Matrix([draw(st.lists(small_frac, min_size=3, max_size=3)) for _ in range(3)])
    scalars = draw(st.lists(rational_entry.filter(bool), min_size=c.n, max_size=c.n))
    order = draw(st.permutations(range(c.n)))
    family = [c, ConfigMatrix(c.matrix.submatrix(range(3), order), c.labels),
              c.permute_columns(order), draw(line_configs())]
    if g.det():
        family.append(act_torus(scalars, c.with_matrix(g * c.matrix)))
    return family


@settings(max_examples=100, deadline=None)
@given(key_families())
def test_canonical_key_against_matrix_form(family):
    """Keys are equal exactly when labels, frame and canonical_form matrix
    are, and ``canonical_key`` raises NoFrame exactly where
    ``canonical_form`` does; its columns are int triples."""
    pairs = []
    for c in family:
        try:
            form = _form_key(c)
        except NoFrame:
            with pytest.raises(NoFrame):
                canonical_key(c)
            continue
        key = canonical_key(c)
        assert all(type(t) is int for col in key[2] for t in col)
        pairs.append((form, key))
    for (form_a, key_a), (form_b, key_b) in product(pairs, repeat=2):
        assert (key_a == key_b) == (form_a == form_b)


def test_config_matrix_is_a_slotted_frozen_value():
    """No per-instance ``__dict__``; assignment raises; ``==`` and
    ``hash`` compare the matrix values and the labels."""
    rows = [[1, 0, 0, 1, 2, 3], [0, 1, 0, 1, 5, 7], [0, 0, 1, 1, 11, 13]]
    a = ConfigMatrix(rows)
    b = ConfigMatrix([[Fraction(2 * x, 2) for x in row] for row in rows])
    assert a == b and hash(a) == hash(b)
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):
        a.labels = PAIR_LABELS
    assert a != ConfigMatrix(rows, (1, 1, 0, 0, 2, 2))


def test_canonical_form_idempotent():
    base, _ = canonical_form(GENERIC)
    again, _ = canonical_form(base)
    assert base.matrix == again.matrix


def test_equivalent_with_different_labels_needs_no_frame():
    # six concurrent lines: no four columns form a projective frame
    concurrent = [[1, 0, 1, 1, 1, 1], [0, 1, 1, 2, 3, 4], [0, 0, 0, 0, 0, 0]]
    a = ConfigMatrix(concurrent, PAIR_LABELS)
    b = ConfigMatrix(concurrent, (0, 1, 0, 1, 2, 2))
    with pytest.raises(NoFrame):
        canonical_form(a)
    assert equivalent(a, b) is False


def test_cremona_involution_samples():
    rng = random.Random(3)
    done = 0
    for _ in range(100):  # bounded: a broken cremona must fail, not hang
        if done == 10:
            break
        try:
            c = ConfigMatrix([[rng.randint(-9, 9) for _ in range(6)]
                              for _ in range(3)])
        except DimensionError:
            continue
        if stability(c).status != "Stable":
            continue
        try:
            back = cremona(cremona(c))
        except VerticesCollinear:
            continue
        assert equivalent(back, c)
        done += 1
    assert done == 10


def _cross_fractions(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


@settings(max_examples=60, deadline=None)
@given(line_configs().filter(lambda c: c.n == 6))
def test_cremona_matrix_against_fraction_formula(c):
    """The exact matrix, not only its class: N's rows are the pair
    vertices of the Fraction columns, and column j of N*M has its two
    entries off row j//2 swapped."""
    cols = [c.matrix.column(j) for j in range(6)]
    n = Matrix([_cross_fractions(cols[k], cols[k + 1]) for k in (0, 2, 4)])
    if n.det() == 0:
        with pytest.raises(VerticesCollinear):
            cremona(c)
        return
    image = n * c.matrix
    want = []
    for j in range(6):
        col = list(image.column(j))
        i, k = (i for i in range(3) if i != j // 2)
        col[i], col[k] = col[k], col[i]
        want.append(col)
    assert cremona(c).matrix == Matrix.from_columns(want)


@settings(max_examples=60, deadline=None)
@given(line_configs(), st.lists(rational_entry.filter(bool), min_size=7, max_size=7))
def test_act_torus_against_fraction_columns(c, scalars):
    scalars = scalars[:c.n]
    want = [[x * s for x in c.matrix.column(j)] for j, s in enumerate(scalars)]
    moved = act_torus(scalars, c)
    assert moved.matrix == Matrix.from_columns(want)
    assert moved.labels == c.labels


def test_act_torus_rejects_bad_scalars():
    with pytest.raises(DimensionError, match="one scalar per column"):
        act_torus([1] * 5, GENERIC)
    with pytest.raises(DimensionError, match="nonzero"):
        act_torus([1, 2, 0, 1, 1, 1], GENERIC)


def test_cremona_collinear_vertices_raise():
    # the three pair-lines all pass through (0:0:1), so the pair
    # vertices are collinear and the involution is undefined
    bad = ConfigMatrix([[1, 2, 1, 3, 1, 4], [1, 2, 2, 6, 3, 12],
                        [0, 0, 0, 0, 0, 0]])
    with pytest.raises((VerticesCollinear, DimensionError)):
        cremona(bad)


def _fraction_copy(c, order):
    """The Fraction route: columns ``order`` of ``c`` copied into
    ``Matrix.from_columns``."""
    return Matrix.from_columns([list(c.matrix.column(j)) for j in order])


def _f2_apply(g, chi):
    """The 3x3 F2 matrix ``g`` (rows of bits) applied to character chi."""
    bits = [(chi >> (2 - k)) & 1 for k in range(3)]
    return sum((sum(g[i][k] * bits[k] for k in range(3)) % 2) << (2 - i) for i in range(3))


@settings(max_examples=100, deadline=None)
@given(line_configs(), st.data())
def test_column_moves_against_fraction_copy(c, data):
    """Permuting, the group actions and ``drop_line`` select integer
    columns; each gives the matrix of the Fraction column copy, and a
    configuration that the constructor's checks accept."""
    perm = data.draw(st.permutations(range(c.n)))
    moved = c.permute_columns(perm)
    assert moved.matrix == _fraction_copy(c, perm)
    assert moved.labels == tuple(c.labels[p] for p in perm)
    assert ConfigMatrix(moved.matrix, moved.labels) == moved
    if c.n == 6:
        bits, slots = element = data.draw(st.sampled_from(wreath_elements()))
        # pair i, swapped if bits[i], lands in pair slot slots[i]
        source = {2 * slots[i] + b: 2 * i + (b ^ bits[i]) for i in range(3) for b in (0, 1)}
        moved = act_wreath(element, c)
        assert moved.matrix == _fraction_copy(c, [source[j] for j in range(6)])
        assert moved.labels == PAIR_LABELS
        assert ConfigMatrix(moved.matrix, moved.labels) == moved
        return
    c = moved  # seven lines under permuted labels
    g = data.draw(st.sampled_from(gl3f2_elements()))
    inverse = {_f2_apply(g, chi): chi for chi in CHAR_LABELS}
    moved = act_gl3f2(g, c)
    assert moved.matrix == _fraction_copy(c, [c.labels.index(inverse[chi]) for chi in CHAR_LABELS])
    assert moved.labels == CHAR_LABELS
    assert ConfigMatrix(moved.matrix, moved.labels) == moved
    kappa = data.draw(st.sampled_from(CHAR_LABELS))
    dropped = drop_line(c, kappa)
    order = [c.labels.index(chi) for pair in drop_pairs(kappa) for chi in pair]
    assert dropped.matrix == _fraction_copy(c, order)
    assert dropped.labels == PAIR_LABELS
    assert ConfigMatrix(dropped.matrix, dropped.labels) == dropped


def test_drop_line_drops_a_denominator():
    """Only the dropped line has a denominator, so the result's storage
    is integral, as the Fraction copy's is."""
    c = ConfigMatrix([[Fraction(1, 6), 0, 0, 1, 2, 3, 1],
                      [0, 1, 0, 1, 5, 7, 4],
                      [0, 0, 1, 1, 11, 13, 9]])
    assert c.matrix.den == 6
    dropped = drop_line(c, 1)
    assert dropped.matrix.den == 1
    assert dropped.matrix == _fraction_copy(c, [1, 2, 3, 4, 5, 6])
    assert dropped.matrix.num == ((0, 0, 1, 2, 3, 1), (1, 0, 1, 5, 7, 4), (0, 1, 1, 11, 13, 9))
    # a shared denominator shrinks to what the kept columns carry
    c = ConfigMatrix(c.matrix.scale(Fraction(1, 2)), CHAR_LABELS)
    assert (c.matrix.den, drop_line(c, 1).matrix.den) == (12, 2)


@settings(max_examples=100, deadline=None)
@given(line_configs())
def test_plucker_against_fraction_determinants(c):
    cols = [c.matrix.column(j) for j in range(c.n)]
    coords = plucker(c)
    assert list(coords) == list(combinations(range(c.n), 3))
    for t, m in coords.items():
        assert type(m) is Fraction
        assert m == Matrix.from_columns([cols[j] for j in t]).det()


@settings(max_examples=100, deadline=None)
@given(line_configs())
def test_triple_points_against_fraction_cross_products(c):
    cols = [c.matrix.column(j) for j in range(c.n)]
    same = [
        (i, j) for i, j in combinations(range(c.n), 2)
        if not any(_cross_fractions(cols[i], cols[j]))
    ]
    if same:
        with pytest.raises(DimensionError, match=f"columns {same[0][0]} and {same[0][1]} "):
            triple_points(c)
        return
    want = []
    for t in combinations(range(c.n), 3):
        if Matrix.from_columns([cols[j] for j in t]).det() == 0:
            point = _cross_fractions(cols[t[0]], cols[t[1]])
            lead = next(x for x in point if x)
            want.append((t, tuple(x / lead for x in point)))
    got = triple_points(c)
    assert got == want
    assert all(type(x) is Fraction for _, point in got for x in point)


def test_etale_slice_identity():
    rng = random.Random(5)
    done = 0
    while done < 10:
        t = Fraction(rng.randint(2, 9))
        a, b, c, d = (Fraction(rng.randint(1, 9)) for _ in range(4))
        try:
            lhs = cremona(etale_slice(t, a, b, c, d))
        except VerticesCollinear:
            continue
        rhs = etale_slice(t, c, d, a, b).permute_columns([3, 2, 1, 0, 4, 5])
        assert equivalent(lhs, ConfigMatrix(rhs.matrix, PAIR_LABELS))
        done += 1


def test_family_minors_symbolic_pattern():
    for a, b, c, d in [(2, 3, 5, 7),
                       (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5), 4)]:
        m = plucker(quadrangle_slice(a, b, c, d))
        assert m[(0, 2, 4)] == 4 * Fraction(b)
        assert m[(1, 3, 4)] == -4 * Fraction(a)
        assert m[(0, 3, 5)] == 4 * Fraction(d)
        assert m[(1, 2, 5)] == -4 * Fraction(c)


def test_seven_line_config_and_drop():
    rng = random.Random(8)
    q = random_system(rng)
    config = seven_line_config(q)
    assert config.labels == CHAR_LABELS
    assert (q * config.matrix.transpose()).is_zero()
    for kappa in (1, 3, 5, 7):
        dropped = drop_line(config, kappa)
        assert dropped.labels == PAIR_LABELS
        pairs = drop_pairs(kappa)
        assert len(pairs) == 3
        for chi, other in pairs:
            assert chi ^ other == kappa


def test_node_report_kinds():
    # engineered system whose kernel configuration has the concurrent
    # triple of characters {5, 6, 7}
    rng = random.Random(21)
    while True:
        rows = [[rng.randint(-5, 5) for _ in range(7)] for _ in range(3)]
        rows.append([0, 0, 0, 0, 1, 1, 1])
        q = Matrix(rows)
        if q.rank() != 4:
            continue
        config = seven_line_config(q)
        try:
            triples = triple_points(config)
        except DimensionError:
            continue
        if [t for t, _ in triples] == [(4, 5, 6)]:
            break
    assert node_report(config, 4)["counts"]["ExtraFixedNode"] == 1
    assert node_report(config, 5)["counts"]["OnBranch"] == 1
    assert node_report(config, 3)["counts"]["PairFixed"] == 1


def test_node_report_degenerate_triple():
    """Lines 1, 2 and 3 meet in a point, and 1 ^ 2 ^ 3 = 0: their labels
    generate no character group, whatever kappa is."""
    config = [[1, 0, 1, 0, 1, 2, 3], [0, 1, 1, 0, 5, 7, 11], [0, 0, 0, 1, 13, 17, 19]]
    report = node_report(ConfigMatrix(Matrix(config)), 4)
    assert report == {
        "counts": {"Degenerate": 1, "OnBranch": 0, "PairFixed": 0, "ExtraFixedNode": 0},
        "triples": [{"triple": (0, 1, 2), "labels": (1, 2, 3), "kind": "Degenerate"}],
    }


def test_kappa_is_an_integer_label():
    """Every kappa caller takes what ``operator.index`` accepts, as that
    int, and raises LabelError for anything else: an integral float or
    Fraction too, instead of a TypeError further on."""

    class Three:
        def __index__(self):
            return 3

    q = random_system(random.Random(71))
    config = seven_line_config(q)
    callers = {
        period_map: (q,),
        kappa_target: (q,),
        kernel_family_vectors: (q,),
        drop_line: (config,),
        drop_pairs: (),
        node_report: (config,),
    }
    for fn, args in callers.items():
        for kappa in (1.0, Fraction(3), 2.5, "3", None, 0, 8, False):
            with pytest.raises(LabelError):
                fn(*args, kappa)
        assert fn(*args, Three()) == fn(*args, 3), fn.__name__
        assert fn(*args, True) == fn(*args, 1), fn.__name__
    assert type(check_kappa(Three())) is int


def test_wreath_group():
    els = wreath_elements()
    assert len(els) == 48
    assert sum(1 for el in els if wreath_signature(el) == 0) == 24
    moved = act_wreath(((1, 0, 0), (1, 2, 0)), GENERIC)
    assert moved.labels == PAIR_LABELS
    # identity acts trivially
    assert act_wreath(((0, 0, 0), (0, 1, 2)), GENERIC).matrix == GENERIC.matrix


def test_s4_embedding():
    images = set()
    for sigma in permutations(range(1, 5)):
        el = s4_to_wreath(sigma)
        assert wreath_signature(el) == 0
        images.add(el)
    assert len(images) == 24


# SHA-256 of ``json.dumps(gl3f2_elements())``: the benchmark's orbit ops
# draw their element from this list by index
PINNED_GL3F2_ELEMENTS = "0ace20bba230fca2a0f5961b7e6ff14f05fd166299ee042142713911ede61276"


def test_gl3f2_action():
    els = gl3f2_elements()
    assert len(els) == 168
    rows = [v for v in product((0, 1), repeat=3) if any(v)]
    assert els == [
        g for g in product(rows, repeat=3)
        if len({_f2_apply(g, chi) for chi in CHAR_LABELS}) == 7
    ]
    assert hashlib.sha256(json.dumps(els).encode()).hexdigest() == PINNED_GL3F2_ELEMENTS
    rng = random.Random(9)
    q = random_system(rng)
    config = seven_line_config(q)
    assert len(set(zip(*config.matrix.num))) == 7
    # seven distinct columns: each result fixes g's image of every
    # character, so this reads all 168 x 7 images
    for g in els:
        inverse = {_f2_apply(g, chi): chi for chi in CHAR_LABELS}
        moved = act_gl3f2(g, config)
        assert moved.matrix == _fraction_copy(config, [inverse[chi] - 1 for chi in CHAR_LABELS])
        assert moved.labels == CHAR_LABELS


def test_gl3f2_images_memo():
    """``act_gl3f2`` memoises each element's character images: list-form
    elements act as their tuples do, a singular matrix raises on every
    call and is not kept, and the memo holds at most the 168 elements."""
    memo = latconf.configs._gl3f2_preimages
    memo.cache_clear()
    config = seven_line_config(random_system(random.Random(11)))
    els = gl3f2_elements()
    singular = ((1, 0, 0), (0, 1, 0), (1, 1, 0))
    for _ in range(3):
        for g in (singular, [list(row) for row in singular]):
            with pytest.raises(LabelError):
                act_gl3f2(g, config)
    assert memo.cache_info().currsize == 0
    for g in els + els[::-1]:
        moved = act_gl3f2(g, config)
        assert act_gl3f2([list(row) for row in g], config) == moved
    assert memo.cache_info().currsize == memo.cache_info().maxsize == 168
    with pytest.raises(LabelError):
        act_gl3f2(singular, config)
    with pytest.raises(DimensionError):
        act_gl3f2(els[0], complete_quadrangle())


def _orbit_oracle(items, elements, action):
    """Every g.item of a class's first item keyed first, then each later
    unclassed item tested for membership in that reach."""
    keys = [_form_key(item) for item in items]
    classes, assigned = [], set()
    for idx, item in enumerate(items):
        if idx in assigned:
            continue
        reach = {_form_key(action(el, item)) for el in elements}
        cls = [idx] + [
            jdx for jdx in range(idx + 1, len(items))
            if jdx not in assigned and keys[jdx] in reach
        ]
        assigned.update(cls)
        classes.append(cls)
    return classes


def test_quadrangle_orbits_against_full_reach():
    variants = [complete_quadrangle(el) for el in wreath_elements()]
    groups = [
        [((0, 0, 0), (0, 1, 2))],
        [el for el in wreath_elements() if wreath_signature(el) == 0],
        wreath_elements(),
    ]
    classes = [orbit(variants, els, act_wreath) for els in groups]
    assert classes == [_orbit_oracle(variants, els, act_wreath) for els in groups]
    assert tuple(classes) == quadrangle_classes()
    assert [len(c) for c in classes] == [2, 2, 1]


def _framed_config(rng, n):
    """A random integer configuration with a projective frame."""
    while True:
        try:
            c = ConfigMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(3)])
            canonical_form(c)
            return c
        except (DimensionError, NoFrame):
            continue


def _orbit_items(rng, n, act, elements, others):
    """1-6 configurations: a few seeds, their images under group
    elements (``elements``) and other moves (``others``), the same moved
    by GL3 and the torus, repeats, and unrelated configurations."""
    seeds = [_framed_config(rng, n) for _ in range(rng.randint(1, 3))]
    items = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(6)
        c = rng.choice(seeds)
        if kind == 0:
            items.append(c)
        elif kind == 1:
            items.append(act(rng.choice(elements), c))
        elif kind == 2:
            items.append(others(rng, c))
        elif kind == 3:  # a GL3 x torus image of a group image
            c = act(rng.choice(elements), c)
            g = Matrix([[1, rng.randint(-2, 2), 0], [0, 1, 0], [rng.randint(-2, 2), 0, 1]])
            scalars = [rng.choice([-3, -1, 2, Fraction(1, 2)]) for _ in range(n)]
            items.append(act_torus(scalars, c.with_matrix(g * c.matrix)))
        elif kind == 4 and items:
            items.append(rng.choice(items))
        else:
            items.append(_framed_config(rng, n))
    return items


def _wreath_image(rng, c):
    """``c`` moved by any wreath element: an odd one leaves the S4 orbit."""
    return act_wreath(rng.choice(wreath_elements()), c)


def _relabelled(rng, c):
    """Seven columns in a random order, under the standard labels: a
    move that GL3(F2) mostly does not make."""
    order = rng.sample(range(7), 7)
    return ConfigMatrix(c.matrix.submatrix(range(3), order), CHAR_LABELS)


@pytest.mark.parametrize("group", ["w3", "s4", "glf2"])
def test_orbit_against_full_reach(group):
    """Seeded lists of 1-6 configurations: the classes are those of the
    full-reach oracle, member for member and in index order."""
    if group == "glf2":
        n, act, elements, others = 7, act_gl3f2, gl3f2_elements(), _relabelled
    else:
        n, act, others = 6, act_wreath, _wreath_image
        elements = (wreath_elements() if group == "w3"
                    else [s4_to_wreath(s) for s in permutations(range(1, 5))])
    rng = random.Random(f"orbit:{group}")
    merged = 0
    for _ in range(12):
        items = _orbit_items(rng, n, act, elements, others)
        classes = orbit(items, elements, act)
        assert classes == _orbit_oracle(items, elements, act)
        merged += len(items) - len(classes)
    assert merged  # some classes have more than one member


def test_orbit_error_contract():
    """Each class applies the action at least once, so a wrong-size item
    still raises; with no elements every item is its own class; an
    element past the point where a class is settled is never applied."""
    q = random_system(random.Random(12))
    with pytest.raises(DimensionError):
        orbit([seven_line_config(q)], wreath_elements(), act_wreath)
    items = [GENERIC, GENERIC, complete_quadrangle()]
    assert orbit(items, [], act_wreath) == [[0], [1], [2]]
    identity = ((0, 0, 0), (0, 1, 2))
    assert orbit(items[:2], [identity, "not an element"], act_wreath) == [[0, 1]]


def test_smoothness_witness():
    rng = random.Random(10)
    q = random_system(rng)
    assert smoothness(q) == (True, None)
    cols = [list(q.column(j)) for j in range(7)]
    cols[3] = [cols[0][i] + cols[1][i] + cols[2][i] for i in range(4)]
    q2 = Matrix.from_columns(cols)
    if q2.rank() == 4:
        smooth, witness = smoothness(q2)
        assert not smooth
        assert witness == (0, 1, 2, 3)


def _dependent_subsets(q):
    """Oracle: the 4-subsets of columns with a zero 4x4 ``det``, in order."""
    return [
        s for s in combinations(range(7), 4)
        if q.submatrix(range(4), s).det() == 0
    ]


def test_complements_reverse_lex_order():
    # why smoothness can return the complement of the last zero 3-minor
    threes = list(combinations(range(7), 3))
    complements = [tuple(c for c in range(7) if c not in t) for t in threes]
    assert complements == list(combinations(range(7), 4))[::-1]


def _minor_scan_systems():
    """61 seeded 4 x 7 systems: 20 random ones, 40 with engineered
    dependent, duplicated or proportional columns, and one of rank 4
    with a single independent 4-subset."""
    rng = random.Random(44)
    systems = [random_system(rng, smooth=False) for _ in range(20)]
    for trial in range(40):
        cols = [list(random_system(rng).column(j)) for j in range(7)]
        a, b = rng.sample(range(7), 2)
        if trial % 4 == 0:  # one engineered dependent 4-subset
            rest = sorted(set(range(7)) - {a})[:3]
            cols[a] = [sum(rng.randint(1, 3) * cols[k][i] for k in rest)
                       for i in range(4)]
        else:  # duplicated or proportional columns
            scale = rng.choice([1, -2, Fraction(3, 5)])
            cols[a] = [scale * x for x in cols[b]]
        if trial % 3 == 0:
            c, d = rng.sample(range(7), 2)
            cols[c] = [-x for x in cols[d]]
        systems.append(Matrix.from_columns(cols))
    # rank 4 with a single independent 4-subset
    systems.append(Matrix([[1 if j == i else 0 for j in range(7)]
                           for i in range(4)]))
    return systems


def test_smoothness_against_minor_scan():
    counts = set()
    for q in _minor_scan_systems():
        if q.rank() < 4:
            with pytest.raises(DimensionError, match="rank 4"):
                smoothness(q)
            continue
        dependent = _dependent_subsets(q)
        counts.add(len(dependent) if len(dependent) in (0, 1, 34) else "several")
        expect = (False, dependent[0]) if dependent else (True, None)
        assert smoothness(q) == expect
    assert counts == {0, 1, "several", 34}


def _outputs(make):
    """``make()`` as JSON-ready data, or a domain error's class and message."""
    try:
        return make()
    except LatconfError as e:
        return [type(e).__name__, str(e)]


def _config_outputs(c):
    """``plucker``, ``stability``, ``triple_points`` and (seven lines)
    ``dependent_columns`` of ``c``, as JSON-ready data."""
    out = [
        [[list(t), str(m)] for t, m in plucker(c).items()],
        _outputs(lambda: [[list(t), [str(x) for x in p]] for t, p in triple_points(c)]),
    ]
    if c.n == 6:
        out.append(stability(c).to_json())
    else:
        out.append(dependent_columns(c.matrix))
    return out


def _dual_outputs(q):
    """``dependent_columns`` of the Gale dual of ``q``, then the outputs
    of its seven-line configuration."""
    g = gale_dual(q)[1]
    return [dependent_columns(g), _outputs(lambda: _config_outputs(ConfigMatrix(g)))]


# SHA-256 of the outputs over every stratum, taken where ``plucker`` built
# one Fraction per minor and ``stability``/``triple_points`` read its zeros
PINNED_CONFIG_OUTPUTS = "8d8eceb00d69e11ca980ceae2ec4574c227604628e15de8029b2adc3856c9704"


def test_config_outputs_pinned():
    """The 1,002 configurations of the rank-oracle test (every stratum,
    with and without denominators) and the Gale duals of the rank-4
    systems of the minor scan hash to the pinned digest: any changed
    output byte fails."""
    h = hashlib.sha256()
    for c in _oracle_configs():
        h.update(json.dumps(_config_outputs(c)).encode())
    for q in _minor_scan_systems():
        h.update(json.dumps(_outputs(lambda: _dual_outputs(q))).encode())
    assert h.hexdigest() == PINNED_CONFIG_OUTPUTS


def test_smoothness_rejects_bad_input():
    # every 4-minor is zero: rank 3 is a domain error, not a witness
    rows = [[1, 2, 3, 4, 5, 6, 7], [0, 1, 1, 2, 3, 5, 8],
            [2, 3, 5, 7, 11, 13, 17]]
    rank3 = Matrix(rows + [[a + b for a, b in zip(rows[0], rows[1])]])
    assert rank3.rank() == 3
    with pytest.raises(DimensionError, match="rank 4"):
        smoothness(rank3)
    with pytest.raises(DimensionError, match="4 x 7"):
        smoothness(Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
