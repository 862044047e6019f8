"""Command line interface: output shapes and exit codes."""

import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, permutations
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latconf.cli import main
from latconf.configs import (
    ConfigMatrix,
    act_gl3f2,
    act_wreath,
    canonical_form,
    gl3f2_elements,
    s4_to_wreath,
    wreath_elements,
)
from latconf.matrices import Matrix
from latconf.verify import random_system, registry_ids


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_disc_form_d6(capsys):
    code, doc = run_json(capsys, "lattice", "disc-form", "--name", "D6")
    assert code == 0
    assert doc["orders"] == [2, 2]
    assert doc["bilinear"] == [["0", "1/2"], ["1/2", "1/2"]]


def test_complement_of_a_full_rank_sublattice(capsys):
    code, doc = run_json(
        capsys, "lattice", "complement", "--name", "Z(1,1)",
        "--basis", "[[1,0],[0,1]]",
    )
    assert code == 0
    assert doc["basis"] == {"rows": 0, "cols": 2, "entries": []}
    assert doc["gram"] == {"rows": 0, "cols": 0, "entries": []}
    assert doc["signature"] == [0, 0] and doc["discriminant"] == "1"


def test_complement_with_large_entries_answers_fast(capsys):
    # its Smith-form saturation ran for over 20 s
    gram = [[27, -22, -7, -3, 2, 7], [-22, 35, 11, 0, 4, -6], [-7, 11, 22, 24, -6, 4],
            [-3, 0, 24, 38, -2, 6], [2, 4, -6, -2, 18, -1], [7, -6, 4, 6, -1, 7]]
    basis = [[-2, 3, 4, -3, -3, -3], [-2, -2, -4, 1, -3, 0], [4, -2, 2, 4, -4, 2]]
    start = time.perf_counter()
    code, doc = run_json(capsys, "lattice", "complement", "--gram", json.dumps(gram),
                         "--basis", json.dumps(basis))
    assert time.perf_counter() - start < 2
    assert code == 0
    comp = Matrix.from_json(doc["basis"])
    assert comp.rows == 3
    assert (Matrix(basis) * Matrix(gram) * comp.transpose()).is_zero()
    minors = (int(comp.submatrix(range(3), cols).det()) for cols in combinations(range(6), 3))
    assert gcd(*minors) == 1


def test_glue_of_a_large_cyclic_subgroup_answers_fast(capsys):
    # listing the subgroup took 5.2 s and 242 MB already at order 2^20
    n = 2**24
    start = time.perf_counter()
    code, doc = run_json(capsys, "lattice", "glue", "--gram", json.dumps([[n, 0], [0, -n]]),
                         "--gens", "[[1,1]]")
    assert time.perf_counter() - start < 1
    assert code == 0 and doc["index"] == n
    assert doc["gram"]["entries"] == [[str(2 - n), str(1 - n)], [str(1 - n), str(-n)]]
    assert doc["parity"] == "even" and doc["discriminant"] == "-1"


def test_index_formula(capsys):
    code, doc = run_json(
        capsys, "lattice", "index-formula", "--ell2-base", "0",
        "--ell2-cover", "2", "--rho", "7",
    )
    assert code == 0 and doc == {"exponent": 5}


def test_stability_unstable_witness(capsys):
    config = json.dumps([
        [1, 0, 1, 1, 1, 0], [0, 1, 1, 2, 3, 0], [0, 0, 0, 0, 0, 1]
    ])
    code, doc = run_json(capsys, "config", "stability", "--config", config)
    assert code == 0
    assert doc["status"] == "Unstable"
    assert doc["stratum"] == "141"


def test_plucker_exact_strings(capsys):
    config = json.dumps([
        [1, 0, 0, 1, 2, 3], [0, 1, 0, 1, 5, 7], [0, 0, 1, 1, 11, 13]
    ])
    code, doc = run_json(capsys, "config", "plucker", "--config", config)
    assert code == 0
    minors = doc["minors"]
    assert len(minors) == 20
    assert minors["0,1,2"] == "1"
    assert all(isinstance(v, str) for v in minors.values())


def test_period_rank_shape(capsys):
    code, doc = run_json(
        capsys, "jacobian", "period-rank", "--kappa", "3", "--seed", "5"
    )
    assert code == 0
    assert doc == {
        "dim_R10": 6, "dim_target": [4, 2], "rank": 4, "kernel_dim": 2
    }


def test_domain_error_exit_1(capsys):
    # non-isotropic vector: domain error, JSON error document, exit 1
    code, doc = run_json(
        capsys, "lattice", "classify-isotropic", "--vector", "[1,0,0,0,0,0]"
    )
    assert code == 1
    assert doc["error"]["kind"] == "NotIsotropic"


def test_usage_error_exit_2(capsys):
    code, doc = run_json(
        capsys, "config", "stability", "--config", "[[\"x\",1],[2,3]]"
    )
    assert code == 2
    assert doc["error"]["kind"] == "UsageError"


class _ClosedOnWrite(io.StringIO):
    """A stdout whose reader has gone before the first write."""

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


class _ClosedOnFlush(io.StringIO):
    """A stdout that buffers the output and fails when it is flushed."""

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("stub", [_ClosedOnWrite, _ClosedOnFlush])
@pytest.mark.parametrize("argv", [
    ["lattice", "glue", "--name", "D6", "--gens", "[[1,0]]"],
    ["lattice", "classify-isotropic", "--vector", "[1,0,0,0,0,0]"],
])
def test_closed_stdout_exits_1_without_traceback(capsys, monkeypatch, stub,
                                                 argv):
    # both a result and an error document meet the closed pipe
    monkeypatch.setattr(sys, "stdout", stub())
    assert main(argv) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, code, kind", [
    # malformed lattice names
    (["lattice", "disc-form", "--name", "H(abc)"], 1, "InvalidName"),
    (["lattice", "disc-form", "--name", "D(2,x)"], 1, "InvalidName"),
    (["lattice", "disc-form", "--name", "D(2)"], 1, "InvalidName"),
    (["lattice", "disc-form", "--name", "E8*1/0"], 1, "InvalidName"),
    # serialized inputs with missing keys or wrong value types
    (["lattice", "disc-form", "--gram", '{"entries":[[1]]}'], 2, "UsageError"),
    (["lattice", "disc-form", "--gram", '{"gram":[[1]]}'], 2, "UsageError"),
    (["config", "stability", "--config", '{"matrix":[[1]]}'], 2, "UsageError"),
    (["config", "stability", "--config", '[["1/0"]]'], 2, "UsageError"),
    # inputs that used to be truncated into a wrong answer
    (["lattice", "glue", "--name", "D6", "--gens", "[[1]]"], 1, "DimensionError"),
    (["lattice", "glue", "--name", "D6", "--gens", "[[1,0,5]]"], 1, "DimensionError"),
    (["lattice", "classify-isotropic", "--vector", "[1.5,0,1,1,0,0]"], 1, "DimensionError"),
    # glue coefficients are never truncated; --gens must be a list of lists
    (["lattice", "glue", "--name", "D6", "--gens", "[[1.5,0]]"], 1, "DimensionError"),
    (["lattice", "glue", "--name", "D6", "--gens", '[["a",0]]'], 1, "DimensionError"),
    (["lattice", "glue", "--name", "D6", "--gens", "5"], 2, "UsageError"),
    (["lattice", "glue", "--name", "D6", "--gens", "[5]"], 2, "UsageError"),
    # names above the rank bound are refused before any matrix is built
    (["lattice", "disc-form", "--name", "D100000"], 1, "InvalidName"),
    (["lattice", "disc-form", "--name", "E10+D(30,25)"], 1, "InvalidName"),
    (["lattice", "disc-form", "--name", "D100+D(-60,0)"], 1, "InvalidName"),
    # argparse's own errors, subcommands included
    (["config", "nodes", "--config", "[[1]]"], 2, "UsageError"),
    (["config", "drop", "--config", "[[1]]", "--kappa", "x"], 2, "UsageError"),
    (["lattice", "no-such"], 2, "UsageError"),
    (["verify", "--seed", "x"], 2, "UsageError"),
    # a negative count of the index formula
    (["lattice", "index-formula", "--ell2-base", "0", "--ell2-cover", "2", "--rho", "-1"],
     1, "DimensionError"),
])
def test_bad_input_one_error_document(capsys, argv, code, kind):
    got, doc = run_json(capsys, *argv)
    assert (got, doc["error"]["kind"]) == (code, kind)


def test_overlattices_past_the_subgroup_bound_exit_1(capsys):
    # (Z/2)^8 has 417,199 subgroups; the walk stops at the subgroup bound
    start = time.perf_counter()
    code, doc = run_json(capsys, "lattice", "overlattices", "--name", "E8*2")
    assert time.perf_counter() - start < 2
    assert (code, doc["error"]["kind"]) == (1, "GroupTooLarge")


@pytest.mark.parametrize("rows, group", [
    ([[1, 0, 0, 1, 2, 3], [0, 1, 0, 1, 5, 7], [0, 0, 1, 1, 11, 13]], "w3"),
    ([[1, 1, 1, 1, 0, 1], [1, 1, -1, -1, 1, 0], [1, -1, 1, -1, 0, 1]], "w3"),
    ([[1, 1, 1, 1, 0, 1], [1, 1, -1, -1, 1, 0], [1, -1, 1, -1, 0, 1]], "s4"),
    ([[1, 0, 0, 1, 1, 0, 2], [0, 1, 0, 1, 0, 1, 3], [0, 0, 1, 0, 1, 1, 5]], "glf2"),
])
def test_orbit_size_counts_distinct_canonical_keys(capsys, rows, group):
    code, doc = run_json(
        capsys, "config", "orbit", "--config", json.dumps(rows), "--group", group
    )
    assert code == 0
    c = ConfigMatrix(rows)
    elements, action = {
        "w3": (wreath_elements(), act_wreath),
        "s4": ([s4_to_wreath(s) for s in permutations(range(1, 5))], act_wreath),
        "glf2": (gl3f2_elements(), act_gl3f2),
    }[group]
    keys = set()
    for el in elements:
        moved = action(el, c)
        normal, frame = canonical_form(moved)
        keys.add((moved.labels, frame, normal.matrix))
    assert doc["group_order"] == len(elements)
    assert doc["orbit_size"] == len(keys)


_entry = st.integers(min_value=-2, max_value=2)
_line = st.tuples(_entry, _entry, _entry).filter(any)


@st.composite
def _config_rows(draw):
    """A 3 x 6 or 3 x 7 integer matrix, zero and repeated columns included."""
    n = draw(st.sampled_from((6, 7)))
    cols = draw(st.lists(_line, min_size=n, max_size=n))
    index = st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(index, index), max_size=2)):
        cols[b] = cols[a]
    zero = draw(st.none() | index)
    if zero is not None:
        cols[zero] = (0, 0, 0)
    return [list(row) for row in zip(*cols)]


@settings(max_examples=100, deadline=None)
@given(
    rows=_config_rows(),
    command=st.sampled_from(
        ["plucker", "stability", "canonical", "nodes", "cremona", "drop"]
    ),
    kappa=st.integers(min_value=-1, max_value=8),
)
def test_config_commands_answer_with_one_json_document(rows, command, kappa):
    argv = ["config", command, "--config", json.dumps(rows)]
    if command in ("nodes", "drop"):
        argv += ["--kappa", str(kappa)]
    _answers_with_one_json_document(argv)


def test_config_nodes_reports_a_degenerate_triple(capsys):
    config = [[1, 0, 1, 0, 1, 2, 3], [0, 1, 1, 0, 5, 7, 11], [0, 0, 0, 1, 13, 17, 19]]
    code, doc = run_json(capsys, "config", "nodes", "--config", json.dumps(config),
                         "--kappa", "4")
    assert code == 0
    assert doc["counts"] == {"Degenerate": 1, "OnBranch": 0, "PairFixed": 0, "ExtraFixedNode": 0}
    assert doc["triples"] == [{"columns": [0, 1, 2], "labels": [1, 2, 3], "kind": "Degenerate"}]


def _answers_with_one_json_document(argv):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO("[1, 2")  # for a '-' value
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)
    doc = json.loads(out.getvalue())  # a second document would be "Extra data"
    assert err.getvalue() == ""
    return code, doc


_small = st.integers(min_value=-3, max_value=3)


def _json_matrix(rows=st.integers(1, 3), cols=st.integers(1, 3)):
    """A small integer matrix, as inline JSON."""
    return st.tuples(rows, cols).flatmap(
        lambda rc: st.lists(
            st.lists(_small, min_size=rc[1], max_size=rc[1]),
            min_size=rc[0], max_size=rc[0],
        )
    ).map(json.dumps)


# values of the wrong type or shape for any flag
_junk = st.sampled_from([
    "", "x", "1.5", "-", "[", "{}", "null", "5", '"abc"', "[5]", "[[1,2],[3]]",
    '[["x"]]', '[["1/0"]]', '{"entries":[[1]]}', '{"gram":[[1]]}',
    '{"rows":1,"cols":2,"entries":[[1]]}',
])
_int_text = st.integers(min_value=-2, max_value=9).map(str)
_values = {
    "--name": st.sampled_from([
        "D6", "D4", "D4*2", "E8", "H", "L", "Z(2,4)", "Z(4,4)", "H(1/2)+E8*-1",
        "A2", "Z(2)", "H(abc)", "D(2,x)", "E8*1/0", "D100000",
    ]),
    "--gram": _json_matrix(),
    "--basis": _json_matrix(),
    "--gens": st.lists(st.lists(_small, min_size=1, max_size=3), max_size=2)
    .map(json.dumps),
    "--vector": st.lists(_small, min_size=5, max_size=7).map(json.dumps),
    "--plane": _json_matrix(st.integers(1, 3), st.integers(5, 7)),
    "--ell2-base": _int_text,
    "--ell2-cover": _int_text,
    "--rho": _int_text,
    "--system": _json_matrix(st.integers(3, 5), st.integers(6, 8))
    | _json_matrix(st.just(4), st.just(7))
    | st.integers(0, 999).map(
        lambda seed: json.dumps([
            [str(x) for x in row]
            for row in random_system(random.Random(seed)).data
        ])
    ),
    "--kappa": _int_text,
    "--seed": _int_text,
}
_switches = ("--quadratic", "--kappa-trivial")
_commands = {
    ("lattice", "disc-form"): ("--name", "--gram"),
    ("lattice", "complement"): ("--name", "--gram", "--basis"),
    ("lattice", "glue"): ("--name", "--gram", "--gens", "--quadratic"),
    ("lattice", "classify-isotropic"): ("--vector", "--plane"),
    ("lattice", "overlattices"): ("--name", "--gram"),
    ("lattice", "index-formula"):
        ("--ell2-base", "--ell2-cover", "--rho", "--kappa-trivial"),
    ("jacobian", "dims"): ("--system", "--kappa"),
    ("jacobian", "period-rank"): ("--kappa", "--system", "--seed"),
}


@st.composite
def _argv(draw, group):
    """A ``group`` subcommand with most of its flags, maybe one missing
    or repeated, some with junk values, and maybe an unknown flag."""
    command = draw(st.sampled_from([c for c in _commands if c[0] == group]))
    flags = _commands[command]
    chosen = [flag for flag in flags if draw(st.integers(0, 4))]
    if draw(st.integers(0, 3)) == 0:
        chosen.append(draw(st.sampled_from(flags)))
    argv = list(command)
    for flag in chosen:
        argv.append(flag)
        if flag not in _switches:
            argv.append(draw(_junk if draw(st.integers(0, 3)) == 0 else _values[flag]))
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = draw(st.sampled_from([["--bogus"], ["--bogus", "1"], ["-k"]]))
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=_argv("lattice"))
def test_lattice_commands_answer_with_one_json_document(argv):
    _answers_with_one_json_document(argv)


@settings(max_examples=100, deadline=None)
@given(argv=_argv("jacobian"))
def test_jacobian_commands_answer_with_one_json_document(argv):
    _answers_with_one_json_document(argv)


def _matches_no_check(prefix):
    return not any(cid.startswith(prefix) for cid in registry_ids())


@st.composite
def _verify_argv(draw):
    """``verify`` argv that runs no check: one or more of a bad --seed, a
    --filter that matches no check id, an unwritable --json and an
    unknown flag, the other flags valid or absent."""
    bad = draw(st.sets(st.sampled_from(["seed", "filter", "json", "flag"]),
                       min_size=1))
    argv = ["verify"]
    if "seed" in bad:
        argv += ["--seed", draw(st.sampled_from(["", "x", "1.5", "1e3", "[0]"]))]
    elif draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-5, 10**6)))]
    if "filter" in bad:
        argv += ["--filter",
                 draw(st.text(min_size=1, max_size=8).filter(_matches_no_check))]
    elif draw(st.booleans()):
        argv += ["--filter", draw(st.sampled_from(registry_ids()))]
    if "json" in bad:  # a directory, or a file in a missing directory
        argv += ["--json", draw(st.sampled_from([".", "..", "missing/report.json"]))]
    if "flag" in bad:
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = draw(st.sampled_from([["--bogus"], ["--bogus", "1"], ["-k"]]))
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=_verify_argv())
def test_verify_answers_with_one_json_document(argv):
    with mock.patch("latconf.cli.run_verify",
                    side_effect=AssertionError("a check ran")):
        code, doc = _answers_with_one_json_document(argv)
    assert (code, doc["error"]["kind"]) == (2, "UsageError")


def test_jacobian_dims_of_a_non_smooth_system_exit_1(capsys):
    # column 4 repeats column 1: rank 4, but every 4 columns holding both
    # are dependent, the first of them in lex order being 0, 1, 2, 4
    q = random_system(random.Random(5))
    cols = [[str(x) for x in q.column(j)] for j in range(7)]
    cols[4] = cols[1]
    system = json.dumps([list(row) for row in zip(*cols)])
    code, doc = run_json(capsys, "config", "from-quadrics", "--system", system)
    assert (code, doc["smooth"], doc["dependent_columns"]) == (
        0, False, [0, 1, 2, 4])
    code, doc = _answers_with_one_json_document(
        ["jacobian", "dims", "--system", system])
    assert (code, set(doc), doc["error"]["kind"]) == (1, {"error"}, "SmoothnessRequired")


def test_classify_isotropic_takes_no_lattice(capsys):
    # the classification is defined on L only; a lattice flag is a usage error
    code = main([
        "lattice", "classify-isotropic", "--name", "Z(2,4)",
        "--plane", "[[1,0,1,0,0,0],[0,1,0,1,0,0]]",
    ])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("plane, kind, gram", [
    ([[1, 0, 1, -1, 0, 0], [0, 1, -1, -1, 0, 0]], "EvenPlane", [["-1", "0"], ["0", "-1"]]),
    ([[1, 0, 0, 0, 1, 1], [0, 1, -1, -1, 0, 0]], "OddPlane", [["-2", "0"], ["0", "-2"]]),
])
@pytest.mark.parametrize("from_file", [False, True])
def test_classify_isotropic_plane(capsys, tmp_path, plane, kind, gram, from_file):
    spec = json.dumps(plane)
    if from_file:
        path = tmp_path / "plane.json"
        path.write_text(spec, encoding="utf-8")
        spec = str(path)
    code, doc = run_json(capsys, "lattice", "classify-isotropic", "--plane", spec)
    assert code == 0
    assert doc == {
        "kind": kind,
        "certificate_gram": {"rows": 2, "cols": 2, "entries": gram},
    }


def test_classify_isotropic_vector_from_a_file(capsys, tmp_path):
    path = tmp_path / "vector.json"
    path.write_text("[1, 0, 1, 1, 0, 0]", encoding="utf-8")
    code, doc = run_json(capsys, "lattice", "classify-isotropic", "--vector", str(path))
    assert (code, doc["kind"]) == (0, "OddType1Vector")
    assert doc["certificate_gram"]["entries"] == [
        ["2", "0", "0", "0"], ["0", "-2", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"],
    ]


@pytest.mark.parametrize("vector", [
    '[1,"x",0,0,0,0]', "[1,null,0,0,0,0]", "[1,[0],0,0,0,0]", '["1/0",0,0,0,0,0]',
])
def test_non_numeric_vector_entry_exit_2(capsys, vector):
    code, doc = run_json(capsys, "lattice", "classify-isotropic", "--vector", vector)
    assert (code, set(doc), doc["error"]["kind"]) == (2, {"error"}, "UsageError")


def test_bad_flag_exit_2(capsys):
    code = main(["lattice", "no-such-subcommand"])
    capsys.readouterr()
    assert code == 2


def test_verify_filter_deterministic(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code1, text1 = run(
        capsys, "verify", "--filter", "f2-census", "--json", str(out_file)
    )
    doc1 = json.loads(out_file.read_text())
    code2, text2 = run(
        capsys, "verify", "--filter", "f2-census", "--json", str(out_file)
    )
    doc2 = json.loads(out_file.read_text())
    assert code1 == code2 == 0
    assert text1 == text2
    doc1.pop("elapsed_seconds", None)
    doc2.pop("elapsed_seconds", None)
    for d in (doc1, doc2):
        for c in d.get("checks", []):
            c.pop("elapsed_seconds", None)
    assert doc1 == doc2
    statuses = {c["id"]: c["status"] for c in doc1["checks"]}
    assert statuses["f2-census"] == "Pass"
    assert all(
        s == "Skipped" for i, s in statuses.items() if i != "f2-census"
    )


def test_verify_json_records_elapsed_seconds(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _ = run(
        capsys, "verify", "--filter", "disc-form-d6", "--json", str(out_file)
    )
    doc = json.loads(out_file.read_text())
    assert code == 0
    assert doc["elapsed_seconds"] >= 0
    assert doc["checks"] and all(c["elapsed_seconds"] >= 0 for c in doc["checks"])


def test_verify_unwritable_json_exit_2_before_any_check(capsys, tmp_path,
                                                        monkeypatch):
    def no_checks(**_kwargs):
        raise AssertionError("checks ran before the --json path was opened")

    monkeypatch.setattr("latconf.cli.run_verify", no_checks)
    path = tmp_path / "missing" / "report.json"
    code = main(["verify", "--filter", "disc-form-d6", "--json", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"]["kind"] == "UsageError"
    assert captured.err == ""


def test_help_and_version_print_text_exit_0(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip()
    assert main(["config", "drop", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: latconf config drop")


def test_verify_filter_matching_nothing_exit_2(capsys):
    code, doc = run_json(capsys, "verify", "--filter", "nonexistent")
    assert code == 2
    assert doc["error"]["kind"] == "UsageError"
    assert "nonexistent" in doc["error"]["message"]
