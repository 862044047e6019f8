"""The verify report: how it runs its checks and prints their outcomes."""

import random
from itertools import combinations

import pytest

from latconf import verify
from latconf.matrices import Matrix


def test_a_raising_check_fails_and_the_next_still_runs(monkeypatch):
    def raises(rng):
        raise ValueError("no such thing")

    def passes(rng):
        return True, {"n": 1}

    monkeypatch.setattr(verify, "REGISTRY", (("raises", "raises", raises),
                                             ("passes", "passes", passes)))
    report = verify.run_verify(seed=0)
    failed, passed = report.checks
    assert failed.status == "Fail"
    assert failed.details["exception"] == "ValueError"
    assert failed.details["message"] == "no such thing"
    assert "ValueError: no such thing" in failed.details["traceback"]
    assert passed.status == "Pass" and passed.details == {"n": 1}
    assert not report.ok and report.counts == {"Pass": 1, "Fail": 1, "Skipped": 0}


def test_render_text_prints_only_a_failed_checks_details():
    report = verify.Report(0, "0", (
        verify.Check("a", "first", "Fail", {"got": 3, "want": 4}),
        verify.Check("b", "second", "Pass", {"n": 1}),
    ))
    assert report.render_text().splitlines() == [
        "[   Fail] a: first",
        "          got: 3",
        "          want: 4",
        "[   Pass] b: second",
        "1 passed, 1 failed, 0 skipped (seed 0)",
    ]


def test_run_check_of_an_unknown_id_raises_key_error():
    with pytest.raises(KeyError, match="no-such-check"):
        verify.run_check("no-such-check")


def test_dependent_subsets_match_the_matrix_determinants():
    """The registry's integer 4-minor oracle against ``det`` of each
    4-column submatrix, in the same order: the 200 systems of the
    ``smoothness-paths`` check at seed 0, and 200 with entries in
    [-1, 1], where most systems have dependent subsets."""
    rng = random.Random(0)
    systems = [verify._degenerate_system(rng) if i < 20 else verify.random_system(rng, smooth=False)
               for i in range(200)]
    systems += [Matrix.from_integers([[rng.randint(-1, 1) for _ in range(7)] for _ in range(4)])
                for _ in range(200)]
    dependent = 0
    for q in systems:
        expected = [s for s in combinations(range(7), 4) if q.submatrix(range(4), s).det() == 0]
        assert verify._dependent_subsets(q) == expected
        dependent += bool(expected)
    assert dependent > 150


def test_lambda_stable_fails_with_the_group_order(monkeypatch):
    """A subgroup that some automorphism moves fails the L(2) stability
    check, which still reports the order of the whole group, read off
    its stabilizer chain, and not a count of automorphisms walked."""
    l2, lam, parts, _ = verify._lambda_data()
    moved = [(1, 0, 0, 0, 0, 0)]
    monkeypatch.setattr(verify, "_lambda_data", lambda: (l2, lam, parts, moved))
    check = verify.run_check("lattice-subgroup-stable", 0)
    assert check.status == "Fail"
    assert check.details == {"automorphisms": 49152, "subgroup_stable": False}
