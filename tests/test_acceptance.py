"""Acceptance gate: fourteen tests, all exact arithmetic.

Each of the eleven numbered tests pins one headline claim to its
verification-registry checks and asserts the key numbers recorded in
the checks' details.  The whole registry is run once per session with
seed 0; the last three tests require it to pass completely inside the
two-minute budget, its report to keep every byte, and a filtered report
to be deterministic.
"""

import hashlib
import json

import pytest

from latconf.verify import run_verify

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="session")
def report():
    return run_verify(seed=0)


def _check(report, check_id):
    by_id = {c.id: c for c in report.checks}
    assert check_id in by_id, f"missing registry check {check_id}"
    c = by_id[check_id]
    assert c.status == "Pass", (check_id, c.details)
    return c.details


def test_01_d6_discriminant_form(report):
    details = _check(report, "disc-form-d6")
    assert details["orders"] == [2, 2]
    assert details["bilinear"] == [["0", "1/2"], ["1/2", "1/2"]]


def test_02_complement_invariants(report):
    details = _check(report, "lattice-complement-z210")
    assert details["signature"] == [2, 4]
    assert details["parity"] == "odd"
    assert details["discriminant"] == 4
    assert details["disc_form_matches_reference"] is True
    perp = _check(report, "lattice-d6-perp-e8")
    assert perp["reduced_gram"] == [["2", "0"], ["0", "2"]]


def test_03_seven_index2_identities(report):
    details = _check(report, "lattice-index2-identities")
    assert details["count"] == 7
    assert all(v == "match" for v in details["identities"].values())


def test_04_overlattice_enumeration(report):
    details = _check(report, "lattice-overlattice-enumeration")
    assert details["quotient_orders"] == [2, 2]
    assert details["q_values"] == ["0", "0", "1"]
    assert details["intermediate_integral"] == 3
    assert details["odd_unimodular"] == 1


def test_05_isotropic_classification(report):
    details = _check(report, "isotropic-orbits")
    assert sorted(details["vector_classes"]) == [
        "EvenVector", "OddType1Vector", "OddType2Vector"
    ]
    assert sorted(details["plane_classes"]) == ["EvenPlane", "OddPlane"]
    assert details["vector_certificates_match"] is True
    assert details["plane_certificates_match"] is True


def test_06_scaled_discriminant_form(report):
    details = _check(report, "lattice-disc-form-scaled")
    assert details["orders"] == [2, 2, 2, 2, 4, 4]
    assert details["integral_norm_subgroup_order"] == 64
    assert details["isotropic_subgroup_order"] == 8
    glue = _check(report, "lattice-glue")
    assert glue["glue_index"] == 8
    assert glue["invariants_match_model"] == "match"
    stable = _check(report, "lattice-subgroup-stable")
    assert stable["subgroup_stable"] is True
    assert stable["automorphisms"] > 0


def test_07_index_formula_and_chain(report):
    details = _check(report, "index-2^5")
    assert details["exponent"] == 5
    assert details["index_d6_scaled_in_z6"] == 16
    assert details["index_glue"] == 8
    assert details["chain_lhs"] == details["chain_rhs"] == 128


def test_08_period_map_dimensions(report):
    details = _check(report, "target-dim-4")
    assert details["samples"] == 100
    assert details["characters_per_sample"] == 7
    assert details["failures"] == []
    counts = _check(report, "jacobian-counts")
    assert counts["dim_R10"] == 6
    assert counts["rank_products"] == 16
    assert counts["rank_jacobian_and_kappa"] == 13
    assert counts["rank_all"] == 24
    assert counts["overlap_dimension"] == 5
    assert counts["degenerate_breaks_dim_4"] is True
    triples = _check(report, "jacobian-squarefree-triples")
    assert triples["bases_per_kappa"] == {k: 4 for k in range(1, 8)}


def test_09_configuration_geometry(report):
    strata = _check(report, "stability-strata")
    assert len(strata["witnesses"]) == 9
    assert strata["max_triple_points_on_stable_samples"] <= 4
    assert strata["quadrangle_triple_points"] == 4
    quad = _check(report, "quadrangle-classes")
    assert quad["classes_no_group"] == 2
    assert quad["classes_even_wreath"] == 2
    assert quad["classes_full_wreath"] == 1
    crem = _check(report, "cremona-involution")
    assert crem["samples"] == 100 and crem["failures"] == 0
    slc = _check(report, "etale-slice")
    assert slc["samples"] == 100 and slc["failures"] == 0
    minors = _check(report, "family-minors")
    assert minors["samples"] == 20 and minors["failures"] == 0


def test_10_f2_space_and_stabilizer(report):
    f2 = _check(report, "f2-census")
    assert f2["weight_census"] == {"1": 35, "3": 21, "5": 7, "7": 1}
    assert f2["isotropy_rule_holds"] is True
    assert f2["g_totally_isotropic"] is True
    assert f2["character_bases"] == 28
    assert f2["bases_per_sum"] == {str(k): 4 for k in range(1, 8)}
    stab = _check(report, "stabilizer-768")
    assert stab["so2_order"] == 4
    assert stab["o4_order"] == 384
    assert stab["stabilizer_order"] == 768


def test_11_cross_implementation_agreement(report):
    smooth = _check(report, "smoothness-paths")
    assert smooth["samples"] == 200
    assert smooth["engineered_failures"] == 20
    assert smooth["mismatches"] == 0
    drop = _check(report, "drop-line-paths")
    assert drop["samples"] == 100 and drop["mismatches"] == 0


def test_suite_is_fast_and_green(report):
    assert report.ok
    assert report.counts["Fail"] == 0
    assert report.counts["Skipped"] == 0
    assert report.elapsed_seconds < 120


# SHA-256 of the seed-0 report's sorted JSON (elapsed times are not in it)
PINNED_REPORT = "eba95b251f6524218c29abafca855e0ee15eefc1a56f7b16855a5d3d3c9a0aa6"


def test_seed_0_report_pinned(report):
    """Every detail of every check hashes to the digest of the code
    whose minors ``configs`` took on Fraction columns: any changed
    output byte fails."""
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORT


def test_filtered_subset_is_deterministic():
    a = run_verify(seed=3, id_filter="f2-")
    b = run_verify(seed=3, id_filter="f2-")
    assert a.to_json() == b.to_json()
