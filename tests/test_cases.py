"""Tests for the exact case analysis of constant-a2 Hartogs domains."""

from fractions import Fraction as F

import pytest

from hartogslab import cases, oracles
from hartogslab.cases import (CASE1_N_MAX, CaseVerdict, _case1, classify_all,
                              constancy_constraints, exceptional_integrality,
                              integer_root_scan)
from hartogslab.domains import type1
from hartogslab.oracles import OracleInputs, a2_quadratic_coeffs


def test_constancy_constraints_frozen():
    assert constancy_constraints(2, 3) == (F(1), F(4, 3))
    assert constancy_constraints(16, 12) == (F(12, 17), F(32, 17))
    assert constancy_constraints(27, 18) == (F(9, 14), F(27, 14))


def test_constancy_constraints_kill_low_order_coefficients():
    for d, genus in ((1, 2), (3, 4), (6, 6), (10, 8)):
        mu, br = constancy_constraints(d, genus)
        c0, c1, c2 = a2_quadratic_coeffs(
            OracleInputs(d, genus, mu, base_r2=br))
        assert c0 == 0 and c1 == 0
        # with mu = genus/(d+1) the surviving constant depends only on d
        p = (d + 1) * (d + 2)
        assert c2 == F(p, 12) + F(p * p, 8) - F((d + 1) * (d + 2) ** 2, 6)


def test_constrained_constant_is_genus_independent():
    vals = {genus: a2_quadratic_coeffs(
        OracleInputs(3, genus, F(genus, 4), base_r2=F(3, 2)))[2]
        for genus in (4, 6, 9)}
    assert len(set(vals.values())) == 1
    assert vals[4] == 35  # ball value for d = 3


def test_constancy_constraints_validation():
    with pytest.raises(ValueError):
        constancy_constraints(0, 2)
    with pytest.raises(ValueError):
        constancy_constraints(1, 1)


def test_case2_scan():
    v = integer_root_scan(2, 1000)
    assert isinstance(v, CaseVerdict)
    assert v.case_id == 2
    assert v.surviving_parameters == []
    assert v.evidence["polynomial_low_to_high"] == [0, -6, 5, 5, -5, 1]
    assert v.evidence["factorization_reexpanded"] is True
    assert sorted(v.evidence["linear_factor_roots"]) == [-1, 0, 1, 2, 3]
    assert max(v.evidence["linear_factor_roots"]) < 4  # admissible range starts at 4
    assert v.evidence["scanned_range"] == [4, 1000]
    assert v.evidence["reduction_certificate"]["range"] == [4, 100]
    assert "no admissible integer solution" in v.conclusion


def test_case3_scan_dual_certificates():
    v = integer_root_scan(3, 1000)
    assert v.surviving_parameters == []
    # prescribed quintic route: one linear factor plus a quartic whose integer
    # roots must divide 64; all candidates checked nonzero
    assert v.evidence["polynomial_low_to_high"] == [64, -70, 11, -27, 21, 1]
    assert v.evidence["linear_factor_roots"] == [1]
    q = v.evidence["quartic_integer_root_check"]
    assert q["factor"] == [-64, 6, -5, 22, 1]
    assert q["all_nonzero"] is True
    assert set(q["candidates"]) == {s * t for t in (1, 2, 4, 8, 16, 32, 64)
                                    for s in (1, -1)}
    # cleared closed-form constraint route: fully linear factorization
    cc = v.evidence["closed_form_constraint"]
    assert cc["polynomial_low_to_high"] == [0, 0, -6, -5, 5, 5, 1]
    assert cc["factors_low_to_high"] == [[0, 1], [0, 1], [-1, 1], [1, 1],
                                         [2, 1], [3, 1]]
    assert sorted(cc["linear_factor_roots"]) == [-3, -2, -1, 0, 0, 1]
    assert cc["roots_in_range"] == []
    assert v.evidence["reduction_certificate"]["range"] == [2, 98]


def test_case4_scan():
    v = integer_root_scan(4, 1000)
    assert v.surviving_parameters == []
    assert v.evidence["polynomial_low_to_high"] == [-2, 1, 1]
    assert sorted(v.evidence["linear_factor_roots"]) == [-2, 1]
    assert "no admissible integer solution" in v.conclusion


def test_scan_validation():
    with pytest.raises(ValueError):
        integer_root_scan(1, 100)
    with pytest.raises(ValueError):
        integer_root_scan(5, 100)
    with pytest.raises(ValueError):
        integer_root_scan(2, 3)  # below the admissible range


def test_exceptional_witnesses():
    v5 = exceptional_integrality("exc5")
    assert v5.case_id == 5
    assert v5.surviving_parameters == []
    e = v5.evidence
    assert (e["d"], e["genus"]) == (16, 12)
    assert e["base_r2_required"] == "32/17"
    assert e["genus4_times_base_r2"] == "663552/17"
    assert (e["numerator"], e["denominator"]) == (663552, 17)
    assert e["remainder"] == 8
    assert e["is_integer"] is False

    v6 = exceptional_integrality("exc6")
    assert v6.case_id == 6
    e = v6.evidence
    assert (e["d"], e["genus"]) == (27, 18)
    assert e["base_r2_required"] == "27/14"
    assert e["genus4_times_base_r2"] == "2834352/14"
    assert e["remainder"] == 10
    assert e["is_integer"] is False


def test_exceptional_integrality_rejects_classical():
    for kind in ("type3", "exc7"):
        with pytest.raises(ValueError):
            exceptional_integrality(kind)


def test_classify_all():
    out = classify_all(60)
    assert out["n_max"] == 60
    assert [v.case_id for v in out["verdicts"]] == [1, 2, 3, 4, 5, 6]
    assert out["matches_expected"] is True
    assert out["survivors"] == "type1 m=1 (unit ball family), mu = 1"
    assert "hyperbolic" in out["final"]
    case1 = out["verdicts"][0]
    assert case1.surviving_parameters == [[1, n] for n in range(1, 61)]
    assert case1.evidence["non_ball_survivors"] == []
    for v in out["verdicts"][1:]:
        assert v.surviving_parameters == []
    with pytest.raises(ValueError):
        classify_all(4)
    # beyond the exact int64 scan: raised before any row is scanned
    with pytest.raises(ValueError, match="at most 55108"):
        classify_all(CASE1_N_MAX + 1)


def _reference_case1(n_max):
    """The case-1 scan as a pure-Python double loop over Python integers."""
    survivors, checked = [], 0
    for m in range(1, n_max + 1):
        for n in range(m, n_max + 1):
            checked += 1
            if (m * n + 1) ** 2 == (m + n) ** 2:
                survivors.append([m, n])
    return survivors, checked


@pytest.mark.parametrize("n_max", [5, 6, 37, 200])
def test_case1_array_scan_matches_double_loop(n_max):
    survivors, checked = _reference_case1(n_max)
    v = _case1(n_max)
    assert v.surviving_parameters == survivors
    assert v.evidence["non_ball_survivors"] == [p for p in survivors if p[0] != 1]
    assert v.evidence["pairs_checked"] == checked == n_max * (n_max + 1) // 2


def test_case1_int64_bound():
    # (b^2 + 1)^2, the largest square the scan forms, fits in int64 at
    # b = CASE1_N_MAX and not one step further
    b = CASE1_N_MAX
    assert b == 55108
    assert (b * b + 1) ** 2 < 2 ** 63 <= ((b + 1) ** 2 + 1) ** 2


def test_verdict_json_shape():
    v = integer_root_scan(4, 50)
    obj = v.to_json_dict()
    assert set(obj) == {"case_id", "description", "parameter_range",
                        "surviving_parameters", "evidence", "conclusion"}
    assert obj["case_id"] == 4


def test_rank_one_survivors_match_ball_constraint():
    # the surviving family really does satisfy both constancy constraints
    for n in (1, 2, 3, 5, 8):
        spec = type1(1, n)
        mu, br = constancy_constraints(spec.d, spec.genus)
        assert mu == 1
        from hartogslab.oracles import appendix_R2_base
        assert appendix_R2_base(spec) == br


def test_case1_certificate_reads_the_catalog_closed_form(monkeypatch):
    # case 1 certifies its reduction on type 1's |R|^2(0) as the oracles
    # and the appendix table state it, so a wrong closed form fails there
    assert cases.type1_R2_base is oracles.type1_R2_base
    assert oracles.appendix_R2_base(type1(2, 3)) == oracles.type1_R2_base(2, 3)
    monkeypatch.setattr(cases, "type1_R2_base",
                        lambda m, n: oracles.type1_R2_base(m, n) + F(1, 10 ** 6))
    with pytest.raises(RuntimeError, match="case 1 reduction certificate failed"):
        _case1(60)
