"""Tests for the exact case analysis of constant-a2 Hartogs domains."""

from fractions import Fraction as F

import numpy as np
import pytest
import sympy as sp

from hartogslab import cases, oracles
from hartogslab.cases import (CASE1_N_MAX, CaseVerdict, _case1, classify_all,
                              constancy_constraints, exceptional_integrality,
                              integer_root_scan)
from hartogslab.domains import FAMILIES, DomainSpec, type1
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
    assert v.evidence["reduction_certificate"] == {
        "range": [4, 100],
        "statement": "closed-form baseR2 equals 2d/(d+1) exactly where the "
                     "constraint polynomial vanishes",
        "identity": "2 (num (d+1) - 2d den) = w P", "weight": "n", "degree_bound": 6}
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


def test_root_scan_is_exact_past_int64():
    # (n - 40000) n^4 (n + 1) passes 2^63 early in [2, 50000]; in int64 it
    # would wrap, and n = 2^15 would read as a root (p(2^15) is 0 mod 2^64)
    factors = [[-40000, 1], [0, 1], [0, 1], [0, 1], [0, 1], [1, 1]]
    poly = cases._expand_factors(factors)
    assert cases._poly_eval(poly, 50000) > 3 * 10 ** 27
    assert cases._poly_eval(poly, 2 ** 15) % 2 ** 64 == 0
    _, roots, complete = cases._certify_polynomial(0, poly, factors, 2, 50000)
    assert roots == [40000] and type(roots[0]) is int
    assert not complete


@pytest.mark.parametrize("n_max", [5, 97, 2000])
@pytest.mark.parametrize("case_id", [2, 3, 4])
def test_root_scan_matches_scalar_scan(case_id, n_max):
    # the whole-array scan against a scalar Horner loop, on every case
    # polynomial (case 3's sextic passes 2^63 before n = 2000)
    case = cases._CASES[case_id]
    lo = FAMILIES[f"type{case_id}"].least_n

    def scalar_roots(poly):
        return [n for n in range(lo, n_max + 1) if cases._poly_eval(poly, n) == 0]

    v = integer_root_scan(case_id, n_max)
    roots = scalar_roots(case["poly"])
    if "constraint_poly" in case:
        croots = scalar_roots(case["constraint_poly"])
        assert v.evidence["closed_form_constraint"]["roots_in_range"] == croots
        roots += croots
    assert v.surviving_parameters == roots
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
    assert case1.evidence["reduction_certificate"] == {
        "identity": "2 (num (d+1) - 2d den) = w P", "weight": "4mn", "degree_bound": 3,
        "grid": "1 <= m <= n <= 80, which holds {1..40} x {41..80}"}
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
    assert cases.R2_parts is oracles.R2_parts
    assert oracles.appendix_R2_base(type1(2, 3)) == F(*oracles.R2_parts("type1", 2, 3))

    def shifted(kind, m, n):  # the closed form plus 1e-6
        num, den = oracles.R2_parts(kind, m, n)
        return num * 10 ** 6 + den, den * 10 ** 6

    monkeypatch.setattr(cases, "R2_parts", shifted)
    with pytest.raises(ArithmeticError,
                       match=r"^case 1: reduction certificate failed at m=1, n=1$"):
        _case1(60)


# the sizes of each family's reduction certificate: case 1's 80 x 80 grid of
# pairs m <= n, and [lo, lo + 96] for cases 2-4
_CERTIFICATE_SIZES = {
    "type1": tuple(np.add(np.triu_indices(80), 1, dtype=np.int64)),
    **{kind: (None, np.arange(f.least_n, f.least_n + 97, dtype=np.int64))
       for kind, f in FAMILIES.items() if kind != "type1"},
}


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_closed_form_parts_on_int64_arrays(kind):
    # R2_parts over the certificate's int64 sizes equals its Python-int
    # parts size by size, appendix_R2_base is their quotient, and every
    # value the certificate forms fits in int64
    m, n = _CERTIFICATE_SIZES[kind]
    num, den = oracles.R2_parts(kind, m, n)
    assert num.dtype == den.dtype == np.int64
    ms = [None] * n.size if m is None else m.tolist()
    largest = 0
    for a, b, x, y in zip(ms, n.tolist(), num.tolist(), den.tolist()):
        parts = oracles.R2_parts(kind, a, b)
        assert (x, y) == parts and type(parts[0]) is type(parts[1]) is int
        assert oracles.appendix_R2_base(DomainSpec(kind, a, b)) == F(*parts)
        d = FAMILIES[kind].d(a, b)
        largest = max(largest, x * (d + 1), 2 * d * y, abs(2 * (x * (d + 1) - 2 * d * y)))
    assert largest < 2 ** 63  # about 1.05e12 for type 1


# -- every n: the reductions as polynomial identities (sympy, tests only) -----

_n, _m = sp.symbols("n m")

# appendix_R2_base's closed forms of types 2-4, transcribed: numerator degree
# <= 4 and denominator degree <= 2, so the cross-multiplied difference against
# the function's own numerator and denominator has degree <= 6 (<= 2 for type
# 4), and agreement at more n than that proves the transcription for every n
_CLOSED_FORMS = {
    2: ((_n * (_n + 1) * (_n ** 2 - 5 * _n + 12) - 16 * _n, 4 * (_n - 1) ** 2),
        _n * (_n - 1) / 2, 6),
    3: ((_n * (_n + 1) * (_n ** 2 + 3 * _n + 4), 4 * (_n + 1) ** 2),
        _n * (_n + 1) / 2, 6),
    4: ((3 * _n - 2, _n), _n, 2),
}
# (numerator of baseR2 - 2d/(d+1)) * ratio is the polynomial whose values
# _certify_reduction reads; neither side of ratio has a root >= the family's
# least n
_RATIOS = {2: (_n - 1) / _n, 3: _n + 1, 4: sp.Integer(1)}


def _roots_below(expr, var, lo):
    # every real root of a nonzero polynomial lies below lo
    poly = sp.Poly(expr, var)
    return poly.degree() == 0 or all(r < lo for r in sp.real_roots(poly))


def _from_coeffs(coeffs, var):
    return sum(c * var ** k for k, c in enumerate(coeffs))


def _certificate_reads(case_id, n_max):
    """The sizes and the polynomial values that _certify_reduction
    compares, seen by a spy."""
    seen, certify = [], cases._certify_reduction
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cases, "_certify_reduction",
                   lambda *args: seen.append(args) or certify(*args))
        integer_root_scan(case_id, n_max)
    assert len(seen) == 1
    (_, cleared, m, n), = seen
    assert m is None and n.dtype == cleared.dtype == np.int64
    return n.tolist(), cleared.tolist()


@pytest.mark.parametrize("case_id", [2, 3, 4])
def test_reduction_is_a_polynomial_identity(case_id):
    (num, den), d, degree = _CLOSED_FORMS[case_id]
    case = cases._CASES[case_id]
    lo = FAMILIES[f"type{case_id}"].least_n
    for k in range(lo, lo + degree + 3):
        exact = sp.Rational(num.subs(_n, k), den.subs(_n, k))
        spec = DomainSpec(f"type{case_id}", n=k)
        assert oracles.appendix_R2_base(spec) == F(int(exact.p), int(exact.q))
    top, bottom = sp.fraction(sp.cancel(num / den - 2 * d / (d + 1)))
    assert _roots_below(bottom, _n, lo)
    cleared = sp.expand(top * _RATIOS[case_id])
    # the certificate reads the values of that polynomial at each of its n,
    # and the scan reads its coefficients
    ns, values = _certificate_reads(case_id, 2000)
    assert ns == list(range(lo, lo + 97))
    assert values == [cleared.subs(_n, k) for k in ns]
    read = _from_coeffs(case.get("constraint_poly", case["poly"]), _n)
    assert sp.expand(read - cleared) == 0
    p, q = sp.fraction(sp.cancel(_RATIOS[case_id]))
    assert _roots_below(p, _n, lo) and _roots_below(q, _n, lo)


def test_case3_quintic_is_not_the_constancy_condition():
    # the quintic shares only the root n = 1 with the cleared condition, so
    # a pointwise comparison of their roots cannot tell them apart: neither
    # has a root in [2, 98] (the certificate's identity can, see
    # test_reduction_certificate_refuses_the_quintic)
    (num, den), d, _ = _CLOSED_FORMS[3]
    top, _ = sp.fraction(sp.cancel(num / den - 2 * d / (d + 1)))
    quintic = _from_coeffs(cases._CASES[3]["poly"], _n)
    assert sp.gcd(sp.Poly(quintic, _n), sp.Poly(top, _n)).as_expr() == _n - 1
    assert sp.cancel(quintic / top - _RATIOS[3]) != 0


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_certificate_identity_holds_for_every_size(case_id):
    # 2 (num (d+1) - 2d den) = w P as polynomials, with w read from the
    # certificate's own table, and both sides within the degree bound that
    # its evidence states, which the certificate's sizes exceed
    kind = f"type{case_id}"
    num, den = cases.R2_parts(kind, _m, _n)
    if case_id == 1:
        d, poly, names = _m * _n, (_m * _n + 1) ** 2 - (_m + _n) ** 2, (_m, _n)
    else:
        case = cases._CASES[case_id]
        d, names = _CLOSED_FORMS[case_id][1], (_n,)
        poly = _from_coeffs(case.get("constraint_poly", case["poly"]), _n)
    weight = cases._WEIGHTS[case_id][1](_m, _n)
    left, right = 2 * (num * (d + 1) - 2 * d * den), weight * poly
    assert sp.expand(left - right) == 0
    verdict = _case1(5) if case_id == 1 else integer_root_scan(case_id, 5)
    bound = verdict.evidence["reduction_certificate"]["degree_bound"]
    for side in (left, right):
        assert max(sp.Poly(sp.expand(side), *names).degree_list()) <= bound
    m, n = _CERTIFICATE_SIZES[kind]
    if m is None:  # the same sizes at any n_max, here 5
        assert n.size > bound
        assert verdict.evidence["reduction_certificate"]["range"] == [n[0], n[-1]]
    else:  # the grid holds {1..40} x {41..80}, 40 > bound values of each size
        pairs = set(zip(m.tolist(), n.tolist()))
        assert {(a, b) for a in range(1, 41) for b in range(41, 81)} <= pairs


def test_case1_reduction_is_a_polynomial_identity():
    # R2_parts("type1", m, n) = (2mn(mn+1), (m+n)^2), unreduced: each side
    # has degree <= 4 in each of m and n, so a 7 x 7 grid proves it
    num, den = 2 * _m * _n * (_m * _n + 1), (_m + _n) ** 2
    for a in range(1, 8):
        for b in range(1, 8):
            at = {_m: a, _n: b}
            assert cases.R2_parts("type1", a, b) == (num.subs(at), den.subs(at))
    d = _m * _n
    top, bottom = sp.fraction(sp.cancel(num / den - 2 * d / (d + 1)))
    assert sp.expand(bottom - (_m + _n) ** 2 * (_m * _n + 1)) == 0
    # _case1 scans (mn+1)^2 = (m+n)^2; the numerator is that times 2mn,
    # which has no root with m, n >= 1
    assert sp.expand(top - 2 * _m * _n * ((_m * _n + 1) ** 2 - (_m + _n) ** 2)) == 0
    assert sp.factor(top) == 2 * _m * _n * (_m - 1) * (_m + 1) * (_n - 1) * (_n + 1)


# -- certificate failure paths ------------------------------------------------

def test_scanned_factorization_must_reexpand(monkeypatch):
    monkeypatch.setitem(cases._CASES, 2, dict(cases._CASES[2],
                                              factors=[[0, 1], [-1, 1]]))
    with pytest.raises(ArithmeticError,
                       match=r"^case 2: factorization certificate failed$"):
        integer_root_scan(2, 50)


def test_constraint_factorization_must_reexpand(monkeypatch):
    monkeypatch.setitem(cases._CASES, 3, dict(cases._CASES[3],
                                              constraint_factors=[[0, 1], [1, 1]]))
    with pytest.raises(ArithmeticError,
                       match="case 3: constraint factorization certificate failed"):
        integer_root_scan(3, 50)


def test_nonlinear_factor_with_an_integer_root_fails(monkeypatch):
    # (n - 1)(n^2 - 4): the quadratic has the root 2, a divisor of 4
    monkeypatch.setitem(cases._CASES, 4, dict(cases._CASES[4], poly=[4, -4, -1, 1],
                                              factors=[[-1, 1], [-4, 0, 1]]))
    with pytest.raises(ArithmeticError, match="case 4: unexpected factor root"):
        integer_root_scan(4, 50)


def test_nonlinear_factor_with_zero_constant_term_fails(monkeypatch):
    # (n - 1)(n^2 - 3000n): its root 3000 lies beyond n_max, and every integer
    # divides the constant term 0, so only the candidate 0 can expose it
    monkeypatch.setitem(cases._CASES, 4, dict(cases._CASES[4], poly=[0, 3000, -3001, 1],
                                              factors=[[-1, 1], [0, -3000, 1]]))
    with pytest.raises(ArithmeticError, match="case 4: unexpected factor root"):
        integer_root_scan(4, 50)


@pytest.mark.parametrize("case_id", [2, 3, 4])
def test_reduction_mismatch_fails(monkeypatch, case_id):
    # a closed form that meets 2d/(d+1) where the polynomial does not vanish
    def required(kind, m, n):
        d = FAMILIES[kind].d(m, n)
        return 2 * d, d + 1

    monkeypatch.setattr(cases, "R2_parts", required)
    lo = FAMILIES[f"type{case_id}"].least_n
    with pytest.raises(ArithmeticError, match=f"case {case_id}: reduction "
                                           f"certificate failed at n={lo}"):
        integer_root_scan(case_id, 50)


@pytest.mark.parametrize("case_id", [2, 3, 4])
def test_reduction_certificate_refuses_a_shifted_closed_form(monkeypatch, case_id):
    # (num 1000 + den) / (den 1000) meets 2d/(d+1) at no admissible n, as
    # the closed form does not either: only the identity tells them apart
    def shifted(kind, m, n):
        num, den = oracles.R2_parts(kind, m, n)
        return num * 1000 + den, den * 1000

    monkeypatch.setattr(cases, "R2_parts", shifted)
    lo = FAMILIES[f"type{case_id}"].least_n
    with pytest.raises(ArithmeticError, match=f"^case {case_id}: reduction "
                                              f"certificate failed at n={lo}$"):
        integer_root_scan(case_id, 50)


def test_reduction_certificate_refuses_the_quintic(monkeypatch):
    # case 3's prescribed quintic in place of the cleared sextic: no root in
    # the admissible range either, but not the closed form's identity
    case = cases._CASES[3]
    monkeypatch.setitem(cases._CASES, 3, dict(case, constraint_poly=case["poly"],
                                              constraint_factors=case["factors"]))
    with pytest.raises(ArithmeticError,
                       match="^case 3: reduction certificate failed at n=2$"):
        integer_root_scan(3, 50)
