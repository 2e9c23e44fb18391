"""Tests for the exact case analysis of constant-a2 Hartogs domains."""

from fractions import Fraction as F

import numpy as np
import pytest
import sympy as sp

from hartogslab import cases, oracles
from hartogslab.cases import (CASE1_N_MAX, CaseVerdict, _case1, classify_all,
                              constancy_constraints, exceptional_integrality,
                              integer_root_scan)
from hartogslab.domains import EXCEPTIONAL_RANKS, FAMILIES, DomainSpec, d_and_genus, type1
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
    # the factorization and the reduction certificate read one polynomial,
    # the cleared constancy condition n^2 (n-1)(n+1)(n+2)(n+3), with the
    # evidence keys of cases 2 and 4
    v = integer_root_scan(3, 1000)
    assert v.surviving_parameters == []
    e = v.evidence
    assert set(e) == set(integer_root_scan(2, 1000).evidence) == set(
        integer_root_scan(4, 1000).evidence)
    assert e["polynomial_low_to_high"] == [0, 0, -6, -5, 5, 5, 1]
    assert e["factors_low_to_high"] == [[0, 1], [0, 1], [-1, 1], [1, 1], [2, 1], [3, 1]]
    assert e["linear_factor_roots"] == [-3, -2, -1, 0, 0, 1]
    assert e["factorization_reexpanded"] is True
    assert e["sample_values"] == {"2": 240, "3": 2160, "4": 10080, "5": 33600}
    assert e["scanned_range"] == [2, 1000]
    assert e["reduction_certificate"]["range"] == [2, 98]
    assert e["reduction_certificate"]["weight"] == "1"
    assert "no admissible integer solution" in v.conclusion


# the paper's prescribed route for case 3, (n-1)(n^4 + 22n^3 - 5n^2 + 6n - 64):
# not the constancy condition, so the case analysis does not carry it
_QUINTIC = [64, -70, 11, -27, 21, 1]
_QUINTIC_FACTORS = [[-1, 1], [-64, 6, -5, 22, 1]]


def test_case3_prescribed_quintic_route():
    # the route still holds on its own terms: its factors re-expand to it,
    # the quartic's integer roots would divide 64 and none of the 14 does,
    # and the linear factor's root 1 lies below case 3's least n
    assert cases._expand_factors(_QUINTIC_FACTORS) == _QUINTIC
    linear, quartic = _QUINTIC_FACTORS
    candidates = {s * 2 ** j for j in range(7) for s in (1, -1)}
    assert len(candidates) == 14 and all(64 % c == 0 for c in candidates)
    assert all(cases._poly_eval(quartic, c) != 0 for c in candidates)
    assert -linear[0] == 1 < FAMILIES["type3"].least_n == 2
    assert all(cases._poly_eval(_QUINTIC, n) != 0 for n in range(2, 2001))


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
    assert v.surviving_parameters == scalar_roots(case["poly"])
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
    assert e["rank_data"] == [2, 6, 4]
    assert (e["d"], e["genus"]) == (16, 12)
    assert e["base_r2_required"] == "32/17"
    assert e["genus4_times_base_r2"] == "663552/17"
    assert (e["numerator"], e["denominator"]) == (663552, 17)
    assert e["remainder"] == 8
    assert e["is_integer"] is False

    v6 = exceptional_integrality("exc6")
    assert v6.case_id == 6
    e = v6.evidence
    assert e["rank_data"] == [3, 8, 0]
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
        d = d_and_genus(*FAMILIES[kind].rank(a, b))[0]
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
    read = _from_coeffs(case["poly"], _n)
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
    quintic = _from_coeffs(_QUINTIC, _n)
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
        poly = _from_coeffs(case["poly"], _n)
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

@pytest.mark.parametrize("case_id", [2, 3, 4])
def test_scanned_factorization_must_reexpand(monkeypatch, case_id):
    # the factors without the last one multiply to another polynomial
    case = cases._CASES[case_id]
    monkeypatch.setitem(cases._CASES, case_id, dict(case, factors=case["factors"][:-1]))
    with pytest.raises(ArithmeticError,
                       match=f"^case {case_id}: factorization certificate failed$"):
        integer_root_scan(case_id, 50)


def _refused_factor(monkeypatch, case_id, poly, factors, refused):
    """With poly and factors in case_id's entry, integer_root_scan raises
    on the factor written refused. factors do re-expand to poly, so the
    only check that can refuse them is the monic-linear one."""
    assert cases._expand_factors(factors) == poly
    monkeypatch.setitem(cases._CASES, case_id, dict(cases._CASES[case_id], poly=poly,
                                                    factors=factors))
    with pytest.raises(ArithmeticError, match=rf"^case {case_id}: factor "
                                              rf"\[{refused}\] is not monic linear$"):
        integer_root_scan(case_id, 50)


def test_nonlinear_factor_with_an_integer_root_fails(monkeypatch):
    # (n - 1)(n^2 - 4): the quadratic has the root 2, in the scanned range
    _refused_factor(monkeypatch, 4, [4, -4, -1, 1], [[-1, 1], [-4, 0, 1]], "-4, 0, 1")


def test_nonlinear_factor_with_zero_constant_term_fails(monkeypatch):
    # (n - 1)(n^2 - 3000n): its root 3000 lies beyond n_max, where the scan
    # cannot see it
    _refused_factor(monkeypatch, 4, [0, 3000, -3001, 1], [[-1, 1], [0, -3000, 1]],
                    "0, -3000, 1")


def test_nonlinear_factor_without_an_integer_root_fails(monkeypatch):
    # case 3's prescribed quintic: its quartic has no integer root, but the
    # verdict for every n reads only monic linear factors
    _refused_factor(monkeypatch, 3, _QUINTIC, _QUINTIC_FACTORS, "-64, 6, -5, 22, 1")


def test_non_monic_linear_factor_fails(monkeypatch):
    # (2n - 2)(n + 2): 2n - 2 has the root 1, but not as n + a
    _refused_factor(monkeypatch, 4, [-4, 2, 2], [[-2, 2], [2, 1]], "-2, 2")


@pytest.mark.parametrize("case_id", [2, 3, 4])
def test_reduction_mismatch_fails(monkeypatch, case_id):
    # a closed form that meets 2d/(d+1) where the polynomial does not vanish
    def required(kind, m, n):
        d = d_and_genus(*FAMILIES[kind].rank(m, n))[0]
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


def test_reduction_certificate_refuses_the_quintic():
    # case 3's prescribed quintic in place of the cleared sextic, on the
    # certificate's sizes [2, 98]: no root in the admissible range either,
    # but not the closed form's identity
    ns = np.arange(2, 99, dtype=np.int64)
    with pytest.raises(ArithmeticError,
                       match="^case 3: reduction certificate failed at n=2$"):
        cases._certify_reduction(3, cases._poly_eval(_QUINTIC, ns), None, ns)


# -- rank data: the one family fact (sympy, tests only) -----------------------

_k = sp.Symbol("k", integer=True)
_mi = sp.Symbol("m", integer=True)

# each family's (d, genus) as the domains docstring states it, in (m, n)
_STATED = {"type1": lambda m, n: (m * n, m + n),
           "type2": lambda m, n: (n * (n - 1) // 2, 2 * (n - 1)),
           "type3": lambda m, n: (n * (n + 1) // 2, n + 1),
           "type4": lambda m, n: (n, n)}


def _per_parity(kind):
    """(m, n, rank data) of kind with n = 2k + p for each parity p: type 2's
    rank data carry n // 2 and n % 2, which sympy resolves per parity, and
    d's r (r - 1) // 2 then resolves for every family."""
    for p in (0, 1):
        n = 2 * _k + p
        yield _mi, n, FAMILIES[kind].rank(_mi, n)


def _rank_identities_hold(kind, derive=d_and_genus):
    return all(sp.expand(got - want) == 0
               for m, n, rank in _per_parity(kind)
               for got, want in zip(derive(*rank), _STATED[kind](m, n)))


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_rank_data_give_each_family_d_and_genus(kind):
    # as polynomials in the sizes, and on the certificate's int64 arrays
    assert _rank_identities_hold(kind)
    m, n = _CERTIFICATE_SIZES[kind]
    for got, want in zip(d_and_genus(*FAMILIES[kind].rank(m, n)), _STATED[kind](m, n)):
        assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_rank_identities_refuse_a_perturbed_derivation(kind):
    def genus_plus_one(r, a, b):
        d, genus = d_and_genus(r, a, b)
        return d, genus + 1

    def d_with_rb_as_b(r, a, b):
        d, genus = d_and_genus(r, a, b)
        return d - r * b + b, genus

    assert not _rank_identities_hold(kind, genus_plus_one)
    # type 3 and type 4 have b = 0, where this perturbation is no change
    assert _rank_identities_hold(kind, d_with_rb_as_b) == (kind in ("type3", "type4"))


def _twice_x(r, a, b, const=4):
    """2 X, with X = a^2 r^2/2 - 3a(a-2) r/2 + a^2 - 3a + 4 + b(ar - a + 2):
    genus^2 baseR2 = d X for every family, in integers."""
    return (a * a * r * r - 3 * a * (a - 2) * r + 2 * (a * a - 3 * a + const)
            + 2 * b * (a * r - a + 2))


def _x_identity_holds(kind, const=4):
    """d X den = genus^2 num against R2_parts, as polynomials per parity."""
    for m, n, rank in _per_parity(kind):
        d, genus = d_and_genus(*rank)
        num, den = oracles.R2_parts(kind, m, n)
        if sp.expand(d * _twice_x(*rank, const) * den - 2 * genus ** 2 * num) != 0:
            return False
    return True


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_rank_data_formula_is_the_closed_form(kind):
    # the rank-data form of baseR2 is the independent check of R2_parts; the
    # identity holds with symbolic sizes, on the certificate's int64 sizes,
    # and fails once X's constant 4 is 5
    assert _x_identity_holds(kind)
    assert not _x_identity_holds(kind, const=5)
    m, n = _CERTIFICATE_SIZES[kind]
    rank = FAMILIES[kind].rank(m, n)
    d, genus = d_and_genus(*rank)
    num, den = oracles.R2_parts(kind, m, n)
    assert np.array_equal(d * _twice_x(*rank) * den, 2 * genus ** 2 * num)


def test_exceptional_rank_data():
    # E6 and E7: their (d, genus), and the baseR2 that the rank-data form
    # gives them, 6 and 29/3, with genus^4 baseR2 an integer for both. X
    # was fitted on types 1-3 and checked on type 4 and odd type 2; terms
    # such as (a-2) b (b-2) vanish on every classical family, so these two
    # values rest on X, not on the classical identities
    assert set(EXCEPTIONAL_RANKS) == {"exc5", "exc6"} and not hasattr(cases, "EXCEPTIONAL")
    want = {"exc5": (16, 12, F(6), 124416), "exc6": (27, 18, F(29, 3), 1014768)}
    for kind, rank in EXCEPTIONAL_RANKS.items():
        d, genus = d_and_genus(*rank)
        base_r2 = F(d * _twice_x(*rank), 2 * genus ** 2)
        assert (d, genus, base_r2, genus ** 4 * base_r2) == want[kind]


# the binomial-basis coefficients of type 3's genus^4 baseR2, j = 0..6
_TYPE3_BINOMIAL = [0, 16, 157, 537, 846, 630, 180]


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_integrality_premise_holds_for_every_n(kind):
    # genus^4 baseR2 is an integer at every size of every classical family,
    # the premise that excludes exc5 and exc6: for types 1, 2 and 4 R2_parts'
    # denominator divides genus^2 as polynomials; for type 3 genus^4 baseR2
    # = Q(n) = (n+1)^3 n (n^2+3n+4)/4 has integer coefficients in the
    # binomial basis C(n, j), so it is integer-valued (Polya, 1915)
    for m, n, rank in _per_parity(kind):
        genus = d_and_genus(*rank)[1]
        num, den = oracles.R2_parts(kind, m, n)
        ratio = sp.Poly(sp.cancel(genus ** 2 / den), m, _k)
        assert all(c.is_integer for c in ratio.coeffs()) == (kind != "type3")
        if kind == "type3":
            Q = sp.cancel(genus ** 4 * num / den)
            assert sp.expand(Q - (n + 1) ** 3 * n * (n ** 2 + 3 * n + 4) / 4) == 0
    if kind == "type3":
        n = sp.Symbol("n")
        Q = (n + 1) ** 3 * n * (n ** 2 + 3 * n + 4) / 4
        values = [Q.subs(n, j) for j in range(7)]
        # the forward differences of Q at 0
        coeffs = [sum((-1) ** (j - i) * sp.binomial(j, i) * values[i] for i in range(j + 1))
                  for j in range(7)]
        assert coeffs == _TYPE3_BINOMIAL
        assert sp.expand(sum(c * sp.expand_func(sp.binomial(n, j))
                             for j, c in enumerate(coeffs)) - Q) == 0
