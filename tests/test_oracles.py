"""Tests for the exact closed-form curvature evaluators.

The quadratic a2 coefficients are cross-checked against an independent
regrouping of the four fiber-slice identities (tests/helpers.py) computed with
Fraction polynomial arithmetic, so the two derivations share no code.
"""

from fractions import Fraction as F

import pytest

import helpers
from hartogslab.domains import type1, type2, type3, type4
from hartogslab.oracles import (OracleInputs, R2_formula, a2_quadratic_coeffs,
                                appendix_R2_base, lap_k_formula, ric2_formula,
                                scalar_curvature_formula)


def _disk(mu, t=F(0)):
    # unit disk: d = 1, genus = 2, baseR2 = 1
    return OracleInputs(1, 2, mu, t=t, base_r2=F(1))


def test_c_shorthand():
    assert _disk(F(2)).c == 1
    assert _disk(F(1)).c == 0
    assert _disk(F(1, 2)).c == -2
    assert OracleInputs(4, 4, F(4, 5)).c == 0  # mu = genus / (d+1)


def test_disk_frozen_values_mu2():
    inp0 = _disk(F(2))
    assert scalar_curvature_formula(inp0) == -5
    assert lap_k_formula(inp0) == -1
    assert R2_formula(inp0) == 9
    assert ric2_formula(inp0) == 13
    c0, c1, c2 = a2_quadratic_coeffs(inp0)
    assert (c0, c1, c2) == (0, 1, 1)
    inp = _disk(F(2), t=F(1, 4))
    assert scalar_curvature_formula(inp) == F(-21, 4)
    assert lap_k_formula(inp) == F(-3, 4)
    assert R2_formula(inp) == F(153, 16)
    assert ric2_formula(inp) == F(225, 16)
    # a2 at t = 1/4 from the quadratic
    t = F(1, 4)
    assert c0 * t * t + c1 * t + c2 == F(5, 4)


def test_disk_frozen_coefficients_other_mu():
    assert a2_quadratic_coeffs(_disk(F(1, 2))) == (0, -2, 4)
    assert a2_quadratic_coeffs(_disk(F(1))) == (0, 0, 2)


def test_ball2_frozen_coefficients():
    inp = OracleInputs(2, 3, F(3), base_r2=appendix_R2_base(type1(1, 2)))
    assert a2_quadratic_coeffs(inp) == (F(20, 9), F(50, 9), F(29, 9))
    assert scalar_curvature_formula(inp) == -8
    assert lap_k_formula(inp) == -4
    assert R2_formula(inp) == F(40, 3)
    assert ric2_formula(inp) == 24
    c0, c1, c2 = a2_quadratic_coeffs(inp)
    t = F(4, 25)
    assert c0 * t * t + c1 * t + c2 == F(521, 125)  # 4.168 exactly


def test_type1_22_frozen_coefficients():
    spec = type1(2, 2)
    inp = OracleInputs(spec.d, spec.genus, F(4, 5),
                       base_r2=appendix_R2_base(spec))
    assert inp.c == 0
    assert a2_quadratic_coeffs(inp) == (F(15, 16), F(-15, 8), F(1375, 16))


def test_scalar_curvature_away_from_origin():
    # d = 1, mu = 2, z with N = 1 - |z|^2 = 4/5, w = 1/3
    inp = _disk(F(2), t=F(1, 9))
    n_mu = F(4, 5) ** 2
    assert scalar_curvature_formula(inp, n_mu=n_mu) == F(-745, 144)


def test_hyperbolic_space_constants():
    # mu = 1 over the ball family: c = 0 and a2 is the constant c2
    for d, want in ((1, F(2)), (2, F(11)), (3, F(35))):
        spec = type1(1, d)
        inp = OracleInputs(d, d + 1, F(1), base_r2=appendix_R2_base(spec))
        assert inp.c == 0
        c0, c1, c2 = a2_quadratic_coeffs(inp)
        assert (c0, c1) == (0, 0)
        assert c2 == want


def test_results_stay_rational():
    inp = OracleInputs(3, 5, F(7, 3), t=F(1, 7), base_r2=F(9, 4))
    for val in (scalar_curvature_formula(inp), R2_formula(inp),
                lap_k_formula(inp), ric2_formula(inp),
                *a2_quadratic_coeffs(inp)):
        assert isinstance(val, F)


def test_coefficient_sum_identity():
    # 2 c0 + c1 = d^2 (d+3) c / 4 for every admissible parameter tuple
    for d, genus, mu, base_r2 in helpers.random_identity_tuples(40):
        inp = OracleInputs(d, genus, mu, base_r2=base_r2)
        c0, c1, _ = a2_quadratic_coeffs(inp)
        assert 2 * c0 + c1 == F(d * d * (d + 3), 4) * inp.c


def test_regrouped_coefficients_match_direct_formulas():
    for d, genus, mu, base_r2 in helpers.random_identity_tuples(100):
        inp = OracleInputs(d, genus, mu, base_r2=base_r2)
        direct = a2_quadratic_coeffs(inp)
        regrouped = helpers.regrouped_a2_coeffs(d, genus, mu, base_r2)
        assert direct == regrouped


def test_base_r2_required_where_used():
    inp = OracleInputs(1, 2, F(2))
    with pytest.raises(ValueError):
        R2_formula(inp)
    with pytest.raises(ValueError):
        a2_quadratic_coeffs(inp)
    # formulas that do not touch base_r2 still work
    assert scalar_curvature_formula(inp) == -5
    assert lap_k_formula(inp) == -1


APPENDIX_FROZEN = [
    (type1(1, 2), F(4, 3)),
    (type1(1, 3), F(3, 2)),
    (type1(2, 2), F(5, 2)),
    (type2(4), F(8, 3)),
    (type3(2), F(7, 3)),
    (type3(3), F(33, 8)),
    (type4(5), F(13, 5)),
]


@pytest.mark.parametrize("spec,want", APPENDIX_FROZEN,
                         ids=[s.label() for s, _ in APPENDIX_FROZEN])
def test_appendix_base_norms_frozen(spec, want):
    got = appendix_R2_base(spec)
    assert isinstance(got, F)
    assert got == want


def test_appendix_rank_one_reduces_to_ball():
    for n in range(1, 7):
        assert appendix_R2_base(type1(1, n)) == F(2 * n, n + 1)


def test_appendix_transpose_symmetry():
    assert appendix_R2_base(type1(3, 2)) == appendix_R2_base(type1(2, 3))


TRACE_FORM_SPECS = [type1(1, 2), type1(2, 2), type1(2, 3), type1(1, 4),
                    type2(4), type2(5), type2(6),
                    type3(2), type3(3), type3(4), type3(5),
                    type4(5), type4(6), type4(7)]


@pytest.mark.parametrize("spec", TRACE_FORM_SPECS, ids=lambda s: s.label())
def test_appendix_matches_trace_form_contraction(spec):
    """Independent origin-curvature computation from the quartic term of the
    log-generic-norm potential, with no jets involved."""
    got = helpers.trace_form_r2(spec)
    assert got == pytest.approx(float(appendix_R2_base(spec)), rel=1e-11)
