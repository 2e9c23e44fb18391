"""Unit tests for the bounded symmetric domain catalog."""

import numpy as np
import pytest

import helpers
from hartogslab.domains import (DomainSpec, contains, generic_norm_jet,
                                generic_norm_value, matrix_model,
                                sample_interior, type1, type2, type3, type4)


DIM_GENUS_TABLE = [
    (type1(1, 1), 1, 2),
    (type1(1, 3), 3, 4),
    (type1(2, 2), 4, 4),
    (type1(2, 3), 6, 5),
    (type2(4), 6, 6),
    (type2(5), 10, 8),
    (type3(2), 3, 3),
    (type3(3), 6, 4),
    (type4(5), 5, 5),
    (type4(7), 7, 7),
]


@pytest.mark.parametrize("spec,d,genus", DIM_GENUS_TABLE,
                         ids=[s.label() for s, _, _ in DIM_GENUS_TABLE])
def test_dimension_and_genus(spec, d, genus):
    assert (spec.d, spec.genus) == (d, genus)


def test_labels():
    assert type1(2, 3).label() == "type1(2,3)"
    assert type2(4).label() == "type2(4)"
    assert type4(6).label() == "type4(6)"


def test_type1_canonicalizes_m_le_n():
    s = type1(3, 2)
    assert (s.m, s.n) == (2, 3)
    assert s == type1(2, 3)


@pytest.mark.parametrize("bad", [
    lambda: type1(0, 2),
    lambda: type2(3),
    lambda: type3(1),
    lambda: type4(4),
    lambda: DomainSpec("type2", m=1, n=4),
    lambda: DomainSpec("exc5", n=2),
    lambda: DomainSpec("nosuch"),
])
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ValueError):
        bad()


def test_json_roundtrip():
    for spec in (type1(2, 3), type2(4), type3(3), type4(5)):
        assert DomainSpec.from_json_dict(spec.to_json_dict()) == spec


def test_matrix_model_type1_row_major():
    z = [1, 2, 3, 4, 5, 6]
    M = matrix_model(type1(2, 3), z)
    assert M.shape == (2, 3)
    assert np.array_equal(M, np.array([[1, 2, 3], [4, 5, 6]]))


def test_matrix_model_type2_skew():
    s = type2(4)
    z = np.arange(1, s.d + 1, dtype=complex)
    M = matrix_model(s, z)
    assert np.array_equal(M, -M.T)
    assert M[0, 1] == 1 and M[0, 3] == 3 and M[2, 3] == 6
    assert np.all(np.diag(M) == 0)


def test_matrix_model_type3_symmetric():
    s = type3(3)
    z = np.arange(1, s.d + 1, dtype=complex)
    M = matrix_model(s, z)
    assert np.array_equal(M, M.T)
    assert M[0, 0] == 1 and M[0, 2] == 3 and M[1, 1] == 4 and M[2, 2] == 6


def test_matrix_model_type4_absent():
    with pytest.raises(ValueError):
        matrix_model(type4(5), np.zeros(5))


def test_wrong_coordinate_count():
    with pytest.raises(ValueError):
        contains(type3(2), [0.1, 0.2])


def test_contains_origin_and_boundary():
    for spec in (type1(1, 2), type1(2, 2), type2(4), type3(2), type4(5)):
        assert contains(spec, np.zeros(spec.d))
        assert not contains(spec, np.full(spec.d, 2.0))
    # type4 needs both conditions: this point has z zb^t close to 1
    v = np.zeros(5)
    v[0] = 0.999
    assert contains(type4(5), v)
    v[0] = 1.001
    assert not contains(type4(5), v)


def test_generic_norm_normalization():
    for spec in (type1(2, 2), type2(4), type3(3), type4(5)):
        assert generic_norm_value(spec, np.zeros(spec.d)) == pytest.approx(1.0)


def test_generic_norm_type1_explicit():
    # one variable: N = 1 - |z|^2
    z = 0.3 + 0.4j
    assert generic_norm_value(type1(1, 1), [z]) == pytest.approx(1 - abs(z) ** 2)


def test_generic_norm_type2_is_sqrt_det():
    s = type2(4)
    for p in sample_interior(s, seed=5, count=4):
        Z = matrix_model(s, p)
        det = np.linalg.det(np.eye(4) - Z @ Z.conj().T).real
        assert generic_norm_value(s, p) ** 2 == pytest.approx(det, rel=1e-12)


def test_generic_norm_type4_explicit():
    s = type4(5)
    rng = np.random.default_rng(1)
    v = 0.2 * (rng.normal(size=5) + 1j * rng.normal(size=5))
    zz = np.sum(np.abs(v) ** 2)
    zzt = np.sum(v * v)
    want = 1 - 2 * zz + abs(zzt) ** 2
    assert generic_norm_value(s, v) == pytest.approx(want, rel=1e-12)


def test_sample_interior_deterministic_and_inside():
    s = type1(2, 2)
    a = sample_interior(s, seed=9, count=6)
    b = sample_interior(s, seed=9, count=6)
    assert a == b
    assert len(a) == 6
    for p in a:
        assert len(p) == s.d
        assert contains(s, p)
    assert sample_interior(s, seed=10, count=6) != a


@pytest.mark.parametrize("spec", [type1(1, 2), type1(2, 2), type2(4),
                                  type3(2), type4(5), type2(6), type3(4),
                                  type1(3, 3)],
                         ids=lambda s: s.label())
def test_norm_jet_constant_term_matches_value(spec):
    cap = (2, 2)
    for p in sample_interior(spec, seed=3, count=3):
        j = generic_norm_jet(spec, p, cap)
        val = generic_norm_value(spec, p)
        assert helpers.constant_term(j) == pytest.approx(val, rel=1e-10)
        assert abs(helpers.constant_term(j).imag) < 1e-12


def test_norm_jet_first_order_matches_difference_quotient():
    spec = type1(2, 2)
    p = sample_interior(spec, seed=4, count=1)[0]
    j = generic_norm_jet(spec, p, (2, 2))
    h = 1e-6
    for i in range(spec.d):
        q = list(p)
        q[i] = q[i] + h
        fd = (generic_norm_value(spec, q) - generic_norm_value(spec, p)) / h
        # N is a polynomial in (z, zb); d/dz + d/dzb along a real step
        # first-order partials are coefficients (1! = 1)
        unit = tuple(1 if t == i else 0 for t in range(spec.d))
        grad = helpers.coefficient(j, unit, (0,) * spec.d)
        gradb = helpers.coefficient(j, (0,) * spec.d, unit)
        assert fd == pytest.approx((grad + gradb).real, abs=1e-5)


def test_norm_jet_embedding_in_larger_variable_set():
    spec = type1(1, 2)
    j = generic_norm_jet(spec, np.zeros(2), (2, 2), jacobian=np.eye(2, 3))
    assert j.num_vars == 3
    # the extra trailing variable never appears
    assert helpers.coefficient(j, (0, 0, 1), (0, 0, 0)) == 0
    assert helpers.coefficient(j, (0, 0, 1), (0, 0, 1)) == 0
    assert helpers.coefficient(j, (1, 0, 0), (0, 0, 0)) == 0
    assert helpers.coefficient(j, (1, 0, 0), (1, 0, 0)) == -1.0
    assert helpers.coefficient(j, (0, 1, 0), (0, 1, 0)) == -1.0
    with pytest.raises(ValueError):
        generic_norm_jet(spec, np.zeros(2), (2, 2), jacobian=np.eye(1, 3))


# N itself for types 1, 3 and 4; N * N = det(I - Z Zbar^t) for type 2. The
# fixed points lie near the boundary, where I - Z Zbar^t has two small
# singular values. type2(5) (odd n, order-4 Pfaffians) and type3(4) (4 x 4
# minors) stop at the caps below (3, 3), where the reference takes 1-3 s a
# call; cap (1, 3) still expands their Pfaffians to degree 3.
CAPS = ((1, 1), (2, 1), (1, 3), (2, 2), (3, 3))
FULL_CAP_NORM_CASES = [
    ("type1(2,2)", type1(2, 2), None, CAPS), ("type1(2,3)", type1(2, 3), None, CAPS),
    ("type3(2)", type3(2), None, CAPS), ("type3(3)", type3(3), None, CAPS),
    ("type2(4)", type2(4), None, CAPS), ("type4(5)", type4(5), None, CAPS),
    ("type1(2,2)-near-boundary", type1(2, 2), (0.99, 0, 0, 0.99), CAPS),
    ("type3(3)-near-boundary", type3(3), (0.99, 0, 0, 0, 0, 0.99), CAPS),
    ("type2(5)", type2(5), None, CAPS[:-1]), ("type3(4)", type3(4), None, CAPS[:-1])]


@pytest.mark.parametrize("spec,point,caps", [c[1:] for c in FULL_CAP_NORM_CASES],
                         ids=[c[0] for c in FULL_CAP_NORM_CASES])
def test_norm_jet_matches_leibniz_reference_at_full_cap(spec, point, caps):
    # seed 0 embeds the base in d + 1 variables; seed 1 uses a lower
    # triangular Jacobian whose last column is zero, like the metric-normal
    # frame of a Hartogs point. Besides the full cap (3, 3), the caps below
    # it truncate the holomorphic and antiholomorphic characters apart
    # (type 4's quadratic z z^t at degree 1, say), down to the frame's (1, 1).
    num_vars = spec.d + 1
    rng = np.random.default_rng(2)
    frame = np.tril(rng.normal(size=(num_vars, num_vars))
                    + 1j * rng.normal(size=(num_vars, num_vars)))
    for cap in caps:
        for seed, jacobian in ((0, np.eye(spec.d, num_vars)), (1, frame[:spec.d])):
            points = [point] if point else sample_interior(spec, seed=seed, count=6)
            for p in points:
                got = generic_norm_jet(spec, p, cap, jacobian=jacobian)
                if spec.kind == "type2":
                    got = helpers.mul(got, got)
                want = helpers.reference_norm(spec, p, cap, jacobian)
                err = np.abs(got.data - want.data).max()
                assert err <= 1e-12 * np.abs(want.data).max(), (cap, seed, p)


@pytest.mark.parametrize("spec", [type1(2, 2), type2(4), type4(5)],
                         ids=lambda s: s.label())
def test_norm_jet_rejects_caps_below_one_one(spec):
    for cap in ((0, 1), (1, 0), (0, 0)):
        with pytest.raises(ValueError):
            generic_norm_jet(spec, np.zeros(spec.d), cap)


def test_norm_jet_requires_interior_base_point():
    with pytest.raises(ValueError):
        generic_norm_jet(type1(1, 1), [1.5], (2, 2))


@pytest.mark.parametrize("kind", ["exc5", "exc6"])
def test_exceptional_kinds_are_not_domain_specs(kind):
    # the exceptional pair lives in the case analysis as (d, genus) only
    with pytest.raises(ValueError, match="only in the case analysis"):
        DomainSpec(kind)


CLASSICAL_UP_TO_D6 = [type1(1, 1), type1(1, 2), type1(1, 3), type1(1, 4),
                      type1(2, 2), type1(1, 5), type1(1, 6), type1(2, 3),
                      type2(4), type3(2), type3(3), type4(5), type4(6)]


@pytest.mark.parametrize("spec", CLASSICAL_UP_TO_D6, ids=lambda s: s.label())
def test_block_sampler_matches_the_per_candidate_sampler(spec):
    # candidates are drawn in blocks and tested with one stacked contains;
    # the generator draws the same doubles in the same order, so the
    # accepted points are the per-candidate sampler's
    for seed in range(4):
        for count in (1, 6, 20):
            assert sample_interior(spec, seed, count) == \
                helpers.sample_interior_reference(spec, seed, count)


@pytest.mark.parametrize("spec", CLASSICAL_UP_TO_D6, ids=lambda s: s.label())
def test_stacked_points_match_single_point_calls(spec):
    # contains, generic_norm_value and generic_norm_jet answer per point of
    # a stack (..., d), to the bit of one-point calls
    inside = sample_interior(spec, seed=1, count=4)
    stack = np.array(inside + [(2.0,) * spec.d], dtype=complex)
    assert contains(spec, stack).tolist() == [True] * 4 + [False]
    assert contains(spec, stack.reshape(5, 1, spec.d)).shape == (5, 1)
    assert generic_norm_value(spec, stack[:4]).tolist() == \
        [generic_norm_value(spec, p) for p in inside]
    rng = np.random.default_rng(spec.d)
    jac = rng.normal(size=(4, spec.d, spec.d + 1)) \
        + 1j * rng.normal(size=(4, spec.d, spec.d + 1))
    got = generic_norm_jet(spec, stack[:4], (3, 3), jacobian=0.3 * jac)
    assert got.data.shape[0] == 4
    for i, p in enumerate(inside):
        want = generic_norm_jet(spec, p, (3, 3), jacobian=0.3 * jac[i])
        assert np.array_equal(got.data[i], want.data)
    with pytest.raises(ValueError, match="^norm at point 4: base point is not "
                                         "interior"):
        generic_norm_jet(spec, stack, (1, 1))
    assert contains(spec, []).shape == (0,)
    assert generic_norm_value(spec, []).shape == (0,)
